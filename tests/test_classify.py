import importlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlang import (Dfa, MultiplicityAutomaton, PraVerdict, ReductionMode,
                       check_stochastic_bounded, classify, fixtures, is_pa,
                       is_pda, is_pra_reduced, is_reduced, is_semi_pa, is_trimmed,
                       pra_hardness_instance, reduce, state_sums, total_sum)

from stochlang.classify import (_deterministic_support, _singleton_witnesses,
                                _weight_conditions, residual_witnesses)

from helpers import (dfa_a_count_mod_k, duplicate_state, oracle_check_stochastic_bounded,
                     oracle_deterministic_support, oracle_is_pa, oracle_is_semi_pa,
                     oracle_leaving_mass, oracle_singleton_witnesses, oracle_unit_state_sums,
                     oracle_weight_conditions, plant_mixture_state, random_ma, random_pa,
                     random_pda, with_cancelling_copies)

F = Fraction


class TestSemiPa:
    def test_fig2(self):
        assert is_semi_pa(fixtures.build("fig2_A"))

    def test_fig3_has_negative_weight(self):
        assert not is_semi_pa(fixtures.build("fig3_App"))

    def test_all_zero(self):
        a = MultiplicityAutomaton(("a",), ("q0",), {}, {}, {})
        assert is_semi_pa(a)

    def test_submass_rows(self):
        a = MultiplicityAutomaton(("a",), ("q0",), {"q0": F(1, 2)},
                                  {"q0": F(1, 4)}, {("q0", "a", "q0"): F(1, 4)})
        assert is_semi_pa(a)
        assert not is_pa(a)


class TestPa:
    def test_fig5(self):
        assert is_pa(fixtures.build("fig5"))

    def test_example1_p(self):
        assert is_pa(fixtures.build("example1_p"))

    def test_low_initial_mass(self):
        a = MultiplicityAutomaton(("a",), ("q0",), {"q0": F(1, 2)}, {"q0": 1}, {})
        assert is_semi_pa(a)
        assert not is_pa(a)

    def test_untrimmed_is_not_pa(self):
        a = MultiplicityAutomaton(
            ("a",), ("q0", "sink"), {"q0": 1}, {"q0": F(1, 2)},
            {("q0", "a", "sink"): F(1, 2), ("sink", "a", "sink"): 1})
        assert not is_pa(a)


@st.composite
def weight_condition_automata(draw):
    """Random signed and nonnegative automata, PAs, and PAs with one weight
    lowered, raised or moved to a new state."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("signed", "nonneg", "pa", "lower", "raise", "unreached")))
    if kind == "signed":
        return random_ma(rng, n, ("a", "b"), density=draw(st.sampled_from((0.2, 0.6))))
    if kind == "nonneg":
        a = random_ma(rng, n, ("a", "b"), density=0.3, signed=False)
        return MultiplicityAutomaton(a.alphabet, a.states,
                                     {q: w / 8 for q, w in a.iota.items()},
                                     {q: w / 8 for q, w in a.tau.items()},
                                     {t: w / 8 for t, w in a.phi.items()})
    a = random_pa(rng, n, ("a", "b"))
    if kind == "pa":
        return a
    if kind == "unreached":
        return MultiplicityAutomaton(a.alphabet, list(a.states) + ["extra"], a.iota,
                                     {**a.tau, "extra": 1}, a.phi)
    weights = {**a.tau, **a.phi}
    key = rng.choice(sorted(weights, key=str))
    weights[key] = weights[key] / 2 if kind == "lower" else min(weights[key] + F(1, 7), F(1))
    return MultiplicityAutomaton(a.alphabet, a.states, a.iota,
                                 {q: weights[q] for q in a.tau},
                                 {t: weights[t] for t in a.phi})


class TestWeightConditionsAgainstPerStateDefinition:
    """The leaving masses come from one pass over phi; summing each state's
    transitions separately must give the same masses and verdicts."""

    @given(weight_condition_automata())
    @settings(max_examples=200, deadline=None)
    def test_same_masses_and_verdicts(self, a):
        assert oracle_leaving_mass(a) == {q: a.tau_weight(q) + a.out_weight(q)
                                          for q in a.states}
        assert is_semi_pa(a) == oracle_is_semi_pa(a)
        assert is_pa(a) == oracle_is_pa(a)


@st.composite
def pair_read_automata(draw):
    """The automata of the weight-condition tests, and PAs with a duplicated
    state or cancelling divergent copies, PDAs, signed automata over three
    letters, nonnegative ones with weights above 1, union-universality
    instances, and the automaton with no states."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("condition", "duplicate", "cancelling", "pda", "signed3",
                                 "above-one", "hardness", "empty")))
    if kind == "condition":
        return draw(weight_condition_automata())
    if kind == "duplicate":
        return duplicate_state(random_pa(rng, n, ("a", "b")), rng)
    if kind == "cancelling":
        return with_cancelling_copies(random_pa(rng, n, ("a", "b")))
    if kind == "pda":
        return random_pda(rng, n, ("a", "b"))
    if kind == "signed3":
        return random_ma(rng, n, ("a", "b", "c"), density=0.3)
    if kind == "above-one":
        return random_ma(rng, n, ("a", "b"), density=0.4, signed=False)
    if kind == "hardness":
        k = rng.randint(1, 2)
        return pra_hardness_instance([dfa_a_count_mod_k(k, rng.randrange(k))
                                      for _ in range(rng.randint(1, 2))])
    return MultiplicityAutomaton(("a", "b"), (), {}, {}, {})


class TestPairReadsAgainstFractionOracles:
    """The weight conditions and the sign test read the weight pairs, and the
    witness search and the determinism test read successor bitmasks; each
    must agree with its oracle on Fractions or frozensets."""

    @given(pair_read_automata())
    @settings(max_examples=250, deadline=None)
    def test_weight_conditions_and_sign_test(self, a):
        for trimmed in (False, True):
            assert _weight_conditions(a, trimmed) == oracle_weight_conditions(a, trimmed)
        assert check_stochastic_bounded(a, 3) == oracle_check_stochastic_bounded(a, 3)

    @given(pair_read_automata())
    @settings(max_examples=250, deadline=None)
    def test_leaving_masses_and_unit_state_sums(self, a):
        # the PA verdict and the unit-sum test read one computation of the
        # leaving masses, so every PA has unit state sums
        masses, d = a._integer_form().leaving()
        assert dict(zip(a.states, (F(m, d) for m in masses))) == oracle_leaving_mass(a)
        assert a._integer_form().unit_sums == oracle_unit_state_sums(a)
        assert a._integer_form().unit_sums or not is_pa(a)

    @given(pair_read_automata())
    @settings(max_examples=250, deadline=None)
    def test_witness_search_and_support_determinism(self, a):
        assert list(_singleton_witnesses(a).items()) == list(
            oracle_singleton_witnesses(a).items())
        assert _deterministic_support(a) == oracle_deterministic_support(a)

    def test_no_pa_verdict_builds_the_fraction_weight_maps(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("a PA verdict built the Fraction weight maps")

        automata = [fixtures.build(name) for name in ("fig2_A", "fig3_App", "fig5")]
        automata.append(pra_hardness_instance([dfa_a_count_mod_k(2, r) for r in (0, 1)]))
        expected = [(oracle_is_semi_pa(a), oracle_is_pa(a), oracle_is_pa(a)
                     and oracle_deterministic_support(a), oracle_singleton_witnesses(a),
                     oracle_check_stochastic_bounded(a, 2)) for a in automata]
        monkeypatch.setattr(MultiplicityAutomaton, "_fraction_maps", forbidden)
        assert [(is_semi_pa(a), is_pa(a), is_pda(a), _singleton_witnesses(a),
                 check_stochastic_bounded(a, 2)) for a in automata] == expected


@st.composite
def report_automata(draw):
    """The automata of the weight-condition tests, and PAs of 2-5 states with
    a planted state whose series is a convex combination of two others, so
    that classify reports on a cone reduction."""
    if draw(st.booleans()):
        return draw(weight_condition_automata())
    rng = random.Random(draw(st.integers(0, 2**32)))
    a = random_pa(rng, draw(st.integers(2, 5)), ("a", "b"))
    qi, qj = rng.sample(a.states, 2)
    alpha = F(rng.randint(1, 4), 5)
    return plant_mixture_state(a, rng, "mix", [(qi, alpha), (qj, 1 - alpha)])


class TestClassReportAgainstPredicates:
    """classify checks trimmedness and the weights once and derives the
    semi-PA, PA and PDA verdicts from them; the report must equal the
    separate public predicates."""

    @given(report_automata())
    @settings(max_examples=150, deadline=None)
    def test_report_equals_the_separate_predicates(self, a):
        report = classify(a, max_len=3)
        assert report.trimmed == is_trimmed(a)
        assert report.semi_pa == is_semi_pa(a)
        assert report.pa == is_pa(a)
        assert report.pda == is_pda(a)
        assert report.stochastic == check_stochastic_bounded(a, 3)
        if report.pa:
            reduced = reduce(a, ReductionMode.CONE)
            assert report.pra_reduced == PraVerdict(*residual_witnesses(reduced),
                                                    on_reduction=reduced is not a)
        else:
            assert report.pra_reduced is None


class TestPda:
    def test_fig2_is_pda(self):
        assert is_pda(fixtures.build("fig2_A"))

    def test_fig5_is_not(self):
        assert not is_pda(fixtures.build("fig5"))

    def test_example1_p_is_not(self):
        assert not is_pda(fixtures.build("example1_p"))


class TestPraReduced:
    def test_fig5(self):
        verdict, witnesses = is_pra_reduced(fixtures.build("fig5"))
        assert verdict
        assert witnesses == {"q0": (), "q1": ("a",)}

    def test_fig2(self):
        verdict, witnesses = is_pra_reduced(fixtures.build("fig2_A"))
        assert verdict
        assert witnesses == {"q0": (), "q1": ("a",)}

    def test_example1_p_is_not(self):
        verdict, witnesses = is_pra_reduced(fixtures.build("example1_p"))
        assert not verdict
        assert witnesses is None

    def test_precondition_not_pa(self):
        with pytest.raises(ValueError):
            is_pra_reduced(fixtures.build("fig3_App"))

    def test_residual_witnesses_checks_only_the_pa_conditions(self):
        with pytest.raises(ValueError, match="not a probabilistic automaton"):
            residual_witnesses(fixtures.build("fig3_App"))
        for name in ("fig2_A", "fig5", "example1_p"):
            a = fixtures.build(name)
            assert residual_witnesses(a) == is_pra_reduced(a)

    def test_classify_decides_reducedness_once(self, monkeypatch):
        module = importlib.import_module("stochlang.classify")

        def forbidden(*args):
            raise AssertionError("classify must not re-check cone-reducedness")
        monkeypatch.setattr(module, "is_reduced", forbidden)
        from stochlang import weighted_sum
        doubled = weighted_sum([fixtures.build("fig5"), fixtures.build("fig5")],
                               (F(1, 2), F(1, 2)))
        for a in (fixtures.build("fig5"), doubled):
            assert classify(a).pra_reduced.is_pra

    def test_reducedness_is_decided_before_the_witness_search(self, monkeypatch):
        # the witness search can visit 2^n state sets; an input that is not
        # cone-reduced is rejected without it, and a non-PA still first
        module = importlib.import_module("stochlang.classify")

        def forbidden(*args):
            raise AssertionError("the witness search must not run")
        monkeypatch.setattr(module, "_singleton_witnesses", forbidden)
        from stochlang import weighted_sum
        doubled = weighted_sum([fixtures.build("fig5"), fixtures.build("fig5")],
                               (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError, match="^input is not cone-reduced$"):
            is_pra_reduced(doubled)
        with pytest.raises(ValueError, match="^input is not a probabilistic automaton$"):
            is_pra_reduced(fixtures.build("fig3_App"))

    def test_precondition_not_reduced(self):
        from stochlang import weighted_sum
        doubled = weighted_sum([fixtures.build("fig5"), fixtures.build("fig5")],
                               (F(1, 2), F(1, 2)))
        assert is_pa(doubled)
        with pytest.raises(ValueError):
            is_pra_reduced(doubled)

    def test_witnesses_verified_by_nfa_simulation(self):
        for name in ("fig2_A", "fig5"):
            a = fixtures.build(name)
            verdict, witnesses = is_pra_reduced(a)
            assert verdict
            delta = a.support_delta()
            for q, w in witnesses.items():
                subset = frozenset(a.initial_states())
                for x in w:
                    subset = frozenset().union(
                        *(delta.get((s, x), frozenset()) for s in subset))
                assert subset == {q}

    def test_pda_fixtures_are_pra(self):
        for name in ("fig2_A", "example1_p1", "example1_p2"):
            a = fixtures.build(name)
            assert is_pda(a)
            assert is_pra_reduced(a)[0]

    def test_pda_implies_pra(self):
        from helpers import random_pda
        rng = random.Random(51)
        checked = 0
        for _ in range(30):
            a = random_pda(rng, rng.randint(2, 3), ("a", "b"))
            if not is_pda(a) or not is_reduced(a, ReductionMode.CONE):
                continue
            assert is_pra_reduced(a)[0]
            checked += 1
        assert checked >= 10


class TestStochasticBounded:
    def test_prop10(self):
        report = check_stochastic_bounded(fixtures.build("prop10_t"), 8)
        assert report.sum_is_one and report.violation is None

    def test_fig3(self):
        report = check_stochastic_bounded(fixtures.build("fig3_App"), 8)
        assert report.sum_is_one and report.violation is None

    def test_negated_final_weights(self):
        app = fixtures.build("fig3_App")
        negated = MultiplicityAutomaton(
            app.alphabet, app.states, app.iota,
            {q: -w for q, w in app.tau.items()}, app.phi)
        report = check_stochastic_bounded(negated, 8)
        assert not report.sum_is_one
        assert report.violation == ()

    def test_violation_is_length_lex_smallest(self):
        a = MultiplicityAutomaton(
            ("a", "b"), ("q0", "q1"), {"q0": 1}, {"q0": F(1, 2), "q1": F(-1, 4)},
            {("q0", "b", "q1"): F(1, 2)})
        report = check_stochastic_bounded(a, 4)
        assert report.violation == ("b",)

    def test_all_pa_fixtures_clean(self):
        for name in ("fig2_A", "fig5", "example1_p", "example1_p1", "example1_p2"):
            report = check_stochastic_bounded(fixtures.build(name), 8)
            assert report.sum_is_one and report.violation is None

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_length_below_one_rejected(self, max_len):
        a = fixtures.build("prop10_t")
        with pytest.raises(ValueError, match="max_len must be at least 1"):
            check_stochastic_bounded(a, max_len)
        with pytest.raises(ValueError, match="max_len must be at least 1"):
            classify(a, max_len)


class TestClassReport:
    def test_fig2(self):
        report = classify(fixtures.build("fig2_A"))
        assert report.trimmed and report.semi_pa and report.pa and report.pda
        assert report.pra_reduced.is_pra and not report.pra_reduced.on_reduction

    def test_fig3(self):
        report = classify(fixtures.build("fig3_App"))
        assert not report.semi_pa and not report.pa
        assert report.pra_reduced is None
        assert report.stochastic.sum_is_one

    def test_unreduced_pa_reports_on_reduction(self):
        from stochlang import weighted_sum
        doubled = weighted_sum([fixtures.build("fig5"), fixtures.build("fig5")],
                               (F(1, 2), F(1, 2)))
        report = classify(doubled)
        assert report.pa
        assert report.pra_reduced.on_reduction
        assert report.pra_reduced.is_pra


def dfa_all(alphabet=("a", "b")):
    delta = {("s0", x): "s0" for x in alphabet}
    return Dfa(alphabet, ("s0",), "s0", frozenset({"s0"}), delta)


def dfa_only_epsilon(alphabet=("a", "b")):
    delta = {("s0", x): "s1" for x in alphabet}
    delta.update({("s1", x): "s1" for x in alphabet})
    return Dfa(alphabet, ("s0", "s1"), "s0", frozenset({"s0"}), delta)


def dfa_a_count_mod(residue, alphabet=("a", "b")):
    delta = {}
    for x in alphabet:
        delta[("e", x)] = "o" if x == "a" else "e"
        delta[("o", x)] = "e" if x == "a" else "o"
    return Dfa(alphabet, ("e", "o"), "e", frozenset({"e" if residue == 0 else "o"}), delta)


def union_covers_all(dfas, max_len):
    alphabet = dfas[0].alphabet
    for k in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=k):
            if not any(d.accepts(w) for d in dfas):
                return False
    return True


class TestHardnessInstance:
    def test_total_union_is_not_pra(self):
        b = pra_hardness_instance([dfa_all()])
        assert is_pa(b)
        assert is_reduced(b, ReductionMode.CONE)
        assert not is_pra_reduced(b)[0]

    def test_epsilon_language_is_pra(self):
        b = pra_hardness_instance([dfa_only_epsilon(("a",))])
        assert is_pa(b)
        assert is_reduced(b, ReductionMode.CONE)
        assert is_pra_reduced(b)[0]

    def test_complementary_pair_is_not_pra(self):
        b = pra_hardness_instance([dfa_a_count_mod(0), dfa_a_count_mod(1)])
        assert is_pa(b)
        assert not is_pra_reduced(b)[0]

    def test_verdict_tracks_union_universality(self):
        families = [
            [dfa_all()],
            [dfa_only_epsilon()],
            [dfa_a_count_mod(0)],
            [dfa_a_count_mod(0), dfa_a_count_mod(1)],
            [dfa_only_epsilon(), dfa_a_count_mod(1)],
        ]
        for dfas in families:
            b = pra_hardness_instance(dfas)
            assert is_pa(b)
            assert is_reduced(b, ReductionMode.CONE)
            assert is_pra_reduced(b)[0] == (not union_covers_all(dfas, 6))

    def test_state_sums_are_one(self):
        b = pra_hardness_instance([dfa_a_count_mod(0)])
        sums = state_sums(b)
        assert sums is not None and all(v == 1 for v in sums.values())
        assert total_sum(b).value == 1

    def test_classify_report_stays_tractable(self):
        # the nonnegativity scan must not enumerate words over the wide
        # alphabet of a generated instance; all its weights are nonnegative
        b = pra_hardness_instance([dfa_a_count_mod(0)])
        report = classify(b)
        assert report.pa
        assert report.pra_reduced.is_pra
        assert report.stochastic.sum_is_one
        assert report.stochastic.violation is None

    @pytest.mark.parametrize("residues,universal", [((0, 1, 2), True), ((0, 1, 0), False)])
    def test_classify_on_mod_three_counters(self, residues, universal):
        # 13 states: three 3-state counters plus the four gadget states
        b = pra_hardness_instance([dfa_a_count_mod_k(3, r) for r in residues])
        assert b.n_states == 13
        report = classify(b)
        assert report.pa and not report.pra_reduced.on_reduction
        assert report.pra_reduced.is_pra == (not universal)
        assert (report.pra_reduced.witnesses is None) == universal

    def test_dfa_takes_a_list_of_final_states(self):
        d = Dfa(("a",), ("s0", "s1"), "s0", ["s1"], {("s0", "a"): "s1"})
        assert d.finals == frozenset({"s1"})
        assert isinstance(d.finals, frozenset)
        assert d.accepts(("a",)) and not d.accepts(())

    def test_dfa_rejects_an_undeclared_final_state(self):
        with pytest.raises(ValueError, match="final states must be declared states"):
            Dfa(("a",), ("s0",), "s0", ["s9"], {("s0", "a"): "s0"})

    @pytest.mark.parametrize("alphabet,states,message", [
        (("a",), ("s0", "s0"), "duplicate state name"),
        (("a", "a"), ("s0",), "duplicate letter name"),
        (("a",), ("s0", ""), "state names must be non-empty strings, got ''"),
        (("",), ("s0",), "letter names must be non-empty strings, got ''"),
    ])
    def test_dfa_checks_its_names(self, alphabet, states, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dfa(alphabet, states, "s0", ["s0"], {})

    def test_dfa_stores_its_names_as_tuples(self):
        d = Dfa(["a"], ["s0"], "s0", ["s0"], {("s0", "a"): "s0"})
        assert d.alphabet == ("a",) and d.states == ("s0",)

    def test_dfa_hash_agrees_with_equality(self):
        d = Dfa(("a",), ("s",), "s", ["s"], {("s", "a"): "s"})
        same = Dfa(["a"], ["s"], "s", frozenset({"s"}), dict(d.delta))
        other = Dfa(("a",), ("s",), "s", [], {("s", "a"): "s"})
        assert d == same and hash(d) == hash(same)
        assert d != other
        assert len({d, same, other}) == 2

    def test_rejects_empty_language(self):
        d = Dfa(("a",), ("s0",), "s0", frozenset(), {("s0", "a"): "s0"})
        with pytest.raises(ValueError):
            pra_hardness_instance([d])

    def test_rejects_a_language_whose_final_states_are_unreachable(self):
        d = Dfa(("a",), ("s0", "s1"), "s0", ["s1"], {("s0", "a"): "s0", ("s1", "a"): "s1"})
        assert not d.language_nonempty()
        with pytest.raises(ValueError, match="^automaton 1 recognises the empty language$"):
            pra_hardness_instance([dfa_all(("a",)), d])

    def test_reachability_runs_once_per_dfa(self, monkeypatch):
        # emptiness, the renaming and the links read one list per DFA
        calls = []
        real = Dfa.reachable_states

        def counted(self):
            calls.append(self)
            return real(self)
        monkeypatch.setattr(Dfa, "reachable_states", counted)
        dfas = [dfa_a_count_mod_k(3, r) for r in (0, 1, 2)]
        pra_hardness_instance(dfas)
        assert calls == dfas

    def test_reachable_states_are_those_some_word_reaches(self):
        # a random partial DFA against the states its words of length < n reach
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 6)
            states = tuple(f"s{i}" for i in range(n))
            delta = {(q, x): rng.choice(states) for q in states for x in "ab"
                     if rng.random() < 0.4}
            d = Dfa(("a", "b"), states, rng.choice(states), [], delta)
            reached = set()
            for k in range(n):
                for w in itertools.product("ab", repeat=k):
                    q = d.initial
                    for x in w:
                        q = d.step(q, x)
                    reached.add(q)
            assert d.reachable_states() == tuple(q for q in states if q in reached)

    def test_rejects_mixed_alphabets(self):
        with pytest.raises(ValueError):
            pra_hardness_instance([dfa_all(("a",)), dfa_all(("a", "b"))])
