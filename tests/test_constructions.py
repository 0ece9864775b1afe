import importlib
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlang import (ConstructionError, MultiplicityAutomaton,
                       ReductionMode, are_equivalent,
                       determinize_to_pda, fixtures, is_pa, is_pda,
                       minimal_residual_generators, parse_automaton, prefix_weight,
                       reduce, residual_automaton, state_series_automaton, state_sums,
                       synthesize_pa, to_prefixial_pra, weighted_sum, words_up_to)
from stochlang.automata import replace_iota
from stochlang.classify import residual_witnesses

from helpers import (duplicate_state, oracle_determinize_to_pda,
                     oracle_minimal_residual_generators, oracle_synthesize_pa,
                     oracle_to_prefixial_pra, random_pa, random_pda, random_unit_mass_ma, ring_pa,
                     split_copy, timed, with_cancelling_copies)

F = Fraction
GOLDEN_INPUTS = Path(__file__).parent / "data" / "cli_golden" / "inputs"


def golden_input(name):
    return parse_automaton((GOLDEN_INPUTS / f"{name}.json").read_text())


def counted_calls(monkeypatch, owner, name):
    """The arguments of every later call of ``owner.name``; ``owner`` is an
    object or the name of a module."""
    if isinstance(owner, str):
        owner = importlib.import_module(owner)
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def single_state_pa():
    return MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1}, {})


class TestSynthesizePa:
    def test_example1_mixture(self):
        target = fixtures.build("example1_p")
        built = synthesize_pa(target, [fixtures.build("example1_p1"),
                                       fixtures.build("example1_p2")])
        assert built is not None
        assert is_pa(built)
        assert are_equivalent(built, target).equal
        assert built.iota == {"s0": F(1, 2), "s1": F(1, 2)}
        assert built.tau == {"s0": F(1, 2), "s1": F(3, 4)}
        assert built.phi == {("s0", "a", "s0"): F(1, 2), ("s1", "a", "s1"): F(1, 4)}

    def test_self_representation(self):
        p1 = fixtures.build("example1_p1")
        built = synthesize_pa(p1, [p1])
        assert built is not None
        assert built.iota == {"s0": F(1)}
        assert built.tau == {"s0": F(1, 2)}
        assert built.phi == {("s0", "a", "s0"): F(1, 2)}

    def test_fig3_over_its_residual_basis_is_infeasible(self):
        app = fixtures.build("fig3_App")
        res = residual_automaton(app, ("a",))
        assert synthesize_pa(app, [app, res]) is None

    def test_rejects_non_unit_mass_generator(self):
        half = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": F(1, 2)}, {})
        with pytest.raises(ValueError):
            synthesize_pa(single_state_pa(), [half])

    def test_success_invariants_on_random_mixtures(self):
        # single-state generators form shift-stable families by construction
        rng = random.Random(61)

        def geometric(stop_num, stop_den):
            stop = F(stop_num, stop_den)
            return MultiplicityAutomaton(("a",), ("g",), {"g": 1}, {"g": stop},
                                         {("g", "a", "g"): 1 - stop})

        for _ in range(8):
            gens = [geometric(rng.randint(1, 3), rng.randint(3, 5)) for _ in range(2)]
            c = F(rng.randint(0, 4), 4)
            target = weighted_sum(gens, (c, 1 - c))
            built = synthesize_pa(target, gens)
            assert built is not None
            assert is_pa(built)
            assert are_equivalent(built, target).equal

    def test_target_mass_other_than_one_is_rejected(self):
        # twice the series of the mass-1 generator: every question is
        # feasible, and the mix coefficient 2 is the target's mass
        with pytest.raises(ValueError, match="^the series must have total mass 1$"):
            synthesize_pa(golden_input("mass_two"), [fixtures.build("example1_p1")])

    def test_mass_error_names_the_first_failing_generator(self):
        # the state series of ring4 share one structure and one sum table;
        # doubling one of them, or making one diverge, blames that one
        a = ring_pa(4)
        gens = [state_series_automaton(a, q) for q in a.states]
        doubled = list(gens)
        doubled[2] = replace_iota(gens[2], tuple(2 * x for x in
                                                 gens[2].to_linear_representation().lam))
        with pytest.raises(ValueError, match="^generator 2 does not have total mass 1$"):
            synthesize_pa(a, doubled)
        looped = MultiplicityAutomaton(a.alphabet, ("q",), {"q": 1}, {"q": 1},
                                       {("q", "a", "q"): 1})
        with pytest.raises(ValueError, match="^generator 1 does not have total mass 1$"):
            synthesize_pa(a, [gens[0], looped, doubled[2]])

    def test_generator_of_mass_one_that_is_no_distribution_fails_assembly(self):
        # g1 has mass 1 but the value -1/2 on the empty word; its shift by a
        # is 3 times example1_p1, so the assembled automaton has a negative
        # final weight and a transition of weight 3
        g1 = MultiplicityAutomaton(("a",), ("q0", "q1"), {"q0": 1},
                                   {"q0": F(-1, 2), "q1": F(1, 2)},
                                   {("q0", "a", "q1"): F(3, 2), ("q1", "a", "q1"): F(1, 2)})
        with pytest.raises(ConstructionError):
            synthesize_pa(g1, [g1, fixtures.build("example1_p1")])


def ring_state_series(n):
    """ring_pa(n) and its n state series, each trimmed and split in two with
    Random(i)."""
    a = ring_pa(n)
    return a, [split_copy(state_series_automaton(a, q).trim(), random.Random(i))
               for i, q in enumerate(a.states)]


@st.composite
def synthesis_families(draw):
    """A target and a shuffled family: the split state series of a random PA
    with 2-5 states and 1-3 convex mixtures of two of those series, so the
    coefficients are not unique. The target is the PA or one of the
    mixtures. Half of the families lose one member, which may leave them
    unstable or unable to express the target."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    pa = random_pa(rng, rng.randint(2, 5), ("a", "b"))
    series = [state_series_automaton(pa, q).trim() for q in pa.states]
    mixtures = []
    for _ in range(rng.randint(1, 3)):
        c = F(rng.randint(1, 4), 5)
        mixtures.append(weighted_sum(rng.sample(series, 2), (c, 1 - c)))
    family = [split_copy(a, rng) for a in series] + mixtures
    rng.shuffle(family)
    if draw(st.booleans()):
        family.pop()
    return rng.choice([pa, *mixtures]), family


@given(synthesis_families())
@settings(max_examples=30, deadline=None)
def test_synthesis_matches_the_per_question_oracle(family):
    target, generators = family
    assert (_outcome(synthesize_pa, target, generators)
            == _outcome(oracle_synthesize_pa, target, generators))


def test_synthesize_at_scale():
    # 1 + 16 * 2 questions over 16 generators of 32 states, on one table
    a, gens = ring_state_series(16)
    built = timed(synthesize_pa, a, gens, limit_s=1.0)
    assert built.n_states == 16
    assert are_equivalent(built, a).equal


# values 1, 1, -1 on the empty word, a and aa: total mass 1, but the residual
# at a has mass 0 and a nonzero series
ZERO_MASS_RESIDUAL = MultiplicityAutomaton(
    ("a", "b"), ("q0", "q1", "q2"), {"q0": 1}, {"q0": 1, "q1": 1, "q2": -1},
    {("q0", "a", "q1"): 1, ("q1", "a", "q2"): 1})


class TestDeterminize:
    def test_fig2_two_states(self):
        out = determinize_to_pda(fixtures.build("fig2_A"), 8)
        assert not out.bound_exceeded
        assert out.discovered_residuals == 2
        assert out.pda.n_states == 2
        assert is_pda(out.pda)
        assert are_equivalent(out.pda, fixtures.build("fig2_A")).equal

    def test_example1_exceeds_bound(self):
        out = determinize_to_pda(fixtures.build("example1_p"), 8)
        assert out.bound_exceeded
        assert out.discovered_residuals == 9

    def test_fig5_exceeds_bound(self):
        out = determinize_to_pda(fixtures.build("fig5"), 16)
        assert out.bound_exceeded
        assert out.discovered_residuals == 17

    def test_divergent_input_rejected(self):
        diverging = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1},
                                          {("q0", "a", "q0"): 1})
        with pytest.raises(ValueError):
            determinize_to_pda(diverging, 4)

    def test_non_unit_mass_rejected(self):
        half = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": F(1, 2)}, {})
        with pytest.raises(ValueError):
            determinize_to_pda(half, 4)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(ValueError, match="max_states must be at least 1"):
            determinize_to_pda(fixtures.build("example1_p"), bound)

    def test_idempotence_on_pdas(self):
        rng = random.Random(62)
        for _ in range(8):
            a = random_pda(rng, rng.randint(2, 3), ("a", "b"))
            if not is_pda(a):
                continue
            out = determinize_to_pda(a, 8)
            assert not out.bound_exceeded
            assert out.pda.n_states <= a.n_states
            assert are_equivalent(out.pda, a).equal

    def test_state_count_matches_discovery(self):
        out = determinize_to_pda(fixtures.build("fig2_A"), 8)
        assert out.pda.n_states == out.discovered_residuals

    def test_one_sum_per_explored_edge(self, monkeypatch):
        # with a state-sum vector s every mass is the dot product with s: one
        # per explored edge plus the total, and no recurrence at all
        constructions = importlib.import_module("stochlang.constructions")
        recurrences = counted_calls(monkeypatch, "stochlang.analysis", "_minimal_recurrence")
        masses = counted_calls(monkeypatch, constructions._Residuals, "mass")
        a = fixtures.build("fig2_A")
        out = determinize_to_pda(a, 8)
        assert len(masses) == 1 + out.discovered_residuals * len(a.alphabet)
        assert recurrences == []

    @pytest.mark.parametrize("a", [with_cancelling_copies(fixtures.build("fig2_A")),
                                   with_cancelling_copies(golden_input("pda4"))],
                             ids=["fig2_A", "pda4"])
    def test_one_recurrence_per_edge_without_state_sums(self, monkeypatch, a):
        # divergent state sums: the total and every edge mass run one recurrence
        recurrences = counted_calls(monkeypatch, "stochlang.analysis", "_minimal_recurrence")
        out = determinize_to_pda(a, 16)
        assert not out.bound_exceeded
        assert len(recurrences) == 1 + out.discovered_residuals * len(a.alphabet)

    @pytest.mark.parametrize("bound", [2, 8, 32])
    def test_one_letter_sum_matrix_per_call(self, monkeypatch, bound):
        # every residual shares M and gamma, so the integer table of A^k g
        # is built once per call, however many residuals the call explores
        module = importlib.import_module("stochlang.constructions")
        calls = []

        def counted(a):
            calls.append(a)
            return real(a)
        real = module._sum_table
        monkeypatch.setattr(module, "_sum_table", counted)
        out = determinize_to_pda(ring_pa(8), bound)
        assert out.discovered_residuals == bound + 1
        assert len(calls) == 1

    def test_signed_unit_mass_series_is_a_construction_error(self):
        # values 2 on the empty word and -1 on "a": mass 1, not a distribution
        a = MultiplicityAutomaton(("a",), ("q0", "q1"), {"q0": 1},
                                  {"q0": 2, "q1": -1}, {("q0", "a", "q1"): 1})
        with pytest.raises(ConstructionError, match="not a probability distribution"):
            determinize_to_pda(a, 4)

    def test_residual_of_mass_zero_with_a_nonzero_series_is_a_construction_error(self):
        # the residual at a has mass 0, but its series takes the values 1 on
        # the empty word and -1 on a
        a = ZERO_MASS_RESIDUAL
        assert prefix_weight(a, ("a",)) == 0 and a.evaluate(("a",)) == 1
        for determinize in (determinize_to_pda, oracle_determinize_to_pda):
            with pytest.raises(ConstructionError, match="not a probability distribution"):
                determinize(a, 8)

    def test_nonzero_residual_vector_of_the_zero_series_is_skipped(self):
        # the residual at a starts from q1 + q2, whose values cancel on every
        # word: its mass is 0 and so is its series, so a has no edge
        a = MultiplicityAutomaton(("a", "b"), ("q0", "q1", "q2"), {"q0": 1},
                                  {"q0": 1, "q1": 1, "q2": -1},
                                  {("q0", "a", "q1"): 1, ("q0", "a", "q2"): 1})
        built = determinize_to_pda(a, 8).pda
        assert built == oracle_determinize_to_pda(a, 8).pda
        assert built.n_states == 1 and not built.phi and are_equivalent(built, a).equal


class TestPrefixial:
    def test_zero_prefix_weight_is_spelled_as_the_cli_reads_it(self):
        # over letters of two characters the words are joined by dots
        a = MultiplicityAutomaton(("x1", "x2"), ("q0", "q1"), {"q0": 1},
                                  {"q0": F(1, 2), "q1": 1}, {("q0", "x1", "q1"): F(1, 2)})
        assert is_pa(a)
        with pytest.raises(ValueError, match=r"^prefix weight of x2\.x1 is zero$"):
            to_prefixial_pra(a, {"q0": (), "q1": ("x2", "x1")})

    def test_fig5(self):
        a = fixtures.build("fig5")
        built = to_prefixial_pra(a, {"q0": (), "q1": ("a",)})
        assert built.states == ("@", "a")
        assert built.tau == {"@": F(1, 2)}
        assert built.phi == {("@", "a", "a"): F(1, 2),
                             ("a", "a", "@"): F(1, 2),
                             ("a", "a", "a"): F(1, 2)}
        assert is_pa(built)
        assert are_equivalent(built, a).equal

    def test_fig2_rebuilds_itself(self):
        a = fixtures.build("fig2_A")
        built = to_prefixial_pra(a, {"q0": (), "q1": ("a",)})
        assert built.states == ("@", "a")
        assert built.tau == {"a": F(1)}
        assert built.phi == {("@", "a", "a"): F(1, 2), ("@", "b", "@"): F(1, 2)}
        assert are_equivalent(built, a).equal

    def test_single_state(self):
        a = single_state_pa()
        built = to_prefixial_pra(a, {"q0": ()})
        assert built.states == ("@",)
        assert are_equivalent(built, a).equal

    def test_state_words_are_prefix_closed(self):
        a = fixtures.build("fig5")
        built = to_prefixial_pra(a, {"q0": (), "q1": ("a",)})
        from stochlang import parse_word
        words = {parse_word(q, built.alphabet) for q in built.states}
        assert all(w[:i] in words for w in words for i in range(len(w)))

    def test_every_state_series_is_its_own_residual(self):
        for name, witnesses in (("fig5", {"q0": (), "q1": ("a",)}),
                                ("fig2_A", {"q0": (), "q1": ("a",)})):
            built = to_prefixial_pra(fixtures.build(name), witnesses)
            from stochlang import parse_word
            for q in built.states:
                w = parse_word(q, built.alphabet)
                assert are_equivalent(residual_automaton(built, w),
                                      state_series_automaton(built, q)).equal

    def test_bad_witness_rejected(self):
        a = fixtures.build("fig5")
        with pytest.raises(ValueError, match="^witness verification failure for state "
                                             "'q1': the residual at aa differs at @$"):
            to_prefixial_pra(a, {"q0": (), "q1": ("a", "a")})

    def test_long_state_names_and_letters_are_echoed_as_a_prefix(self):
        # fig5 with its state q1 renamed to 5000 characters
        long = "q" * 5000
        a = MultiplicityAutomaton(("a",), ("q0", long), {"q0": 1}, {"q0": F(1, 2)},
                                  {("q0", "a", long): F(1, 2), (long, "a", "q0"): F(1, 2),
                                   (long, "a", long): F(1, 2)})
        echo = re.escape(f"{'q' * 40!r}... (5000 characters)")
        with pytest.raises(ValueError, match=f"^missing witness for state {echo}$"):
            to_prefixial_pra(a, {"q0": ()})
        with pytest.raises(ValueError, match=f"^witness verification failure for state {echo}: "
                                             "the residual at aa differs at @$"):
            to_prefixial_pra(a, {"q0": (), long: ("a", "a")})
        res = importlib.import_module("stochlang.constructions")._Residuals(a)
        with pytest.raises(ValueError, match=f"^letter {echo} is not in the alphabet$"):
            res.step(res.start, long)

    def test_duplicate_witnesses_rejected(self):
        a = fixtures.build("fig5")
        with pytest.raises(ValueError):
            to_prefixial_pra(a, {"q0": (), "q1": ()})

    def test_non_pa_rejected(self):
        with pytest.raises(ValueError):
            to_prefixial_pra(fixtures.build("fig3_App"), {"q0": (), "q1": ("a",)})


class TestMinimalResidualGenerators:
    def test_fig2(self):
        assert minimal_residual_generators(fixtures.build("fig2_A"), 2) == [(), ("a",)]

    def test_example1_inconclusive(self):
        assert minimal_residual_generators(fixtures.build("example1_p"), 3) is None

    def test_single_state(self):
        assert minimal_residual_generators(single_state_pa(), 1) == [()]

    def test_stable_under_depth_increase(self):
        a = fixtures.build("fig2_A")
        assert (minimal_residual_generators(a, 2)
                == minimal_residual_generators(a, 3)
                == minimal_residual_generators(a, 4))
        b = single_state_pa()
        assert minimal_residual_generators(b, 1) == minimal_residual_generators(b, 3)

    def test_divergent_rejected(self):
        diverging = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1},
                                          {("q0", "a", "q0"): 1})
        with pytest.raises(ValueError):
            minimal_residual_generators(diverging, 2)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            minimal_residual_generators(fixtures.build("fig2_A"), depth)


# ----------------------------------------- residuals as integer keys on backward rows

def _oracle_inputs():
    inputs = [(name, fixtures.build(name)) for name in fixtures.FIXTURE_NAMES]
    inputs += [(f"ring{n}", ring_pa(n)) for n in range(2, 9)]
    rng = random.Random(61)
    pdas = [random_pda(rng, n, ("a", "b")) for n in (4, 6, 8)]
    inputs += [(f"pda{a.n_states}", a) for a in pdas]
    inputs += [(f"pda{a.n_states}-split", split_copy(a, rng)) for a in pdas]
    # signed series of total mass 1: residual masses of both signs, prefixes
    # of mass zero, and bounds hit, finished or ended in a ConstructionError
    inputs.append(("signed-residuals", golden_input("signed_residuals")))
    rng = random.Random(71)
    signed = []
    while len(signed) < 8:
        a = random_unit_mass_ma(rng, rng.randint(2, 4), ("a", "b"))
        if a is not None:
            signed.append(a)
    inputs += [(f"signed{i}-{a.n_states}", a) for i, a in enumerate(signed)]
    # divergent state sums under a convergent total: every mass falls back
    # to its own recurrence
    for name, a in (("fig2_A", fixtures.build("fig2_A")), ("fig5", fixtures.build("fig5")),
                    ("example1_p", fixtures.build("example1_p")), ("pda4", pdas[0]),
                    ("signed0", signed[0])):
        inputs.append((f"{name}-cancelling", with_cancelling_copies(a)))
    # a duplicated state: one more dimension of the state space, none of V
    rng = random.Random(79)
    inputs += [(f"{name}-duplicate", duplicate_state(a, rng))
               for name, a in (("fig2_A", fixtures.build("fig2_A")), ("pda4", pdas[0]))]
    # the words a a^k and b a^k take the values 1 and -1: the total is 1, but
    # the prefix masses of a and b diverge
    inputs.append(("opposite-prefixes", MultiplicityAutomaton(
        ("a", "b"), ("s", "d1", "d2"), {"s": 1}, {"s": 1, "d1": 1, "d2": -1},
        {("s", "a", "d1"): 1, ("s", "b", "d2"): 1, ("d1", "a", "d1"): 1,
         ("d2", "a", "d2"): 1})))
    inputs.append(("zero-mass-residual", ZERO_MASS_RESIDUAL))
    return inputs


ORACLE_INPUTS = _oracle_inputs()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ConstructionError) as exc:
        return type(exc), str(exc)


def test_oracle_inputs_reach_sixteen_states():
    assert max(a.n_states for _, a in ORACLE_INPUTS) == 16


def _assert_determinize_matches_oracle(a, bound):
    assert (_outcome(determinize_to_pda, a, bound)
            == _outcome(oracle_determinize_to_pda, a, bound))


@pytest.mark.parametrize("bound", [3, 8, 16])
@pytest.mark.parametrize("a", [a for _, a in ORACLE_INPUTS],
                         ids=[name for name, _ in ORACLE_INPUTS])
def test_determinize_matches_pairwise_oracle(a, bound):
    _assert_determinize_matches_oracle(a, bound)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("a", [a for _, a in ORACLE_INPUTS],
                         ids=[name for name, _ in ORACLE_INPUTS])
def test_minimal_generators_match_pairwise_oracle(a, depth):
    assert (_outcome(minimal_residual_generators, a, depth)
            == _outcome(oracle_minimal_residual_generators, a, depth))


def test_minimal_generators_ask_each_question_once(monkeypatch):
    # a residual that is no nonnegative combination of the residuals kept is
    # none of any subset of them, so one pass asks each residual one drop
    # question; on ring_pa(4) at depth 3 a pass that restarted after each
    # drop asked 38 questions, one of them 11 times
    module = importlib.import_module("stochlang.constructions")
    real = module.combination_on_rows
    targets = []

    def counted(table, target, columns, nonneg):
        targets.append(target)
        return real(table, target, columns, nonneg=nonneg)
    monkeypatch.setattr(module, "combination_on_rows", counted)
    assert minimal_residual_generators(ring_pa(4), 3) == [(), ("b",), ("b", "b"),
                                                          ("b", "b", "b")]
    assert len(targets) == 23 and max(Counter(targets).values()) == 1
    for _, a in ORACLE_INPUTS:
        targets.clear()
        _outcome(minimal_residual_generators, a, 2)
        assert max(Counter(targets).values(), default=0) <= 1


@st.composite
def unit_mass_series(draw):
    """Random signed automata of 1-4 states scaled to total mass 1, half of
    them with cancelling divergent copies, so that no state-sum vector exists."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    a = None
    while a is None:
        a = random_unit_mass_ma(rng, rng.randint(1, 4), ("a", "b"))
    return with_cancelling_copies(a) if draw(st.booleans()) else a


@given(unit_mass_series())
@settings(max_examples=40, deadline=None)
def test_exploration_matches_the_oracles_on_random_unit_mass_series(a):
    _assert_determinize_matches_oracle(a, 8)
    assert (_outcome(minimal_residual_generators, a, 2)
            == _outcome(oracle_minimal_residual_generators, a, 2))


def test_oracle_inputs_cover_signed_and_divergent_state_sums():
    outcomes = [_outcome(determinize_to_pda, a, 16) for _, a in ORACLE_INPUTS]
    assert any(type(out) is tuple and out[0] is ConstructionError for out in outcomes)
    assert sum(state_sums(a) is None for _, a in ORACLE_INPUTS) >= 6
    assert (ValueError, "prefix mass diverges") in outcomes
    masses = [prefix_weight(a, u) for name, a in ORACLE_INPUTS if name.startswith("signed")
              for u in words_up_to(a.alphabet, 2)]
    assert min(masses) < 0 and 0 in masses


def _prefixial_cases():
    """PAs with witness maps: the residual witnesses of cone-reduced PRAs
    (words up to length 3), and distinct random words up to length 3, which
    mostly fail verification, some on a word of prefix weight zero."""
    rng = random.Random(73)
    pas = [fixtures.build("fig2_A"), fixtures.build("fig5"), golden_input("pda4")]
    pas += [random_pda(rng, n, ("a", "b")) for n in (2, 3, 4, 4, 5, 6)]
    cases = []
    for i, a in enumerate(pas):
        a = reduce(a, ReductionMode.CONE)
        verdict, witnesses = residual_witnesses(a)
        if verdict:
            cases.append((f"witnesses{i}", a, witnesses))
        words = list(words_up_to(a.alphabet, 3))
        for k in range(3):
            cases.append((f"random{i}-{k}", a,
                          dict(zip(a.states, rng.sample(words, a.n_states)))))
    return cases


PREFIXIAL_CASES = _prefixial_cases()


@pytest.mark.parametrize("a, witnesses", [case[1:] for case in PREFIXIAL_CASES],
                         ids=[case[0] for case in PREFIXIAL_CASES])
def test_prefixial_matches_per_witness_oracle(a, witnesses):
    assert (_outcome(to_prefixial_pra, a, witnesses)
            == _outcome(oracle_to_prefixial_pra, a, witnesses))


def test_prefixial_cases_cover_rebuilds_and_each_witness_error():
    outcomes = [_outcome(to_prefixial_pra, a, w) for _, a, w in PREFIXIAL_CASES]
    assert sum(isinstance(out, MultiplicityAutomaton) for out in outcomes) >= 5
    assert max(len(w) for name, _, ws in PREFIXIAL_CASES if name.startswith("witnesses")
               for w in ws.values()) >= 2
    messages = [out[1] for out in outcomes if type(out) is tuple]
    assert any(m.startswith("witness verification failure") for m in messages)
    assert any(m.startswith("prefix weight of") for m in messages)


@pytest.mark.parametrize("n", range(8, 25))
def test_residuals_are_vectors_on_the_backward_span(n):
    # the split copy has 2n states and its backward span V has dimension n:
    # residuals, their steps and their masses live on V
    a = split_copy(ring_pa(n), random.Random(n))
    res = importlib.import_module("stochlang.constructions")._Residuals(a)
    assert a.n_states == 2 * n and len(res.span.rows) == n
    assert len(res.start) == n and res.mass(res.start) * res.start_factor == 1
    for x in a.alphabet:
        assert len(res.step(res.start, x)[1]) == n


def test_determinize_at_scale():
    # 65 distinct residuals of a 32-state ring PA: one mass per edge is v . s
    out = timed(determinize_to_pda, ring_pa(32), 64, limit_s=2.0)
    assert out.bound_exceeded and out.discovered_residuals == 65


def test_minimal_generators_at_scale():
    # the 15 residuals of depth 3 of a 24-state ring PA cover no stable family
    assert timed(minimal_residual_generators, ring_pa(24), 3, limit_s=2.0) is None


@pytest.fixture
def calls(monkeypatch):
    """Counts of equivalence-layer calls, backward closures and sum tables,
    direct or nested, by function name."""
    counts = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module, names in (("stochlang.constructions", ("are_equivalent", "_backward_closure",
                                                       "_sum_table")),
                          ("stochlang.equivalence", ("are_equivalent", "express_combination",
                                                     "_backward_closure"))):
        mod = importlib.import_module(module)
        for name in names:
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    return counts


@pytest.mark.parametrize("name", ["fig2_A", "fig5", "example1_p"])
def test_determinize_uses_one_closure_and_no_pairwise_check(calls, name):
    determinize_to_pda(fixtures.build(name), 16)
    assert calls == {"_backward_closure": 1, "_sum_table": 1}


@pytest.mark.parametrize("name", ["fig2_A", "fig5", "example1_p"])
def test_minimal_generators_use_one_closure_and_no_search(calls, name):
    minimal_residual_generators(fixtures.build(name), 3)
    assert calls == {"_backward_closure": 1, "_sum_table": 1}


@pytest.mark.parametrize("name", ["fig2_A", "fig5"])
def test_prefixial_runs_only_the_final_equivalence_check(calls, name):
    to_prefixial_pra(fixtures.build(name), {"q0": (), "q1": ("a",)})
    assert calls["are_equivalent"] == 1
    assert calls["express_combination"] == 0


@pytest.mark.parametrize("family", ["example1", "ring4", "ring4_shared"])
def test_synthesis_uses_one_closure_and_no_per_question_solve(calls, family):
    # the per-question loop closes 1 + 2 * 1 and 1 + 4 * 2 times; the mass
    # checks build one sum table per structure: p1 and p2 differ, the split
    # series differ, and the unsplit state series of ring4 share one
    if family == "ring4":
        a, gens = ring_state_series(4)
        structures = 4
    elif family == "ring4_shared":
        a = ring_pa(4)
        gens = [state_series_automaton(a, q) for q in a.states]
        structures = 1
    else:
        a, gens = (fixtures.build("example1_p"),
                   [fixtures.build("example1_p1"), fixtures.build("example1_p2")])
        structures = 2
    assert synthesize_pa(a, gens) is not None
    assert calls == {"_backward_closure": 1, "_sum_table": structures}
