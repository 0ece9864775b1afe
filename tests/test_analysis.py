import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochlang import (MultiplicityAutomaton, SumOutcome, are_equivalent, empty_automaton,
                       fixtures, format_word, is_pa, prefix_weight, residual_automaton,
                       state_sums, total_sum, words_up_to)
from stochlang import analysis as analysis_module
from stochlang import constructions as constructions_module
from stochlang.analysis import (_mass, _minimal_recurrence, _series_sum, _state_sum_vector,
                                _sum_table)
from stochlang.automata import _IntegerForm, replace_iota
from stochlang.constructions import _Residuals
from stochlang.linalg import dot, solve_affine, spectral_radius_lt_one

from helpers import (counted_sum_tables, duplicate_state, example1_residual_value, identity,
                     letter_sum_matrix, mat_sub, oracle_fraction_state_sum_vector,
                     oracle_minimal_recurrence, oracle_series_sum,
                     oracle_solve_affine, oracle_state_sums, oracle_total_sum,
                     oracle_unit_state_sums, permuted_copy, plant_mixture_state,
                     primitive_with_factor, random_fraction, random_ma, random_pa,
                     random_unit_mass_ma, ring_pa, split_copy, timed, unit_vector,
                     with_cancelling_copies)

F = Fraction

ALL_FIXTURES = [fixtures.build(name) for name in fixtures.FIXTURE_NAMES]


def check_against_decomposition_oracle(a):
    """Compare total_sum and state_sums with the decomposition kernel under
    both complement orders, and total_sum with the Fraction recurrence
    kernel; return the outcome and the state sums."""
    outcome = total_sum(a)
    sums = state_sums(a)
    value = outcome.value if outcome.converges else None
    for reverse in (False, True):
        assert oracle_total_sum(a, reverse) == value
        assert oracle_state_sums(a, reverse) == sums
    assert oracle_series_sum(a, a.to_linear_representation().lam) == value
    return outcome, sums


def planted_sequence(coeffs, start, length):
    """Integer sequence with s_k = -(coeffs[0] s_(k-1) + ... ) after ``start``."""
    terms = list(start)
    while len(terms) < length:
        k = len(terms)
        terms.append(-sum(a * terms[k - 1 - j] for j, a in enumerate(coeffs)))
    return terms[:length]


def check_recurrence(terms):
    """The integer recurrence is a coprime multiple of the Fraction one."""
    c = _minimal_recurrence(terms)
    assert all(isinstance(x, int) for x in c) and c[0]
    assert [F(x, c[0]) for x in c] == oracle_minimal_recurrence(terms)
    return c


def partial_sums(a, up_to):
    """Sums over words of each length, accumulated; via plain matrix powers."""
    rep = a.to_linear_representation()
    m = letter_sum_matrix(a)
    totals = []
    v = rep.gamma
    acc = F(0)
    for _ in range(up_to + 1):
        acc += dot(rep.lam, v)
        totals.append(acc)
        v = tuple(dot(row, v) for row in m.rows)
    return totals


class TestTotalSum:
    def test_fig3_converges_to_one(self):
        outcome = total_sum(fixtures.build("fig3_App"))
        assert outcome.converges and outcome.value == 1

    def test_prop10_converges_to_one(self):
        outcome = total_sum(fixtures.build("prop10_t"))
        assert outcome.converges and outcome.value == 1

    def test_prop10_global_contraction_cross_check(self):
        a = fixtures.build("prop10_t")
        rep = a.to_linear_representation()
        m = letter_sum_matrix(a)
        assert spectral_radius_lt_one(m)
        sol = solve_affine(mat_sub(identity(m.nrows), m), rep.gamma)
        assert dot(rep.lam, sol.particular) == total_sum(a).value

    def test_self_loop_diverges(self):
        a = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1},
                                  {("q0", "a", "q0"): 1})
        assert not total_sum(a).converges

    def test_zero_automaton(self):
        from stochlang import empty_automaton
        outcome = total_sum(empty_automaton(("a",)))
        assert outcome.converges and outcome.value == 0

    def test_partial_sums_approach_value(self):
        # fig3_App drains at rate 3/4 and fig5 at (1 + sqrt 5)/4, so their
        # tails need more length to fall under 1e-4 than the other fixtures.
        depth = {name: 24 for name in fixtures.FIXTURE_NAMES}
        depth["fig3_App"] = 40
        depth["fig5"] = 48
        for name in fixtures.FIXTURE_NAMES:
            a = fixtures.build(name)
            value = total_sum(a).value
            sums = partial_sums(a, depth[name])
            errors = [abs(s - value) for s in sums]
            assert all(e2 <= e1 for e1, e2 in zip(errors, errors[1:]))
            assert errors[-1] < F(1, 10 ** 4)

    def test_complement_choice_does_not_matter(self):
        diverging = MultiplicityAutomaton(
            ("a",), ("q0",), {"q0": 1}, {"q0": 1}, {("q0", "a", "q0"): 2})
        for a in ALL_FIXTURES + [diverging]:
            check_against_decomposition_oracle(a)

    def test_agrees_with_decomposition_oracle_on_random_signed_automata(self):
        # transitions are scaled down by a random factor so that convergent
        # and divergent series both occur in quantity
        rng = random.Random(25)
        counts = {"converges": 0, "diverges": 0, "states_converge": 0}
        for _ in range(200):
            raw = random_ma(rng, rng.randint(1, 3), rng.choice([("a",), ("a", "b")]))
            scale = rng.choice([2, 1, F(1, 2), F(1, 4)])
            a = MultiplicityAutomaton(raw.alphabet, raw.states, raw.iota, raw.tau,
                                      {k: w * scale for k, w in raw.phi.items()})
            outcome, sums = check_against_decomposition_oracle(a)
            counts["converges" if outcome.converges else "diverges"] += 1
            counts["states_converge"] += sums is not None
        assert counts["converges"] >= 50 and counts["diverges"] >= 50
        assert counts["states_converge"] >= 50

    def test_oscillating_terms_diverge(self):
        # terms are (-1)^k: bounded partial sums but no limit
        a = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1},
                                  {("q0", "a", "q0"): -1})
        assert not total_sum(a).converges

    def test_alternating_geometric_series(self):
        a = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1},
                                  {("q0", "a", "q0"): F(-1, 2)})
        outcome = total_sum(a)
        assert outcome.converges and outcome.value == F(2, 3)

    def test_unobserved_divergent_direction_is_ignored(self):
        # q1 blows up but is unreachable mass: neither fed by iota nor feeding tau
        a = MultiplicityAutomaton(
            ("a",), ("q0", "q1"), {"q0": 1}, {"q0": F(1, 2)},
            {("q0", "a", "q0"): F(1, 2), ("q1", "a", "q1"): 3})
        outcome = total_sum(a)
        assert outcome.converges and outcome.value == 1

    def test_random_pa_sums_to_one(self):
        rng = random.Random(21)
        for _ in range(15):
            a = random_pa(rng, rng.randint(2, 4), ("a", "b"))
            assert is_pa(a)
            outcome = total_sum(a)
            assert outcome.converges and outcome.value == 1

    def test_global_contraction_cross_check_on_random_instances(self):
        # whenever the full letter-sum matrix is a contraction, the subspace
        # machinery must agree with the plain geometric-series formula
        rng = random.Random(24)
        checked = 0
        for _ in range(20):
            a = random_pa(rng, rng.randint(2, 4), ("a", "b"))
            rep = a.to_linear_representation()
            m = letter_sum_matrix(a)
            if not spectral_radius_lt_one(m):
                continue
            sol = solve_affine(mat_sub(identity(m.nrows), m), rep.gamma)
            assert total_sum(a).value == dot(rep.lam, sol.particular)
            checked += 1
        assert checked >= 10


small_ints = st.integers(-6, 6)


class TestIntegerRecurrence:
    """Fraction-free Berlekamp-Massey against the Fraction one."""

    @given(st.integers(0, 9).flatmap(lambda order: st.tuples(
        st.lists(small_ints, min_size=order, max_size=order),
        st.lists(small_ints, min_size=order, max_size=order),
        st.integers(0, 4))))
    @settings(max_examples=150, deadline=None)
    def test_planted_recurrences(self, planted):
        coeffs, start, extra = planted
        order = len(coeffs)
        terms = planted_sequence(coeffs, start, 2 * order + extra)
        c = check_recurrence(terms)
        assert len(c) - 1 <= order
        for k in range(len(c) - 1, len(terms)):
            assert sum(x * terms[k - j] for j, x in enumerate(c)) == 0

    @given(st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_all_zero_sequences(self, length):
        assert check_recurrence([0] * length) == [1]

    @given(st.lists(small_ints, max_size=6), st.integers(0, 6),
           st.integers(0, 6).flatmap(lambda order: st.tuples(
               st.lists(small_ints, min_size=order, max_size=order),
               st.lists(small_ints, min_size=order, max_size=order))))
    @settings(max_examples=150, deadline=None)
    def test_transient_sequences(self, prefix, zeros, planted):
        # an arbitrary prefix, a run of zeros, then a planted recurrence
        coeffs, start = planted
        tail = planted_sequence(coeffs, start, 2 * len(coeffs) + 2)
        check_recurrence(prefix + [0] * zeros + tail)
        check_recurrence(prefix + [0] * zeros)

    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_sequences(self, terms):
        check_recurrence(terms)

    def test_geometric_sequence(self):
        assert check_recurrence([3 * 2 ** k for k in range(8)]) == [1, -2]


class TestSeriesSumAgainstFractionOracle:
    def test_every_fixture_residual(self):
        # the kernel itself, also on the PA fixtures, whose sums the library
        # reads off the weights
        for a in ALL_FIXTURES:
            rep = a.to_linear_representation()
            table = table_path(_sum_table, a)
            for u in words_up_to(a.alphabet, 3):
                v = rep.forward(rep.lam, u)
                outcome = _series_sum(table, *primitive_with_factor(v))
                assert (outcome.value if outcome.converges else None) == \
                    oracle_series_sum(a, v)


class TestStateSums:
    def test_pa_fixtures_all_one(self):
        for name in ("fig2_A", "fig5", "example1_p"):
            sums = state_sums(fixtures.build(name))
            assert sums is not None and all(v == 1 for v in sums.values())

    def test_fig2_values(self):
        assert state_sums(fixtures.build("fig2_A")) == {"q0": F(1), "q1": F(1)}

    def test_divergent_gives_none(self):
        a = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1},
                                  {("q0", "a", "q0"): 1})
        assert state_sums(a) is None

    def test_pa_invariant_on_random_instances(self):
        rng = random.Random(22)
        for _ in range(10):
            a = random_pa(rng, rng.randint(2, 4), ("a", "b"))
            sums = state_sums(a)
            assert sums is not None and all(v == 1 for v in sums.values())

    def test_one_sum_table_and_no_solve(self, monkeypatch):
        # with unit state sums the sums are read off the weights; otherwise
        # the minimal polynomial and the sums come from the table of A^k g
        # alone: no membership solve and no separate echelon form
        calls = []

        def counter(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted
        linalg = sys.modules["stochlang.linalg"]
        for name in ("solve_affine", "rref"):
            real = getattr(linalg, name)
            for module in [m for key, m in sys.modules.items() if key.startswith("stochlang")]:
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counter(name, real))
        tables = counted_sum_tables(monkeypatch, analysis_module)
        # the counters see the library's own eliminations, also the rref
        # that invert calls
        linalg.solve_affine(identity(1), [1])
        linalg.invert(identity(1))
        assert calls == ["solve_affine", "rref"]
        unit = {"fig2_A", "fig5", "example1_p", "example1_p1", "example1_p2", "ring8"}
        named = dict(zip(fixtures.FIXTURE_NAMES, ALL_FIXTURES),
                     ring8=ring_pa(8), hidden8=hidden_divergence(ring_pa(8)))
        for name, a in named.items():
            assert a._integer_form().unit_sums == (name in unit)
            calls.clear()
            tables.clear()
            state_sums(a)
            assert calls == [] and tables == ([] if name in unit else [a])


class TestPrefixWeight:
    def test_pa_total_mass(self):
        for name in ("fig2_A", "fig5", "example1_p"):
            assert prefix_weight(fixtures.build(name), ()) == 1

    def test_example1_a(self):
        # 2 p1 / 8 + p2 / 8 has mass (2 + 1) / 8
        assert prefix_weight(fixtures.build("example1_p"), ("a",)) == F(3, 8)

    def test_fig3_a(self):
        assert prefix_weight(fixtures.build("fig3_App"), ("a",)) == F(3, 8)

    def test_example1_matches_closed_form(self):
        p = fixtures.build("example1_p")
        for n in range(11):
            expected = F(2 ** n + 1, 2 ** (2 * n + 1))
            assert prefix_weight(p, ("a",) * n) == expected

    def test_divergent_errors(self):
        a = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1},
                                  {("q0", "a", "q0"): 1})
        with pytest.raises(ValueError, match="prefix mass diverges"):
            prefix_weight(a, ("a",))

    def test_only_the_prefix_sum_must_converge(self):
        # d diverges on a and dies on b, so after b only c's sum 2/3 counts
        a = MultiplicityAutomaton(
            ("a", "b"), ("c", "d"), {"c": 1, "d": 1}, {"c": F(1, 2), "d": 1},
            {("c", "b", "c"): F(1, 4), ("d", "a", "d"): 1})
        assert not total_sum(a).converges
        assert state_sums(a) is None
        assert prefix_weight(a, ("b",)) == F(1, 6)
        assert total_sum(residual_automaton(a, ("b",))) == SumOutcome.converged(F(1))
        with pytest.raises(ValueError, match="prefix mass diverges"):
            prefix_weight(a, ("a",))


class TestResidualAutomaton:
    def test_epsilon_residual_of_pa_is_equivalent(self):
        for name in ("fig2_A", "fig5", "example1_p"):
            a = fixtures.build(name)
            assert are_equivalent(residual_automaton(a, ()), a).equal

    def test_example1_residual_formula(self):
        p = fixtures.build("example1_p")
        for n in (1, 2):
            res = residual_automaton(p, ("a",) * n)
            for m in range(11):
                assert res.evaluate(("a",) * m) == example1_residual_value(n, m)

    def test_cancelling_divergent_copies(self):
        # two divergent copies of one state with initial weights +1 and -1
        # cancel; the convergent state c carries the whole series
        a = MultiplicityAutomaton(
            ("a",), ("c", "d1", "d2"), {"c": 1, "d1": 1, "d2": -1},
            {"c": F(1, 2), "d1": 1, "d2": 1},
            {("c", "a", "c"): F(1, 2), ("d1", "a", "d1"): 1, ("d2", "a", "d2"): 1})
        assert total_sum(a) == SumOutcome.converged(F(1))
        assert state_sums(a) is None
        assert prefix_weight(a, ("a",)) == F(1, 2)
        res = residual_automaton(a, ("a",))
        assert total_sum(res) == SumOutcome.converged(F(1))
        for m in range(6):
            assert res.evaluate(("a",) * m) == F(1, 2 ** (m + 1))

    def test_zero_prefix_weight_errors(self):
        a = fixtures.build("fig2_A")
        # after reading "a" the remaining mass sits on the empty word only
        with pytest.raises(ValueError):
            residual_automaton(a, ("a", "a"))

    def test_residual_consistency_on_random_pas(self):
        rng = random.Random(23)
        for _ in range(6):
            a = random_pa(rng, rng.randint(2, 3), ("a", "b"))
            for u in words_up_to(a.alphabet, 3):
                mass = prefix_weight(a, u)
                if mass == 0:
                    continue
                res = residual_automaton(a, u)
                for w in words_up_to(a.alphabet, 3):
                    assert res.evaluate(w) * mass == a.evaluate(u + w)

    def test_residual_consistency_with_negative_weights(self):
        a = fixtures.build("fig3_App")
        for u in words_up_to(a.alphabet, 4):
            mass = prefix_weight(a, u)
            if mass == 0:
                continue
            res = residual_automaton(a, u)
            for w in words_up_to(a.alphabet, 4):
                assert res.evaluate(w) * mass == a.evaluate(u + w)


def planted_divergence(a):
    # q0 feeds a state whose own loop already has mass 1
    return MultiplicityAutomaton(
        a.alphabet, a.states + ("d",), a.iota, {**a.tau, "d": F(1)},
        {**a.phi, ("q0", "b", "d"): F(1, 8), ("d", "a", "d"): F(1)})


def hidden_divergence(a):
    # two copies of a divergent state are fed +w and -w and cancel: the
    # series sum converges although the state sums do not
    return MultiplicityAutomaton(
        a.alphabet, a.states + ("d1", "d2"), a.iota,
        {**a.tau, "d1": F(1), "d2": F(1)},
        {**a.phi, ("q0", "b", "d1"): F(1, 8), ("q0", "b", "d2"): F(-1, 8),
         ("d1", "a", "d1"): F(2), ("d2", "a", "d2"): F(2)})


class TestBeyondFiveStates:
    """Ring PAs with 8 to 40 states.

    The decomposition oracle finishes up to 12 states, the Fraction
    recurrence oracle and the Fraction solve of (Id - M) s = gamma at every
    size here.
    """

    @pytest.mark.parametrize("n", [8, 12, 16, 20])
    def test_ring_pa_sums_are_one(self, n):
        a = ring_pa(n)
        assert a.n_states == n
        assert total_sum(a) == SumOutcome.converged(F(1))
        sums = state_sums(a)
        assert sums is not None and all(v == 1 for v in sums.values())

    @pytest.mark.parametrize("n,limit_s", [(16, 1.0), (24, 1.0), (32, 1.0), (40, 2.0)])
    def test_ring_pa_total_sum_is_one_at_scale(self, n, limit_s):
        a = ring_pa(n)
        assert timed(total_sum, a, limit_s=limit_s) == SumOutcome.converged(F(1))
        assert oracle_series_sum(a, a.to_linear_representation().lam) == 1

    @pytest.mark.parametrize("a,limit_s", [
        (ring_pa(24), 1.0), (ring_pa(32), 1.0), (ring_pa(40), 2.5),
        (split_copy(ring_pa(20), random.Random(20)), 1.0)],
        ids=["ring24", "ring32", "ring40", "split20"])
    def test_state_sums_at_scale(self, a, limit_s):
        # every state of a ring PA, and each copy of a state, sums to 1; the
        # oracle solves (Id - M) s = gamma by Gauss-Jordan over Fractions
        sums = timed(state_sums, a, limit_s=limit_s)
        m = letter_sum_matrix(a)
        sol = oracle_solve_affine(mat_sub(identity(m.nrows), m),
                                  a.to_linear_representation().gamma)
        assert sol.nullspace == ()
        assert sums == dict(zip(a.states, sol.particular))
        assert set(sums.values()) == {1}

    @pytest.mark.parametrize("n", [8, 12])
    def test_ring_pa_agrees_with_decomposition_oracle(self, n):
        a = ring_pa(n)
        assert oracle_total_sum(a) == total_sum(a).value == 1

    def test_planted_divergent_state(self):
        planted = planted_divergence(ring_pa(12))
        assert not total_sum(planted).converges
        assert state_sums(planted) is None

    def test_hidden_divergent_pair(self):
        hidden = hidden_divergence(ring_pa(12))
        assert total_sum(hidden) == SumOutcome.converged(F(1))
        assert state_sums(hidden) is None

    def test_planted_and_hidden_divergence_at_24_states(self):
        a = ring_pa(24)
        planted, hidden = planted_divergence(a), hidden_divergence(a)
        assert not timed(total_sum, planted, limit_s=1.0).converges
        assert timed(total_sum, hidden, limit_s=1.0) == SumOutcome.converged(F(1))
        assert oracle_series_sum(planted, planted.to_linear_representation().lam) is None
        assert oracle_series_sum(hidden, hidden.to_linear_representation().lam) == 1

    @pytest.mark.parametrize("n,limit_s", [(16, 1.0), (24, 1.0), (32, 1.0), (40, 2.5)])
    def test_sum_table_kernel_at_scale(self, n, limit_s):
        # ring PAs have unit state sums, so total_sum and state_sums do not
        # run the kernel on them; time the kernel itself
        a = ring_pa(n)
        form = a._integer_form()
        table = timed(table_path, _sum_table, a, limit_s=limit_s)
        assert timed(_series_sum, table, form.iota, form.iota_factor,
                     limit_s=limit_s) == SumOutcome.converged(F(1))
        vector, unit = timed(_state_sum_vector, table, range(n), limit_s=limit_s)
        assert [unit * x for x in vector] == [1] * n


def table_path(build, a, vector=True):
    """``build(a)`` as on an input without unit state sums, so that
    ``_sum_table`` builds the table; with ``vector`` false also as if no
    state-sum vector existed, so that ``_Residuals`` takes its per-residual
    fallback."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_IntegerForm, "unit_sums", property(lambda self: False))
        if not vector:
            mp.setattr(constructions_module, "_state_sum_vector", lambda table, states: None)
        return build(a)


def oracle_state_sum_vector(a):
    """The state sums (Id - M)^-1 gamma by a Gauss-Jordan solve over Fractions."""
    m = letter_sum_matrix(a)
    sol = oracle_solve_affine(mat_sub(identity(m.nrows), m), a.to_linear_representation().gamma)
    assert sol.nullspace == ()
    return sol.particular


def planted_mixtures(a, rng):
    """Two more states, whose series mix two states' series 1/2 : 1/2 and
    1/3 : 2/3, so that the pivot entries of the backward rows differ."""
    for name, c in (("mix2", F(1, 2)), ("mix3", F(1, 3))):
        q, r = rng.sample(a.states, 2) if a.n_states > 1 else a.states * 2
        a = plant_mixture_state(a, rng, name, [(q, c), (r, 1 - c)])
    return a


@st.composite
def unit_sum_automata(draw):
    """Random PAs of 1-12 states over 1-3 letters and ring PAs of 1-24
    states, as they are, as a permuted, split or duplicated-state copy or
    with two planted mixture states, and with their own or a signed
    initial vector."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        a = random_pa(rng, draw(st.integers(1, 12)), ("a", "b", "c")[:draw(st.integers(1, 3))])
    else:
        a = ring_pa(draw(st.integers(1, 24)))
    copy = draw(st.sampled_from((None, permuted_copy, split_copy, duplicate_state,
                                 planted_mixtures)))
    if copy is not None:
        a = copy(a, rng)
        assert a._integer_form().unit_sums
    if draw(st.booleans()):
        a = replace_iota(a, [random_fraction(rng) for _ in a.states])
    return a


def trapped(a):
    # half of q0's final weight feeds a state that loops with weight 1 and
    # never stops: every leaving mass is 1, but the sums from q0 fall below 1
    tau = dict(a.tau, q0=a.tau["q0"] / 2)
    phi = {**a.phi, ("q0", a.alphabet[0], "trap"): a.tau["q0"] / 2,
           ("trap", a.alphabet[0], "trap"): F(1)}
    return MultiplicityAutomaton(a.alphabet, a.states + ("trap",), a.iota, tau, phi)


def short_row(a, q):
    # every weight leaving q0 times 1 - 1/q, so q0's leaving mass is 1 - 1/q
    keep = 1 - F(1, q)
    return MultiplicityAutomaton(
        a.alphabet, a.states, a.iota, dict(a.tau, q0=a.tau["q0"] * keep),
        {t: w * keep if t[0] == "q0" else w for t, w in a.phi.items()})


# two one-state automata whose leaving mass is 1 but for a negative weight:
# their terms are 2, -2, 2, ... and -1, -2, -4, ..., so both sums diverge
NEAR_MISSES = {"trapped": trapped(ring_pa(8)), "short-row": short_row(ring_pa(8), 7),
               "cancelling": with_cancelling_copies(ring_pa(8)),
               "hidden": hidden_divergence(ring_pa(8)), "stateless": empty_automaton(("a", "b")),
               "negative-edge": MultiplicityAutomaton(("a", "b"), ("q0",), {"q0": 1},
                                                      {"q0": 2}, {("q0", "a", "q0"): -1}),
               "negative-final": MultiplicityAutomaton(("a", "b"), ("q0",), {"q0": 1},
                                                       {"q0": -1}, {("q0", "a", "q0"): 2})}


class TestUnitStateSums:
    """Inputs whose weights are nonnegative, whose leaving masses are all 1
    and whose states all reach a final weight have state sums 1: every sum
    is read off the weights, and no caller builds a sum table. Any other
    input takes the table path, with the same answers as before."""

    @given(unit_sum_automata())
    @settings(max_examples=40, deadline=None)
    def test_unit_path_equals_the_table_path_and_the_oracles(self, a):
        assert a._integer_form().unit_sums
        assert oracle_unit_state_sums(a)
        form = a._integer_form()
        words = list(words_up_to(a.alphabet, 2))
        with pytest.MonkeyPatch.context() as mp:
            tables = counted_sum_tables(mp, analysis_module, constructions_module)
            outcome, sums = total_sum(a), state_sums(a)
            masses = [prefix_weight(a, u) for u in words]
            residuals = []
            for u in words:
                try:
                    residuals.append(residual_automaton(a, u))
                except ValueError as error:
                    residuals.append(str(error))
            res = _Residuals(a)
        assert tables == []

        table = table_path(_sum_table, a)
        assert outcome == _series_sum(table, form.iota, form.iota_factor)
        vector, unit = _state_sum_vector(table, range(a.n_states))
        assert sums == {q: unit * x for q, x in zip(a.states, vector)}
        assert set(sums.values()) == {1}
        rep = a.to_linear_representation()
        oracle_sums = oracle_state_sum_vector(a)
        assert list(sums.values()) == list(oracle_sums)
        assert outcome.value == oracle_series_sum(a, rep.lam) == dot(rep.lam, oracle_sums)
        if a.n_states <= 4:
            assert oracle_total_sum(a) == outcome.value
            assert oracle_state_sums(a) == sums
        for u, mass, residual in zip(words, masses, residuals):
            w, c = form.forward(u)
            table_mass = _mass(table, w)
            assert mass == c * table_mass == dot(rep.forward(rep.lam, u), oracle_sums)
            if table_mass:
                assert residual == replace_iota(a, [x / table_mass for x in w])
            else:
                spelled = format_word(u, a.alphabet) if u else "the empty word"
                assert residual == f"prefix weight of {spelled} is zero"

        reference = table_path(_Residuals, a)
        fallback = table_path(_Residuals, a, vector=False)
        assert reference.sums is not None and fallback.sums is None
        vectors = {(): res.start}
        for u in words[1:]:
            p = vectors[u] = res.step(vectors[u[:-1]], u[-1])[1]
        for p in vectors.values():
            exact = res.unit * res.mass(p)
            assert exact == reference.unit * reference.mass(p) == fallback.mass(p)
            assert fallback.unit == 1
            if exact:
                assert res.tau(p, res.mass(p)) == reference.tau(p, reference.mass(p))

    @pytest.mark.parametrize("name", sorted(NEAR_MISSES))
    def test_near_misses_take_the_table_path(self, monkeypatch, name):
        a = NEAR_MISSES[name]
        assert not a._integer_form().unit_sums and not oracle_unit_state_sums(a)
        rep = a.to_linear_representation()
        tables = counted_sum_tables(monkeypatch, analysis_module, constructions_module)
        outcome = total_sum(a)
        assert len(tables) == 1
        assert (outcome.value if outcome.converges else None) == oracle_series_sum(a, rep.lam)
        tables.clear()
        sums = state_sums(a)
        assert len(tables) == 1
        own = [oracle_series_sum(a, unit_vector(a.n_states, i)) for i in range(a.n_states)]
        assert sums == (None if None in own else dict(zip(a.states, own)))
        for u in words_up_to(a.alphabet, 1):
            tables.clear()
            expected = oracle_series_sum(a, rep.forward(rep.lam, u))
            if expected is None:
                with pytest.raises(ValueError, match="prefix mass diverges"):
                    prefix_weight(a, u)
            else:
                assert prefix_weight(a, u) == expected
            assert len(tables) == 1
        if name == "trapped":
            assert sums["q0"] < 1 and outcome.value < 1


@st.composite
def table_path_automata(draw):
    """Automata of 6-12 states over 1-2 letters without unit state sums:
    signed ``random_ma``, ``random_unit_mass_ma``, a ``random_pa`` with
    cancelling divergent copies, and a ``random_pa`` with every transition
    scaled by 9/10."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(6, 12))
    letters = ("a", "b")[:draw(st.integers(1, 2))]
    kind = draw(st.sampled_from(("signed", "unit-mass", "cancelling", "scaled")))
    if kind == "signed":
        a = random_ma(rng, n, letters)
    elif kind == "unit-mass":
        a = random_unit_mass_ma(rng, n, letters)
        assume(a is not None)
    elif kind == "cancelling":
        a = with_cancelling_copies(random_pa(rng, n - 2, letters))
    else:
        a = random_pa(rng, n, letters)
        a = MultiplicityAutomaton(a.alphabet, a.states, a.iota, a.tau,
                                  {t: w * F(9, 10) for t, w in a.phi.items()})
    assume(not a._integer_form().unit_sums)
    return a


class TestSharedEvaluation:
    """Totals and state sums on the table path beyond 5 states: both
    readers of the one integer evaluation against the Fraction oracles and
    the Fraction kernel that it replaced, divergent inputs included."""

    @given(table_path_automata())
    @settings(max_examples=40, deadline=None)
    def test_totals_and_state_sums_against_the_oracles(self, a):
        n = a.n_states
        rep = a.to_linear_representation()
        table = _sum_table(a)
        assert table is not None
        outcome, sums = total_sum(a), state_sums(a)
        assert (outcome.value if outcome.converges else None) == oracle_series_sum(a, rep.lam)
        own = [oracle_series_sum(a, unit_vector(n, i)) for i in range(n)]
        assert sums == (None if None in own else dict(zip(a.states, own)))
        assert _state_sum_vector(table, range(n)) == oracle_fraction_state_sum_vector(table, n)
        res = _Residuals(a)
        if outcome.converges:
            assert res.start_factor * res.mass(res.start) == outcome.value
        else:
            with pytest.raises(ValueError, match="prefix mass diverges"):
                res.mass(res.start)
        if sums is None:
            return
        assert list(sums.values()) == list(oracle_state_sum_vector(a))
        for i, q in enumerate(a.states):
            e_i = [int(j == i) for j in range(n)]
            assert _series_sum(table, e_i, F(1)) == SumOutcome.converged(sums[q])
