import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlang import (MultiplicityAutomaton, ReductionMode, ReductionStallError,
                       are_equivalent, fixtures, hankel_rank, is_pa, is_reduced,
                       pra_hardness_instance, reduce, weighted_sum, words_up_to)
from stochlang import equivalence, linalg
from stochlang.equivalence import combination_on_rows
from stochlang.reduction import _dependent

from helpers import (dfa_a_count_mod_k, duplicate_state, identity, oracle_cone_reduce,
                     oracle_field_reduce, oracle_hankel_rank, oracle_is_cone_reduced,
                     plant_convex_state, plant_mixture_state, random_dense_ma,
                     random_fraction, random_ma, random_pa, ring_pa, split_copy, split_state,
                     timed, value_rows, with_cancelling_copies)

F = Fraction


def halved_double(a):
    """Disjoint union of an automaton with itself, initial mass halved."""
    return weighted_sum([a, a], (F(1, 2), F(1, 2)))


class TestIsReduced:
    def test_fig2_field(self):
        assert is_reduced(fixtures.build("fig2_A"), ReductionMode.FIELD)

    def test_duplicated_states_are_not(self):
        doubled = halved_double(fixtures.build("fig3_App"))
        assert not is_reduced(doubled, ReductionMode.FIELD)

    def test_fig5_cone(self):
        assert is_reduced(fixtures.build("fig5"), ReductionMode.CONE)

    def test_modes_can_differ(self):
        # q1's series is -1 times q0's: a field combination but not a cone one
        a = MultiplicityAutomaton(
            ("a",), ("q0", "q1"), {"q0": 1, "q1": 1},
            {"q0": F(1, 2), "q1": F(-1, 2)},
            {("q0", "a", "q0"): F(1, 2), ("q1", "a", "q1"): F(1, 2)})
        assert not is_reduced(a, ReductionMode.FIELD)
        assert is_reduced(a, ReductionMode.CONE)


class TestReduce:
    def test_already_reduced_unchanged(self):
        a = fixtures.build("fig2_A")
        assert reduce(a, ReductionMode.FIELD) is a

    def test_duplicate_elimination(self):
        app = fixtures.build("fig3_App")
        reduced = reduce(halved_double(app), ReductionMode.FIELD)
        assert reduced.n_states == 2
        assert are_equivalent(reduced, app).equal

    def test_built_in_combination_state(self):
        # q2's outgoing rows average q0's and q1's, so its series is their mean
        base = fixtures.build("fig2_A")
        phi = dict(base.phi)
        for x in base.alphabet:
            for r in ("q0", "q1"):
                w = (base.weight("q0", x, r) + base.weight("q1", x, r)) / 2
                if w:
                    phi[("q2", x, r)] = w
        a = MultiplicityAutomaton(
            ("a", "b"), ("q0", "q1", "q2"),
            {"q0": F(1, 2), "q2": F(1, 2)},
            {"q1": 1, "q2": F(1, 2)},
            phi)
        reduced = reduce(a, ReductionMode.FIELD)
        assert reduced.n_states == 2
        assert are_equivalent(reduced, a).equal
        for q in reduced.states:
            for w in words_up_to(a.alphabet, 6):
                assert reduced.evaluate_state(q, w) == a.evaluate_state(q, w)

    def test_preserves_surviving_state_series(self):
        rng = random.Random(41)
        for _ in range(10):
            a = duplicate_state(random_dense_ma(rng, rng.randint(2, 3), ("a", "b")), rng)
            reduced = reduce(a, ReductionMode.FIELD)
            assert are_equivalent(a, reduced).equal
            for q in reduced.states:
                for w in words_up_to(a.alphabet, 6):
                    assert reduced.evaluate_state(q, w) == a.evaluate_state(q, w)

    def test_cone_reduction_of_pa_is_pa(self):
        rng = random.Random(42)
        for _ in range(8):
            a = duplicate_state(random_pa(rng, rng.randint(2, 3), ("a", "b")), rng)
            assert is_pa(a)
            reduced = reduce(a, ReductionMode.CONE)
            assert is_pa(reduced)
            assert are_equivalent(a, reduced).equal


class TestHankelRank:
    def test_zero_automaton(self):
        from stochlang import empty_automaton
        assert hankel_rank(empty_automaton(("a",))) == 0
        zero = MultiplicityAutomaton(("a",), ("q0",), {}, {"q0": 1}, {})
        assert hankel_rank(zero) == 0

    def test_fig3(self):
        assert hankel_rank(fixtures.build("fig3_App")) == 2

    def test_example1_p(self):
        assert hankel_rank(fixtures.build("example1_p")) == 2

    def test_invariant_under_duplication(self):
        rng = random.Random(43)
        for _ in range(10):
            a = random_dense_ma(rng, rng.randint(2, 3), ("a", "b"))
            assert hankel_rank(duplicate_state(a, rng)) == hankel_rank(a)

    def test_field_reduction_reaches_rank_on_fixtures(self):
        for name in fixtures.FIXTURE_NAMES:
            a = fixtures.build(name)
            assert reduce(a, ReductionMode.FIELD).n_states == hankel_rank(a)


class TestRankAgainstPairingOracle:
    def test_fixtures(self):
        for name in fixtures.FIXTURE_NAMES:
            a = fixtures.build(name)
            assert hankel_rank(a) == oracle_hankel_rank(a)

    def test_random_signed_automata(self):
        rng = random.Random(44)
        for _ in range(50):
            alphabet = ("a", "b") if rng.random() < 0.7 else ("a",)
            a = random_ma(rng, rng.randint(1, 6), alphabet, density=rng.choice((0.3, 0.7)))
            assert hankel_rank(a) == oracle_hankel_rank(a)

    @pytest.mark.parametrize("n", [8, 12, 16, 20, 24])
    def test_split_ring_copies(self, n):
        split = split_copy(ring_pa(n), random.Random(n))
        assert split.n_states == 2 * n
        assert hankel_rank(split) == oracle_hankel_rank(split) == n

    def test_no_elimination_call(self, monkeypatch):
        # the rank comes from two span closures alone: no pairing matrix is
        # reduced, and no solve runs
        linalg = sys.modules["stochlang.linalg"]
        calls = []

        def counter(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted
        for name in ("rref", "solve_affine"):
            real = getattr(linalg, name)
            for module in [m for key, m in sys.modules.items() if key.startswith("stochlang")]:
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counter(name, real))
        # the counters see the library's own eliminations, also the rref
        # that invert calls
        linalg.solve_affine(identity(1), [1])
        linalg.invert(identity(1))
        assert calls == ["solve_affine", "rref"]
        calls.clear()
        ranks = [hankel_rank(a) for a in
                 [fixtures.build(name) for name in fixtures.FIXTURE_NAMES]
                 + [split_copy(ring_pa(8), random.Random(8))]]
        assert ranks[-1] == 8
        assert calls == []


def two_cycle():
    """q0 -a/5-> q1 -a/1-> q0, from and to q0: the series 5^(k/2) on a^k of
    even length k, of rank 2. Its backward vectors (1, 0) and (0, 1) are
    independent mod 5, its forward vectors (1, 0) and (0, 5) are not."""
    return MultiplicityAutomaton(("a",), ("q0", "q1"), {"q0": 1}, {"q0": 1},
                                 {("q0", "a", "q1"): 5, ("q1", "a", "q0"): 1})


class TestCertifiedForwardClosure:
    """The forward closure of the rank runs mod p from ``MODULAR_MIN_DIM``
    rows on, and falls back to the exact closure when its check fails."""

    @pytest.mark.parametrize("decide", ["hankel_rank", "reduce_field"])
    @pytest.mark.parametrize("prime", [5, None])
    def test_unlucky_prime_falls_back_in_the_forward_closure(self, decide, prime,
                                                             monkeypatch):
        """Mod 5 the backward span is full, so it needs no check, but the
        forward span misses (0, 5): its rows fail the check, the only one
        made, and the exact forward closure answers. With the library's
        prime neither closure is checked."""
        a = two_cycle()
        monkeypatch.setattr(equivalence, "MODULAR_MIN_DIM", 0)
        if prime is not None:
            monkeypatch.setattr(linalg, "_PRIME", prime)
        checks = []
        closes = linalg._closes

        def recorded(*args):
            checks.append(closes(*args))
            return checks[-1]

        monkeypatch.setattr(linalg, "_closes", recorded)
        if decide == "hankel_rank":
            assert hankel_rank(a) == 2
        else:
            assert reduce(a, ReductionMode.FIELD) is a
        assert checks == ([False] if prime == 5 else [])


def untrimmed_pair():
    """q0 generates the series; q1 is unreachable and independent of q0."""
    return MultiplicityAutomaton(
        ("a",), ("q0", "q1"), {"q0": 1}, {"q0": F(1, 2), "q1": F(1, 3)},
        {("q0", "a", "q0"): F(1, 2), ("q1", "a", "q1"): F(2, 3)})


class TestBeyondFiveStates:
    @pytest.mark.parametrize("n", [8, 10])
    def test_field_reduction_of_split_ring_reaches_rank(self, n):
        ring = ring_pa(n)
        split = split_copy(ring, random.Random(n))
        assert split.n_states == 2 * n
        assert not is_reduced(split, ReductionMode.FIELD)
        reduced = reduce(split, ReductionMode.FIELD)
        assert reduced.n_states == hankel_rank(split) == hankel_rank(ring)
        assert is_reduced(reduced, ReductionMode.FIELD)
        assert are_equivalent(reduced, ring).equal

    @pytest.mark.parametrize("n", [32, 40])
    def test_rank_of_split_ring_at_scale(self, n):
        # the split copy has the ring's series on 2n states; the pairing
        # oracle takes 0.8 s on the n-state ring at n = 32 and more than 2 s
        # at n = 40, so it runs at 32 only
        ring = ring_pa(n)
        split = split_copy(ring, random.Random(1))
        rank = timed(hankel_rank, split, limit_s=1.0)
        assert rank == hankel_rank(ring) == n
        if n == 32:
            assert rank == oracle_hankel_rank(ring)

    @pytest.mark.parametrize("n", [32, 40])
    def test_field_reduction_of_split_ring_at_scale(self, n):
        # one echelon form of the backward rows and one elimination: the
        # per-state loop took 1.5 s at n = 32 and 3.1 s at n = 40
        ring = ring_pa(n)
        reduced = timed(reduce, split_copy(ring, random.Random(1)), ReductionMode.FIELD,
                        limit_s=1.0)
        assert reduced.n_states == n
        assert are_equivalent(reduced, ring).equal

    def test_cone_reduction_removes_planted_convex_state(self):
        ring = ring_pa(8)
        a = plant_convex_state(ring, random.Random(8))
        assert is_pa(a) and a.n_states == 9
        assert not is_reduced(a, ReductionMode.CONE)
        reduced = reduce(a, ReductionMode.CONE)
        assert reduced.states == ring.states
        assert is_pa(reduced)
        assert is_reduced(reduced, ReductionMode.CONE)
        assert are_equivalent(reduced, a).equal


class TestStall:
    def test_untrimmed_field_reduction_stalls_above_rank(self):
        a = untrimmed_pair()
        assert hankel_rank(a) == 1
        assert is_reduced(a, ReductionMode.FIELD)
        with pytest.raises(ReductionStallError,
                           match="elimination stopped at 2 states but the series rank is 1"):
            reduce(a, ReductionMode.FIELD)


@st.composite
def cone_automata(draw):
    """PAs of 2-6 states with 1-3 planted states whose series are convex
    combinations of two or three others, and signed automata of 0-10 states
    with up to two planted states whose series are signed or nonnegative
    combinations of one or two others; the states come in a drawn order."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        a = random_pa(rng, draw(st.integers(2, 6)), ("a", "b"))
        for k in range(draw(st.integers(1, 3))):
            chosen = rng.sample(a.states, min(a.n_states, rng.randint(2, 3)))
            raw = [rng.randint(1, 4) for _ in chosen]
            a = plant_mixture_state(a, rng, f"mix{k}",
                                    [(q, F(w, sum(raw))) for q, w in zip(chosen, raw)])
    else:
        n = draw(st.integers(0, 10))
        a = random_ma(rng, n, ("a", "b"), density=draw(st.sampled_from((0.15, 0.4, 0.7))))
        for k in range(draw(st.integers(0, 2)) if n else 0):
            chosen = rng.sample(a.states, min(n, rng.randint(1, 2)))
            signed = draw(st.booleans())
            a = plant_mixture_state(a, rng, f"mix{k}",
                                    [(q, random_fraction(rng, signed=signed)) for q in chosen])
    order = draw(st.permutations(a.states))
    return MultiplicityAutomaton(a.alphabet, order, a.iota, a.tau, a.phi)


@st.composite
def split_ring_copies(draw):
    """Split copies of ring PAs with 2-8 states, in a drawn state order."""
    a = split_copy(ring_pa(draw(st.integers(2, 8))), random.Random(draw(st.integers(0, 2**32))))
    order = draw(st.permutations(a.states))
    return MultiplicityAutomaton(a.alphabet, order, a.iota, a.tau, a.phi)


@st.composite
def copied_presentations(draw):
    """Ring PAs of 4-8 states and random PAs of 2-6 states, presented with
    more states: a duplicated state, 0-2 split states (``split_state``,
    whose copies share the edges into the state, so that several removed
    copies feed one transition, and generate the state's series times 1, 2
    or 1/3) and two cancelling divergent copies
    (``with_cancelling_copies``, on which field reduction stalls), in a
    drawn state order; up to 13 states."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        a = ring_pa(draw(st.integers(4, 8)), rng.randrange(2**32))
    else:
        a = random_pa(rng, draw(st.integers(2, 6)), ("a", "b"))
    if draw(st.booleans()):
        a = duplicate_state(a, rng)
    for k in range(draw(st.integers(0, 2))):
        a = split_state(a, rng, rng.choice(a.states), f"copy{k}",
                        draw(st.sampled_from((1, 2, F(1, 3)))))
    if draw(st.booleans()):
        a = with_cancelling_copies(a)
    order = draw(st.permutations(a.states))
    return MultiplicityAutomaton(a.alphabet, order, a.iota, a.tau, a.phi)


def assert_cone_matches_oracle(a):
    reduced, expected = reduce(a, ReductionMode.CONE), oracle_cone_reduce(a)
    assert (reduced.states, reduced.iota, reduced.tau, reduced.phi) == \
        (expected.states, expected.iota, expected.tau, expected.phi)
    verdict = is_reduced(a, ReductionMode.CONE)
    assert verdict == oracle_is_cone_reduced(a)
    assert verdict == (reduced is a)


def assert_field_matches_oracle(a):
    try:
        expected = oracle_field_reduce(a)
    except ReductionStallError as stall:
        with pytest.raises(ReductionStallError) as raised:
            reduce(a, ReductionMode.FIELD)
        assert str(raised.value) == str(stall)
        return
    reduced = reduce(a, ReductionMode.FIELD)
    assert (reduced.states, reduced.iota, reduced.tau, reduced.phi) == \
        (expected.states, expected.iota, expected.tau, expected.phi)
    assert (reduced is a) == (reduced.n_states == a.n_states)


class TestConeAgainstPerStateOracle:
    """Cone decisions run a feasibility problem only for the states in the
    support of the kernel of the backward rows; the per-state loop on the
    Fraction value rows must give the same automaton and verdict."""

    @given(cone_automata())
    @settings(max_examples=150, deadline=None)
    def test_same_automaton_and_verdict(self, a):
        assert_cone_matches_oracle(a)

    @given(split_ring_copies())
    @settings(max_examples=40, deadline=None)
    def test_same_automaton_and_verdict_on_split_rings(self, a):
        # 4-16 states, and one removal per state of the ring
        assert_cone_matches_oracle(a)

    @given(copied_presentations())
    @settings(max_examples=60, deadline=None)
    def test_same_automaton_and_verdict_on_copied_presentations(self, a):
        assert_cone_matches_oracle(a)

    @given(cone_automata())
    @settings(max_examples=100, deadline=None)
    def test_kernel_support_is_the_field_expressible_states(self, a):
        rows = value_rows([a])
        columns = list(range(a.n_states))
        expressible = [q for q in columns
                       if combination_on_rows(rows, q, columns[:q] + columns[q + 1:],
                                              nonneg=False).expressible]
        assert _dependent(rows, a.n_states) == expressible


class TestFieldAgainstPerStateOracle:
    """Field reduction reads the states it keeps, and every coefficient, off
    one echelon form of the backward rows; the per-state loop, one solve and
    one rebuild per removed state, must give the same automaton or stall."""

    @given(st.one_of(cone_automata(), split_ring_copies()))
    @settings(max_examples=150, deadline=None)
    def test_same_automaton_or_stall(self, a):
        assert_field_matches_oracle(a)

    @given(copied_presentations())
    @settings(max_examples=80, deadline=None)
    def test_same_automaton_or_stall_on_copied_presentations(self, a):
        assert_field_matches_oracle(a)

    def test_no_solve_and_one_automaton(self, monkeypatch):
        a = split_copy(ring_pa(8), random.Random(8))
        calls = []

        def counter(name, real):
            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counted
        for module_name, name in (("stochlang.equivalence", "combination_on_rows"),
                                  ("stochlang.linalg", "_particular")):
            real = getattr(sys.modules[module_name], name)
            for module in [m for key, m in sys.modules.items() if key.startswith("stochlang")]:
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counter(name, real))
        # every automaton, built by the constructor or from weight pairs, is
        # assembled once
        monkeypatch.setattr(MultiplicityAutomaton, "_assemble",
                            counter("automaton", MultiplicityAutomaton._assemble))
        # the counters see a solve and a construction
        sys.modules["stochlang.equivalence"].combination_on_rows([[1, 1]], 0, [1], nonneg=False)
        MultiplicityAutomaton(("a",), (), {}, {}, {})
        assert calls == ["combination_on_rows", "_particular", "automaton"]
        calls.clear()
        reduced = reduce(a, ReductionMode.FIELD)
        assert calls == ["automaton"]
        assert reduced.n_states == 8
        assert are_equivalent(reduced, a).equal


@contextmanager
def counted_reduction_calls():
    """Record the target of each feasibility question and each elimination
    that ``reduce`` and ``is_reduced`` make."""
    module = sys.modules["stochlang.reduction"]
    combination, eliminate = module.combination_on_rows, module._eliminate
    calls = {"targets": [], "eliminations": 0}

    def counted_combination(rows, target, columns, nonneg):
        calls["targets"].append(target)
        return combination(rows, target, columns, nonneg=nonneg)

    def counted_eliminate(a, removed):
        calls["eliminations"] += 1
        return eliminate(a, removed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "combination_on_rows", counted_combination)
        patch.setattr(module, "_eliminate", counted_eliminate)
        yield calls


def questions_per_state(calls):
    return max(Counter(calls["targets"]).values(), default=0)


class TestOneScan:
    """A state that is no nonnegative combination of the states kept is none
    of any subset of them, so one scan asks each state at most once, and
    every reduction builds its result with at most one elimination."""

    @pytest.mark.parametrize("mode", list(ReductionMode))
    def test_split_ring(self, mode):
        # eight removals: a scan that restarts after each removal asks the
        # states before it again, and builds one automaton per removal
        a = split_copy(ring_pa(8), random.Random(8))
        with counted_reduction_calls() as calls:
            reduced = reduce(a, mode)
            assert reduced.n_states == 8
            assert calls["eliminations"] == 1
            assert questions_per_state(calls) == (1 if mode is ReductionMode.CONE else 0)
            calls["targets"].clear()
            assert not is_reduced(a, mode)
            assert questions_per_state(calls) <= 1

    def test_two_planted_mixtures(self):
        # mix0 and mix1 are convex combinations of q0, q1 and of q2, q4, q5:
        # after mix0 goes, a scan that restarts asks q2, q4 and q5 again
        rng = random.Random(6)
        a = plant_mixture_state(ring_pa(6), rng, "mix0", [("q0", F(1, 3)), ("q1", F(2, 3))])
        a = plant_mixture_state(a, rng, "mix1",
                                [("q2", F(1, 2)), ("q4", F(1, 4)), ("q5", F(1, 4))])
        with counted_reduction_calls() as calls:
            reduced = reduce(a, ReductionMode.CONE)
            assert calls == {"targets": [0, 1, 2, 4, 5, 6, 7], "eliminations": 1}
        expected = oracle_cone_reduce(a)
        assert reduced.states == expected.states == ring_pa(6).states
        assert (reduced.iota, reduced.tau, reduced.phi) == \
            (expected.iota, expected.tau, expected.phi)

    @given(st.one_of(cone_automata(), split_ring_copies()), st.sampled_from(ReductionMode))
    @settings(max_examples=80, deadline=None)
    def test_each_state_asked_at_most_once(self, a, mode):
        with counted_reduction_calls() as calls:
            try:
                reduced = reduce(a, mode)
            except ReductionStallError:
                reduced = None
            assert calls["eliminations"] == (0 if reduced is a or reduced is None else 1)
            assert questions_per_state(calls) <= 1
            calls["targets"].clear()
            is_reduced(a, mode)
            assert questions_per_state(calls) <= 1


class TestConeDecisionsOnIndependentColumns:
    def test_field_reduced_input_makes_no_solve(self, monkeypatch):
        # 13 states and 13 backward rows: no column is a combination of the
        # others, so neither a solve nor a feasibility problem runs
        b = pra_hardness_instance([dfa_a_count_mod_k(3, r) for r in range(3)])
        assert b.n_states == len(value_rows([b])) == 13
        linalg = sys.modules["stochlang.linalg"]
        calls = []

        def counter(name, real):
            def counted(*args):
                calls.append(name)
                return real(*args)
            return counted
        for name in ("_particular", "_simplex"):
            real = getattr(linalg, name)
            for module in [m for key, m in sys.modules.items() if key.startswith("stochlang")]:
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counter(name, real))
        # the counters see the cone solve
        assert combination_on_rows([[1, 1]], 0, [1], nonneg=True).coefficients == (1,)
        assert combination_on_rows([[1, 1]], 0, [1], nonneg=False).coefficients == (1,)
        assert calls == ["_simplex", "_particular"]
        calls.clear()
        assert reduce(b, ReductionMode.CONE) is b
        assert is_reduced(b, ReductionMode.CONE)
        assert calls == []
