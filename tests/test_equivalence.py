import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlang import (MultiplicityAutomaton, are_equivalent,
                       empty_automaton, express_combination, fixtures,
                       state_series_automaton, weighted_sum)
from stochlang.automata import letter_shift_automaton, replace_iota
from stochlang.equivalence import (EquivalenceOutcome, _backward_closure, _word_basis,
                                   combination_on_rows)
from stochlang.linalg import SpanBasis, _primitive, dot

from helpers import (OracleSpanBasis, duplicate_state, nudged_copy, oracle_cone_combination,
                     oracle_express_combination, oracle_word_basis, permuted_copy,
                     plant_convex_state, random_fraction, random_ma, random_pa, ring_pa,
                     series_equal_up_to, split_copy, timed, value_rows)

F = Fraction


class TestAreEquivalent:
    def test_reflexive_on_fixtures(self):
        for name in fixtures.FIXTURE_NAMES:
            assert are_equivalent(fixtures.build(name), fixtures.build(name)).equal

    def test_fig3_vs_fig5(self):
        out = are_equivalent(fixtures.build("fig3_App"), fixtures.build("fig5"))
        assert not out.equal
        assert out.witness == ()
        assert (out.left_value, out.right_value) == (F(1, 4), F(1, 2))

    def test_same_construction_data(self):
        p = fixtures.build("example1_p")
        mix = weighted_sum([fixtures.build("example1_p1"),
                            fixtures.build("example1_p2")], (F(1, 2), F(1, 2)))
        assert are_equivalent(p, mix).equal

    def test_permuted_copy_is_equal(self):
        rng = random.Random(31)
        for _ in range(10):
            a = random_ma(rng, rng.randint(2, 4), ("a", "b"))
            assert are_equivalent(a, permuted_copy(a, rng)).equal

    def test_alphabet_order_conflict(self):
        a = MultiplicityAutomaton(("a", "b"), ("q0",), {"q0": 1}, {"q0": 1}, {})
        b = MultiplicityAutomaton(("b", "a"), ("q0",), {"q0": 1}, {"q0": 1}, {})
        with pytest.raises(ValueError):
            are_equivalent(a, b)

    def test_witness_respects_length_bound(self):
        rng = random.Random(32)
        for _ in range(40):
            a = random_ma(rng, rng.randint(1, 3), ("a", "b"))
            b = random_ma(rng, rng.randint(1, 3), ("a", "b"))
            out = are_equivalent(a, b)
            if not out.equal:
                assert len(out.witness) <= a.n_states + b.n_states
                assert a.evaluate(out.witness) != b.evaluate(out.witness)
                assert out.left_value == a.evaluate(out.witness)
                assert out.right_value == b.evaluate(out.witness)

    def test_matches_exhaustive_comparison(self):
        rng = random.Random(33)
        for _ in range(40):
            a = random_ma(rng, rng.randint(1, 3), ("a", "b"))
            b = random_ma(rng, rng.randint(1, 3), ("a", "b"))
            same, _ = series_equal_up_to(a, b, a.n_states + b.n_states)
            assert are_equivalent(a, b).equal == same

    def test_hidden_mixed_closure_direction(self):
        # One-sided closures must extend on the correct side: this automaton
        # is zero on every word reachable by extending independent suffix
        # vectors, yet differs from zero on "ab".
        a = MultiplicityAutomaton(
            ("a", "b"), ("q0", "q1", "q2"),
            {"q2": 1}, {"q0": 1},
            {("q0", "a", "q0"): 1, ("q2", "a", "q1"): 1,
             ("q1", "b", "q0"): 1, ("q1", "b", "q1"): 1})
        assert a.evaluate(("a", "b")) == 1
        out = are_equivalent(a, empty_automaton(("a", "b")))
        assert not out.equal
        assert out.witness == ("a", "b")

    def test_zero_state_automata(self):
        assert are_equivalent(empty_automaton(("a",)), empty_automaton(("a",))).equal

    def test_basis_size_bound(self):
        from stochlang.equivalence import _word_basis
        rng = random.Random(36)
        for _ in range(30):
            a = random_ma(rng, rng.randint(1, 3), ("a", "b"))
            b = random_ma(rng, rng.randint(1, 3), ("a", "b"))
            basis = list(_word_basis(a, b)[0])
            assert len(basis) <= max(1, a.n_states + b.n_states)


def heap_oracle_outcome(a, b):
    """Equivalence decided on the heap-ordered Fraction word basis."""
    basis, gamma_a, gamma_b = oracle_word_basis(a, b)
    for word, va, vb in basis:
        if dot(va, gamma_a) != dot(vb, gamma_b):
            return EquivalenceOutcome(False, word, a.evaluate(word), b.evaluate(word))
    return EquivalenceOutcome(True)


@st.composite
def signed_pairs(draw):
    """Two signed automata over {a, b} with 6-12 states between them: a
    split, permuted or state-duplicated copy of the first, a permuted copy
    with one transition weight changed, or an unrelated automaton, so that
    equal verdicts and witnesses of several lengths both occur."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("split", "permuted", "duplicate", "changed", "unrelated")))
    density = draw(st.sampled_from((0.3, 0.5, 0.7)))
    sizes = {"split": (2, 4), "permuted": (3, 6), "duplicate": (3, 5), "changed": (3, 6),
             "unrelated": (1, 6)}
    n = draw(st.integers(*sizes[kind]))
    a = random_ma(rng, n, ("a", "b"), density=density)
    if kind == "split":
        b = split_copy(a, rng)
    elif kind == "permuted":
        b = permuted_copy(a, rng)
    elif kind == "duplicate":
        b = duplicate_state(a, rng)
    elif kind == "changed" and a.phi:
        b = permuted_copy(a, rng)
        key = rng.choice(sorted(b.phi))
        phi = dict(b.phi)
        phi[key] += random_fraction(rng)
        b = MultiplicityAutomaton(b.alphabet, b.states, b.iota, b.tau, phi)
    else:
        b = random_ma(rng, draw(st.integers(max(1, 6 - n), 12 - n)), ("a", "b"),
                      density=density)
    return (a, b) if draw(st.booleans()) else (b, a)


class TestWordBasisBeyondFiveStates:
    @given(signed_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matches_heap_oracle_on_signed_pairs(self, pair):
        a, b = pair
        assert 6 <= a.n_states + b.n_states <= 12
        assert are_equivalent(a, b) == heap_oracle_outcome(a, b)

    @pytest.mark.parametrize("n", [8, 12, 16, 20])
    def test_matches_heap_oracle_on_ring_copies(self, n):
        ring = ring_pa(n)
        split = split_copy(ring, random.Random(n))
        nudged = nudged_copy(ring, ring.states[n // 2])
        for a, b in ((ring, split), (split, ring), (ring, nudged), (split, nudged)):
            words = [w for w, _ in _word_basis(a, b)[0]]
            assert words == [w for w, _, _ in oracle_word_basis(a, b)[0]]
            assert are_equivalent(a, b) == heap_oracle_outcome(a, b)
        assert are_equivalent(ring, split).equal
        assert not are_equivalent(ring, nudged).equal

    @pytest.mark.parametrize("n", [32, 40])
    def test_ring_copies_at_scale(self, n):
        # 64 and 80 states on the split side; the heap-ordered Fraction
        # oracle finishes in under half a second here
        ring = ring_pa(n)
        split = split_copy(ring, random.Random(1))
        nudged = nudged_copy(ring, ring.states[n // 2])
        outcome = timed(are_equivalent, ring, split, limit_s=1.0)
        assert outcome == heap_oracle_outcome(ring, split) == EquivalenceOutcome(True)
        outcome = timed(are_equivalent, split, nudged, limit_s=1.0)
        assert not outcome.equal
        assert outcome == heap_oracle_outcome(split, nudged)


def span_adds(monkeypatch, run):
    """The number of ``SpanBasis.add`` calls that ``run()`` makes."""
    add = SpanBasis.add
    calls = []

    def counted(self, v):
        calls.append(v)
        return add(self, v)

    with monkeypatch.context() as patch:
        patch.setattr(SpanBasis, "add", counted)
        run()
    return len(calls)


class TestEquivalenceStopsAtItsWitness:
    """``are_equivalent`` stops the closure at the first row on which the
    comparing functional is nonzero; the rows come in length-lex order of
    their words, so the witness and its values are those of the full basis."""

    @pytest.mark.parametrize("n", range(8, 41, 4))
    def test_nudged_ring_copies_match_the_heap_oracle(self, n):
        ring = ring_pa(n)
        nudged = nudged_copy(ring, ring.states[n // 2])
        for a, b in ((ring, nudged), (nudged, ring)):
            outcome = are_equivalent(a, b)
            assert not outcome.equal
            assert outcome == heap_oracle_outcome(a, b)

    @pytest.mark.parametrize("n", [8, 16, 24, 32, 40])
    def test_only_an_unequal_verdict_makes_fewer_insertions(self, n, monkeypatch):
        ring = ring_pa(n)
        split = split_copy(ring, random.Random(n))
        nudged = nudged_copy(ring, ring.states[n // 2])
        for a, b, equal in ((ring, split, True), (ring, nudged, False), (split, nudged, False)):
            full = span_adds(monkeypatch, lambda: list(_word_basis(a, b)[0]))
            decided = span_adds(monkeypatch, lambda: are_equivalent(a, b))
            assert decided == full if equal else decided < full

    def test_unequal_ring_copies_at_scale(self):
        ring = ring_pa(40)
        nudged = nudged_copy(ring, ring.states[20])
        outcome = timed(are_equivalent, ring, nudged, limit_s=0.1)
        assert outcome == heap_oracle_outcome(ring, nudged)


class TestExpressCombination:
    def test_residual_over_generators_nonneg(self):
        from stochlang import residual_automaton
        p = fixtures.build("example1_p")
        res = residual_automaton(p, ("a",))
        out = express_combination(res, [fixtures.build("example1_p1"),
                                        fixtures.build("example1_p2")], nonneg=True)
        assert out.expressible
        assert out.coefficients == (F(2, 3), F(1, 3))

    def test_shift_over_generators_field(self):
        p = fixtures.build("example1_p")
        shifted = letter_shift_automaton(p, ("a",))
        out = express_combination(shifted, [fixtures.build("example1_p1"),
                                            fixtures.build("example1_p2")], nonneg=False)
        assert out.expressible
        assert out.coefficients == (F(1, 4), F(1, 8))

    def test_infeasible_pair(self):
        for nonneg in (False, True):
            out = express_combination(fixtures.build("example1_p1"),
                                      [fixtures.build("example1_p2")], nonneg=nonneg)
            assert not out.expressible

    def test_nonneg_implies_field(self):
        rng = random.Random(34)
        for _ in range(10):
            target = random_ma(rng, 2, ("a",), signed=False)
            gens = [random_ma(rng, 2, ("a",), signed=False) for _ in range(2)]
            if express_combination(target, gens, nonneg=True).expressible:
                assert express_combination(target, gens, nonneg=False).expressible

    def test_coefficients_reassemble_target(self):
        rng = random.Random(35)
        hits = 0
        for _ in range(20):
            gens = [random_ma(rng, 2, ("a", "b")) for _ in range(2)]
            coeffs = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
            target = weighted_sum(gens, coeffs)
            out = express_combination(target, gens, nonneg=False)
            assert out.expressible
            rebuilt = weighted_sum(gens, out.coefficients)
            assert are_equivalent(target, rebuilt).equal
            hits += 1
        assert hits == 20

    def test_empty_generator_list(self):
        zero = MultiplicityAutomaton(("a",), ("q0",), {}, {}, {})
        assert express_combination(zero, [], nonneg=False).expressible
        assert not express_combination(fixtures.build("example1_p1"), [],
                                       nonneg=False).expressible

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            express_combination(fixtures.build("fig2_A"),
                                [fixtures.build("example1_p1")], nonneg=False)


def assert_matches_oracle(target, generators):
    """Same verdict and coefficients as the counterexample loop, and valid ones."""
    for nonneg in (False, True):
        out = express_combination(target, generators, nonneg)
        assert out == oracle_express_combination(target, generators, nonneg)
        if not out.expressible:
            continue
        assert len(out.coefficients) == len(generators)
        if nonneg:
            assert all(c >= 0 for c in out.coefficients)
        rebuilt = (weighted_sum(generators, out.coefficients) if generators
                   else empty_automaton(target.alphabet))
        assert are_equivalent(target, rebuilt).equal


def random_lam(rng, n):
    return tuple(random_fraction(rng) if rng.random() < 0.7 else F(0) for _ in range(n))


class TestValueRows:
    def test_rows_are_independent_and_decide_field_reducedness(self):
        # the rows span the vectors mu(w) . gamma, whose entry q is state q's
        # value on w, so the state series are independent, and the automaton
        # field-reduced, iff there are as many rows as states; the oracle
        # asks each state against the others
        rng = random.Random(37)
        for _ in range(20):
            a = random_ma(rng, rng.randint(1, 4), ("a", "b"))
            rows = value_rows([a.to_linear_representation()])
            span = OracleSpanBasis(a.n_states)
            assert all(span.add(x) for x in rows)
            reducible = any(
                oracle_express_combination(
                    state_series_automaton(a, q),
                    [state_series_automaton(a, s) for s in a.states if s != q],
                    nonneg=False).expressible
                for q in a.states)
            assert (len(rows) < a.n_states) == reducible

    def test_block_values_are_series_values(self):
        # lam . x over block i reproduces every word's value of series i:
        # the rows span all x(w), so a functional vanishing on them vanishes
        # on every word
        rng = random.Random(38)
        for _ in range(15):
            a = random_ma(rng, rng.randint(1, 3), ("a", "b"))
            b = random_ma(rng, rng.randint(1, 3), ("a", "b"))
            rows = value_rows([a.to_linear_representation(), b.to_linear_representation()])
            assert len(rows) <= a.n_states + b.n_states
            lam = a.to_linear_representation().lam + tuple(
                -w for w in b.to_linear_representation().lam)
            vanishes = all(sum((u * v for u, v in zip(lam, x)), F(0)) == 0 for x in rows)
            same, _ = series_equal_up_to(a, b, a.n_states + b.n_states)
            assert vanishes == same

    def test_empty_input(self):
        assert value_rows([]) == []
        assert value_rows([empty_automaton(("a",)).to_linear_representation()]) == []

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            value_rows([fixtures.build("fig2_A").to_linear_representation(),
                        fixtures.build("fig5").to_linear_representation()])


@st.composite
def combination_automata(draw):
    """Signed automata and PAs of 1-6 states, some with a cloned state or a
    state whose series mixes two others, so that both answers occur."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("signed", "sparse", "pa")))
    if kind == "pa":
        a = random_pa(rng, max(n, 2), ("a", "b"))
    else:
        a = random_ma(rng, n, ("a", "b"), density=0.7 if kind == "signed" else 0.3)
    plant = draw(st.sampled_from((None, "duplicate", "mix")))
    if plant == "duplicate":
        a = duplicate_state(a, rng)
    elif plant == "mix" and a.n_states >= 2 and any(k[0] == a.states[-1] for k in a.phi):
        a = plant_convex_state(a, rng)
    return a


class TestCombinationOnIntegerRows:
    """Field ``reduce`` hands the primitive integer rows of the backward span
    to ``combination_on_rows``; each is a positive multiple of a Fraction row
    of ``value_rows``, so every outcome, coefficients included, must be the
    same on both, over the field and over the cone."""

    @given(combination_automata())
    @settings(max_examples=80, deadline=None)
    def test_same_outcome_on_integer_and_fraction_rows(self, a):
        span, _ = _backward_closure([a.to_linear_representation()])
        ints, fracs = span.integer_rows, span.basis
        assert fracs == value_rows([a.to_linear_representation()])
        assert all(type(x) is int for row in ints for x in row)
        n = a.n_states
        for q in range(n):
            others = [s for s in range(n) if s != q]
            for nonneg in (False, True):
                assert combination_on_rows(ints, q, others, nonneg) == \
                    combination_on_rows(fracs, q, others, nonneg)


@st.composite
def cone_systems(draw):
    """Rows [A | b] of 0-7 equations in 0-6 unknowns with small signed
    entries and many zeros. Some systems get b = A x for a drawn x, x >= 0
    or signed, so that consistent systems with several free unknowns occur
    both feasible and infeasible; some get a row
    repeated or scaled, and some are made inconsistent by a row 0 = 1 or by
    a copy of a row with another right-hand side."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.just(F(0)), st.fractions(-4, 4, max_denominator=4))
    rows = [draw(st.lists(entry, min_size=n + 1, max_size=n + 1))
            for _ in range(draw(st.integers(0, 6)))]
    if draw(st.booleans()):
        low = draw(st.sampled_from((0, -3)))
        x = draw(st.lists(st.fractions(low, 3, max_denominator=3), min_size=n, max_size=n))
        rows = [row[:n] + [sum((a * c for a, c in zip(row, x)), F(0))] for row in rows]
    kind = draw(st.sampled_from(("as drawn", "repeated", "scaled", "zero row", "conflict")))
    if rows and kind in ("repeated", "scaled", "conflict"):
        row = draw(st.sampled_from(rows))
        if kind == "repeated":
            rows.append(list(row))
        elif kind == "scaled":
            rows.append([F(-3, 2) * y for y in row])
        else:
            rows.append(row[:n] + [row[n] + 1])
    elif kind == "zero row":
        rows.append([F(0)] * n + [F(1)])
    return draw(st.permutations(rows)), n


class TestConeSolveAgainstLpFeasible:
    """The cone path of ``combination_on_rows`` reads the particular
    solution and the nullspace off the integer echelon rows and hands
    Fourier-Motzkin the rows x >= 0 that ``lp_feasible`` builds from the
    same equalities, so both must return the same point."""

    @given(cone_systems())
    @settings(max_examples=300, deadline=None)
    def test_same_point_as_lp_feasible(self, system):
        rows, n = system
        outcome = combination_on_rows(rows, n, range(n), nonneg=True)
        expected = oracle_cone_combination(rows, n, list(range(n)))
        assert outcome.expressible == (expected is not None)
        assert outcome.coefficients == expected
        integer = combination_on_rows([_primitive(row) for row in rows], n, range(n),
                                      nonneg=True)
        assert integer == outcome


class TestAgainstCounterexampleOracle:
    """The one-solve kernel against the counterexample loop it replaced.

    Over the field the coefficients must be identical: the reduced
    row-echelon particular solution depends only on the row space, and the
    loop stops only once its equations determine the same solution.
    """

    def test_every_fixture_target_over_one_to_three_fixture_generators(self):
        autos = {name: fixtures.build(name) for name in fixtures.FIXTURE_NAMES}
        for name, target in autos.items():
            same = [g for g in autos.values() if g.alphabet == target.alphabet]
            for k in (1, 2, 3):
                for gens in itertools.combinations_with_replacement(same, k):
                    assert_matches_oracle(target, list(gens))

    def test_random_shared_structure(self):
        rng = random.Random(61)
        for _ in range(25):
            base = random_ma(rng, rng.randint(2, 4), ("a", "b"))
            gens = [replace_iota(base, random_lam(rng, base.n_states))
                    for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                coeffs = [F(rng.randint(-2, 2)) for _ in gens]
                lam = [sum((c * g.iota_weight(q) for c, g in zip(coeffs, gens)), F(0))
                       for q in base.states]
            else:
                lam = random_lam(rng, base.n_states)
            assert_matches_oracle(replace_iota(base, lam), gens)

    def test_random_disjoint_structure(self):
        rng = random.Random(62)
        for _ in range(25):
            gens = [random_ma(rng, rng.randint(1, 3), ("a", "b"))
                    for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                target = weighted_sum(gens, [F(rng.randint(0, 2)) for _ in gens])
            else:
                target = random_ma(rng, rng.randint(1, 3), ("a", "b"))
            assert_matches_oracle(target, gens)

    def test_mixtures_of_eight_two_state_pas(self):
        rng = random.Random(63)
        gens = [random_pa(rng, 2, ("a", "b")) for _ in range(8)]
        raw = [rng.randint(1, 5) for _ in gens]
        coeffs = [F(c, sum(raw)) for c in raw]
        flipped = list(coeffs)
        flipped[rng.randrange(8)] *= -1
        feasible = weighted_sum(gens, coeffs)
        assert_matches_oracle(feasible, gens)
        assert express_combination(feasible, gens, nonneg=True).coefficients == tuple(coeffs)
        infeasible = weighted_sum(gens, flipped)
        assert_matches_oracle(infeasible, gens)
        assert not express_combination(infeasible, gens, nonneg=True).expressible
        assert express_combination(infeasible, gens, nonneg=False).coefficients == tuple(flipped)
