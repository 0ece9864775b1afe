import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlang import (MultiplicityAutomaton, are_equivalent,
                       empty_automaton, express_combination, fixtures, linalg,
                       state_series_automaton, weighted_sum)
from stochlang.automata import replace_iota, words_up_to
from stochlang.equivalence import (MODULAR_MIN_DIM, EquivalenceOutcome, _backward_closure,
                                   _quotient, _value_table, _word_basis, combination_on_rows)
from stochlang.linalg import Matrix, SpanBasis, _primitive, _simplex, _turned, dot

from helpers import (OracleIntegerSpanBasis, OracleSpanBasis, check_cone_answer, direct_sum_rows,
                     duplicate_state, letter_shift_automaton, nudged_copy, oracle_closure,
                     oracle_cone_combination, oracle_express_combination,
                     oracle_integer_actions, oracle_lumping, oracle_quotient, oracle_rref,
                     oracle_value_table, oracle_word_basis, permuted_copy,
                     plant_convex_state,
                     random_fraction, random_ma, random_pa, ring_pa, series_equal_up_to,
                     split_copy, timed, value_rows, with_cancelling_copies)

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
def signed_pairs(draw, signed=True):
    """Two automata over {a, b} with 6-12 states between them, whose random
    weights are signed, or nonnegative without ``signed``: a split, permuted or
    state-duplicated copy of the first, a permuted copy with two cancelling
    divergent states added, a permuted copy with one transition weight
    changed, or an unrelated automaton, so that equal verdicts and
    witnesses of several lengths both occur."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("split", "permuted", "duplicate", "cancelling", "changed",
                                 "unrelated")))
    density = draw(st.sampled_from((0.3, 0.5, 0.7)))
    sizes = {"split": (2, 4), "permuted": (3, 6), "duplicate": (3, 5), "cancelling": (2, 5),
             "changed": (3, 6), "unrelated": (1, 6)}
    n = draw(st.integers(*sizes[kind]))
    a = random_ma(rng, n, ("a", "b"), density=density, signed=signed)
    if kind == "split":
        b = split_copy(a, rng)
    elif kind == "permuted":
        b = permuted_copy(a, rng)
    elif kind == "duplicate":
        b = duplicate_state(a, rng)
    elif kind == "cancelling":
        b = with_cancelling_copies(permuted_copy(a, rng))
    elif kind == "changed" and a.phi:
        b = permuted_copy(a, rng)
        key = rng.choice(sorted(b.phi))
        phi = dict(b.phi)
        phi[key] += random_fraction(rng, signed=signed)
        b = MultiplicityAutomaton(b.alphabet, b.states, b.iota, b.tau, phi)
    else:
        b = random_ma(rng, draw(st.integers(max(1, 6 - n), 12 - n)), ("a", "b"),
                      density=density, signed=signed)
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
            # the closure runs on the quotient of a (+) b by its coarsest
            # backward lumping, from the block sums of (lam_a, -lam_b)
            words = [w for w, _ in _word_basis(a, b)[0]]
            quotient = oracle_quotient(a, b)
            zero = empty_automaton(quotient.alphabet)
            assert words == [w for w, _, _ in oracle_word_basis(quotient, zero)[0]]
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


def library_lumping(a, b):
    """The blocks of ``_quotient`` on a (+) b, one per state when none merge;
    the quotient maps built for the left are those built for the right
    turned round."""
    ra = a.to_linear_representation()
    rb = b.to_linear_representation()
    letters = [(ra.mu[x], rb.mu[x]) for x in a.alphabet]
    final = ra.gamma + rb.gamma
    outgoing = oracle_integer_actions(letters, False)[0]
    right, left = (_quotient(final, lambda: outgoing, side) for side in (False, True))
    if right is None:
        assert left is None
        return list(range(len(final)))
    assert right[:2] == left[:2]
    assert ([[sorted(line) for line in _turned(m)] for m in right[2]]
            == [[sorted(line) for line in m] for m in left[2]])
    return right[0]


class TestCoarsestLumping:
    """``are_equivalent`` closes its span on the quotient of a (+) b by the
    coarsest backward lumping, found by refinement on integer totals that
    weighs only the states of blocks that may still split."""

    @given(signed_pairs())
    @settings(max_examples=120, deadline=None)
    def test_same_partition_as_the_fraction_oracle(self, pair):
        a, b = pair
        assert library_lumping(a, b) == oracle_lumping(a, b)

    @given(signed_pairs())
    @settings(max_examples=60, deadline=None)
    def test_blocks_are_stable_and_share_their_series(self, pair):
        a, b = pair
        block = library_lumping(a, b)
        mats, gamma = direct_sum_rows(a, b)
        members = [[i for i, k in enumerate(block) if k == c] for c in range(max(block) + 1)]
        states = [(a, q) for q in a.states] + [(b, q) for q in b.states]
        words = list(words_up_to(a.alphabet, 4))
        for group in members:
            assert len({gamma[i] for i in group}) == 1
            for m in mats:
                totals = {tuple(sum((m[i][j] for j in into), F(0)) for into in members)
                          for i in group}
                assert len(totals) == 1
            for w in words:
                assert len({s.evaluate_state(q, w) for s, q in (states[i] for i in group)}) == 1

    @pytest.mark.parametrize("n", [8, 16, 24, 32, 40])
    def test_equal_verdicts_on_lumpable_copies_insert_at_most_one_row(self, n, monkeypatch):
        # each copy lumps onto the blocks of ring_pa(n) with block sums of
        # (lam_a, -lam_b) equal to zero, so the closure starts from zero
        ring = ring_pa(n)
        rng = random.Random(n)
        for copy in (split_copy(ring, rng), permuted_copy(ring, rng), duplicate_state(ring, rng),
                     with_cancelling_copies(ring)):
            assert span_adds(monkeypatch, lambda: are_equivalent(ring, copy)) <= 1
            assert are_equivalent(ring, copy).equal


class TestWitnessValues:
    """An unequal verdict computes both values on its witness from integer
    pushes of the primitive initial vectors through each input's integer
    form, with one Fraction per value: they are the values of the inputs'
    ``Fraction`` representations on that word."""

    @given(st.one_of(signed_pairs(), signed_pairs(signed=False)))
    @settings(max_examples=150, deadline=None)
    def test_values_are_those_of_evaluate(self, pair):
        a, b = pair
        outcome = are_equivalent(a, b)
        if not outcome.equal:
            assert type(outcome.left_value) is type(outcome.right_value) is Fraction
            assert outcome.left_value == a.to_linear_representation().evaluate(outcome.witness)
            assert outcome.right_value == b.to_linear_representation().evaluate(outcome.witness)
            assert outcome.left_value != outcome.right_value

    def test_values_over_a_merged_alphabet(self):
        # b has no "b" transitions; the comparison runs over {a, b}
        a = MultiplicityAutomaton(("a", "b"), ("p",), {"p": F(1, 2)}, {"p": F(1, 3)},
                                  {("p", "b", "p"): F(2, 5)})
        b = MultiplicityAutomaton(("a",), ("q",), {"q": F(1, 2)}, {"q": F(1, 3)},
                                  {("q", "a", "q"): F(1, 7)})
        outcome = are_equivalent(a, b)
        assert outcome == EquivalenceOutcome(False, ("a",), F(0), F(1, 42))


@st.composite
def backward_sums(draw):
    """1-3 automata over {a, b}, whose direct sum a backward closure takes
    as ``_value_table`` builds it: a signed random automaton of 2-8 states,
    its split, state-duplicated, permuted or cancelling copy, or a split
    copy of a ring PA of 8-12 states. The quotients of the sums fall on
    both sides of ``MODULAR_MIN_DIM``."""
    series = []
    for _ in range(draw(st.integers(1, 3))):
        rng = random.Random(draw(st.integers(0, 2**32)))
        kind = draw(st.sampled_from(("signed", "split", "duplicate", "permuted", "cancelling",
                                     "ring")))
        if kind == "ring":
            series.append(split_copy(ring_pa(draw(st.integers(8, 12))), rng))
            continue
        a = random_ma(rng, draw(st.integers(2, 8)), ("a", "b"),
                      density=draw(st.sampled_from((0.3, 0.7))))
        if kind == "split":
            a = split_copy(a, rng)
        elif kind == "duplicate":
            a = duplicate_state(a, rng)
        elif kind == "permuted":
            a = permuted_copy(a, rng)
        elif kind == "cancelling":
            a = with_cancelling_copies(a)
        series.append(a)
    return series


def assert_oracle_backward_rows(series):
    """``_backward_closure`` of the series' direct sum, closed on its
    coarsest lumping, has the rows of ``oracle_closure`` on the direct sum
    itself, and hands back the direct sum's own maps and scale: those of
    the dense scan of its Fraction matrices."""
    reps = [s.to_linear_representation() for s in series]
    letters = [[r.mu[x] for r in reps] for x in series[0].alphabet]
    span, actions, scale = _backward_closure(series)
    assert (actions, scale) == oracle_integer_actions(letters, left=True)
    dense = OracleIntegerSpanBasis(sum(r.dim for r in reps))
    oracle_closure(dense, [y for r in reps for y in r.gamma],
                   oracle_integer_actions(letters, left=True)[0])
    assert tuple(span._rows) == dense.pivots
    assert span.integer_rows == dense.integer_rows
    for row, line in zip(span._rows.values(), dense.integer_rows):
        assert row == {j: y for j, y in enumerate(line) if y}


class TestLumpedBackwardClosure:
    """``_backward_closure`` closes the span of the quotient of its direct
    sum by the coarsest backward lumping and expands the rows back; they
    are the unique reduced echelon rows of the unlumped closure. The
    modular gate reads the dimension of the quotient."""

    @given(backward_sums())
    @settings(max_examples=100, deadline=None)
    def test_same_rows_as_the_unlumped_oracle_closure(self, series):
        assert_oracle_backward_rows(series)

    @pytest.mark.parametrize("case, quotient_dim", [
        ("split8", 8), ("cancelling12", 13), ("ring10+split10", 10), ("split16", 16),
        ("duplicate20", 20), ("split9+permuted12", 21), ("signed8x3", 24)])
    def test_gate_reads_the_quotient(self, case, quotient_dim, monkeypatch):
        rng = random.Random(case)
        series = {
            "split8": lambda: [split_copy(ring_pa(8), rng)],
            "cancelling12": lambda: [with_cancelling_copies(ring_pa(12))],
            "ring10+split10": lambda: [ring_pa(10), split_copy(ring_pa(10), rng)],
            "split16": lambda: [split_copy(ring_pa(16), rng)],
            "duplicate20": lambda: [duplicate_state(ring_pa(20), rng)],
            "split9+permuted12": lambda: [split_copy(ring_pa(9), rng),
                                          permuted_copy(ring_pa(12), rng)],
            "signed8x3": lambda: [random_ma(rng, 8, ("a", "b")) for _ in range(3)],
        }[case]()
        assert len(set(oracle_lumping(*series))) == quotient_dim
        # only the exact closure inserts; the certified one checks with contains
        adds = span_adds(monkeypatch, lambda: _backward_closure(series))
        assert (adds == 0) == (quotient_dim >= MODULAR_MIN_DIM)
        assert_oracle_backward_rows(series)

    def test_unlucky_prime_on_a_quotient_falls_back(self, monkeypatch):
        """Mod 5 the 16 states of the ring miss a dimension or give rows
        that fail the check: the exact closure of the quotient answers."""
        series = [split_copy(ring_pa(16), random.Random(16))]
        monkeypatch.setattr(linalg, "_PRIME", 5)
        assert span_adds(monkeypatch, lambda: _backward_closure(series)) > 0
        assert_oracle_backward_rows(series)


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
            rows = value_rows([a])
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
            rows = value_rows([a, b])
            assert len(rows) <= a.n_states + b.n_states
            lam = a.to_linear_representation().lam + tuple(
                -w for w in b.to_linear_representation().lam)
            vanishes = all(sum((u * v for u, v in zip(lam, x)), F(0)) == 0 for x in rows)
            same, _ = series_equal_up_to(a, b, a.n_states + b.n_states)
            assert vanishes == same

    def test_empty_input(self):
        assert value_rows([]) == []
        assert value_rows([empty_automaton(("a",))]) == []

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            value_rows([fixtures.build("fig2_A"), fixtures.build("fig5")])


@st.composite
def column_families(draw):
    """Automata over {a, b} and columns (k, w, f) on them, as
    ``_value_table`` takes them, with the series each column stands for
    built as an automaton, as ``oracle_value_table`` takes it.

    1-3 signed random automata of 1-5 states, each followed by 0-2 others:
    itself with another initial vector (one structure), a permuted or split
    copy, or a copy with a duplicated state. Every automaton's own series
    comes first, then 0-5 columns: a letter shift or a two-letter word
    shift (``letter_shift_automaton``), or a signed integer vector with a
    factor."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    automata = []
    for _ in range(draw(st.integers(1, 3))):
        a = random_ma(rng, draw(st.integers(1, 5)), ("a", "b"),
                      density=draw(st.sampled_from((0.3, 0.7))))
        automata.append(a)
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(("structure", "permuted", "split", "duplicate")))
            automata.append(
                replace_iota(a, random_lam(rng, a.n_states)) if kind == "structure"
                else permuted_copy(a, rng) if kind == "permuted"
                else split_copy(a, rng) if kind == "split"
                else duplicate_state(a, rng))
    columns, series = [], []
    for k, a in enumerate(automata):
        form = a._integer_form()
        columns.append((k, form.iota, form.iota_factor))
        series.append(a)
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.integers(0, len(automata) - 1))
        a = automata[k]
        kind = draw(st.sampled_from(("letter", "word", "vector")))
        if kind == "vector":
            w = [rng.randint(-3, 3) for _ in a.states]
            f = random_fraction(rng)
            columns.append((k, w, f))
            series.append(replace_iota(a, tuple(f * x for x in w)))
        else:
            word = tuple(rng.choice("ab") for _ in range(1 if kind == "letter" else 2))
            columns.append((k, *a._integer_form().forward(word)))
            series.append(letter_shift_automaton(a, word))
    return automata, columns, series


def positive_multiple(table, expected):
    """Whether ``table`` is r times ``expected``, entry by entry, for one r > 0."""
    if len(table) != len(expected) or any(map(lambda u, v: len(u) != len(v), table, expected)):
        return False
    pairs = [(x, y) for u, v in zip(table, expected) for x, y in zip(u, v)]
    r = next((F(x, y) for x, y in pairs if y), None)
    if r is None:
        return not any(x for x, _ in pairs)
    return r > 0 and all(x == r * y for x, y in pairs)


class TestValueTableOnColumns:
    """``_value_table`` reads each series as a column (automaton, initial
    vector) on the direct sum of the automata themselves, copies of one
    structure included, and builds no automaton for a shift; its rows are
    those of the oracle that builds every series as an automaton and
    groups them by structure, up to one positive factor of the whole
    table."""

    @given(column_families())
    @settings(max_examples=120, deadline=None)
    def test_rows_are_the_oracle_rows_up_to_one_positive_factor(self, family):
        automata, columns, series = family
        assert positive_multiple(_value_table(automata, columns), oracle_value_table(series))

    def test_two_generators_of_one_structure(self):
        # a generator and itself from other initial vectors: the target is
        # a mix of them, a signed combination of them, or a series of
        # another structure; each against the counterexample loop, over
        # the field and over the cone
        rng = random.Random(41)
        verdicts = set()
        for _ in range(30):
            g1 = random_ma(rng, rng.randint(2, 4), ("a", "b"), density=0.5)
            g2 = replace_iota(g1, random_lam(rng, g1.n_states))
            lam1, lam2 = (g.to_linear_representation().lam for g in (g1, g2))
            c1, c2 = random_fraction(rng), random_fraction(rng)
            target = rng.choice((
                replace_iota(g1, tuple(c1 * x + c2 * y for x, y in zip(lam1, lam2))),
                replace_iota(g1, tuple(abs(c1) * x + abs(c2) * y for x, y in zip(lam1, lam2))),
                random_ma(rng, 2, ("a", "b"))))
            assert_matches_oracle(target, [g1, g2])
            verdicts.add(tuple(express_combination(target, [g1, g2], nonneg).expressible
                               for nonneg in (False, True)))
        assert verdicts == {(True, True), (True, False), (False, False)}


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
        span, _, _ = _backward_closure([a])
        ints, fracs = span.integer_rows, span.basis
        assert fracs == value_rows([a])
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


def unique_solution(rows, n):
    """Whether A x = b has at most one solution: A has rank n."""
    return len(oracle_rref(Matrix([row[:n] for row in rows], n))[1]) == n


class TestConeSolveAgainstLpFeasible:
    """The cone path of ``combination_on_rows`` runs the phase-one simplex
    on the rows themselves; Fourier-Motzkin in the nullspace coordinates of
    the equalities, on the rows x >= 0 that ``lp_feasible`` builds from
    them (``oracle_cone_combination``), must give the same verdict. Both
    points must meet every row, and where the equalities have one solution
    the two points are that solution. Integer rows, the primitive forms of
    the Fraction rows, give the same outcome."""

    @given(cone_systems())
    @settings(max_examples=300, deadline=None)
    def test_same_point_as_lp_feasible(self, system):
        rows, n = system
        outcome = combination_on_rows(rows, n, range(n), nonneg=True)
        expected = oracle_cone_combination(rows, n, list(range(n)))
        assert outcome.expressible == (expected is not None)
        if expected is not None:
            assert check_cone_answer(rows, n, (True, outcome.coefficients))
            assert check_cone_answer(rows, n, (True, expected))
            if unique_solution(rows, n):
                assert outcome.coefficients == expected
        integer = combination_on_rows([_primitive(row) for row in rows], n, range(n),
                                      nonneg=True)
        assert integer == outcome


class TestSimplexRowScale:
    """The phase-one costs weigh each row as it stands in the tableau, its
    coprime integer row, so a row given at another positive scale reaches
    the same vertex: a Fraction row and its primitive integer row, which
    the integer value tables hand in, give one answer."""

    def test_a_fraction_row_and_its_primitive_row(self):
        # the third row is -3/2 times the first: its integer row by common
        # denominator has content 3, its primitive row content 1, and
        # weighed at those scales the two reached different vertices
        rows = [[F(1), F(1), F(-1), F(0)], [F(0), F(1), F(1), F(1)],
                [F(-3, 2), F(-3, 2), F(3, 2), F(0)]]
        expected = (True, (F(0), F(1, 2), F(1, 2)))
        assert _simplex(rows, 3) == expected
        assert _simplex([_primitive(row) for row in rows], 3) == expected

    @given(cone_systems(), st.lists(st.integers(1, 6), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_rows_at_other_positive_scales_reach_the_same_point(self, system, factors):
        rows, n = system
        scaled = [[F(m, 2) * x for x in row] for row, m in zip(rows, factors)]
        answer, other = _simplex(rows, n), _simplex(scaled, n)
        assert answer[0] == other[0]
        assert check_cone_answer(scaled, n, other)
        if answer[0]:
            assert answer[1] == other[1]


class TestSimplexAgainstFourierMotzkin:
    """``linalg._simplex`` on Fraction rows of [A | b], and on integer rows
    that are nonzero multiples of them, of either sign and content above 1,
    against Fourier-Motzkin through ``oracle_lp_feasible``: the verdicts
    match, every answer passes ``check_cone_answer`` on the rows it was
    given, the Farkas vector included, and the point is the oracle's
    wherever the equalities have one solution."""

    @given(cone_systems(), st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)),
                                    min_size=8, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_checked_answers_and_the_unique_point(self, system, factors):
        rows, n = system
        expected = oracle_cone_combination(rows, n, list(range(n)))
        integer = [[m * x for x in _primitive(row)] for row, m in zip(rows, factors)]
        for given_rows in (rows, integer):
            answer = _simplex(given_rows, n)
            assert answer[0] == (expected is not None)
            assert check_cone_answer(given_rows, n, answer)
            if expected is not None and unique_solution(rows, n):
                assert answer[1] == expected

    @pytest.mark.parametrize("rows,n,feasible", [
        ([], 0, True),
        ([[0, 0]], 1, True),
        ([[0, 1]], 1, False),
        ([[1, -1]], 1, False),
        ([[1, 1, 2], [1, -1, 0]], 2, True),
        ([[1, 1, 2], [2, 2, 4], [1, 1, 2]], 2, True),
        ([[1, 1, 1], [1, 1, 2]], 2, False),
        ([[1, -1, 0, 0], [0, 1, -1, 0], [-1, 0, 1, -1]], 3, False),
    ], ids=["empty", "zero-row", "zero-columns", "negative", "unique", "repeated-rows",
            "conflict", "cycle"])
    def test_small_systems(self, rows, n, feasible):
        answer = _simplex(rows, n)
        assert answer[0] == feasible
        assert check_cone_answer(rows, n, answer)


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
