"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; all checks are exact unless a
floating comparison is stated explicitly.
"""

import math
import random
from fractions import Fraction

from stochlang import (Dfa, ReductionMode,
                       are_equivalent, determinize_to_pda,
                       express_combination, fixtures, hankel_rank, is_pa,
                       is_pra_reduced, pra_hardness_instance, reduce,
                       residual_automaton, state_sums, synthesize_pa,
                       to_prefixial_pra, total_sum, words_up_to)
from stochlang.linalg import Matrix, spectral_radius_lt_one

from helpers import (duplicate_state, example1_residual_value, fig3_value,
                     jury_lt_one_2x2, oracle_total_sum, permuted_copy,
                     random_dense_ma, random_ma, random_pa, series_equal_up_to,
                     t_value)

F = Fraction


def ok(number, label):
    print(f"criterion {number:2d} ({label}): PASS")


def test_criterion_01_fig3_sum_converges_to_one():
    outcome = total_sum(fixtures.build("fig3_App"))
    assert outcome.converges
    assert outcome.value == F(1)
    # the independent subspace-decomposition kernel must give the same value
    # under both complement choices
    for reverse in (False, True):
        assert oracle_total_sum(fixtures.build("fig3_App"), reverse) == outcome.value
    ok(1, "fig3_App sum is exactly 1")


def test_criterion_02_fig3_closed_form_all_words_up_to_six():
    a = fixtures.build("fig3_App")
    words = list(words_up_to(("a", "b"), 6))
    assert len(words) == 127
    for w in words:
        assert a.evaluate(w) == fig3_value(w)
    ok(2, "fig3_App matches the Lucas closed form on 127 words")


def test_criterion_03_pa_normalisation():
    instances = [fixtures.build(name) for name in ("fig2_A", "fig5", "example1_p")]
    rng = random.Random(2025_03)
    instances += [random_pa(rng, rng.randint(2, 4), ("a", "b")) for _ in range(50)]
    for a in instances:
        assert is_pa(a)
        sums = state_sums(a)
        assert sums is not None
        assert all(v == F(1) for v in sums.values())
        outcome = total_sum(a)
        assert outcome.converges and outcome.value == F(1)
    ok(3, "state sums and total sum are exactly 1 on 53 PAs")


def test_criterion_04_equivalence_soundness_on_200_pairs():
    rng = random.Random(2025_04)
    for i in range(200):
        a = random_ma(rng, rng.randint(1, 3), ("a", "b"))
        if i % 5 == 0:
            b = permuted_copy(a, rng)
        elif i % 5 == 1:
            b = duplicate_state(a, rng)
        else:
            b = random_ma(rng, rng.randint(1, 3), ("a", "b"))
        bound = a.n_states + b.n_states
        outcome = are_equivalent(a, b)
        same, _ = series_equal_up_to(a, b, bound)
        assert outcome.equal == same
        if not outcome.equal:
            assert len(outcome.witness) <= bound
            assert a.evaluate(outcome.witness) != b.evaluate(outcome.witness)
    ok(4, "equivalence verdicts match exhaustive comparison on 200 pairs")


def test_criterion_05_field_reduction_reaches_the_rank():
    instances = [fixtures.build(name) for name in fixtures.FIXTURE_NAMES]
    rng = random.Random(2025_05)
    for _ in range(25):
        instances.append(random_dense_ma(rng, rng.randint(2, 4), ("a", "b")))
    for _ in range(25):
        instances.append(duplicate_state(
            random_dense_ma(rng, rng.randint(2, 3), ("a", "b")), rng))
    for a in instances:
        reduced = reduce(a, ReductionMode.FIELD)
        assert are_equivalent(a, reduced).equal
        assert reduced.n_states == hankel_rank(a)
    assert hankel_rank(fixtures.build("fig3_App")) == 2
    assert hankel_rank(fixtures.build("example1_p")) == 2
    ok(5, "field reduction preserves the series and reaches the rank")


def test_criterion_06_example1_residuals_and_coefficients():
    p = fixtures.build("example1_p")
    p1 = fixtures.build("example1_p1")
    p2 = fixtures.build("example1_p2")
    for n in range(11):
        res = residual_automaton(p, ("a",) * n)
        for m in range(11):
            assert res.evaluate(("a",) * m) == example1_residual_value(n, m)
        outcome = express_combination(res, [p1, p2], nonneg=True)
        assert outcome.expressible
        assert outcome.coefficients == (F(2 ** n, 2 ** n + 1), F(1, 2 ** n + 1))
    ok(6, "example1_p residuals and mixture coefficients are exact for n <= 10")


def test_criterion_07_fig5_recurrence_and_limit():
    a = fixtures.build("fig5")
    gammas = [residual_automaton(a, ("a",) * n).evaluate(()) for n in range(21)]
    for n in range(13):
        assert gammas[n] == fixtures.oracle_gamma(n)
        if n > 0:
            assert gammas[n] == (1 - 2 * gammas[n - 1]) / (4 * (1 - gammas[n - 1]))
    assert abs(float(gammas[20]) - (3 - math.sqrt(5)) / 4) < 1e-4
    ok(7, "fig5 residual values follow the recurrence and approach the limit")


def test_criterion_08_prop10_support_and_mass():
    t = fixtures.build("prop10_t")
    outcome = total_sum(t)
    assert outcome.converges and outcome.value == F(1)
    for w in words_up_to(("a", "b"), 8):
        value = t.evaluate(w)
        assert value == t_value(w)
        assert value >= 0
        assert (value == 0) == (w.count("a") == w.count("b"))
    ok(8, "prop10_t sums to 1, is nonnegative, vanishes iff balanced")


def test_criterion_09_determinization():
    out = determinize_to_pda(fixtures.build("fig2_A"), 8)
    assert not out.bound_exceeded
    assert out.pda.n_states == 2
    assert are_equivalent(out.pda, fixtures.build("fig2_A")).equal

    out = determinize_to_pda(fixtures.build("example1_p"), 8)
    assert out.bound_exceeded and out.discovered_residuals == 9

    out = determinize_to_pda(fixtures.build("fig5"), 16)
    assert out.bound_exceeded and out.discovered_residuals == 17
    ok(9, "determinization: fig2_A yields a 2-state PDA, the others hit the bound")


def _hardness_families():
    ab = ("a", "b")

    def dfa_all():
        return Dfa(ab, ("s0",), "s0", frozenset({"s0"}),
                   {("s0", x): "s0" for x in ab})

    def dfa_only_epsilon():
        delta = {("s0", x): "s1" for x in ab}
        delta.update({("s1", x): "s1" for x in ab})
        return Dfa(ab, ("s0", "s1"), "s0", frozenset({"s0"}), delta)

    def dfa_a_parity(final):
        delta = {}
        for x in ab:
            delta[("e", x)] = "o" if x == "a" else "e"
            delta[("o", x)] = "e" if x == "a" else "o"
        return Dfa(ab, ("e", "o"), "e", frozenset({final}), delta)

    def dfa_contains_a():
        delta = {("s0", "a"): "s1", ("s0", "b"): "s0",
                 ("s1", "a"): "s1", ("s1", "b"): "s1"}
        return Dfa(ab, ("s0", "s1"), "s0", frozenset({"s1"}), delta)

    def dfa_no_a():
        delta = {("s0", "a"): "dead", ("s0", "b"): "s0",
                 ("dead", "a"): "dead", ("dead", "b"): "dead"}
        return Dfa(ab, ("s0", "dead"), "s0", frozenset({"s0"}), delta)

    def dfa_starts_with(letter):
        other = "b" if letter == "a" else "a"
        delta = {("s0", letter): "yes", ("s0", other): "no"}
        delta.update({("yes", x): "yes" for x in ab})
        delta.update({("no", x): "no" for x in ab})
        return Dfa(ab, ("s0", "yes", "no"), "s0", frozenset({"yes"}), delta)

    def dfa_length_even():
        delta = {("e", x): "o" for x in ab}
        delta.update({("o", x): "e" for x in ab})
        return Dfa(ab, ("e", "o"), "e", frozenset({"e"}), delta)

    def dfa_length_mod3_is_one():
        delta = {}
        for i in range(3):
            for x in ab:
                delta[(f"c{i}", x)] = f"c{(i + 1) % 3}"
        return Dfa(ab, ("c0", "c1", "c2"), "c0", frozenset({"c1"}), delta)

    def dfa_length_at_most_one():
        delta = {("c0", x): "c1" for x in ab}
        delta.update({("c1", x): "c2" for x in ab})
        delta.update({("c2", x): "c2" for x in ab})
        return Dfa(ab, ("c0", "c1", "c2"), "c0", frozenset({"c0", "c1"}), delta)

    def dfa_length_at_least_one():
        delta = {("c0", x): "c1" for x in ab}
        delta.update({("c1", x): "c1" for x in ab})
        return Dfa(ab, ("c0", "c1"), "c0", frozenset({"c1"}), delta)

    def dfa_ends_with_b():
        delta = {("n", "a"): "n", ("n", "b"): "y",
                 ("y", "a"): "n", ("y", "b"): "y"}
        return Dfa(ab, ("n", "y"), "n", frozenset({"y"}), delta)

    return [
        [dfa_all()],
        [dfa_only_epsilon()],
        [dfa_a_parity("e"), dfa_a_parity("o")],
        [dfa_a_parity("e")],
        [dfa_contains_a(), dfa_no_a()],
        [dfa_starts_with("a"), dfa_starts_with("b")],
        [dfa_starts_with("a"), dfa_starts_with("b"), dfa_only_epsilon()],
        [dfa_length_even(), dfa_length_mod3_is_one()],
        [dfa_length_at_most_one(), dfa_length_at_least_one()],
        [dfa_ends_with_b(), dfa_only_epsilon()],
    ]


def test_criterion_10_pra_detection_and_hardness_instances():
    verdict, witnesses = is_pra_reduced(fixtures.build("fig5"))
    assert verdict
    assert witnesses == {"q0": (), "q1": ("a",)}

    families = _hardness_families()
    assert len(families) == 10
    for dfas in families:
        instance = pra_hardness_instance(dfas)
        union_total = all(
            any(d.accepts(w) for d in dfas)
            for w in words_up_to(("a", "b"), 6))
        assert is_pra_reduced(instance)[0] == (not union_total)
    ok(10, "PRA detection agrees with brute-force union universality on 10 instances")


def test_criterion_11_pa_synthesis():
    target = fixtures.build("example1_p")
    built = synthesize_pa(target, [fixtures.build("example1_p1"),
                                   fixtures.build("example1_p2")])
    assert built is not None
    assert is_pa(built)
    assert are_equivalent(built, target).equal

    app = fixtures.build("fig3_App")
    assert synthesize_pa(app, [app, residual_automaton(app, ("a",))]) is None
    ok(11, "PA synthesis succeeds for example1_p and is infeasible for fig3_App")


def test_criterion_12_prefixial_construction():
    for name in ("fig5", "fig2_A"):
        a = fixtures.build(name)
        built = to_prefixial_pra(a, {"q0": (), "q1": ("a",)})
        assert is_pa(built)
        assert are_equivalent(built, a).equal
        from stochlang import parse_word
        words = {parse_word(q, built.alphabet) for q in built.states}
        assert all(w[:i] in words for w in words for i in range(len(w)))
    ok(12, "prefixial rebuilds are prefix-closed PAs equal to their inputs")


def test_criterion_13_spectral_kernel_against_characteristic_polynomial():
    rng = random.Random(2025_13)
    for _ in range(100):
        m = Matrix([[F(rng.randint(-8, 8), 4) for _ in range(2)] for _ in range(2)])
        assert all(abs(x) <= 2 for row in m.rows for x in row)
        assert spectral_radius_lt_one(m) == jury_lt_one_2x2(m)
    ok(13, "spectral contraction test matches the 2x2 characteristic polynomial")
