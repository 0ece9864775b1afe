"""Equivalence of multiplicity automata and linear-combination expression.

Equivalence is decided by closing a word basis under letter extension while
tracking, for each word, the pair of forward vectors (lam . mu(w) on both
sides). The pair extends linearly on the right, so the closure computes the
span of all reachable pairs; the two series agree iff the final-weight
functional vanishes on that span. A failing basis word is a counterexample
and its length never exceeds the combined state count. The vectors the
closure extends are not the pairs themselves but the echelon rows they
add to the span: each pair reduced against the earlier rows, often
sparser than the pairs, whose entries grow with the word. Each row is a
nonzero multiple of its pair plus a combination of the earlier pairs, so
the functional is nonzero first on the same word (:func:`_word_basis`).

Combinations close from the other side. The backward vectors x(w) = mu(w) . gamma
of a direct sum of automata, closed under left letter action, span every
x(w); each series is lam . x(w) for its own initial vector lam, so any
linear equation between series holds on all words iff it holds on the
closure's rows. Expressing one series over others is then one exact solve,
or one exact feasibility problem for nonnegative coefficients, with no
search for counterexample words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Sequence

from .automata import (LinearRepresentation, MultiplicityAutomaton, Word,
                       merge_alphabets, with_alphabet)
from .linalg import (SpanBasis, _Action, _certified_closure, _closure, _feasible_point,
                     _integer_actions, _nullspace, _particular, _primitive)


@dataclass(frozen=True)
class EquivalenceOutcome:
    """Equal, or a witness word on which the two series differ."""
    equal: bool
    witness: Word | None = None
    left_value: Fraction | None = None
    right_value: Fraction | None = None


def _word_basis(a: MultiplicityAutomaton, b: MultiplicityAutomaton):
    """Basis words with sparse integer rows, spanning all reachable pairs, and
    the functional that compares the two series. The words come from a
    generator, in the order the closure accepts them.

    One closure of lam_a (+) lam_b under the letter matrices acting on the
    right. Breadth-first order reaches the words in length-lex order: each
    basis word is the length-lex least word whose pair
    (lam_a . mu_a(w), lam_b . mu_b(w)) leaves the span of the pairs before
    it. The row that comes back with a word is not a multiple of that pair
    but the echelon row that the pair added to the span: the pair reduced
    against the rows before it and divided by its content, so c times the
    pair, c != 0, plus a combination of the pairs of the earlier words. The
    functional f is (gamma_a, -gamma_b) as coprime integers, one positive
    scale for both, so f on a pair is a positive multiple of the difference
    of the series on its word. Once f vanishes on every earlier row, f on a
    row is c times that difference: the first row on which f is nonzero
    belongs to the first basis word on which the series differ.
    """
    ra = a.to_linear_representation()
    rb = b.to_linear_representation()
    actions, _ = _integer_actions([(ra.mu[x], rb.mu[x]) for x in a.alphabet], left=False)
    basis = _closure(SpanBasis(ra.dim + rb.dim), ra.lam + rb.lam, actions)
    gamma = _primitive(ra.gamma + tuple(-y for y in rb.gamma))
    return ((tuple(a.alphabet[k] for k in path), row) for path, row in basis), gamma


def are_equivalent(a: MultiplicityAutomaton, b: MultiplicityAutomaton) -> EquivalenceOutcome:
    """Decide whether two automata generate the same series.

    On a mismatch the returned witness is the length-lex smallest basis word
    whose values differ (:func:`_word_basis`), with both values re-evaluated
    on the inputs. The closure stops at that word; only an equal verdict
    builds the whole basis.

    Alphabets may differ as long as their shared letters agree in order; the
    comparison then runs over the union, missing letters meaning weight zero.
    """
    alphabet = merge_alphabets(a.alphabet, b.alphabet)
    a = with_alphabet(a, alphabet)
    b = with_alphabet(b, alphabet)
    basis, gamma = _word_basis(a, b)
    for word, row in basis:
        if sum([gamma[j] * y for j, y in row.items()]):
            return EquivalenceOutcome(False, word, a.evaluate(word), b.evaluate(word))
    return EquivalenceOutcome(True)


@dataclass(frozen=True)
class CombinationOutcome:
    """Expressible with the given coefficients, or infeasible."""
    expressible: bool
    coefficients: tuple[Fraction, ...] | None = None


# From this dimension of the direct sum on, _backward_closure runs mod a
# prime (linalg._certified_closure). The crossover, measured as process CPU
# time, median of 15, exact -> modular, on a 2-core Xeon with Python 3.11.7.
# Split ring copies (2n dimensions, rank n): 0.30 -> 0.46 ms at 12
# dimensions, 0.67 -> 0.65 ms at 16, 1.47 -> 1.38 ms at 20, 2.42 -> 1.86 ms
# at 24, 7.7 -> 4.3 ms at 40 and 15.4 -> 5.3 ms at 48; at 32, eight copies
# ran 0.48 to 0.98 times as long. Signed automata with a duplicated state or
# cancelling copies: 10% to 30% slower up to 14 dimensions, 0.78 to 1.18
# times as long at 16-18, and 0.50 to 0.94 times as long at 24-30. Below the
# gate the exact check costs about what the fill-in it avoids does.
MODULAR_MIN_DIM = 24


def _backward_closure(reps: Sequence[LinearRepresentation]
                      ) -> tuple[SpanBasis, list[_Action]]:
    """The span of every x(w) = mu(w) . gamma of a direct sum, with the integer
    letter maps it was closed under.

    The representations share one alphabet. Their direct sum has the
    concatenated final vectors and block-diagonal letter matrices, so block i
    of x(w) is representation i's own mu(w) . gamma. The closure starts from
    gamma and extends, by each letter on the left, the echelon row that
    each vector enlarging the span adds (``linalg._closure``), so the span
    reached holds every x(w). A series with initial vector lam on block i
    takes the value lam . x(w)[i] on w, so a linear equation between such
    series holds on every word iff it holds on the span's rows; in
    particular, two initial vectors of one representation give equal
    series iff they agree on every row. The closure is fraction-free: the
    span keeps its reduced echelon rows as primitive integers, and the maps
    are v -> s mu(x) . v on the direct sum, one per letter in alphabet
    order, with one scale s per call, stored per input coordinate.

    From ``MODULAR_MIN_DIM`` dimensions on, the same closure runs mod
    a prime (``linalg._certified_closure``), where the rows that the exact
    closure would fill in do not grow. Its rows are rebuilt as rationals
    and kept only if gamma and every row's image under every letter lie in
    their row space, which makes them the exact rows; otherwise the exact
    closure runs. Every caller gets the same span either way.
    """
    alphabet = reps[0].alphabet if reps else ()
    if any(r.alphabet != alphabet for r in reps):
        raise ValueError("alphabet mismatch")
    dim = sum(r.dim for r in reps)
    actions, _ = _integer_actions([[r.mu[x] for r in reps] for x in alphabet], left=True)
    gamma = [y for r in reps for y in r.gamma]
    if dim >= MODULAR_MIN_DIM:
        return _certified_closure(dim, gamma, actions), actions
    span = SpanBasis(dim)
    for _ in _closure(span, gamma, actions):
        pass
    return span, actions


def combination_on_rows(rows: Sequence[Sequence[Fraction | int]], target: int,
                        columns: Sequence[int], nonneg: bool) -> CombinationOutcome:
    """Coefficients c with row[target] = sum_j c_j row[columns[j]] on every row.

    Each row holds the values of several series on one backward vector, or
    a multiple of them, as built from the integer rows of
    :func:`_backward_closure`; scaling a row changes no solution, and where
    only feasibility is read, neither does scaling a column by a positive
    factor. The rows [columns | target] go straight into the fraction-free
    solve (``linalg._particular``). Over the field the answer is the particular
    solution of the reduced row-echelon form, which depends only on the
    row space. With ``nonneg`` every solution is x = p + N y, p that
    particular solution and N the nullspace read off the same echelon rows
    (``linalg._nullspace``); the rows x_i >= 0 in y reach Fourier-Motzkin
    as primitive integer rows (``linalg._feasible_point``), the same input
    ``lp_feasible`` builds for these equations with x >= 0, so the answer
    is its exact feasible point.
    """
    n = len(columns)
    solved = _particular(([row[j] for j in columns] + [row[target]] for row in rows), n)
    if solved is None:
        return CombinationOutcome(False)
    coeffs, echelon = solved
    if nonneg:
        null = _nullspace(echelon, n)
        coeffs = _feasible_point(coeffs, null, ([v[i] for v in null] + [coeffs[i]]
                                                for i in range(n)))
        if coeffs is None:
            return CombinationOutcome(False)
    return CombinationOutcome(True, tuple(coeffs))


def _blocks(series: Sequence[MultiplicityAutomaton]
            ) -> tuple[list[MultiplicityAutomaton], list[int]]:
    """The first series of each distinct structure (states, final weights and
    transitions), in order, and the index of each series' block.

    Series in one block differ only in their initial vector, so they share
    every derived object that the initial vector does not enter.
    """
    blocks: list[MultiplicityAutomaton] = []
    block_of: list[int] = []
    for s in series:
        k = next((i for i, b in enumerate(blocks)
                  if s.states == b.states and s.tau == b.tau and s.phi == b.phi), None)
        if k is None:
            k = len(blocks)
            blocks.append(s)
        block_of.append(k)
    return blocks, block_of


def _value_table(series: Sequence[MultiplicityAutomaton]) -> list[list[int]]:
    """Rows of integers, one column per series, on which every linear
    equation between the series holds iff it holds on every word.

    The series are grouped into one block per distinct structure
    (:func:`_blocks`). One backward closure of the blocks' direct sum
    (:func:`_backward_closure`) yields rows x on which each series takes the
    value lam . x[its block], and the rows span every x(w). The initial
    vectors are scaled to integers by one common denominator and paired
    with the span's sparse integer rows; neither that positive scale, which
    every column shares, nor the scale of a row changes a solution of
    :func:`combination_on_rows`.
    """
    blocks, block_of = _blocks(series)
    bounds = list(accumulate((b.n_states for b in blocks), initial=0))
    scale = lcm(*(w.denominator for s in series for w in s.iota.values()))
    lams = []
    for s, k in zip(series, block_of):
        lam = [0] * bounds[-1]
        for j, q in enumerate(s.states, start=bounds[k]):
            w = s.iota_weight(q)
            lam[j] = w.numerator * (scale // w.denominator)
        lams.append(lam)
    span, _ = _backward_closure([b.to_linear_representation() for b in blocks])
    return [[sum([lam[j] * y for j, y in row.items()]) for lam in lams]
            for row in span._rows.values()]


def express_combination(target: MultiplicityAutomaton,
                        generators: Sequence[MultiplicityAutomaton],
                        nonneg: bool) -> CombinationOutcome:
    """Coefficients expressing the target series over the generators' series.

    One table of the series' values on the backward rows of their blocks
    (:func:`_value_table`) holds equations that are complete: they imply
    target(w) = sum c_j generator_j(w) on every word, and no candidate
    needs checking afterwards. One call to :func:`combination_on_rows` then
    decides the question: over the field the coefficients are the reduced
    row-echelon particular solution of the complete system, and with
    ``nonneg`` the exact feasible point with every coefficient >= 0.
    """
    generators = list(generators)
    if any(g.alphabet != target.alphabet for g in generators):
        raise ValueError("alphabet mismatch")
    return combination_on_rows(_value_table([target] + generators), 0,
                               range(1, len(generators) + 1), nonneg)
