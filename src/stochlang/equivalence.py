"""Equivalence of multiplicity automata and linear-combination expression.

Equivalence is decided by closing a word basis under letter extension while
tracking, for each word, the pair of forward vectors (lam . mu(w) on both
sides). The pair extends linearly on the right, so the closure computes the
span of all reachable pairs; the two series agree iff the final-weight
functional vanishes on that span. A failing basis word is a counterexample
and its length never exceeds the combined state count.

Combinations close from the other side. The backward vectors x(w) = mu(w) . gamma
of a direct sum of automata, closed under left letter action, span every
x(w); each series is lam . x(w) for its own initial vector lam, so any
linear equation between series holds on all words iff it holds on the
closure's rows. Expressing one series over others is then one exact solve,
or one exact feasibility problem for nonnegative coefficients, with no
search for counterexample words.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .automata import (LinearRepresentation, MultiplicityAutomaton, Word,
                       merge_alphabets, with_alphabet)
from .linalg import (Constraint, Matrix, SpanBasis, Vector, dot, lp_feasible,
                     mat_vec, solve_affine, unit_vector, vec_mat)


@dataclass(frozen=True)
class EquivalenceOutcome:
    """Equal, or a witness word on which the two series differ."""
    equal: bool
    witness: Word | None = None
    left_value: Fraction | None = None
    right_value: Fraction | None = None


def _word_basis(a: MultiplicityAutomaton, b: MultiplicityAutomaton):
    """Basis words with their forward vector pairs, spanning all reachable pairs."""
    alphabet = a.alphabet
    index = {x: i for i, x in enumerate(alphabet)}
    ra = a.to_linear_representation()
    rb = b.to_linear_representation()
    dim = ra.dim + rb.dim

    span = SpanBasis(dim)
    basis: list[tuple[Word, Vector, Vector]] = [((), ra.lam, rb.lam)]
    span.add(ra.lam + rb.lam)
    frontier: list[tuple[int, tuple[int, ...], Word, Vector, Vector]] = []

    def push_children(word: Word, va: Vector, vb: Vector) -> None:
        for x in alphabet:
            child = word + (x,)
            key = tuple(index[y] for y in child)
            heapq.heappush(frontier, (len(child), key,
                                      child, vec_mat(va, ra.mu[x]), vec_mat(vb, rb.mu[x])))

    push_children((), ra.lam, rb.lam)
    while frontier:
        _, _, word, va, vb = heapq.heappop(frontier)
        if span.add(va + vb):
            basis.append((word, va, vb))
            push_children(word, va, vb)
    return basis, ra.gamma, rb.gamma


def are_equivalent(a: MultiplicityAutomaton, b: MultiplicityAutomaton) -> EquivalenceOutcome:
    """Decide whether two automata generate the same series.

    On a mismatch the returned witness is the length-lex smallest basis word
    whose values differ, with both values re-evaluated on the inputs.

    Alphabets may differ as long as their shared letters agree in order; the
    comparison then runs over the union, missing letters meaning weight zero.
    """
    alphabet = merge_alphabets(a.alphabet, b.alphabet)
    a = with_alphabet(a, alphabet)
    b = with_alphabet(b, alphabet)
    basis, gamma_a, gamma_b = _word_basis(a, b)
    for word, va, vb in basis:
        if dot(va, gamma_a) != dot(vb, gamma_b):
            return EquivalenceOutcome(False, word, a.evaluate(word), b.evaluate(word))
    return EquivalenceOutcome(True)


@dataclass(frozen=True)
class CombinationOutcome:
    """Expressible with the given coefficients, or infeasible."""
    expressible: bool
    coefficients: tuple[Fraction, ...] | None = None


def value_rows(reps: Sequence[LinearRepresentation]) -> list[Vector]:
    """Reduced echelon basis of the span of every x(w) = mu(w) . gamma of a direct sum.

    The representations share one alphabet. Their direct sum has the
    concatenated final vectors and block-diagonal letter matrices, so block i
    of x(w) is representation i's own mu(w) . gamma. The closure starts from
    gamma and extends every vector that enlarges the span by each letter on
    the left, so the span reached holds every x(w). A series with initial
    vector lam on block i takes the value lam . x(w)[i] on w, so a linear
    equation between such series holds on every word iff it holds on these
    rows. In particular, two initial vectors of one representation give
    equal series iff they agree on every row. Echelon rows are returned
    rather than the x(w) themselves: they span the same space, and a solve
    over a subset of their columns starts almost reduced.
    """
    alphabet = reps[0].alphabet if reps else ()
    if any(r.alphabet != alphabet for r in reps):
        raise ValueError("alphabet mismatch")
    bounds = list(accumulate((r.dim for r in reps), initial=0))

    def shifted(v: Vector, x: str) -> Vector:
        return tuple(y for r, lo, hi in zip(reps, bounds, bounds[1:])
                     for y in mat_vec(r.mu[x], v[lo:hi]))

    span = SpanBasis(bounds[-1])
    queue = deque([tuple(y for r in reps for y in r.gamma)])
    while queue:
        v = queue.popleft()
        if span.add(v):
            queue.extend(shifted(v, x) for x in alphabet)
    return span.basis


def combination_on_rows(rows: Sequence[Sequence[Fraction]], target: int,
                        columns: Sequence[int], nonneg: bool) -> CombinationOutcome:
    """Coefficients c with row[target] = sum_j c_j row[columns[j]] on every row.

    Each row holds the values of several series on one backward vector, as
    built from :func:`value_rows`. Over the field the answer is the
    particular solution of the reduced row-echelon form, which depends only
    on the row space; with ``nonneg`` it is the exact feasible point of the
    same equations with every coefficient >= 0.
    """
    n = len(columns)
    lhs = [[row[j] for j in columns] for row in rows]
    rhs = [row[target] for row in rows]
    if nonneg:
        constraints = [Constraint.eq(coeffs, -value) for coeffs, value in zip(lhs, rhs)]
        constraints += [Constraint.ge(unit_vector(n, i), 0) for i in range(n)]
        coeffs = lp_feasible(constraints, n)
    else:
        sol = solve_affine(Matrix(lhs, n), rhs)
        coeffs = None if sol is None else sol.particular
    if coeffs is None:
        return CombinationOutcome(False)
    return CombinationOutcome(True, tuple(coeffs))


def express_combination(target: MultiplicityAutomaton,
                        generators: Sequence[MultiplicityAutomaton],
                        nonneg: bool) -> CombinationOutcome:
    """Coefficients expressing the target series over the generators' series.

    The series are grouped into one block per distinct structure (states,
    final weights and transitions); series in one block differ only in their
    initial vector. One backward closure of the blocks' direct sum
    (:func:`value_rows`) yields rows x on which each series takes the value
    lam . x[its block]. The rows span every x(w), so the equations on them
    are complete: they imply target(w) = sum c_j generator_j(w) on every
    word. One exact solve therefore decides the question, or with
    ``nonneg`` one exact feasibility problem with every coefficient >= 0,
    and no candidate needs checking afterwards. Over the field the
    coefficients are the reduced row-echelon particular solution of the
    complete system.
    """
    generators = list(generators)
    if any(g.alphabet != target.alphabet for g in generators):
        raise ValueError("alphabet mismatch")
    series = [target] + generators
    blocks: list[MultiplicityAutomaton] = []
    block_of: list[int] = []
    for s in series:
        k = next((i for i, b in enumerate(blocks)
                  if s.states == b.states and s.tau == b.tau and s.phi == b.phi), None)
        if k is None:
            k = len(blocks)
            blocks.append(s)
        block_of.append(k)
    bounds = list(accumulate((b.n_states for b in blocks), initial=0))
    lams = [tuple(s.iota_weight(q) for q in s.states) for s in series]
    values = [[dot(lam, x[bounds[k]:bounds[k + 1]]) for lam, k in zip(lams, block_of)]
              for x in value_rows([b.to_linear_representation() for b in blocks])]
    return combination_on_rows(values, 0, range(1, len(series)), nonneg)
