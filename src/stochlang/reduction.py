"""State elimination, reducedness and the rank of the series.

A state whose series is a combination of the other states' series can be
eliminated without changing any remaining state series. State q's series
takes the value x[q] on each backward vector x = mu(w) . gamma, so one
backward closure (``equivalence.value_rows``) turns every reducedness
question into a question about the columns of its rows: one solve or one
feasibility problem per state, and none of them is ever repeated on a new
closure, since eliminating a state only drops its column. Over the field
the iteration bottoms out at the rank of the series, which is computed
independently of any solve: the backward rows carry a representation of
the series on their own span, and the rank is the dimension of the
forward closure of its initial vector.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from .automata import LinearRepresentation, MultiplicityAutomaton
from .equivalence import _backward_closure, combination_on_rows, value_rows
from .linalg import SpanBasis, _Action, _closure, _primitive


class ReductionMode(enum.Enum):
    """Coefficient domain for eliminations: the rationals or their nonnegative cone."""
    FIELD = "field"
    CONE = "cone"


class ReductionStallError(RuntimeError):
    """Field-mode elimination stopped above the series rank."""


def is_reduced(a: MultiplicityAutomaton, mode: ReductionMode) -> bool:
    """True iff no state's series is a mode-valid combination of the others'.

    State q's series takes the value x[q] on every backward vector x of
    :func:`value_rows`, so the question is about the columns of those rows.
    Over the field they are independent iff there are as many rows as
    states; over the cone each state is one feasibility problem on the
    other columns.
    """
    rows = value_rows([a.to_linear_representation()])
    n = a.n_states
    if mode is ReductionMode.FIELD:
        return len(rows) == n
    return not any(combination_on_rows(rows, q, [s for s in range(n) if s != q],
                                       nonneg=True).expressible
                   for q in range(n))


def _eliminate(a: MultiplicityAutomaton, q: str,
               coeffs: dict[str, Fraction]) -> MultiplicityAutomaton:
    keep = [s for s in a.states if s != q]
    iota = {r: a.iota_weight(r) + coeffs[r] * a.iota_weight(q) for r in keep}
    tau = {r: a.tau_weight(r) for r in keep}
    phi = {}
    for r in keep:
        for x in a.alphabet:
            for s in keep:
                w = a.weight(r, x, s) + coeffs[s] * a.weight(r, x, q)
                if w:
                    phi[(r, x, s)] = w
    return MultiplicityAutomaton(a.alphabet, keep, iota, tau, phi)


def reduce(a: MultiplicityAutomaton, mode: ReductionMode) -> MultiplicityAutomaton:
    """Eliminate combination states until none remains; the series is preserved.

    States are examined in declared order and the first reducible one is
    removed each round; the input itself is returned when none is. The
    backward rows of the input are built once: elimination leaves every
    kept state's series unchanged, so removing a state only drops its
    column, and each later decision is one solve (field) or one feasibility
    problem (cone) on the remaining columns. In field mode the final state
    count must match the series rank; a mismatch raises
    :class:`ReductionStallError` instead of returning silently.
    """
    rep = a.to_linear_representation()
    span, actions = _backward_closure([rep])
    rows = span.integer_rows
    nonneg = mode is ReductionMode.CONE
    columns = list(range(a.n_states))
    current = a
    changed = True
    while changed:
        changed = False
        for i, q in enumerate(current.states):
            others = columns[:i] + columns[i + 1:]
            outcome = combination_on_rows(rows, columns[i], others, nonneg)
            if outcome.expressible:
                kept = current.states[:i] + current.states[i + 1:]
                current = _eliminate(current, q, dict(zip(kept, outcome.coefficients)))
                del columns[i]
                changed = True
                break
    if mode is ReductionMode.FIELD:
        target_rank = _pairing_rank(rep, span, actions)
        if current.n_states != target_rank:
            raise ReductionStallError(
                f"elimination stopped at {current.n_states} states but the series "
                f"rank is {target_rank}")
    return current


def hankel_rank(a: MultiplicityAutomaton) -> int:
    """Dimension of the span of all shifted versions of the series.

    Reduces the representation from both sides (Schützenberger): the
    backward rows of :func:`value_rows` carry a representation of the same
    series on their span, in which every coordinate vector is reached from
    gamma; the dimension of the forward closure of its initial vector is
    then the rank. This equals the dimension of every minimal presentation
    of the series over the field. No pairing matrix is built and no
    elimination beyond the two span closures runs.
    """
    rep = a.to_linear_representation()
    return _pairing_rank(rep, *_backward_closure([rep]))


def _pairing_rank(rep: LinearRepresentation, backward: SpanBasis,
                  actions: list[_Action]) -> int:
    """Rank of the series of ``rep``, given the span of its backward closure.

    ``backward`` and ``actions`` come from ``equivalence._backward_closure``
    of ``rep`` alone. Its echelon rows b_i span every mu(w) . gamma, a space
    closed under y -> mu(x) . y, and each is a primitive integer vector,
    positive at its pivot p_i where the other rows vanish, so a vector of
    that space has coordinate y[p_k] / b_k[p_k] on b_k. On that basis the
    series has initial vector lam_i = lam . b_i and letter maps u -> A_x u
    with A_x[i][k] = (mu(x) . b_i)[p_k] / b_k[p_k], and every coordinate
    vector is reached from gamma's, so the rank is the dimension of the
    closure of lam under the A_x. The integer maps s mu(x) and one common
    multiple of the pivot entries scale every A_x alike, so the closure
    runs on integers.
    """
    pivots = list(backward._rows)
    rows = list(backward._rows.values())
    scale = lcm(*(b[p] for p, b in backward._rows.items()))
    weights = [scale // b[p] for p, b in backward._rows.items()]
    pivot_actions = []
    for action in actions:
        pivot_rows = [action[p] for p in pivots]
        a_x = [[w * sum([y * b.get(j, 0) for j, y in terms])
                for terms, w in zip(pivot_rows, weights)]
               for b in rows]
        pivot_actions.append([[(k, c) for k, c in enumerate(line) if c] for line in a_x])
    lam = _primitive(rep.lam)
    start = [sum([lam[j] * y for j, y in b.items()]) for b in rows]
    return len(_closure(SpanBasis(len(rows)), start, pivot_actions))
