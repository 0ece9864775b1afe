"""State elimination, reducedness and the rank of the series.

A state whose series is a combination of the other states' series can be
eliminated without changing any remaining state series. State q's series
takes the value x[q] on each backward vector x = mu(w) . gamma, so one
backward closure (``equivalence.value_rows``) turns every reducedness
question into a question about the columns of its rows: one solve or one
feasibility problem per state, and none of them is ever repeated on a new
closure, since eliminating a state only drops its column. Over the field
the iteration bottoms out at the rank of the series, which is computed
independently from the pairing of the two one-sided closures.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .automata import LinearRepresentation, MultiplicityAutomaton
from .equivalence import combination_on_rows, value_rows
from .linalg import Matrix, SpanBasis, Vector, dot, rref, vec_mat


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
    rows = value_rows([rep])
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
        target_rank = _pairing_rank(rep, rows)
        if current.n_states != target_rank:
            raise ReductionStallError(
                f"elimination stopped at {current.n_states} states but the series "
                f"rank is {target_rank}")
    return current


def hankel_rank(a: MultiplicityAutomaton) -> int:
    """Dimension of the span of all shifted versions of the series.

    Computed as the rank of the pairing between the forward closure of the
    initial vector (under right letter action) and the backward closure of
    the final vector (under left letter action). This equals the dimension
    of every minimal presentation of the series over the field.
    """
    rep = a.to_linear_representation()
    return _pairing_rank(rep, value_rows([rep]))


def _pairing_rank(rep: LinearRepresentation, backward: list[Vector]) -> int:
    """Rank of the pairing between the forward closure of lam and given backward rows."""
    n = rep.dim
    if n == 0:
        return 0

    forward = []
    fspan = SpanBasis(n)
    stack = [rep.lam]
    while stack:
        v = stack.pop()
        if fspan.add(v):
            forward.append(v)
            stack.extend(vec_mat(v, rep.mu[x]) for x in rep.alphabet)

    if not forward or not backward:
        return 0
    pairing = Matrix([[dot(f, b) for b in backward] for f in forward], len(backward))
    _, pivots = rref(pairing)
    return len(pivots)
