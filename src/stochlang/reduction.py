"""State elimination, reducedness and the rank of the series.

A state whose series is a combination of the other states' series can be
eliminated without changing any remaining state series. State q's series
takes the value x[q] on each backward vector x = mu(w) . gamma, so one
backward closure (``equivalence._backward_closure``) turns every
reducedness question into a question about the columns of its integer
rows, and none of them is ever asked of a new closure, since eliminating a
state only drops its column. The columns
number at least the rows, and a state can be a combination of the others
only when its column lies in the support of the kernel of the rows: one
echelon form of the rows on the kept columns finds that support
(:func:`_dependent`). When the kept columns number the rows no state is a
combination. Over the field each state is one solve; over the cone only
the states in the support get a feasibility problem, and a state outside
it is no field combination, so no cone one either. Over the field the
iteration bottoms out at the rank of the series, which is computed
independently of any solve: the backward rows carry a representation of
the series on their own span, and the rank is the dimension of the
forward closure of its initial vector.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from .automata import LinearRepresentation, MultiplicityAutomaton
from .equivalence import _backward_closure, combination_on_rows
from .linalg import SpanBasis, _Action, _closure, _primitive


class ReductionMode(enum.Enum):
    """Coefficient domain for eliminations: the rationals or their nonnegative cone."""
    FIELD = "field"
    CONE = "cone"


class ReductionStallError(RuntimeError):
    """Field-mode elimination stopped above the series rank."""


def is_reduced(a: MultiplicityAutomaton, mode: ReductionMode) -> bool:
    """True iff no state's series is a mode-valid combination of the others'.

    State q's series takes the value x[q] on every backward vector x, so
    the question is about the columns of the integer rows of the backward
    span. Over the field they are independent iff there are as many rows as
    states; over the cone each state in the support of the kernel of the
    rows (:func:`_dependent`) is one feasibility problem on the other
    columns, and no other state can be a combination.
    """
    rows = _backward_closure([a.to_linear_representation()])[0].integer_rows
    n = a.n_states
    if mode is ReductionMode.FIELD or len(rows) == n:
        return len(rows) == n
    columns = list(range(n))
    return not any(combination_on_rows(rows, q, columns[:q] + columns[q + 1:],
                                       nonneg=True).expressible
                   for q in _dependent(rows, columns))


def _dependent(rows: list[list[int]], columns: list[int]) -> list[int]:
    """Positions of the columns in the support of the kernel of the rows on ``columns``.

    Column i is a combination of the other columns iff some c with
    R c = 0 has c_i != 0, R the rows restricted to ``columns``. In the
    reduced echelon form of R the kernel has one vector per free column f,
    1 at f and -row[f] / row[p] at each pivot p, so the support is the free
    columns and each pivot whose reduced row is nonzero at a free column. A
    reduced row vanishes at every other pivot, so that is a row with more
    than one nonzero entry.
    """
    span = SpanBasis(len(columns))
    for row in rows:
        span.add([row[j] for j in columns])
    return [i for i in range(len(columns)) if len(span._rows.get(i, ())) != 1]


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
    column. The rounds stop once the kept columns number the rows, since
    the columns are then independent. Otherwise each state is one solve
    (field), or, if its column is in the support of the kernel of the rows
    on the kept columns (:func:`_dependent`, once per round), one
    feasibility problem (cone); skipping the others changes neither the
    state removed nor its coefficients. In field mode the final state count
    must match the series rank; a mismatch raises
    :class:`ReductionStallError` instead of returning silently.
    """
    rep = a.to_linear_representation()
    span, actions = _backward_closure([rep])
    rows = span.integer_rows
    nonneg = mode is ReductionMode.CONE
    columns = list(range(a.n_states))
    current = a
    changed = True
    while changed and len(columns) > len(rows):
        changed = False
        for i in _dependent(rows, columns) if nonneg else range(len(columns)):
            outcome = combination_on_rows(rows, columns[i], columns[:i] + columns[i + 1:],
                                          nonneg)
            if outcome.expressible:
                kept = current.states[:i] + current.states[i + 1:]
                current = _eliminate(current, current.states[i],
                                     dict(zip(kept, outcome.coefficients)))
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
    backward rows of ``equivalence._backward_closure`` carry a representation of the same
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
