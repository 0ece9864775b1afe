"""State elimination, reducedness and the rank of the series.

A state whose series is a combination of the other states' series can be
eliminated without changing any remaining state series. State q's series
takes the value x[q] on each backward vector x = mu(w) . gamma, so one
backward closure (``equivalence._backward_closure``) turns every
reducedness question into a question about the columns of its integer
rows, and none of them is ever asked of a new closure, since eliminating a
state only drops its column. The columns number at least the rows; when
they number the rows no state is a combination.

Both modes read one reduced echelon form of the rows with the columns
taken in reverse (:func:`_echelon`). Over the field its pivots are the
states that eliminating the first combination state, round after round,
keeps, and its rows are the coefficients of the others: one elimination
(:func:`_eliminate`) builds the reduced automaton. Over the cone the order
of removals matters, and a state can be a combination only when its column
lies in the support of the kernel of the rows, which the same echelon form
shows (:func:`_dependent`): only those states get a feasibility problem,
round after round. Over the field the result must have the rank of the
series, or :class:`ReductionStallError` is raised; the rank is computed
independently of any elimination: the backward rows carry a
representation of the series on their own span, and the rank is the
dimension of the forward closure of its initial vector.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import lcm

from .automata import LinearRepresentation, MultiplicityAutomaton
from .equivalence import _backward_closure, combination_on_rows
from .linalg import SpanBasis, _Action, _closure, _primitive, _push


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
    if mode is ReductionMode.FIELD or len(rows) == a.n_states:
        return len(rows) == a.n_states
    return _cone_step(rows, list(range(a.n_states))) is None


def _echelon(rows: list[list[int]], columns: list[int]) -> dict[int, dict[int, int]]:
    """Reduced echelon rows of the rows on ``columns``, the columns inserted in reverse.

    The rows go into one :class:`SpanBasis` with position i of ``columns``
    at column m - 1 - i, m = len(columns), and come back keyed by position:
    each pivot maps to its sparse primitive row. The pivots of a reduced
    echelon form are the greedy column basis from the left, so here they
    are the positions that the scan from the last position down keeps:
    those whose column is independent of the columns after it. Row
    operations keep every linear relation between columns, so the column
    at a free position f is the combination of the pivot columns with
    coefficient row[f] / row[k] on the column at pivot k, row the reduced
    row with pivot k.
    """
    m = len(columns)
    span = SpanBasis(m)
    for row in rows:
        span.add([row[j] for j in reversed(columns)])
    return {m - 1 - p: {m - 1 - j: y for j, y in row.items()} for p, row in span._rows.items()}


def _dependent(rows: list[list[int]], columns: list[int]) -> list[int]:
    """Positions of the columns in the support of the kernel of the rows on ``columns``.

    Column i is a combination of the other columns iff some c with
    R c = 0 has c_i != 0, R the rows restricted to ``columns``. In the
    reduced echelon form of R (:func:`_echelon`) the kernel has one vector
    per free column f, 1 at f and -row[f] / row[p] at each pivot p, so the
    support is the free columns and each pivot whose reduced row is nonzero
    at a free column. A reduced row vanishes at every other pivot, so that
    is a row with more than one nonzero entry.
    """
    echelon = _echelon(rows, columns)
    return [i for i in range(len(columns)) if len(echelon.get(i, ())) != 1]


def _cone_step(rows: list[list[int]], columns: list[int]) -> tuple[int, tuple] | None:
    """The first position in ``columns`` whose column is a nonnegative
    combination of the others, with the coefficients, or None.

    Only the positions in the support of the kernel (:func:`_dependent`)
    get a feasibility problem: any other column is no field combination of
    the rest, so no cone one either.
    """
    for i in _dependent(rows, columns):
        outcome = combination_on_rows(rows, columns[i], columns[:i] + columns[i + 1:],
                                      nonneg=True)
        if outcome.expressible:
            return i, outcome.coefficients
    return None


def _eliminate(a: MultiplicityAutomaton, removed: dict[str, dict]) -> MultiplicityAutomaton:
    """The automaton on the states not in ``removed``, with every kept series unchanged.

    ``removed`` maps each removed state q to coefficients c over the kept
    states with series_q = sum_s c[s] series_s. An initial weight on q, and
    each transition of ``phi`` from a kept state into q, then goes to every
    such s times c[s]; the final weight of q and the transitions leaving it
    go. Only the entries of ``phi`` are walked, never a grid of state pairs.
    """
    keep = [s for s in a.states if s not in removed]
    iota = {s: a.iota_weight(s) + sum([removed[q].get(s, 0) * w for q, w in a.iota.items()
                                       if q in removed]) for s in keep}
    phi: dict[tuple[str, str, str], Fraction] = {}
    for (r, x, t), w in a.phi.items():
        if r not in removed:
            for s, c in removed[t].items() if t in removed else ((t, 1),):
                phi[(r, x, s)] = phi.get((r, x, s), 0) + c * w
    return MultiplicityAutomaton(a.alphabet, keep, iota,
                                 {s: a.tau_weight(s) for s in keep}, phi)


def reduce(a: MultiplicityAutomaton, mode: ReductionMode) -> MultiplicityAutomaton:
    """Eliminate combination states until none remains; the series is preserved.

    States are examined in declared order and the first reducible one is
    removed each round; the input itself is returned when none is. The
    backward rows of the input are built once: elimination leaves every
    kept state's series unchanged, so removing a state only drops its
    column, and the rounds stop once the kept columns number the rows.

    Over the field the rounds need not run. The first removable state is a
    combination of later columns alone, since every earlier column is in no
    dependency, so the states kept are those that the scan from the last
    state down keeps: the pivots of one reduced echelon form of the rows on
    the reversed columns (:func:`_echelon`). Its rows give each removed
    state as a combination of the kept ones. The kept series are
    independent, so the weights of the reduced automaton are unique, and
    one elimination (:func:`_eliminate`) builds it. The kept states must
    number the series rank; a mismatch raises :class:`ReductionStallError`
    instead of returning silently.

    Over the cone the order of removals matters, so each round removes the
    first state in the support of the kernel of the rows on the kept
    columns (:func:`_dependent`) whose feasibility problem has a solution.
    """
    rep = a.to_linear_representation()
    span, actions = _backward_closure([rep])
    rows = span.integer_rows
    columns = list(range(a.n_states))
    if mode is ReductionMode.CONE:
        while len(columns) > len(rows) and (step := _cone_step(rows, columns)):
            i, coeffs = step
            kept = a.states[:i] + a.states[i + 1:]
            a = _eliminate(a, {a.states[i]: dict(zip(kept, coeffs))})
            del columns[i]
        return a
    target_rank = _pairing_rank(rep, span, actions)
    if len(rows) != target_rank:
        raise ReductionStallError(
            f"elimination stopped at {len(rows)} states but the series rank is {target_rank}")
    if len(rows) == len(columns):
        return a
    echelon = _echelon(rows, columns)
    return _eliminate(a, {q: {a.states[k]: Fraction(row[i], row[k])
                              for k, row in echelon.items() if i in row}
                          for i, q in enumerate(a.states) if i not in echelon})


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
    runs on integers. Row i of A_x is read off the image of b_i, which
    costs the row's nonzero entries times their column degrees, and each
    A_x is stored per input coordinate k, as ``linalg._closure`` takes it.
    """
    index = {p: k for k, p in enumerate(backward._rows)}
    rows = list(backward._rows.values())
    scale = lcm(*(b[p] for p, b in backward._rows.items()))
    weights = [scale // b[p] for p, b in backward._rows.items()]
    pivot_actions = []
    for action in actions:
        columns: _Action = [[] for _ in rows]
        for i, b in enumerate(rows):
            for p, y in _push(action, b).items():
                k = index.get(p)
                if k is not None:
                    columns[k].append((i, weights[k] * y))
        pivot_actions.append(columns)
    lam = _primitive(rep.lam)
    start = [sum([lam[j] * y for j, y in b.items()]) for b in rows]
    return sum(1 for _ in _closure(SpanBasis(len(rows)), start, pivot_actions))
