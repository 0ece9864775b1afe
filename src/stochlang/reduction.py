"""State elimination, reducedness and the rank of the series.

A state whose series is a combination of the other states' series can be
eliminated without changing any remaining state series. State q's series
takes the value x[q] on each backward vector x = mu(w) . gamma, so one
backward closure (``equivalence._backward_closure``) turns every
reducedness question into a question about the columns of its integer
rows, and none of them is ever asked of a new closure, since eliminating a
state only drops its column. The columns number at least the rows; when
they number the rows no state is a combination. That closure runs on the
quotient of the automaton by its coarsest backward lumping, where states
with one final weight and one weight into each block share one
coordinate, and its rows come back expanded over all states, the same
rows the closure over all states finds; from
``equivalence.MODULAR_MIN_DIM`` dimensions of the quotient on it runs
mod a prime and is checked exactly.

Both modes read one reduced echelon form of the rows with the columns
taken in reverse (:func:`_echelon`). Over the field its pivots are the
states that removing the first combination state, again and again, keeps,
and its rows are the coefficients of the others: one elimination
(:func:`_eliminate`) builds the reduced automaton. Over the cone the order
of removals matters, and a state can be a combination only when its column
lies in the support of the kernel of the rows, which the same echelon form
shows (:func:`_dependent`): only those states get a feasibility problem.
A column outside the cone of some columns is outside the cone of every
subset of them, so a state found to be no combination stays none after
later removals: one scan in declared order (:func:`_cone_removals`) asks
each state once and makes the removals that restarting the scan after
each removal makes, with the same coefficients. Substituting each removed
state's coefficients into those of the states removed before it gives
every removed state over the final states, and again one elimination
builds the result. Over the field the result must have the rank of the
series, or :class:`ReductionStallError` is raised; the rank is computed
independently of any elimination.

The backward rows also carry the series itself. An initial vector starts
a series that depends only on its pairings with the rows, so the series
has a representation on their span V, with the pairing vector of lam as
initial vector and integer letter maps on V (:class:`_SpanRepresentation`,
built from the same closure). The rank is the dimension of the forward
closure of that initial vector, certified mod a prime from
``equivalence.MODULAR_MIN_DIM`` rows on, as the backward closure is, and
residual exploration (``constructions._Residuals``) holds each residual
as its pairing vector and steps it through the same maps. Only the rank, field reduction and
residual exploration build those maps; cone reduction and
:func:`is_reduced` read the rows alone.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator

from .automata import MultiplicityAutomaton, _from_pairs
from .equivalence import _backward_closure, _closed_span, combination_on_rows
from .linalg import SpanBasis, _Action, _push


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
    states. Over the cone the input is reduced iff the scan of
    :func:`_cone_removals` finds no first removal: each state in the
    support of the kernel of the rows (:func:`_dependent`) is one
    feasibility problem on the other columns, asked once, and no other
    state can be a combination.
    """
    rows = _backward_closure([a])[0].integer_rows
    if mode is ReductionMode.FIELD or len(rows) == a.n_states:
        return len(rows) == a.n_states
    return next(_cone_removals(rows, a.n_states), None) is None


def _echelon(rows: list[list[int]], n: int) -> dict[int, dict[int, int]]:
    """Reduced echelon form of the rows, their n columns inserted in reverse.

    The rows go into one :class:`SpanBasis` with column i at column
    n - 1 - i, and come back keyed by column: each pivot maps to its sparse
    primitive row. The pivots of a reduced echelon form are the greedy
    column basis from the left, so here they are the columns that the scan
    from the last column down keeps: those independent of the columns after
    them. Row operations keep every linear relation between columns, so a
    free column f is the combination of the pivot columns with coefficient
    row[f] / row[k] on pivot column k, row the reduced row with pivot k.
    """
    span = SpanBasis(n)
    for row in rows:
        span.add(row[::-1])
    return {n - 1 - p: {n - 1 - j: y for j, y in row.items()} for p, row in span._rows.items()}


def _dependent(rows: list[list[int]], n: int) -> list[int]:
    """The columns in the support of the kernel of the rows, of n columns.

    Column i is a combination of the other columns iff some c with
    R c = 0 has c_i != 0. In the reduced echelon form of R
    (:func:`_echelon`) the kernel has one vector per free column f, 1 at f
    and -row[f] / row[p] at each pivot p, so the support is the free
    columns and each pivot whose reduced row is nonzero at a free column. A
    reduced row vanishes at every other pivot, so that is a row with more
    than one nonzero entry.
    """
    echelon = _echelon(rows, n)
    return [i for i in range(n) if len(echelon.get(i, ())) != 1]


def _cone_removals(rows: list[list[int]], n: int) -> Iterator[tuple[int, dict[int, Fraction]]]:
    """The columns that cone reduction removes, in order, each with its
    nonzero coefficients over the columns kept at that point.

    The scan runs once, in column order, over the support of the kernel
    (:func:`_dependent`, computed once): any other column is no field
    combination of the rest, so no cone one either, and the kernel support
    of a subset of the columns lies inside that one. Each column is one
    feasibility problem on the columns still kept: one run of the
    phase-one simplex (``equivalence.combination_on_rows``), whose point
    gives the coefficients. A column outside the cone of those columns is
    outside the cone of every subset of them, so it would answer no again
    after later removals, and the scan yields exactly the removals,
    coefficients included, of a scan that restarts after each removal. It
    stops once the kept columns number the rows.
    """
    kept = list(range(n))
    for i in _dependent(rows, n):
        others = [j for j in kept if j != i]
        outcome = combination_on_rows(rows, i, others, nonneg=True)
        if outcome.expressible:
            kept = others
            yield i, {j: c for j, c in zip(others, outcome.coefficients) if c}
            if len(kept) == len(rows):
                return


def _eliminate(a: MultiplicityAutomaton, removed: dict[str, dict]) -> MultiplicityAutomaton:
    """The automaton on the states not in ``removed``, with every kept series unchanged.

    ``removed`` maps each removed state q to coefficients c over the kept
    states with series_q = sum_s c[s] series_s. An initial weight on q, and
    each transition from a kept state into q, then goes to every such s
    times c[s]; the final weight of q and the transitions leaving it go.
    Only the stored weight pairs are walked, never a grid of state pairs,
    and a Fraction is made only where a coefficient multiplies a weight;
    every other weight is kept as its pair.
    """
    keep = [s for s in a.states if s not in removed]

    def feed(weights: dict, key, c, pair: tuple[int, int]) -> None:
        """Add c times the weight pair to ``weights[key]``, as a pair."""
        if c != 1 or key in weights:
            pair = (c * Fraction(*pair) + Fraction(*weights.get(key, (0, 1)))).as_integer_ratio()
        weights[key] = pair

    iota = {s: a._iota.get(s, (0, 1)) for s in keep}
    for q, pair in a._iota.items():
        for s, c in removed.get(q, {}).items():
            feed(iota, s, c, pair)
    phi: dict[tuple[str, str, str], tuple[int, int]] = {}
    for (r, x, t), pair in a._phi.items():
        if r not in removed:
            for s, c in removed[t].items() if t in removed else ((t, 1),):
                feed(phi, (r, x, s), c, pair)
    return _from_pairs(a.alphabet, keep, iota,
                       {s: a._tau[s] for s in keep if s in a._tau}, phi)


def reduce(a: MultiplicityAutomaton, mode: ReductionMode) -> MultiplicityAutomaton:
    """Eliminate combination states until none remains; the series is preserved.

    States are examined in declared order, and the result is that of
    removing the first reducible state again and again; the input itself
    is returned when none is. The backward rows of the input are built
    once: elimination leaves every kept state's series unchanged, so
    removing a state only drops its column, and no state is removed once
    the kept columns number the rows. One elimination
    (:func:`_eliminate`) builds the result in either mode.

    Over the field the first removable state is a combination of later
    columns alone, since every earlier column is in no dependency, so the
    states kept are those that the scan from the last state down keeps:
    the pivots of one reduced echelon form of the rows on the reversed
    columns (:func:`_echelon`). Its rows give each removed state as a
    combination of the kept ones. The kept series are independent, so the
    weights of the reduced automaton are unique. The kept states must
    number the series rank; a mismatch raises :class:`ReductionStallError`
    instead of returning silently.

    Over the cone the order of removals matters. A state that is no
    nonnegative combination of the states kept is none of any subset of
    them, so one scan (:func:`_cone_removals`) asks each state in the
    support of the kernel of the rows once and finds the removals in
    order, each over the states kept at that point. Substituting each
    removal's coefficients into those of the removals before it gives every
    removed state over the final states.
    """
    closure = _backward_closure([a])
    rows, n = closure[0].integer_rows, a.n_states
    if mode is ReductionMode.FIELD and len(rows) != (
            rank := _SpanRepresentation(a, *closure).rank()):
        raise ReductionStallError(
            f"elimination stopped at {len(rows)} states but the series rank is {rank}")
    if len(rows) == n:
        return a
    if mode is ReductionMode.FIELD:
        echelon = _echelon(rows, n)
        removed = {q: {a.states[k]: Fraction(row[i], row[k]) for k, row in echelon.items()
                       if i in row} for i, q in enumerate(a.states) if i not in echelon}
    else:
        removed = {}
        for i, coeffs in reversed(list(_cone_removals(rows, n))):
            removed[a.states[i]] = combined = {}
            for j, c in coeffs.items():
                for s, d in removed.get(a.states[j], {a.states[j]: 1}).items():
                    combined[s] = combined.get(s, 0) + c * d
        if not removed:
            return a
    return _eliminate(a, removed)


def hankel_rank(a: MultiplicityAutomaton) -> int:
    """Dimension of the span of all shifted versions of the series.

    Reduces the representation from both sides (Schützenberger): the
    backward rows of ``equivalence._backward_closure`` carry a representation of the same
    series on their span (:class:`_SpanRepresentation`), in which every
    coordinate vector is reached from gamma; the dimension of the forward
    closure of its initial vector is then the rank. This equals the
    dimension of every minimal presentation of the series over the field.
    No pairing matrix is built and no elimination beyond the two span
    closures runs. From ``equivalence.MODULAR_MIN_DIM`` dimensions on,
    each closure runs mod a prime (``linalg._certified_closure``) and
    stops once it holds a row per dimension; below full rank its rows are
    checked exactly, and the exact closure answers when the check fails.
    """
    return _SpanRepresentation(a, *_backward_closure([a])).rank()


class _SpanRepresentation:
    """The series of an automaton on the span V of its backward vectors.

    Built from one ``equivalence._backward_closure`` of the automaton
    alone: its echelon rows b_k span every mu(w) . gamma, a space closed
    under y -> mu(x) . y, and each is a primitive integer vector, positive
    at its pivot p_k where the other rows vanish, so a vector y of V is
    sum_k y[p_k] / b_k[p_k] b_k. An initial vector v starts the series
    w -> v . mu(w) . gamma, which its pairings v . b_k determine, and
    distinct pairing vectors start distinct series. As
    mu(x) . b_i = sum_k A_x[i][k] b_k with
    A_x[i][k] = (mu(x) . b_i)[p_k] / b_k[p_k], the pairings of v mu(x) are
    A_x applied to those of v, so on V the series has the initial vector
    of the pairings of lam and the letter maps A_x, and every coordinate
    vector is reached from gamma's.

    The closure's integer maps s mu(x), those of the automaton's integer
    form (``automata._IntegerForm``), and the least common multiple c
    (``lcm``) of the pivot entries scale every A_x alike: ``actions`` hold
    the integer maps s c A_x, one per letter in alphabet order, stored per
    input coordinate as ``linalg._closure`` takes them, and ``scale`` is
    s c. Row i of A_x is read off the image of b_i, which costs the row's
    nonzero entries times their column degrees. ``weights`` maps each pivot
    p_k to c / b_k[p_k], so the coordinates of y in V on the rows, times
    c, are the integers weights[p_k] y[p_k]. ``start`` is the coprime
    vector of the pairings of lam, paired from the form's coprime iota, and
    ``start_factor`` the positive f with lam . b_k = f start[k]. No mass
    is held: a caller that needs masses reads its own sum table at the
    pivots.
    """

    def __init__(self, a: MultiplicityAutomaton, span: SpanBasis,
                 actions: list[_Action], scale: int):
        self.rows = list(span._rows.values())
        self.lcm = lcm(*(b[p] for p, b in span._rows.items()))
        self.weights = {p: self.lcm // b[p] for p, b in span._rows.items()}
        self.scale = scale * self.lcm
        index = {p: k for k, p in enumerate(span._rows)}
        self.actions = []
        for action in actions:
            columns: _Action = [[] for _ in self.rows]
            for i, b in enumerate(self.rows):
                for p, y in _push(action, b).items():
                    if p in index:
                        columns[index[p]].append((i, self.weights[p] * y))
            self.actions.append(columns)
        form = a._integer_form()
        lam, factor = form.iota, form.iota_factor
        pairings = [sum([lam[j] * y for j, y in b.items()]) for b in self.rows]
        g = gcd(*pairings) or 1
        self.start = [x // g for x in pairings]
        self.start_factor = factor * g

    def rank(self) -> int:
        """The rank of the series: the dimension of the closure of its
        initial vector under the maps.

        The closure goes through ``equivalence._closed_span``, mod a prime
        and certified from ``equivalence.MODULAR_MIN_DIM`` rows of the span
        on, exact below; only its dimension is read.
        """
        return _closed_span(len(self.rows), self.start, self.actions).dimension
