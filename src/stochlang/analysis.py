"""Series sums, prefix weights and residual automata.

The central decision is whether the sum of a rational series over all words
converges, and if so what its exact value is. Everything reduces to the
letter-summed transition matrix M: the sum over words of length k equals
s_k = iota . M^k . tau. That scalar sequence obeys a linear recurrence of
order at most n, found exactly by Berlekamp-Massey from 2n terms; the sum
converges iff the recurrence's characteristic roots lie strictly inside the
unit circle, which the Schur-Cohn recursion decides without computing a
root. Directions of M that the initial vector never observes, or that the
final vector never feeds, never enter the minimal recurrence, so they do
not count against convergence.

Most inputs need no kernel. When every transition and final weight is
nonnegative, every state's leaving mass is exactly 1 and every state
reaches a nonzero final weight, as on every PA, then tau = (Id - M) 1, the
partial sums telescope to 1 - M^K 1, which tends to 0, and every state's
sum is 1 (``automata._IntegerForm.unit_sums``). On these inputs the total
is the sum of the initial weights and the mass of any initial vector the
sum of its entries, and no sum table is built; the kernel below runs on
every other input. :func:`_sum_table` is the one place that makes this
choice: it returns None on unit state sums and the table otherwise, and
its two readers, :func:`_series_sum` for the sum started by one vector and
:func:`_state_sum_vector` for every state's sum, take None as unit state
sums, so no caller has a path of its own. A new source of sums goes there.

The kernel runs on integers and makes one Fraction per answer. With
A = s M integral and iota, tau scaled to primitive integer vectors l and
g, all read off the automaton's integer form (``automata._IntegerForm``),
the terms are s_k = f u_k / s^k with integer u_k = l . A^k . g and one
rational factor f. A recurrence of u is one of s_k with its j-th
coefficient divided by s^j, so Berlekamp-Massey runs on u, fraction-free:
each step cross-multiplies by the earlier discrepancy and divides out the
content. One table of the vectors A^k g per call serves every series
that shares M and tau, such as the residuals of one automaton, and the
state sums, which read the minimal polynomial of g under A off its first
n + 1 vectors as an integer connection polynomial
(``linalg._minimal_polynomial``) and need no other closure or solve. Both
readers then take one integer evaluation
(:func:`~stochlang.linalg._sum_weights`): the Schur-Cohn test of the
characteristic polynomial, and integer weights from one Horner pass that
sum the scalar terms or the vectors A^k g alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .automata import MultiplicityAutomaton, format_word, replace_iota
from .linalg import _minimal_polynomial, _powers, _sum_weights


@dataclass(frozen=True)
class SumOutcome:
    """Either divergent, or convergent with the exact value of the sum."""
    converges: bool
    value: Fraction | None = None

    @staticmethod
    def divergent() -> "SumOutcome":
        return SumOutcome(False, None)

    @staticmethod
    def converged(value: Fraction) -> "SumOutcome":
        return SumOutcome(True, value)


def _minimal_recurrence(terms: Sequence[int]) -> list[int]:
    """Fraction-free Berlekamp-Massey: a shortest connection polynomial of a sequence.

    Returns integer coefficients c, coprime, with c[0] nonzero and length
    L + 1 for the least L such that sum_j c[j] u_(k-j) = 0 for every
    L <= k < len(terms). When the sequence satisfies a recurrence of order
    at most len(terms) / 2, c / c[0] is its unique minimal recurrence.
    Each of c and b is a nonzero multiple of its counterpart over Q, and
    each discrepancy is the same multiple of the one over Q, so the update
    b_disc c - disc z^shift b is a nonzero multiple of the update over Q.
    """
    c = [1]
    b = [1]
    length = 0
    shift = 1
    b_disc = 1
    for k in range(len(terms)):
        disc = sum([c[j] * terms[k - j] for j in range(min(len(c), k + 1))])
        if not disc:
            shift += 1
            continue
        updated = [b_disc * x for x in c] + [0] * max(0, len(b) + shift - len(c))
        for j, x in enumerate(b):
            updated[j + shift] -= disc * x
        g = gcd(*updated)
        if g > 1:
            updated = [x // g for x in updated]
        if 2 * length <= k:
            b, b_disc, length, shift = c, disc, k + 1 - length, 1
        else:
            shift += 1
        c = updated
    c = c[:length + 1]
    return c + [0] * (length + 1 - len(c))


@dataclass(frozen=True)
class _SumTable:
    """The integer vectors A^k g, k < 2n, of an n-state automaton.

    A = scale M is the integer letter-summed matrix and gamma = factor g,
    with g primitive. Every series that the automaton's letter matrices and
    final vector start from some initial vector v, such as a residual or a
    state's series, has the terms v . M^k . gamma, so one table serves all
    their sums (see :func:`_series_sum`).
    """
    powers: list[list[int]]
    scale: int
    factor: Fraction


def _sum_table(a: MultiplicityAutomaton) -> _SumTable | None:
    """The source of every sum of an automaton: None with unit state sums
    (``automata._IntegerForm.unit_sums``), where every state's sum is 1,
    else its table, read off its integer form: the letter-summed map A with
    its scale, and tau as the coprime g with its factor
    (``automata._IntegerForm``).

    Every reader (:func:`_series_sum`, :func:`_state_sum_vector`,
    :func:`_mass`) takes what this returns, so no caller picks a path, and
    a new source of sums goes here.
    """
    form = a._integer_form()
    if form.unit_sums:
        return None
    action, scale = form.summed
    return _SumTable(_powers(action, form.tau, 2 * a.n_states), scale, form.tau_factor)


def _series_sum(table: _SumTable | None, w: Sequence[int], f: Fraction) -> SumOutcome:
    """Decide and evaluate sum_k lam . M^k . gamma from the :func:`_sum_table`,
    for lam = f w with w an integer vector.

    With no table every state's sum is 1, and the sum is f times the sum of
    w's entries. Otherwise w is first divided by its content e, so that the
    terms stay small, and the terms s_k = f e u_k / s^k, with integer
    u_k = (w / e) . A^k g, satisfy a recurrence of order at most n
    (Cayley-Hamilton), so 2n of them determine the minimal one, and
    Berlekamp-Massey finds its integer connection polynomial c. The
    generating function is then P(z) / C(z) in lowest terms, so the sum
    converges iff C's characteristic polynomial is Schur-stable, and the
    integer weights of :func:`~stochlang.linalg._sum_weights` evaluate it.
    """
    if table is None:
        return SumOutcome.converged(f * sum(w))
    e = gcd(*w) or 1
    support = [(i, x // e) for i, x in enumerate(w) if x]
    terms = [sum([x * p[i] for i, x in support]) for p in table.powers]
    evaluation = _sum_weights(_minimal_recurrence(terms), table.scale)
    if evaluation is None:
        return SumOutcome.divergent()
    weights, denominator = evaluation
    numerator = sum([x * u for x, u in zip(weights, terms)])
    return SumOutcome.converged(f * e * table.factor * Fraction(numerator, denominator))


def total_sum(a: MultiplicityAutomaton) -> SumOutcome:
    """Convergence decision and exact value of the sum of the series over all words,
    read off the :func:`_sum_table` by :func:`_series_sum`."""
    form = a._integer_form()
    return _series_sum(_sum_table(a), form.iota, form.iota_factor)


def state_sums(a: MultiplicityAutomaton) -> dict[str, Fraction] | None:
    """Per-state series sums; None as soon as any state's sum diverges.

    Every sum is 1 with unit state sums. Otherwise the vectors M^k gamma
    obey the minimal polynomial mu of gamma under M, so every state's sum
    converges iff mu is Schur-stable; see :func:`_state_sum_vector`, which
    reads mu off the :func:`_sum_table`. One Fraction is made per distinct
    entry of the integer vector, so states with equal sums, such as all
    of them with unit state sums, share it.
    """
    sums = _state_sum_vector(_sum_table(a), range(a.n_states))
    if sums is None:
        return None
    vector, unit = sums
    values = {x: unit * x for x in set(vector)}
    return {q: values[x] for q, x in zip(a.states, vector)}


def _state_sum_vector(table: _SumTable | None, coordinates: Sequence[int]
                      ) -> tuple[list[int], Fraction] | None:
    """The state-sum vector (Id - M)^-1 gamma of an automaton at the given
    state coordinates, as r S, S a coprime integer vector and r > 0, from
    its :func:`_sum_table`.

    With no table it is the all-ones vector with r = 1. Otherwise the
    vectors A^k g are read at the coordinates, which must determine every
    one of them: all of the states for ``state_sums``, the pivots of the
    backward span for residual exploration (``constructions._Residuals``).
    The result is None unless the minimal polynomial mu of gamma under M,
    read off the first d + 1 such vectors, d the number of coordinates, as
    the integer connection polynomial c of the Krylov vectors
    (``linalg._minimal_polynomial``), is Schur-stable. The vectors
    M^k gamma = f A^k g / s^k obey c, so the integer weights W and
    denominator D of :func:`~stochlang.linalg._sum_weights`, the same
    evaluation as :func:`_series_sum`'s, give the sum as f times
    sum_i W_i A^i g / D, from integer products only. c[0] > 0, so D > 0,
    and so is r.
    """
    if table is None:
        return [1] * len(coordinates), Fraction(1)
    powers = [[p[i] for i in coordinates] for p in table.powers[:len(coordinates) + 1]]
    evaluation = _sum_weights(_minimal_polynomial(powers), table.scale)
    if evaluation is None:
        return None
    weights, denominator = evaluation
    raw = [sum([x * p[i] for x, p in zip(weights, powers)]) for i in range(len(coordinates))]
    g = gcd(*raw) or 1
    return [x // g for x in raw], table.factor * g / denominator


def _mass(table: _SumTable | None, w: Sequence[int]) -> Fraction:
    """Sum of the series started by the integer initial vector w, from its
    automaton's :func:`_sum_table`; ValueError when it diverges."""
    outcome = _series_sum(table, w, Fraction(1))
    if not outcome.converges:
        raise ValueError("prefix mass diverges")
    return outcome.value


def prefix_weight(a: MultiplicityAutomaton, u: Sequence[str]) -> Fraction:
    """Total series mass of the words starting with u.

    Raises ValueError when the sum started by lam . mu(u) diverges. The
    vector lam . mu(u) = c w is pushed in integers (``automata._IntegerForm``),
    and the mass is c times that of w, read off the :func:`_sum_table`.
    """
    w, c = a._integer_form().forward(u)
    return c * _mass(_sum_table(a), w)


def residual_automaton(a: MultiplicityAutomaton, u: Sequence[str]) -> MultiplicityAutomaton:
    """Automaton for the residual series w -> value(u w) / prefix mass of u.

    Only the initial vector changes: it is pushed through mu(u) and divided
    by the prefix weight, which must be finite and nonzero. Other states'
    sums may diverge; only the sum started by that vector matters. That
    vector is c w for an integer vector w pushed through the integer form
    (``automata._IntegerForm``), and c cancels: the new initial vector is
    w over the mass of w, read off the :func:`_sum_table`.
    """
    w, _ = a._integer_form().forward(u)
    mass = _mass(_sum_table(a), w)
    if mass == 0:
        spelled = format_word(u, a.alphabet) if u else "the empty word"
        raise ValueError(f"prefix weight of {spelled} is zero")
    return replace_iota(a, tuple(x / mass for x in w))
