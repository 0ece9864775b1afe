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
every other input.

The kernel runs on integers and makes one Fraction per answer. With
A = s M integral and iota, tau scaled to primitive integer vectors l and
g, all read off the automaton's integer form (``automata._IntegerForm``),
the terms are s_k = f u_k / s^k with integer u_k = l . A^k . g and one
rational factor f. A recurrence of u is one of s_k with its j-th
coefficient divided by s^j, so Berlekamp-Massey runs on u, fraction-free:
each step cross-multiplies by the earlier discrepancy and divides out the
content. The characteristic polynomial, the Schur-Cohn test
(:func:`~stochlang.linalg._schur_cohn`) and the value P(1) / C(1) follow in
integers. One table of the vectors A^k g per call serves every series
that shares M and tau, such as the residuals of one automaton, and the
state sums, which read the minimal polynomial of g under A off its first
n + 1 vectors and need no other closure or solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Sequence

from .automata import MultiplicityAutomaton, format_word, replace_iota
from .linalg import (Vector, _minimal_polynomial, _powers, _primitive_with_factor,
                     _schur_cohn, schur_stable)


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


def _sum_table(a: MultiplicityAutomaton) -> _SumTable:
    """The table of an automaton, read off its integer form: the
    letter-summed map A with its scale, and tau as the coprime g with its
    factor (``automata._IntegerForm``)."""
    form = a._integer_form()
    action, scale = form.summed
    return _SumTable(_powers(action, form.tau, 2 * a.n_states), scale, form.tau_factor)


def _series_sum(table: _SumTable, w: Sequence[int], f: Fraction) -> SumOutcome:
    """Decide and evaluate sum_k lam . M^k . gamma from the table of A^k g,
    for lam = f w with w an integer vector.

    The terms s_k = f u_k / s^k satisfy a recurrence of order at most n
    (Cayley-Hamilton), so 2n of them determine the minimal one; with c the
    integer recurrence of u and order L, the connection polynomial of s is
    C(z) = sum_j c_j (z / s)^j / c_0. The generating function is
    P(z) / C(z) in lowest terms, with P = (S C) mod z^L. The sum converges
    iff every characteristic root lies strictly inside the unit circle, that
    is iff z^L C(1/z), which is proportional to sum_j c_j s^(L-j) z^(L-j),
    is Schur-stable, and then it equals P(1) / C(1), which is
    f s E / sum_j c_j s^(L-j) with E = sum_(k<L) s^(L-1-k) sum_(j<=k) c_j u_(k-j).
    """
    support = [(i, x) for i, x in enumerate(w) if x]
    terms = [sum([x * p[i] for i, x in support]) for p in table.powers]
    c = _minimal_recurrence(terms)
    order = len(c) - 1
    s = table.scale
    char = []
    power = 1
    for j in reversed(range(order + 1)):
        char.append(c[j] * power)
        power *= s
    if not _schur_cohn(char):
        return SumOutcome.divergent()
    numerator = 0
    for k in range(order):
        numerator = numerator * s + sum([c[j] * terms[k - j] for j in range(k + 1)])
    return SumOutcome.converged(f * table.factor * Fraction(numerator * s, sum(char)))


def total_sum(a: MultiplicityAutomaton) -> SumOutcome:
    """Convergence decision and exact value of the sum of the series over all words.

    With unit state sums (``automata._IntegerForm.unit_sums``), as on every
    PA, the sum is that of the initial weights; otherwise it is read off
    the :func:`_sum_table` by :func:`_series_sum`.
    """
    form = a._integer_form()
    if form.unit_sums:
        return SumOutcome.converged(form.iota_factor * sum(form.iota))
    return _series_sum(_sum_table(a), form.iota, form.iota_factor)


def state_sums(a: MultiplicityAutomaton) -> dict[str, Fraction] | None:
    """Per-state series sums; None as soon as any state's sum diverges.

    Every sum is 1 with unit state sums (``automata._IntegerForm.unit_sums``).
    Otherwise the vectors M^k gamma obey the minimal polynomial mu of gamma
    under M, so every state's sum converges iff mu is Schur-stable; see
    :func:`_state_sum_vector`, which reads mu off the :func:`_sum_table`.
    """
    if a._integer_form().unit_sums:
        return dict.fromkeys(a.states, Fraction(1))
    sums = _state_sum_vector(_sum_table(a), a.n_states)
    if sums is None:
        return None
    vector, unit = sums
    return {q: unit * x for q, x in zip(a.states, vector)}


def _state_sum_vector(table: _SumTable, n: int) -> tuple[list[int], Fraction] | None:
    """The state-sum vector (Id - M)^-1 gamma of an n-state automaton as r S,
    S a coprime integer vector and r > 0, from its :func:`_sum_table`.

    None unless the minimal polynomial mu of gamma under M, read off the
    first n + 1 vectors A^k g, is Schur-stable. Then the sum vector is
    q(M) gamma with q(z) = (mu(1) - mu(z)) / (mu(1) (1 - z)); the coefficient
    of z^j in q is (mu_(j+1) + ... + mu_d) / mu(1), and M^j gamma = f A^j g / s^j.
    The weights t_j / s^j of the A^j g are scaled to integers by one common
    denominator, so S comes from integer products only. mu(1) is positive
    for a Schur-stable monic real polynomial, and so is r.
    """
    mu = _minimal_polynomial(table.powers[:n + 1], table.scale)
    if not schur_stable(mu):
        return None
    tails = list(accumulate(reversed(mu[1:])))[::-1]
    weights = [t / table.scale ** j for j, t in enumerate(tails)]
    denominator = lcm(*(w.denominator for w in weights))
    coeffs = [w.numerator * (denominator // w.denominator) for w in weights]
    raw = [sum([c * p[i] for c, p in zip(coeffs, table.powers)]) for i in range(n)]
    g = gcd(*raw) or 1
    unit = table.factor * g / (sum(mu, Fraction(0)) * denominator)
    return [x // g for x in raw], unit


def _mass(table: _SumTable, v: Vector | Sequence[int]) -> Fraction:
    """Sum of the series started by initial vector v, from its automaton's
    :func:`_sum_table`; ValueError when it diverges."""
    outcome = _series_sum(table, *_primitive_with_factor(v))
    if not outcome.converges:
        raise ValueError("prefix mass diverges")
    return outcome.value


def _pushed_mass(a: MultiplicityAutomaton, w: Sequence[int]) -> Fraction:
    """Sum of the series of ``a`` started by the integer vector w: the sum
    of w's entries with unit state sums, else :func:`_mass` on the
    :func:`_sum_table`; ValueError when it diverges."""
    if a._integer_form().unit_sums:
        return Fraction(sum(w))
    return _mass(_sum_table(a), w)


def prefix_weight(a: MultiplicityAutomaton, u: Sequence[str]) -> Fraction:
    """Total series mass of the words starting with u.

    Raises ValueError when the sum started by lam . mu(u) diverges. The
    vector lam . mu(u) = c w is pushed in integers (``automata._IntegerForm``),
    and the mass is c times that of w: c times the sum of w's entries with
    unit state sums (``automata._IntegerForm.unit_sums``), else read off
    the :func:`_sum_table`.
    """
    w, c = a._integer_form().forward(u)
    return c * _pushed_mass(a, w)


def residual_automaton(a: MultiplicityAutomaton, u: Sequence[str]) -> MultiplicityAutomaton:
    """Automaton for the residual series w -> value(u w) / prefix mass of u.

    Only the initial vector changes: it is pushed through mu(u) and divided
    by the prefix weight, which must be finite and nonzero. Other states'
    sums may diverge; only the sum started by that vector matters. That
    vector is c w for an integer vector w pushed through the integer form
    (``automata._IntegerForm``), and c cancels: the new initial vector is
    w over the mass of w, the sum of its entries with unit state sums
    (``automata._IntegerForm.unit_sums``), else read off the
    :func:`_sum_table`.
    """
    w, _ = a._integer_form().forward(u)
    mass = _pushed_mass(a, w)
    if mass == 0:
        spelled = format_word(u, a.alphabet) if u else "the empty word"
        raise ValueError(f"prefix weight of {spelled} is zero")
    return replace_iota(a, tuple(x / mass for x in w))
