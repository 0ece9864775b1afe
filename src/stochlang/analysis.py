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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .automata import LinearRepresentation, MultiplicityAutomaton, replace_iota
from .linalg import (Matrix, Vector, dot, krylov_closure, linear_combination,
                     mat_vec, schur_stable)


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


def letter_sum_matrix(a: MultiplicityAutomaton) -> Matrix:
    """M[i, j] = total transition weight from state i to state j over all letters."""
    rep = a.to_linear_representation()
    n = rep.dim
    m = Matrix.zeros(n, n)
    for grid in rep.mu.values():
        m = m + grid
    return m


def _minimal_recurrence(terms: Sequence[Fraction]) -> list[Fraction]:
    """Berlekamp-Massey over Q: the shortest connection polynomial of a sequence.

    Returns C with C[0] = 1 and length L + 1 for the least L such that
    sum_j C[j] s_(k-j) = 0 for every L <= k < len(terms). When the sequence
    satisfies a recurrence of order at most len(terms) / 2, C is its unique
    minimal recurrence.
    """
    c = [Fraction(1)]
    b = [Fraction(1)]
    length = 0
    shift = 1
    b_disc = Fraction(1)
    for k, s_k in enumerate(terms):
        disc = s_k + sum(c[j] * terms[k - j] for j in range(1, min(len(c), k + 1)))
        if not disc:
            shift += 1
            continue
        f = disc / b_disc
        updated = c + [Fraction(0)] * max(0, len(b) + shift - len(c))
        for j, x in enumerate(b):
            updated[j + shift] -= f * x
        if 2 * length <= k:
            b, b_disc, length, shift = c, disc, k + 1 - length, 1
        else:
            shift += 1
        c = updated
    c = c[:length + 1]
    return c + [Fraction(0)] * (length + 1 - len(c))


def _gamma_powers(a: MultiplicityAutomaton) -> list[Vector]:
    """The 2n vectors M^k . gamma, k < 2n, of an n-state automaton.

    Every series that ``a``'s letter matrices and final vector start from
    some initial vector v, such as a residual or a state's series, has the
    length-summed terms v . M^k . gamma, so one table serves all their sums:
    each costs 2n dot products (see :func:`_series_sum`).
    """
    m = letter_sum_matrix(a)
    v = a.to_linear_representation().gamma
    powers = []
    for _ in range(2 * a.n_states):
        powers.append(v)
        v = mat_vec(m, v)
    return powers


def _series_sum(powers: Sequence[Vector], lam: Vector) -> SumOutcome:
    """Decide and evaluate sum_k lam . M^k . gamma from the table of M^k . gamma.

    The terms s_k satisfy a recurrence of order at most n (Cayley-Hamilton),
    so 2n of them determine the minimal one, with connection polynomial C of
    order L. The generating function is P(z) / C(z) in lowest terms, with
    P = (S C) mod z^L. The sum converges iff every characteristic root lies
    strictly inside the unit circle, that is iff z^L C(1/z) is Schur-stable,
    and then it equals P(1) / C(1).
    """
    terms = [dot(lam, v) for v in powers]
    c = _minimal_recurrence(terms)
    if not schur_stable(c[::-1]):
        return SumOutcome.divergent()
    order = len(c) - 1
    p_at_one = sum((c[j] * terms[k - j] for k in range(order) for j in range(k + 1)),
                   Fraction(0))
    return SumOutcome.converged(p_at_one / sum(c))


def total_sum(a: MultiplicityAutomaton) -> SumOutcome:
    """Convergence decision and exact value of the sum of the series over all words."""
    return _series_sum(_gamma_powers(a), a.to_linear_representation().lam)


def state_sums(a: MultiplicityAutomaton) -> dict[str, Fraction] | None:
    """Per-state series sums; None as soon as any state's sum diverges.

    The vectors M^k gamma obey the minimal polynomial mu of gamma under M, so
    every state's sum converges iff mu is Schur-stable. The sum vector
    (Id - M)^-1 gamma is then q(M) gamma with
    q(z) = (mu(1) - mu(z)) / (mu(1) (1 - z)), evaluated on the Krylov
    vectors; the coefficient of z^j in q is (mu_(j+1) + ... + mu_d) / mu(1).
    """
    rep = a.to_linear_representation()
    vecs, mu = krylov_closure(letter_sum_matrix(a), rep.gamma)
    if not schur_stable(mu):
        return None
    mu_at_one = sum(mu, Fraction(0))
    tails = list(accumulate(reversed(mu[1:])))[::-1]
    sums = linear_combination(vecs, [t / mu_at_one for t in tails], a.n_states)
    return dict(zip(a.states, sums))


def _mass(powers: Sequence[Vector], v: Vector) -> Fraction:
    """Sum of the series started by initial vector v, from its automaton's table
    of :func:`_gamma_powers`; ValueError when it diverges."""
    outcome = _series_sum(powers, v)
    if not outcome.converges:
        raise ValueError("prefix mass diverges")
    return outcome.value


def _residual_vector(rep: LinearRepresentation, powers: Sequence[Vector],
                     u: Sequence[str]) -> Vector:
    """Initial vector of the residual at u: lam . mu(u) divided by its mass.

    ValueError when that mass diverges or is zero.
    """
    v = rep.forward(rep.lam, u)
    mass = _mass(powers, v)
    if mass == 0:
        raise ValueError(f"prefix weight of {''.join(u) or 'the empty word'} is zero")
    return tuple(x / mass for x in v)


def prefix_weight(a: MultiplicityAutomaton, u: Sequence[str]) -> Fraction:
    """Total series mass of the words starting with u.

    Raises ValueError when the sum started by lam . mu(u) diverges.
    """
    rep = a.to_linear_representation()
    return _mass(_gamma_powers(a), rep.forward(rep.lam, u))


def residual_automaton(a: MultiplicityAutomaton, u: Sequence[str]) -> MultiplicityAutomaton:
    """Automaton for the residual series w -> value(u w) / prefix mass of u.

    Only the initial vector changes: it is pushed through mu(u) and divided
    by the prefix weight, which must be finite and nonzero. Other states'
    sums may diverge; only the sum started by that vector matters.
    """
    return replace_iota(a, _residual_vector(a.to_linear_representation(),
                                            _gamma_powers(a), u))
