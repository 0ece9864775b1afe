"""Constructive normal forms: PA synthesis, determinization, prefixial form.

These operations turn semantic facts about a series (membership in a convex
stable family, finitely many residuals, residual witnesses per state) into
concrete probabilistic automata, discovering all coefficients by exact
solving. Failures are honest: a returned None means the required nonnegative
coefficients do not exist at this level, and a bound report means the search
was cut off, never that the answer is known to be negative.

Every residual of a series, and every letter shift of one, is the input's
own linear representation with another initial vector. One backward
closure of that representation (:func:`~stochlang.equivalence.value_rows`)
therefore serves every residual question of one call: a residual becomes
the tuple of its values on those rows, equal tuples mean equal series, and
a combination question between residuals is one exact solve on a table of
such values. Their masses share M and gamma too: one integer table of the
vectors A^k g per call (``analysis._sum_table``) turns each prefix mass into
2n integer dot products and one fraction-free recurrence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .analysis import (_mass, _residual_vector, _series_sum, _sum_table,
                       _SumTable, total_sum)
from .automata import (LinearRepresentation, MultiplicityAutomaton, Word,
                       format_word, letter_shift_automaton, length_lex_key,
                       replace_iota, state_series_automaton, words_up_to)
from .classify import is_pa, is_pda
from .equivalence import (are_equivalent, combination_on_rows, express_combination,
                          value_rows)
from .linalg import Vector, dot


class ConstructionError(RuntimeError):
    """An input met the preconditions that are checked, yet the assembled
    automaton is not probabilistic: the input series is not a bounded
    probability distribution."""


def _letter_step(rep: LinearRepresentation, table: _SumTable, v: Vector,
                 x: str) -> tuple[Fraction, Vector | None]:
    """Prefix mass of one letter from the residual with initial vector v, and the
    initial vector of the residual it leads to (None at mass zero).

    One sum per edge, on the table of :func:`~stochlang.analysis._sum_table`;
    the residual is built from the same vector and mass.
    """
    w = rep.forward(v, (x,))
    mass = _mass(table, w)
    if mass == 0:
        return mass, None
    return mass, tuple(c / mass for c in w)


def _checked_total(rep: LinearRepresentation, table: _SumTable) -> None:
    """ValueError unless the series converges to total mass 1."""
    outcome = _series_sum(table, rep.lam)
    if not outcome.converges:
        raise ValueError("the series diverges")
    if outcome.value != 1:
        raise ValueError("the series must have total mass 1")


def _values(v: Vector, rows: Sequence[Vector]) -> tuple[Fraction, ...]:
    """Values on backward rows of the series started by initial vector v.

    The rows span every mu(w) . gamma of the representation, so two initial
    vectors start the same series iff their values are equal tuples.
    """
    return tuple(dot(v, b) for b in rows)


def synthesize_pa(target: MultiplicityAutomaton,
                  generators: Sequence[MultiplicityAutomaton]
                  ) -> MultiplicityAutomaton | None:
    """Probabilistic automaton for the target series over the given generators.

    Requires every generator series to have total mass exactly 1. Finds
    nonnegative coefficients expressing the target over the generators and,
    for every generator and letter, nonnegative coefficients expressing the
    letter shift over the generators. Absent if any of those systems is
    infeasible; otherwise the assembled automaton (one state per generator)
    is trimmed and returned.
    """
    generators = list(generators)
    if not generators:
        return None
    if any(g.alphabet != target.alphabet for g in generators):
        raise ValueError("alphabet mismatch")
    for i, g in enumerate(generators):
        outcome = total_sum(g)
        if not outcome.converges or outcome.value != 1:
            raise ValueError(f"generator {i} does not have total mass 1")

    mix = express_combination(target, generators, nonneg=True)
    if not mix.expressible:
        return None
    stability: dict[tuple[int, str], tuple[Fraction, ...]] = {}
    for i, g in enumerate(generators):
        for x in target.alphabet:
            shifted = letter_shift_automaton(g, (x,))
            outcome = express_combination(shifted, generators, nonneg=True)
            if not outcome.expressible:
                return None
            stability[(i, x)] = outcome.coefficients

    states = [f"s{i}" for i in range(len(generators))]
    iota = {states[i]: mix.coefficients[i] for i in range(len(generators))}
    tau = {states[i]: generators[i].evaluate(()) for i in range(len(generators))}
    phi = {}
    for (i, x), coeffs in stability.items():
        for j, c in enumerate(coeffs):
            if c:
                phi[(states[i], x, states[j])] = c
    built = MultiplicityAutomaton(target.alphabet, states, iota, tau, phi).trim()
    if not is_pa(built):
        raise ConstructionError("assembled automaton fails the probabilistic weight checks; "
                                "a generator is not a bounded stochastic series")
    return built


@dataclass(frozen=True)
class DeterminizationOutcome:
    """A deterministic PA over the residuals, or a report that the bound was hit."""
    pda: MultiplicityAutomaton | None
    discovered_residuals: int

    @property
    def bound_exceeded(self) -> bool:
        return self.pda is None


def determinize_to_pda(a: MultiplicityAutomaton, max_states: int) -> DeterminizationOutcome:
    """Explore residuals breadth-first and assemble a deterministic PA from them.

    Two words whose residual series coincide share a state; each state keeps
    its smallest witness word as its name. Residuals are told apart by their
    values on the backward rows of the input, looked up in a dict, so no
    pair of residuals is ever compared. Exceeding ``max_states`` distinct
    residuals aborts with the count discovered so far, which is not a proof
    that infinitely many exist. The input series must have total mass 1.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    rep = a.to_linear_representation()
    table = _sum_table(a)
    _checked_total(rep, table)

    rows = value_rows([rep])
    discovered: list[tuple[Word, Vector]] = [((), rep.lam)]
    index = {_values(rep.lam, rows): 0}
    transitions: dict[tuple[int, str], tuple[Fraction, int]] = {}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        _, v = discovered[i]
        for x in a.alphabet:
            mass, child = _letter_step(rep, table, v, x)
            if child is None:
                continue
            key = _values(child, rows)
            match = index.get(key)
            if match is None:
                if len(discovered) == max_states:
                    return DeterminizationOutcome(None, len(discovered) + 1)
                match = index[key] = len(discovered)
                discovered.append((discovered[i][0] + (x,), child))
                queue.append(match)
            transitions[(i, x)] = (mass, match)

    names = [format_word(word, a.alphabet) for word, _ in discovered]
    iota = {names[0]: Fraction(1)}
    tau = {names[i]: dot(v, rep.gamma) for i, (_, v) in enumerate(discovered)}
    phi = {(names[i], x, names[j]): mass
           for (i, x), (mass, j) in transitions.items()}
    pda = MultiplicityAutomaton(a.alphabet, names, iota, tau, phi)
    if not is_pda(pda):
        raise ConstructionError("residual exploration produced a non-deterministic or "
                                "non-probabilistic automaton; the input series is not "
                                "a probability distribution")
    return DeterminizationOutcome(pda, len(discovered))


def to_prefixial_pra(a: MultiplicityAutomaton,
                     witnesses: Mapping[str, Sequence[str]]) -> MultiplicityAutomaton:
    """Rebuild a PA over the prefix closure of its residual witness words.

    Each state q must come with a word w_q whose residual equals the state's
    series (distinct words per state). Each witness is verified exactly by
    comparing the residual's values on the input's backward rows with column
    q of those rows; only a mismatch runs an equivalence check, to name the
    word where the two series differ. States of the result are the prefixes
    of the witness set: the empty word carries all initial mass, tree edges
    carry residual prefix weights, and each witness state routes its
    remaining letters through the original transitions.
    """
    if not is_pa(a):
        raise ValueError("input is not a probabilistic automaton")
    witness_words: dict[str, Word] = {}
    for q in a.states:
        if q not in witnesses:
            raise ValueError(f"missing witness for state {q!r}")
        witness_words[q] = tuple(witnesses[q])
    if len(set(witness_words.values())) != len(witness_words):
        raise ValueError("witness words must be distinct")
    rep = a.to_linear_representation()
    table = _sum_table(a)
    rows = value_rows([rep])
    for i, (q, w) in enumerate(witness_words.items()):
        res = _residual_vector(rep, table, w)
        if _values(res, rows) != tuple(b[i] for b in rows):
            check = are_equivalent(replace_iota(a, res), state_series_automaton(a, q))
            raise ValueError(
                f"witness verification failure for state {q!r}: the residual at "
                f"{format_word(w, a.alphabet)} differs at "
                f"{format_word(check.witness, a.alphabet)}")

    word_of = {w: q for q, w in witness_words.items()}
    closure = {w[:i] for w in witness_words.values() for i in range(len(w) + 1)}
    ordered = sorted(closure, key=lambda w: length_lex_key(w, a.alphabet))
    names = {w: format_word(w, a.alphabet) for w in ordered}
    residuals = {(): _residual_vector(rep, table, ())}

    phi: dict[tuple[str, str, str], Fraction] = {}
    for w in ordered:
        for x in a.alphabet:
            extended = w + (x,)
            if extended in closure:
                mass, residuals[extended] = _letter_step(rep, table, residuals[w], x)
                if residuals[extended] is None:
                    raise ValueError(f"prefix weight of {format_word(extended, a.alphabet)} "
                                     "is zero")
                phi[(names[w], x, names[extended])] = mass
            elif w in word_of:
                q = word_of[w]
                for r in a.states:
                    weight = a.weight(q, x, r)
                    if weight:
                        phi[(names[w], x, names[witness_words[r]])] = weight

    iota = {names[()]: Fraction(1)}
    tau = {names[w]: dot(residuals[w], rep.gamma) for w in ordered}
    built = MultiplicityAutomaton(a.alphabet, [names[w] for w in ordered], iota, tau, phi)
    if not is_pa(built):
        raise ValueError("witness set does not induce a probabilistic automaton; "
                         "an interior prefix loses mass outside the closure")
    check = are_equivalent(a, built)
    if not check.equal:
        raise ValueError("prefixial rebuild changed the series at "
                         f"{format_word(check.witness, a.alphabet)}")
    return built


def minimal_residual_generators(a: MultiplicityAutomaton, depth: int
                                ) -> list[Word] | None:
    """Smallest residual set (by witness words) that is stable and covers the series.

    Collects residuals of all words up to ``depth``, drops any residual that
    is a nonnegative combination of the remaining ones, then verifies the
    survivors form a stable family containing the series. Residuals are
    deduplicated by their values on the input's backward rows; one table of
    those values holds a column per residual, per residual letter shift and
    for the series itself, and each drop, stability and cover question is one
    feasibility problem over some of its columns. None means the
    check failed at this depth and is inconclusive, not that no finite
    generating set exists.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    rep = a.to_linear_representation()
    table = _sum_table(a)
    _checked_total(rep, table)

    rows = value_rows([rep])
    found: dict[tuple[Fraction, ...], tuple[Word, Vector]] = {}
    for u in words_up_to(a.alphabet, depth):
        try:
            v = _residual_vector(rep, table, u)
        except ValueError:
            continue
        found.setdefault(_values(v, rows), (u, v))
    # columns: the k residuals, then their letter shifts, then the series
    k, letters = len(found), len(a.alphabet)
    columns = list(found) + [_values(rep.forward(v, (x,)), rows)
                             for _, v in found.values() for x in a.alphabet]
    table = list(zip(*columns, _values(rep.lam, rows)))

    def covered(target: int, columns: list[int]) -> bool:
        return combination_on_rows(table, target, columns, nonneg=True).expressible

    alive = list(range(k))
    while len(alive) > 1:
        drop = next((i for i in reversed(alive)
                     if covered(i, [j for j in alive if j != i])), None)
        if drop is None:
            break
        alive.remove(drop)
    needed = [k + i * letters + j for i in alive for j in range(letters)] + [k * (1 + letters)]
    if not all(covered(t, alive) for t in needed):
        return None
    words = [u for u, _ in found.values()]
    return [words[i] for i in alive]
