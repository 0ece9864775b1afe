"""Constructive normal forms: PA synthesis, determinization, prefixial form.

These operations turn semantic facts about a series (membership in a convex
stable family, finitely many residuals, residual witnesses per state) into
concrete probabilistic automata, discovering all coefficients by exact
solving. Failures are honest: a returned None means the required nonnegative
coefficients do not exist at this level, and a bound report means the search
was cut off, never that the answer is known to be negative.

Every residual u^-1 p = p(u .) / p(u Sigma*) of a series, and every letter
shift of one, is the input's own linear representation with another
initial vector, and two initial vectors start the same series iff they
pair alike with the rows of the backward span V, the span of the vectors
mu(w) gamma. So a residual is its pairing vector on V: residual
exploration runs on the integers of one object per call
(:class:`_Residuals`), over the series' representation on V
(``reduction._SpanRepresentation``), and costs dim V, not the state count.
A residual is a coprime integer vector p of length dim V with its mass m,
and one letter step is A_x p for the integer map A_x on V followed by one
content division. Its mass is the dot product with the state-sum vector
(Id - M)^-1 gamma on V, whose coordinates on V's rows are its entries at
the rows' pivots times the rows' pivot weights. That vector is the one
``state_sums`` reads off the automaton's sum source
(``analysis._sum_table``): the all-ones vector with unit state sums, as
on every PA, where no sum table is built, and otherwise the vector read
off the table of the vectors A^k g. Only when the minimal polynomial of
gamma under M is not Schur-stable does each mass run its own
fraction-free recurrence on that table, taken at V's pivots, since the
paper defines a residual whenever its own prefix sum converges. The key
of a residual is p times the sign of its mass: equal keys mean equal
series, so a dict finds every known residual, and a combination question
between residuals is one exact solve on a table of keys. Fractions are
made only for the weights of the automaton built; the prefixial form
copies each witness state's own weight pairs.

Determinization, the residual generators and the prefixial form explore
their words on one breadth-first walk (``automata._walk``), as does the
residual witness search of ``classify`` on state sets. The walk visits
words in length-lexicographic order, numbers each new key and expands
only the first word of a key: determinization keys a residual by its
key, the prefixial form a prefix of the witness words by the word
itself. The residual generators prune the same way: if a word has the
key of an earlier word, then for every suffix s the two words continued
by s start the same residual, and the earlier one comes first. So the
first word of each key, and the generators found, are those of the
enumeration of every word up to the depth, at a fraction of its letter
steps.

PA synthesis asks its questions the same way. A letter shift of a
generator is the generator with another initial vector, so one table of
values on one backward closure (``equivalence._value_table``) holds a
column for the target, for every generator and for every shift, each
shift on its own generator with no automaton built for it, and the mix
and every stability question are one feasibility problem each on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Mapping, Sequence

from .analysis import (_mass, _state_sum_vector, _sum_table, _SumTable, residual_automaton,
                       total_sum)
from .automata import (MultiplicityAutomaton, Word, _echo, _from_pairs, _walk, format_word,
                       state_series_automaton)
from .classify import is_pa, is_pda
from .equivalence import _backward_closure, _value_table, are_equivalent, combination_on_rows
from .reduction import _SpanRepresentation


class ConstructionError(RuntimeError):
    """An input met the preconditions that are checked, yet the assembled
    automaton is not probabilistic: the input series is not a bounded
    probability distribution."""


Mass = int | Fraction

_NOT_A_DISTRIBUTION = ("residual exploration produced a non-deterministic or "
                       "non-probabilistic automaton; the input series is not "
                       "a probability distribution")


class _Residuals:
    """The derived data of one automaton that residual exploration reads.

    A residual is held by its pairings with the rows of the backward span V
    (``reduction._SpanRepresentation``): a coprime integer vector p of
    length dim V with its mass m over the positive ``unit``, so the
    residual's pairing vector is p / (unit m). One letter step is A_x p for
    the span's integer map A_x followed by one content division, and the
    key of a residual is p itself times the sign of m. A vector y of V has
    the coordinates weights[p_k] y[p_k] / c on the rows, c the span's
    ``lcm``; so gamma = f g, f and g from the integer form's ``tau``, has
    the coordinates f / c times the weights times g at the pivots. When the
    state-sum vector of the input exists, it is r S at the pivots
    (``analysis._state_sum_vector`` on its sum source
    ``analysis._sum_table``, read at the pivots, which determine every
    vector of V), its coordinates are ``unit`` = r / c times the integer
    vector ``sums`` of S times the weights, and m is the integer p . sums;
    with unit state sums S is the all-ones vector and r = 1, so ``sums`` is
    the weights. Without
    it, unit is 1 and m is the exact mass, from one recurrence on the table
    of the series on V: V holds gamma and is invariant under M, so the
    vectors A^k g of the input's sum table lie in V, and read at the
    pivots, times the weights, they form that table.
    """

    def __init__(self, a: MultiplicityAutomaton):
        self.span = span = _SpanRepresentation(a, *_backward_closure([a]))
        self.actions = dict(zip(a.alphabet, span.actions))
        form = a._integer_form()
        self.gamma = [w * form.tau[p] for p, w in span.weights.items()]
        table = _sum_table(a)
        sums = _state_sum_vector(table, list(span.weights))
        if sums is None:
            self.table = _SumTable([[w * v[p] for p, w in span.weights.items()]
                                    for v in table.powers], table.scale, table.factor / span.lcm)
            self.sums, self.unit = None, Fraction(1)
        else:
            self.sums = list(map(mul, span.weights.values(), sums[0]))
            self.unit = sums[1] / span.lcm
        self.tau_factor = form.tau_factor / (span.lcm * self.unit)
        self.start = span.start
        self.start_factor = span.start_factor * self.unit

    def step(self, p: list[int], x: str) -> tuple[int, list[int]]:
        """The content g and the coprime vector q with g q = A_x p, for a
        letter x of the alphabet."""
        action = self.actions[x]
        q = [0] * len(p)
        for k, y in enumerate(p):
            if y:
                for i, c in action[k]:
                    q[i] += c * y
        g = gcd(*q)
        return g, q if g <= 1 else [y // g for y in q]

    def mass(self, p: list[int]) -> Mass:
        """The mass of p over the unit; ValueError when the sum started by p diverges."""
        if self.sums is not None:
            return sum(map(mul, p, self.sums))
        return _mass(self.table, p)

    def key(self, p: list[int], m: Mass) -> tuple[int, ...]:
        """p times the sign of m.

        The residuals p / (unit m) and p' / (unit m') are equal iff their
        pairing vectors are, that is iff p' = (m' / m) p; as p and p' are
        coprime, m' / m is then 1 or -1, and p and p' have one key.
        """
        return tuple(p) if m >= 0 else tuple(-y for y in p)

    def is_state_series(self, p: list[int], m: Mass, i: int) -> bool:
        """Whether the residual of p is exactly the series of state i: p over
        its exact mass equals column i of the backward rows."""
        exact = self.unit * m
        num, den = exact.numerator, exact.denominator
        return all(y * den == row.get(i, 0) * num for y, row in zip(p, self.span.rows))

    def weight(self, g: int, mq: Mass, m: Mass) -> Fraction:
        """Mass of the letter step g q = A_x p from the residual of p, the step
        reaching the residual of q (masses over one unit)."""
        return Fraction(g * mq, self.span.scale * m)

    def tau(self, p: list[int], m: Mass) -> Fraction:
        """Final weight of the residual of p: its pairing with gamma over its exact mass."""
        return Fraction(sum(map(mul, p, self.gamma)), m) * self.tau_factor


def _checked_total(res: _Residuals) -> Mass:
    """Mass of the series over the unit; ValueError unless it converges to 1."""
    try:
        m = res.mass(res.start)
    except ValueError:
        raise ValueError("the series diverges") from None
    if res.start_factor * m != 1:
        raise ValueError("the series must have total mass 1")
    return m


def synthesize_pa(target: MultiplicityAutomaton,
                  generators: Sequence[MultiplicityAutomaton]
                  ) -> MultiplicityAutomaton | None:
    """Probabilistic automaton for the target series over the given generators.

    Requires every generator series to have total mass exactly 1, read by
    ``analysis.total_sum`` in generator order. Finds nonnegative
    coefficients expressing the target over the generators and, for every
    generator and letter, nonnegative coefficients expressing the letter
    shift over the generators. A shift is its generator started from the
    vector lam . mu(x), pushed in integers through its integer form
    (``automata._IntegerForm.forward``), so one table
    (``equivalence._value_table``) holds a column for the target, for each
    generator and for each shift, on the automata themselves, and every
    question is one feasibility problem on it, asked in that order. Absent
    at the first infeasible question. The generators have mass 1, so the
    target's mass is the sum of its coefficients, and ValueError is raised
    unless that sum is 1; otherwise the assembled automaton (one state per
    generator) is trimmed and returned.
    """
    generators = list(generators)
    if not generators:
        return None
    if any(g.alphabet != target.alphabet for g in generators):
        raise ValueError("alphabet mismatch")
    for i, g in enumerate(generators):
        if total_sum(g).value != 1:
            raise ValueError(f"generator {i} does not have total mass 1")

    k = len(generators)
    automata = [target, *generators]
    forms = [a._integer_form() for a in automata]
    columns = [(i, f.iota, f.iota_factor) for i, f in enumerate(forms)]
    columns += [(i, *forms[i].forward((x,))) for i in range(1, k + 1) for x in target.alphabet]
    table = _value_table(automata, columns)
    answers = []
    for t in [0, *range(k + 1, len(columns))]:
        outcome = combination_on_rows(table, t, range(1, k + 1), nonneg=True)
        if not outcome.expressible:
            return None
        answers.append(outcome.coefficients)
    mix, *stability = answers
    if sum(mix) != 1:
        raise ValueError("the series must have total mass 1")

    states = [f"s{i}" for i in range(k)]
    iota = {states[i]: mix[i] for i in range(k)}
    tau = {states[i]: generators[i].evaluate(()) for i in range(k)}
    phi = {}
    for s, coeffs in enumerate(stability):
        i, x = divmod(s, len(target.alphabet))
        for j, c in enumerate(coeffs):
            if c:
                phi[(states[i], target.alphabet[x], states[j])] = c
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
    its smallest witness word as its name. The residuals are walked
    breadth-first (``automata._walk``) and told apart by their keys
    (:meth:`_Residuals.key`), so no pair of residuals is ever compared, and
    every letter step records an edge, to a new residual or a known one.
    Exceeding ``max_states`` distinct residuals aborts with the count
    discovered so far, which is not a proof that infinitely many exist.
    The input series must have total mass 1. A residual of mass 0 is
    skipped when its series is zero; otherwise the series takes both
    signs, and ConstructionError is raised.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    res = _Residuals(a)
    m = _checked_total(res)

    def expand(node):
        _, p, m = node
        for x in a.alphabet:
            g, q = res.step(p, x)
            mq = res.mass(q)
            key = res.key(q, mq)
            if mq:
                yield x, key, (res.weight(g, mq, m), q, mq)
            elif any(key):
                raise ConstructionError(_NOT_A_DISTRIBUTION)

    discovered: list[tuple[Word, list[int], Mass]] = [((), res.start, m)]
    transitions: dict[tuple[int, str], tuple[Fraction, int]] = {}
    for i, x, j, word, (mass, q, mq) in _walk(res.key(res.start, m), (1, res.start, m), expand):
        if word is not None:
            if len(discovered) == max_states:
                return DeterminizationOutcome(None, len(discovered) + 1)
            discovered.append((word, q, mq))
        transitions[(i, x)] = (mass, j)

    names = [format_word(word, a.alphabet) for word, _, _ in discovered]
    iota = {names[0]: Fraction(1)}
    tau = {names[i]: res.tau(p, m) for i, (_, p, m) in enumerate(discovered)}
    phi = {(names[i], x, names[j]): mass
           for (i, x), (mass, j) in transitions.items()}
    pda = MultiplicityAutomaton(a.alphabet, names, iota, tau, phi)
    if not is_pda(pda):
        raise ConstructionError(_NOT_A_DISTRIBUTION)
    return DeterminizationOutcome(pda, len(discovered))


def to_prefixial_pra(a: MultiplicityAutomaton,
                     witnesses: Mapping[str, Sequence[str]]) -> MultiplicityAutomaton:
    """Rebuild a PA over the prefix closure of its residual witness words.

    Each state q must come with a word w_q whose residual equals the state's
    series (distinct words per state). The prefix closure of the witness
    words is walked breadth-first (``automata._walk``), keyed by the words
    themselves, so each of its residuals is computed once, by one letter
    step from its parent, and the prefixes come in length-lex order, the
    order of the states built. The witnesses are then checked in state
    order, so the first error raised is that of the first state whose
    witness fails, even when a shorter prefix of a later witness has
    weight zero. Each witness is
    verified exactly: the residual's pairings with the input's backward
    rows, over its exact mass, must equal column q of those rows; only a
    mismatch runs an equivalence check of the residual automaton at w_q
    (``analysis.residual_automaton``) against the state's series, to name
    the word where the two series differ. States of the result are the
    prefixes of the witness set: the empty word carries all initial mass,
    tree edges carry residual prefix weights, and each witness state
    routes its remaining letters through the original transitions.
    """
    if not is_pa(a):
        raise ValueError("input is not a probabilistic automaton")
    witness_words: dict[str, Word] = {}
    for q in a.states:
        if q not in witnesses:
            raise ValueError(f"missing witness for state {_echo(q)}")
        witness_words[q] = tuple(witnesses[q])
    if len(set(witness_words.values())) != len(witness_words):
        raise ValueError("witness words must be distinct")
    res = _Residuals(a)
    closure = {w[:k] for w in witness_words.values() for k in range(1, len(w) + 1)}

    def expand(node):
        word, (_, p) = node
        for x in a.alphabet:
            child = word + (x,)
            if child in closure:
                yield x, child, (child, res.step(p, x))

    # each prefix's (content, coprime vector), in length-lex order
    vectors: dict[Word, tuple[int, list[int]]] = {(): (1, res.start)}
    vectors.update(node for _, _, _, _, node in _walk((), ((), vectors[()]), expand))
    masses: dict[Word, Mass] = {}

    def mass(w: Word) -> Mass:
        if w not in masses:
            masses[w] = res.mass(vectors[w][1])
            if not masses[w]:
                spelled = format_word(w, a.alphabet) if w else "the empty word"
                raise ValueError(f"prefix weight of {spelled} is zero")
        return masses[w]

    for i, (q, w) in enumerate(witness_words.items()):
        if w not in vectors:
            x = next(x for x in w if x not in res.actions)
            raise ValueError(f"letter {_echo(x)} is not in the alphabet")
        if not res.is_state_series(vectors[w][1], mass(w), i):
            check = are_equivalent(residual_automaton(a, w), state_series_automaton(a, q))
            raise ValueError(
                f"witness verification failure for state {_echo(q)}: the residual at "
                f"{format_word(w, a.alphabet)} differs at "
                f"{format_word(check.witness, a.alphabet)}")

    names = {w: format_word(w, a.alphabet) for w in vectors}
    phi: dict[tuple[str, str, str], tuple[int, int]] = {}
    for w in vectors:
        for x in a.alphabet:
            extended = w + (x,)
            if extended in vectors:
                phi[(names[w], x, names[extended])] = res.weight(
                    vectors[extended][0], mass(extended), mass(w)).as_integer_ratio()
    # a witness state's letters that leave the closure keep its own weight pairs
    for (q, x, r), pair in a._phi.items():
        w = witness_words[q]
        if w + (x,) not in vectors:
            phi[(names[w], x, names[witness_words[r]])] = pair

    tau = {names[w]: res.tau(p, mass(w)).as_integer_ratio() for w, (_, p) in vectors.items()}
    built = _from_pairs(a.alphabet, names.values(), {names[()]: (1, 1)}, tau, phi)
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

    Collects the residuals of all words up to ``depth``, drops any residual
    that is a nonnegative combination of the remaining ones, then verifies
    the survivors form a stable family containing the series. The words
    are walked breadth-first (``automata._walk``) and only the first word
    of each key (:meth:`_Residuals.key`) is expanded. That is sound: if u
    comes after v and has its key, then p_u = +-p_v, so p_us = +-p_vs for
    every suffix s, us has the key of vs whenever its mass is nonzero and
    convergent, and vs comes before us. By induction on the length-lex
    order, the least word of each key is reached, so the residuals kept
    and their witness words are those of the enumeration of every word,
    and so are the generators returned. A prefix of zero or divergent mass
    is never kept but still expanded, deduplicated by its exact vector p.
    The letter shifts of a kept residual are the steps the walk took from
    it, and are stepped anew only at the depth bound. One table holds a
    column per residual, per residual letter shift and for the series
    itself, each a positive multiple of its values on the input's backward
    rows. Each drop, stability and cover question asks whether one column
    is a nonnegative combination of some others, which no positive column
    scale changes: yes outright when the column equals one of them, whose
    residual it then is (most stability questions), and otherwise one
    feasibility problem. The drops run in one pass from the last residual
    down, each residual asked once against the residuals still kept, and at
    least one residual stays. A residual that is no nonnegative combination
    of some residuals is none of any subset of them, so it would answer no
    again after a later drop: the pass drops exactly the residuals that a
    scan restarting from the last residual after each drop drops. None
    means the check failed at this depth and is inconclusive, not that no
    finite generating set exists.
    """
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    res = _Residuals(a)
    m = _checked_total(res)

    def expand(node):
        for x in a.alphabet:
            q = res.step(node[0], x)[1]
            try:
                mass = res.mass(q)
            except ValueError:
                mass = 0
            yield x, res.key(q, mass) if mass else (None, *q), (q, mass)

    # the kept residuals as (walk number, word, p, mass), and the letter
    # steps of every expanded prefix by walk number
    found = [(0, (), res.start, m)]
    steps: dict[int, list[list[int]]] = {}
    for i, _, j, word, (p, mass) in _walk(res.key(res.start, m), (res.start, m), expand, depth):
        steps.setdefault(i, []).append(p)
        if word is not None and mass:
            found.append((j, word, p, mass))
    # columns: the k residuals, then their letter shifts, then the series,
    # each a positive multiple of its values on the backward rows
    k, letters = len(found), len(a.alphabet)
    keys = [res.key(p, mass) for _, _, p, mass in found]
    keys += [res.key(q, mass) for j, _, p, mass in found
             for q in steps.get(j) or (res.step(p, x)[1] for x in a.alphabet)]
    keys.append(res.key(res.start, m))
    table = list(zip(*keys))

    def covered(target: int, columns: list[int]) -> bool:
        return (keys[target] in {keys[j] for j in columns}
                or combination_on_rows(table, target, columns, nonneg=True).expressible)

    alive = list(range(k))
    for i in reversed(range(k)):
        if len(alive) > 1 and covered(i, [j for j in alive if j != i]):
            alive.remove(i)
    needed = [k + i * letters + j for i in alive for j in range(letters)] + [k * (1 + letters)]
    if not all(covered(t, alive) for t in needed):
        return None
    return [found[i][1] for i in alive]
