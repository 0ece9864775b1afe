"""Structural and semantic classification of multiplicity automata.

Covers the probabilistic weight conditions (semi-PA, PA), support determinism
(PDA), residual-automaton detection for cone-reduced PAs via the powerset
construction, the decidable fragment of stochasticity checking, and a
generator of PA instances whose residual-automaton question encodes DFA
union universality.

The PA checks read the automaton's (numerator, denominator) weight pairs,
compared under one common denominator, and make no ``Fraction``; the
support questions (PDA, residual witnesses) read successor bitmasks taken
off the integer form's letter maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .analysis import total_sum
from .automata import (MultiplicityAutomaton, Word, _checked_names, _echo, _echoes, _walk,
                       is_trimmed, words_up_to)
from .reduction import ReductionMode, is_reduced, reduce

UNDECIDABILITY_NOTE = ("bounded check only: nonnegativity was tested up to the stated "
                       "length, and no algorithm can decide the unbounded question")


def _weight_conditions(a: MultiplicityAutomaton, trimmed: bool) -> tuple[bool, bool]:
    """Semi-PA and PA verdicts, given trimmedness: every (numerator,
    denominator) weight pair and the initial mass are compared with 1 under
    one common denominator, and each state's leaving mass (its final weight
    plus its total transition weight) is read off the integer form
    (``automata._IntegerForm.leaving``), which also decides unit state sums."""
    weights = (*a._iota.values(), *a._tau.values(), *a._phi.values())
    if any(p < 0 or p > q for p, q in weights):
        return False, False
    d = lcm(*(q for _, q in a._iota.values()))
    initial = sum(p * (d // q) for p, q in a._iota.values())
    mass, unit = a._integer_form().leaving()
    semi_pa = initial <= d and all(m <= unit for m in mass)
    pa = (semi_pa and bool(a.states) and trimmed and initial == d
          and all(m == unit for m in mass))
    return semi_pa, pa


def is_semi_pa(a: MultiplicityAutomaton) -> bool:
    """All weights in [0, 1], initial mass <= 1, per-state leaving mass <= 1."""
    return _weight_conditions(a, False)[0]


def is_pa(a: MultiplicityAutomaton) -> bool:
    """Trimmed semi-PA whose initial mass and per-state leaving masses are exactly 1."""
    return bool(a.states) and is_trimmed(a) and _weight_conditions(a, True)[1]


def _successor_masks(a: MultiplicityAutomaton) -> list[list[tuple[int, int]]]:
    """Per state i, the (k, mask) pairs of the letters k with a transition
    leaving i, in letter order: bit j of mask is set iff the support has the
    transition i -k-> j. Read once off the integer form's letter maps, which
    hold exactly the nonzero transitions."""
    masks: list[list[tuple[int, int]]] = [[] for _ in a.states]
    for k, action in enumerate(a._integer_form().right):
        for i, row in enumerate(action):
            if row:
                masks[i].append((k, sum(1 << j for j, _ in row)))
    return masks


def _deterministic_support(a: MultiplicityAutomaton) -> bool:
    """One initial state and at most one successor per state and letter."""
    if len(a.initial_states()) != 1:
        return False
    return all(not m & (m - 1) for row in _successor_masks(a) for _, m in row)


def is_pda(a: MultiplicityAutomaton) -> bool:
    """PA whose support is deterministic: one initial state, one successor per letter."""
    return is_pa(a) and _deterministic_support(a)


def _singleton_witnesses(a: MultiplicityAutomaton) -> dict[str, Word]:
    """Smallest word steering the support powerset to each singleton state set.

    The search is the breadth-first walk of residual exploration
    (``automata._walk``) over the state sets reachable in the support
    powerset, so it can visit up to 2^n of them for n states. No general
    shortcut is expected: the source paper shows that deciding whether a PA
    is a residual automaton is PSPACE-hard (see ``pra_hardness_instance``).
    State sets are int bitmasks, bit i for the i-th state, each its own key
    in the walk, and each set's successors under every letter are gathered
    in one pass over its states' successor masks (:func:`_successor_masks`).
    """
    masks = {1 << i: row for i, row in enumerate(_successor_masks(a))}
    letters, states = a.alphabet, a.states

    def expand(rest):
        targets = [0] * len(letters)
        while rest:
            bit = rest & -rest
            for k, m in masks[bit]:
                targets[k] |= m
            rest ^= bit
        return [(letters[k], target, target) for k, target in enumerate(targets) if target]

    start = sum(1 << i for i, w in enumerate(a._integer_form().iota) if w)
    witnesses: dict[str, Word] = {}
    if start and not start & (start - 1):
        witnesses[states[start.bit_length() - 1]] = ()
    for _, _, _, word, target in _walk(start, start, expand):
        if word is not None and not target & (target - 1):
            witnesses[states[target.bit_length() - 1]] = word
    return witnesses


def residual_witnesses(a: MultiplicityAutomaton) -> tuple[bool, dict[str, Word] | None]:
    """Residual-automaton verdict of a PA whose cone-reducedness is already known.

    Holds iff every state is the exact powerset image of some word from the
    initial state set; witnesses are the length-lex smallest such words.
    The verdict means something only for a cone-reduced PA. This function
    checks the PA conditions (ValueError) but trusts the caller on
    reducedness, as for the output of ``reduce(..., ReductionMode.CONE)``;
    :func:`is_pra_reduced` checks both. The witness search runs over the
    support powerset and can take time exponential in the number of states
    (up to 2^n state sets); the question is PSPACE-hard.
    """
    return _residual_witnesses(a, is_pa(a))


def _residual_witnesses(a: MultiplicityAutomaton, pa: bool
                        ) -> tuple[bool, dict[str, Word] | None]:
    """:func:`residual_witnesses`, given the PA verdict ``pa`` of ``a``."""
    if not pa:
        raise ValueError("input is not a probabilistic automaton")
    witnesses = _singleton_witnesses(a)
    if all(q in witnesses for q in a.states):
        return True, {q: witnesses[q] for q in a.states}
    return False, None


def is_pra_reduced(a: MultiplicityAutomaton) -> tuple[bool, dict[str, Word] | None]:
    """Decide whether a cone-reduced PA has only residual state series.

    Same verdict and witnesses as :func:`residual_witnesses`. Raises
    ValueError if the input is not a PA or not cone-reduced, in that order.
    Cone-reducedness is decided first, so an input that is not cone-reduced
    never reaches the witness search over the support powerset.
    """
    pa = is_pa(a)
    if pa and not is_reduced(a, ReductionMode.CONE):
        raise ValueError("input is not cone-reduced")
    return _residual_witnesses(a, pa)


@dataclass(frozen=True)
class StochasticityReport:
    """Bounded evidence: exact total mass verdict plus a bounded nonnegativity scan."""
    sum_is_one: bool
    checked_length: int
    violation: Word | None


def check_stochastic_bounded(a: MultiplicityAutomaton, max_len: int = 8) -> StochasticityReport:
    """Exact sum check plus the smallest negative-valued word up to max_len, if any.

    A clean report does not certify that the series is a probability
    distribution; only the bounded fragment is decidable. An automaton whose
    weights are all nonnegative cannot produce a negative value, so the word
    scan (exponential in max_len over large alphabets) only runs when some
    weight is negative: some (numerator, denominator) weight pair has a
    negative numerator, its denominator being positive.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    outcome = total_sum(a)
    sum_is_one = outcome.converges and outcome.value == 1
    if all(p >= 0 for p, _ in (*a._iota.values(), *a._tau.values(), *a._phi.values())):
        violation = None
    else:
        violation = next(
            (w for w in words_up_to(a.alphabet, max_len) if a.evaluate(w) < 0), None)
    return StochasticityReport(sum_is_one, max_len, violation)


@dataclass(frozen=True)
class PraVerdict:
    is_pra: bool
    witnesses: dict[str, Word] | None
    on_reduction: bool


@dataclass(frozen=True)
class ClassReport:
    trimmed: bool
    semi_pa: bool
    pa: bool
    pda: bool
    pra_reduced: PraVerdict | None
    stochastic: StochasticityReport


def classify(a: MultiplicityAutomaton, max_len: int = 8) -> ClassReport:
    """Full structural report.

    The residual-automaton verdict is only defined for PAs; a PA that is not
    cone-reduced is reduced first and the verdict refers to the reduction
    (which generates the same series and preserves the property). Cone
    reduction returns its input exactly when that input is cone-reduced, so
    reducedness is decided once. The weight conditions are checked once as
    well: trimmedness and one pass over the weights give the semi-PA, PA
    and PDA verdicts, and the PA verdict of the input serves the residual
    test when the reduction returns the input.
    """
    stochastic = check_stochastic_bounded(a, max_len)
    trimmed = is_trimmed(a)
    semi_pa, pa = _weight_conditions(a, trimmed)
    pra = None
    if pa:
        reduced = reduce(a, ReductionMode.CONE)
        changed = reduced is not a
        pra = PraVerdict(*_residual_witnesses(reduced, is_pa(reduced) if changed else pa),
                         on_reduction=changed)
    return ClassReport(
        trimmed=trimmed,
        semi_pa=semi_pa,
        pa=pa,
        pda=pa and _deterministic_support(a),
        pra_reduced=pra,
        stochastic=stochastic)


@dataclass(frozen=True)
class Dfa:
    """Deterministic finite automaton with a possibly partial transition map."""
    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    finals: frozenset[str]
    delta: Mapping[tuple[str, str], str]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", _checked_names("letter", self.alphabet))
        object.__setattr__(self, "states", _checked_names("state", self.states))
        object.__setattr__(self, "finals", frozenset(self.finals))
        state_set = set(self.states)
        letter_set = set(self.alphabet)
        if self.initial not in state_set:
            raise ValueError(f"unknown initial state {_echo(self.initial)}")
        if not self.finals <= state_set:
            raise ValueError("final states must be declared states")
        for (q, x), r in self.delta.items():
            if q not in state_set or r not in state_set:
                raise ValueError(f"transition ({_echoes(q, x, r)}) uses an unknown state")
            if x not in letter_set:
                raise ValueError(f"transition ({_echoes(q, x, r)}) uses an unknown letter")

    def __hash__(self) -> int:
        # delta is a dict, so it is hashed as the set of its items; equal
        # DFAs have equal fields, and so equal hashes
        return hash((self.alphabet, self.states, self.initial, self.finals,
                     frozenset(self.delta.items())))

    def step(self, q: str | None, x: str) -> str | None:
        if q is None:
            return None
        return self.delta.get((q, x))

    def accepts(self, word: Sequence[str]) -> bool:
        q: str | None = self.initial
        for x in word:
            q = self.step(q, x)
        return q in self.finals

    def reachable_states(self) -> tuple[str, ...]:
        seen = {self.initial}
        stack = [self.initial]
        while stack:
            q = stack.pop()
            for x in self.alphabet:
                r = self.delta.get((q, x))
                if r is not None and r not in seen:
                    seen.add(r)
                    stack.append(r)
        return tuple(q for q in self.states if q in seen)

    def language_nonempty(self) -> bool:
        return not self.finals.isdisjoint(self.reachable_states())


def _fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name = name + "'"
    taken.add(name)
    return name


def pra_hardness_instance(dfas: Sequence[Dfa]) -> MultiplicityAutomaton:
    """PA whose residual-automaton question encodes DFA union universality.

    The output is a cone-reduced PA; it passes the residual-automaton test of
    :func:`is_pra_reduced` iff the union of the input DFA languages does not
    cover all words over the shared base alphabet. Each input language must
    be nonempty; unreachable DFA states are dropped.
    """
    if not dfas:
        raise ValueError("at least one automaton is required")
    base = dfas[0].alphabet
    if any(d.alphabet != base for d in dfas):
        raise ValueError("all automata must share one alphabet")
    reachable = [d.reachable_states() for d in dfas]
    for i, (d, states) in enumerate(zip(dfas, reachable)):
        if d.finals.isdisjoint(states):
            raise ValueError(f"automaton {i} recognises the empty language")

    n = len(dfas)
    taken = set(base)
    reset_letters = [_fresh(f"x{i + 1}", taken) for i in range(n)]
    probe_letter = _fresh("lam", taken)

    loop_state = "q0"
    blink_state = "q1"
    accept_state = "qf"
    sink_state = "qb"
    nfa_states: list[str] = []
    rename: list[dict[str, str]] = []
    for i, states in enumerate(reachable):
        names = {q: f"{i}:{q}" for q in states}
        rename.append(names)
        nfa_states.extend(names.values())
    nfa_states.extend([loop_state, blink_state, accept_state])

    delta: dict[tuple[str, str], set[str]] = {}

    def link(q: str, x: str, r: str) -> None:
        delta.setdefault((q, x), set()).add(r)

    for i, (d, names) in enumerate(zip(dfas, rename)):
        for q in names:
            for x in base:
                r = d.delta.get((q, x))
                if r is not None:
                    link(names[q], x, names[r])
            link(names[q], reset_letters[i], names[d.initial])
            if q in d.finals:
                link(names[q], probe_letter, accept_state)
    for x in base:
        link(loop_state, x, loop_state)
    link(loop_state, probe_letter, blink_state)
    link(blink_state, probe_letter, loop_state)
    for i, d in enumerate(dfas):
        link(accept_state, probe_letter, rename[i][d.initial])

    state_letters = {q: _fresh(f"y{k}", taken) for k, q in enumerate(nfa_states)}
    alphabet = tuple(base) + tuple(reset_letters) + (probe_letter,) + tuple(
        state_letters[q] for q in nfa_states)

    initial = [loop_state] + [rename[i][d.initial] for i, d in enumerate(dfas)]
    iota = {q: Fraction(1, n + 1) for q in initial}
    tau = {sink_state: Fraction(1)}
    phi: dict[tuple[str, str, str], Fraction] = {}
    for q in nfa_states:
        # out-degree over the full alphabet, plus the private sink edge
        degree = sum(len(delta.get((q, x), ())) for x in alphabet) + 1
        share = Fraction(1, degree)
        for x in alphabet:
            for r in delta.get((q, x), ()):
                phi[(q, x, r)] = share
        phi[(q, state_letters[q], sink_state)] = share
    return MultiplicityAutomaton(alphabet, nfa_states + [sink_state], iota, tau, phi)
