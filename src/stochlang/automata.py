"""Multiplicity automata over exact rationals and their linear representations.

A multiplicity automaton carries rational initialization weights, termination
weights and per-letter transition weights. Its series value on a word is
evaluated through the matrix form (a row vector chased through one matrix per
letter), never by enumerating paths. Automata are immutable after
construction and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix, Vector, dot, frac, vec_mat, vector

Word = tuple[str, ...]

EPSILON_SPELLING = "@"


def format_word(word: Sequence[str], alphabet: Sequence[str]) -> str:
    """Render a word as text: '@' for the empty word, letters joined bare or by dots."""
    if not word:
        return EPSILON_SPELLING
    if all(len(x) == 1 for x in alphabet):
        return "".join(word)
    return ".".join(word)


def parse_word(text: str, alphabet: Sequence[str]) -> Word:
    """Inverse of :func:`format_word` for a fixed alphabet."""
    if text == EPSILON_SPELLING:
        return ()
    letters = tuple(text) if all(len(x) == 1 for x in alphabet) else tuple(text.split("."))
    known = set(alphabet)
    unknown = [x for x in letters if x not in known]
    if unknown:
        raise ValueError(f"letter {_echo(unknown[0])} is not in the alphabet")
    return letters


def length_lex_key(word: Sequence[str], alphabet: Sequence[str]):
    index = {x: i for i, x in enumerate(alphabet)}
    return (len(word), tuple(index[x] for x in word))


def words_up_to(alphabet: Sequence[str], max_len: int) -> Iterable[Word]:
    """All words of length at most max_len, in length-lexicographic order."""
    for k in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=k):
            yield w


@dataclass(frozen=True)
class LinearRepresentation:
    """Series presentation (lam, mu, gamma): value on w is lam . mu(w1) ... mu(wk) . gamma."""
    lam: Vector
    mu: dict[str, Matrix]
    gamma: Vector

    def __post_init__(self):
        n = len(self.lam)
        if len(self.gamma) != n:
            raise ValueError("lam and gamma dimensions differ")
        for x, m in self.mu.items():
            if m.nrows != n or m.ncols != n:
                raise ValueError(f"matrix for letter {x!r} is not {n}x{n}")

    @property
    def dim(self) -> int:
        return len(self.lam)

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(self.mu)

    def forward(self, v: Vector, word: Sequence[str]) -> Vector:
        """The row vector v . mu(word), pushed through one letter matrix at a time.

        Every initial vector of this representation starts a series; the one
        v . mu(u) starts the unnormalised residual of that series at u.
        """
        for x in word:
            if x not in self.mu:
                raise ValueError(f"letter {_echo(x)} is not in the alphabet")
            v = vec_mat(v, self.mu[x])
        return v

    def evaluate(self, word: Sequence[str]) -> Fraction:
        return dot(self.forward(self.lam, word), self.gamma)


# Most characters of a long value that an error message repeats.
_ECHO_CHARS = 40


def _echo(value: object) -> str:
    """``repr(value)`` for an error message, cut when long: a string longer
    than ``_ECHO_CHARS`` characters is echoed by the repr of its first
    ``_ECHO_CHARS`` characters and its length, and any other value whose
    repr is longer by the first ``_ECHO_CHARS`` characters of that repr and
    the repr's length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _ECHO_CHARS:
        return repr(value)
    head = repr(text[:_ECHO_CHARS]) if isinstance(value, str) else text[:_ECHO_CHARS]
    return f"{head}... ({len(text)} characters)"


def _echoes(*values: object) -> str:
    """The echoes of values, comma-separated."""
    return ", ".join(map(_echo, values))


def _checked_names(kind: str, names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    for name in names:
        if not isinstance(name, str) or not name:
            raise ValueError(f"{kind} names must be non-empty strings, got {_echo(name)}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate {kind} name")
    return names


def _state_weights(kind: str, weights: Mapping[str, object],
                   states: set[str]) -> dict[str, Fraction]:
    """The nonzero weights of a map from declared states to rationals."""
    out = {}
    for q, w in weights.items():
        if q not in states:
            raise ValueError(f"{kind} weight for unknown state {_echo(q)}")
        w = frac(w)
        if w:
            out[q] = w
    return out


class MultiplicityAutomaton:
    """States, alphabet and the weight maps iota, tau, phi.

    Zero weights are normalised away on construction, so the stored triples
    are exactly the support of the automaton. Treat instances as immutable.
    """

    def __init__(self, alphabet: Iterable[str], states: Iterable[str],
                 iota: Mapping[str, object], tau: Mapping[str, object],
                 phi: Mapping[tuple[str, str, str], object]):
        self.alphabet = _checked_names("letter", alphabet)
        self.states = _checked_names("state", states)
        state_set = set(self.states)
        letter_set = set(self.alphabet)
        self.iota = _state_weights("initial", iota, state_set)
        self.tau = _state_weights("final", tau, state_set)
        self.phi: dict[tuple[str, str, str], Fraction] = {}
        for (q, x, r), w in phi.items():
            if q not in state_set or r not in state_set:
                raise ValueError(f"transition ({_echoes(q, x, r)}) uses an unknown state")
            if x not in letter_set:
                raise ValueError(f"transition ({_echoes(q, x, r)}) uses an unknown letter")
            w = frac(w)
            if w:
                self.phi[(q, x, r)] = w
        self._rep: LinearRepresentation | None = None

    @property
    def n_states(self) -> int:
        return len(self.states)

    def iota_weight(self, q: str) -> Fraction:
        return self.iota.get(q, Fraction(0))

    def tau_weight(self, q: str) -> Fraction:
        return self.tau.get(q, Fraction(0))

    def weight(self, q: str, x: str, r: str) -> Fraction:
        return self.phi.get((q, x, r), Fraction(0))

    def initial_states(self) -> tuple[str, ...]:
        return tuple(q for q in self.states if q in self.iota)

    def out_weight(self, q: str) -> Fraction:
        """Total transition weight leaving q, over all letters and targets."""
        return sum((w for (s, _, _), w in self.phi.items() if s == q), Fraction(0))

    def support_delta(self) -> dict[tuple[str, str], frozenset[str]]:
        """Transition relation of the support NFA."""
        delta: dict[tuple[str, str], set[str]] = {}
        for (q, x, r) in self.phi:
            delta.setdefault((q, x), set()).add(r)
        return {k: frozenset(v) for k, v in delta.items()}

    def to_linear_representation(self) -> LinearRepresentation:
        if self._rep is None:
            index = {q: i for i, q in enumerate(self.states)}
            n = len(self.states)
            zero = Fraction(0)
            entries = {x: [{} for _ in range(n)] for x in self.alphabet}
            for (q, x, r), w in self.phi.items():
                entries[x][index[q]][index[r]] = w
            self._rep = LinearRepresentation(
                tuple(self.iota.get(q, zero) for q in self.states),
                {x: Matrix.from_entries(rows, n) for x, rows in entries.items()},
                tuple(self.tau.get(q, zero) for q in self.states))
        return self._rep

    def evaluate(self, word: Sequence[str]) -> Fraction:
        """Exact series value on a word."""
        return self.to_linear_representation().evaluate(word)

    def evaluate_state(self, q: str, word: Sequence[str]) -> Fraction:
        """Exact value of the series generated from a single state."""
        if q not in set(self.states):
            raise ValueError(f"unknown state {_echo(q)}")
        rep = self.to_linear_representation()
        unit = tuple(Fraction(1 if s == q else 0) for s in self.states)
        return dot(rep.forward(unit, word), rep.gamma)

    def trim(self) -> "MultiplicityAutomaton":
        """Restrict to states that are both accessible and co-accessible.

        The generated series is unchanged. Returns self when nothing is
        removed.
        """
        forward: dict[str, set[str]] = {}
        backward: dict[str, set[str]] = {}
        for (q, _, r) in self.phi:
            forward.setdefault(q, set()).add(r)
            backward.setdefault(r, set()).add(q)

        def closure(seed: Iterable[str], edges: dict[str, set[str]]) -> set[str]:
            seen = set(seed)
            stack = list(seen)
            while stack:
                q = stack.pop()
                for r in edges.get(q, ()):
                    if r not in seen:
                        seen.add(r)
                        stack.append(r)
            return seen

        accessible = closure(self.iota, forward)
        coaccessible = closure(self.tau, backward)
        keep = [q for q in self.states if q in accessible and q in coaccessible]
        if len(keep) == len(self.states):
            return self
        keep_set = set(keep)
        return MultiplicityAutomaton(
            self.alphabet, keep,
            {q: w for q, w in self.iota.items() if q in keep_set},
            {q: w for q, w in self.tau.items() if q in keep_set},
            {t: w for t, w in self.phi.items() if t[0] in keep_set and t[2] in keep_set})

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiplicityAutomaton)
                and self.alphabet == other.alphabet
                and self.states == other.states
                and self.iota == other.iota
                and self.tau == other.tau
                and self.phi == other.phi)

    def __repr__(self) -> str:
        return (f"MultiplicityAutomaton(alphabet={self.alphabet!r}, "
                f"states={self.states!r}, {len(self.phi)} transitions)")


def empty_automaton(alphabet: Iterable[str]) -> MultiplicityAutomaton:
    """The automaton with no states; every word evaluates to 0."""
    return MultiplicityAutomaton(alphabet, (), {}, {}, {})


def from_linear_representation(rep: LinearRepresentation,
                               state_names: Sequence[str] | None = None
                               ) -> MultiplicityAutomaton:
    """Automaton whose weights transcribe a linear representation."""
    n = rep.dim
    states = tuple(state_names) if state_names is not None else tuple(
        f"q{i}" for i in range(n))
    if len(states) != n:
        raise ValueError("state name count does not match the dimension")
    iota = {states[i]: rep.lam[i] for i in range(n)}
    tau = {states[i]: rep.gamma[i] for i in range(n)}
    phi = {}
    for x, m in rep.mu.items():
        for i, row in enumerate(m.entries):
            for j, w in row.items():
                phi[(states[i], x, states[j])] = w
    return MultiplicityAutomaton(rep.alphabet, states, iota, tau, phi)


def rep_from_generator_relations(coeffs: Sequence, relations: Mapping[str, Sequence[Sequence]],
                                 epsilon_values: Sequence) -> LinearRepresentation:
    """Linear representation from shift relations over a generating family.

    ``coeffs`` expresses the target series over the generators, each
    ``relations[x]`` grid expresses the x-shift of every generator over the
    family, and ``epsilon_values`` are the generators' values at the empty
    word. Correctness of those relations is the caller's premise.
    """
    lam = vector(coeffs)
    gamma = vector(epsilon_values)
    n = len(lam)
    if len(gamma) != n:
        raise ValueError("coefficient and empty-word value counts differ")
    mu = {}
    for x, grid in relations.items():
        m = Matrix(grid)
        if m.nrows != n or m.ncols != n:
            raise ValueError(f"relation grid for letter {x!r} is not {n}x{n}")
        mu[x] = m
    return LinearRepresentation(lam, mu, gamma)


def replace_iota(a: MultiplicityAutomaton, lam: Sequence[Fraction]) -> MultiplicityAutomaton:
    """Same transitions and final weights, new initial vector (by state order)."""
    if len(lam) != a.n_states:
        raise ValueError("initial vector length does not match the state count")
    return MultiplicityAutomaton(
        a.alphabet, a.states,
        {q: w for q, w in zip(a.states, lam)}, a.tau, a.phi)


def state_series_automaton(a: MultiplicityAutomaton, q: str) -> MultiplicityAutomaton:
    """Automaton generating the series of a single state of ``a``."""
    if q not in set(a.states):
        raise ValueError(f"unknown state {_echo(q)}")
    return replace_iota(a, tuple(Fraction(1 if s == q else 0) for s in a.states))


def letter_shift_automaton(a: MultiplicityAutomaton, word: Sequence[str]
                           ) -> MultiplicityAutomaton:
    """Automaton for the (unnormalised) word shift of the series of ``a``."""
    rep = a.to_linear_representation()
    return replace_iota(a, rep.forward(rep.lam, word))


def with_alphabet(a: MultiplicityAutomaton, alphabet: Sequence[str]
                  ) -> MultiplicityAutomaton:
    """Same automaton over a larger alphabet; new letters carry no transitions."""
    alphabet = tuple(alphabet)
    present = iter(alphabet)
    if not all(x in present for x in a.alphabet):
        raise ValueError("the new alphabet must contain the old one in order")
    if alphabet == a.alphabet:
        return a
    return MultiplicityAutomaton(alphabet, a.states, a.iota, a.tau, a.phi)


def merge_alphabets(first: Sequence[str], second: Sequence[str]) -> tuple[str, ...]:
    """Union of two letter orders when their shared letters agree in order."""
    if tuple(first) == tuple(second):
        return tuple(first)
    merged: list[str] = []
    i = j = 0
    set_first, set_second = set(first), set(second)
    while i < len(first) or j < len(second):
        if i < len(first) and first[i] not in set_second:
            merged.append(first[i])
            i += 1
        elif j < len(second) and second[j] not in set_first:
            merged.append(second[j])
            j += 1
        elif i < len(first) and j < len(second) and first[i] == second[j]:
            merged.append(first[i])
            i += 1
            j += 1
        else:
            raise ValueError("alphabet mismatch")
    return tuple(merged)


def weighted_sum(automata: Sequence[MultiplicityAutomaton],
                 coeffs: Sequence) -> MultiplicityAutomaton:
    """Disjoint union realising the weighted sum of the given series.

    Each block keeps its transitions and final weights; its initial weights
    are scaled by the block coefficient.
    """
    if len(automata) != len(coeffs):
        raise ValueError("one coefficient per automaton is required")
    if not automata:
        raise ValueError("weighted_sum of no automata has no alphabet; "
                         "use empty_automaton instead")
    alphabet = automata[0].alphabet
    if any(a.alphabet != alphabet for a in automata):
        raise ValueError("alphabet mismatch")
    states = []
    iota = {}
    tau = {}
    phi = {}
    for i, (a, c) in enumerate(zip(automata, coeffs)):
        c = frac(c)
        rename = {q: f"{i}.{q}" for q in a.states}
        states.extend(rename[q] for q in a.states)
        for q, w in a.iota.items():
            iota[rename[q]] = c * w
        for q, w in a.tau.items():
            tau[rename[q]] = w
        for (q, x, r), w in a.phi.items():
            phi[(rename[q], x, rename[r])] = w
    return MultiplicityAutomaton(alphabet, states, iota, tau, phi)


def is_trimmed(a: MultiplicityAutomaton) -> bool:
    return a.trim() is a
