"""Multiplicity automata over exact rationals and their linear representations.

A multiplicity automaton carries rational initialization weights, termination
weights and per-letter transition weights. One builder makes every
automaton: it checks the names and references and stores each nonzero
weight once, as a coprime (numerator, denominator) pair of ints. A parsed
document reaches it with its weights read straight into such pairs, the
constructor with any rationals. Two views come from the pairs on first
read and stay with the automaton. Every decision reads the integer form
(:class:`_IntegerForm`): sparse integer letter maps under one scale, and
the initial and final vectors as coprime integer vectors with their
factors. Its series value on a word is evaluated by pushing the initial
vector through those maps, one letter at a time, never by enumerating
paths. The ``Fraction`` maps ``iota``, ``tau`` and ``phi``, one Fraction per
distinct value, are built only for the callers that read them, and the
``Fraction`` matrices of a :class:`LinearRepresentation` only on demand; no
decision reads the matrices. Automata are immutable after construction and
safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .linalg import (Matrix, Vector, _Action, _integer_sum, _push, _turned, dot, frac, vec_mat,
                     vector)

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


def _pair(w: object, values: dict[tuple[int, int], Fraction]) -> tuple[int, int]:
    """The coprime (numerator, denominator) pair of a rational given as an
    int, string or Fraction; its Fraction is kept in ``values`` for the
    Fraction maps, unless one of the same value is there already."""
    w = frac(w)
    pair = w.as_integer_ratio()
    values.setdefault(pair, w)
    return pair


def _primitive_of(weights: Mapping[str, tuple[int, int]], index: Mapping[str, int]
                  ) -> tuple[list[int], Fraction]:
    """The vector of (numerator, denominator) weights at the states' indices,
    zero elsewhere, as ``linalg._primitive_with_factor`` gives it: the
    coprime integer list w and the positive f with vector = f w (f = 1 at
    zero). f is the one Fraction made; ``_primitive_with_factor`` of the
    same integer vector, with f divided by the scale, took about 8 us more
    per 22-state vector, two per automaton."""
    scale = lcm(*(den for _, den in weights.values()))
    w = [0] * len(index)
    for q, (num, den) in weights.items():
        w[index[q]] = num * (scale // den)
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w, Fraction(g or 1, scale)


class _IntegerForm:
    """The weights of an automaton as integers, the one form every decision reads.

    Read off the automaton's (numerator, denominator) pairs, with no
    Fraction but the two factors. ``scale`` is the least positive s that
    clears the denominator of every transition weight, and
    ``right[k]`` the map v -> s v M_x of the k-th letter x, as
    ``linalg._push`` takes it: per state i, the (state j, s phi(i, x, j))
    pairs, in the order of ``phi``. :attr:`left` holds the maps
    v -> s M_x v, the same pairs turned round when first read, and
    :attr:`summed` the map of the letter-summed matrix with its own scale
    (``linalg._integer_sum``), made when first read. ``iota`` and ``tau``
    are the initial and final vectors, in state order, as coprime integer
    lists w with the positive factors f of vector = f w. Callers share
    every list here and must not change one.
    """

    __slots__ = ("letters", "scale", "right", "iota", "iota_factor", "tau", "tau_factor",
                 "_left", "_summed")

    def __init__(self, a: MultiplicityAutomaton):
        index = {q: i for i, q in enumerate(a.states)}
        self.letters = letters = {x: k for k, x in enumerate(a.alphabet)}
        weights = a._phi
        self.scale = s = lcm(*(den for _, den in weights.values()))
        self.right = right = [[[] for _ in index] for _ in letters]
        for (q, x, r), (num, den) in weights.items():
            right[letters[x]][index[q]].append((index[r], num * (s // den)))
        self.iota, self.iota_factor = _primitive_of(a._iota, index)
        self.tau, self.tau_factor = _primitive_of(a._tau, index)
        self._left: list[_Action] | None = None
        self._summed: tuple[_Action, int] | None = None

    @property
    def left(self) -> list[_Action]:
        if self._left is None:
            self._left = [_turned(action) for action in self.right]
        return self._left

    @property
    def summed(self) -> tuple[_Action, int]:
        if self._summed is None:
            self._summed = _integer_sum(self.right, len(self.tau), self.scale)
        return self._summed

    def forward(self, word: Sequence[str], v: dict[int, int] | None = None
                ) -> tuple[list[int], Fraction]:
        """v mu(word) as c w, for an integer vector w and a positive c, by
        integer pushes: w = s^|word| u mu(word) for v = f u, u an integer
        vector, so c = f / s^|word|. v is lam by default, or else the
        sparse integer vector of its nonzero entries, with f = 1."""
        f = Fraction(1)
        if v is None:
            v, f = {j: x for j, x in enumerate(self.iota) if x}, self.iota_factor
        for x in word:
            k = self.letters.get(x)
            if k is None:
                raise ValueError(f"letter {_echo(x)} is not in the alphabet")
            v = _push(self.right[k], v)
        w = [0] * len(self.iota)
        for j, y in v.items():
            w[j] = y
        return w, f / self.scale ** len(word)

    def value(self, word: Sequence[str], v: dict[int, int] | None = None) -> Fraction:
        """v mu(word) gamma, for v as :meth:`forward` takes it."""
        w, c = self.forward(word, v)
        return c * self.tau_factor * sum(map(mul, w, self.tau))


class MultiplicityAutomaton:
    """States, alphabet and the weight maps iota, tau, phi.

    Zero weights are normalised away on construction, so the stored triples
    are exactly the support of the automaton. Treat instances as immutable.

    Every automaton is built by one builder (:meth:`_assemble`), which
    checks the names and references and stores each nonzero weight once,
    as a coprime (numerator, denominator) pair of ints. The constructor
    reaches it with any rationals, coerced by ``frac``; a parsed document,
    and an automaton derived from another one (``trim``,
    :func:`with_alphabet`, :func:`replace_iota`), with weights that are
    pairs already (:func:`_from_pairs`). Both views of the weights come
    from those pairs when first read: the integer form that every decision
    reads (:meth:`_integer_form`), and the ``Fraction`` maps ``iota``,
    ``tau`` and ``phi`` (:meth:`_fraction_maps`).
    """

    def __init__(self, alphabet: Iterable[str], states: Iterable[str],
                 iota: Mapping[str, object], tau: Mapping[str, object],
                 phi: Mapping[tuple[str, str, str], object]):
        self._assemble(alphabet, states, iota, tau, phi, {}, coerce=True)

    def _assemble(self, alphabet: Iterable[str], states: Iterable[str],
                  iota: Mapping[str, object], tau: Mapping[str, object],
                  phi: Mapping[tuple[str, str, str], object],
                  values: dict[tuple[int, int], Fraction], coerce: bool) -> None:
        """Check the names, then each weight's references, in the order of
        the initial, final and transition maps, and keep the nonzero
        weights as (numerator, denominator) pairs in the order given.

        With ``coerce`` each weight is turned into its pair (:func:`_pair`)
        after its references are checked, and its Fraction kept in
        ``values``; otherwise the weights are coprime pairs already.
        ``values`` holds the Fractions that the Fraction maps share; a
        derived automaton shares those of its source.
        """
        self.alphabet = _checked_names("letter", alphabet)
        self.states = _checked_names("state", states)
        state_set = set(self.states)
        letter_set = set(self.alphabet)
        maps = []
        for kind, weights in (("initial", iota), ("final", tau)):
            kept = {}
            for q, w in weights.items():
                if q not in state_set:
                    raise ValueError(f"{kind} weight for unknown state {_echo(q)}")
                if coerce:
                    w = _pair(w, values)
                if w[0]:
                    kept[q] = w
            maps.append(kept)
        self._iota, self._tau = maps
        self._phi = kept = {}
        for t, w in phi.items():
            q, x, r = t
            if q not in state_set or r not in state_set:
                raise ValueError(f"transition ({_echoes(q, x, r)}) uses an unknown state")
            if x not in letter_set:
                raise ValueError(f"transition ({_echoes(q, x, r)}) uses an unknown letter")
            if coerce:
                w = _pair(w, values)
            if w[0]:
                kept[t] = w
        self._values = values
        self._maps: tuple[dict, dict, dict] | None = None
        self._rep: LinearRepresentation | None = None
        self._form: _IntegerForm | None = None

    def _fraction_maps(self) -> tuple[dict[str, Fraction], dict[str, Fraction],
                                      dict[tuple[str, str, str], Fraction]]:
        """The maps iota, tau and phi as Fractions, built from the pairs on
        the first call and kept: the same keys in the same order, and one
        Fraction per distinct value, the constructor's own where it was
        given one. No decision that only reads the integer form calls it."""
        if self._maps is None:
            values = self._values
            for pair in {*self._iota.values(), *self._tau.values(), *self._phi.values()}:
                if pair not in values:
                    values[pair] = Fraction(*pair)
            self._maps = tuple({key: values[pair] for key, pair in weights.items()}
                               for weights in (self._iota, self._tau, self._phi))
        return self._maps

    iota = property(lambda self: self._fraction_maps()[0], doc="The nonzero initial weights.")
    tau = property(lambda self: self._fraction_maps()[1], doc="The nonzero final weights.")
    phi = property(lambda self: self._fraction_maps()[2],
                   doc="The nonzero transition weights, keyed by (source, letter, target).")

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
        return tuple(q for q in self.states if q in self._iota)

    def out_weight(self, q: str) -> Fraction:
        """Total transition weight leaving q, over all letters and targets."""
        return sum((w for (s, _, _), w in self.phi.items() if s == q), Fraction(0))

    def support_delta(self) -> dict[tuple[str, str], frozenset[str]]:
        """Transition relation of the support NFA."""
        delta: dict[tuple[str, str], set[str]] = {}
        for (q, x, r) in self._phi:
            delta.setdefault((q, x), set()).add(r)
        return {k: frozenset(v) for k, v in delta.items()}

    def to_linear_representation(self) -> LinearRepresentation:
        """The ``Fraction`` matrix form (lam, mu, gamma) of the weights, built
        on the first call and kept. Public API only: every decision reads the
        integer form (:meth:`_integer_form`) instead."""
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

    def _integer_form(self) -> _IntegerForm:
        """The integer form of the weights, built on the first call and kept."""
        if self._form is None:
            self._form = _IntegerForm(self)
        return self._form

    def evaluate(self, word: Sequence[str]) -> Fraction:
        """Exact series value on a word."""
        return self._integer_form().value(word)

    def evaluate_state(self, q: str, word: Sequence[str]) -> Fraction:
        """Exact value of the series generated from a single state."""
        if q not in set(self.states):
            raise ValueError(f"unknown state {_echo(q)}")
        return self._integer_form().value(word, {self.states.index(q): 1})

    def trim(self) -> "MultiplicityAutomaton":
        """Restrict to states that are both accessible and co-accessible.

        The generated series is unchanged. Returns self when nothing is
        removed.
        """
        forward: dict[str, set[str]] = {}
        backward: dict[str, set[str]] = {}
        for (q, _, r) in self._phi:
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

        accessible = closure(self._iota, forward)
        coaccessible = closure(self._tau, backward)
        keep = [q for q in self.states if q in accessible and q in coaccessible]
        if len(keep) == len(self.states):
            return self
        keep_set = set(keep)
        return _from_pairs(
            self.alphabet, keep,
            {q: w for q, w in self._iota.items() if q in keep_set},
            {q: w for q, w in self._tau.items() if q in keep_set},
            {t: w for t, w in self._phi.items() if t[0] in keep_set and t[2] in keep_set},
            self._values)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiplicityAutomaton)
                and self.alphabet == other.alphabet
                and self.states == other.states
                and self._iota == other._iota
                and self._tau == other._tau
                and self._phi == other._phi)

    def __repr__(self) -> str:
        return (f"MultiplicityAutomaton(alphabet={self.alphabet!r}, "
                f"states={self.states!r}, {len(self._phi)} transitions)")


def _from_pairs(alphabet: Iterable[str], states: Iterable[str],
                iota: Mapping[str, tuple[int, int]], tau: Mapping[str, tuple[int, int]],
                phi: Mapping[tuple[str, str, str], tuple[int, int]],
                values: dict[tuple[int, int], Fraction] | None = None
                ) -> MultiplicityAutomaton:
    """The automaton of weights given as coprime (numerator, denominator)
    pairs, denominators positive, built by the constructor's own builder
    (:meth:`MultiplicityAutomaton._assemble`) with the same checks and
    messages; ``values`` are the Fractions its maps may share."""
    a = MultiplicityAutomaton.__new__(MultiplicityAutomaton)
    a._assemble(alphabet, states, iota, tau, phi, {} if values is None else values, coerce=False)
    return a


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
    return _from_pairs(a.alphabet, a.states,
                       {q: _pair(w, a._values) for q, w in zip(a.states, lam)},
                       a._tau, a._phi, a._values)


def state_series_automaton(a: MultiplicityAutomaton, q: str) -> MultiplicityAutomaton:
    """Automaton generating the series of a single state of ``a``."""
    if q not in set(a.states):
        raise ValueError(f"unknown state {_echo(q)}")
    return replace_iota(a, tuple(Fraction(1 if s == q else 0) for s in a.states))


def letter_shift_automaton(a: MultiplicityAutomaton, word: Sequence[str]
                           ) -> MultiplicityAutomaton:
    """Automaton for the (unnormalised) word shift of the series of ``a``."""
    w, c = a._integer_form().forward(word)
    return replace_iota(a, tuple(c * x for x in w))


def with_alphabet(a: MultiplicityAutomaton, alphabet: Sequence[str]
                  ) -> MultiplicityAutomaton:
    """Same automaton over a larger alphabet; new letters carry no transitions."""
    alphabet = tuple(alphabet)
    present = iter(alphabet)
    if not all(x in present for x in a.alphabet):
        raise ValueError("the new alphabet must contain the old one in order")
    if alphabet == a.alphabet:
        return a
    return _from_pairs(alphabet, a.states, a._iota, a._tau, a._phi, a._values)


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
