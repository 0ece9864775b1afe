"""The benchmark's own exact model of automaton documents.

Inputs are built and answers are checked with this module alone. It never
imports stochlang, so an oracle cannot share a defect with the code path it
checks. Everything is exact ``Fraction`` arithmetic on small dense or sparse
structures; none of it is timed.
"""

from __future__ import annotations

import json
from fractions import Fraction

F = Fraction


class Auto:
    """An automaton document: alphabet, states, initial, final and transition weights.

    Zero weights are dropped, so the maps hold exactly the support.
    """

    __slots__ = ("alphabet", "states", "initial", "final", "trans")

    def __init__(self, alphabet, states, initial, final, trans):
        self.alphabet = tuple(alphabet)
        self.states = tuple(states)
        self.initial = {q: F(w) for q, w in initial.items() if w}
        self.final = {q: F(w) for q, w in final.items() if w}
        self.trans = {k: F(w) for k, w in trans.items() if w}

    # ------------------------------------------------------------ documents

    def to_doc(self) -> str:
        index = {q: i for i, q in enumerate(self.states)}
        letter = {x: i for i, x in enumerate(self.alphabet)}
        rows = sorted(self.trans.items(),
                      key=lambda kv: (index[kv[0][0]], letter[kv[0][1]], index[kv[0][2]]))
        return json.dumps({
            "alphabet": list(self.alphabet),
            "states": list(self.states),
            "initial": {q: str(self.initial[q]) for q in self.states if q in self.initial},
            "final": {q: str(self.final[q]) for q in self.states if q in self.final},
            "transitions": [[q, x, r, str(w)] for (q, x, r), w in rows],
        }, indent=1) + "\n"

    @classmethod
    def from_doc(cls, text: str) -> "Auto":
        data = json.loads(text)
        return cls(data["alphabet"], data["states"],
                   {q: F(w) for q, w in data.get("initial", {}).items()},
                   {q: F(w) for q, w in data.get("final", {}).items()},
                   {(q, x, r): F(w) for q, x, r, w in data.get("transitions", [])})

    # ------------------------------------------------------------ properties

    @property
    def n(self) -> int:
        return len(self.states)

    def max_bits(self) -> int:
        weights = list(self.initial.values()) + list(self.final.values()) + list(
            self.trans.values())
        return max((max(w.numerator.bit_length(), w.denominator.bit_length())
                    for w in weights), default=0)

    def props(self, **extra) -> dict:
        """Input properties carried by every decision record."""
        out = {"states": self.n, "letters": len(self.alphabet),
               "transitions": len(self.trans), "max_bits": self.max_bits()}
        out.update(extra)
        return out

    # ------------------------------------------------------------ evaluation

    def step(self, vec: dict, x: str) -> dict:
        """Push a sparse row vector (state -> weight) through one letter."""
        out: dict = {}
        for (q, y, r), w in self.trans.items():
            if y == x and q in vec:
                out[r] = out.get(r, F(0)) + vec[q] * w
        return {q: w for q, w in out.items() if w}

    def forward(self, word, start: dict | None = None) -> dict:
        vec = dict(self.initial) if start is None else dict(start)
        for x in word:
            vec = self.step(vec, x)
        return vec

    def evaluate(self, word) -> Fraction:
        """Series value on a word, as the sum over all weighted paths."""
        vec = self.forward(word)
        return sum((w * self.final.get(q, F(0)) for q, w in vec.items()), F(0))

    def is_pa(self) -> bool:
        weights = list(self.initial.values()) + list(self.final.values()) + list(
            self.trans.values())
        if any(w < 0 or w > 1 for w in weights) or sum(self.initial.values(), F(0)) != 1:
            return False
        out = {q: self.final.get(q, F(0)) for q in self.states}
        for (q, _, _), w in self.trans.items():
            out[q] += w
        return all(v == 1 for v in out.values())

    def is_deterministic(self) -> bool:
        if len(self.initial) != 1:
            return False
        seen = set()
        for (q, x, _) in self.trans:
            if (q, x) in seen:
                return False
            seen.add((q, x))
        return True

    # ------------------------------------------------------------ dense forms

    def dense(self):
        """(lam, {x: M_x}, gamma) as lists of Fractions in state order."""
        index = {q: i for i, q in enumerate(self.states)}
        n = self.n
        lam = [self.initial.get(q, F(0)) for q in self.states]
        gamma = [self.final.get(q, F(0)) for q in self.states]
        mu = {x: [[F(0)] * n for _ in range(n)] for x in self.alphabet}
        for (q, x, r), w in self.trans.items():
            mu[x][index[q]][index[r]] = w
        return lam, mu, gamma


def words_up_to(alphabet, max_len):
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (x,) for w in frontier for x in alphabet]
        words.extend(frontier)
    return words


def format_word(word, alphabet) -> str:
    if not word:
        return "@"
    return "".join(word) if all(len(x) == 1 for x in alphabet) else ".".join(word)


def parse_word(text: str, alphabet) -> tuple:
    if text == "@":
        return ()
    return tuple(text) if all(len(x) == 1 for x in alphabet) else tuple(text.split("."))


# ---------------------------------------------------------------- linear algebra

class Echelon:
    """Row space kept as (pivot, row) pairs with unit pivots; plain Gauss-Jordan."""

    def __init__(self):
        self.rows: list[tuple[int, list]] = []

    def reduce(self, v) -> list:
        v = list(v)
        for p, row in self.rows:
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def add(self, v) -> bool:
        v = self.reduce(v)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = 1 / v[p]
        v = [x * inv for x in v]
        self.rows = [(q, [a - row[p] * b for a, b in zip(row, v)] if row[p] else row)
                     for q, row in self.rows]
        self.rows.append((p, v))
        return True


def rank(rows) -> int:
    ech = Echelon()
    return sum(1 for r in rows if ech.add(r))


def solve(a, b):
    """Unique solution of a square system a x = b, or None if a is singular."""
    n = len(a)
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n] for row in aug]


def invert(a):
    n = len(a)
    cols = [solve(a, [F(1 if i == j else 0) for i in range(n)]) for j in range(n)]
    if any(c is None for c in cols):
        return None
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def vec_mat(v, m):
    n = len(m[0]) if m else 0
    out = [F(0)] * n
    for vi, row in zip(v, m):
        if vi:
            for j, x in enumerate(row):
                if x:
                    out[j] += vi * x
    return out


def mat_vec(m, v):
    return [sum((a * b for a, b in zip(row, v) if a and b), F(0)) for row in m]


def mat_mul(a, b):
    return [vec_mat(row, b) for row in a]


def closure(start, maps):
    """Basis of the smallest space containing ``start`` and closed under ``maps``."""
    ech = Echelon()
    basis = []
    stack = [list(start)]
    while stack:
        v = stack.pop()
        if ech.add(v):
            basis.append(v)
            stack.extend(f(v) for f in maps)
    return basis


def series_rank(auto: Auto) -> int:
    """Rank of the series: rank of the forward/backward closure pairing."""
    lam, mu, gamma = auto.dense()
    fwd = closure(lam, [lambda v, m=m: vec_mat(v, m) for m in mu.values()])
    bwd = closure(gamma, [lambda v, m=m: mat_vec(m, v) for m in mu.values()])
    return rank([[sum((a * b for a, b in zip(f, g)), F(0)) for g in bwd] for f in fwd])


def state_sums(auto: Auto):
    """Per-state sums (I - M)^{-1} gamma for an automaton known to converge."""
    lam, mu, gamma = auto.dense()
    n = auto.n
    m = [[F(1 if i == j else 0) - sum((mu[x][i][j] for x in mu), F(0))
          for j in range(n)] for i in range(n)]
    return solve(m, gamma)


def prefix_mass(auto: Auto, word, sums) -> Fraction:
    """Total series mass of the words that start with ``word``."""
    index = {q: i for i, q in enumerate(auto.states)}
    return sum((w * sums[index[q]] for q, w in auto.forward(word).items()), F(0))


class ResidualKeys:
    """Keys that identify the series of a row vector: its pairing with the backward space.

    Two initial vectors generate the same series iff their keys are equal.
    """

    def __init__(self, auto: Auto):
        self.auto = auto
        lam, mu, gamma = auto.dense()
        self.basis = closure(gamma, [lambda v, m=m: mat_vec(m, v) for m in mu.values()])
        self.index = {q: i for i, q in enumerate(auto.states)}

    def key(self, vec: dict) -> tuple:
        return tuple(sum((w * b[self.index[q]] for q, w in vec.items()), F(0))
                     for b in self.basis)


def distinct_residuals(auto: Auto, sums, limit: int | None = None, depth: int | None = None):
    """Breadth-first residual exploration keyed on series identity.

    Returns the list of (witness word, normalised vector) for the distinct
    residuals found, stopping after ``limit`` of them or at words of length
    ``depth``, in the order the program's exploration meets them.
    """
    keys = ResidualKeys(auto)
    index = keys.index

    def mass(vec):
        return sum((w * sums[index[q]] for q, w in vec.items()), F(0))

    start = {q: w / mass(auto.initial) for q, w in auto.initial.items()}
    found = [((), start)]
    seen = {keys.key(start)}
    queue = [((), start)]
    while queue:
        word, vec = queue.pop(0)
        if depth is not None and len(word) >= depth:
            continue
        for x in auto.alphabet:
            child = auto.step(vec, x)
            m = mass(child)
            if m == 0:
                continue
            child = {q: w / m for q, w in child.items()}
            k = keys.key(child)
            if k in seen:
                continue
            seen.add(k)
            found.append((word + (x,), child))
            if limit is not None and len(found) >= limit:
                return found
            queue.append((word + (x,), child))
    return found
