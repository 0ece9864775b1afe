"""Exact linear algebra over arbitrary-precision rationals.

Every scalar at the boundary is a ``fractions.Fraction``, so each result is
exact and every decision procedure here (rank, solvability, definiteness,
contraction, feasibility) is free of rounding. A ``Matrix`` stores only
its nonzero entries, one ``{column: Fraction}`` dict per row: an
automaton's letter matrices are filled straight from its transitions, and
``vec_mat``, the integer letter maps and span closures read only those
entries. The dense rows are made on demand, for the eliminations that
work on them.

Elimination runs fraction-free, on one kernel. Span membership does not
depend on the scale of a vector, so :class:`SpanBasis` keeps its echelon
rows as primitive integer vectors. The echelon rows are stored sparse, as
their nonzero entries: kept fully reduced they stay sparse, so a vector is
reduced only against the rows at the pivots in its support, each on its
own nonzero entries, and a new pivot is cleared only from the rows that
hold it. A span closure (:func:`_closure`) pushes, for each vector that
enlarges the span, the sparse row it added rather than the vector, whose
entries grow with the length of its word, through letter maps that are
scaled to integers once per call and stored per input coordinate, so an
image costs the row's nonzero entries times their column degrees. The
rows are the canonical reduced echelon form up to scale, which is unique, so
``SpanBasis.basis``, their ``Fraction`` form, and every result built on
them are the same as with ``Fraction`` rows throughout. ``rref`` is that
basis for the rows of a matrix; ``solve_affine`` reads its solution off
the sparse integer rows directly, with one ``Fraction`` per nonzero entry
it returns, so ``invert`` and the equality step of ``lp_feasible`` run on
the same rows. Only ``determinant`` and Fourier-Motzkin still eliminate
over ``Fraction``; the cone solve of
``equivalence.combination_on_rows`` gives Fourier-Motzkin the rows x >= 0
in the coordinates of the nullspace read off the integer echelon rows
(:func:`_particular`, :func:`_nullspace`).

Contraction is a question about polynomials, not about a linear system.
The minimal polynomial of a vector v under M is read off the integer
vectors A^k v, k <= n, with A = s M integral: one ``SpanBasis`` of the
rows of [v, Av, ..., A^n v] holds its coefficients in the column after its
pivots (:func:`_minimal_polynomial`). The exact Schur-Cohn recursion then
decides whether all roots of a polynomial lie strictly inside the unit
circle. ``spectral_radius_lt_one`` applies that test to the unit vectors,
and ``analysis.state_sums`` to the final vector. The recursion runs
fraction-free as well: roots do not depend on the scale of a polynomial,
so ``schur_stable`` scales its input to coprime integers and each step
cross-multiplies instead of dividing by the leading coefficient, with the
content divided out. Series sums (``analysis``) call the same integer
recursion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

Vector = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce an int, string or Fraction to a canonical Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def zero_vector(dim: int) -> Vector:
    return (Fraction(0),) * dim


def unit_vector(dim: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot of vectors with lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def add_vectors(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def linear_combination(vectors_: Sequence[Sequence[Fraction]],
                       coeffs: Sequence[Fraction], dim: int) -> Vector:
    out = [Fraction(0)] * dim
    for c, v in zip(coeffs, vectors_):
        if c:
            for i, x in enumerate(v):
                out[i] += c * x
    return tuple(out)


class Matrix:
    """Immutable rational matrix with an explicit shape, stored as its nonzero entries.

    ``entries[i]`` maps each column of a nonzero entry of row i to its
    value, a nonzero ``Fraction``; treat it as read-only. ``Matrix(rows,
    ncols)`` takes dense rows and :meth:`from_entries` the entries
    themselves. The shape is fixed at construction; zero-row and zero-column
    matrices are legal (``ncols`` must then be given explicitly for empty
    row lists).
    """

    __slots__ = ("entries", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable], ncols: int | None = None):
        rows = [vector(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("rows have inconsistent lengths")
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols={ncols} does not match row width {width}")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.entries = tuple({j: x for j, x in enumerate(r) if x} for r in rows)
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def from_entries(cls, entries: Iterable[Mapping[int, object]], ncols: int) -> "Matrix":
        """The matrix whose row i holds the ``{column: value}`` map entries[i]
        and zeros elsewhere; zero values are dropped."""
        m = cls.__new__(cls)
        m.entries = tuple({j: y for j, x in row.items() if (y := frac(x))} for row in entries)
        if any(not 0 <= j < ncols for row in m.entries for j in row):
            raise ValueError(f"column index out of range for {ncols} columns")
        m.nrows, m.ncols = len(m.entries), ncols
        return m

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The dense rows, made on each call."""
        zero = Fraction(0)
        return tuple(tuple(_dense(row, self.ncols, zero)) for row in self.entries)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self.entries[j].get(i) == x for i, row in enumerate(self.entries)
            for j, x in row.items())

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        row = self.entries[i]
        if not -self.ncols <= j < self.ncols:
            raise IndexError("column index out of range")
        return row.get(j % self.ncols, Fraction(0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.ncols == other.ncols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self.rows)
        return f"Matrix([{body}], ncols={self.ncols})"


def _dense(row: Mapping[int, object], dim: int, zero=0) -> list:
    """The dense form of length dim of a ``{column: value}`` map, ``zero`` elsewhere."""
    line = [zero] * dim
    for j, x in row.items():
        line[j] = x
    return line


def vec_mat(v: Sequence[Fraction], m: Matrix) -> Vector:
    """Row vector times matrix, over the matrix's nonzero entries."""
    if len(v) != m.nrows:
        raise ValueError(f"vector length {len(v)} does not match {m.nrows} rows")
    out = [Fraction(0)] * m.ncols
    for vi, row in zip(v, m.entries):
        if vi:
            for j, x in row.items():
                out[j] += vi * x
    return tuple(out)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot column indices.

    The rows of m go into a :class:`SpanBasis`, whose canonical basis is the
    unique reduced echelon form of the row space (leading ones, pivot
    columns cleared above and below); zero rows pad it to m's shape.
    """
    span = SpanBasis(m.ncols)
    for r in m.rows:
        span.add(r)
    rows = span.basis
    rows += [zero_vector(m.ncols)] * (m.nrows - len(rows))
    return Matrix(rows, m.ncols), tuple(span._rows)


@dataclass(frozen=True)
class AffineSolution:
    """Full solution set of a consistent linear system: particular + span(nullspace)."""
    particular: Vector
    nullspace: tuple[Vector, ...]


def solve_affine(a: Matrix, b: Sequence[Fraction]) -> AffineSolution | None:
    """Solve A x = b exactly, returning the affine solution set or None.

    The rows of [A | b] go into a :class:`SpanBasis` (:func:`_particular`);
    a pivot in the last column means no solution. Otherwise the reduced
    echelon row with pivot p gives x_p = b_i - sum of its free entries
    times x_free, each read as one division of an integer row entry by the
    pivot entry (:func:`_nullspace`), so only the nonzero entries that the
    solution holds become Fractions.
    """
    b = vector(b)
    if len(b) != a.nrows:
        raise ValueError("right-hand side length does not match row count")
    n = a.ncols
    solved = _particular((r + (bi,) for r, bi in zip(a.rows, b)), n)
    if solved is None:
        return None
    particular, rows = solved
    return AffineSolution(particular, tuple(map(tuple, _nullspace(rows, n))))


def _particular(rows: Iterable[Sequence], n: int
                ) -> tuple[Vector, dict[int, dict[int, int]]] | None:
    """The solution of A x = b that is zero at every free unknown, or None.

    ``rows`` are the rows of [A | b] for n unknowns, with int or Fraction
    entries; they go into one :class:`SpanBasis`, and a pivot in column n
    means no solution. Otherwise x_p = b_i / row_i[p] on the reduced row
    with pivot p. Returns the solution with the span's sparse integer rows,
    keyed by pivot.
    """
    span = SpanBasis(n + 1)
    for r in rows:
        span.add(r)
    echelon = span._rows
    if n in echelon:
        return None
    x = [Fraction(0)] * n
    for p, row in echelon.items():
        bi = row.get(n)
        if bi:
            x[p] = Fraction(bi, row[p])
    return tuple(x), echelon


def _nullspace(echelon: dict[int, dict[int, int]], n: int) -> list[list[Fraction]]:
    """A basis of the solutions of A x = 0, from the echelon rows of [A | b] for n unknowns.

    One vector per free unknown f, in increasing f: 1 at f, and
    -row[f] / row[p] at the pivot p of each reduced row, so only the
    nonzero entries of the integer rows become Fractions.
    """
    zero = Fraction(0)
    nullspace = {f: [zero] * n for f in range(n) if f not in echelon}
    for f, v in nullspace.items():
        v[f] = Fraction(1)
    for p, row in echelon.items():
        for j, y in row.items():
            if j != p and j != n:
                nullspace[j][p] = Fraction(-y, row[p])
    return list(nullspace.values())


def determinant(m: Matrix) -> Fraction:
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    rows = [list(r) for r in m.rows]
    n = m.nrows
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def invert(m: Matrix) -> Matrix:
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    aug = Matrix([list(r) + [1 if i == j else 0 for j in range(n)]
                  for i, r in enumerate(m.rows)], 2 * n)
    red, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([r[n:] for r in red.rows], n)


def is_positive_definite(p: Matrix) -> bool:
    """Sylvester criterion: all leading principal minors strictly positive.

    Rejects non-symmetric input.
    """
    if not p.is_square():
        raise ValueError("positive definiteness of a non-square matrix")
    if not p.is_symmetric():
        raise ValueError("matrix is not symmetric")
    rows = p.rows
    for k in range(1, p.nrows + 1):
        minor = Matrix([r[:k] for r in rows[:k]], k)
        if determinant(minor) <= 0:
            return False
    return True


def schur_stable(coeffs: Sequence[Fraction]) -> bool:
    """Decide exactly whether all roots of a polynomial lie inside the unit circle.

    ``coeffs`` runs from the constant term up to a nonzero leading term; a
    root on the circle counts as unstable. The coefficients are scaled to
    coprime integers, which moves no root, and go to :func:`_schur_cohn`.
    """
    p = vector(coeffs)
    if not p or not p[-1]:
        raise ValueError("polynomial needs a nonzero leading coefficient")
    return _schur_cohn(_primitive(p))


def _schur_cohn(p: list[int]) -> bool:
    """Schur-Cohn recursion on integer coefficients, constant term first.

    A polynomial p of degree d with leading term l and constant term a_0 is
    stable iff |a_0| < |l| and (l p(z) - a_0 z^d p(1/z)) / z, of degree
    d - 1, is stable. That step is l^2 times the step on p / l, so it keeps
    the roots of the monic recursion while staying in the integers; its
    leading term l^2 - a_0^2 is positive whenever the test passes. The
    content of each step is divided out, or the coefficients would grow
    exponentially with the degree.
    """
    while len(p) > 1:
        lead, a0 = p[-1], p[0]
        if abs(a0) >= abs(lead):
            return False
        d = len(p) - 1
        p = [lead * p[j + 1] - a0 * p[d - 1 - j] for j in range(d)]
        g = gcd(*p)
        if g > 1:
            p = [x // g for x in p]
    return True


def spectral_radius_lt_one(m: Matrix) -> bool:
    """Decide exactly whether the powers of a square matrix converge to zero.

    M^k tends to zero iff M^k e_i does for every unit vector e_i, that is iff
    the minimal polynomial of each e_i under M is Schur-stable; each one is
    read off the integer vectors A^k e_i (:func:`_minimal_polynomial`). A
    unit vector inside the invariant space spanned by earlier Krylov vectors
    is skipped: its minimal polynomial divides theirs.
    """
    if not m.is_square():
        raise ValueError("spectral test of a non-square matrix")
    n = m.nrows
    action, scale = _integer_sum([m], n)
    covered = SpanBasis(n)
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        if covered.contains(e):
            continue
        powers = _powers(action, e, n + 1)
        mu = _minimal_polynomial(powers, scale)
        if not schur_stable(mu):
            return False
        for v in powers[:len(mu) - 1]:
            covered.add(v)
    return True


@dataclass(frozen=True)
class Constraint:
    """Affine constraint ``constant + coeffs . x  (>= 0 | = 0)``."""
    coeffs: Vector
    constant: Fraction
    equality: bool = False

    @classmethod
    def ge(cls, coeffs: Iterable, constant) -> "Constraint":
        return cls(vector(coeffs), frac(constant), False)

    @classmethod
    def eq(cls, coeffs: Iterable, constant) -> "Constraint":
        return cls(vector(coeffs), frac(constant), True)


def _normalize_row(co: Vector, c: Fraction) -> tuple[Vector, Fraction]:
    for v in co:
        if v:
            s = abs(v)
            return tuple(x / s for x in co), c / s
    return co, c


def _dedupe(rows: Iterable[tuple[Vector, Fraction]]) -> list[tuple[Vector, Fraction]] | None:
    """Normalise and deduplicate inequality rows; None signals infeasibility."""
    seen: set[tuple[Vector, Fraction]] = set()
    out = []
    for co, c in rows:
        co, c = _normalize_row(co, c)
        if not any(co):
            if c < 0:
                return None
            continue
        if (co, c) not in seen:
            seen.add((co, c))
            out.append((co, c))
    return out


def _fourier_motzkin(rows: list[tuple[Vector, Fraction]], k: int) -> Vector | None:
    """Feasible point of ``c + co . y >= 0`` rows via variable elimination."""
    system = _dedupe(rows)
    if system is None:
        return None
    eliminated: list[tuple[int, list, list]] = []
    for j in reversed(range(k)):
        pos = [rc for rc in system if rc[0][j] > 0]
        neg = [rc for rc in system if rc[0][j] < 0]
        rest = [rc for rc in system if rc[0][j] == 0]
        new_rows = list(rest)
        for cop, cp in pos:
            for con, cn in neg:
                fp = -con[j]
                fn = cop[j]
                co2 = tuple(fp * a + fn * b for a, b in zip(cop, con))
                c2 = fp * cp + fn * cn
                new_rows.append((co2, c2))
        system = _dedupe(new_rows)
        if system is None:
            return None
        eliminated.append((j, pos, neg))
    for _, c in system:
        if c < 0:
            return None
    assign = [Fraction(0)] * k
    for j, pos, neg in reversed(eliminated):
        lo = None
        hi = None
        for co, c in pos:
            val = -(c + sum(co[l] * assign[l] for l in range(j))) / co[j]
            lo = val if lo is None else max(lo, val)
        for co, c in neg:
            val = -(c + sum(co[l] * assign[l] for l in range(j))) / co[j]
            hi = val if hi is None else min(hi, val)
        if lo is not None and hi is not None and lo > hi:
            raise AssertionError("elimination produced an empty interval")
        if lo is not None:
            assign[j] = lo
        elif hi is not None:
            assign[j] = hi
    return tuple(assign)


def lp_feasible(constraints: Sequence[Constraint], n_vars: int | None = None) -> Vector | None:
    """Exact feasible point of a system of affine equalities and >= constraints.

    Equalities are removed first by exact substitution; the remaining
    inequalities go through Fourier-Motzkin elimination. Returns None iff
    the system is infeasible.
    """
    constraints = list(constraints)
    if n_vars is None:
        if not constraints:
            raise ValueError("n_vars is required when no constraints are given")
        n_vars = len(constraints[0].coeffs)
    if any(len(c.coeffs) != n_vars for c in constraints):
        raise ValueError("constraints must share one variable count")
    eqs = [c for c in constraints if c.equality]
    ineqs = [c for c in constraints if not c.equality]
    if eqs:
        sol = solve_affine(Matrix([c.coeffs for c in eqs], n_vars),
                           [-c.constant for c in eqs])
        if sol is None:
            return None
        part, null = sol.particular, list(sol.nullspace)
    else:
        part, null = zero_vector(n_vars), [unit_vector(n_vars, i) for i in range(n_vars)]
    k = len(null)
    rows = []
    for c in ineqs:
        const = c.constant + dot(c.coeffs, part)
        co = tuple(dot(c.coeffs, null[l]) for l in range(k))
        rows.append((co, const))
    y = _fourier_motzkin(rows, k)
    if y is None:
        return None
    return add_vectors(part, linear_combination(null, y, n_vars))


def _primitive(v: Iterable) -> list[int]:
    """The coprime integer vector with the direction and sign of v (zero stays zero).

    Entries may be ints or Fractions; ``denominator`` and ``numerator``
    serve both.
    """
    v = list(v)
    scale = lcm(*(x.denominator for x in v))
    w = [x.numerator * (scale // x.denominator) for x in v]
    g = gcd(*w)
    return w if g <= 1 else [x // g for x in w]


def _primitive_with_factor(v: Sequence) -> tuple[list[int], Fraction]:
    """The primitive vector w of v and the positive f with v = f w (f = 1 at zero)."""
    w = _primitive(v)
    i = next((i for i, x in enumerate(w) if x), None)
    return w, Fraction(1) if i is None else Fraction(v[i]) / w[i]


class SpanBasis:
    """Row space with incremental insertion, kept in reduced echelon form.

    Inside, each echelon row is a primitive integer vector, positive at its
    pivot and zero at every other pivot, stored as its nonzero entries only:
    ``_rows`` maps each pivot, in increasing order, to a ``{column: int}``
    dict. The rows stay reduced, and reduced rows stay sparse: clearing
    every pivot keeps out the fill-in that a forward-only echelon collects.

    No row touches another row's pivot, so an incoming vector v meets the
    row with pivot p with the coefficient v[p] / row[p], in whatever order
    the rows are taken. :meth:`_reduce` therefore scales v once, by the
    least integer that makes each of these coefficients integral, and
    subtracts only the rows at the pivots in v's support, each on its
    nonzero entries; v itself may come sparse, so a vector costs its own
    nonzero entries and never the dimension. ``add`` divides the content
    out once, clears the new pivot from the rows that hold it and returns
    the new row. No Fraction is made until ``basis`` turns the rows into
    the canonical reduced echelon form.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict[int, int]] = {}

    def _reduce(self, v: Iterable | dict[int, int]) -> dict[int, int]:
        """A positive integer multiple of v minus its part in the span, sparse.

        v is a dense vector of ints or Fractions, or a ``{column: int}``
        dict of nonzero integer entries, which is read and not changed. The
        result is zero at every pivot; its content is not divided out.
        """
        if type(v) is dict:
            g = gcd(*v.values())
            if g > 1:
                v = {j: x // g for j, x in v.items()}
        else:
            w = _primitive(v)
            if len(w) != self.dim:
                raise ValueError(f"vector length {len(w)} does not match dimension {self.dim}")
            v = {j: x for j, x in enumerate(w) if x}
        rows = self._rows
        hits = [(x, row, row[j]) for j, x in v.items() if (row := rows.get(j))]
        if not hits:
            return v
        scale = 1
        for x, _, a in hits:
            if a != 1:
                scale = lcm(scale, a // gcd(a, x))
        acc = {j: scale * x for j, x in v.items()} if scale != 1 else dict(v)
        get = acc.get
        for x, row, a in hits:
            c = x * scale // a
            for j, y in row.items():
                acc[j] = get(j, 0) - c * y
        return {j: z for j, z in acc.items() if z}

    def contains(self, v: Iterable | dict[int, int]) -> bool:
        return not self._reduce(v)

    def add(self, v: Iterable | dict[int, int]) -> dict[int, int] | None:
        """Insert v; the new echelon row, or None when v is in the span already.

        The row is v reduced against the rows already there and divided by
        its content, positive at its pivot. Later insertions replace rows
        rather than change them, so it stays as returned; a dict v may
        become the row itself, so the caller must not change it afterwards.
        """
        new = self._reduce(v)
        if not new:
            return None
        pivot = min(new)
        g = gcd(*new.values()) if new[pivot] > 0 else -gcd(*new.values())
        if g != 1:
            new = {j: x // g for j, x in new.items()}
        a = new[pivot]
        rows = self._rows
        for p, row in rows.items():
            if p > pivot:
                break
            c = row.get(pivot)
            if c:
                rows[p] = _clear(row, a, c, new)
        last = next(reversed(rows), -1)
        rows[pivot] = new
        if pivot < last:
            self._rows = dict(sorted(rows.items()))
        return new

    @property
    def dimension(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> list[Vector]:
        """The reduced echelon rows, in pivot order, with leading ones."""
        zero = Fraction(0)
        return [tuple(_dense({j: Fraction(y, row[p]) for j, y in row.items()}, self.dim, zero))
                for p, row in self._rows.items()]

    @property
    def integer_rows(self) -> list[list[int]]:
        """The primitive integer echelon rows, dense, in pivot order."""
        return [_dense(row, self.dim) for row in self._rows.values()]


def _clear(row: dict[int, int], a: int, c: int, new: dict[int, int]) -> dict[int, int]:
    """The primitive multiple of a row - c new, sparse, for a = new's pivot entry > 0.

    With c the entry of row at new's pivot, the result vanishes there; it
    keeps row's pivot and its sign, and is zero wherever both are.
    """
    g = gcd(a, c)
    a, c = a // g, c // g
    out = dict(row) if a == 1 else {j: a * y for j, y in row.items()}
    for j, y in new.items():
        x = out.get(j, 0) - c * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values())
    return out if g == 1 else {j: y // g for j, y in out.items()}


_Action = list[list[tuple[int, int]]]


def _integer_actions(letters: Sequence[Sequence[Matrix]], left: bool
                     ) -> tuple[list[_Action], int]:
    """Block-diagonal letter matrices as sparse integer maps, with their common scale.

    ``letters[k]`` lists the diagonal blocks of letter k's matrix M_k. Each
    map holds, per input coordinate j, the (output coordinate, coefficient)
    pairs that j scatters to under v -> s M_k v (``left``) or v -> s v M_k,
    where the positive integer s clears every denominator of every letter,
    so pushing a sparse vector (:func:`_push`) costs its nonzero entries
    times their column degrees. One scale for all letters keeps each pushed
    vector a positive multiple of the exact one, which is all a span
    closure or a sign-free zero test needs. Only the nonzero entries of
    each block are read: as columns of M_k, with the indices swapped, for
    ``left``, and as its rows otherwise. Returns the maps, in the order of
    ``letters``, and s.
    """
    scale = lcm(*(x.denominator for blocks in letters for m in blocks
                  for row in m.entries for x in row.values()))
    actions = []
    for blocks in letters:
        terms: _Action = []
        offset = 0
        for m in blocks:
            if left:
                lines: _Action = [[] for _ in range(m.ncols)]
                for i, row in enumerate(m.entries, offset):
                    for j, x in row.items():
                        lines[j].append((i, x.numerator * (scale // x.denominator)))
            else:
                lines = [[(offset + j, x.numerator * (scale // x.denominator))
                          for j, x in row.items()] for row in m.entries]
            terms += lines
            offset += m.nrows
        actions.append(terms)
    return actions, scale


def _push(action: _Action, v: dict[int, int]) -> dict[int, int]:
    """The image of a sparse integer vector under a map of :func:`_integer_actions`,
    as its nonzero entries."""
    out: dict[int, int] = {}
    get = out.get
    for j, x in v.items():
        for i, c in action[j]:
            out[i] = get(i, 0) + c * x
    return {i: y for i, y in out.items() if y}


def _integer_sum(matrices: Sequence[Matrix], n: int) -> tuple[_Action, int]:
    """The sum M of n x n matrices as a sparse integer map, with its scale.

    Returns the map v -> A v with A = s M and the least positive integer s
    that makes A integral, so an integer vector pushed k times through the
    map is s^k times its exact image. Only nonzero entries are read. Unlike
    the maps of :func:`_integer_actions`, this one holds per output
    coordinate i the (input coordinate, coefficient) pairs that i gathers,
    for the dense vectors that :func:`_powers` takes.
    """
    scale = lcm(*(x.denominator for m in matrices for row in m.entries for x in row.values()))
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for m in matrices:
        for row, line in zip(rows, m.entries):
            for j, x in line.items():
                row[j] = row.get(j, 0) + x.numerator * (scale // x.denominator)
    g = gcd(scale, *(c for row in rows for c in row.values()))
    return [[(j, c // g) for j, c in row.items() if c] for row in rows], scale // g


def _powers(action: _Action, v: list[int], count: int) -> list[list[int]]:
    """The vectors A^k v, k < count, for the integer map A of ``action``."""
    powers = []
    for _ in range(count):
        powers.append(v)
        v = [sum([c * v[j] for j, c in terms]) for terms in action]
    return powers


def _minimal_polynomial(powers: Sequence[list[int]], scale: int) -> Vector:
    """Monic minimal polynomial of v under M, from the integer vectors A^k v.

    ``powers`` holds A^k v for k = 0..n, where n is the length of v and
    A = scale M. The n rows of the matrix whose columns they are go into one
    :class:`SpanBasis`. Once a Krylov vector depends on the earlier ones,
    every later one does, so the pivots are the columns 0..d-1, d the degree
    of the polynomial, and the reduced row with pivot i holds at column d
    the coefficient alpha_i of A^d v = sum_i alpha_i A^i v. As A^k = s^k M^k,
    the coefficient of z^i in the polynomial is -alpha_i / s^(d-i). The
    coefficients run from the constant term up.
    """
    span = SpanBasis(len(powers))
    for row in zip(*powers):
        span.add(row)
    d = span.dimension
    return tuple(Fraction(-row.get(d, 0), row[i] * scale ** (d - i))
                 for i, row in span._rows.items()) + (Fraction(1),)


def _closure(span: SpanBasis, start: Iterable, actions: Sequence[_Action]
             ) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """Breadth-first closure of a vector under integer maps, through ``span.add``.

    ``span`` starts empty, and ``actions`` hold per input coordinate the
    (output coordinate, coefficient) pairs of integer maps, as
    :func:`_integer_actions` builds them. Each vector that enlarges the span
    contributes the echelon row that ``span.add`` returns: the vector
    reduced against the rows already there and divided by its content.
    That sparse row, not the vector, is pushed through each map
    (:func:`_push`), in order, and its sparse images join the queue.
    Yields each new row, with the path of map indices that reached it, as
    ``span.add`` returns it and before pushing it, so a caller may stop at
    any row; the paths come out in length-lexicographic order, and once the
    generator is exhausted the span holds every image of ``start`` under
    any product of the maps.

    The paths and the span after each of them are those of pushing the
    images x(path) of ``start`` themselves. By induction, the row r of an
    accepted path is c x(path), c != 0, plus a combination of the x of the
    paths accepted before it. In breadth-first order, every image of those
    earlier x has been tested, and so lies in the span, by the time an
    image of r is, so A r lies in the span exactly when A x(path) does. A
    reduced echelon form depends only on its span, so every row is the
    same too.
    """
    queue = deque([((), start)])
    while queue:
        path, v = queue.popleft()
        row = span.add(v)
        if row is not None:
            yield path, row
            queue.extend((path + (k,), _push(action, row)) for k, action in enumerate(actions))
