"""Exact linear algebra over arbitrary-precision rationals.

Every scalar at the boundary is a ``fractions.Fraction``, so each result is
exact and every decision procedure here (rank, solvability, definiteness,
contraction, feasibility) is free of rounding. A ``Matrix`` stores only
its nonzero entries, one ``{column: Fraction}`` dict per row, which
``vec_mat`` reads; the dense rows are made on demand, for the
eliminations that work on them. No decision about an automaton builds
one: its span closures and sums read the sparse integer letter maps
(``_Action``) of the automaton's integer form (``automata._IntegerForm``).

Elimination runs fraction-free, on one kernel. Span membership does not
depend on the scale of a vector, so :class:`SpanBasis` keeps its echelon
rows as primitive integer vectors. The echelon rows are stored sparse, as
their nonzero entries: kept fully reduced they stay sparse, so a vector is
reduced only against the rows at the pivots in its support, each on its
own nonzero entries, and a new pivot is cleared only from the rows that
hold it. A span closure (:func:`_closure`) pushes, for each vector that
enlarges the span, the sparse row it added rather than the vector, whose
entries grow with the length of its word, through integer letter maps
stored per input coordinate, so an image costs the row's nonzero entries
times their column degrees. The
rows are the canonical reduced echelon form up to scale, which is unique, so
``SpanBasis.basis``, their ``Fraction`` form, and every result built on
them are the same as with ``Fraction`` rows throughout. ``rref`` is that
basis for the rows of a matrix; ``solve_affine`` reads its solution off
the sparse integer rows directly, with one ``Fraction`` per nonzero entry
it returns, so ``invert`` runs on the same rows. Every cone question,
c >= 0 with A c = b, runs on one fraction-free phase-one simplex with
Bland's rule (:func:`_simplex`) over the rows of [A | b] themselves, with
no solve or nullspace first; it returns a point or a Farkas vector.
``lp_feasible`` is its public face, through the standard form.
``is_positive_definite`` runs the simplex's row operation
(:func:`_eliminated`) too, once down the diagonal.

A large span closure can run mod a 61-bit prime instead
(:func:`_certified_closure`), on the same :func:`_closure` loop with a
span mod p in semi-echelon form (:class:`_ModularSpan`), where no entry
grows. Each of its vectors is packed into one int, a fixed-width slot per
column wide enough that no slot carries into the next, so reducing a
vector against a row is one big-integer multiply-add and no row is ever
changed once added. The rank mod p never exceeds the rank over the
rationals, so the loop stops as soon as the span holds a row per column:
the span is then everything. Below full rank the rows are reduced once,
rebuilt as rationals and accepted only after an exact check
(:func:`_closes`): the start vector and every row's image under every map
must lie in their row space. Rows that pass are the unique reduced echelon
form of the exact span, the rows ``SpanBasis`` builds; when the rebuild or
the check fails, the exact closure runs. The result is the same in every
case. Both span closures of ``reduction.hankel_rank`` take this path: the
backward one (``equivalence._backward_closure``) once the quotient it
closes, its direct sum merged by the coarsest backward lumping, has
``equivalence.MODULAR_MIN_DIM`` dimensions, and the forward one once the
span of the backward rows has as many.

Contraction is a question about polynomials, not about a linear system.
The minimal polynomial of a vector v under M is read off the integer
vectors A^k v, k <= n, with A = s M integral: one ``SpanBasis`` of the
rows of [v, Av, ..., A^n v] holds its coefficients in the column after its
pivots, and :func:`_minimal_polynomial` returns them as the coprime
integer connection polynomial of the A^k v. The exact Schur-Cohn
recursion then decides whether all roots of a polynomial lie strictly
inside the unit circle. It runs fraction-free as well: roots do not
depend on the scale of a polynomial, so each step cross-multiplies
instead of dividing by the leading coefficient, with the content divided
out (:func:`_schur_cohn`). Every sum goes through one integer evaluation
beside it (:func:`_sum_weights`): from a connection polynomial and the
scale it runs the test and returns integer weights that sum the
sequence, scalars or vectors alike. The series sums and state sums of ``analysis`` read
their values off those weights, and ``spectral_radius_lt_one``, on the
unit vectors, only its verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

Vector = tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce an int, string or Fraction to a canonical Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(entries: Iterable) -> Vector:
    return tuple(frac(x) for x in entries)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dot of vectors with lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


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
    rows += [(Fraction(0),) * m.ncols] * (m.nrows - len(rows))
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
    """Sylvester's criterion, read off one fraction-free elimination.

    Each row is scaled to its primitive integer row (:func:`_primitive`), a
    positive multiple, and the columns are eliminated in order with no row
    exchange (:func:`_eliminated`). Every row stays a positive multiple of
    its row in the Schur complement, so while the pivots before it are
    positive, the k-th pivot has the sign of D_k / D_(k-1), D_k the k-th
    leading principal minor: all minors are positive iff every pivot is.
    Rejects non-symmetric input.
    """
    if not p.is_square():
        raise ValueError("positive definiteness of a non-square matrix")
    if not p.is_symmetric():
        raise ValueError("matrix is not symmetric")
    rows = [_primitive(r) for r in p.rows]
    for k, pivot in enumerate(rows):
        a = pivot[k]
        if a <= 0:
            return False
        for i in range(k + 1, len(rows)):
            if c := rows[i][k]:
                rows[i] = _eliminated(rows[i], a, c, pivot)
    return True


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


def _sum_weights(c: Sequence[int], scale: int) -> tuple[list[int], int] | None:
    """The integer weights W and denominator D that sum a sequence through
    its minimal recurrence, or None when the sum diverges.

    ``c`` is the integer connection polynomial of a sequence u_k of
    scalars or vectors, c[0] != 0, of order L = len(c) - 1:
    sum_j c_j u_(k-j) = 0 for every k >= L, and no shorter one holds. With
    s = ``scale``, the sum of u_k / s^k converges iff every root of
    char(z) = sum_j c_j s^(L-j) z^(L-j) lies strictly inside the unit
    circle (:func:`_schur_cohn`), and then equals sum_(i<L) W_i u_i / D with
    W_i = sum_(j<L-i) c_j s^(L-i-j) and D = char(1). One Horner pass makes
    every W_i, so the numerator costs O(L) products; D has the sign of c[0]
    whenever char is stable.
    """
    char = [x * scale ** j for j, x in enumerate(reversed(c))]
    if not _schur_cohn(char):
        return None
    horner = accumulate(c[:-1], lambda h, x: h * scale + x)
    return [h * scale for h in horner][::-1], sum(char)


def spectral_radius_lt_one(m: Matrix) -> bool:
    """Decide exactly whether the powers of a square matrix converge to zero.

    M^k tends to zero iff M^k e_i does for every unit vector e_i, that is iff
    the minimal polynomial of each e_i under M is Schur-stable; each one is
    read off the integer vectors A^k e_i (:func:`_minimal_polynomial`) and
    tested by :func:`_sum_weights`, the test that every sum takes. A
    unit vector inside the invariant space spanned by earlier Krylov vectors
    is skipped: its minimal polynomial divides theirs.
    """
    if not m.is_square():
        raise ValueError("spectral test of a non-square matrix")
    n = m.nrows
    scale = lcm(*(x.denominator for row in m.entries for x in row.values()))
    action, scale = _integer_sum([[[(j, x.numerator * (scale // x.denominator))
                                    for j, x in row.items()] for row in m.entries]], n, scale)
    covered = SpanBasis(n)
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        if covered.contains(e):
            continue
        powers = _powers(action, e, n + 1)
        c = _minimal_polynomial(powers)
        if _sum_weights(c, scale) is None:
            return False
        for v in powers[:len(c) - 1]:
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


def _simplex(rows: Iterable[Sequence], n: int) -> tuple[bool, tuple]:
    """A point c >= 0 with A c = b, or a Farkas vector that proves there is none.

    ``rows`` are the rows of [A | b] for n unknowns, with int or Fraction
    entries. Returns (True, c), c a vertex of the feasible set as
    Fractions, or (False, y), y an integer vector with one entry per row,
    y . A_j >= 0 at every column j and y . b < 0.

    Phase one of the simplex method, fraction-free. Each row is scaled to
    its coprime integer row, its sign flipped so that b >= 0; rows that are
    zero throughout are dropped. Each kept row gets an artificial column,
    and the basis starts as those. The phase-one costs weigh the rows as
    they stand in the tableau, so a row given at another positive scale,
    such as a Fraction row and its primitive integer row, starts the same
    tableau and reaches the same vertex.
    Every tableau row stays a positive multiple of its true row: pivoting
    on a positive entry a_pq sets row_i to a_pq row_i - a_iq row_p with the
    content divided out (:func:`_eliminated`), so the ratio test, done by
    cross-multiplication, and every sign read are those of the true
    tableau. The objective row starts as minus the sum of the rows,
    artificial columns included, and takes the same pivots: up to a
    positive scale it stays -y [A | I | b], y the row multipliers of the
    phase-one costs, so its structural entries are the reduced costs of
    the phase-one objective and its artificial entries are -y.

    Bland's rule keeps the method finite: the entering column is the
    lowest structural one with a negative reduced cost, and a tie in
    leaving goes to the lowest basic index, structural columns before
    artificial ones. An artificial column that leaves never enters again,
    which only removes it from the problem. Once no reduced cost is
    negative, the problem is infeasible iff the objective row's right-hand
    side -y . b is nonzero; -y, read off the artificial columns and scaled
    back to the given rows, is then the Farkas vector. Otherwise x_j =
    rhs_i / T[i][j] at each basic structural column j, and 0 elsewhere: the
    vertex that Bland's rule reaches from the all-artificial basis, which
    depends only on the directions of the rows and the order of the
    columns. Where only one point is feasible, that is it.
    """
    rows = list(rows)
    tableau, scales = [], []
    for i, row in enumerate(rows):
        if all(type(x) is int for x in row):
            r, d = row, 1
        else:
            d = lcm(*[x.denominator for x in row])
            r = [x.numerator * (d // x.denominator) for x in row]
        g = -gcd(*r) if r[n] < 0 else gcd(*r)
        if not g:
            continue
        # the tableau row is d / g times the given row
        scales.append((i, d, g))
        tableau.append(list(r) if g == 1 else [x // g for x in r])
    m = len(tableau)
    for k, r in enumerate(tableau):
        r[n:n] = [0] * m
        r[n + k] = 1
    obj = [-sum(column) for column in zip(*tableau)] if tableau else [0] * (n + 1)
    basis = list(range(n, n + m))
    while True:
        for q in range(n):
            if obj[q] < 0:
                break
        else:
            break
        # the phase-one objective is bounded below, so some entry is positive
        p = pa = pb = None
        for i, r in enumerate(tableau):
            a = r[q]
            if a > 0:
                if p is not None:
                    lhs, rhs = r[-1] * pa, pb * a
                    if lhs > rhs or lhs == rhs and basis[i] > basis[p]:
                        continue
                p, pa, pb = i, a, r[-1]
        pivot = tableau[p]
        for i, r in enumerate(tableau):
            if i != p and r[q]:
                tableau[i] = _eliminated(r, pa, r[q], pivot)
        obj = _eliminated(obj, pa, obj[q], pivot)
        basis[p] = q
    if obj[-1]:
        y = [0] * len(rows)
        common = lcm(*(g for _, _, g in scales))
        for k, (i, d, g) in enumerate(scales):
            y[i] = d * (common // g) * obj[n + k]
        return False, tuple(y)
    x = [Fraction(0)] * n
    for r, j in zip(tableau, basis):
        if j < n:
            x[j] = Fraction(r[-1], r[j])
    return True, tuple(x)


def _eliminated(row: list[int], a: int, c: int, pivot: list[int]) -> list[int]:
    """The primitive multiple of a row - c pivot, for a > 0 the pivot row's
    entry in the column where the row holds c: zero there, and a positive
    multiple of the row minus its part along the pivot row."""
    g = gcd(a, c)
    if g > 1:
        a, c = a // g, c // g
    out = [a * x - c * y for x, y in zip(row, pivot)]
    g = gcd(*out)
    return out if g <= 1 else [x // g for x in out]


def lp_feasible(constraints: Sequence[Constraint], n_vars: int | None = None) -> Vector | None:
    """Exact feasible point of a system of affine equalities and >= constraints.

    The system goes to :func:`_simplex` in standard form: x = u - v with
    u, v >= 0, and one slack s >= 0 per inequality, which reads
    coeffs . x - s = -constant. Returns None iff the system is infeasible.
    Where several points are feasible, the point is the vertex of the
    standard form that the simplex reaches, read back as x = u - v.
    """
    constraints = list(constraints)
    if n_vars is None:
        if not constraints:
            raise ValueError("n_vars is required when no constraints are given")
        n_vars = len(constraints[0].coeffs)
    if any(len(c.coeffs) != n_vars for c in constraints):
        raise ValueError("constraints must share one variable count")
    slacks = [i for i, c in enumerate(constraints) if not c.equality]
    rows = [[*c.coeffs, *(-x for x in c.coeffs), *(-int(i == s) for s in slacks), -c.constant]
            for i, c in enumerate(constraints)]
    feasible, point = _simplex(rows, 2 * n_vars + len(slacks))
    return tuple(u - v for u, v in zip(point, point[n_vars:2 * n_vars])) if feasible else None


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


# A sparse integer map: per input coordinate j, the (output coordinate,
# coefficient) pairs that j scatters to, so that pushing a sparse vector
# (_push) costs its nonzero entries times their column degrees. The integer
# form of an automaton (automata._IntegerForm) holds its letter maps so.
_Action = list[list[tuple[int, int]]]


def _push(action: _Action, v: dict[int, int]) -> dict[int, int]:
    """The image of a sparse integer vector under a map, as its nonzero entries."""
    out: dict[int, int] = {}
    get = out.get
    for j, x in v.items():
        for i, c in action[j]:
            out[i] = get(i, 0) + c * x
    return {i: y for i, y in out.items() if y}


def _turned(action: _Action) -> _Action:
    """A square map turned round: the (input coordinate, coefficient) pairs
    that each output coordinate gathers, or the other way about."""
    lines: _Action = [[] for _ in action]
    for j, pairs in enumerate(action):
        for i, c in pairs:
            lines[i].append((j, c))
    return lines


def _integer_sum(actions: Sequence[_Action], n: int, scale: int) -> tuple[_Action, int]:
    """The sum M of n x n matrices as a sparse integer map, with its scale.

    ``actions`` hold the maps v -> s v M_k with one scale s, per input
    coordinate i the (output coordinate j, s M_k[i][j]) pairs, so row i of
    s M_k. Returns the map v -> A v with A = t M and t the least positive
    integer that makes A integral, held per output coordinate i as the
    (input coordinate, coefficient) pairs that i gathers, for the dense
    vectors that :func:`_powers` takes; an integer vector pushed k times
    through it is t^k times its exact image.
    """
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for action in actions:
        for row, pairs in zip(rows, action):
            for j, c in pairs:
                row[j] = row.get(j, 0) + c
    g = gcd(scale, *(c for row in rows for c in row.values()))
    return [[(j, c // g) for j, c in row.items() if c] for row in rows], scale // g


def _powers(action: _Action, v: list[int], count: int) -> list[list[int]]:
    """The vectors A^k v, k < count, for the integer map A of ``action``."""
    powers = []
    for _ in range(count):
        powers.append(v)
        v = [sum([c * v[j] for j, c in terms]) for terms in action]
    return powers


def _minimal_polynomial(powers: Sequence[list[int]]) -> list[int]:
    """Integer connection polynomial of the Krylov vectors A^k v.

    ``powers`` holds A^k v for k = 0..n, where n is the length of v. The n
    rows of the matrix whose columns they are go into one
    :class:`SpanBasis`. Once a Krylov vector depends on the earlier ones,
    every later one does, so the pivots are the columns 0..d-1, d the degree
    of the minimal polynomial of v under A, and the reduced row with pivot i
    holds its entry r_i at the pivot and e_i at column d, so that
    r_i x_i = -e_i for the x with A^d v + sum_i x_i A^i v = 0. Returns the
    coprime integer c, c[0] > 0, with sum_j c_j A^(d-j) v = 0: c[0] is the
    least common multiple of the r_i and c[d-i] = c[0] x_i. For A = s M,
    sum_j c_j s^(d-j) z^(d-j) is then proportional to the minimal
    polynomial of v under M.
    """
    span = SpanBasis(len(powers))
    for row in zip(*powers):
        span.add(row)
    d = span.dimension
    lead = lcm(*(row[i] for i, row in span._rows.items()))
    c = [lead] + [-row.get(d, 0) * (lead // row[i]) for i, row in reversed(span._rows.items())]
    g = gcd(*c)
    return [x // g for x in c]


def _closure(span: SpanBasis | _ModularSpan, start: Iterable, actions: Sequence, push=_push
             ) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """Breadth-first closure of a vector under integer maps, through ``span.add``.

    ``span`` starts empty, with ``dim`` columns. ``push(action, row)`` is
    the image of a row under one of ``actions``: by default :func:`_push`,
    for maps that hold per input coordinate the (output coordinate,
    coefficient) pairs (``_Action``), and
    :func:`_packed_push` for the packed maps of a :class:`_ModularSpan`.
    Each vector that enlarges the span contributes the echelon row that
    ``span.add`` returns: the vector reduced against the rows already
    there and divided by its content, or made monic mod p. That sparse
    row, not the vector, is pushed through each map, in order, and its
    images join the queue.
    Yields each new row, with the path of map indices that reached it, as
    ``span.add`` returns it and before pushing it, so a caller may stop at
    any row; the paths come out in length-lexicographic order. The loop
    returns once the span holds ``dim`` rows, since every later vector
    lies in it, and once the generator is exhausted the span holds every
    image of ``start`` under any product of the maps.

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
            if span.dimension == span.dim:
                return
            queue.extend((path + (k,), push(action, row)) for k, action in enumerate(actions))


# The prime of the modular span closure (_certified_closure), and the bound
# on |a| and b of the fractions a / b that _rational rebuilds mod a prime:
# 2 _HEIGHT^2 < _PRIME makes the fraction unique when it exists.
_PRIME = 2 ** 61 - 1
_HEIGHT = 1 << 30


def _rational(u: int, p: int) -> tuple[int, int] | None:
    """The a / b with a = u b mod p, |a| and 0 < b below ``_HEIGHT``, or None.

    The half-extended Euclidean algorithm on p and u stops at the first
    remainder below the bound; the cofactor there is the denominator. A
    value a / b within the bounds is the only one, so a mismatch can only
    come from a true value outside them.
    """
    r0, r1, t0, t1 = p, u % p, 0, 1
    while r1 >= _HEIGHT:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) < _HEIGHT or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


class _ModularSpan:
    """A span mod the prime p in semi-echelon form, packed, for :func:`_closure` to drive.

    A vector mod p is one int with its entry at column j in the
    ``width``-bit slot from bit j * width on, paired with a mask of the
    columns where it may be nonzero. A row is monic at its pivot, the
    first column where it is nonzero mod p, and zero mod p at the pivots
    of the rows before it; its slots hold its entries in [0, p). ``add``
    meets the rows in the order they came, each only where the vector's
    mask holds its pivot: with c the vector's entry there mod p, adding
    (p - c) times the row clears that entry mod p, and no earlier pivot,
    in one big-integer multiply-add. No entry is taken mod p until the
    end, and no row is changed afterwards. The first column without a
    pivot where the result is nonzero mod p becomes the new pivot, and
    the result made monic there, each entry taken mod p, the new row; no
    such column means the vector is in the span, and ``add`` returns None,
    as ``SpanBasis.add`` does. The new row comes back as its nonzero
    ``{column: int}`` entries, for :func:`_packed_push`.

    A slot holds 2 dim (p - 1)^2, so none carries into the next: an image
    of a row (:meth:`packed`) sums at most ``dim`` products of two
    entries below p, and a vector meets at most ``dim`` rows, each adding
    at most (p - 1)^2. :meth:`reduced` turns the rows into the reduced
    echelon form that :func:`_lift` takes, for a closure that stays below
    full rank.
    """

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self.width = 8 * ((2 * dim * (p - 1) ** 2).bit_length() // 8 + 1)
        self._rows: list[tuple[int, int, int]] = []  # (pivot, packed row, mask)
        self._free = (1 << dim) - 1  # the columns with no pivot

    def _pack(self, entries: Mapping[int, int]) -> tuple[int, int]:
        """The packed vector and mask of ``{column: int}`` entries in [0, p)."""
        width, packed, mask = self.width, 0, 0
        for j, x in entries.items():
            packed |= x << j * width
            mask |= 1 << j
        return packed, mask

    def vector(self, v: Iterable) -> tuple[int, int]:
        """A dense vector, packed: scaled to a primitive integer vector
        first, so that no denominator needs an inverse, and taken mod p."""
        p = self.p
        return self._pack({j: r for j, x in enumerate(_primitive(v)) if (r := x % p)})

    def packed(self, actions: Sequence[_Action]) -> list[list[tuple[int, int]]]:
        """Integer maps mod p, each as the packed image of every unit vector."""
        p = self.p
        maps = []
        for action in actions:
            images = []
            for pairs in action:
                line: dict[int, int] = {}
                for i, c in pairs:
                    line[i] = (line.get(i, 0) + c) % p
                images.append(self._pack(line))
            maps.append(images)
        return maps

    def _reduce(self, v: int, mask: int, rows: Iterable[tuple[int, int, int]]
                ) -> tuple[int, int]:
        """v plus the multiples of ``rows``, in order, that clear its entry
        mod p at each of their pivots, with its mask."""
        p, width = self.p, self.width
        slot = (1 << width) - 1
        for pivot, row, row_mask in rows:
            if mask >> pivot & 1:
                c = (v >> pivot * width & slot) % p
                if c:
                    v += (p - c) * row
                    mask |= row_mask
        return v, mask

    def add(self, v: tuple[int, int]) -> dict[int, int] | None:
        p, size = self.p, self.width // 8
        v, mask = self._reduce(*v, self._rows)
        data = v.to_bytes(self.dim * size, "little")
        free = mask & self._free
        while free:
            pivot = (free & -free).bit_length() - 1
            lead = int.from_bytes(data[pivot * size:(pivot + 1) * size], "little") % p
            if lead:
                break
            free &= free - 1
        else:
            return None
        self._free ^= 1 << pivot
        inv = pow(lead, -1, p)
        new = {}
        for j in range(pivot, self.dim):
            if mask >> j & 1:
                x = int.from_bytes(data[j * size:(j + 1) * size], "little") * inv % p
                if x:
                    new[j] = x
        self._rows.append((pivot, *self._pack(new)))
        return new

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def reduced(self) -> dict[int, dict[int, int]]:
        """The monic reduced echelon rows mod p, keyed by pivot in increasing order.

        A row vanishes mod p before its pivot, so from the last pivot up,
        each row meets only the rows after it, already reduced.
        """
        p, width = self.p, self.width
        slot = (1 << width) - 1
        done: list[tuple[int, int, int]] = []
        out: dict[int, dict[int, int]] = {}
        for pivot, v, mask in sorted(self._rows, reverse=True):
            v, mask = self._reduce(v, mask, done)
            out[pivot] = new = {j: x for j in range(pivot, self.dim)
                                if mask >> j & 1 and (x := (v >> j * width & slot) % p)}
            done.append((pivot, *self._pack(new)))
        return dict(reversed(out.items()))


def _packed_push(action: list[tuple[int, int]], row: dict[int, int]) -> tuple[int, int]:
    """The packed image of a row of :class:`_ModularSpan` under a map of
    :meth:`_ModularSpan.packed`: its entries times the images of the unit
    vectors, summed, with the union of their masks."""
    image = mask = 0
    for j, x in row.items():
        column, support = action[j]
        image += x * column
        mask |= support
    return image, mask


def _lift(rows: dict[int, dict[int, int]], p: int) -> dict[int, dict[int, int]] | None:
    """Integer rows, keyed by pivot, that reconstruct monic reduced rows mod p, or None.

    Each entry becomes a rational (:func:`_rational`), each row the
    primitive integer row of those values, positive at its pivot, where
    the value is 1. Entries that vanish mod p stay absent, so the rows are
    zero at every other pivot, as reduced echelon rows are. None when an
    entry has no reconstruction.
    """
    lifted: dict[int, dict[int, int]] = {}
    for pivot, row in rows.items():
        values = {}
        for j, u in row.items():
            value = (1, 1) if j == pivot else _rational(u, p)
            if value is None:
                return None
            values[j] = value
        scale = lcm(*(b for _, b in values.values()))
        ints = {j: a * (scale // b) for j, (a, b) in values.items()}
        g = gcd(*ints.values())
        lifted[pivot] = ints if g == 1 else {j: x // g for j, x in ints.items()}
    return lifted


def _closes(span: SpanBasis, start: Iterable, actions: Sequence[_Action]) -> bool:
    """Whether the row space of ``span`` holds ``start`` and its own image under every map.

    The exact certificate of a span closure: such a row space contains
    every image of ``start`` under any product of the maps. Membership is
    the rows' own reduction (``SpanBasis.contains``), which needs no solve,
    since the rows are zero at each other's pivots.
    """
    return span.contains(start) and all(
        span.contains(_push(action, row)) for row in span._rows.values() for action in actions)


def _certified_closure(dim: int, start: Iterable, actions: Sequence[_Action]) -> SpanBasis:
    """The span that ``_closure`` reaches from ``start``, found mod ``_PRIME``
    and checked exactly.

    The same :func:`_closure` loop drives a :class:`_ModularSpan`, on the
    maps taken mod p. Its rank d_p is at most the rank d over the
    rationals: the vectors it spans are the images mod p of integer
    vectors that span d dimensions. So when the loop stops at ``dim`` rows
    the span is everything, and its rows are the unit vectors. Otherwise
    the rows are brought to reduced echelon form
    (:meth:`_ModularSpan.reduced`), reconstructed (:func:`_lift`) and
    accepted only if their row space holds ``start`` and is closed under
    the maps (:func:`_closes`): it then contains the span, so d <= d_p, the two
    spaces are equal, and a reduced echelon form being unique, the rows
    are those of the exact closure. A failed reconstruction or check runs
    the exact closure, so the result never depends on the prime.
    """
    p = _PRIME
    modular = _ModularSpan(dim, p)
    for _ in _closure(modular, modular.vector(start), modular.packed(actions), _packed_push):
        pass
    span = SpanBasis(dim)
    if modular.dimension == dim:
        span._rows = {i: {i: 1} for i in range(dim)}
        return span
    span._rows = _lift(modular.reduced(), p)
    if span._rows is not None and _closes(span, start, actions):
        return span
    span = SpanBasis(dim)
    for _ in _closure(span, start, actions):
        pass
    return span
