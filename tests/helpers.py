"""Shared oracles and random instance generators for the test suite.

Oracles here are deliberately independent of the library code paths they
check: closed forms are evaluated from first principles, series values are
recomputed from the inductive definition or by full path enumeration, the
2x2 spectral test uses the characteristic polynomial, and series sums are
recomputed by the invariant-subspace decomposition and the Lyapunov
equation, which the library replaced by a recurrence and Schur-Cohn, and
combinations of series are found by the counterexample loop that the
library replaced by one solve on a complete set of backward rows, and
residual exploration matches residuals by pairwise equivalence checks,
which the library replaced by their values on one set of backward rows.
Span closures run on a Fraction echelon basis, which the library replaced
by primitive integer rows, and on dense primitive integer rows reduced one
pivot at a time over every column, which the library replaced by sparse
rows reduced in one pass over the rows its support meets; the word basis of an equivalence check is
closed in heap order, and the rank of a series is the rank of the pairing
matrix between its forward and backward closures, which the library
replaced by a closure on the backward rows alone. Series sums run
Berlekamp-Massey and Schur-Cohn over Fractions on the terms lam . M^k .
gamma, which the library replaced by the fraction-free recursions on
integer terms. Exact solves run Gauss-Jordan elimination over Fractions,
which the library replaced by the integer rows of its span basis. A row
vector goes through a letter matrix by a scan of every cell of its dense
rows (``oracle_vec_mat``), which the library replaced by a pass over the
matrix's nonzero entries. The integer letter maps of a closure come from
a scan of every cell of every letter matrix, with a transpose for
backward maps, which the library replaced by a pass over each matrix's
nonzero entries. A closure pushes
each accepted vector itself, dense, through the maps, which the library
replaced by pushing the sparse echelon row the vector added to the span.
The minimal polynomial of a vector comes from its Krylov closure under the dense
letter-summed matrix and a solve for the first dependent vector, which the
library replaced by one echelon form of its integer sum table. Field
reduction solves for each state in turn and rebuilds the automaton on the
dense grid of state pairs after each removal, which the library replaced
by one echelon form of the backward rows, read for the states kept and
the coefficients of the others, and one elimination that walks the
transitions; cone reduction keeps its order of removals but eliminates
the same way. Cone reduction asks one ``lp_feasible`` question per state
on the Fraction value rows, which the library replaced by a feasibility
problem on the integer echelon rows for only the states in the support of
the kernel of the backward rows. The value rows themselves (``value_rows``) are the
Fraction form of the backward span, which the library pairs with its
integer rows instead. Residual exploration weighs each edge by the prefix
weight of a residual automaton, one recurrence per edge, and the prefixial
rebuild checks each witness with an equivalence check, which the library
replaced by integer letter steps, masses read off the state-sum vector and
integer keys on the backward rows. PA synthesis asks one
``express_combination`` per question, each on its own backward closure,
which the library replaced by one table of values for every question.
An automaton document is parsed weight by weight, each weight string
matched, measured and converted anew with the name of its item made in
advance, which the library replaced by one parse per distinct string
whose item is named only for an error.
"""

import heapq
import itertools
import random
import re
import time
from collections import deque
from fractions import Fraction
from math import gcd, lcm

from stochlang import (CombinationOutcome, ConstructionError,
                       DeterminizationOutcome, Dfa, MultiplicityAutomaton,
                       ReductionStallError, are_equivalent, empty_automaton,
                       express_combination, format_word, is_pa, is_pda,
                       prefix_weight, residual_automaton, state_series_automaton,
                       total_sum, weighted_sum, words_up_to)
from stochlang.automata import (is_trimmed, length_lex_key, letter_shift_automaton,
                                replace_iota)
from stochlang.documents import (MAX_DIGITS, DocumentError, _alphabet, _build, _load_json,
                                 _name_list, _require_keys)
from stochlang.equivalence import _backward_closure, combination_on_rows
from stochlang.linalg import (AffineSolution, Constraint, Matrix, dot,
                              is_positive_definite, linear_combination,
                              lp_feasible, solve_affine, unit_vector)

F = Fraction


# ---------------------------------------------------------------- closed forms

def lucas(k):
    """Lucas numbers: 2, 1, 3, 4, 7, ..."""
    if k < 0:
        raise ValueError
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def fig3_value(word):
    """Closed form for the fig3_App series via the Lucas sequence."""
    d = sum(1 for x in word if x == "a") - sum(1 for x in word if x == "b")
    return F(lucas(2 * abs(d)), 2 ** (2 * len(word) + 3))


def t_value(word):
    """Closed form for the prop10_t series."""
    d = sum(1 for x in word if x == "a") - sum(1 for x in word if x == "b")
    return F(d * d, 2 ** (2 * len(word) + 1))


def p1_value(n):
    return F(1, 2 ** (n + 1))


def p2_value(n):
    return F(3, 2 ** (2 * n + 2))


def p_value(n):
    return (p1_value(n) + p2_value(n)) / 2


def example1_residual_value(n, m):
    """Value of the a^n residual of example1_p on a^m."""
    return (2 ** n * p1_value(m) + p2_value(m)) / (2 ** n + 1)


# ------------------------------------------------------- independent evaluators

def eval_by_definition(a, word):
    """Series value from the inductive per-state definition, no matrices."""
    memo = {}

    def from_state(q, i):
        if i == len(word):
            return a.tau_weight(q)
        if (q, i) not in memo:
            memo[(q, i)] = sum(
                (a.weight(q, word[i], r) * from_state(r, i + 1) for r in a.states),
                F(0))
        return memo[(q, i)]

    return sum((a.iota_weight(q) * from_state(q, 0) for q in a.states), F(0))


def eval_by_paths(a, word):
    """Series value by brute enumeration of all state paths."""
    total = F(0)
    for path in itertools.product(a.states, repeat=len(word) + 1):
        weight = a.iota_weight(path[0])
        for i, x in enumerate(word):
            if not weight:
                break
            weight *= a.weight(path[i], x, path[i + 1])
        total += weight * a.tau_weight(path[-1])
    return total


def series_equal_up_to(a, b, max_len):
    """Exhaustive exact comparison of two series on all words up to a length."""
    alphabet = a.alphabet
    for k in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=k):
            if a.evaluate(w) != b.evaluate(w):
                return False, w
    return True, None


def jury_lt_one_2x2(m):
    """Both eigenvalues of a 2x2 matrix inside the unit circle, exactly.

    Characteristic polynomial x^2 - t x + d: stability holds iff |d| < 1,
    1 - t + d > 0 and 1 + t + d > 0.
    """
    t = m[0, 0] + m[1, 1]
    d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return abs(d) < 1 and 1 - t + d > 0 and 1 + t + d > 0


# ------------------------------------------------------- elimination oracles

def oracle_rref(m):
    """Reduced row-echelon form and pivot columns by Gauss-Jordan over Fractions."""
    rows = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(rows, m.ncols), tuple(pivots)


def oracle_solve_affine(a, b):
    """Solution set of A x = b read off the oracle echelon form of [A | b], or None."""
    n = a.ncols
    red, pivots = oracle_rref(Matrix([list(r) + [bi] for r, bi in zip(a.rows, b)], n + 1))
    if n in pivots:
        return None
    particular = [F(0)] * n
    for i, p in enumerate(pivots):
        particular[p] = red[i, n]
    nullspace = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [F(0)] * n
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i, f]
        nullspace.append(tuple(v))
    return AffineSolution(tuple(particular), tuple(nullspace))


def oracle_invert(m):
    """Inverse read off the oracle echelon form of [M | Id]."""
    n = m.nrows
    red, pivots = oracle_rref(Matrix([list(r) + [int(i == j) for j in range(n)]
                                      for i, r in enumerate(m.rows)], 2 * n))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([r[n:] for r in red.rows], n)


# ------------------------------------------------------ span closure oracles

class OracleSpanBasis:
    """Row space with incremental insertion, kept in reduced echelon form
    with Fraction rows and leading ones."""

    def __init__(self, dim):
        self.dim = dim
        self._rows = []

    def _reduce(self, v):
        v = [F(x) for x in v]
        for pivot, row in self._rows:
            c = v[pivot]
            if c:
                for i in range(pivot, self.dim):
                    if row[i]:
                        v[i] -= c * row[i]
        return v

    def contains(self, v):
        return not any(self._reduce(v))

    def add(self, v):
        """Insert v; True iff it enlarged the span."""
        r = self._reduce(v)
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is None:
            return False
        inv = 1 / r[pivot]
        r = [x * inv for x in r]
        for _, row in self._rows:
            c = row[pivot]
            if c:
                for i in range(pivot, self.dim):
                    if r[i]:
                        row[i] -= c * r[i]
        self._rows.append((pivot, r))
        self._rows.sort(key=lambda pr: pr[0])
        return True

    @property
    def dimension(self):
        return len(self._rows)

    @property
    def basis(self):
        return [tuple(row) for _, row in self._rows]


def oracle_primitive(v):
    """The coprime integer vector with the direction and sign of v (zero stays zero)."""
    v = list(v)
    scale = lcm(*(F(x).denominator for x in v))
    w = [int(F(x) * scale) for x in v]
    g = gcd(*w)
    return w if g <= 1 else [x // g for x in w]


def oracle_eliminate(v, row, pivot):
    """The primitive multiple of row[pivot] v - v[pivot] row, zero at the pivot,
    on every column of both dense integer vectors."""
    a, c = row[pivot], v[pivot]
    g = gcd(a, c)
    a, c = a // g, c // g
    w = [a * x - c * y for x, y in zip(v, row)]
    g = gcd(*w)
    return w if g <= 1 else [x // g for x in w]


class OracleIntegerSpanBasis:
    """Row space with incremental insertion, kept in reduced echelon form
    with dense primitive integer rows, positive at their pivots: each step
    eliminates one pivot on every column and divides the content out."""

    def __init__(self, dim):
        self.dim = dim
        self._rows = []

    def _reduce(self, v):
        v = oracle_primitive(v)
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} does not match dimension {self.dim}")
        for pivot, row in self._rows:
            if v[pivot]:
                v = oracle_eliminate(v, row, pivot)
        return v

    def contains(self, v):
        return not any(self._reduce(v))

    def add(self, v):
        """Insert v; True iff it enlarged the span."""
        r = self._reduce(v)
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is None:
            return False
        if r[pivot] < 0:
            r = [-x for x in r]
        self._rows = [(p, oracle_eliminate(row, r, pivot) if row[pivot] else row)
                      for p, row in self._rows]
        self._rows.append((pivot, r))
        self._rows.sort(key=lambda pr: pr[0])
        return True

    @property
    def dimension(self):
        return len(self._rows)

    @property
    def pivots(self):
        return tuple(p for p, _ in self._rows)

    @property
    def integer_rows(self):
        return [row for _, row in self._rows]

    @property
    def basis(self):
        return [tuple(F(x, row[p]) for x in row) for p, row in self._rows]


def oracle_integer_actions(letters, left):
    """Per letter, the sparse integer map of s M_k v (``left``) or s v M_k for
    block-diagonal M_k, as the (output, coefficient) pairs of each input
    coordinate, by a dense scan of every cell of every block, with a
    transpose for backward maps, and the scale s, the lcm of every cell's
    denominator."""
    scale = lcm(*(x.denominator for blocks in letters for m in blocks
                  for r in m.rows for x in r))
    actions = []
    for blocks in letters:
        terms = []
        offset = 0
        for m in blocks:
            lines = transpose(m).rows if left else m.rows
            terms += [[(offset + j, x.numerator * (scale // x.denominator))
                       for j, x in enumerate(line) if x] for line in lines]
            offset += m.nrows
        actions.append(terms)
    return actions, scale


def oracle_closure(span, start, actions):
    """Breadth-first closure that pushes each accepted vector itself, dense.

    ``actions`` are maps as ``linalg._integer_actions`` builds them, the
    pairs of each input coordinate; they are turned around to give each
    output coordinate its pairs, and every vector that enlarges ``span``
    goes through each of them, in order, its images divided by their
    content. Returns the accepted primitive vectors with their paths of map
    indices."""
    gathers = []
    for action in actions:
        lines = [[] for _ in action]
        for j, pairs in enumerate(action):
            for i, c in pairs:
                lines[i].append((j, c))
        gathers.append(lines)
    accepted = []
    queue = deque([((), oracle_primitive(start))])
    while queue:
        path, v = queue.popleft()
        if span.add(v):
            accepted.append((path, v))
            queue.extend((path + (k,), oracle_primitive([sum(c * v[j] for j, c in line)
                                                         for line in lines]))
                         for k, lines in enumerate(gathers))
    return accepted


def oracle_integer_sum(matrices, n):
    """The map v -> s M v of the sum M of n x n matrices, with the least s that
    makes s M integral, by a dense scan of every cell."""
    scale = lcm(*(x.denominator for m in matrices for r in m.rows for x in r))
    rows = [[0] * n for _ in range(n)]
    for m in matrices:
        for row, line in zip(rows, m.rows):
            for j, x in enumerate(line):
                row[j] += x.numerator * (scale // x.denominator)
    g = gcd(scale, *(c for row in rows for c in row))
    return [[(j, c // g) for j, c in enumerate(row) if c] for row in rows], scale // g


def oracle_word_basis(a, b):
    """Basis words with their exact forward vector pairs, closed in heap order
    (length, then letter indices) on a Fraction echelon basis."""
    alphabet = a.alphabet
    index = {x: i for i, x in enumerate(alphabet)}
    ra = a.to_linear_representation()
    rb = b.to_linear_representation()
    span = OracleSpanBasis(ra.dim + rb.dim)
    basis = [((), ra.lam, rb.lam)]
    span.add(ra.lam + rb.lam)
    frontier = []

    def push_children(word, va, vb):
        for x in alphabet:
            child = word + (x,)
            key = tuple(index[y] for y in child)
            heapq.heappush(frontier, (len(child), key, child, oracle_vec_mat(va, ra.mu[x]),
                                      oracle_vec_mat(vb, rb.mu[x])))

    push_children((), ra.lam, rb.lam)
    while frontier:
        _, _, word, va, vb = heapq.heappop(frontier)
        if span.add(va + vb):
            basis.append((word, va, vb))
            push_children(word, va, vb)
    return basis, ra.gamma, rb.gamma


def oracle_hankel_rank(a):
    """Rank of the pairing matrix between the forward closure of the initial
    vector and the backward closure of the final vector."""
    rep = a.to_linear_representation()
    n = rep.dim

    def close(start, step):
        span = OracleSpanBasis(n)
        found = []
        stack = [start]
        while stack:
            v = stack.pop()
            if span.add(v):
                found.append(v)
                stack.extend(step(v, rep.mu[x]) for x in rep.alphabet)
        return found

    forward = close(rep.lam, oracle_vec_mat)
    backward = close(rep.gamma, lambda v, m: mat_vec(m, v))
    if not forward or not backward:
        return 0
    pairing = Matrix([[dot(f, b) for b in backward] for f in forward], len(backward))
    return len(oracle_rref(pairing)[1])


# --------------------------------------------------- matrix and sum oracles

def oracle_vec_mat(v, m):
    """Row vector times matrix, by a scan of every cell of the dense rows."""
    if len(v) != m.nrows:
        raise ValueError(f"vector length {len(v)} does not match {m.nrows} rows")
    out = [F(0)] * m.ncols
    for vi, row in zip(v, m.rows):
        if vi:
            for j, x in enumerate(row):
                if x:
                    out[j] += vi * x
    return tuple(out)


def diagonal(entries):
    """The square matrix with the given diagonal and zeros elsewhere."""
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], n)


def from_columns(columns, nrows):
    """The nrows x len(columns) matrix whose columns are the given vectors."""
    return Matrix([[col[i] for col in columns] for i in range(nrows)], len(columns))


def membership_in_span(v, basis):
    """Coefficients c with sum(c_i * basis_i) = v, from ``solve_affine`` on the
    matrix whose columns are the basis vectors, or None if v is outside the span."""
    v = tuple(F(x) for x in v)
    basis = [tuple(F(x) for x in bv) for bv in basis]
    if any(len(bv) != len(v) for bv in basis):
        raise ValueError("basis vectors must share the target dimension")
    sol = solve_affine(from_columns(basis, len(v)), v)
    return None if sol is None else sol.particular


def mat_vec(m, v):
    """Matrix times column vector."""
    return tuple(sum((x * vj for x, vj in zip(r, v) if x), F(0)) for r in m.rows)


def identity(n):
    """The n x n identity matrix."""
    return diagonal([1] * n)


def transpose(m):
    rows = m.rows
    return Matrix([[r[j] for r in rows] for j in range(m.ncols)], m.nrows)


def mat_mul(a, b):
    """The product a b of two matrices."""
    if a.ncols != b.nrows:
        raise ValueError(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    columns = transpose(b).rows
    return Matrix([[dot(r, c) for c in columns] for r in a.rows], b.ncols)


def mat_sub(a, b):
    """The difference a - b of two matrices of one shape."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    return Matrix([[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)], a.ncols)


def letter_sum_matrix(a):
    """M[i, j] = total transition weight from state i to state j over all letters."""
    rep = a.to_linear_representation()
    grids = list(rep.mu.values())
    return Matrix([[sum((g[i, j] for g in grids), F(0)) for j in range(rep.dim)]
                   for i in range(rep.dim)], rep.dim)


def oracle_krylov_closure(m, v):
    """Krylov basis v, M v, ..., M^(d-1) v of v under a square matrix, closed
    on a Fraction echelon basis, and the monic minimal polynomial of v (from
    the constant term up), solved for M^d v by Gauss-Jordan over Fractions."""
    span = OracleSpanBasis(m.nrows)
    vecs = []
    v = tuple(F(x) for x in v)
    while span.add(v):
        vecs.append(v)
        v = mat_vec(m, v)
    alpha = oracle_solve_affine(from_columns(vecs, m.nrows), v).particular
    return vecs, tuple(-x for x in alpha) + (F(1),)


def matrix_power(m, k):
    """M^k by repeated squaring."""
    if not m.is_square():
        raise ValueError("power of a non-square matrix")
    out = identity(m.nrows)
    base = m
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def max_abs_entry(m):
    return max((abs(x) for r in m.rows for x in r), default=F(0))


def lyapunov_lt_one(m):
    """Powers of M vanish iff M^T P M - P = -I has a unique, positive definite
    symmetric solution P (parameterised by its upper triangle)."""
    n = m.nrows
    if n == 0:
        return True
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pair: k for k, pair in enumerate(pairs)}
    rows = []
    rhs = []
    for r, s in pairs:
        coeffs = [F(0)] * len(pairs)
        for i in range(n):
            mi = m[i, r]
            if not mi:
                continue
            for j in range(n):
                c = mi * m[j, s]
                if c:
                    coeffs[index[(min(i, j), max(i, j))]] += c
        coeffs[index[(r, s)]] -= 1
        rows.append(coeffs)
        rhs.append(F(-1 if r == s else 0))
    sol = oracle_solve_affine(Matrix(rows, len(pairs)), rhs)
    if sol is None or sol.nullspace:
        return False
    p = Matrix([[sol.particular[index[(min(i, j), max(i, j))]] for j in range(n)]
                for i in range(n)], n)
    return is_positive_definite(p)


def decomposition_sum(m, iota, tau, reverse_complement=False):
    """Sum of iota . M^k . tau, or None if it diverges, by subspace decomposition.

    E is the smallest M-invariant space containing tau; H collects the part
    of E invisible to every iota . M^k; G is a complement of H inside E. The
    sum converges iff the compression of M to G is a contraction (Lyapunov
    test), and then equals iota . (Id - P M P)^-1 . tau for the projection P
    onto G. ``reverse_complement`` picks G and the completing unit vectors
    in the opposite order; the result must not depend on it.
    """
    n = m.nrows
    if n == 0:
        return F(0)
    e_vecs = []
    span = OracleSpanBasis(n)
    v = tau
    while span.add(v):
        e_vecs.append(v)
        v = mat_vec(m, v)
    o_vecs = []
    ospan = OracleSpanBasis(n)
    r = iota
    while ospan.add(r):
        o_vecs.append(r)
        r = oracle_vec_mat(r, m)
    h_vecs = []
    if e_vecs:
        pairing = Matrix([[dot(o, e) for e in e_vecs] for o in o_vecs], len(e_vecs))
        sol = oracle_solve_affine(pairing, [F(0)] * len(o_vecs))
        h_vecs = [linear_combination(e_vecs, c, n) for c in sol.nullspace]
    basis = OracleSpanBasis(n)
    for h in h_vecs:
        basis.add(h)
    candidates = list(reversed(e_vecs)) if reverse_complement else e_vecs
    g_vecs = [e for e in candidates if basis.add(e)]
    unit_order = reversed(range(n)) if reverse_complement else range(n)
    f_vecs = [u for u in (unit_vector(n, i) for i in unit_order) if basis.add(u)]
    b = from_columns(g_vecs + h_vecs + f_vecs, n)
    d = diagonal([1 if i < len(g_vecs) else 0 for i in range(n)])
    p_g = mat_mul(mat_mul(b, d), oracle_invert(b))
    compressed = mat_mul(mat_mul(p_g, m), p_g)
    if not lyapunov_lt_one(compressed):
        return None
    sol = oracle_solve_affine(mat_sub(identity(n), compressed), tau)
    return dot(iota, sol.particular)


def oracle_total_sum(a, reverse_complement=False):
    rep = a.to_linear_representation()
    return decomposition_sum(letter_sum_matrix(a), rep.lam, rep.gamma,
                             reverse_complement)


def oracle_state_sums(a, reverse_complement=False):
    """Per-state sums by decomposition, one state at a time; None if any diverges."""
    rep = a.to_linear_representation()
    m = letter_sum_matrix(a)
    sums = {}
    for i, q in enumerate(a.states):
        value = decomposition_sum(m, unit_vector(a.n_states, i), rep.gamma,
                                  reverse_complement)
        if value is None:
            return None
        sums[q] = value
    return sums


def oracle_minimal_recurrence(terms):
    """Berlekamp-Massey over Q: the shortest connection polynomial of a sequence.

    Returns C with C[0] = 1 and length L + 1 for the least L such that
    sum_j C[j] s_(k-j) = 0 for every L <= k < len(terms).
    """
    terms = [F(x) for x in terms]
    c = [F(1)]
    b = [F(1)]
    length = 0
    shift = 1
    b_disc = F(1)
    for k, s_k in enumerate(terms):
        disc = s_k + sum(c[j] * terms[k - j] for j in range(1, min(len(c), k + 1)))
        if not disc:
            shift += 1
            continue
        f = disc / b_disc
        updated = c + [F(0)] * max(0, len(b) + shift - len(c))
        for j, x in enumerate(b):
            updated[j + shift] -= f * x
        if 2 * length <= k:
            b, b_disc, length, shift = c, disc, k + 1 - length, 1
        else:
            shift += 1
        c = updated
    c = c[:length + 1]
    return c + [F(0)] * (length + 1 - len(c))


def oracle_schur_stable(coeffs):
    """Schur-Cohn over Q, every step divided by its leading coefficient: a
    monic p of degree d with constant term a_0 is stable iff |a_0| < 1 and
    (p(z) - a_0 z^d p(1/z)) / z is stable."""
    p = [F(x) for x in coeffs]
    if not p or not p[-1]:
        raise ValueError("polynomial needs a nonzero leading coefficient")
    while len(p) > 1:
        lead = p[-1]
        p = [c / lead for c in p]
        a0 = p[0]
        if abs(a0) >= 1:
            return False
        d = len(p) - 1
        p = [p[j + 1] - a0 * p[d - 1 - j] for j in range(d)]
    return True


def oracle_series_sum(a, lam):
    """Sum of lam . M^k . gamma over k for the letter-summed M and final
    vector of ``a``, or None if it diverges: Fraction Berlekamp-Massey on
    the 2n terms, Fraction Schur-Cohn on the reversed recurrence, and
    P(1) / C(1) with P = (S C) mod z^L."""
    m = letter_sum_matrix(a)
    v = a.to_linear_representation().gamma
    terms = []
    for _ in range(2 * a.n_states):
        terms.append(dot(lam, v))
        v = mat_vec(m, v)
    c = oracle_minimal_recurrence(terms)
    if not oracle_schur_stable(c[::-1]):
        return None
    order = len(c) - 1
    p_at_one = sum((c[j] * terms[k - j] for k in range(order) for j in range(k + 1)), F(0))
    return p_at_one / sum(c)


# ------------------------------------------------------------ value rows

def value_rows(reps):
    """The reduced echelon rows, as Fractions with leading ones, of the span of
    every x(w) = mu(w) . gamma of the direct sum of ``reps``.

    A series with initial vector lam on block i takes the value
    lam . x(w)[i] on w, so a linear equation between such series holds on
    every word iff it holds on these rows; two initial vectors of one
    representation give equal series iff they agree on every row. The
    library pairs vectors with the span's primitive integer rows instead,
    which are positive multiples of these.
    """
    return _backward_closure(reps)[0].basis


# ------------------------------------------------------- combination oracle

def oracle_is_semi_pa(a):
    """Semi-PA by the per-state definition: every weight in [0, 1], initial
    mass <= 1, and tau(q) plus the weight of every transition leaving q at
    most 1, summed state by state."""
    weights = list(a.iota.values()) + list(a.tau.values()) + list(a.phi.values())
    return (all(0 <= w <= 1 for w in weights) and sum(a.iota.values(), F(0)) <= 1
            and all(a.tau_weight(q) + a.out_weight(q) <= 1 for q in a.states))


def oracle_is_pa(a):
    """PA by the per-state definition: a trimmed semi-PA with initial mass 1
    and every state's leaving mass exactly 1."""
    return (bool(a.states) and is_trimmed(a) and oracle_is_semi_pa(a)
            and sum(a.iota.values(), F(0)) == 1
            and all(a.tau_weight(q) + a.out_weight(q) == 1 for q in a.states))


def _combination_counterexample(target, generators, coeffs):
    """Word where the candidate combination misses the target, or None."""
    shared = bool(generators) and all(
        g.states == target.states and g.tau == target.tau and g.phi == target.phi
        for g in generators)
    if shared:
        # one automaton holds every series: compare the combined initial
        # vector with the zero series instead of building a disjoint sum
        lam = list(target.to_linear_representation().lam)
        for c, g in zip(coeffs, generators):
            lam_g = g.to_linear_representation().lam
            for i in range(len(lam)):
                lam[i] -= c * lam_g[i]
        outcome = are_equivalent(replace_iota(target, tuple(lam)),
                                 empty_automaton(target.alphabet))
    elif generators:
        outcome = are_equivalent(target, weighted_sum(generators, coeffs))
    else:
        outcome = are_equivalent(target, empty_automaton(target.alphabet))
    return None if outcome.equal else outcome.witness


def oracle_express_combination(target, generators, nonneg):
    """Combination of series by counterexample search.

    Starts from the empty-word equation and alternates exact solving with an
    equivalence check: while the current solution misses the target, the
    smallest word where it fails becomes a new equation. Each new equation
    raises the rank of the augmented system, so at most n + 2 rounds run.
    """
    generators = list(generators)
    if any(g.alphabet != target.alphabet for g in generators):
        raise ValueError("alphabet mismatch")
    n = len(generators)
    probes = [()]
    for _ in range(n + 2):
        rows = [[g.evaluate(u) for g in generators] for u in probes]
        rhs = [target.evaluate(u) for u in probes]
        if nonneg:
            constraints = [Constraint.eq(row, -value) for row, value in zip(rows, rhs)]
            constraints += [Constraint.ge(unit_vector(n, i), 0) for i in range(n)]
            coeffs = lp_feasible(constraints, n)
        else:
            sol = oracle_solve_affine(Matrix(rows, n), rhs)
            coeffs = None if sol is None else sol.particular
        if coeffs is None:
            return CombinationOutcome(False)
        witness = _combination_counterexample(target, generators, coeffs)
        if witness is None:
            return CombinationOutcome(True, tuple(coeffs))
        probes.append(witness)
    raise RuntimeError("combination search exceeded its iteration bound")


def oracle_synthesize_pa(target, generators):
    """PA synthesis with one ``express_combination`` call, and so one backward
    closure, per question: the mix, then each generator's letter shifts,
    stopping at the first infeasible one. The target's mass is checked
    after every question, as the sum of the mix coefficients."""
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
    stability = {}
    for i, g in enumerate(generators):
        for x in target.alphabet:
            outcome = express_combination(letter_shift_automaton(g, (x,)), generators,
                                          nonneg=True)
            if not outcome.expressible:
                return None
            stability[(i, x)] = outcome.coefficients
    if sum(mix.coefficients) != 1:
        raise ValueError("the series must have total mass 1")
    states = [f"s{i}" for i in range(len(generators))]
    iota = {states[i]: c for i, c in enumerate(mix.coefficients)}
    tau = {states[i]: g.evaluate(()) for i, g in enumerate(generators)}
    phi = {(states[i], x, states[j]): c for (i, x), coeffs in stability.items()
           for j, c in enumerate(coeffs) if c}
    built = MultiplicityAutomaton(target.alphabet, states, iota, tau, phi).trim()
    if not is_pa(built):
        raise ConstructionError("assembled automaton fails the probabilistic weight checks; "
                                "a generator is not a bounded stochastic series")
    return built


# ------------------------------------------------------- reduction oracles

def eliminate_state(a, q, coeffs):
    """Drop state q, whose series is sum_s coeffs[s] series_s over the other
    states, rebuilding every weight on the dense grid of kept state pairs:
    each weight into q moves to every kept s times coeffs[s]."""
    keep = [s for s in a.states if s != q]
    iota = {r: a.iota_weight(r) + coeffs[r] * a.iota_weight(q) for r in keep}
    tau = {r: a.tau_weight(r) for r in keep}
    phi = {}
    for r in keep:
        for x in a.alphabet:
            for s in keep:
                w = a.weight(r, x, s) + coeffs[s] * a.weight(r, x, q)
                if w:
                    phi[(r, x, s)] = w
    return MultiplicityAutomaton(a.alphabet, keep, iota, tau, phi)


def oracle_field_reduce(a):
    """Field reduction that tries every state in declared order, each round,
    with one solve on the value rows of the input, and removes the first
    state that is a combination of the others, rebuilding the automaton
    after each removal; it raises the library's stall error when it stops
    above the rank of the pairing matrix."""
    rows = value_rows([a.to_linear_representation()])
    columns = list(range(a.n_states))
    current = a
    changed = True
    while changed:
        changed = False
        for i, q in enumerate(current.states):
            outcome = combination_on_rows(rows, columns[i], columns[:i] + columns[i + 1:],
                                          nonneg=False)
            if outcome.expressible:
                kept = current.states[:i] + current.states[i + 1:]
                current = eliminate_state(current, q, dict(zip(kept, outcome.coefficients)))
                del columns[i]
                changed = True
                break
    rank = oracle_hankel_rank(a)
    if current.n_states != rank:
        raise ReductionStallError(f"elimination stopped at {current.n_states} states but "
                                  f"the series rank is {rank}")
    return current


def oracle_cone_combination(rows, target, columns):
    """Nonnegative c with row[target] = sum_j c_j row[columns[j]] on every row,
    or None: the equalities and c >= 0 as ``Constraint``s for ``lp_feasible``."""
    n = len(columns)
    constraints = [Constraint.eq([row[j] for j in columns], -row[target]) for row in rows]
    constraints += [Constraint.ge(unit_vector(n, i), 0) for i in range(n)]
    return lp_feasible(constraints, n)


def oracle_is_cone_reduced(a):
    """Cone-reducedness with one feasibility problem per state on the value rows."""
    rows = value_rows([a.to_linear_representation()])
    n = a.n_states
    return all(oracle_cone_combination(rows, q, [s for s in range(n) if s != q]) is None
               for q in range(n))


def oracle_cone_reduce(a):
    """Cone reduction that tries every state in declared order, each round,
    with one feasibility problem on the value rows of the input, and removes
    the first state that is a nonnegative combination of the others."""
    rows = value_rows([a.to_linear_representation()])
    columns = list(range(a.n_states))
    current = a
    changed = True
    while changed:
        changed = False
        for i, q in enumerate(current.states):
            coeffs = oracle_cone_combination(rows, columns[i], columns[:i] + columns[i + 1:])
            if coeffs is not None:
                kept = current.states[:i] + current.states[i + 1:]
                current = eliminate_state(current, q, dict(zip(kept, coeffs)))
                del columns[i]
                changed = True
                break
    return current


# ------------------------------------------------- residual exploration oracles

def oracle_determinize_to_pda(a, max_states):
    """Breadth-first residual exploration matching each new residual by a
    pairwise scan of equivalence checks against every residual found so far."""
    if max_states < 1:
        raise ValueError(f"max_states must be at least 1, got {max_states}")
    outcome = total_sum(a)
    if not outcome.converges:
        raise ValueError("the series diverges")
    if outcome.value != 1:
        raise ValueError("the series must have total mass 1")

    discovered = [((), residual_automaton(a, ()))]
    transitions = {}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        _, res = discovered[i]
        for x in a.alphabet:
            mass = prefix_weight(res, (x,))
            if mass == 0:
                continue
            child = residual_automaton(res, (x,))
            match = next((j for j, (_, known) in enumerate(discovered)
                          if are_equivalent(child, known).equal), None)
            if match is None:
                if len(discovered) == max_states:
                    return DeterminizationOutcome(None, len(discovered) + 1)
                match = len(discovered)
                discovered.append((discovered[i][0] + (x,), child))
                queue.append(match)
            transitions[(i, x)] = (mass, match)

    names = [format_word(word, a.alphabet) for word, _ in discovered]
    tau = {names[i]: res.evaluate(()) for i, (_, res) in enumerate(discovered)}
    phi = {(names[i], x, names[j]): mass for (i, x), (mass, j) in transitions.items()}
    pda = MultiplicityAutomaton(a.alphabet, names, {names[0]: F(1)}, tau, phi)
    if not is_pda(pda):
        raise ConstructionError("residual exploration produced a non-deterministic or "
                                "non-probabilistic automaton; the input series is not "
                                "a probability distribution")
    return DeterminizationOutcome(pda, len(discovered))


def oracle_minimal_residual_generators(a, depth):
    """Residual generators by pairwise equivalence checks for deduplication and
    one combination search per drop, stability and cover question."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    outcome = total_sum(a)
    if not outcome.converges:
        raise ValueError("the series diverges")
    if outcome.value != 1:
        raise ValueError("the series must have total mass 1")

    survivors = []
    for u in words_up_to(a.alphabet, depth):
        try:
            res = residual_automaton(a, u)
        except ValueError:
            continue
        if not any(are_equivalent(res, known).equal for _, known in survivors):
            survivors.append((u, res))

    changed = True
    while changed:
        changed = False
        for i in reversed(range(len(survivors))):
            if len(survivors) == 1:
                break
            rest = [res for j, (_, res) in enumerate(survivors) if j != i]
            if oracle_express_combination(survivors[i][1], rest, nonneg=True).expressible:
                del survivors[i]
                changed = True
                break

    generators = [res for _, res in survivors]
    for _, res in survivors:
        for x in a.alphabet:
            shifted = letter_shift_automaton(res, (x,))
            if not oracle_express_combination(shifted, generators, nonneg=True).expressible:
                return None
    if not oracle_express_combination(a, generators, nonneg=True).expressible:
        return None
    return [w for w, _ in survivors]


def oracle_to_prefixial_pra(a, witnesses):
    """The prefixial rebuild with each witness checked by an equivalence check
    of its residual automaton against the state's series, and each tree edge
    weighed by the prefix weight of its letter in the residual automaton of
    its source, which is then built again for the edge's target."""
    if not is_pa(a):
        raise ValueError("input is not a probabilistic automaton")
    witness_words = {}
    for q in a.states:
        if q not in witnesses:
            raise ValueError(f"missing witness for state {q!r}")
        witness_words[q] = tuple(witnesses[q])
    if len(set(witness_words.values())) != len(witness_words):
        raise ValueError("witness words must be distinct")
    for q, w in witness_words.items():
        check = are_equivalent(residual_automaton(a, w), state_series_automaton(a, q))
        if not check.equal:
            raise ValueError(
                f"witness verification failure for state {q!r}: the residual at "
                f"{format_word(w, a.alphabet)} differs at "
                f"{format_word(check.witness, a.alphabet)}")

    word_of = {w: q for q, w in witness_words.items()}
    closure = {w[:i] for w in witness_words.values() for i in range(len(w) + 1)}
    ordered = sorted(closure, key=lambda w: length_lex_key(w, a.alphabet))
    names = {w: format_word(w, a.alphabet) for w in ordered}
    residuals = {(): residual_automaton(a, ())}
    phi = {}
    for w in ordered:
        for x in a.alphabet:
            extended = w + (x,)
            if extended in closure:
                mass = prefix_weight(residuals[w], (x,))
                if mass == 0:
                    raise ValueError(f"prefix weight of {format_word(extended, a.alphabet)} "
                                     "is zero")
                residuals[extended] = residual_automaton(residuals[w], (x,))
                phi[(names[w], x, names[extended])] = mass
            elif w in word_of:
                for r in a.states:
                    weight = a.weight(word_of[w], x, r)
                    if weight:
                        phi[(names[w], x, names[witness_words[r]])] = weight
    tau = {names[w]: residuals[w].evaluate(()) for w in ordered}
    built = MultiplicityAutomaton(a.alphabet, [names[w] for w in ordered],
                                  {names[()]: F(1)}, tau, phi)
    if not is_pa(built):
        raise ValueError("witness set does not induce a probabilistic automaton; "
                         "an interior prefix loses mass outside the closure")
    check = are_equivalent(a, built)
    if not check.equal:
        raise ValueError("prefixial rebuild changed the series at "
                         f"{format_word(check.witness, a.alphabet)}")
    return built


# ------------------------------------------------------------ document oracles

_ORACLE_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def oracle_parse_rational(text, where):
    """A rational weight string, checked and converted on its own; the error
    echoes the whole offending value."""
    if not isinstance(text, str) or not _ORACLE_RATIONAL_RE.fullmatch(text):
        raise DocumentError(f"{where}: malformed rational {text!r}")
    num, _, den = text.partition("/")
    if max(len(num.lstrip("-")), len(den)) > MAX_DIGITS:
        raise DocumentError(f"{where}: rational with more than {MAX_DIGITS} digits")
    if not den:
        return Fraction(int(num))
    if int(den) == 0:
        raise DocumentError(f"{where}: malformed rational {text!r} (zero denominator)")
    return Fraction(int(num), int(den))


def oracle_parse_automaton(text):
    """An automaton document parsed weight by weight: every weight, repeated
    or not, goes through ``oracle_parse_rational`` with its item named."""
    data = _load_json(text)
    _require_keys(data, {"alphabet", "states", "initial", "final", "transitions"},
                  {"alphabet", "states"}, "document")
    alphabet = _alphabet(data["alphabet"])
    states = _name_list(data["states"], "states")

    def weight_map(key):
        raw = data.get(key, {})
        if not isinstance(raw, dict):
            raise DocumentError(f"{key} must be an object mapping states to rationals")
        return {q: oracle_parse_rational(w, f"{key}[{q!r}]") for q, w in raw.items()}

    iota = weight_map("initial")
    tau = weight_map("final")

    raw_transitions = data.get("transitions", [])
    if not isinstance(raw_transitions, list):
        raise DocumentError("transitions must be a list")
    phi = {}
    for item in raw_transitions:
        if (not isinstance(item, list) or len(item) != 4
                or not all(isinstance(x, str) for x in item[:3])):
            raise DocumentError(f"transition {item!r} must be [from, letter, to, weight]")
        q, x, r, w = item
        where = f"transition [{q!r}, {x!r}, {r!r}]"
        if (q, x, r) in phi:
            raise DocumentError(f"duplicate {where}")
        phi[(q, x, r)] = oracle_parse_rational(w, where)
    return _build(MultiplicityAutomaton, alphabet, states, iota, tau, phi)


# ------------------------------------------------------------- time limits

def timed(decide, *args, limit_s):
    """decide(*args), failing when it takes more than limit_s seconds of
    process CPU time (other processes on the host do not count)."""
    start = time.process_time()
    outcome = decide(*args)
    elapsed = time.process_time() - start
    assert elapsed < limit_s, f"{decide.__name__} took {elapsed:.2f} s"
    return outcome


# ------------------------------------------------------------ random instances

def random_fraction(rng, max_num=3, max_den=3, signed=True):
    num = rng.randint(1, max_num)
    if signed and rng.random() < 0.5:
        num = -num
    return F(num, rng.randint(1, max_den))


def random_ma(rng, n_states, alphabet, density=0.7, signed=True):
    """Random automaton with small rational weights."""
    states = [f"q{i}" for i in range(n_states)]
    iota = {q: random_fraction(rng, signed=signed)
            for q in states if rng.random() < density}
    tau = {q: random_fraction(rng, signed=signed)
           for q in states if rng.random() < density}
    phi = {}
    for q in states:
        for x in alphabet:
            for r in states:
                if rng.random() < density:
                    phi[(q, x, r)] = random_fraction(rng, signed=signed)
    return MultiplicityAutomaton(alphabet, states, iota, tau, phi)


def random_unit_mass_ma(rng, n_states, alphabet):
    """Random signed automaton scaled to total mass 1, or None when its sum
    diverges or vanishes. Transition weights are quartered so that most
    sums converge; half the weights are absent, so some prefixes carry no
    vector at all, and residual masses of either sign are common."""
    a = random_ma(rng, n_states, alphabet, density=0.5)
    a = MultiplicityAutomaton(a.alphabet, a.states, a.iota, a.tau,
                              {key: w / 4 for key, w in a.phi.items()})
    outcome = total_sum(a)
    if not outcome.converges or not outcome.value:
        return None
    return replace_iota(a, tuple(x / outcome.value for x in a.to_linear_representation().lam))


def with_cancelling_copies(a):
    """Same series plus two copies of a divergent state with initial weights
    +1 and -1: each copy loops on every letter with weight 1, stops with
    weight 1 and feeds the first state of ``a`` with weight 1/2 on the first
    letter. The copies cancel on every word, so the total sum is that of
    ``a``, while their own sums diverge and no state-sum vector exists."""
    copies = ("d+", "d-")
    iota = dict(a.iota, **{"d+": F(1), "d-": F(-1)})
    tau = dict(a.tau, **{d: F(1) for d in copies})
    phi = dict(a.phi)
    for d in copies:
        for x in a.alphabet:
            phi[(d, x, d)] = F(1)
        phi[(d, a.alphabet[0], a.states[0])] = F(1, 2)
    return MultiplicityAutomaton(a.alphabet, a.states + copies, iota, tau, phi)


def random_dense_ma(rng, n_states, alphabet):
    """Fully dense automaton with nonzero generic weights."""
    return random_ma(rng, n_states, alphabet, density=1.0, signed=True)


def random_pa(rng, n_states, alphabet):
    """Random probabilistic automaton, trimmed by construction.

    Every state gets positive initial and final mass, which forces
    accessibility and co-accessibility; rows are normalised exactly.
    """
    states = [f"q{i}" for i in range(n_states)]
    raw = [rng.randint(1, 5) for _ in states]
    total = sum(raw)
    iota = {q: F(w, total) for q, w in zip(states, raw)}
    tau = {}
    phi = {}
    for q in states:
        tau_raw = rng.randint(1, 4)
        trans = {}
        for x in alphabet:
            for r in states:
                if rng.random() < 0.6:
                    trans[(q, x, r)] = rng.randint(1, 4)
        row_total = tau_raw + sum(trans.values())
        tau[q] = F(tau_raw, row_total)
        for key, w in trans.items():
            phi[key] = F(w, row_total)
    return MultiplicityAutomaton(alphabet, states, iota, tau, phi)


def random_pda(rng, n_states, alphabet):
    """Random PA with deterministic support: one start state, one target per letter."""
    states = [f"q{i}" for i in range(n_states)]
    iota = {states[0]: F(1)}
    tau = {}
    phi = {}
    for i, q in enumerate(states):
        tau_raw = rng.randint(1, 4)
        trans = {}
        for x in alphabet:
            # bias targets toward later states so most states stay reachable
            choice = rng.randint(0, n_states)
            if choice < n_states:
                trans[(q, x, states[choice])] = rng.randint(1, 4)
        row_total = tau_raw + sum(trans.values())
        tau[q] = F(tau_raw, row_total)
        for key, w in trans.items():
            phi[key] = F(w, row_total)
    return MultiplicityAutomaton(alphabet, states, iota, tau, phi).trim()


def permuted_copy(a, rng):
    """Same series, states shuffled and renamed."""
    order = list(a.states)
    rng.shuffle(order)
    rename = {q: f"r{i}" for i, q in enumerate(order)}
    return MultiplicityAutomaton(
        a.alphabet, [rename[q] for q in order],
        {rename[q]: w for q, w in a.iota.items()},
        {rename[q]: w for q, w in a.tau.items()},
        {(rename[q], x, rename[r]): w for (q, x, r), w in a.phi.items()})


def duplicate_state(a, rng):
    """Add a clone of one state (same rows) and split its initial mass."""
    q = rng.choice(a.states)
    clone = "dup"
    assert clone not in a.states
    iota = dict(a.iota)
    w = iota.pop(q, F(0))
    iota[q] = w / 2
    iota[clone] = w / 2
    tau = dict(a.tau)
    if q in a.tau:
        tau[clone] = a.tau[q]
    phi = dict(a.phi)
    for (s, x, r), weight in a.phi.items():
        if s == q:
            phi[(clone, x, r)] = weight
    return MultiplicityAutomaton(a.alphabet, list(a.states) + [clone], iota, tau, phi)


def ring_pa(n, seed=None):
    """Connected PA on {a, b}: each state stops, follows a ring edge and two random edges.

    Raw weights come from ``randint(1, 5)`` and each row is normalised to
    mass 1, so the sum and every state's sum are exactly 1. The seed
    defaults to n.
    """
    rng = random.Random(n if seed is None else seed)
    states = [f"q{i}" for i in range(n)]
    tau = {}
    phi = {}
    for i, q in enumerate(states):
        final = rng.randint(1, 5)
        edges = {}
        for r in (states[(i + 1) % n], rng.choice(states), rng.choice(states)):
            key = (q, rng.choice("ab"), r)
            edges[key] = edges.get(key, 0) + rng.randint(1, 5)
        total = final + sum(edges.values())
        tau[q] = F(final, total)
        phi.update({key: F(w, total) for key, w in edges.items()})
    return MultiplicityAutomaton(("a", "b"), states, {states[0]: F(1)}, tau, phi).trim()


def split_copy(a, rng):
    """Same series on twice the states: q becomes q.0 and q.1.

    The initial weight and every incoming edge are split between the two
    copies in a random ratio; each copy keeps q's final weight and leaving
    edges, so both copies generate q's series.
    """
    def share():
        return F(rng.randint(1, 5), 6)

    states = [f"{q}.{k}" for q in a.states for k in (0, 1)]
    iota = {}
    for q, w in a.iota.items():
        s = share()
        iota[f"{q}.0"], iota[f"{q}.1"] = w * s, w * (1 - s)
    tau = {f"{q}.{k}": w for q, w in a.tau.items() for k in (0, 1)}
    phi = {}
    for (q, x, r), w in a.phi.items():
        s = share()
        for k in (0, 1):
            phi[(f"{q}.{k}", x, f"{r}.0")] = w * s
            phi[(f"{q}.{k}", x, f"{r}.1")] = w * (1 - s)
    return MultiplicityAutomaton(a.alphabet, states, iota, tau, phi)


def nudged_copy(a, q):
    """Same PA with 1/1000 of one leaving edge of q moved to q's final weight.

    The series changes on the shortest word that reaches q through that
    edge's source, so the copy differs from ``a`` and is still a PA.
    """
    key = next(k for k in sorted(a.phi) if k[0] == q and a.phi[k] > F(1, 1000))
    phi = dict(a.phi)
    phi[key] -= F(1, 1000)
    tau = dict(a.tau)
    tau[q] = tau.get(q, F(0)) + F(1, 1000)
    return MultiplicityAutomaton(a.alphabet, a.states, a.iota, tau, phi)


def plant_convex_state(a, rng):
    """Add a state "mix" whose series is a convex mixture of two states' series.

    Half of one edge of the last state is redirected into it, and its final
    weight and leaving edges mix the rows of two random states after that
    redirection, so the mixture also holds when one of them is the last
    state. Returns the automaton, which stays a PA when ``a`` is one.
    """
    qi, qj = rng.sample(a.states, 2)
    alpha = F(rng.randint(1, 4), 5)
    phi = dict(a.phi)
    key = next(k for k in sorted(a.phi) if k[0] == a.states[-1])
    phi[key] /= 2
    phi[(key[0], key[1], "mix")] = a.phi[key] / 2
    for (q, x, r), w in list(phi.items()):
        if q in (qi, qj):
            share = alpha if q == qi else 1 - alpha
            phi[("mix", x, r)] = phi.get(("mix", x, r), F(0)) + share * w
    tau = dict(a.tau)
    tau["mix"] = alpha * a.tau_weight(qi) + (1 - alpha) * a.tau_weight(qj)
    return MultiplicityAutomaton(a.alphabet, list(a.states) + ["mix"], a.iota, tau, phi)


def plant_mixture_state(a, rng, name, parts):
    """Add a state ``name`` whose series is sum c * (q's series) over ``parts``.

    ``parts`` lists (q, c) pairs; the new state's final weight and leaving
    edges are the same combination of those of the q, so no other state's
    series changes. Half the initial weight of a random initial state moves
    to it, which keeps a PA a PA when the c are convex weights.
    """
    tau = dict(a.tau)
    phi = dict(a.phi)
    final = sum((c * a.tau_weight(q) for q, c in parts), F(0))
    if final:
        tau[name] = final
    for x in a.alphabet:
        for r in a.states:
            w = sum((c * a.weight(q, x, r) for q, c in parts), F(0))
            if w:
                phi[(name, x, r)] = w
    iota = dict(a.iota)
    if iota:
        q = rng.choice(sorted(iota))
        iota[q] /= 2
        iota[name] = iota[q]
    return MultiplicityAutomaton(a.alphabet, list(a.states) + [name], iota, tau, phi)


def dfa_a_count_mod_k(k, residue, alphabet=("a", "b")):
    """Counts the letter a modulo k and accepts at the given residue."""
    states = tuple(f"r{i}" for i in range(k))
    delta = {(states[i], x): states[(i + 1) % k] if x == "a" else states[i]
             for i in range(k) for x in alphabet}
    return Dfa(alphabet, states, states[0], frozenset({states[residue]}), delta)
