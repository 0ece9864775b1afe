import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochlang import MultiplicityAutomaton, empty_automaton, hankel_rank, linalg
from stochlang.automata import replace_iota, with_alphabet
from stochlang.equivalence import MODULAR_MIN_DIM, _backward_closure, _direct_sum, _joined
from stochlang.linalg import (Constraint, Matrix, SpanBasis, _certified_closure, _closure,
                              _minimal_polynomial, _ModularSpan, _packed_push,
                              _powers, _primitive, _rational, dot, is_positive_definite,
                              lp_feasible, rref, solve_affine,
                              spectral_radius_lt_one)

from helpers import (OracleIntegerSpanBasis, OracleModularSpan, OracleSpanBasis, diagonal,
                     from_columns, identity, jury_lt_one_2x2, lyapunov_lt_one, mat_mul,
                     mat_sub, mat_vec, matrix_power, max_abs_entry, membership_in_span,
                     oracle_closure, oracle_fourier_motzkin, oracle_integer_actions,
                     oracle_integer_fourier_motzkin,
                     oracle_integer_sum, oracle_is_positive_definite, oracle_primitive,
                     oracle_krylov_closure, oracle_lp_feasible, oracle_lumping,
                     oracle_monic_minimal_polynomial, oracle_rref,
                     oracle_schur_stable, oracle_solve_affine, oracle_vec_mat,
                     duplicate_state, random_fraction, random_ma, random_pa, ring_pa,
                     split_copy, timed, transpose, with_cancelling_copies)

F = Fraction

fractions_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(st.lists(fractions_st, min_size=m, max_size=m),
                               min_size=n, max_size=n).map(Matrix)))


class TestRref:
    def test_identity(self):
        red, pivots = rref(identity(2))
        assert red == identity(2)
        assert pivots == (0, 1)

    def test_rank_one(self):
        red, pivots = rref(Matrix([[1, 2], [2, 4]]))
        assert red == Matrix([[1, 2], [0, 0]])
        assert pivots == (0,)

    def test_row_swap(self):
        red, pivots = rref(Matrix([[0, 1], [1, 0]]))
        assert red == identity(2)
        assert pivots == (0, 1)

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, m):
        red, _ = rref(m)
        again, _ = rref(red)
        assert again == red


class TestMatrixSurface:
    def test_entries_rows_and_cells(self):
        m = Matrix([[0, "1/2", 0], [0, 0, 0]])
        assert m.entries == ({1: F(1, 2)}, {})
        assert m.rows == ((F(0), F(1, 2), F(0)), (F(0), F(0), F(0)))
        assert (m[0, 1], m[1, 2], m[-2, -2]) == (F(1, 2), F(0), F(1, 2))
        assert all(type(m[i, j]) is Fraction for i in range(2) for j in range(3))
        for key in [(2, 0), (0, 3), (0, -4)]:
            with pytest.raises(IndexError):
                m[key]
        assert repr(m) == "Matrix([[0, 1/2, 0], [0, 0, 0]], ncols=3)"
        assert hash(m) == hash((m.rows, 3))

    def test_from_entries_coerces_and_drops_zeros(self):
        m = Matrix.from_entries([{1: "1/2", 2: 0}, {}], 3)
        assert m == Matrix([[0, "1/2", 0], [0, 0, 0]])
        assert m.entries == ({1: F(1, 2)}, {}) and (m.nrows, m.ncols) == (2, 3)
        assert Matrix.from_entries([], 2) == Matrix([], 2) != Matrix([], 3)
        for column in (3, -1):
            with pytest.raises(ValueError):
                Matrix.from_entries([{column: 1}], 3)

    def test_is_symmetric(self):
        assert Matrix([[1, 2], [2, 0]]).is_symmetric()
        assert not Matrix([[1, 2], [0, 1]]).is_symmetric()
        assert not Matrix([[1, 0], [2, 1]]).is_symmetric()
        assert not Matrix([[1, 2]]).is_symmetric()


# ints and Fractions with denominators up to 10^6, zero often
mixed_st = st.one_of(st.just(0), st.integers(-9, 9),
                     st.fractions(min_value=-9, max_value=9, max_denominator=10**6))


@st.composite
def dependent_matrices(draw):
    """0-12 rows of width 0-12: fresh rows, and zero, repeated, scaled or
    negated copies of earlier ones."""
    ncols = draw(st.integers(0, 12))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "scale", "negate"]))
        if kind == "fresh" or (kind != "zero" and not rows):
            rows.append(draw(st.lists(mixed_st, min_size=ncols, max_size=ncols)))
        elif kind == "zero":
            rows.append([0] * ncols)
        else:
            row = draw(st.sampled_from(rows))
            c = {"repeat": 1, "negate": -1}.get(kind) or draw(mixed_st.filter(bool))
            rows.append([c * x for x in row])
    return Matrix(rows, ncols)


class TestEliminationAgainstFractionOracle:
    """rref and solve_affine run on the integer rows of SpanBasis, also on
    the column matrix of a membership question; Gauss-Jordan over Fractions
    must give the same answers."""

    @given(dependent_matrices(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_echelon_form_solutions_and_coefficients(self, m, data):
        assert rref(m) == oracle_rref(m)
        # a right-hand side inside the column space, or an arbitrary one
        x = data.draw(st.lists(mixed_st, min_size=m.ncols, max_size=m.ncols))
        b = data.draw(st.one_of(
            st.just(mat_vec(m, x)),
            st.lists(mixed_st, min_size=m.nrows, max_size=m.nrows)))
        assert solve_affine(m, b) == oracle_solve_affine(m, b)
        # membership of a vector in the span of the rows
        y = data.draw(st.lists(mixed_st, min_size=m.nrows, max_size=m.nrows))
        v = data.draw(st.one_of(
            st.just(mat_vec(transpose(m), y)),
            st.lists(mixed_st, min_size=m.ncols, max_size=m.ncols)))
        expected = oracle_solve_affine(from_columns(m.rows, m.ncols), v)
        assert membership_in_span(v, m.rows) == (
            None if expected is None else expected.particular)


class TestSolveAffine:
    def test_identity(self):
        sol = solve_affine(identity(2), [1, 2])
        assert sol.particular == (F(1), F(2))
        assert sol.nullspace == ()

    def test_underdetermined(self):
        sol = solve_affine(Matrix([[1, 1]]), [1])
        assert sol.particular == (F(1), F(0))
        assert sol.nullspace == ((F(-1), F(1)),)

    def test_inconsistent(self):
        assert solve_affine(Matrix([[1], [1]]), [1, 2]) is None

    @given(matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_soundness(self, a, data):
        b = data.draw(st.lists(fractions_st, min_size=a.nrows, max_size=a.nrows))
        sol = solve_affine(a, b)
        if sol is None:
            return
        assert list(mat_vec(a, sol.particular)) == [F(x) for x in b]
        for v in sol.nullspace:
            assert all(x == 0 for x in mat_vec(a, v))


class TestMembership:
    def test_zero_vector(self):
        assert membership_in_span((F(0), F(0)), [(F(1), F(2))]) == (F(0),)

    def test_multiple(self):
        assert membership_in_span((F(2), F(4)), [(F(1), F(2))]) == (F(2),)

    def test_outside(self):
        assert membership_in_span((F(1), F(0)), [(F(0), F(1))]) is None


@st.composite
def symmetric_matrices(draw):
    """Symmetric Fraction matrices of 1-10 rows, from four families: B^T B + c I
    with c > 0, positive definite; B^T B with fewer rows in B than columns,
    semidefinite and singular; B^T D B with D a diagonal of both signs,
    indefinite when B has full rank; and a leading k x k block of rank
    k - 1, a zero leading minor, bordered by a shifted diagonal so that
    later minors may be nonzero, positive ones among them."""
    n = draw(st.integers(1, 10))
    family = draw(st.sampled_from(["shifted", "low rank", "indefinite", "zero minor"]))

    def gram(nrows, ncols, weights):
        b = draw(st.lists(st.lists(fractions_st, min_size=ncols, max_size=ncols),
                          min_size=nrows, max_size=nrows))
        return [[sum((w * r[i] * r[j] for w, r in zip(weights, b)), F(0)) for j in range(ncols)]
                for i in range(ncols)]

    if family == "shifted":
        c = draw(st.fractions(min_value=F(1, 8), max_value=3, max_denominator=8))
        g = gram(n, n, [1] * n)
        return Matrix([[x + c * (i == j) for j, x in enumerate(r)] for i, r in enumerate(g)])
    if family == "low rank":
        return Matrix(gram(draw(st.integers(0, n - 1)), n, [1] * n))
    if family == "indefinite":
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
        return Matrix(gram(n, n, signs))
    k = draw(st.integers(1, n))
    g = [r + [F(0)] * (n - k) for r in gram(k - 1, k, [1] * k)]
    g += [[F(0)] * n for _ in range(n - k)]
    c = draw(st.integers(1, 6))
    for i in range(n):
        for j in range(max(i, k), n):
            g[i][j] = draw(fractions_st) + c * (i == j)
    return Matrix([[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


class TestPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(identity(3))

    def test_negative(self):
        assert not is_positive_definite(Matrix([[-1]]))

    def test_scaled_identity(self):
        assert is_positive_definite(Matrix([[F(16, 7), 0], [0, F(16, 7)]]))

    @pytest.mark.parametrize("rows, verdict", [
        ([[0, 1], [1, 0]], False),
        ([[0, 0], [0, 1]], False),
        ([[1, 2], [2, 5]], True),
        # minors 0, -1, 0, 1: the last is positive, the criterion still fails
        ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], False),
        ([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 4)]], True),
    ])
    def test_explicit_cases(self, rows, verdict):
        m = Matrix(rows)
        assert is_positive_definite(m) is verdict
        assert oracle_is_positive_definite(m) is verdict

    def test_empty_matrix(self):
        assert is_positive_definite(Matrix([], 0))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="^positive definiteness of a non-square matrix$"):
            is_positive_definite(Matrix([[1, 2]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="^matrix is not symmetric$"):
            is_positive_definite(Matrix([[1, 2], [0, 1]]))

    @given(symmetric_matrices())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_fraction_minors(self, m):
        assert is_positive_definite(m) == oracle_is_positive_definite(m)

    def test_gram_matrix_of_32_rows_in_one_pass(self):
        # a Fraction determinant per leading minor takes about 1 s here
        rng = random.Random(32)
        n = 32
        b = [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
        m = Matrix([[sum(r[i] * r[j] for r in b) + (i == j) for j in range(n)]
                    for i in range(n)])
        assert timed(is_positive_definite, m, limit_s=0.25)


class TestSpectralRadius:
    def test_contracting_scaled_identity(self):
        m = Matrix([[F(3, 4), 0], [0, F(3, 4)]])
        assert spectral_radius_lt_one(m)
        # the associated quadratic-form solution is (16/7) Id, check by substitution
        p = Matrix([[F(16, 7), 0], [0, F(16, 7)]])
        assert mat_sub(mat_mul(mat_mul(transpose(m), p), m), p) == diagonal([-1, -1])

    def test_identity_is_not(self):
        assert not spectral_radius_lt_one(identity(1))

    def test_expanding_scalar(self):
        assert not spectral_radius_lt_one(Matrix([[2]]))

    def test_empty(self):
        assert spectral_radius_lt_one(Matrix([], ncols=0))

    def test_nilpotent(self):
        assert spectral_radius_lt_one(Matrix([[0, 1], [0, 0]]))

    def test_rotation_is_not(self):
        assert not spectral_radius_lt_one(Matrix([[0, -1], [1, 0]]))

    def test_agrees_with_iterate_decay(self):
        rng = random.Random(7)
        for n in (2, 3):
            for _ in range(40):
                m = Matrix([[F(rng.randint(-8, 8), rng.randint(1, 4))
                             for _ in range(n)] for _ in range(n)])
                decided = spectral_radius_lt_one(m)
                tail = max_abs_entry(matrix_power(m, 64))
                if decided:
                    assert tail < F(1, 10 ** 6)
                elif n == 2 and not jury_lt_one_2x2(m):
                    assert tail > F(1, 10 ** 6)

    def test_agrees_with_characteristic_polynomial(self):
        rng = random.Random(11)
        for _ in range(100):
            m = Matrix([[F(rng.randint(-8, 8), rng.randint(1, 4))
                         for _ in range(2)] for _ in range(2)])
            assert spectral_radius_lt_one(m) == jury_lt_one_2x2(m)

    def test_checks_unit_vectors_after_a_covered_one(self):
        # e1 lies in the Krylov space of e0 (a stable nilpotent block); the
        # expanding direction e2 must still be examined
        m = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 2]])
        assert not spectral_radius_lt_one(m)
        assert not lyapunov_lt_one(m)

    def test_agrees_with_lyapunov_oracle(self):
        # entries are divided by a random scale so that contractions and
        # non-contractions both occur in every dimension
        rng = random.Random(12)
        verdicts = {True: 0, False: 0}
        for n in range(1, 6):
            for _ in range(30):
                scale = rng.choice([1, 2, 4, 8])
                m = Matrix([[F(rng.randint(-8, 8), rng.randint(1, 4) * scale)
                             for _ in range(n)] for _ in range(n)])
                decided = spectral_radius_lt_one(m)
                assert decided == lyapunov_lt_one(m)
                verdicts[decided] += 1
        assert min(verdicts.values()) >= 30

    def test_unit_circle_entries_agree_with_lyapunov_oracle(self):
        # roots on or near the unit circle, repeated roots and nilpotent parts
        values = [F(-1), F(0), F(1), F(1, 2), F(-1, 2)]
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(1, 3)
            m = Matrix([[rng.choice(values) for _ in range(n)] for _ in range(n)])
            assert spectral_radius_lt_one(m) == lyapunov_lt_one(m)


def schur_stable(coeffs):
    """The verdict of ``linalg._schur_cohn`` on the coprime integer multiple
    of a polynomial of ints or Fractions, constant term first, checked
    against the Fraction recursion ``oracle_schur_stable``: the former
    public ``linalg.schur_stable``, which no decision called."""
    if not coeffs or not coeffs[-1]:
        raise ValueError("polynomial needs a nonzero leading coefficient")
    verdict = linalg._schur_cohn(_primitive(F(x) for x in coeffs))
    assert verdict == oracle_schur_stable(coeffs)
    return verdict


class TestSchurStable:
    def test_known_roots(self):
        assert schur_stable([F(1, 4), F(-1), F(1)])          # (z - 1/2)^2
        assert schur_stable([F(0), F(0), F(1)])              # z^2
        assert schur_stable([F(7)])                          # no roots
        assert not schur_stable([F(-1), F(0), F(1)])         # z^2 - 1
        assert not schur_stable([F(1), F(0), F(1)])          # z^2 + 1
        assert not schur_stable([F(1, 2), F(-3, 2), F(1)])   # (z - 1)(z - 1/2)

    def test_scaling_does_not_matter(self):
        assert schur_stable([F(-3, 4), F(-3, 2), F(3)])      # 3 (z^2 - z/2 - 1/4)

    def test_matches_jury_on_quadratics(self):
        rng = random.Random(14)
        for _ in range(200):
            t = F(rng.randint(-9, 9), rng.randint(1, 4))
            d = F(rng.randint(-9, 9), rng.randint(1, 4))
            expected = abs(d) < 1 and 1 - t + d > 0 and 1 + t + d > 0
            assert schur_stable([d, -t, F(1)]) == expected

    def test_rejects_zero_leading_coefficient(self):
        for stable in (schur_stable, oracle_schur_stable):
            with pytest.raises(ValueError):
                stable([F(1), F(0)])
            with pytest.raises(ValueError):
                stable([])


def poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def binomial_power(root, k):
    """(z - root)^k, constant term first."""
    p = [F(1)]
    for _ in range(k):
        p = poly_mul(p, [-root, F(1)])
    return p


polynomials = st.lists(fractions_st, min_size=1, max_size=9).filter(lambda p: p[-1])
roots = st.fractions(min_value=-2, max_value=2, max_denominator=6)
# (z - 1)^k, (z + 1)^k, z^d - 1 and z^d + 1: every root on the unit circle
circle_polys = st.one_of(
    st.tuples(st.sampled_from([F(1), F(-1)]), st.integers(1, 5)).map(
        lambda rk: binomial_power(*rk)),
    st.tuples(st.integers(1, 9), st.sampled_from([F(1), F(-1)])).map(
        lambda ds: [ds[1]] + [F(0)] * (ds[0] - 1) + [F(1)]))


class TestSchurAgainstFractionOracle:
    """Fraction-free Schur-Cohn against the Fraction recursion."""

    @given(polynomials)
    @settings(max_examples=200, deadline=None)
    def test_random_polynomials(self, p):
        assert schur_stable(p) == oracle_schur_stable(p)

    @given(st.lists(roots, min_size=1, max_size=8),
           st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_products_of_linear_factors(self, rs, scale):
        # a negative scale gives a negative leading coefficient
        p = [F(1)]
        for r in rs:
            p = poly_mul(p, [-r, F(1)])
        p = [scale * x for x in p]
        expected = all(abs(r) < 1 for r in rs)
        assert schur_stable(p) == oracle_schur_stable(p) == expected

    @given(circle_polys, st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=6)
                                  .filter(lambda r: abs(r) < 1), max_size=4),
           st.sampled_from([F(1), F(-1), F(-3, 2), F(7)]))
    @settings(max_examples=150, deadline=None)
    def test_roots_on_the_unit_circle(self, circle, inside, scale):
        p = circle
        for r in inside:
            p = poly_mul(p, [-r, F(1)])
        p = [scale * x for x in p]
        assert not schur_stable(p)
        assert not oracle_schur_stable(p)

    @given(polynomials)
    @settings(max_examples=100, deadline=None)
    def test_negative_leading_coefficient(self, p):
        q = [-x for x in p]
        assert schur_stable(q) == schur_stable(p) == oracle_schur_stable(q)

    def test_integer_input(self):
        assert schur_stable([1, -4, 4])                       # 4 (z - 1/2)^2
        assert not schur_stable([-1, 0, 0, 1])                # z^3 - 1


class TestSumWeights:
    """The one integer evaluation of every sum (``linalg._sum_weights``)
    against Schur-Cohn over Fractions and the value P(1) / C(1) of
    ``helpers.oracle_series_sum``, on the terms u_k / s^k of a sequence
    whose integer connection polynomial is c."""

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=8).filter(lambda c: c[0]),
           st.integers(1, 6), st.lists(st.integers(-9, 9), min_size=7, max_size=7))
    @example([1, -1], 2, [1] * 7)                       # u_k = 1: sum 2
    @example([4, -4, 1], 1, [0, 1] + [0] * 5)           # (1 - z/2)^2: sum 4
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_and_value_as_the_fraction_formula(self, c, s, start):
        order = len(c) - 1
        conn = [F(x, s ** j) for j, x in enumerate(c)]
        terms = [F(u, s ** k) for k, u in enumerate(start[:order])]
        evaluation = linalg._sum_weights(c, s)
        if not oracle_schur_stable(conn[::-1]):
            assert evaluation is None
            return
        weights, denominator = evaluation
        assert len(weights) == order and all(type(x) is int for x in weights)
        assert (denominator > 0) == (c[0] > 0)
        p_at_one = sum((conn[j] * terms[k - j] for k in range(order) for j in range(k + 1)),
                       F(0))
        assert F(sum(map(mul, weights, start)), denominator) == p_at_one / sum(conn)


krylov_entries = st.fractions(min_value=-9, max_value=9, max_denominator=10**3)


@st.composite
def krylov_cases(draw):
    """A square matrix of size 0-8 (zero, nilpotent, diagonal, or random with
    denominators up to 10^3) and a start vector (zero, unit, random, or an
    eigenvector, planted by a rank-one change of one column)."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["zero", "nilpotent", "diagonal", "random"]))
    free = {"zero": lambda i, j: False, "nilpotent": lambda i, j: j > i,
            "diagonal": lambda i, j: i == j, "random": lambda i, j: True}[kind]
    cells = [[draw(krylov_entries) if free(i, j) else F(0) for j in range(n)]
             for i in range(n)]
    start = draw(st.sampled_from(["zero", "unit", "random", "eigenvector"]))
    if start == "zero" or n == 0:
        return Matrix(cells, n), (F(0),) * n
    if start == "unit":
        i = draw(st.integers(0, n - 1))
        return Matrix(cells, n), tuple(F(int(j == i)) for j in range(n))
    v = tuple(draw(st.lists(krylov_entries, min_size=n, max_size=n).filter(any)))
    if start == "eigenvector":
        # M + (lam v - M v) e_j^T / v_j maps v to lam v
        lam = draw(krylov_entries)
        j = next(j for j, x in enumerate(v) if x)
        image = mat_vec(Matrix(cells, n), v)
        for i in range(n):
            cells[i][j] += (lam * v[i] - image[i]) / v[j]
    return Matrix(cells, n), v


def kernel_minimal_polynomial(m, v):
    """The library's minimal polynomial of v under m, from its integer powers:
    the coprime integer c, c[0] > 0, with sum_j c_j A^(d-j) v = 0 for
    A = s m, made the monic polynomial of m, constant term first, and
    checked against the monic Fraction kernel that it replaced."""
    action, scale = oracle_integer_sum([m], m.nrows)
    powers = _powers(action, _primitive(v), m.nrows + 1)
    c = _minimal_polynomial(powers)
    assert all(type(x) is int for x in c) and c[0] > 0 and gcd(*c) == 1
    d = len(c) - 1
    monic = tuple(F(c[d - i], c[0] * scale ** (d - i)) for i in range(d + 1))
    assert monic == oracle_monic_minimal_polynomial(powers, scale)
    return monic


class TestMinimalPolynomial:
    """The minimal polynomial read off one echelon form of the integer vectors
    A^k v against the Krylov closure and solve over Fractions."""

    @given(krylov_cases())
    @example((identity(2), (F(0), F(0))))                # zero vector
    @example((Matrix([[2, 0], [0, 3]]), (F(0), F(1))))          # eigenvector
    @example((Matrix([[F(1, 2), -1, 0], [F(1, 3), 0, 2], [0, 1, F(-3, 2)]]),
              (F(1), F(-2), F(1))))                             # degree 3
    @settings(max_examples=200, deadline=None)
    def test_same_degree_and_polynomial_as_fraction_closure(self, case):
        m, v = case
        vecs, expected = oracle_krylov_closure(m, v)
        mu = kernel_minimal_polynomial(m, v)
        assert len(mu) - 1 == len(vecs)
        assert mu == expected
        # mu(M) v = 0
        image = v
        total = tuple(mu[0] * x for x in v)
        for c in mu[1:]:
            image = mat_vec(m, image)
            total = tuple(t + c * x for t, x in zip(total, image))
        assert not any(total)


class TestKrylovClosure:
    """The library's minimal polynomial on small fixed cases, with the Krylov
    vectors of the Fraction closure beside it."""

    def test_minimal_polynomial_annihilates(self):
        rng = random.Random(15)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)])
            v = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            vecs, _ = oracle_krylov_closure(m, v)
            mu = kernel_minimal_polynomial(m, v)
            assert len(mu) == len(vecs) + 1 and mu[-1] == 1
            image = v
            total = tuple(mu[0] * x for x in v)
            for c in mu[1:]:
                image = mat_vec(m, image)
                total = tuple(t + c * x for t, x in zip(total, image))
            assert not any(total)

    def test_zero_vector(self):
        v = (F(0), F(0))
        assert oracle_krylov_closure(identity(2), v)[0] == []
        assert kernel_minimal_polynomial(identity(2), v) == (F(1),)

    def test_eigenvector(self):
        m, v = Matrix([[2, 0], [0, 3]]), (F(0), F(1))
        assert oracle_krylov_closure(m, v)[0] == [(F(0), F(1))]
        assert kernel_minimal_polynomial(m, v) == (F(-3), F(1))


class TestLpFeasible:
    def test_interval(self):
        point = lp_feasible([Constraint.ge((1,), 0), Constraint.ge((-1,), 1)])
        assert point is not None and 0 <= point[0] <= 1

    def test_empty_interval(self):
        assert lp_feasible([Constraint.ge((1,), -1), Constraint.ge((-1,), 0)]) is None

    def test_simplex(self):
        point = lp_feasible([
            Constraint.eq((1, 1), -1),
            Constraint.ge((1, 0), 0),
            Constraint.ge((0, 1), 0)])
        assert point is not None
        assert point[0] + point[1] == 1 and point[0] >= 0 and point[1] >= 0

    def test_no_variables(self):
        assert lp_feasible([], n_vars=0) == ()

    def test_inconsistent_equalities(self):
        assert lp_feasible([Constraint.eq((1,), 0), Constraint.eq((1,), -1)]) is None

    def _brute_force_feasible(self, constraints, n):
        """Vertex enumeration inside a bounding box, exact."""
        import itertools
        box = [Constraint.ge(tuple(1 if j == i else 0 for j in range(n)), 100)
               for i in range(n)]
        box += [Constraint.ge(tuple(-1 if j == i else 0 for j in range(n)), 100)
                for i in range(n)]
        rows = list(constraints) + box
        for subset in itertools.combinations(rows, n):
            sol = solve_affine(Matrix([c.coeffs for c in subset], n),
                               [-c.constant for c in subset])
            if sol is None or sol.nullspace:
                continue
            point = sol.particular
            ok = all(
                (c.constant + dot(c.coeffs, point) == 0) if c.equality
                else (c.constant + dot(c.coeffs, point) >= 0)
                for c in constraints)
            if ok:
                return point
        return None

    def test_soundness_and_completeness_against_vertices(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 3)
            constraints = []
            for _ in range(rng.randint(1, 5)):
                coeffs = tuple(F(rng.randint(-2, 2)) for _ in range(n))
                constraints.append(Constraint(coeffs, F(rng.randint(-3, 3)),
                                              rng.random() < 0.25))
            point = lp_feasible(constraints, n)
            if point is not None:
                for c in constraints:
                    value = c.constant + dot(c.coeffs, point)
                    assert value == 0 if c.equality else value >= 0
            else:
                assert self._brute_force_feasible(constraints, n) is None


@st.composite
def inequality_systems(draw):
    """Rows (co, c), c + co . y >= 0, over k <= 4 unknowns: as drawn, or with
    a row with co = 0, a pair of rows that no point meets, a repeated or
    positively scaled row, or only rows that bound no unknown from above."""
    k = draw(st.integers(0, 4))
    rows = [(tuple(draw(st.lists(fractions_st, min_size=k, max_size=k))), draw(fractions_st))
            for _ in range(draw(st.integers(0, 7)))]
    kind = draw(st.sampled_from(("as drawn", "zero row", "contradiction", "scaled",
                                 "unbounded")))
    if kind == "zero row":
        rows.append(((F(0),) * k, draw(fractions_st)))
    elif rows and kind == "contradiction":
        co, c = draw(st.sampled_from(rows))
        rows.append((tuple(-x for x in co), -c - draw(st.fractions(F(1, 4), 2))))
    elif rows and kind == "scaled":
        co, c = draw(st.sampled_from(rows))
        factor = draw(st.sampled_from((F(1), F(2), F(3, 7))))
        rows.append((tuple(factor * x for x in co), factor * c))
    elif kind == "unbounded":
        rows = [(tuple(abs(x) for x in co), c) for co, c in rows]
    return draw(st.permutations(rows)), k


def integer_rows(rows, factors):
    """Each row (co, c) as the integer row co + (c,), a positive multiple of
    its primitive row, so that the content is not always 1."""
    return [[m * x for x in _primitive(co + (c,))] for (co, c), m in zip(rows, factors)]


def assert_meets(rows, point):
    assert all(c + dot(co, point) >= 0 for co, c in rows)


class TestFourierMotzkinAgainstFractionOracle:
    """Fourier-Motzkin on integer rows (``oracle_integer_fourier_motzkin``)
    against the Fraction kernel it replaced, which eliminated over rows
    divided by their first nonzero coefficient: a positive scale moves
    neither the feasible set, nor the sign of a coefficient, nor a bound, so
    the point must be the same. The simplex, through ``lp_feasible`` on the
    same rows, must give the same verdict and a point that meets every row."""

    @given(inequality_systems(), st.lists(st.integers(1, 6), min_size=8, max_size=8))
    @settings(max_examples=400, deadline=None)
    @example(([], 0), [1] * 8)
    @example(((((), F(-1)),), 0), [1] * 8)
    @example(((((F(1),), F(0)), ((F(-1),), F(-1))), 1), [2] * 8)
    def test_same_point_as_the_oracle(self, system, factors):
        rows, k = system
        point = oracle_integer_fourier_motzkin(integer_rows(rows, factors), k)
        assert point == oracle_fourier_motzkin(rows, k)
        simplex = lp_feasible([Constraint.ge(co, c) for co, c in rows], k)
        assert (simplex is None) == (point is None)
        if point is not None:
            assert_meets(rows, point)
            assert_meets(rows, simplex)

    @pytest.mark.parametrize("rows,k,point", [
        ([(1, 0), (-1, -1)], 1, None),
        ([(0, 0, -3), (1, 1, 0)], 2, None),
        ([(2, 0, -1), (0, 0, 1)], 2, (F(1, 2), F(0))),
        ([(-2, 3), (-4, 10)], 1, (F(3, 2),)),
        ([(1, -1, 0), (0, 1, -2), (-3, 0, 9)], 2, (F(2), F(2))),
        ([], 3, (F(0), F(0), F(0))),
    ], ids=["infeasible", "zero-row", "unbounded", "upper-bounds", "triangle", "no-rows"])
    def test_small_systems(self, rows, k, point):
        assert oracle_integer_fourier_motzkin(rows, k) == point
        oracle_rows = [(tuple(map(F, r[:-1])), F(r[-1])) for r in rows]
        assert oracle_fourier_motzkin(oracle_rows, k) == point
        simplex = lp_feasible([Constraint.ge(co, c) for co, c in oracle_rows], k)
        assert (simplex is None) == (point is None)
        if point is not None:
            assert_meets(oracle_rows, simplex)


@st.composite
def constraint_systems(draw):
    """Constraints over n <= 3 unknowns, each an equality with probability 1/3."""
    n = draw(st.integers(0, 3))
    constraints = [Constraint(tuple(draw(st.lists(fractions_st, min_size=n, max_size=n))),
                              draw(fractions_st), draw(st.sampled_from((False, False, True))))
                   for _ in range(draw(st.integers(0, 6)))]
    return constraints, n


@given(constraint_systems())
@settings(max_examples=300, deadline=None)
def test_lp_feasible_matches_solve_affine_then_the_oracle_kernel(system):
    """The simplex in standard form against Fourier-Motzkin in the nullspace
    coordinates of the equalities: the same verdict, a point that meets
    every constraint, and the oracle's point where the equalities fix it."""
    constraints, n = system
    point = lp_feasible(constraints, n)
    expected = oracle_lp_feasible(constraints, n)
    assert (point is None) == (expected is None)
    if point is None:
        return
    for c in constraints:
        value = c.constant + dot(c.coeffs, point)
        assert value == 0 if c.equality else value >= 0
    equalities = [c for c in constraints if c.equality]
    if len(oracle_rref(Matrix([c.coeffs for c in equalities], n))[1]) == n:
        assert point == expected


class TestSpanBasis:
    def test_grows_and_contains(self):
        span = SpanBasis(3)
        assert span.add((F(1), F(0), F(1)))
        assert not span.add((F(2), F(0), F(2)))
        assert span.add((F(0), F(1), F(0)))
        assert span.dimension == 2
        assert span.contains((F(3), F(5), F(3)))
        assert not span.contains((F(0), F(0), F(1)))


entries_st = st.one_of(st.integers(-4, 4),
                       st.fractions(min_value=-4, max_value=4, max_denominator=6))
scalars_st = st.one_of(st.integers(-3, 3).filter(bool),
                       st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))


@st.composite
def insertion_sequences(draw):
    """A dimension and a sequence of (insert?, vector) steps whose vectors are
    fresh, zero, repeated, scaled, negated or summed from earlier ones, with
    int and Fraction entries mixed."""
    dim = draw(st.integers(0, 8))
    seen, steps = [], []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "multiple", "negative",
                                     "sum")))
        if kind == "zero":
            v = tuple(draw(st.sampled_from((0, F(0)))) for _ in range(dim))
        elif kind == "fresh" or not seen:
            v = tuple(draw(entries_st) for _ in range(dim))
        elif kind == "repeat":
            v = draw(st.sampled_from(seen))
        elif kind == "multiple":
            c = draw(scalars_st)
            v = tuple(c * x for x in draw(st.sampled_from(seen)))
        elif kind == "negative":
            v = tuple(-x for x in draw(st.sampled_from(seen)))
        else:
            u, w = draw(st.sampled_from(seen)), draw(st.sampled_from(seen))
            v = tuple(x + y for x, y in zip(u, w))
        seen.append(v)
        steps.append((draw(st.booleans()), v))
    return dim, steps


# The size of the dense oracle's rows, in bits, at which a sequence of
# test_sparse_rows_equal_the_dense_integer_rows stops; no fixed example
# reaches it (the largest holds 0.53 million bits).
ORACLE_BITS = 1 << 21


def oracle_bits(dense):
    return sum(abs(x).bit_length() for row in dense.integer_rows for x in row)


def inserted(span, v):
    """``span.add(v)`` as a verdict; a new row must come back as the span's
    own row at its pivot."""
    row = span.add(v)
    if row is None:
        return False
    assert span._rows[min(row)] is row
    return True


def sparse(v):
    """v as ``SpanBasis`` takes a sparse vector: the nonzero entries of an
    integer multiple of v, its content not divided out."""
    scale = lcm(*(F(x).denominator for x in v))
    return {j: int(x * scale) for j, x in enumerate(v) if x}


def assert_same_rows(span, oracle):
    """The sparse rows of ``span`` hold exactly the nonzero entries of the
    oracle's dense primitive integer rows, under the same pivots."""
    assert tuple(span._rows) == oracle.pivots
    assert span.integer_rows == oracle.integer_rows
    for (p, row), line in zip(span._rows.items(), oracle.integer_rows):
        assert row == {j: y for j, y in enumerate(line) if y}
        assert row[p] > 0 and all(q == p or q not in row for q in span._rows)


@st.composite
def wide_insertion_sequences(draw):
    """Dimension 0-48, densities 0.05-1, supports anywhere or inside one
    block of a block diagonal, entries of up to 200 bits as ints or
    Fractions; vectors are fresh, zero, repeated, scaled, negated or
    combined from earlier ones with coefficients as large as the entries."""
    dim = draw(st.integers(0, 48))
    density = draw(st.sampled_from((0.05, 0.1, 0.25, 0.5, 1.0)))
    bits = draw(st.sampled_from((1, 8, 64, 200)))
    fractions = draw(st.booleans())
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1), max_size=4))) if dim > 1 else []
    blocks = [range(lo, hi) for lo, hi in zip([0] + cuts, cuts + [dim]) if lo < hi]
    rng = random.Random(draw(st.integers(0, 2**32)))

    def entry():
        x = rng.randint(1, 2**bits) * rng.choice((-1, 1))
        return F(x, rng.randint(1, 2**bits)) if fractions and rng.random() < 0.5 else x

    def fresh():
        support = rng.choice(blocks) if blocks else ()
        v = [0] * dim
        for j in support:
            if rng.random() < density:
                v[j] = entry()
        return v

    seen, steps = [], []
    for _ in range(rng.randint(1, 2 * dim + 4)):
        kind = rng.choice(("fresh", "fresh", "zero", "repeat", "multiple", "negative",
                           "combination"))
        if kind == "zero":
            v = [0] * dim
        elif kind == "fresh" or not seen:
            v = fresh()
        elif kind == "repeat":
            v = rng.choice(seen)
        elif kind == "multiple":
            c = entry()
            v = [c * x for x in rng.choice(seen)]
        elif kind == "negative":
            v = [-x for x in rng.choice(seen)]
        else:
            v = [0] * dim
            for u in rng.sample(seen, min(len(seen), rng.randint(2, 4))):
                c = entry()
                v = [x + c * y for x, y in zip(v, u)]
        seen.append(v)
        steps.append((rng.random() < 0.7, v))
    return dim, steps


class TestSpanBasisAgainstFractionOracle:
    @given(insertion_sequences())
    @settings(max_examples=200, deadline=None)
    def test_same_verdicts_dimension_and_basis(self, case):
        dim, steps = case
        span, oracle, dense = SpanBasis(dim), OracleSpanBasis(dim), OracleIntegerSpanBasis(dim)
        for insert, v in steps:
            if insert:
                assert inserted(span, v) == oracle.add(v) == dense.add(v)
            else:
                assert span.contains(v) == oracle.contains(v) == dense.contains(v)
            assert span.dimension == oracle.dimension == dense.dimension
        basis = span.basis
        assert basis == oracle.basis == dense.basis
        assert all(type(x) is Fraction for row in basis for x in row)
        assert_same_rows(span, dense)

    @given(wide_insertion_sequences())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_sparse_rows_equal_the_dense_integer_rows(self, case):
        """Wide, sparse, block-diagonal and 200-bit inputs, so that pivot
        entries other than 1 and content division are exercised; every
        other vector goes in sparse.

        The examples are fixed (``derandomize``), and an example stops
        inserting once the oracle's rows hold ``ORACLE_BITS`` bits: on 48
        dense columns of 200-bit fractions the rows grow to tens of
        thousands of bits per entry, and one such sequence of 100 steps ran
        for more than 600 s, most of it in the dense oracle."""
        dim, steps = case
        span, dense = SpanBasis(dim), OracleIntegerSpanBasis(dim)
        for k, (insert, v) in enumerate(steps):
            if oracle_bits(dense) > ORACLE_BITS:
                break
            given_v = sparse(v) if k % 2 else v
            if insert:
                assert inserted(span, given_v) == dense.add(v)
                assert_same_rows(span, dense)
            else:
                assert span.contains(given_v) == dense.contains(v)
            assert span.dimension == dense.dimension
        assert span.basis == dense.basis

    def test_pivot_entries_other_than_one(self):
        span, dense = SpanBasis(3), OracleIntegerSpanBasis(3)
        for v in ((6, 4, 0), (0, 9, 15), (3, 5, 7), (12, 2, 1)):
            assert inserted(span, v) == dense.add(v)
            assert_same_rows(span, dense)
        assert span.dimension == 3 and span.integer_rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


LETTERS = ("a", "b", "c")


@st.composite
def signed_automata(draw):
    """0-12 states with signed weights at densities 0 to 0.7, divided by
    1-6 so that scales differ; some letters may carry no transition at
    all. As drawn, or drawn over {a, b} and extended by ``with_alphabet``,
    or with a new initial vector, zeros included, from ``replace_iota``."""
    n = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(("drawn", "with_alphabet", "replace_iota")))
    letters = LETTERS[:2] if kind == "with_alphabet" else LETTERS
    a = random_ma(random.Random(draw(st.integers(0, 2**32))), n, letters,
                  density=draw(st.sampled_from((0.0, 0.1, 0.3, 0.7))))
    silent = draw(st.sets(st.sampled_from(letters)))
    k = draw(st.integers(1, 6))
    a = MultiplicityAutomaton(letters, a.states, a.iota, a.tau,
                              {t: w / k for t, w in a.phi.items() if t[1] not in silent})
    if kind == "with_alphabet":
        return with_alphabet(a, LETTERS)
    if kind == "replace_iota":
        weights = st.sampled_from((F(0), F(1), F(-2, 3), F(5, 12), F(7)))
        return replace_iota(a, draw(st.lists(weights, min_size=n, max_size=n)))
    return a


def dense_grid(a, x):
    return [[a.weight(q, x, r) for r in a.states] for q in a.states]


def line_sets(actions):
    return [[set(line) for line in action] for action in actions]


class TestIntegerLetterMapsAgainstDenseScan:
    """The closures' integer maps come from the automata's integer forms;
    a scan of every cell of their dense matrices, with a transpose for
    backward maps, must give the same pairs under the same scale."""

    @given(st.lists(signed_automata(), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_maps_of_direct_sums_match_the_dense_scan(self, blocks):
        dense = [{x: Matrix(dense_grid(a, x), a.n_states) for x in LETTERS} for a in blocks]
        forms = [a._integer_form() for a in blocks]
        for left in (True, False):
            oracle, oracle_scale = oracle_integer_actions([[d[x] for d in dense]
                                                           for x in LETTERS], left)
            built, scale = _direct_sum(forms, len(LETTERS), left)
            assert line_sets(built) == line_sets(oracle)
            assert scale == oracle_scale
            assert all(len(action) == sum(a.n_states for a in blocks) for action in built)
        for a, d in zip(blocks, dense):
            action, scale = a._integer_form().summed
            oracle_action, oracle_scale = oracle_integer_sum(list(d.values()), a.n_states)
            assert scale == oracle_scale
            assert [set(line) for line in action] == [set(line) for line in oracle_action]
        # gamma of the sum: one positive multiple of the final vectors
        gamma = [a.tau_weight(q) for a in blocks for q in a.states]
        joined = _joined([(f.tau, f.tau_factor) for f in forms])
        assert oracle_primitive(joined) == oracle_primitive(gamma)
        assert all(x * y >= 0 for x, y in zip(joined, gamma))

    @given(signed_automata())
    @settings(max_examples=150, deadline=None)
    def test_representation_equals_the_dense_matrices(self, a):
        rep = a.to_linear_representation()
        n = a.n_states
        for x in LETTERS:
            m, grid = rep.mu[x], dense_grid(a, x)
            dense = Matrix(grid, n)
            assert m == dense and hash(m) == hash(dense)
            assert (m.nrows, m.ncols) == (dense.nrows, dense.ncols) == (n, n)
            # the entries are exactly the transitions on x, as nonzero Fractions
            assert m.entries == dense.entries == tuple(
                {j: w for j, w in enumerate(row) if w} for row in grid)
            assert {(a.states[i], x, a.states[j]): w for i, row in enumerate(m.entries)
                    for j, w in row.items()} == {t: w for t, w in a.phi.items() if t[1] == x}
            assert all(type(w) is Fraction and w for row in m.entries for w in row.values())
            assert m.rows == tuple(map(tuple, grid))
            assert all(type(v) is Fraction for row in m.rows for v in row)
            assert all(m[i, j] == grid[i][j] for i in range(n) for j in range(n))
        assert rep.lam == tuple(a.iota_weight(q) for q in a.states)
        assert rep.gamma == tuple(a.tau_weight(q) for q in a.states)

    @given(signed_automata(), st.lists(st.sampled_from(LETTERS), max_size=6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_forward_matches_the_dense_oracle(self, a, word, data):
        rep = a.to_linear_representation()
        v = tuple(data.draw(st.lists(fractions_st, min_size=a.n_states,
                                     max_size=a.n_states)))
        for start in (rep.lam, v):
            expected = start
            for x in word:
                expected = oracle_vec_mat(expected, rep.mu[x])
            assert rep.forward(start, word) == expected
        assert rep.evaluate(word) == dot(rep.forward(rep.lam, word), rep.gamma)


@pytest.fixture
def exact_adds(monkeypatch):
    """Counts ``SpanBasis.add`` calls, which only the exact closure makes."""
    calls = []
    add = SpanBasis.add

    def counted(self, v):
        calls.append(v)
        return add(self, v)

    monkeypatch.setattr(SpanBasis, "add", counted)
    return calls


class TestClosureAgainstDenseIntegerRows:
    """``_closure``, which pushes the sparse echelon row each accepted vector
    adds, against ``oracle_closure``, which pushes the dense vector itself
    through the same maps, backward and forward, on single automata and
    direct sums."""

    @given(st.lists(signed_automata(), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_same_paths_and_vectors(self, blocks):
        reps = [a.to_linear_representation() for a in blocks]
        dim = sum(a.n_states for a in blocks)
        for left in (True, False):
            actions, _ = oracle_integer_actions([[r.mu[x] for r in reps] for x in LETTERS], left)
            start = [y for r in reps for y in (r.gamma if left else r.lam)]
            span, dense = SpanBasis(dim), OracleIntegerSpanBasis(dim)
            found = list(_closure(span, start, actions))
            expected = oracle_closure(dense, start, actions)
            assert [path for path, _ in found] == [path for path, _ in expected]
            assert_same_rows(span, dense)
            # each row lies in the span of the oracle's vectors up to its
            # path, and outside the span of those before it
            prefix = OracleIntegerSpanBasis(dim)
            for (_, row), (_, v) in zip(found, expected):
                line = [row.get(j, 0) for j in range(dim)]
                assert not prefix.contains(line)
                prefix.add(v)
                assert prefix.contains(line)
                assert row[min(row)] > 0 and gcd(*row.values()) == 1

    @pytest.mark.parametrize("n", [12, 16, 24, 32])
    def test_backward_rows_and_rank_at_scale(self, n, exact_adds):
        """On a split ring copy (2n states) the backward rows equal the
        oracle closure's, and the rank is the rank of the pairings of the
        oracle's forward and backward vectors. The closure runs on the
        coarsest lumping of the copy, the n states of the ring; from
        ``MODULAR_MIN_DIM`` states of that quotient on its rows are
        certified mod p, here with no exact fallback, and so is the forward
        closure of the rank, on the n backward rows."""
        a = split_copy(ring_pa(n), random.Random(n))
        rep = a.to_linear_representation()
        dim = a.n_states
        assert len(set(oracle_lumping(a, empty_automaton(a.alphabet)))) == n
        span, _, _ = _backward_closure([a])
        if n >= MODULAR_MIN_DIM:
            assert exact_adds == []
        letters = {left: oracle_integer_actions([[rep.mu[x]] for x in a.alphabet], left)[0]
                   for left in (True, False)}
        dense = OracleIntegerSpanBasis(dim)
        backward = [v for _, v in oracle_closure(dense, rep.gamma, letters[True])]
        assert_same_rows(span, dense)
        forward = [v for _, v in oracle_closure(OracleIntegerSpanBasis(dim), rep.lam,
                                                letters[False])]
        pairings = OracleIntegerSpanBasis(len(backward))
        for f in forward:
            pairings.add([sum(map(mul, f, b)) for b in backward])
        exact_adds.clear()
        assert hankel_rank(a) == pairings.dimension == n
        if n >= MODULAR_MIN_DIM:
            assert exact_adds == []


def exact_closure(dim, start, actions):
    span = SpanBasis(dim)
    for _ in _closure(span, start, actions):
        pass
    return span


def assert_same_span(found, exact):
    """The same rows under the same pivots, in pivot order."""
    assert list(found._rows) == list(exact._rows)
    assert found._rows == exact._rows


@st.composite
def closure_inputs(draw):
    """One or two automata of the random families of ``helpers`` over 1-3
    letters, each of 1-8 states: signed or nonnegative weights, a signed
    automaton with two cancelling divergent copies, one with a duplicated
    state, or a random PA. Returns the start vector, the backward integer
    maps and the dimension of their direct sum."""
    alphabet = LETTERS[:draw(st.integers(1, 3))]
    reps = []
    for _ in range(draw(st.integers(1, 2))):
        rng = random.Random(draw(st.integers(0, 2**32)))
        n = draw(st.integers(1, 8))
        family = draw(st.sampled_from(("signed", "nonneg", "cancelling", "duplicate", "pa")))
        if family == "pa":
            a = random_pa(rng, n, alphabet)
        else:
            a = random_ma(rng, n, alphabet, signed=family != "nonneg")
            if family == "cancelling":
                a = with_cancelling_copies(a)
            elif family == "duplicate":
                a = duplicate_state(a, rng)
        reps.append(a.to_linear_representation())
    actions, _ = oracle_integer_actions([[r.mu[x] for r in reps] for x in alphabet], left=True)
    return [y for r in reps for y in r.gamma], actions, sum(r.dim for r in reps)


class TestCertifiedClosure:
    """``_certified_closure`` finds the span mod a prime, reconstructs its
    rows and checks them exactly, or falls back to the exact closure: its
    rows are always those of ``SpanBasis``."""

    @given(closure_inputs())
    @settings(max_examples=200, deadline=None)
    def test_same_rows_as_the_exact_closure(self, case):
        """Also the packed span mod p, stopped at full rank and then
        reduced, holds the reduced rows mod p of the dict-row oracle span,
        which runs to the end of the closure."""
        start, actions, dim = case
        assert_same_span(_certified_closure(dim, start, actions),
                         exact_closure(dim, start, actions))
        p = linalg._PRIME
        modular = _ModularSpan(dim, p)
        for _ in _closure(modular, modular.vector(start), modular.packed(actions), _packed_push):
            pass
        oracle = OracleModularSpan(p)
        for _ in _closure(oracle, start, actions):
            pass
        assert list(modular.reduced().items()) == list(oracle._rows.items())

    def test_unlucky_prime_drops_the_rank(self, monkeypatch, exact_adds):
        """(1, 1) and (1, 6) are one direction mod 5: the rows mod 5 miss
        a dimension, the check finds (1, 6) outside them, and the exact
        closure answers."""
        actions, _ = oracle_integer_actions([[Matrix([[1, 0, 0], [0, 6, 0], [0, 0, 1]])]], True)
        start = [F(1), F(1), F(0)]
        monkeypatch.setattr(linalg, "_PRIME", 5)
        span = _certified_closure(3, start, actions)
        assert exact_adds
        assert span._rows == {0: {0: 1}, 1: {1: 1}}
        assert_same_span(span, exact_closure(3, start, actions))

    def test_prime_that_divides_the_scale(self, monkeypatch, exact_adds):
        """The letter map is scaled by 7 to integers; mod 7 the image
        (1, 7, 0) of gamma is gamma again."""
        actions, scale = oracle_integer_actions(
            [[Matrix([[F(1, 7), 0, 0], [1, 0, 0], [0, 0, 0]])]], True)
        assert scale == 7
        start = [F(1), F(0), F(0)]
        monkeypatch.setattr(linalg, "_PRIME", 7)
        span = _certified_closure(3, start, actions)
        assert exact_adds
        assert span._rows == {0: {0: 1}, 1: {1: 1}}
        assert_same_span(span, exact_closure(3, start, actions))

    @pytest.mark.parametrize("height, rebuilt", [(2**31 + 1, None), (2**40, (1, 2**21))])
    def test_entry_above_the_reconstruction_bound(self, height, rebuilt, exact_adds):
        """The one reduced row (1, h, 0) has an entry above 2^30: mod the
        prime, h has no reconstruction, or a wrong one that the check
        rejects."""
        assert _rational(height % linalg._PRIME, linalg._PRIME) == rebuilt
        actions, _ = oracle_integer_actions([[Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])]], True)
        start = [F(1), F(height), F(0)]
        span = _certified_closure(3, start, actions)
        assert exact_adds
        assert span._rows == {0: {0: 1, 1: height}}
        assert_same_span(span, exact_closure(3, start, actions))

    def test_full_rank_needs_no_reconstruction(self, monkeypatch, exact_adds):
        """The first 8 vectors of the closure of the 8-state ring are
        independent mod p; the closure stops at the eighth, and tests no
        vector in vain."""
        a = ring_pa(8)
        rep = a.to_linear_representation()
        actions, _ = oracle_integer_actions([[rep.mu[x]] for x in a.alphabet], True)

        def forbidden(*args):
            raise AssertionError("a full-rank span needs no reconstruction or check")

        added = []
        add = _ModularSpan.add

        def counted(self, v):
            added.append(add(self, v))
            return added[-1]

        monkeypatch.setattr(linalg, "_lift", forbidden)
        monkeypatch.setattr(linalg, "_closes", forbidden)
        monkeypatch.setattr(_ModularSpan, "add", counted)
        span = _certified_closure(8, rep.gamma, actions)
        assert len(added) == 8 and None not in added
        assert exact_adds == []
        assert span._rows == {i: {i: 1} for i in range(8)}
        assert_same_span(span, exact_closure(8, rep.gamma, actions))

    @given(st.integers(-(2**30) + 1, 2**30 - 1), st.integers(1, 2**30 - 1))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_within_the_bound(self, a, b):
        p = linalg._PRIME
        g = gcd(a, b)
        assert _rational(a * pow(b, -1, p), p) == (a // g, b // g)

