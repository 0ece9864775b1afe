import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochlang import MultiplicityAutomaton, hankel_rank
from stochlang.equivalence import _backward_closure
from stochlang.linalg import (Constraint, Matrix, SpanBasis, _closure, _integer_actions,
                              _integer_sum, _minimal_polynomial, _powers,
                              _primitive, dot, is_positive_definite,
                              lp_feasible, rref, schur_stable, solve_affine,
                              spectral_radius_lt_one)

from helpers import (OracleIntegerSpanBasis, OracleSpanBasis, diagonal, from_columns,
                     identity, jury_lt_one_2x2, lyapunov_lt_one, mat_mul, mat_sub, mat_vec,
                     matrix_power, max_abs_entry, membership_in_span, oracle_closure,
                     oracle_integer_actions, oracle_integer_sum, oracle_krylov_closure,
                     oracle_rref, oracle_schur_stable, oracle_solve_affine, oracle_vec_mat,
                     random_ma, ring_pa, split_copy, transpose)

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


class TestPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(identity(3))

    def test_negative(self):
        assert not is_positive_definite(Matrix([[-1]]))

    def test_scaled_identity(self):
        assert is_positive_definite(Matrix([[F(16, 7), 0], [0, F(16, 7)]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            is_positive_definite(Matrix([[1, 2], [0, 1]]))


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
        with pytest.raises(ValueError):
            schur_stable([F(1), F(0)])
        with pytest.raises(ValueError):
            schur_stable([])


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
    """The library's minimal polynomial of v under m, from its integer powers."""
    action, scale = _integer_sum([m], m.nrows)
    return _minimal_polynomial(_powers(action, _primitive(v), m.nrows + 1), scale)


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
    @settings(max_examples=150, deadline=None)
    def test_sparse_rows_equal_the_dense_integer_rows(self, case):
        """Wide, sparse, block-diagonal and 200-bit inputs, so that pivot
        entries other than 1 and content division are exercised; every
        other vector goes in sparse."""
        dim, steps = case
        span, dense = SpanBasis(dim), OracleIntegerSpanBasis(dim)
        for k, (insert, v) in enumerate(steps):
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
    """0-12 states with signed weights at densities 0 to 0.7; some letters
    may carry no transition at all."""
    n = draw(st.integers(0, 12))
    a = random_ma(random.Random(draw(st.integers(0, 2**32))), n, LETTERS,
                  density=draw(st.sampled_from((0.0, 0.1, 0.3, 0.7))))
    silent = draw(st.sets(st.sampled_from(LETTERS)))
    return MultiplicityAutomaton(LETTERS, a.states, a.iota, a.tau,
                                 {t: w for t, w in a.phi.items() if t[1] not in silent})


def dense_grid(a, x):
    return [[a.weight(q, x, r) for r in a.states] for q in a.states]


def line_sets(actions):
    return [[set(line) for line in action] for action in actions]


class TestIntegerLetterMapsAgainstDenseScan:
    """The closures' integer maps read each letter matrix's nonzero entries;
    a scan of every cell, with a transpose for forward maps, must give the
    same pairs under the same scale."""

    @given(st.lists(signed_automata(), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_maps_of_direct_sums_match_the_dense_scan(self, blocks):
        reps = [a.to_linear_representation() for a in blocks]
        dense = [{x: Matrix(dense_grid(a, x), a.n_states) for x in LETTERS} for a in blocks]
        for left in (True, False):
            oracle, oracle_scale = oracle_integer_actions([[d[x] for d in dense]
                                                           for x in LETTERS], left)
            built, scale = _integer_actions([[r.mu[x] for r in reps] for x in LETTERS], left)
            scanned, _ = _integer_actions([[d[x] for d in dense] for x in LETTERS], left)
            assert line_sets(built) == line_sets(scanned) == line_sets(oracle)
            assert scale == oracle_scale
            assert all(len(action) == sum(a.n_states for a in blocks) for action in built)
        for a, rep in zip(blocks, reps):
            action, scale = _integer_sum(list(rep.mu.values()), a.n_states)
            oracle_action, oracle_scale = oracle_integer_sum(list(rep.mu.values()), a.n_states)
            assert scale == oracle_scale
            assert [set(line) for line in action] == [set(line) for line in oracle_action]

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
            actions, _ = _integer_actions([[r.mu[x] for r in reps] for x in LETTERS], left)
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

    @pytest.mark.parametrize("n", [16, 32])
    def test_backward_rows_and_rank_at_scale(self, n):
        """On a split ring copy (2n states) the backward rows equal the
        oracle closure's, and the rank is the rank of the pairings of the
        oracle's forward and backward vectors."""
        a = split_copy(ring_pa(n), random.Random(n))
        rep = a.to_linear_representation()
        dim = a.n_states
        span, _ = _backward_closure([rep])
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
        assert hankel_rank(a) == pairings.dimension == n
