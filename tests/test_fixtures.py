import math
from fractions import Fraction

import pytest

from stochlang import (check_stochastic_bounded, fixtures, prefix_weight,
                       residual_automaton, total_sum, words_up_to)

from helpers import (diagonal, example1_residual_value, fig3_value, letter_sum_matrix,
                     lucas, p1_value, p2_value, p_value, t_value)

F = Fraction

GOLDEN_SQUARED = (3 + math.sqrt(5)) / 2  # alpha^2 for alpha the golden ratio


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixtures.build("nope")

    def test_all_fixtures_bounded_stochastic(self):
        for name in fixtures.FIXTURE_NAMES:
            report = check_stochastic_bounded(fixtures.build(name), 8)
            assert report.sum_is_one, name
            assert report.violation is None, name


class TestExample1:
    def test_p1_closed_form(self):
        a = fixtures.build("example1_p1")
        for n in range(11):
            assert a.evaluate(("a",) * n) == p1_value(n)

    def test_p2_closed_form(self):
        a = fixtures.build("example1_p2")
        for n in range(11):
            assert a.evaluate(("a",) * n) == p2_value(n)

    def test_p_closed_form(self):
        a = fixtures.build("example1_p")
        for n in range(11):
            assert a.evaluate(("a",) * n) == p_value(n)

    def test_prefix_weights_and_residuals_match_formula(self):
        p = fixtures.build("example1_p")
        for n in range(11):
            u = ("a",) * n
            assert prefix_weight(p, u) == F(2 ** n + 1, 2 ** (2 * n + 1))
            res = residual_automaton(p, u)
            for m in range(8):
                assert res.evaluate(("a",) * m) == example1_residual_value(n, m)


class TestFig3:
    def test_lucas_matches_golden_powers(self):
        # numeric derivation of the integer closed form
        for n in range(11):
            power_sum = GOLDEN_SQUARED ** n + GOLDEN_SQUARED ** (-n)
            assert abs(power_sum - lucas(2 * n)) < 1e-6

    def test_closed_form_on_all_short_words(self):
        a = fixtures.build("fig3_App")
        for w in words_up_to(("a", "b"), 6):
            assert a.evaluate(w) == fig3_value(w)

    def test_shift_relations_follow_from_closed_form(self):
        # the four coefficient rows defining the fixture, restated as series
        # identities and checked pointwise on the closed form
        def p(w):
            return fig3_value(w)

        def ap(w):  # a-residual, mass of a-prefixed words is 3/8
            return fig3_value(("a",) + w) / F(3, 8)

        for w in words_up_to(("a", "b"), 5):
            assert p(("a",) + w) == F(3, 8) * ap(w)
            assert p(("b",) + w) == F(3, 4) * p(w) - F(3, 8) * ap(w)
            assert ap(("a",) + w) == F(-1, 6) * p(w) + F(3, 4) * ap(w)
            assert ap(("b",) + w) == F(1, 6) * p(w)

    def test_letter_sum_matrix_is_three_quarters_identity(self):
        m = letter_sum_matrix(fixtures.build("fig3_App"))
        assert m == diagonal([F(3, 4)] * 2)

    def test_total_sum_is_one(self):
        outcome = total_sum(fixtures.build("fig3_App"))
        assert outcome.converges and outcome.value == 1


class TestFig5:
    def test_gamma_oracle_start_values(self):
        assert fixtures.oracle_gamma(0) == F(1, 2)
        assert fixtures.oracle_gamma(1) == 0
        assert fixtures.oracle_gamma(2) == F(1, 4)

    def test_residual_empty_word_values_follow_recurrence(self):
        a = fixtures.build("fig5")
        for n in range(13):
            res = residual_automaton(a, ("a",) * n)
            assert res.evaluate(()) == fixtures.oracle_gamma(n)

    def test_gamma_converges_to_irrational_limit(self):
        limit = (3 - math.sqrt(5)) / 4
        assert abs(float(fixtures.oracle_gamma(20)) - limit) < 1e-4

    def test_residual_state_series_structure(self):
        # the first shift of the series is proportional to the q1 state series
        a = fixtures.build("fig5")
        for n in range(8):
            w = ("a",) * n
            assert a.evaluate(("a",) + w) == F(1, 2) * a.evaluate_state("q1", w)


class TestProp10:
    def test_closed_form_on_all_short_words(self):
        t = fixtures.build("prop10_t")
        for w in words_up_to(("a", "b"), 6):
            assert t.evaluate(w) == t_value(w)

    def test_support_is_the_unbalanced_words(self):
        t = fixtures.build("prop10_t")
        for w in words_up_to(("a", "b"), 8):
            balanced = w.count("a") == w.count("b")
            assert (t.evaluate(w) == 0) == balanced

    def test_nonnegative_and_sums_to_one(self):
        t = fixtures.build("prop10_t")
        assert all(t.evaluate(w) >= 0 for w in words_up_to(("a", "b"), 8))
        outcome = total_sum(t)
        assert outcome.converges and outcome.value == 1
