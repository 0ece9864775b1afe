import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlang import (MultiplicityAutomaton, empty_automaton, fixtures,
                       format_word, from_linear_representation, is_trimmed,
                       parse_word, rep_from_generator_relations,
                       state_series_automaton, weighted_sum, words_up_to)
from stochlang.automata import letter_shift_automaton, merge_alphabets
from stochlang.linalg import dot

from helpers import eval_by_definition, eval_by_paths, max_abs_entry, random_ma

F = Fraction


def small_mas(max_states=4):
    rng_seed = st.integers(0, 10 ** 6)
    return st.tuples(rng_seed, st.integers(2, max_states)).map(
        lambda t: random_ma(random.Random(t[0]), t[1], ("a", "b")))


class TestConstruction:
    def test_zero_weights_dropped(self):
        a = MultiplicityAutomaton(("a",), ("q0", "q1"), {"q0": 1, "q1": 0},
                                  {"q0": 0, "q1": 1}, {("q0", "a", "q1"): 0})
        assert a.iota == {"q0": F(1)}
        assert a.tau == {"q1": F(1)}
        assert a.phi == {}

    def test_rejects_unknown_state(self):
        with pytest.raises(ValueError):
            MultiplicityAutomaton(("a",), ("q0",), {"q9": 1}, {}, {})

    def test_rejects_unknown_letter(self):
        with pytest.raises(ValueError):
            MultiplicityAutomaton(("a",), ("q0",), {}, {}, {("q0", "z", "q0"): 1})

    def test_rejects_duplicate_states(self):
        with pytest.raises(ValueError):
            MultiplicityAutomaton(("a",), ("q0", "q0"), {}, {}, {})

    def test_empty_automaton_evaluates_to_zero(self):
        a = empty_automaton(("a", "b"))
        assert a.evaluate(()) == 0
        assert a.evaluate(("a", "b")) == 0


class TestEvaluate:
    def test_fig2_ba(self):
        assert fixtures.build("fig2_A").evaluate(("b", "a")) == F(1, 4)

    def test_fig3_closed_values(self):
        app = fixtures.build("fig3_App")
        assert app.evaluate(()) == F(1, 4)
        assert app.evaluate(("a",)) == F(3, 32)

    def test_rejects_foreign_letter(self):
        with pytest.raises(ValueError):
            fixtures.build("fig2_A").evaluate(("z",))

    def test_forward_composes_and_pairs_with_gamma(self):
        rng = random.Random(5)
        for _ in range(5):
            rep = random_ma(rng, 3, ("a", "b")).to_linear_representation()
            for u in words_up_to(rep.alphabet, 2):
                v = rep.forward(rep.lam, u)
                for w in words_up_to(rep.alphabet, 2):
                    assert rep.forward(v, w) == rep.forward(rep.lam, u + w)
                    assert dot(rep.forward(v, w), rep.gamma) == rep.evaluate(u + w)
        assert rep.forward(rep.lam, ()) == rep.lam
        for push in (lambda: rep.forward(rep.lam, ("a", "z")),
                     lambda: fixtures.build("fig2_A").evaluate_state("q0", ("z",))):
            with pytest.raises(ValueError, match="^letter 'z' is not in the alphabet$"):
                push()

    @given(small_mas())
    @settings(max_examples=25, deadline=None)
    def test_matches_definition_oracle(self, a):
        for w in words_up_to(a.alphabet, 5):
            assert a.evaluate(w) == eval_by_definition(a, w)

    def test_matches_definition_oracle_to_length_eight(self):
        rng = random.Random(4)
        for n_states in (2, 3, 4):
            a = random_ma(rng, n_states, ("a", "b"))
            for w in words_up_to(a.alphabet, 8):
                assert a.evaluate(w) == eval_by_definition(a, w)

    def test_matches_path_enumeration(self):
        rng = random.Random(6)
        for _ in range(10):
            a = random_ma(rng, rng.randint(2, 3), ("a", "b"))
            for w in words_up_to(a.alphabet, 3):
                assert a.evaluate(w) == eval_by_paths(a, w)


class TestEvaluateState:
    def test_empty_word_gives_final_weight(self):
        a = fixtures.build("fig2_A")
        assert a.evaluate_state("q0", ()) == 0
        assert a.evaluate_state("q1", ()) == 1

    def test_dead_state(self):
        assert fixtures.build("fig2_A").evaluate_state("q1", ("a",)) == 0

    def test_fig5_step(self):
        assert fixtures.build("fig5").evaluate_state("q1", ("a",)) == F(1, 4)

    def test_decomposes_evaluate(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_ma(rng, 3, ("a", "b"))
            for w in words_up_to(a.alphabet, 4):
                assert a.evaluate(w) == sum(
                    (a.iota_weight(q) * a.evaluate_state(q, w) for q in a.states),
                    F(0))


class TestRepresentationRoundTrip:
    def test_single_state(self):
        a = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1}, {})
        rep = a.to_linear_representation()
        assert rep.lam == (F(1),)
        assert rep.gamma == (F(1),)
        assert all(max_abs_entry(m) == 0 for m in rep.mu.values())

    def test_fig2_transcription(self):
        rep = fixtures.build("fig2_A").to_linear_representation()
        assert rep.lam == (F(1), F(0))
        assert rep.gamma == (F(0), F(1))
        assert rep.mu["b"].rows == ((F(1, 2), F(0)), (F(0), F(0)))
        assert rep.mu["a"].rows == ((F(0), F(1, 2)), (F(0), F(0)))

    def test_round_trip_identity(self):
        for name in fixtures.FIXTURE_NAMES:
            a = fixtures.build(name)
            b = from_linear_representation(a.to_linear_representation(), a.states)
            assert b == a

    @given(small_mas())
    @settings(max_examples=25, deadline=None)
    def test_round_trip_evaluates_identically(self, a):
        b = from_linear_representation(a.to_linear_representation())
        for w in words_up_to(a.alphabet, 5):
            assert a.evaluate(w) == b.evaluate(w)

    def test_round_trip_to_length_eight(self):
        rng = random.Random(12)
        for _ in range(4):
            a = random_ma(rng, rng.randint(2, 4), ("a", "b"))
            b = from_linear_representation(a.to_linear_representation())
            for w in words_up_to(a.alphabet, 8):
                assert a.evaluate(w) == b.evaluate(w)


class TestGeneratorRelations:
    def test_one_state_family(self):
        rep = rep_from_generator_relations((1,), {"a": [[F(1, 2)]]}, (F(1, 2),))
        a = from_linear_representation(rep)
        for n in range(6):
            assert a.evaluate(("a",) * n) == F(1, 2 ** (n + 1))

    def test_two_state_mixture(self):
        rep = rep_from_generator_relations(
            (F(1, 2), F(1, 2)),
            {"a": [[F(1, 2), 0], [0, F(1, 4)]]},
            (F(1, 2), F(3, 4)))
        a = from_linear_representation(rep)
        for n in range(8):
            expected = (F(1, 2 ** (n + 1)) + F(3, 2 ** (2 * n + 2))) / 2
            assert a.evaluate(("a",) * n) == expected

    def test_dirac_series(self):
        rep = rep_from_generator_relations((1,), {"a": [[0]]}, (1,))
        a = from_linear_representation(rep)
        assert a.evaluate(()) == 1
        assert a.evaluate(("a",)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rep_from_generator_relations((1, 0), {"a": [[1]]}, (1, 0))


class TestTrim:
    def test_already_trimmed(self):
        a = fixtures.build("fig2_A")
        assert a.trim() is a
        assert is_trimmed(a)

    def test_removes_isolated_state(self):
        a = MultiplicityAutomaton(
            ("a",), ("q0", "junk"), {"q0": 1}, {"q0": 1},
            {("junk", "a", "junk"): F(1, 2)})
        trimmed = a.trim()
        assert trimmed.states == ("q0",)

    def test_removes_non_coaccessible(self):
        a = MultiplicityAutomaton(
            ("a",), ("q0", "dead"), {"q0": 1}, {"q0": F(1, 2)},
            {("q0", "a", "dead"): F(1, 2)})
        trimmed = a.trim()
        assert trimmed.states == ("q0",)
        assert not is_trimmed(a)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_preserves_series(self, seed):
        a = random_ma(random.Random(seed), 4, ("a", "b"), density=0.4)
        trimmed = a.trim()
        for w in words_up_to(a.alphabet, 5):
            assert a.evaluate(w) == trimmed.evaluate(w)

    def test_preserves_series_to_length_eight(self):
        rng = random.Random(14)
        for _ in range(4):
            a = random_ma(rng, 4, ("a", "b"), density=0.4)
            trimmed = a.trim()
            for w in words_up_to(a.alphabet, 8):
                assert a.evaluate(w) == trimmed.evaluate(w)


class TestCombinators:
    def test_state_series_automaton(self):
        a = fixtures.build("fig5")
        sq1 = state_series_automaton(a, "q1")
        for n in range(6):
            assert sq1.evaluate(("a",) * n) == a.evaluate_state("q1", ("a",) * n)

    def test_letter_shift(self):
        a = fixtures.build("fig2_A")
        shifted = letter_shift_automaton(a, ("b",))
        for w in words_up_to(a.alphabet, 4):
            assert shifted.evaluate(w) == a.evaluate(("b",) + w)

    def test_weighted_sum(self):
        p1 = fixtures.build("example1_p1")
        p2 = fixtures.build("example1_p2")
        mix = weighted_sum([p1, p2], (F(1, 2), F(1, 2)))
        p = fixtures.build("example1_p")
        for n in range(8):
            assert mix.evaluate(("a",) * n) == p.evaluate(("a",) * n)


class TestWords:
    def test_words_up_to_order(self):
        ws = list(words_up_to(("a", "b"), 2))
        assert ws == [(), ("a",), ("b",), ("a", "a"), ("a", "b"),
                      ("b", "a"), ("b", "b")]

    def test_format_parse_round_trip_single_char(self):
        alphabet = ("a", "b")
        for w in words_up_to(alphabet, 3):
            assert parse_word(format_word(w, alphabet), alphabet) == w

    def test_format_parse_round_trip_multi_char(self):
        alphabet = ("a", "x1", "lam")
        for w in [(), ("a",), ("x1", "lam"), ("lam", "lam", "a")]:
            assert parse_word(format_word(w, alphabet), alphabet) == w

    def test_epsilon_spelling(self):
        assert format_word((), ("a",)) == "@"
        assert parse_word("@", ("a",)) == ()

    def test_merge_alphabets(self):
        assert merge_alphabets(("a", "b"), ("a",)) == ("a", "b")
        assert merge_alphabets(("a",), ("a", "b")) == ("a", "b")
        with pytest.raises(ValueError):
            merge_alphabets(("a", "b"), ("b", "a"))
