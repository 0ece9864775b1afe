import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlang import (MultiplicityAutomaton, empty_automaton, fixtures,
                       format_word, from_linear_representation, is_trimmed,
                       parse_word, rep_from_generator_relations,
                       state_series_automaton, weighted_sum, words_up_to)
from stochlang.automata import merge_alphabets, replace_iota, with_alphabet
from stochlang.equivalence import _direct_sum, _joined
from stochlang.linalg import dot

from helpers import (eval_by_definition, eval_by_paths, letter_shift_automaton, max_abs_entry,
                     oracle_integer_actions, oracle_integer_sum, oracle_primitive, random_ma)

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

    @pytest.mark.parametrize("weight", [0, "0", "-0", "0/7", F(0), F(0, 7)])
    def test_every_spelling_of_zero_is_dropped(self, weight):
        a = MultiplicityAutomaton(("a",), ("p", "q"), {"p": weight, "q": 1},
                                  {"p": weight, "q": "1"}, {("p", "a", "q"): weight,
                                                            ("q", "a", "p"): F(1)})
        assert a.iota == {"q": F(1)} and a.tau == {"q": F(1)}
        assert a.phi == {("q", "a", "p"): F(1)}

    @pytest.mark.parametrize("weight", [F(3, 2), "6/4", " 6/4 ", "3/2", F(6, 4), F(-6, -4)])
    def test_weights_are_kept_in_lowest_terms(self, weight):
        a = MultiplicityAutomaton(("a",), ("p",), {"p": weight}, {"p": weight},
                                  {("p", "a", "p"): weight})
        for weights in (a.iota, a.tau, a.phi):
            (w,) = weights.values()
            assert type(w) is Fraction and w == F(3, 2)
            assert (w.numerator, w.denominator) == (3, 2)

    def test_int_str_and_fraction_weights_agree(self):
        ints = MultiplicityAutomaton(("a", "b"), ("p", "q"), {"p": 2, "q": 0}, {"q": -1},
                                     {("p", "a", "q"): 3, ("q", "b", "p"): 0,
                                      ("q", "a", "q"): -4})
        for spell in (str, F):
            other = MultiplicityAutomaton(
                ("a", "b"), ("p", "q"), {q: spell(w) for q, w in {"p": 2, "q": 0}.items()},
                {"q": spell(-1)}, {("p", "a", "q"): spell(3), ("q", "b", "p"): spell(0),
                                   ("q", "a", "q"): spell(-4)})
            assert other == ints
            assert list(other.phi.items()) == list(ints.phi.items())
            assert all(type(w) is Fraction for m in (other.iota, other.tau, other.phi)
                       for w in m.values())
        assert ints.phi == {("p", "a", "q"): F(3), ("q", "a", "q"): F(-4)}
        assert ints.iota == {"p": F(2)} and ints.tau == {"q": F(-1)}

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

    def test_long_unknown_names_are_echoed_as_a_prefix(self):
        a, long = fixtures.build("fig2_A"), "z" * 5000
        rep = a.to_linear_representation()
        echo = re.escape(f"{'z' * 40!r}... (5000 characters)")
        for push in (lambda: rep.forward(rep.lam, ("a", long)),
                     lambda: parse_word(long, a.alphabet + ("bb",))):
            with pytest.raises(ValueError, match=f"^letter {echo} is not in the alphabet$"):
                push()
        for push in (lambda: a.evaluate_state(long, ()),
                     lambda: state_series_automaton(a, long)):
            with pytest.raises(ValueError, match=f"^unknown state {echo}$"):
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


def sorted_lines(action):
    return [sorted(line) for line in action]


def assert_primitive_with_factor(w, f, vector):
    """w is the coprime integer vector of ``vector`` and f > 0 its factor."""
    assert all(type(x) is int for x in w)
    assert list(w) == oracle_primitive(vector)
    assert type(f) is Fraction and f > 0
    assert tuple(f * x for x in w) == tuple(vector)


def assert_form_matches_the_fraction_oracle(a):
    """The integer form of ``a`` against the dense scans of its Fraction
    representation: the letter maps in both orientations under one scale,
    the letter-summed map with its scale, and the coprime iota and tau
    with their factors."""
    rep = a.to_linear_representation()
    form = a._integer_form()
    letters = [[rep.mu[x]] for x in a.alphabet]
    for maps, left in ((form.right, False), (form.left, True)):
        actions, scale = oracle_integer_actions(letters, left)
        assert form.scale == scale
        assert sorted_lines(maps) == sorted_lines(actions)
    summed, scale = oracle_integer_sum(list(rep.mu.values()), a.n_states)
    assert form.summed[1] == scale
    assert sorted_lines(form.summed[0]) == sorted_lines(summed)
    assert_primitive_with_factor(form.iota, form.iota_factor, rep.lam)
    assert_primitive_with_factor(form.tau, form.tau_factor, rep.gamma)


@st.composite
def form_automata(draw):
    """Signed automata of 0-8 states over {a, b} at densities 0 to 0.9,
    some letters with no transition, their transition weights divided by
    1-6 so that scales differ; as drawn, extended to {a, b, c} by
    ``with_alphabet``, or with a new initial vector, zeros included, from
    ``replace_iota``."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 8))
    a = random_ma(rng, n, ("a", "b"), density=draw(st.sampled_from((0.0, 0.2, 0.5, 0.9))))
    silent = draw(st.sets(st.sampled_from(("a", "b"))))
    k = draw(st.integers(1, 6))
    a = MultiplicityAutomaton(a.alphabet, a.states, a.iota, a.tau,
                              {t: w / k for t, w in a.phi.items() if t[1] not in silent})
    kind = draw(st.sampled_from(("drawn", "with_alphabet", "replace_iota")))
    if kind == "with_alphabet":
        return with_alphabet(a, ("a", "b", "c"))
    if kind == "replace_iota":
        weights = st.sampled_from((F(0), F(1), F(-2, 3), F(5, 12), F(7)))
        return replace_iota(a, draw(st.lists(weights, min_size=n, max_size=n)))
    return a


class TestIntegerFormAgainstFractionOracle:
    """The integer form, built in one pass over the transitions, against
    ``oracle_integer_actions`` and ``oracle_integer_sum`` applied to the
    ``Fraction`` representation."""

    @given(form_automata())
    @settings(max_examples=200, deadline=None)
    def test_single_automata(self, a):
        assert_form_matches_the_fraction_oracle(a)
        assert a.to_linear_representation() is a._rep

    def test_direct_sum_of_unequal_scales(self):
        """Scales 6 and 10 meet at 30: each side's coefficients are
        multiplied by 5 and by 3, and the second side's states come after
        the first's."""
        a = MultiplicityAutomaton(("a",), ("p", "q"), {"p": 1}, {"q": F(1, 2)},
                                  {("p", "a", "q"): F(1, 2), ("q", "a", "p"): F(1, 3)})
        b = MultiplicityAutomaton(("a",), ("r",), {"r": F(2, 3)}, {"r": F(3, 4)},
                                  {("r", "a", "r"): F(3, 10)})
        fa, fb = a._integer_form(), b._integer_form()
        assert (fa.scale, fb.scale) == (6, 10)
        assert fa.right == [[[(1, 3)], [(0, 2)]]] and fb.right == [[[(0, 3)]]]
        assert _direct_sum([fa, fb], 1, left=False) == ([[[(1, 15)], [(0, 10)], [(2, 9)]]], 30)
        assert _direct_sum([fa, fb], 1, left=True) == ([[[(1, 10)], [(0, 15)], [(2, 9)]]], 30)
        assert (fa.tau, fa.tau_factor, fb.tau, fb.tau_factor) == ([0, 1], F(1, 2), [1], F(3, 4))
        assert _joined([(fa.tau, fa.tau_factor), (fb.tau, fb.tau_factor)]) == [0, 2, 3]
        assert _joined([(fa.iota, fa.iota_factor), (fb.iota, -fb.iota_factor)]) == [3, 0, -2]

    def test_form_is_built_once_and_lazily(self):
        a = random_ma(random.Random(3), 4, ("a", "b"))
        assert a._form is None and a._rep is None
        form = a._integer_form()
        assert a._integer_form() is form and a._rep is None
        assert form._left is None and form._summed is None
        assert form.left is form.left and form.summed is form.summed

    def test_zero_states(self):
        a = empty_automaton(("a", "b"))
        form = a._integer_form()
        assert (form.scale, form.right, form.left) == (1, [[], []], [[], []])
        assert form.summed == ([], 1)
        assert (form.iota, form.iota_factor, form.tau, form.tau_factor) == ([], 1, [], 1)
        assert_form_matches_the_fraction_oracle(a)
