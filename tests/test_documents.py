import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlang import (DocumentError, fixtures, parse_automaton, parse_dfa,
                       serialize_automaton, serialize_dfa)
from stochlang.classify import Dfa
from stochlang.documents import parse_rational

from helpers import random_ma

DATA = Path(__file__).parent / "data"

F = Fraction


def fig2_doc():
    return json.loads((DATA / "fig2_A.json").read_text())


class TestParse:
    def test_shipped_fig2_document(self):
        a = parse_automaton((DATA / "fig2_A.json").read_text())
        assert a == fixtures.build("fig2_A")
        assert a.evaluate(("b", "a")) == F(1, 4)

    def test_zero_denominator_names_the_triple(self):
        doc = fig2_doc()
        doc["transitions"][0][3] = "1/0"
        with pytest.raises(DocumentError, match=r"1/0"):
            parse_automaton(json.dumps(doc))

    def test_malformed_rational(self):
        doc = fig2_doc()
        doc["initial"]["q0"] = "0.5"
        with pytest.raises(DocumentError, match="malformed rational"):
            parse_automaton(json.dumps(doc))

    @pytest.mark.parametrize("text", ["1\n", "1/2\n", "\u0661/\uff12", "\u0663"])
    def test_rational_is_ascii_digits_and_nothing_after(self, text):
        # a final newline and non-ASCII decimal digits (an Arabic-Indic one,
        # a fullwidth two) lie outside the decimal-integer grammar
        with pytest.raises(DocumentError, match="malformed rational"):
            parse_rational(text, "initial['q0']")
        doc = fig2_doc()
        doc["transitions"][0][3] = text
        with pytest.raises(DocumentError, match="malformed rational"):
            parse_automaton(json.dumps(doc))

    def test_unknown_state_in_initial(self):
        doc = fig2_doc()
        doc["initial"]["ghost"] = "1"
        with pytest.raises(DocumentError, match="ghost"):
            parse_automaton(json.dumps(doc))

    def test_unknown_transition_target(self):
        doc = fig2_doc()
        doc["transitions"].append(["q0", "a", "ghost", "1/2"])
        with pytest.raises(DocumentError, match="ghost"):
            parse_automaton(json.dumps(doc))

    def test_unknown_letter(self):
        doc = fig2_doc()
        doc["transitions"].append(["q0", "z", "q0", "1/2"])
        with pytest.raises(DocumentError, match="'z'"):
            parse_automaton(json.dumps(doc))

    def test_duplicate_transition(self):
        doc = fig2_doc()
        doc["transitions"].append(list(doc["transitions"][0]))
        with pytest.raises(DocumentError, match="duplicate"):
            parse_automaton(json.dumps(doc))

    def test_unknown_key(self):
        doc = fig2_doc()
        doc["comment"] = "hello"
        with pytest.raises(DocumentError, match="comment"):
            parse_automaton(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(DocumentError):
            parse_automaton("not a document")

    @pytest.mark.parametrize("parse", [parse_automaton, parse_dfa])
    @pytest.mark.parametrize("text", ["[" * 100_000, "[" * 5_000 + "]" * 5_000,
                                      '{"alphabet": ' + "[" * 5_000 + "]" * 5_000 + "}"],
                             ids=["unclosed", "balanced", "inside-a-key"])
    def test_deeply_nested_json_is_an_invalid_document(self, parse, text):
        # the JSON decoder gives up on deep nesting with a RecursionError
        with pytest.raises(DocumentError, match="^invalid document: "):
            parse(text)

    def test_reserved_letter_names(self):
        doc = fig2_doc()
        doc["alphabet"] = ["a", "@"]
        with pytest.raises(DocumentError):
            parse_automaton(json.dumps(doc))

    def test_weights_are_canonicalised(self):
        doc = fig2_doc()
        doc["transitions"][0][3] = "2/4"
        a = parse_automaton(json.dumps(doc))
        text = serialize_automaton(a)
        assert '"2/4"' not in text
        assert parse_automaton(text) == a


class TestRoundTrip:
    def test_all_shipped_fixture_documents(self):
        for name in fixtures.FIXTURE_NAMES:
            text = (DATA / f"{name}.json").read_text()
            a = parse_automaton(text)
            assert a == fixtures.build(name)
            assert serialize_automaton(a) == text

    def test_random_automata(self):
        rng = random.Random(71)
        for _ in range(20):
            a = random_ma(rng, rng.randint(1, 4), ("a", "b"))
            text = serialize_automaton(a)
            b = parse_automaton(text)
            assert b == a
            assert serialize_automaton(b) == text

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed):
        rng = random.Random(seed)
        a = random_ma(rng, rng.randint(1, 4), ("a", "b"), density=rng.random())
        text = serialize_automaton(a)
        assert parse_automaton(text) == a


class TestDfaDocuments:
    def _doc(self):
        return {
            "alphabet": ["a", "b"],
            "states": ["s0", "s1"],
            "initial": "s0",
            "finals": ["s1"],
            "transitions": [["s0", "a", "s1"], ["s0", "b", "s0"],
                            ["s1", "a", "s1"], ["s1", "b", "s1"]],
        }

    def test_round_trip(self):
        d = parse_dfa(json.dumps(self._doc()))
        assert isinstance(d, Dfa)
        assert d.accepts(("a",))
        assert not d.accepts(())
        assert parse_dfa(serialize_dfa(d)) == d

    def test_rejects_nondeterminism(self):
        doc = self._doc()
        doc["transitions"].append(["s0", "a", "s0"])
        with pytest.raises(DocumentError, match="second transition"):
            parse_dfa(json.dumps(doc))

    def test_rejects_unknown_initial(self):
        doc = self._doc()
        doc["initial"] = "ghost"
        with pytest.raises(DocumentError, match="ghost"):
            parse_dfa(json.dumps(doc))

    def test_rejects_a_list_as_initial(self):
        doc = self._doc()
        doc["initial"] = ["s0"]
        with pytest.raises(DocumentError, match="initial must be a state name"):
            parse_dfa(json.dumps(doc))

    def test_rejects_a_list_inside_finals(self):
        doc = self._doc()
        doc["finals"] = ["s0", ["s1"]]
        with pytest.raises(DocumentError, match="finals must list declared states"):
            parse_dfa(json.dumps(doc))
