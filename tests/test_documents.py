import copy
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlang import (DocumentError, MultiplicityAutomaton, fixtures, parse_automaton,
                       parse_dfa, serialize_automaton, serialize_dfa)
from stochlang.classify import Dfa
from stochlang.documents import MAX_DIGITS, _ratio

from helpers import (oracle_integer_actions, oracle_parse_automaton, oracle_primitive,
                     oracle_serialize_automaton, random_ma)

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
            _ratio(text, lambda: "initial['q0']")
        doc = fig2_doc()
        doc["transitions"][0][3] = text
        with pytest.raises(DocumentError, match="malformed rational"):
            parse_automaton(json.dumps(doc))

    def test_unknown_state_in_initial(self):
        doc = fig2_doc()
        doc["initial"]["ghost"] = "1"
        with pytest.raises(DocumentError, match="ghost"):
            parse_automaton(json.dumps(doc))

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["initial"].update(ghost="1"),
         "initial weight for unknown state 'ghost'"),
        (lambda doc: doc["final"].update(ghost="1"),
         "final weight for unknown state 'ghost'"),
        (lambda doc: doc["transitions"].append(["ghost", "a", "q0", "1"]),
         "transition ('ghost', 'a', 'q0') uses an unknown state"),
        (lambda doc: doc["transitions"].append(["q0", "z", "q0", "1"]),
         "transition ('q0', 'z', 'q0') uses an unknown letter"),
        (lambda doc: doc["states"].append(""), "state names must be non-empty strings, got ''"),
        (lambda doc: doc["alphabet"].append(""), "letter names must be non-empty strings, got ''"),
        (lambda doc: doc["states"].append("q0"), "duplicate state name"),
        (lambda doc: doc["alphabet"].append("b"), "duplicate letter name"),
    ])
    def test_constructor_checks_become_document_errors(self, edit, message):
        # names and references are checked once, by MultiplicityAutomaton
        doc = fig2_doc()
        edit(doc)
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
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
    def test_a_leading_byte_order_mark_is_an_invalid_document(self, parse):
        # json.loads rejects a leading BOM with this message; the one shared
        # decoder must too
        with pytest.raises(DocumentError) as info:
            parse("\ufeff" + json.dumps(fig2_doc()))
        assert str(info.value) == ("invalid document: Unexpected UTF-8 BOM "
                                   "(decode using utf-8-sig): line 1 column 1 (char 0)")

    @pytest.mark.parametrize("parse", [parse_automaton, parse_dfa])
    @pytest.mark.parametrize("text", ["[" * 100_000, "[" * 5_000 + "]" * 5_000,
                                      '{"alphabet": ' + "[" * 5_000 + "]" * 5_000 + "}"],
                             ids=["unclosed", "balanced", "inside-a-key"])
    def test_deeply_nested_json_is_an_invalid_document(self, parse, text):
        # the JSON decoder gives up on deep nesting with a RecursionError
        with pytest.raises(DocumentError, match="^invalid document: "):
            parse(text)

    @pytest.mark.parametrize("parse,text,key", [
        (parse_automaton, '{"alphabet": ["a"], "states": ["p"], '
         '"initial": {"p": "1", "p": "1/2"}, "final": {"p": "1/2"}}', "p"),
        (parse_automaton, '{"alphabet": ["a"], "states": ["p"], '
         '"initial": {"p": "1"}, "final": {"p": "1/2"}, "final": {"p": "1"}}', "final"),
        (parse_dfa, '{"alphabet": ["a"], "states": ["s"], "initial": "s", '
         '"initial": "s", "finals": ["s"]}', "initial"),
    ], ids=["initial", "final", "dfa"])
    def test_duplicate_keys_are_rejected(self, parse, text, key):
        # the JSON decoder keeps the last value of a repeated key by default
        with pytest.raises(DocumentError, match=f"^invalid document: duplicate key '{key}'$"):
            parse(text)

    @pytest.mark.parametrize("weight", ["1" * 5000, "1/" + "3" * 5000,
                                        "-" + "7" * (MAX_DIGITS + 1)],
                             ids=["numerator", "denominator", "negative"])
    def test_rational_beyond_the_digit_bound_names_its_item(self, weight):
        doc = fig2_doc()
        doc["initial"]["q0"] = weight
        message = f"^initial\\['q0'\\]: rational with more than {MAX_DIGITS} digits$"
        with pytest.raises(DocumentError, match=message):
            parse_automaton(json.dumps(doc))

    def test_rational_at_the_digit_bound_parses(self):
        # the bound counts digits, not the sign, as the interpreter does
        big = 10 ** (MAX_DIGITS - 1)
        assert _ratio(f"-{big}/{big + 1}", lambda: "w") == (-big, big + 1)

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


# weights as documents spell them: canonical and repeated, non-canonical,
# malformed, with a zero denominator, beyond the digit bound, or not strings
_GOOD_WEIGHTS = ["1", "1/2", "-3/4", "0", "2/4", "-0", "0/7", "6/4", "007/010", "-12/18", "5"]
_BAD_WEIGHTS = ["0.5", "1/", "/2", "+1", "1 ", "1\n", "x", "", "\u0663", "1/0", "-3/00",
                "1" * (MAX_DIGITS + 1), "1/" + "3" * (MAX_DIGITS + 1), 1, 1.5, None, True,
                ["1"], {"q": "1"}]


@st.composite
def _weighted_documents(draw):
    """Automaton documents whose weights repeat, some of them faulty at their
    first occurrence or at a later one; a few also have a malformed or
    repeated transition, or an unknown state."""
    states = ["p", "q", "r"][:draw(st.integers(1, 3))]
    pool = draw(st.lists(st.sampled_from(_GOOD_WEIGHTS), min_size=1, max_size=4))
    if draw(st.booleans()):
        pool.append(draw(st.sampled_from(_BAD_WEIGHTS)))
    weight = st.sampled_from(pool)
    names = st.sampled_from(states + ["ghost"] if draw(st.booleans()) else states)
    transitions = draw(st.lists(st.tuples(names, st.sampled_from(["a", "b"]), names, weight)
                                .map(list), max_size=12, unique_by=lambda t: tuple(t[:3])))
    if transitions and draw(st.booleans()):
        transitions.insert(draw(st.integers(0, len(transitions))),
                           draw(st.sampled_from([list(transitions[0]), transitions[0][:3],
                                                 ["p", 1, "q", "1"], "p a q 1"])))
    return {"alphabet": ["a", "b"], "states": states,
            "initial": draw(st.dictionaries(names, weight, max_size=3)),
            "final": draw(st.dictionaries(names, weight, max_size=3)),
            "transitions": transitions}


def _outcome(parse, text):
    try:
        a = parse(text)
    except DocumentError as exc:
        return str(exc)
    return a.states, list(a.iota.items()), list(a.tau.items()), list(a.phi.items())


def _assert_views_match_the_oracle(a, oracle):
    """The integer form of a parsed automaton against the dense scan of the
    oracle's Fraction matrices: the scale, the letter maps with their pairs
    in transition order, and iota and tau as coprime integers with their
    factors; and its Fraction maps, one exact Fraction per distinct value."""
    rep = oracle.to_linear_representation()
    form = a._integer_form()
    actions, scale = oracle_integer_actions([[rep.mu[x]] for x in a.alphabet], left=False)
    assert form.scale == scale
    assert [[sorted(line) for line in action] for action in form.right] == actions
    index = {q: i for i, q in enumerate(a.states)}
    order = [[[] for _ in a.states] for _ in a.alphabet]
    for q, x, r in oracle.phi:
        order[a.alphabet.index(x)][index[q]].append(index[r])
    assert [[[j for j, _ in line] for line in action] for action in form.right] == order
    for w, f, vector in ((form.iota, form.iota_factor, rep.lam),
                         (form.tau, form.tau_factor, rep.gamma)):
        assert all(type(x) is int for x in w) and w == oracle_primitive(vector)
        assert type(f) is Fraction and f > 0 and tuple(f * x for x in w) == vector
    values = [w for m in (a.iota, a.tau, a.phi) for w in m.values()]
    assert all(type(w) is Fraction for w in values)
    assert len({id(w) for w in values}) == len(set(values))


@given(_weighted_documents())
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_weight_by_weight_oracle(doc):
    # the same automaton, or the same error, as parsing every weight anew;
    # on a document that parses, the same integer form and Fraction maps
    text = json.dumps(doc)
    outcome = _outcome(parse_automaton, text)
    assert outcome == _outcome(oracle_parse_automaton, text)
    if not isinstance(outcome, str):
        _assert_views_match_the_oracle(parse_automaton(text), oracle_parse_automaton(text))


@pytest.mark.parametrize("zero", [None, "0", "-0", "0/7"])
def test_weights_are_normalised_once_and_zeros_dropped(zero):
    """One weight string "6/4" repeated across initial, final and
    transitions, with or without a zero weight: the maps are those of the
    constructor on the raw strings, zeros dropped, values in lowest terms,
    in document order, and so is the integer form."""
    doc = {"alphabet": ["a", "b"], "states": ["p", "q"],
           "initial": {"p": "6/4"}, "final": {"q": "6/4"},
           "transitions": [["p", "a", "q", "6/4"], ["q", "b", "p", "1"],
                           ["q", "a", "q", "6/4"]]}
    if zero is not None:
        doc["initial"]["q"] = doc["final"]["p"] = zero
        doc["transitions"].insert(1, ["p", "b", "p", zero])
    a = parse_automaton(json.dumps(doc))
    assert a.iota == {"p": Fraction(3, 2)} and a.tau == {"q": Fraction(3, 2)}
    assert list(a.phi.items()) == [(("p", "a", "q"), Fraction(3, 2)),
                                   (("q", "b", "p"), Fraction(1)),
                                   (("q", "a", "q"), Fraction(3, 2))]
    assert all(type(w) is Fraction and (w.numerator, w.denominator) in ((3, 2), (1, 1))
               for m in (a.iota, a.tau, a.phi) for w in m.values())
    b = MultiplicityAutomaton(doc["alphabet"], doc["states"], doc["initial"], doc["final"],
                              {tuple(t[:3]): t[3] for t in doc["transitions"]})
    for get in (lambda x: list(x.iota.items()), lambda x: list(x.tau.items()),
                lambda x: list(x.phi.items())):
        assert get(a) == get(b)
    fa, fb = a._integer_form(), b._integer_form()
    assert (fa.scale, fa.right, fa.iota, fa.iota_factor, fa.tau, fa.tau_factor) == (
        fb.scale, fb.right, fb.iota, fb.iota_factor, fb.tau, fb.tau_factor)


def test_reference_errors_keep_their_order():
    """A document with an unknown initial state and a transition to an
    unknown state reports the initial weight first, as the constructor
    does; a transition of weight zero is checked like any other."""
    doc = fig2_doc()
    doc["initial"]["ghost"] = "1/2"
    doc["transitions"].append(["q0", "a", "ghost", "0"])
    with pytest.raises(DocumentError, match="^initial weight for unknown state 'ghost'$"):
        parse_automaton(json.dumps(doc))
    del doc["initial"]["ghost"]
    with pytest.raises(DocumentError, match="uses an unknown state$"):
        parse_automaton(json.dumps(doc))
    doc["transitions"][-1] = ["q0", "z", "q0", "0"]
    with pytest.raises(DocumentError, match="uses an unknown letter$"):
        parse_automaton(json.dumps(doc))


def test_repeated_weights_share_one_value():
    doc = fig2_doc()
    for item in doc["transitions"]:
        item[3] = "2/4"
    a = parse_automaton(json.dumps(doc))
    assert a == oracle_parse_automaton(json.dumps(doc))
    assert len({id(w) for w in a.phi.values()}) == 1


@pytest.mark.parametrize("weight,echo", [
    ("1" * 5000 + "x", repr("1" * 40) + "... (5001 characters)"),
    ("1/" + "0" * 4300, repr("1/" + "0" * 38) + "... (4302 characters)"),
    ("x" * 40, repr("x" * 40)),
], ids=["malformed", "zero-denominator", "at-the-bound"])
def test_a_long_faulty_weight_is_echoed_by_a_prefix_and_its_length(weight, echo):
    doc = fig2_doc()
    doc["initial"]["q0"] = weight
    with pytest.raises(DocumentError) as info:
        parse_automaton(json.dumps(doc))
    suffix = " (zero denominator)" if "/" in weight else ""
    assert str(info.value) == f"initial['q0']: malformed rational {echo}{suffix}"


# a long name and a long list, and how every error message repeats them:
# a string by the repr of its first 40 characters and its length, any other
# value by the first 40 characters of its repr and the repr's length
LONG = "x" * 5000
LONG_ECHO = repr("x" * 40) + "... (5000 characters)"
LONG_LIST = ["1"] * 2000


def _cut(value):
    text = repr(value)
    return f"{text[:40]}... ({len(text)} characters)"


def _edited(doc, edit):
    edit(doc)
    return json.dumps(doc)


def _dfa_doc():
    return TestDfaDocuments()._doc()


_LONG_VALUE_CASES = [
    (parse_automaton, lambda: _edited(fig2_doc(), lambda d: d["initial"].update(q0=LONG_LIST)),
     f"initial['q0']: malformed rational {_cut(LONG_LIST)}"),
    (parse_automaton, lambda: _edited(fig2_doc(), lambda d: d["initial"].update({LONG: "x"})),
     f"initial[{LONG_ECHO}]: malformed rational 'x'"),
    (parse_automaton,
     lambda: _edited(fig2_doc(), lambda d: d["transitions"].append(["q0", "a", LONG])),
     f"transition {_cut(['q0', 'a', LONG])} must be [from, letter, to, weight]"),
    (parse_automaton,
     lambda: _edited(fig2_doc(), lambda d: d["transitions"].extend([["q0", "a", LONG, "1"]] * 2)),
     f"duplicate transition ['q0', 'a', {LONG_ECHO}]"),
    (parse_automaton,
     lambda: _edited(fig2_doc(), lambda d: d["transitions"].append(["q0", "a", LONG, "x"])),
     f"transition ['q0', 'a', {LONG_ECHO}]: malformed rational 'x'"),
    (parse_automaton, lambda: _edited(fig2_doc(), lambda d: d.update({LONG: 1})),
     f"document: unknown key {LONG_ECHO}"),
    (parse_automaton,
     lambda: _edited(fig2_doc(), lambda d: d["alphabet"].append("x" * 4999 + ".")),
     f"alphabet: name {LONG_ECHO} is reserved for word syntax"),
    (parse_automaton, lambda: '{"alphabet": [], "states": [], "%s": 1, "%s": 2}' % (LONG, LONG),
     f"invalid document: duplicate key {LONG_ECHO}"),
    (parse_automaton, lambda: _edited(fig2_doc(), lambda d: d["initial"].update({LONG: "1"})),
     f"initial weight for unknown state {LONG_ECHO}"),
    (parse_automaton,
     lambda: _edited(fig2_doc(), lambda d: d["transitions"].append(["q0", "a", LONG, "1"])),
     f"transition ('q0', 'a', {LONG_ECHO}) uses an unknown state"),
    (parse_automaton,
     lambda: _edited(fig2_doc(), lambda d: d["transitions"].append(["q0", LONG, "q0", "1"])),
     f"transition ('q0', {LONG_ECHO}, 'q0') uses an unknown letter"),
    (parse_dfa, lambda: _edited(_dfa_doc(), lambda d: d.update(initial=LONG_LIST)),
     f"initial must be a state name, got {_cut(LONG_LIST)}"),
    (parse_dfa, lambda: _edited(_dfa_doc(), lambda d: d["transitions"].append([LONG])),
     f"transition {_cut([LONG])} must be [from, letter, to]"),
    (parse_dfa, lambda: _edited(_dfa_doc(), lambda d: d["transitions"].append(["s0", "a", LONG])),
     f"transition ['s0', 'a', {LONG_ECHO}]: second transition for this state and letter"),
    (parse_dfa, lambda: _edited(_dfa_doc(), lambda d: d.update(initial=LONG)),
     f"unknown initial state {LONG_ECHO}"),
    (parse_dfa, lambda: _edited(_dfa_doc(), lambda d: d["transitions"].append([LONG, "a", "s0"])),
     f"transition ({LONG_ECHO}, 'a', 's0') uses an unknown state"),
    (parse_dfa, lambda: _edited(_dfa_doc(), lambda d: d["transitions"].append(["s0", LONG, "s0"])),
     f"transition ('s0', {LONG_ECHO}, 's0') uses an unknown letter"),
]


@pytest.mark.parametrize("parse,text,message", _LONG_VALUE_CASES,
                         ids=[f"{parse.__name__}-{i}" for i, (parse, _, _) in
                              enumerate(_LONG_VALUE_CASES)])
def test_a_long_value_is_echoed_by_a_prefix_and_its_length(parse, text, message):
    with pytest.raises(DocumentError) as info:
        parse(text())
    assert str(info.value) == message
    assert len(message) < 150


def test_constructors_echo_a_long_name_by_a_prefix_and_its_length():
    with pytest.raises(ValueError) as info:
        MultiplicityAutomaton(["a", LONG_LIST], ["q"], {}, {}, {})
    assert str(info.value) == f"letter names must be non-empty strings, got {_cut(LONG_LIST)}"
    with pytest.raises(ValueError) as info:
        Dfa(("a",), ("s",), "s", [], {("s", "a"): LONG})
    assert str(info.value) == f"transition ('s', 'a', {LONG_ECHO}) uses an unknown state"


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


# names that JSON escapes: quotes, backslashes, control characters, and
# characters beyond ASCII, inside and beyond the basic multilingual plane
_ESCAPED_NAMES = st.sampled_from(["q", "p0", 'a"b', "c\\d", "x/y", "\n", "\x01\x7f", "\u00e9",
                                  "\u2028", "\U0001f600", " ", "@", "\ud800"])


@st.composite
def _named_automata(draw):
    """Automata of 0-4 states over 0-3 letters, drawn from names that need
    JSON escapes, with signed weights, weights above 1 and large numbers;
    each map is empty in some draws. Half of them are read back from their
    document, so that the parser's weight pairs are written too."""
    states = draw(st.lists(_ESCAPED_NAMES, max_size=4, unique=True))
    alphabet = draw(st.lists(_ESCAPED_NAMES.filter(lambda x: x != "@" and "." not in x),
                             max_size=3, unique=True))
    weight = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 12))

    def weights(keys, size):
        return {} if keys is None else draw(st.dictionaries(keys, weight, max_size=size))

    state = st.sampled_from(states) if states else None
    triples = st.tuples(state, st.sampled_from(alphabet), state) if states and alphabet else None
    a = MultiplicityAutomaton(alphabet, states, weights(state, 4), weights(state, 4),
                              weights(triples, 12))
    return parse_automaton(oracle_serialize_automaton(a)) if draw(st.booleans()) else a


@given(_named_automata())
@settings(max_examples=300, deadline=None)
def test_the_writer_gives_the_bytes_of_json_dumps(a):
    # the weight pairs written straight, against json.dumps of the Fraction maps
    assert serialize_automaton(a) == oracle_serialize_automaton(a)


def test_the_writer_builds_no_fraction_weight_maps(monkeypatch):
    a = parse_automaton((DATA / "fig2_A.json").read_text())

    def forbidden(self):
        raise AssertionError("the writer built the Fraction weight maps")

    monkeypatch.setattr(MultiplicityAutomaton, "_fraction_maps", forbidden)
    assert serialize_automaton(a) == (DATA / "fig2_A.json").read_text()


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

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(finals=["s1", "ghost"]), "final states must be declared states"),
        (lambda doc: doc["transitions"].append(["s1", "c", "s0"]),
         "transition ('s1', 'c', 's0') uses an unknown letter"),
        (lambda doc: doc["transitions"].append(["ghost", "a", "s0"]),
         "transition ('ghost', 'a', 's0') uses an unknown state"),
        (lambda doc: doc["states"].append("s0"), "duplicate state name"),
        (lambda doc: doc["alphabet"].append(""), "letter names must be non-empty strings, got ''"),
    ])
    def test_constructor_checks_become_document_errors(self, edit, message):
        doc = self._doc()
        edit(doc)
        with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
            parse_dfa(json.dumps(doc))

    def test_rejects_a_list_inside_finals(self):
        doc = self._doc()
        doc["finals"] = ["s0", ["s1"]]
        with pytest.raises(DocumentError, match="finals must list declared states"):
            parse_dfa(json.dumps(doc))


# Mutations of valid documents: every outcome is a DocumentError or an
# object that serialises and parses back to itself.
_NAMES = ["ghost", "", "@", "a.b", "a", "b", "q0", "q1", "s0", "s1"]
_VALUES = st.sampled_from(_NAMES) | st.sampled_from(
    [None, 0, 1.5, True, [], {}, ["q0"], {"q0": "1"}, "1/0", "-3/4", "x"])


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))[1:] or [()]))
        if not path:
            return draw(_VALUES)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key, node = path[-1], parent[path[-1]]
        action = draw(st.sampled_from(["drop", "retype", "rename", "repeat"]))
        if action == "drop":
            del parent[key]
        elif action == "retype":
            parent[key] = copy.deepcopy(draw(_VALUES))
        elif action == "rename" and isinstance(parent, dict):
            parent[draw(st.sampled_from(_NAMES))] = parent.pop(key)
        elif action == "repeat" and isinstance(node, list) and node:
            node.append(copy.deepcopy(draw(st.sampled_from(node))))
        else:
            parent[key] = draw(st.sampled_from(_NAMES))
    return doc


_DFA_DOC = {"alphabet": ["a", "b"], "states": ["s0", "s1"], "initial": "s0",
            "finals": ["s1"], "transitions": [["s0", "a", "s1"], ["s1", "b", "s0"]]}


@pytest.mark.parametrize("parse,serialize,doc", [
    (parse_automaton, serialize_automaton, json.loads((DATA / "fig2_A.json").read_text())),
    (parse_automaton, serialize_automaton, json.loads((DATA / "fig5.json").read_text())),
    (parse_dfa, serialize_dfa, _DFA_DOC),
], ids=["fig2_A", "fig5", "dfa"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_raise_only_document_errors(parse, serialize, doc, data):
    text = json.dumps(data.draw(_mutated(doc)))
    try:
        result = parse(text)
    except DocumentError:
        return
    canonical = serialize(result)
    assert parse(canonical) == result
    assert serialize(parse(canonical)) == canonical
