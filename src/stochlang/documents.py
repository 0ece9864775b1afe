"""Text document format for automata, and a companion format for DFAs.

Documents are JSON with a fixed key set. All weights are rational strings
"p" or "p/q" with decimal integers of at most ``MAX_DIGITS`` digits and
q > 0; omitted entries mean weight zero. No JSON object may repeat a key.
Serialization is canonical: parsing a document and serialising the result
is byte-identical once weights are in lowest terms.

The parser checks only this syntax. An automaton document is read in one
pass: each distinct weight string once, into the coprime (numerator,
denominator) pair of its value, and no ``Fraction`` is made; the
automaton keeps those pairs (``automata._from_pairs``). Whether the names
and the state and letter references describe an automaton is checked by
the builder that the constructor of :class:`MultiplicityAutomaton` uses,
and by the constructor of :class:`Dfa`; their ``ValueError`` becomes a
:class:`DocumentError`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import Callable

from .automata import MultiplicityAutomaton, _echo, _echoes, _from_pairs
from .classify import Dfa

_RATIONAL_RE = re.compile(r"(-?([0-9]+))(?:/([0-9]+))?")

# Most decimal digits in a numerator or denominator: the interpreter's
# default bound on int/str conversion, so a document parses the same with
# that bound in force or lifted.
MAX_DIGITS = 4300

class DocumentError(ValueError):
    """A document failed validation; the message names the offending item."""


def format_rational(value: Fraction) -> str:
    return str(value)


def _ratio(text: object, where: Callable[[], str]) -> tuple[int, int]:
    """The value of a rational string as its coprime (numerator,
    denominator) pair, denominator positive; ``where()`` names the item,
    and is called only when ``text`` spells no rational."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise DocumentError(f"{where()}: malformed rational {_echo(text)}")
    num, digits, den = match.groups()
    if len(digits) > MAX_DIGITS or den is not None and len(den) > MAX_DIGITS:
        raise DocumentError(f"{where()}: rational with more than {MAX_DIGITS} digits")
    if den is None:
        return int(num), 1
    q = int(den)
    if not q:
        raise DocumentError(f"{where()}: malformed rational {_echo(text)} (zero denominator)")
    p = int(num)
    g = gcd(p, q)
    return (p // g, q // g) if g > 1 else (p, q)


def parse_rational(text: object, where: str) -> Fraction:
    return Fraction(*_ratio(text, lambda: where))


def _require_keys(data: dict, allowed: set[str], required: set[str], what: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise DocumentError(f"{what}: unknown key {_echo(sorted(unknown)[0])}")
    missing = required - set(data)
    if missing:
        raise DocumentError(f"{what}: missing key {sorted(missing)[0]!r}")


def _name_list(data: object, what: str) -> list[str]:
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise DocumentError(f"{what} must be a list of strings")
    return data


def _alphabet(data: object) -> list[str]:
    """The letters of a document; '.' and '@' belong to the word syntax."""
    for x in _name_list(data, "alphabet"):
        if "." in x or x == "@":
            raise DocumentError(f"alphabet: name {_echo(x)} is reserved for word syntax")
    return data


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {_echo(key)}")
        data[key] = value
    return data


def _load_json(text: str) -> dict:
    """The JSON object of a document; malformed, too deeply nested text or a
    repeated key in one object is invalid."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid document: {exc}") from None
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    return data


def _build(make, *args):
    """``make(*args)``, its ValueError raised again as a DocumentError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def parse_automaton(text: str) -> MultiplicityAutomaton:
    """Parse an automaton document, rejecting anything structurally unsound."""
    data = _load_json(text)
    _require_keys(data, {"alphabet", "states", "initial", "final", "transitions"},
                  {"alphabet", "states"}, "document")
    alphabet = _alphabet(data["alphabet"])
    states = _name_list(data["states"], "states")
    # each distinct weight string is read once into its (numerator,
    # denominator) pair, which is shared; the name of an item is made only
    # for its error. The lookup is written out in both loops: a helper call
    # per weight cost about 8% of the parse of the equiv-rank benchmark
    # documents
    pairs: dict[str, tuple[int, int]] = {}

    def weight_map(key: str) -> dict[str, tuple[int, int]]:
        raw = data.get(key, {})
        if not isinstance(raw, dict):
            raise DocumentError(f"{key} must be an object mapping states to rationals")
        weights = {}
        for q, w in raw.items():
            pair = pairs.get(w) if type(w) is str else None
            if pair is None:
                pair = pairs[w] = _ratio(w, lambda: f"{key}[{_echo(q)}]")
            weights[q] = pair
        return weights

    iota = weight_map("initial")
    tau = weight_map("final")

    raw_transitions = data.get("transitions", [])
    if not isinstance(raw_transitions, list):
        raise DocumentError("transitions must be a list")
    phi: dict[tuple[str, str, str], tuple[int, int]] = {}
    for item in raw_transitions:
        if (type(item) is not list or len(item) != 4 or type(item[0]) is not str
                or type(item[1]) is not str or type(item[2]) is not str):
            raise DocumentError(f"transition {_echo(item)} must be [from, letter, to, weight]")
        q, x, r, w = item
        t = (q, x, r)
        if t in phi:
            raise DocumentError(f"duplicate transition [{_echoes(q, x, r)}]")
        pair = pairs.get(w) if type(w) is str else None
        if pair is None:
            pair = pairs[w] = _ratio(w, lambda: f"transition [{_echoes(q, x, r)}]")
        phi[t] = pair
    return _build(_from_pairs, alphabet, states, iota, tau, phi)


def serialize_automaton(a: MultiplicityAutomaton) -> str:
    """Canonical document text for an automaton."""
    letter_index = {x: i for i, x in enumerate(a.alphabet)}
    state_index = {q: i for i, q in enumerate(a.states)}
    transitions = sorted(
        a.phi.items(),
        key=lambda item: (state_index[item[0][0]], letter_index[item[0][1]],
                          state_index[item[0][2]]))
    doc = {
        "alphabet": list(a.alphabet),
        "states": list(a.states),
        "initial": {q: format_rational(a.iota[q]) for q in a.states if q in a.iota},
        "final": {q: format_rational(a.tau[q]) for q in a.states if q in a.tau},
        "transitions": [[q, x, r, format_rational(w)] for (q, x, r), w in transitions],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_dfa(text: str) -> Dfa:
    """Parse a DFA document: keys alphabet, states, initial, finals, transitions."""
    data = _load_json(text)
    _require_keys(data, {"alphabet", "states", "initial", "finals", "transitions"},
                  {"alphabet", "states", "initial"}, "document")
    alphabet = _alphabet(data["alphabet"])
    states = _name_list(data["states"], "states")
    initial = data["initial"]
    if not isinstance(initial, str):
        raise DocumentError(f"initial must be a state name, got {_echo(initial)}")
    finals = data.get("finals", [])
    if not isinstance(finals, list) or not all(isinstance(q, str) for q in finals):
        raise DocumentError("finals must list declared states")
    raw_transitions = data.get("transitions", [])
    if not isinstance(raw_transitions, list):
        raise DocumentError("transitions must be a list")
    delta: dict[tuple[str, str], str] = {}
    for item in raw_transitions:
        if not isinstance(item, list) or len(item) != 3 or not all(
                isinstance(x, str) for x in item):
            raise DocumentError(f"transition {_echo(item)} must be [from, letter, to]")
        q, x, r = item
        if (q, x) in delta:
            raise DocumentError(f"transition [{_echoes(q, x, r)}]: "
                                "second transition for this state and letter")
        delta[(q, x)] = r
    return _build(Dfa, alphabet, states, initial, finals, delta)


def serialize_dfa(d: Dfa) -> str:
    letter_index = {x: i for i, x in enumerate(d.alphabet)}
    state_index = {q: i for i, q in enumerate(d.states)}
    transitions = sorted(d.delta.items(),
                         key=lambda item: (state_index[item[0][0]], letter_index[item[0][1]]))
    doc = {
        "alphabet": list(d.alphabet),
        "states": list(d.states),
        "initial": d.initial,
        "finals": [q for q in d.states if q in d.finals],
        "transitions": [[q, x, r] for (q, x), r in transitions],
    }
    return json.dumps(doc, indent=2) + "\n"
