"""The ``Fraction`` weight maps ``iota``, ``tau`` and ``phi`` are a public view.

Every automaton stores its weights as coprime (numerator, denominator)
pairs, and no library decision builds the ``Fraction`` maps. Each decision
below runs on constructed and parsed automata with
``MultiplicityAutomaton._fraction_maps`` patched to raise, and its result
is compared with its oracle from ``helpers`` or with the automaton that
the constructor builds from the input's ``Fraction`` maps, both computed
before the patch. The maps themselves must still be the pairs as
``Fraction``s, one per distinct pair.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from stochlang import (MultiplicityAutomaton, ReductionMode, ReductionStallError, fixtures,
                       parse_automaton, reduce, residual_automaton, to_prefixial_pra,
                       weighted_sum)
from stochlang.automata import replace_iota, with_alphabet
from stochlang.classify import residual_witnesses

from helpers import (duplicate_state, oracle_cone_reduce, oracle_field_reduce,
                     oracle_series_sum, oracle_to_prefixial_pra, random_pa, ring_pa, split_copy,
                     split_state, with_cancelling_copies)

F = Fraction
GOLDEN_INPUTS = Path(__file__).parent / "data" / "cli_golden" / "inputs"


def constructed_automata():
    rng = random.Random(31)
    return {
        "ring6_duplicated": duplicate_state(ring_pa(6), rng),
        "pa4_split_twice": split_state(split_state(random_pa(rng, 4, ("a", "b")), rng,
                                                   "q1", "c0"), rng, "c0", "c1"),
        "ring4_split_copy": split_copy(ring_pa(4), rng),
        "ring5_cancelling": with_cancelling_copies(ring_pa(5)),
        "fig5": fixtures.build("fig5"),
        "fig2_A": fixtures.build("fig2_A"),
    }


def parsed_automata():
    return {name: parse_automaton((GOLDEN_INPUTS / f"{name}.json").read_text())
            for name in ("pda4", "pda4_split", "split_ring8", "ring_two_convex", "signed_cone",
                         "untrimmed_pair")}


AUTOMATA = {**constructed_automata(), **parsed_automata()}


def outcome(decide, *args):
    """The result of a decision, or the text of the error it raises."""
    try:
        return decide(*args)
    except (ValueError, ReductionStallError) as exc:
        return f"{type(exc).__name__}: {exc}"


def trimmed_by_constructor(a):
    """The constructor's automaton on the states that the support of the
    Fraction maps reaches from an initial state and that reach a final one."""
    def reached(seed, edges):
        seen, stack = set(seed), list(seed)
        while stack:
            q = stack.pop()
            for r in edges.get(q, ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return seen

    forward, backward = {}, {}
    for q, _, r in a.phi:
        forward.setdefault(q, []).append(r)
        backward.setdefault(r, []).append(q)
    kept = reached(a.iota, forward) & reached(a.tau, backward)
    return MultiplicityAutomaton(
        a.alphabet, [q for q in a.states if q in kept],
        {q: w for q, w in a.iota.items() if q in kept},
        {q: w for q, w in a.tau.items() if q in kept},
        {t: w for t, w in a.phi.items() if t[0] in kept and t[2] in kept})


def residual_by_oracle(a, word):
    """The residual automaton at a word, its initial vector pushed through
    the Fraction matrices and divided by the oracle's prefix mass."""
    rep = a.to_linear_representation()
    lam = rep.forward(rep.lam, word)
    mass = oracle_series_sum(a, lam)
    if not mass:
        return None
    return MultiplicityAutomaton(a.alphabet, a.states,
                                 {q: w / mass for q, w in zip(a.states, lam)}, a.tau, a.phi)


def decisions(a):
    """(name, call, expected) for every decision under test on ``a``, the
    expected results computed now, with the Fraction maps allowed."""
    lam = [F(i + 1, a.n_states + 1) for i in range(a.n_states)]
    other = fixtures.build("fig2_A") if a.alphabet == ("a", "b") else a
    cases = [
        ("reduce field", lambda: outcome(reduce, a, ReductionMode.FIELD),
         outcome(oracle_field_reduce, a)),
        ("reduce cone", lambda: outcome(reduce, a, ReductionMode.CONE),
         outcome(oracle_cone_reduce, a)),
        ("weighted_sum", lambda: weighted_sum([a, other], (F(1, 3), F(2, 3))),
         MultiplicityAutomaton(
             a.alphabet, [f"{i}.{q}" for i, b in enumerate((a, other)) for q in b.states],
             {f"{i}.{q}": c * w for i, (b, c) in enumerate(((a, F(1, 3)), (other, F(2, 3))))
              for q, w in b.iota.items()},
             {f"{i}.{q}": w for i, b in enumerate((a, other)) for q, w in b.tau.items()},
             {(f"{i}.{q}", x, f"{i}.{r}"): w for i, b in enumerate((a, other))
              for (q, x, r), w in b.phi.items()})),
        ("trim", a.trim, trimmed_by_constructor(a)),
        ("replace_iota", lambda: replace_iota(a, lam),
         MultiplicityAutomaton(a.alphabet, a.states, dict(zip(a.states, lam)), a.tau, a.phi)),
        ("with_alphabet", lambda: with_alphabet(a, a.alphabet + ("z",)),
         MultiplicityAutomaton(a.alphabet + ("z",), a.states, a.iota, a.tau, a.phi)),
    ]
    if oracle_series_sum(a, a.to_linear_representation().lam) is not None:
        expected = residual_by_oracle(a, a.alphabet[:1])
        if expected is not None:
            cases.append(("residual_automaton",
                          lambda: residual_automaton(a, a.alphabet[:1]), expected))
    reduced = reduce(a, ReductionMode.CONE)
    try:
        verdict, witnesses = residual_witnesses(reduced)
    except ValueError:
        verdict = False
    if verdict:
        cases.append(("to_prefixial_pra", lambda: to_prefixial_pra(reduced, witnesses),
                      oracle_to_prefixial_pra(reduced, witnesses)))
    return cases


def forbid_fraction_maps(monkeypatch):
    def forbidden(self):
        raise AssertionError("a decision built the Fraction weight maps")

    monkeypatch.setattr(MultiplicityAutomaton, "_fraction_maps", forbidden)


@pytest.mark.parametrize("name", sorted(AUTOMATA))
def test_no_decision_builds_the_fraction_maps(name, monkeypatch):
    cases = decisions(AUTOMATA[name])
    forbid_fraction_maps(monkeypatch)
    for decision, call, expected in cases:
        result = call()
        assert result == expected, decision


def test_the_decisions_cover_prefixial_rebuilds_stalls_and_eliminations():
    covered = [(decision, expected, a.n_states) for a in AUTOMATA.values()
               for decision, _, expected in decisions(a)]
    names = [decision for decision, _, _ in covered]
    assert names.count("to_prefixial_pra") >= 3
    assert names.count("residual_automaton") >= 5
    assert sum(isinstance(expected, str) and expected.startswith("ReductionStallError")
               for _, expected, _ in covered) >= 2
    assert sum(decision.startswith("reduce") and isinstance(expected, MultiplicityAutomaton)
               and expected.n_states < n for decision, expected, n in covered) >= 8


@pytest.mark.parametrize("name", sorted(AUTOMATA))
def test_the_fraction_maps_are_the_pairs(name):
    a = AUTOMATA[name]
    derived = [a, a.trim(), reduce(a, ReductionMode.CONE),
               weighted_sum([a, a], (F(1, 2), F(1, 2))), with_alphabet(a, a.alphabet + ("z",))]
    for b in derived:
        for view, pairs in ((b.iota, b._iota), (b.tau, b._tau), (b.phi, b._phi)):
            assert list(view.items()) == [(key, F(*pair)) for key, pair in pairs.items()]
        values = [w for view in (b.iota, b.tau, b.phi) for w in view.values()]
        assert all(type(w) is Fraction for w in values)
        assert len({id(w) for w in values}) == len(set(values))
