"""Every document subcommand on random documents, in-process, under a time limit.

``ROUNDS`` rounds are drawn from ``random.Random(SEED)``. Round i takes
its kind from ``KINDS`` in turn, and 1-6 states and 1-3 letters at random:
signed and nonnegative ``random_ma``, ``random_pa``, ``random_pda``,
``random_unit_mass_ma`` (drawn again until its sum converges to a nonzero
value), and ``with_cancelling_copies`` and ``duplicate_state`` of a
``random_pa``. Each round writes its automaton and two others of the same
kind and alphabet, the operands of ``equiv``, ``combine`` and ``synth-pa``,
and two DFAs for ``hardness``. Every subcommand then runs once through
``cli.main`` under a ``LIMIT_S`` alarm, and every call must:

- exit with a code that ``cli`` documents (0, 2, 3 and 10-15);
- print exactly one ``error:`` line, and nothing else on stderr, with
  exit 3, and nothing on stderr with any other code but 2;
- print only documents that ``parse_automaton`` reads;
- let no exception escape.

A call listed in ``KNOWN_HANGS`` must still run out of time, so that its
mark fails once the item named in it mends the hang.
"""

from __future__ import annotations

import io
import random
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import pytest

from stochlang import parse_automaton, serialize_automaton
from stochlang.automata import format_word
from stochlang.cli import main
from stochlang.documents import serialize_dfa

from helpers import (dfa_a_count_mod_k, duplicate_state, random_ma, random_pa, random_pda,
                     random_unit_mass_ma, with_cancelling_copies)

SEED = 2216
ROUNDS = 40
LIMIT_S = 2.0
EXIT_CODES = {0, 2, 3, 10, 11, 12, 13, 14, 15}
KINDS = ("signed", "nonneg", "pa", "pda", "unit-mass", "cancelling", "duplicate")

# (round, subcommand) -> why the call hangs, and the ROADMAP items that mend it.
# Both ran for more than 30 s and reached 1-1.7 GB of resident memory.
_DEPTH_2_OVER_3_LETTERS = ("minimal-gens --depth 2 on a PA over 3 letters: Fourier-Motzkin "
                           "on the drop questions (items 2 and 9)")
KNOWN_HANGS = {(34, "minimal-gens --depth 2"): _DEPTH_2_OVER_3_LETTERS,
               (37, "minimal-gens --depth 2"): _DEPTH_2_OVER_3_LETTERS}


class CallTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no handler in the CLI catches it."""


def _alarm(signum, frame):
    raise CallTimeout()


@contextmanager
def time_limit(seconds: float):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def draw(kind, rng, n, letters):
    if kind in ("signed", "nonneg"):
        return random_ma(rng, n, letters, signed=kind == "signed")
    if kind == "pda":
        return random_pda(rng, n, letters)
    if kind == "unit-mass":
        a = None
        while a is None:
            a = random_unit_mass_ma(rng, n, letters)
        return a
    a = random_pa(rng, n, letters)
    if kind == "cancelling":
        return with_cancelling_copies(a)
    if kind == "duplicate":
        return duplicate_state(a, rng)
    return a


def rounds():
    rng = random.Random(SEED)
    for i in range(ROUNDS):
        kind = KINDS[i % len(KINDS)]
        letters = ("a", "b", "c")[:rng.randint(1, 3)]
        automata = [draw(kind, rng, rng.randint(1, 6), letters) for _ in range(3)]
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        dfas = [dfa_a_count_mod_k(rng.randint(1, 3), 0, letters) for _ in range(2)]
        yield pytest.param(i, automata, format_word(word, letters), dfas, id=f"{i}-{kind}")


def commands(a, b, c, word, d1, d2):
    return {
        "eval": ["eval", a, word], "sum": ["sum", a], "sums": ["sums", a],
        "equiv": ["equiv", a, b], "combine": ["combine", a, b, c],
        "combine --nonneg": ["combine", "--nonneg", a, b, c], "reduce": ["reduce", a],
        "reduce --mode cone": ["reduce", "--mode", "cone", a], "rank": ["rank", a],
        "classify": ["classify", a], "residual": ["residual", a, word], "pda": ["pda", a],
        "prefixial": ["prefixial", a], "synth-pa": ["synth-pa", a, b, c],
        "minimal-gens --depth 2": ["minimal-gens", "--depth", "2", a],
        "hardness": ["hardness", d1, d2],
    }


def documents(out: str) -> list[str]:
    """The documents in a subcommand's stdout: each starts at a line '{'."""
    lines = out.splitlines(keepends=True)
    starts = [i for i, line in enumerate(lines) if line == "{\n"]
    return ["".join(lines[i:j]) for i, j in zip(starts, starts[1:] + [len(lines)])]


@pytest.mark.parametrize("index, automata, word, dfas", rounds())
def test_every_subcommand_answers_in_time(tmp_path, index, automata, word, dfas):
    paths = []
    for k, a in enumerate(automata):
        paths.append(str(tmp_path / f"a{k}.json"))
        (tmp_path / f"a{k}.json").write_text(serialize_automaton(a))
    for k, d in enumerate(dfas):
        paths.append(str(tmp_path / f"d{k}.json"))
        (tmp_path / f"d{k}.json").write_text(serialize_dfa(d))
    stale, problems = [], []
    for name, argv in commands(*paths[:3], word, *paths[3:]).items():
        out, err = io.StringIO(), io.StringIO()
        hang = KNOWN_HANGS.get((index, name))
        try:
            with redirect_stdout(out), redirect_stderr(err), time_limit(LIMIT_S):
                code = main(argv)
        except CallTimeout:
            if hang is None:
                problems.append(f"{name}: no answer within {LIMIT_S} s")
            continue
        if hang is not None:
            stale.append(f"{name}: answered; drop the mark ({hang})")
        out, err = out.getvalue(), err.getvalue()
        if code not in EXIT_CODES:
            problems.append(f"{name}: exit {code}")
        if code == 3:
            if not (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")):
                problems.append(f"{name}: exit 3 with stderr {err!r}")
        elif code != 2 and err:
            problems.append(f"{name}: exit {code} with stderr {err!r}")
        for doc in documents(out):
            try:
                parse_automaton(doc)
            except ValueError as exc:
                problems.append(f"{name}: printed a document that does not parse: {exc}")
    assert not problems and not stale, problems + stale


def test_the_sample_covers_every_kind_size_and_alphabet():
    params = list(rounds())
    assert len(params) == ROUNDS
    assert {p.id.split("-", 1)[1] for p in params} == set(KINDS)
    automata = [a for p in params for a in p.values[1]]
    assert {len(a.alphabet) for a in automata} == {1, 2, 3}
    assert {1, 6} <= {a.n_states for a in automata}
