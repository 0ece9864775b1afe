"""Every document subcommand on random documents, in-process, under a time limit.

``ROUNDS`` rounds are drawn from ``random.Random(SEED)``, and then
``LARGE_ROUNDS`` more from the same generator. Round i takes its kind from
``KINDS`` in turn, 1-3 letters at random, and asks its generator for
1-6 states at random in the first ``ROUNDS`` rounds, for 7-12 in the
others (trimming may remove some, and the copies add theirs):
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

A call listed in ``KNOWN_HANGS`` runs in a child interpreter instead
(``run_isolated``): under a cap on its address space (``MEMORY_CAP``), and
killed by the kernel once ``LIMIT_S`` have passed since it called
``cli.main``, so that neither its time nor its memory depends on the
interpreter getting to run a handler. It must still run out of time or
memory, so that its mark fails once the item named in it mends the hang.
"""

from __future__ import annotations

import io
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import stochlang
from stochlang import parse_automaton, serialize_automaton
from stochlang.automata import format_word
from stochlang.cli import main
from stochlang.documents import serialize_dfa

from helpers import (check_every_cone_answer, dfa_a_count_mod_k, duplicate_state, random_ma,
                     random_pa, random_pda, random_unit_mass_ma, with_cancelling_copies)

SEED = 2216
ROUNDS = 40
LARGE_ROUNDS = 14
LIMIT_S = 2.0
EXIT_CODES = {0, 2, 3, 10, 11, 12, 13, 14, 15}
KINDS = ("signed", "nonneg", "pa", "pda", "unit-mass", "cancelling", "duplicate")

# (round, subcommand) -> why the call hangs, and the ROADMAP items that mend
# it. Empty: the two minimal-gens --depth 2 rounds over 3 letters (34 and 37)
# answer since the cone questions run on the simplex.
KNOWN_HANGS: dict[tuple[int, str], str] = {}


# Address space of the child interpreter that runs a KNOWN_HANGS call; its
# parent kills it, whatever it does, once this many seconds have passed
# beyond LIMIT_S
MEMORY_CAP = 1 << 30
CHILD_GRACE_S = 30.0
# Run by the child with the cap, LIMIT_S and the CLI arguments: SIGALRM keeps
# its default action, so the kernel ends the process when the timer fires
_CHILD = """
import resource, signal, sys
cap = int(sys.argv[1])
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    cap = min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from stochlang.cli import main
signal.signal(signal.SIGALRM, signal.SIG_DFL)
signal.setitimer(signal.ITIMER_REAL, float(sys.argv[2]))
code = main(sys.argv[3:])
signal.setitimer(signal.ITIMER_REAL, 0)
sys.stdout.flush()
sys.exit(code)
"""
_OUT_OF_MEMORY = ("error: out of memory", "MemoryError")


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


def run_in_process(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, or None when it has not
    answered within LIMIT_S."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err), time_limit(LIMIT_S):
            code = main(argv)
    except CallTimeout:
        return None
    return code, out.getvalue(), err.getvalue()


def run_isolated(argv):
    """:func:`run_in_process` in a child interpreter with at most MEMORY_CAP
    bytes of address space; None also when the child runs out of that."""
    source = str(Path(stochlang.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    try:
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, str(MEMORY_CAP), str(LIMIT_S), *argv],
            env=env, capture_output=True, text=True, timeout=LIMIT_S + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        return None
    if child.returncode < 0 or any(mark in child.stderr for mark in _OUT_OF_MEMORY):
        return None
    return child.returncode, child.stdout, child.stderr


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
    for i in range(ROUNDS + LARGE_ROUNDS):
        kind = KINDS[i % len(KINDS)]
        letters = ("a", "b", "c")[:rng.randint(1, 3)]
        sizes = (1, 6) if i < ROUNDS else (7, 12)
        automata = [draw(kind, rng, rng.randint(*sizes), letters) for _ in range(3)]
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        dfas = [dfa_a_count_mod_k(rng.randint(1, 3), 0, letters) for _ in range(2)]
        yield pytest.param(i, automata, format_word(word, letters), dfas, id=f"{i}-{kind}")


# drawn once: the parametrize and the checks of the sample share the rounds
# (round 53 alone draws random_unit_mass_ma 770 times)
SAMPLE = list(rounds())


def commands(a, b, c, word, d1, d2, large=False):
    """The calls of a round; ``minimal-gens`` runs at depth 2 on the small
    rounds and at its default depth on the large ones."""
    mingens = ["minimal-gens", a] if large else ["minimal-gens", "--depth", "2", a]
    return {
        "eval": ["eval", a, word], "sum": ["sum", a], "sums": ["sums", a],
        "equiv": ["equiv", a, b], "combine": ["combine", a, b, c],
        "combine --nonneg": ["combine", "--nonneg", a, b, c], "reduce": ["reduce", a],
        "reduce --mode cone": ["reduce", "--mode", "cone", a], "rank": ["rank", a],
        "classify": ["classify", a], "residual": ["residual", a, word], "pda": ["pda", a],
        "prefixial": ["prefixial", a], "synth-pa": ["synth-pa", a, b, c],
        " ".join(mingens[:-1]): mingens,
        "hardness": ["hardness", d1, d2],
    }


def documents(out: str) -> list[str]:
    """The documents in a subcommand's stdout: each starts at a line '{'."""
    lines = out.splitlines(keepends=True)
    starts = [i for i, line in enumerate(lines) if line == "{\n"]
    return ["".join(lines[i:j]) for i, j in zip(starts, starts[1:] + [len(lines)])]


@pytest.mark.parametrize("index, automata, word, dfas", SAMPLE)
def test_every_subcommand_answers_in_time(tmp_path, index, automata, word, dfas):
    paths = []
    for k, a in enumerate(automata):
        paths.append(str(tmp_path / f"a{k}.json"))
        (tmp_path / f"a{k}.json").write_text(serialize_automaton(a))
    for k, d in enumerate(dfas):
        paths.append(str(tmp_path / f"d{k}.json"))
        (tmp_path / f"d{k}.json").write_text(serialize_dfa(d))
    stale, problems = [], []
    for name, argv in commands(*paths[:3], word, *paths[3:], index >= ROUNDS).items():
        hang = KNOWN_HANGS.get((index, name))
        answer = run_in_process(argv) if hang is None else run_isolated(argv)
        if answer is None:
            if hang is None:
                problems.append(f"{name}: no answer within {LIMIT_S} s")
            continue
        if hang is not None:
            stale.append(f"{name}: answered; drop the mark ({hang})")
        code, out, err = answer
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
    assert len(SAMPLE) == ROUNDS + LARGE_ROUNDS
    assert {p.id.split("-", 1)[1] for p in SAMPLE} == set(KINDS)
    assert {p.id.split("-", 1)[1] for p in SAMPLE[ROUNDS:]} == set(KINDS)
    automata = [a for p in SAMPLE for a in p.values[1]]
    assert {len(a.alphabet) for a in automata} == {1, 2, 3}
    assert {1, 6, 7, 12} <= {a.n_states for a in automata}


def test_the_child_runner_answers_a_quick_call():
    # KNOWN_HANGS is empty, so no round runs in a child; the runner stays
    # for future marks and must still hand back what the call printed
    code, out, err = run_isolated(["fixture", "example1_p"])
    assert code == 0 and not err
    assert parse_automaton(out).n_states > 0


@pytest.mark.parametrize("index", [34, 37])
def test_the_former_hang_rounds_answer_with_checked_cone_answers(tmp_path, monkeypatch, index):
    # on Fourier-Motzkin both ran for more than 30 s and reached 1-1.7 GB
    verdicts = check_every_cone_answer(monkeypatch)
    automata = SAMPLE[index].values[1]
    path = tmp_path / "a.json"
    path.write_text(serialize_automaton(automata[0]))
    answer = run_in_process(["minimal-gens", "--depth", "2", str(path)])
    assert answer is not None and answer[0] in EXIT_CODES
    assert verdicts
