"""Command-line front end.

Every subcommand reads automaton documents (JSON, see ``documents``), prints
its results as ``key: value`` lines with bit-exact rational strings, and
emits any produced automaton as a document on stdout. Exit codes separate
mathematical negatives from operational errors:

    0   success
    2   usage error
    3   unreadable input, precondition violation, or an input on which a
        construction cannot finish: field ``reduce`` stopping above the
        series rank, ``pda`` or ``synth-pa`` assembling an automaton that is
        not probabilistic. Each prints one ``error: ...`` line on stderr.
    10  equiv: the automata are distinct
    11  combine / synth-pa: no admissible combination exists
    12  pda: distinct residuals exceeded the bound
    13  sum / sums: the series diverges
    14  prefixial: the input does not define a residual automaton
    15  minimal-gens: inconclusive at the requested depth
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import fixtures
from .analysis import residual_automaton, state_sums, total_sum
from .automata import MultiplicityAutomaton, _echo, format_word, merge_alphabets, parse_word
from .classify import (UNDECIDABILITY_NOTE, classify, pra_hardness_instance,
                       residual_witnesses)
from .constructions import (ConstructionError, determinize_to_pda,
                            minimal_residual_generators, synthesize_pa,
                            to_prefixial_pra)
from .documents import (DocumentError, parse_automaton, parse_dfa,
                        serialize_automaton)
from .equivalence import are_equivalent, express_combination
from .reduction import ReductionMode, ReductionStallError, hankel_rank, reduce

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_DISTINCT = 10
EXIT_INFEASIBLE = 11
EXIT_BOUND = 12
EXIT_DIVERGENT = 13
EXIT_NOT_PRA = 14
EXIT_INCONCLUSIVE = 15

# The interpreter's bound on int/str conversion (Python >= 3.10.7), which
# ``main`` lifts so that every exact result prints.
_get_int_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_int_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load(path: str) -> MultiplicityAutomaton:
    return parse_automaton(_read_text(path))


def _emit(key: str, value) -> None:
    print(f"{key}: {value}")


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_eval(ns) -> int:
    a = _load(ns.file)
    word = parse_word(ns.word, a.alphabet)
    _emit("value", a.evaluate(word))
    return EXIT_OK


def _cmd_sum(ns) -> int:
    outcome = total_sum(_load(ns.file))
    _emit("converges", _bool(outcome.converges))
    if not outcome.converges:
        return EXIT_DIVERGENT
    _emit("value", outcome.value)
    return EXIT_OK


def _cmd_sums(ns) -> int:
    a = _load(ns.file)
    sums = state_sums(a)
    _emit("convergent", _bool(sums is not None))
    if sums is None:
        return EXIT_DIVERGENT
    for q in a.states:
        _emit(f"sum.{q}", sums[q])
    return EXIT_OK


def _cmd_equiv(ns) -> int:
    a = _load(ns.left)
    b = _load(ns.right)
    outcome = are_equivalent(a, b)
    _emit("equal", _bool(outcome.equal))
    if outcome.equal:
        return EXIT_OK
    _emit("witness", format_word(outcome.witness, merge_alphabets(a.alphabet, b.alphabet)))
    _emit("left", outcome.left_value)
    _emit("right", outcome.right_value)
    return EXIT_DISTINCT


def _cmd_combine(ns) -> int:
    target = _load(ns.target)
    generators = [_load(path) for path in ns.generators]
    outcome = express_combination(target, generators, nonneg=ns.nonneg)
    _emit("expressible", _bool(outcome.expressible))
    if not outcome.expressible:
        return EXIT_INFEASIBLE
    for i, c in enumerate(outcome.coefficients, start=1):
        _emit(f"coeff.{i}", c)
    return EXIT_OK


def _cmd_reduce(ns) -> int:
    mode = ReductionMode.FIELD if ns.mode == "field" else ReductionMode.CONE
    reduced = reduce(_load(ns.file), mode)
    _emit("states", reduced.n_states)
    sys.stdout.write(serialize_automaton(reduced))
    return EXIT_OK


def _cmd_rank(ns) -> int:
    _emit("rank", hankel_rank(_load(ns.file)))
    return EXIT_OK


def _cmd_classify(ns) -> int:
    a = _load(ns.file)
    report = classify(a, ns.max_len)
    _emit("trimmed", _bool(report.trimmed))
    _emit("semi_pa", _bool(report.semi_pa))
    _emit("pa", _bool(report.pa))
    _emit("pda", _bool(report.pda))
    if report.pra_reduced is not None:
        _emit("pra", _bool(report.pra_reduced.is_pra))
        _emit("pra_on_reduction", _bool(report.pra_reduced.on_reduction))
        if report.pra_reduced.witnesses:
            for q, w in report.pra_reduced.witnesses.items():
                _emit(f"witness.{q}", format_word(w, a.alphabet))
    _emit("sum_is_one", _bool(report.stochastic.sum_is_one))
    _emit("nonneg_checked_length", report.stochastic.checked_length)
    if report.stochastic.violation is not None:
        _emit("violation", format_word(report.stochastic.violation, a.alphabet))
    _emit("note", UNDECIDABILITY_NOTE)
    return EXIT_OK


def _cmd_residual(ns) -> int:
    a = _load(ns.file)
    word = parse_word(ns.word, a.alphabet)
    sys.stdout.write(serialize_automaton(residual_automaton(a, word)))
    return EXIT_OK


def _cmd_pda(ns) -> int:
    outcome = determinize_to_pda(_load(ns.file), ns.max_states)
    if outcome.bound_exceeded:
        _emit("bound_exceeded", "true")
        _emit("discovered", outcome.discovered_residuals)
        return EXIT_BOUND
    _emit("states", outcome.pda.n_states)
    sys.stdout.write(serialize_automaton(outcome.pda))
    return EXIT_OK


def _cmd_prefixial(ns) -> int:
    a = _load(ns.file)
    reduced = reduce(a, ReductionMode.CONE)
    verdict, witnesses = residual_witnesses(reduced)
    _emit("pra", _bool(verdict))
    if not verdict:
        return EXIT_NOT_PRA
    built = to_prefixial_pra(reduced, witnesses)
    sys.stdout.write(serialize_automaton(built))
    return EXIT_OK


def _cmd_synth_pa(ns) -> int:
    target = _load(ns.target)
    generators = [_load(path) for path in ns.generators]
    built = synthesize_pa(target, generators)
    _emit("feasible", _bool(built is not None))
    if built is None:
        return EXIT_INFEASIBLE
    sys.stdout.write(serialize_automaton(built))
    return EXIT_OK


def _cmd_minimal_gens(ns) -> int:
    a = _load(ns.file)
    words = minimal_residual_generators(a, ns.depth)
    _emit("conclusive", _bool(words is not None))
    if words is None:
        return EXIT_INCONCLUSIVE
    _emit("generators", " ".join(format_word(w, a.alphabet) for w in words))
    return EXIT_OK


def _cmd_hardness(ns) -> int:
    dfas = [parse_dfa(_read_text(path)) for path in ns.dfas]
    sys.stdout.write(serialize_automaton(pra_hardness_instance(dfas)))
    return EXIT_OK


def _cmd_fixture(ns) -> int:
    sys.stdout.write(serialize_automaton(fixtures.build(ns.name)))
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {_echo(value)}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones.

    Parsing does not change the parser, so one per process serves every
    ``main`` call; building it costs more than many decisions.
    """
    parser = argparse.ArgumentParser(
        prog="stochlang",
        description="Exact-rational multiplicity automata toolkit.",
        epilog="Words on the command line: letters concatenated (single-character "
               "alphabets) or dot-separated; '@' is the empty word. '-' reads a "
               "document from stdin.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        return p

    p = add("eval", _cmd_eval, "evaluate the series on a word")
    p.add_argument("file")
    p.add_argument("word")

    p = add("sum", _cmd_sum, "decide convergence of the series sum and print its value")
    p.add_argument("file")

    p = add("sums", _cmd_sums, "per-state series sums")
    p.add_argument("file")

    p = add("equiv", _cmd_equiv, "decide whether two automata generate the same series")
    p.add_argument("left")
    p.add_argument("right")

    p = add("combine", _cmd_combine,
            "express the target series as a linear combination of generator series")
    p.add_argument("target")
    p.add_argument("generators", nargs="+")
    p.add_argument("--nonneg", action="store_true",
                   help="require nonnegative coefficients")

    p = add("reduce", _cmd_reduce, "eliminate combination states")
    p.add_argument("file")
    p.add_argument("--mode", choices=("field", "cone"), default="field")

    p = add("rank", _cmd_rank, "rank of the series (minimal field presentation size)")
    p.add_argument("file")

    p = add("classify", _cmd_classify, "structural and stochasticity report")
    p.add_argument("file")
    p.add_argument("--max-len", type=_positive_int, default=8,
                   help="nonnegativity scan length (default 8)")

    p = add("residual", _cmd_residual, "automaton of the residual series at a word")
    p.add_argument("file")
    p.add_argument("word")

    p = add("pda", _cmd_pda, "determinize by residual exploration")
    p.add_argument("file")
    p.add_argument("--max-states", type=_positive_int, default=64)

    p = add("prefixial", _cmd_prefixial,
            "rebuild a PA over the prefix closure of its residual witnesses")
    p.add_argument("file")

    p = add("synth-pa", _cmd_synth_pa,
            "assemble a PA for the target series over generator series")
    p.add_argument("target")
    p.add_argument("generators", nargs="+")

    p = add("minimal-gens", _cmd_minimal_gens,
            "minimal stable residual generating set, searched to a depth")
    p.add_argument("file")
    p.add_argument("--depth", type=_positive_int, default=3)

    p = add("hardness", _cmd_hardness,
            "PA whose residual-automaton question encodes DFA union universality")
    p.add_argument("dfas", nargs="+")

    p = add("fixture", _cmd_fixture, "print a catalog automaton as a document")
    p.add_argument("name", choices=fixtures.FIXTURE_NAMES)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    limit = _get_int_digits()
    _set_int_digits(0)
    try:
        return ns.handler(ns)
    except (DocumentError, ValueError, ReductionStallError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    finally:
        _set_int_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
