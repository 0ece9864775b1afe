"""Exact-decision benchmark for stochlang: one workload, one closed-loop client.

Usage, from the root of a checkout that holds ``src/stochlang``:

    python3 perfbench/run.py --workload sum-ladder --seed 1 --seconds 20 --trace 0

Set-up generates the seeded inputs, writes them as documents and imports
the package (repeated, median reported). Each decision is one subcommand run
in-process through ``stochlang.cli.main(argv)`` with stdout captured, under
a hard per-decision time limit; its output is checked by an oracle outside
the timed region. A run makes ``--seconds / PASS_SECONDS`` whole passes over
the decision set: the count is fixed per workload, so every run has the
same number of latency samples. Times are reported at reference speed (see
``speed.py``); raw wall times are kept in the records.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` makes one
untraced pass and one traced pass, and reports the per-layer metrics. The
metric names and units come from BENCHMARK.json. The last stdout line is the
JSON result; per-decision records (sizes, latencies, outcomes) and the trace
spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import workloads
from speed import SpeedProbe
from tracer import Tracer

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 11
DECISION_LIMIT_S = 10.0
RUN_BUDGET_S = 150.0
TAIL_BEYOND = 10


class DecisionTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no library handler swallows it."""


def _alarm(signum, frame):
    raise DecisionTimeout()


# ---------------------------------------------------------------- set-up

def _import_cli():
    for name in [m for m in sys.modules if m == "stochlang" or m.startswith("stochlang.")]:
        del sys.modules[name]
    return importlib.import_module("stochlang.cli")


def setup(workload: str, seed: int, speed: SpeedProbe):
    """Import the package and build the workload SETUP_REPEATS times; keep the last.

    Returns the CLI module, the decisions, their document directory and the
    set-up times at reference speed.
    """
    times, docdir = [], None
    for _ in range(SETUP_REPEATS):
        if docdir is not None:
            shutil.rmtree(docdir)
        mark = speed.probe()
        start = time.perf_counter()
        cli = _import_cli()
        docdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
        decisions = workloads.build(workload, seed, docdir, cli.main)
        times.append((time.perf_counter() - start, mark))
    speed.probe()
    return cli, decisions, docdir, [t * speed.scale(mark) for t, mark in times]


# ---------------------------------------------------------------- decisions

def execute(cli, decision) -> tuple:
    """Run one decision; return (exit code, stdout, wall seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, DECISION_LIMIT_S)
            try:
                code = cli.main(decision.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DecisionTimeout:
            error = f"timed out after {DECISION_LIMIT_S:g} s"
        except Exception as exc:  # every failure of the program counts, whatever its type
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, error


def judge(decision, code, out, error) -> str | None:
    if error is not None:
        return error
    try:
        return decision.check(code, out)
    except Exception as exc:
        return f"oracle could not read the output ({type(exc).__name__}: {exc})"


def run_pass(cli, decisions, deadline, speed: SpeedProbe, tracer=None) -> float:
    """One pass over the set; returns the summed decision time at reference speed."""
    marks = []
    for d in decisions:
        if time.monotonic() > deadline:
            marks.append(None)
            d.raw.append(None)
            d.outcomes.append("run budget exhausted")
            continue
        if tracer is not None:
            tracer.decision = d.id
        marks.append(speed.probe())
        code, out, elapsed, error = execute(cli, d)
        d.raw.append(elapsed)
        d.outcomes.append(judge(d, code, out, error))
    speed.probe()
    total = 0.0
    for d, mark in zip(decisions, marks):
        d.latencies.append(None if mark is None else d.raw[-1] * speed.scale(mark))
        total += d.latencies[-1] or 0.0
    return total


# ---------------------------------------------------------------- metrics

def _samples(decisions, passes=slice(None)) -> list[float]:
    """Latency of every execution of a counted decision; a lost one reads as the limit."""
    return [DECISION_LIMIT_S if x is None else x
            for d in decisions if d.known_defect is None for x in d.latencies[passes]]


def _failed(decisions) -> tuple[int, int]:
    """(attempted, failed) over the decisions that are not listed known defects."""
    counted = [d for d in decisions if d.known_defect is None]
    return (sum(len(d.outcomes) for d in counted),
            sum(1 for d in counted for o in d.outcomes if o is not None))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def end_to_end(decisions, busy_s, setup_times) -> tuple[dict, dict]:
    samples = sorted(_samples(decisions))
    n = len(samples)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    completed = sum(1 for d in decisions if d.known_defect is None
                    for x in d.latencies if x is not None)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "decisions_per_s": completed / busy_s,
        "latency_p50_ms": 1000 * statistics.median(samples),
        "latency_tail_ms": 1000 * samples[tail_index],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"latency_samples": n, "tail_percentile": round(100 * (tail_index + 1) / n, 1)}
    return metrics, notes


def per_subcommand(decisions, passes=slice(None)) -> dict:
    by_sub: dict[str, list] = {}
    for d in decisions:
        by_sub.setdefault(d.sub, []).extend(_samples([d], passes))
    return {f"{sub.replace('-', '_')}_ms": 1000 * statistics.median(v)
            for sub, v in by_sub.items() if v}


def per_layer(tracer: Tracer, wrapped, decisions, untraced_s, traced_s) -> dict:
    """Per-layer metrics of the traced pass (the second), span times at reference speed."""
    scale = {d.id: d.latencies[1] / d.raw[1] for d in decisions if d.raw[1]}
    funcs = tracer.per_function(scale)
    c = tracer.counters
    attempted, failed = _failed(decisions)
    out = {}
    for name in wrapped:
        for stat, value in funcs.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).items():
            out[f"{name}.{stat}"] = value

    def calls(name):
        return funcs[name]["calls"] if name in funcs else 0

    sums = [d for d in decisions if d.sub == "sum"]
    top = max((d.props.get("n", 0) for d in sums), default=None)
    top_ids = {d.id for d in sums if d.props.get("n") == top}
    spectral = main = 0.0
    for name, start, end, _, decision in tracer.spans:
        if decision in top_ids:
            if name == "linalg.spectral_radius_lt_one":
                spectral += end - start
            elif name == "cli.main":
                main += end - start
    out.update({
        "linalg.spectral_radius_lt_one.max_n": c["spectral_max_n"],
        "linalg.spectral_radius_lt_one.share_of_sum_at_max_n": _ratio(spectral, main),
        "linalg.lp_feasible.max_vars": c["lp_max_vars"],
        "linalg.lp_feasible.feasible_ratio": _ratio(c["lp_feasible"],
                                                    calls("linalg.lp_feasible")),
        "linalg.rref.max_cells": c["rref_max_cells"],
        "linalg.SpanBasis.add.accept_ratio": _ratio(c["span_accepted"],
                                                    calls("linalg.SpanBasis.add")),
        "linalg.max_bits": c["max_bits"],
        "analysis.state_sums_per_residual": _ratio(calls("analysis.state_sums"),
                                                   calls("analysis.residual_automaton")),
        "equivalence.are_equivalent.equal_ratio": _ratio(c["equivalent_equal"],
                                                         calls("equivalence.are_equivalent")),
        "equivalence.cex_rounds": _ratio(c["cex_rounds"],
                                         calls("equivalence.express_combination")),
        "constructions.residual_match_ratio": _ratio(c["explore_matches"],
                                                     c["explore_checks"]),
        "constructions.residuals_discovered": c["residuals_discovered"],
        "automata.rep_cache_hit_ratio": _ratio(
            c["rep_cache_hits"],
            calls("automata.MultiplicityAutomaton.to_linear_representation")),
        "trace.overhead_ratio": _ratio(traced_s, untraced_s),
        "trace.spans": len(tracer.spans),
        "known_defects.failed": sum(1 for d in decisions if d.known_defect
                                    for o in d.outcomes if o is not None),
        "failed_fraction": _ratio(failed, attempted),
    })
    out.update({f"{sub.replace('-', '_')}_ms": 0.0 for sub in workloads.SUBCOMMANDS})
    out.update(per_subcommand(decisions, slice(0, 1)))
    return out


def per_decision_layers(tracer: Tracer) -> dict:
    """Inclusive wall seconds per decision and wrapped function, for size-by-size tables."""
    out: dict = {}
    for name, start, end, _, decision in tracer.spans:
        entry = out.setdefault(decision, {})
        entry[name] = entry.get(name, 0.0) + end - start
    return out


def select(values: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json names, with their units."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics this run does not produce: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stochlang", "cli.py")):
        print("error: run from the root of a checkout holding src/stochlang", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    deadline = time.monotonic() + RUN_BUDGET_S
    speed = SpeedProbe()

    cli, decisions, docdir, setup_times = setup(args.workload, args.seed, speed)
    try:
        if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src")):
            print(f"error: imported stochlang from {cli.__file__}", file=sys.stderr)
            return 2
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "decision_limit_s": DECISION_LIMIT_S, "setup_s": setup_times}
        if args.trace:
            untraced_s = run_pass(cli, decisions, deadline, speed)
            tracer = Tracer()
            wrapped = tracer.install()
            traced_s = run_pass(cli, decisions, deadline, speed, tracer)
            values = per_layer(tracer, wrapped, decisions, untraced_s, traced_s)
            record.update(wrapped=wrapped, per_decision_layers=per_decision_layers(tracer))
            wanted = spec["per_layer"]
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
            busy_s = untraced_s + traced_s
        else:
            passes = max(1, round(args.seconds / workloads.PASS_SECONDS[args.workload]))
            busy_s = sum(run_pass(cli, decisions, deadline, speed) for _ in range(passes))
            values, notes = end_to_end(decisions, busy_s, setup_times)
            record.update(notes, per_subcommand=per_subcommand(decisions))
            wanted = spec["end_to_end"]
        attempted, failed = _failed(decisions)
        record.update(
            passes=len(decisions[0].outcomes), busy_s=busy_s, attempted=attempted,
            failed=failed, failed_fraction=failed / attempted, metrics=values,
            probe_ms=[1000 * t for t in speed.times],
            decisions=[{"id": d.id, "sub": d.sub, "props": d.props,
                        "known_defect": d.known_defect,
                        "latencies_ms": [None if x is None else 1000 * x for x in d.latencies],
                        "wall_ms": [None if x is None else 1000 * x for x in d.raw],
                        "failures": [o for o in d.outcomes if o is not None]}
                       for d in decisions])
        with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                        f"-trace{args.trace}.json"), "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        for d in decisions:
            for o in d.outcomes:
                if o is not None:
                    label = "known defect" if d.known_defect else "FAILED"
                    print(f"{label}: {d.id}: {o}", file=sys.stderr)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": select(values, wanted)}))
    finally:
        shutil.rmtree(docdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
