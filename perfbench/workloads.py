"""The four workloads: seeded, fixed sets of CLI decisions with their oracles.

A decision is one ``stochlang`` subcommand on documents written during
set-up. Its record carries the input properties later analyses group by:
states, letters, nonzero transitions, largest bit length, convergent or
divergent by construction, and shared or disjoint generator structure.
Sizes stop where one pass over a set takes a few seconds at the seed
commit; BENCHMARK.json lists the rows left out and why.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import generators as G
import oracles as O
from model import (F, distinct_residuals, format_word, prefix_mass,
                   series_rank, state_sums)

WORKLOADS = ("sum-ladder", "equiv-rank", "residual-explore", "cone-lp")
# Nominal seconds per pass at reference speed (see speed.py) at the seed
# commit; a run makes --seconds / PASS_SECONDS passes.
PASS_SECONDS = {"sum-ladder": 10, "equiv-rank": 10, "residual-explore": 5, "cone-lp": 10}
SUBCOMMANDS = ("sum", "sums", "equiv", "rank", "reduce", "residual", "pda", "combine",
               "classify", "prefixial", "minimal-gens", "hardness")


@dataclass
class Decision:
    id: str
    argv: list
    props: dict
    check: Callable[[int, str], "str | None"]
    known_defect: str | None = None
    latencies: list = field(default_factory=list)   # per pass, at reference speed
    raw: list = field(default_factory=list)         # per pass, wall seconds
    outcomes: list = field(default_factory=list)    # per pass, None or the failure

    @property
    def sub(self) -> str:
        return self.argv[0]


def deferred(make_check):
    """Build an oracle on first use, so its exact expectations cost neither
    set-up time nor timed time."""
    box = []

    def check(code, out):
        if not box:
            box.append(make_check())
        return box[0](code, out)
    return check


class Builder:
    """Collects decisions and writes their documents.

    ``rng`` is the workload-seeded stream for weights; ``shape(tag)`` gives
    the fixed, seed-independent stream for the support of one instance.
    """

    def __init__(self, workload: str, seed: int, docdir: str):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.docdir = docdir
        self.decisions: list[Decision] = []

    def shape(self, tag: str) -> random.Random:
        return random.Random(f"{self.workload}/{tag}")

    def doc(self, name: str, auto_or_text) -> str:
        path = os.path.join(self.docdir, name + ".json")
        text = auto_or_text if isinstance(auto_or_text, str) else auto_or_text.to_doc()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def add(self, ident, argv, props, check, known_defect=None):
        self.decisions.append(Decision(ident, list(argv), props, check, known_defect))


# ---------------------------------------------------------------- sum-ladder

# Sizes per input family; a repeated size is another instance. The ladder
# has two plateaus of instances, at n=7 and n=10, where the median and the
# tail sample fall, so neither lands in a gap between two single decisions.
SUM_SIZES = {"sum/pa": (4, 4, 5, 5, 6, 6, 6) + (7,) * 8 + (8, 8) + (10,) * 6 + (12,),
             "sums/pa": (4, 5, 6), "basis": (4, 5, 6, 7, 8), "sums/basis": (4, 5),
             "planted": (4, 6, 8), "hidden": (4, 6, 8), "sums/hidden": (4,)}


def sum_ladder(b: Builder, cli_main) -> None:
    rng = b.rng

    def instances(family):
        for i, n in enumerate(SUM_SIZES[family]):
            tag = f"n{n}.{i}"
            yield tag, n, G.ring_pa(rng, b.shape(f"{family}/{tag}"), n)

    for tag, n, a in instances("sum/pa"):
        b.add(f"sum/pa/{tag}", ["sum", b.doc(f"pa-{tag}", a)],
              a.props(n=n, convergent=True), O.sum_value(F(1)))
    for tag, n, a in instances("sums/pa"):
        b.add(f"sums/pa/{tag}", ["sums", b.doc(f"spa-{tag}", a)],
              a.props(n=n, convergent=True), O.state_sum_vector(a.states, [F(1)] * n))
    for family, sub in (("basis", "sum"), ("sums/basis", "sums")):
        for tag, n, a in instances(family):
            c, p = G.change_of_basis(rng, b.shape(f"{family}/{tag}/basis"), a)
            check = (O.sum_value(F(1)) if sub == "sum" else
                     O.state_sum_vector(c.states, [sum(row, F(0)) for row in p]))
            b.add(f"{sub}/basis/{tag}", [sub, b.doc(f"{sub}-basis-{tag}", c)],
                  c.props(n=n, convergent=True), check)
    for tag, n, a in instances("planted"):
        d = G.planted_divergence(b.shape(f"planted/{tag}/loop"), a)
        path = b.doc(f"planted-{tag}", d)
        b.add(f"sum/planted/{tag}", ["sum", path], d.props(n=n, convergent=False),
              O.divergent("converges"))
        b.add(f"sums/planted/{tag}", ["sums", path], d.props(n=n, convergent=False),
              O.divergent("convergent"))
    for family, sub in (("hidden", "sum"), ("sums/hidden", "sums")):
        for tag, n, a in instances(family):
            h = G.hidden_divergence(b.shape(f"{family}/{tag}/block"), a)
            check = O.sum_value(F(1)) if sub == "sum" else O.divergent("convergent")
            b.add(f"{sub}/hidden/{tag}", [sub, b.doc(f"{sub}-hidden-{tag}", h)],
                  h.props(n=n, convergent=sub == "sum"), check)


# ---------------------------------------------------------------- equiv-rank

# Plateaus: equiv at n=12/16 (around the median), rank of 32-state copies (tail).
EQUIV_SIZES = {"equiv": (8, 8, 12, 12, 12, 16, 16, 16, 16, 20, 24),
               "rank": (8, 12) + (16,) * 8 + (20, 24), "reduce": (3, 4, 5, 6)}


def equiv_rank(b: Builder, cli_main) -> None:
    rng = b.rng
    for i, n in enumerate(EQUIV_SIZES["equiv"]):
        tag = f"n{n}.{i}"
        a = G.ring_pa(rng, b.shape(f"equiv/{tag}"), n)
        s = G.split_copy(rng, a)
        d = G.nudged(a, a.states[n // 2])
        pa = b.doc(f"pa-{tag}", a)
        b.add(f"equiv/split/{tag}", ["equiv", pa, b.doc(f"split-{tag}", s)],
              s.props(n=n, other_states=a.n, equal=True), O.equal())
        b.add(f"equiv/nudged/{tag}", ["equiv", pa, b.doc(f"nudged-{tag}", d)],
              d.props(n=n, other_states=a.n, equal=False), O.distinct(a, d))
    for i, n in enumerate(EQUIV_SIZES["rank"]):
        a = G.ring_pa(rng, b.shape(f"rank/n{n}.{i}"), n)
        s = G.split_copy(rng, a)
        b.add(f"rank/split/n{n}.{i}", ["rank", b.doc(f"rank-n{n}.{i}", s)], s.props(n=n),
              deferred(lambda a=a: O.rank_value(series_rank(a))))
    for n in EQUIV_SIZES["reduce"]:
        a = G.ring_pa(rng, b.shape(f"reduce/n{n}"), n)
        s = G.split_copy(rng, a)
        split = b.doc(f"rsplit{n}", s)
        b.add(f"rank/split/n{n}", ["rank", split], s.props(n=n),
              deferred(lambda a=a: O.rank_value(series_rank(a))))
        b.add(f"reduce-field/split/n{n}", ["reduce", split, "--mode", "field"], s.props(n=n),
              deferred(lambda a=a, s=s: O.reduced(s, series_rank(a), cone=False)))


# ---------------------------------------------------------------- residual-explore

def _bounded_pda(a, max_states):
    found = distinct_residuals(a, state_sums(a), limit=max_states + 1)
    if len(found) > max_states:
        return O.bound_exceeded(max_states)
    return O.pda(a, len(found))


def _minimal_gens(a, depth):
    sums = state_sums(a)
    found = distinct_residuals(a, sums, depth=depth)
    if len(found) < len(distinct_residuals(a, sums)):
        return O.minimal_gens(None)
    return O.minimal_gens([format_word(w, a.alphabet) for w, _ in found])


def residual_explore(b: Builder, cli_main) -> None:
    rng = b.rng
    for i, n in enumerate((2, 2, 3, 3)):
        d = G.deterministic_pa(rng, b.shape(f"pda/n{n}.{i}"), n)
        s = G.split_copy(rng, d)
        path = b.doc(f"dsplit{i}", s)
        b.add(f"pda/split-det/n{n}.{i}", ["pda", path, "--max-states", "16"],
              s.props(n=n, convergent=True),
              deferred(lambda s=s: _bounded_pda(s, 16)))
    for name, a, bounds in (("example1_p", G.example1_p(), (2, 3)),
                            ("fig5", G.fig5(), (3, 4))):
        path = b.doc(name, a)
        for m in bounds:
            b.add(f"pda/{name}/max{m}", ["pda", path, "--max-states", str(m)],
                  a.props(convergent=True), O.bound_exceeded(m))
    for n in (3, 4):
        a = G.ring_pa(rng, b.shape(f"pda-ring/n{n}"), n)
        path = b.doc(f"ring{n}", a)
        for m in (2, 3):
            b.add(f"pda/ring/n{n}/max{m}", ["pda", path, "--max-states", str(m)],
                  a.props(n=n, convergent=True), deferred(lambda a=a, m=m: _bounded_pda(a, m)))
    for n in (4, 5, 6):
        shape = b.shape(f"residual/n{n}")
        a = G.ring_pa(rng, shape, n)
        path = b.doc(f"res{n}", a)
        for length in (1, 2, 3):
            word = G.support_word(shape, a, length)
            b.add(f"residual/ring/n{n}/len{length}",
                  ["residual", path, format_word(word, a.alphabet)],
                  a.props(n=n, word_length=length, convergent=True),
                  deferred(lambda a=a, w=word: O.residual(
                      a, w, prefix_mass(a, w, state_sums(a)))))
    for n in (3, 4):
        d = G.deterministic_pa(rng, b.shape(f"minimal-gens/n{n}"), n)
        path = b.doc(f"det{n}", d)
        for depth in (2, 3):
            b.add(f"minimal-gens/det/n{n}/depth{depth}",
                  ["minimal-gens", path, "--depth", str(depth)],
                  d.props(n=n, depth=depth, convergent=True),
                  deferred(lambda d=d, k=depth: _minimal_gens(d, k)))
    cx, mass = G.divergent_pair_counterexample()
    path = b.doc("divergent-pair", cx)
    b.add("residual/divergent-pair", ["residual", path, "a"],
          cx.props(convergent=True, state_sums="divergent"), O.residual(cx, ("a",), mass),
          known_defect="residual requires every state sum to converge (ROADMAP item 6)")


# ---------------------------------------------------------------- cone-lp

def cone_lp(b: Builder, cli_main) -> None:
    rng = b.rng
    for i, k in enumerate((8, 8, 8, 8, 8)):
        shape = b.shape(f"combine/k{k}.{i}")
        gens = [G.random_pa(rng, shape, 2) for _ in range(k)]
        raw = [rng.randint(1, 5) for _ in range(k)]
        coeffs = [F(c, sum(raw)) for c in raw]
        bad = list(coeffs)
        bad[shape.randrange(k)] *= -1
        paths = [b.doc(f"gen{i}.{j}", g) for j, g in enumerate(gens)]
        target = G.mixture(gens, coeffs)
        props = dict(generators=k, structure="disjoint",
                     states=target.n, letters=2, transitions=len(target.trans),
                     max_bits=max(target.max_bits(), *(g.max_bits() for g in gens)))
        b.add(f"combine/feasible/k{k}.{i}",
              ["combine", "--nonneg", b.doc(f"mix{i}", target)] + paths,
              dict(props, feasible=True),
              deferred(lambda t=target, g=gens: O.combination(t, g, G.AB)))
        b.add(f"combine/infeasible/k{k}.{i}",
              ["combine", "--nonneg", b.doc(f"bad{i}", G.mixture(gens, bad))] + paths,
              dict(props, feasible=False), O.infeasible())
    for n in (3, 4, 5, 6):
        shape = b.shape(f"reduce-cone/n{n}")
        a, _ = G.convex_state(rng, shape, G.ring_pa(rng, shape, n))
        b.add(f"reduce-cone/convex/n{n}", ["reduce", b.doc(f"convex{n}", a), "--mode", "cone"],
              a.props(n=n, structure="shared", convergent=True),
              deferred(lambda a=a, n=n: O.reduced(a, n, cone=True)))
    # Two k=2 families (counting a, counting b) put the workload's median
    # inside the cluster of k=2 classify decisions.
    for k, letter in ((2, "a"), (2, "b"), (3, "a")):
        for universal in (True, False):
            residues = list(range(k)) if universal else list(range(k - 1)) + [0]
            dfas = [G.mod_counter(k, r, letter) for r in residues]
            if G.union_universal(dfas) is not universal:
                raise RuntimeError(f"mod-{k} counters: universality is not as constructed")
            tag = f"k{k}{letter}/{'universal' if universal else 'gap'}"
            paths = [b.doc(f"dfa-{k}{letter}-{universal}-{j}", json.dumps(d))
                     for j, d in enumerate(dfas)]
            states = k * k + 4
            b.add(f"hardness/{tag}", ["hardness"] + paths,
                  dict(k=k, dfas=k, universal=universal, states=states),
                  O.hardness(states))
            buf = io.StringIO()
            with redirect_stdout(buf):
                cli_main(["hardness"] + paths)
            instance = b.doc(f"hardness-{k}{letter}-{universal}", buf.getvalue())
            props = dict(k=k, universal=universal, states=states, structure="shared")
            b.add(f"classify/{tag}", ["classify", instance], props,
                  O.classify_pa(not universal, 8))
            if universal:
                b.add(f"prefixial/{tag}", ["prefixial", instance], props, O.not_pra())
    for n in (3, 4):
        d = G.deterministic_pa(rng, b.shape(f"classify/n{n}"), n)
        path = b.doc(f"det{n}", d)
        b.add(f"classify/det/n{n}", ["classify", path], d.props(n=n), O.classify_pa(True, 8))
        b.add(f"prefixial/det/n{n}", ["prefixial", path], d.props(n=n), O.prefixial(d))


BUILDERS = {"sum-ladder": sum_ladder, "equiv-rank": equiv_rank,
            "residual-explore": residual_explore, "cone-lp": cone_lp}


def build(workload: str, seed: int, docdir: str, cli_main) -> list[Decision]:
    """Generate the workload's inputs from ``seed``, write its documents, list its decisions."""
    b = Builder(workload, seed, docdir)
    BUILDERS[workload](b, cli_main)
    return b.decisions
