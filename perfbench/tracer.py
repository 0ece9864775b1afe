"""Layer tracing from outside the package.

:func:`install` wraps the public functions of each stochlang layer module,
plus the class methods the layers lean on, and rebinds every name under which
another stochlang module imported them. Each call becomes a span (name,
start, end, parent span, decision id) held in memory; counters are kept at
the same boundaries. Self time is a span's duration minus the time covered
by its child spans. The package source is not touched.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("cli", "documents", "automata", "linalg", "analysis", "equivalence",
          "reduction", "classify", "constructions")

# Tiny vector helpers called millions of times; a span each would only
# measure the tracer.
SKIP = {"linalg": {"frac", "vector", "zero_vector", "unit_vector", "dot", "add_vectors",
                   "scale_vector", "linear_combination", "vec_mat", "mat_vec"},
        "automata": {"format_word", "parse_word", "length_lex_key", "words_up_to"},
        "documents": {"format_rational", "parse_rational"}}

METHODS = (("linalg", "SpanBasis", "add"),
           ("automata", "MultiplicityAutomaton", "to_linear_representation"))

EXPLORERS = {"constructions.determinize_to_pda", "constructions.minimal_residual_generators"}


def _bits(obj, depth: int = 0) -> int:
    """Largest numerator or denominator bit length inside a linalg result."""
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if depth > 3:
        return 0
    if hasattr(obj, "rows") and isinstance(getattr(obj, "rows"), tuple):
        obj = obj.rows
    elif hasattr(obj, "particular"):
        obj = (obj.particular, obj.nullspace)
    if isinstance(obj, (tuple, list)):
        return max((_bits(x, depth + 1) for x in obj), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, decision]
        self.stack: list[int] = []
        self.decision: str | None = None
        self.counters: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        observe = _OBSERVERS.get(name)
        linalg_result = name.startswith("linalg.")
        tracer = self

        def traced(*args, **kwargs):
            if name == "automata.MultiplicityAutomaton.to_linear_representation":
                counters["rep_cache_hits"] += args[0]._rep is not None
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.decision]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, span, args, kwargs, result)
            if linalg_result:
                bits = _bits(result)
                if bits > counters["max_bits"]:
                    counters["max_bits"] = bits
            return result

        return functools.wraps(fn)(traced)

    def install(self, package: str = "stochlang") -> list[str]:
        """Wrap every layer function and method; return the wrapped names."""
        modules = {m: sys.modules[f"{package}.{m}"] for m in LAYERS}
        every = [sys.modules[package]] + [mod for key, mod in sys.modules.items()
                                          if key.startswith(package + ".")]
        replace: dict[int, object] = {}
        names = []
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or attr in SKIP.get(layer, ())
                        or not callable(value) or isinstance(value, type)
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                replace[id(value)] = self._wrap(f"{layer}.{attr}", value)
                names.append(f"{layer}.{attr}")
        for mod in every:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
        for layer, cls, meth in METHODS:
            klass = getattr(modules[layer], cls)
            setattr(klass, meth, self._wrap(f"{layer}.{cls}.{meth}", getattr(klass, meth)))
            names.append(f"{layer}.{cls}.{meth}")
        return names

    # ------------------------------------------------------------ results

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def per_function(self, scale: dict | None = None) -> dict[str, dict]:
        """Calls, total and self seconds per wrapped name; ``scale`` maps a
        decision id to a factor applied to its spans' times."""
        scale = scale or {}
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            factor = scale.get(span[4], 1.0)
            entry = out[span[0]]
            entry["calls"] += 1
            entry["total_s"] += (span[2] - span[1]) * factor
            entry["self_s"] += own * factor
        return out

    def parent_name(self, span) -> str | None:
        return self.spans[span[3]][0] if span[3] >= 0 else None

    def write(self, path: str) -> None:
        """Write all spans once, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "decision"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------- counters

def _spectral(tracer, span, args, kwargs, result):
    c = tracer.counters
    c["spectral_max_n"] = max(c["spectral_max_n"], args[0].nrows)


def _lp(tracer, span, args, kwargs, result):
    c = tracer.counters
    n_vars = kwargs.get("n_vars", args[1] if len(args) > 1 else None)
    if n_vars is None:
        n_vars = len(args[0][0].coeffs) if args[0] else 0
    c["lp_max_vars"] = max(c["lp_max_vars"], n_vars)
    c["lp_feasible"] += result is not None


def _rref(tracer, span, args, kwargs, result):
    c = tracer.counters
    c["rref_max_cells"] = max(c["rref_max_cells"], args[0].nrows * args[0].ncols)


def _span_add(tracer, span, args, kwargs, result):
    tracer.counters["span_accepted"] += bool(result)


def _equivalent(tracer, span, args, kwargs, result):
    c = tracer.counters
    c["equivalent_equal"] += result.equal
    parent = tracer.parent_name(span)
    if parent == "equivalence.express_combination":
        c["cex_rounds"] += 1
    elif parent in EXPLORERS:
        c["explore_checks"] += 1
        c["explore_matches"] += result.equal


def _determinize(tracer, span, args, kwargs, result):
    tracer.counters["residuals_discovered"] += result.discovered_residuals


_OBSERVERS = {
    "linalg.spectral_radius_lt_one": _spectral,
    "linalg.lp_feasible": _lp,
    "linalg.rref": _rref,
    "linalg.SpanBasis.add": _span_add,
    "equivalence.are_equivalent": _equivalent,
    "constructions.determinize_to_pda": _determinize,
}
