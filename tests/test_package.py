import importlib
import json
from pathlib import Path

import stochlang
from stochlang import automata, equivalence, linalg
from stochlang.linalg import Matrix

BENCHMARK = Path(__file__).parent.parent / "BENCHMARK.json"


def test_every_exported_name_resolves_once():
    assert len(set(stochlang.__all__)) == len(stochlang.__all__)
    namespace = {}
    exec("from stochlang import *", namespace)
    for name in stochlang.__all__:
        assert namespace[name] is getattr(stochlang, name)


def test_helpers_without_a_library_caller_are_not_exported():
    # no library code calls them; tests/helpers.py keeps them for the tests
    assert "membership_in_span" not in stochlang.__all__
    for owner, name in [(stochlang, "membership_in_span"), (linalg, "membership_in_span"),
                        (Matrix, "diagonal"), (Matrix, "from_columns"),
                        (linalg, "determinant"), (linalg, "_primitive_with_factor"),
                        (linalg, "unit_vector"), (linalg, "zero_vector"),
                        (automata, "letter_shift_automaton"), (equivalence, "_blocks")]:
        assert not hasattr(owner, name), name


def test_every_traced_function_of_the_benchmark_resolves():
    # the traced benchmark pass wraps each function or method that a
    # per-layer .calls, .self_s or .total_s row names, and fails when one is gone
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = {row["name"].rsplit(".", 1)[0] for row in spec["per_layer"]
             if row["name"].endswith((".calls", ".self_s", ".total_s"))}
    assert "linalg.invert" in names
    assert "automata.MultiplicityAutomaton.to_linear_representation" in names
    for name in sorted(names):
        layer, *path = name.split(".")
        value = importlib.import_module(f"stochlang.{layer}")
        for attr in path:
            assert hasattr(value, attr), name
            value = getattr(value, attr)
        assert callable(value) and not isinstance(value, type), name
