import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from stochlang import (MultiplicityAutomaton, are_equivalent, classify, cli, fixtures,
                       parse_automaton, parse_word, serialize_automaton)
from stochlang.automata import merge_alphabets
from stochlang.cli import main

F = Fraction

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def keyvals(out):
    pairs = {}
    for line in out.splitlines():
        if line.startswith(("{", "  ", "]", "}")) or not line.strip():
            break
        key, _, value = line.partition(": ")
        pairs[key] = value
    return pairs


def document_part(out):
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("{"))
    return "\n".join(lines[start:]) + "\n"


@pytest.fixture
def fixture_file():
    def _path(name):
        return str(DATA / f"{name}.json")
    return _path


class TestEval:
    def test_value(self, capsys, fixture_file):
        code, out = run_cli(capsys, "eval", fixture_file("fig2_A"), "ba")
        assert code == 0
        assert keyvals(out)["value"] == "1/4"

    def test_empty_word(self, capsys, fixture_file):
        code, out = run_cli(capsys, "eval", fixture_file("fig3_App"), "@")
        assert code == 0
        assert keyvals(out)["value"] == "1/4"

    def test_bad_letter(self, capsys, fixture_file):
        code, _ = run_cli(capsys, "eval", fixture_file("fig2_A"), "xyz")
        assert code == 3


class TestSum:
    def test_fig3(self, capsys, fixture_file):
        code, out = run_cli(capsys, "sum", fixture_file("fig3_App"))
        assert code == 0
        assert keyvals(out) == {"converges": "true", "value": "1"}

    def test_divergent(self, capsys, tmp_path):
        doc = {"alphabet": ["a"], "states": ["q0"], "initial": {"q0": "1"},
               "final": {"q0": "1"}, "transitions": [["q0", "a", "q0", "1"]]}
        path = tmp_path / "div.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "sum", str(path))
        assert code == 13
        assert keyvals(out)["converges"] == "false"


class TestSums:
    def test_fig2(self, capsys, fixture_file):
        code, out = run_cli(capsys, "sums", fixture_file("fig2_A"))
        assert code == 0
        pairs = keyvals(out)
        assert pairs["sum.q0"] == "1" and pairs["sum.q1"] == "1"

    def test_divergent(self, capsys, tmp_path):
        doc = {"alphabet": ["a"], "states": ["q0"], "initial": {"q0": "1"},
               "final": {"q0": "1"}, "transitions": [["q0", "a", "q0", "1"]]}
        path = tmp_path / "div.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "sums", str(path))
        assert code == 13
        assert keyvals(out)["convergent"] == "false"


class TestEquiv:
    def test_distinct(self, capsys, fixture_file):
        code, out = run_cli(capsys, "equiv", fixture_file("fig3_App"),
                            fixture_file("fig5"))
        assert code == 10
        pairs = keyvals(out)
        assert pairs == {"equal": "false", "witness": "@",
                         "left": "1/4", "right": "1/2"}

    def test_equal(self, capsys, fixture_file):
        code, out = run_cli(capsys, "equiv", fixture_file("fig2_A"),
                            fixture_file("fig2_A"))
        assert code == 0
        assert keyvals(out)["equal"] == "true"

    def test_witness_is_spelled_over_the_merged_alphabet(self, capsys, tmp_path):
        # the right automaton reaches its final state again through a.bc, a
        # word the left one gives 0; bare letters would spell it "abc"
        left = MultiplicityAutomaton(("a",), ("p",), {"p": 1}, {"p": 1}, {})
        right = MultiplicityAutomaton(
            ("a", "bc"), ("p", "q"), {"p": 1}, {"p": 1},
            {("p", "a", "q"): 1, ("q", "bc", "p"): 1})
        paths = []
        for name, a in (("left", left), ("right", right)):
            path = tmp_path / f"{name}.json"
            path.write_text(serialize_automaton(a))
            paths.append(str(path))
        merged = merge_alphabets(left.alphabet, right.alphabet)
        for first, second in ((0, 1), (1, 0)):
            a, b = (left, right)[first], (left, right)[second]
            code, out = run_cli(capsys, "equiv", paths[first], paths[second])
            assert code == 10
            pairs = keyvals(out)
            assert pairs["witness"] == "a.bc"
            witness = are_equivalent(a, b).witness
            assert witness == ("a", "bc")
            assert parse_word(pairs["witness"], merged) == witness


class TestCombine:
    def test_nonneg(self, capsys, fixture_file, tmp_path):
        from stochlang import residual_automaton, serialize_automaton
        res = residual_automaton(fixtures.build("example1_p"), ("a",))
        path = tmp_path / "res.json"
        path.write_text(serialize_automaton(res))
        code, out = run_cli(capsys, "combine", str(path),
                            fixture_file("example1_p1"),
                            fixture_file("example1_p2"), "--nonneg")
        assert code == 0
        pairs = keyvals(out)
        assert pairs["expressible"] == "true"
        assert pairs["coeff.1"] == "2/3" and pairs["coeff.2"] == "1/3"

    def test_infeasible(self, capsys, fixture_file):
        code, out = run_cli(capsys, "combine", fixture_file("example1_p1"),
                            fixture_file("example1_p2"))
        assert code == 11
        assert keyvals(out)["expressible"] == "false"


class TestReduceRank:
    def test_reduce_and_rank(self, capsys, fixture_file, tmp_path):
        from stochlang import serialize_automaton, weighted_sum
        app = fixtures.build("fig3_App")
        doubled = weighted_sum([app, app], (F(1, 2), F(1, 2)))
        path = tmp_path / "doubled.json"
        path.write_text(serialize_automaton(doubled))
        code, out = run_cli(capsys, "reduce", str(path), "--mode", "field")
        assert code == 0
        assert keyvals(out)["states"] == "2"
        reduced = parse_automaton(document_part(out))
        assert are_equivalent(reduced, app).equal

        code, out = run_cli(capsys, "rank", str(path))
        assert code == 0
        assert keyvals(out)["rank"] == "2"

    def test_cone_mode_preserves_pa(self, capsys, fixture_file, tmp_path):
        from stochlang import is_pa, serialize_automaton, weighted_sum
        f5 = fixtures.build("fig5")
        doubled = weighted_sum([f5, f5], (F(1, 2), F(1, 2)))
        path = tmp_path / "doubled.json"
        path.write_text(serialize_automaton(doubled))
        code, out = run_cli(capsys, "reduce", str(path), "--mode", "cone")
        assert code == 0
        reduced = parse_automaton(document_part(out))
        assert is_pa(reduced)
        assert are_equivalent(reduced, f5).equal


class TestClassify:
    def test_fig2(self, capsys, fixture_file):
        code, out = run_cli(capsys, "classify", fixture_file("fig2_A"))
        assert code == 0
        pairs = keyvals(out)
        assert pairs["pa"] == "true" and pairs["pda"] == "true"
        assert pairs["pra"] == "true"
        assert pairs["witness.q0"] == "@" and pairs["witness.q1"] == "a"
        assert pairs["sum_is_one"] == "true"
        assert "note" in pairs

    def test_max_len_flag(self, capsys, fixture_file):
        code, out = run_cli(capsys, "classify", fixture_file("prop10_t"),
                            "--max-len", "4")
        assert code == 0
        assert keyvals(out)["nonneg_checked_length"] == "4"


class TestResidual:
    def test_document_output(self, capsys, fixture_file):
        code, out = run_cli(capsys, "residual", fixture_file("example1_p"), "a")
        assert code == 0
        res = parse_automaton(document_part(out))
        expected = (2 * F(1, 4) + F(3, 16)) / 3
        assert res.evaluate(("a",)) == expected

    def test_zero_prefix_weight_is_spelled_as_read(self, capsys, tmp_path):
        # the word is read with dots over letters of two characters, and the
        # error spells it back the same way
        doc = {"alphabet": ["x1", "x2"], "states": ["q0", "q1"], "initial": {"q0": "1"},
               "final": {"q0": "1/2", "q1": "1"}, "transitions": [["q0", "x1", "q1", "1/2"]]}
        path = tmp_path / "letters.json"
        path.write_text(json.dumps(doc))
        assert main(["residual", str(path), "x1.x2"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: prefix weight of x1.x2 is zero\n")


@pytest.mark.parametrize("command", ["eval", "residual"])
def test_long_unknown_letter_is_echoed_as_a_prefix(capsys, tmp_path, command):
    # over letters of two characters a word without dots is one letter
    doc = {"alphabet": ["x1", "x2"], "states": ["q0"], "initial": {"q0": "1"},
           "final": {"q0": "1/2"}, "transitions": [["q0", "x1", "q0", "1/2"]]}
    path = tmp_path / "letters.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path), "y" * 5000]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: letter {'y' * 40!r}... (5000 characters) "
                            "is not in the alphabet\n")
    assert main([command, str(path), "x1.yy"]) == 3
    assert capsys.readouterr().err == "error: letter 'yy' is not in the alphabet\n"


class TestPda:
    def test_fig2(self, capsys, fixture_file):
        code, out = run_cli(capsys, "pda", fixture_file("fig2_A"), "--max-states", "8")
        assert code == 0
        assert keyvals(out)["states"] == "2"
        built = parse_automaton(document_part(out))
        report = classify(built)
        assert report.pda
        assert are_equivalent(built, fixtures.build("fig2_A")).equal

    def test_bound_exceeded(self, capsys, fixture_file):
        code, out = run_cli(capsys, "pda", fixture_file("example1_p"),
                            "--max-states", "8")
        assert code == 12
        pairs = keyvals(out)
        assert pairs["bound_exceeded"] == "true" and pairs["discovered"] == "9"


class TestPrefixial:
    def test_fig5(self, capsys, fixture_file):
        code, out = run_cli(capsys, "prefixial", fixture_file("fig5"))
        assert code == 0
        built = parse_automaton(document_part(out))
        assert built.states == ("@", "a")
        assert are_equivalent(built, fixtures.build("fig5")).equal

    def test_not_pra(self, capsys, fixture_file):
        code, out = run_cli(capsys, "prefixial", fixture_file("example1_p"))
        assert code == 14
        assert keyvals(out)["pra"] == "false"


class TestSynthPa:
    def test_example1(self, capsys, fixture_file):
        code, out = run_cli(capsys, "synth-pa", fixture_file("example1_p"),
                            fixture_file("example1_p1"), fixture_file("example1_p2"))
        assert code == 0
        built = parse_automaton(document_part(out))
        assert are_equivalent(built, fixtures.build("example1_p")).equal

    def test_infeasible(self, capsys, fixture_file, tmp_path):
        from stochlang import residual_automaton, serialize_automaton
        res = residual_automaton(fixtures.build("fig3_App"), ("a",))
        path = tmp_path / "res.json"
        path.write_text(serialize_automaton(res))
        code, out = run_cli(capsys, "synth-pa", fixture_file("fig3_App"),
                            fixture_file("fig3_App"), str(path))
        assert code == 11
        assert keyvals(out)["feasible"] == "false"


class TestMinimalGens:
    def test_fig2(self, capsys, fixture_file):
        code, out = run_cli(capsys, "minimal-gens", fixture_file("fig2_A"),
                            "--depth", "2")
        assert code == 0
        assert keyvals(out)["generators"] == "@ a"

    def test_inconclusive(self, capsys, fixture_file):
        code, out = run_cli(capsys, "minimal-gens", fixture_file("example1_p"))
        assert code == 15
        assert keyvals(out)["conclusive"] == "false"


class TestHardness:
    def test_builds_pa(self, capsys, tmp_path):
        doc = {"alphabet": ["a", "b"], "states": ["s0"], "initial": "s0",
               "finals": ["s0"],
               "transitions": [["s0", "a", "s0"], ["s0", "b", "s0"]]}
        path = tmp_path / "all.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "hardness", str(path))
        assert code == 0
        built = parse_automaton(document_part(out))
        from stochlang import is_pa
        assert is_pa(built)


@pytest.mark.parametrize("key,value,message", [
    ("initial", ["s0"], "initial must be a state name, got ['s0']"),
    ("finals", ["s0", ["s0"]], "finals must list declared states"),
])
def test_malformed_dfa_exits_3_without_traceback(tmp_path, key, value, message):
    doc = {"alphabet": ["a"], "states": ["s0"], "initial": "s0", "finals": ["s0"],
           "transitions": [["s0", "a", "s0"]], key: value}
    path = tmp_path / "dfa.json"
    path.write_text(json.dumps(doc))
    out = subprocess.run([sys.executable, "-m", "stochlang", "hardness", str(path)],
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == f"error: {message}\n"


@pytest.mark.parametrize("command", ["sum", "hardness"])
def test_deeply_nested_document_exits_3_without_traceback(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    out = subprocess.run([sys.executable, "-m", "stochlang", command, str(path)],
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.startswith("error: invalid document: ")
    assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr


AUTOMATON_DOC = {"alphabet": ["a"], "states": ["q0", "q1"], "initial": {"q0": "1"},
                 "final": {"q1": "1/2"}, "transitions": [["q0", "a", "q1", "1/2"]]}
DFA_DOC = {"alphabet": ["a"], "states": ["s0"], "initial": "s0", "finals": ["s0"],
           "transitions": [["s0", "a", "s0"]]}


def run_on_document(capsys, tmp_path, command, doc):
    path = tmp_path / "input.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = main([command, str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command,base,edit,message", [
    ("sum", AUTOMATON_DOC, lambda doc: doc["initial"].update(ghost="1"),
     "initial weight for unknown state 'ghost'"),
    ("sum", AUTOMATON_DOC, lambda doc: doc["final"].update(ghost="1"),
     "final weight for unknown state 'ghost'"),
    ("sum", AUTOMATON_DOC, lambda doc: doc["transitions"].append(["q0", "a", "ghost", "1"]),
     "transition ('q0', 'a', 'ghost') uses an unknown state"),
    ("sum", AUTOMATON_DOC, lambda doc: doc["transitions"].append(["q0", "z", "q1", "1"]),
     "transition ('q0', 'z', 'q1') uses an unknown letter"),
    ("sum", AUTOMATON_DOC, lambda doc: doc["states"].append(""),
     "state names must be non-empty strings, got ''"),
    ("sum", AUTOMATON_DOC, lambda doc: doc["alphabet"].append(""),
     "letter names must be non-empty strings, got ''"),
    ("sum", AUTOMATON_DOC, lambda doc: doc["states"].append("q1"), "duplicate state name"),
    ("sum", AUTOMATON_DOC, lambda doc: doc["alphabet"].append("a"), "duplicate letter name"),
    ("hardness", DFA_DOC, lambda doc: doc.update(initial="ghost"),
     "unknown initial state 'ghost'"),
    ("hardness", DFA_DOC, lambda doc: doc["finals"].append("ghost"),
     "final states must be declared states"),
    ("hardness", DFA_DOC, lambda doc: doc["transitions"].append(["ghost", "a", "s0"]),
     "transition ('ghost', 'a', 's0') uses an unknown state"),
    ("hardness", DFA_DOC, lambda doc: doc["states"].append("s0"), "duplicate state name"),
    ("hardness", DFA_DOC, lambda doc: doc["alphabet"].append(""),
     "letter names must be non-empty strings, got ''"),
])
def test_unsound_documents_exit_3_with_one_error_line(capsys, tmp_path, command, base, edit,
                                                       message):
    # names and references are checked by the constructors, not by the parser
    doc = json.loads(json.dumps(base))
    edit(doc)
    assert run_on_document(capsys, tmp_path, command, doc) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("command,text,key", [
    ("sum", '{"alphabet": ["a"], "states": ["p"], "initial": {"p": "1", "p": "1/2"}, '
     '"final": {"p": "1/2"}, "final": {"p": "1"}}', "p"),
    ("hardness", '{"alphabet": ["a"], "states": ["s"], "initial": "s", "finals": [], '
     '"finals": ["s"], "transitions": [["s", "a", "s"]]}', "finals"),
], ids=["automaton", "dfa"])
def test_duplicate_keys_exit_3(capsys, tmp_path, command, text, key):
    # the JSON decoder would silently keep the last value (sum used to print 2/3)
    assert run_on_document(capsys, tmp_path, command, text) == (
        3, "", f"error: invalid document: duplicate key {key!r}\n")


def test_weight_beyond_the_digit_bound_exits_3(capsys, tmp_path):
    doc = json.loads(json.dumps(AUTOMATON_DOC))
    doc["transitions"][0][3] = "1/" + "9" * 5000
    assert run_on_document(capsys, tmp_path, "sum", doc) == (
        3, "", "error: transition ['q0', 'a', 'q1']: rational with more than 4300 digits\n")


def test_exact_sum_beyond_the_int_digit_bound_prints(capsys, tmp_path):
    # final weight 1/(N+1) and loop weight 1/(N+3), N = 10^3999: the sum
    # (N+3)/((N+1)(N+2)) has about 8000 digits, more than str(int) allows
    n = 10 ** 3999
    doc = {"alphabet": ["a"], "states": ["q"], "initial": {"q": "1"},
           "final": {"q": f"1/{n + 1}"}, "transitions": [["q", "a", "q", f"1/{n + 3}"]]}
    limit = sys.get_int_max_str_digits()
    code, out, err = run_on_document(capsys, tmp_path, "sum", doc)
    assert sys.get_int_max_str_digits() == limit
    assert (code, err) == (0, "")
    expected = Fraction(n + 3, (n + 1) * (n + 2))
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"converges: true\nvalue: {expected}\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", ["pda", "minimal-gens"])
def test_automaton_without_states_is_not_a_distribution(capsys, tmp_path, command):
    doc = {"alphabet": ["a"], "states": []}
    assert run_on_document(capsys, tmp_path, command, doc) == (
        3, "", "error: the series must have total mass 1\n")


class TestFixtureCommand:
    def test_round_trips_through_analysis(self, capsys, tmp_path):
        code, out = run_cli(capsys, "fixture", "fig3_App")
        assert code == 0
        path = tmp_path / "app.json"
        path.write_text(out)
        code, out = run_cli(capsys, "sum", str(path))
        assert code == 0
        assert keyvals(out) == {"converges": "true", "value": "1"}

    def test_matches_shipped_documents(self, capsys):
        for name in fixtures.FIXTURE_NAMES:
            code, out = run_cli(capsys, "fixture", name)
            assert code == 0
            assert out == (DATA / f"{name}.json").read_text()


class TestErrors:
    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "sum", "/nonexistent/automaton.json")
        assert code == 3

    def test_undecodable_file_names_its_path(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        assert main(["equiv", str(DATA / "fig2_A.json"), str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot read {bad}: 'utf-8' codec can't decode byte "
                                "0xff in position 0: invalid start byte\n")

    def test_undecodable_stdin_is_named_by_its_dash(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["equiv", str(DATA / "fig2_A.json"), "-"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: cannot read -: 'utf-8' codec can't decode byte "
                                "0xff in position 0: invalid start byte\n")

    def test_one_call_reads_a_file_and_stdin(self, capsys, monkeypatch):
        path = DATA / "fig2_A.json"
        monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
        code, out = run_cli(capsys, "equiv", str(path), "-")
        assert (code, out) == (0, "equal: true\n")

    def test_usage_error(self, capsys):
        assert main(["sum"]) == 2

    def test_unknown_fixture_is_usage_error(self, capsys):
        assert main(["fixture", "nope"]) == 2

    def test_weight_with_a_trailing_newline_exits_3(self, capsys, tmp_path):
        doc = {"alphabet": ["a"], "states": ["q0"], "initial": {"q0": "1\n"},
               "final": {"q0": "1"}}
        path = tmp_path / "newline.json"
        path.write_text(json.dumps(doc))
        assert main(["sum", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: initial['q0']: malformed rational '1\\n'\n"

    def test_out_of_memory_exits_3_with_one_line(self, capsys, monkeypatch):
        def exhausted(a):
            raise MemoryError()

        monkeypatch.setattr(cli, "hankel_rank", exhausted)
        assert main(["rank", str(DATA / "fig2_A.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"


def test_repeated_calls_in_one_process_match_fresh_processes():
    # the parser is built once per process; a usage error must leave it
    # ready for the next call
    calls = [["sum"], ["sum", str(DATA / "fig3_App.json")], ["fixture", "nope"],
             ["sum", str(DATA / "fig2_A.json")]]
    fresh = [subprocess.run([sys.executable, "-m", "stochlang", *argv],
                            capture_output=True, text=True, timeout=30)
             for argv in calls]
    for argv, expected in zip(calls, fresh):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue(), err.getvalue()) == \
            (expected.returncode, expected.stdout, expected.stderr)
    assert fresh[0].returncode == fresh[2].returncode == 2
    assert fresh[1].stdout == "converges: true\nvalue: 1\n"


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "stochlang", "fixture", "fig2_A"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert parse_automaton(out.stdout) == fixtures.build("fig2_A")


@pytest.mark.parametrize("args", [
    ("pda", "example1_p", "--max-states", "0"),
    ("pda", "example1_p", "--max-states", "-2"),
    ("classify", "prop10_t", "--max-len", "-3"),
    ("classify", "prop10_t", "--max-len", "0"),
    ("minimal-gens", "fig2_A", "--depth", "-1"),
    ("minimal-gens", "fig2_A", "--depth", "0"),
])
def test_bounds_below_one_are_usage_errors(args):
    # a separate process with a time limit: pda --max-states 0 used to loop forever
    command, name, flag, value = args
    out = subprocess.run(
        [sys.executable, "-m", "stochlang", command, str(DATA / f"{name}.json"),
         flag, value],
        capture_output=True, text=True, timeout=30)
    assert out.returncode == 2
    assert out.stdout == ""
    assert f"argument {flag}: must be at least 1, got {value}" in out.stderr


@pytest.mark.parametrize("value,message", [
    ("7" * 20 + "x" * 4980, "invalid int value: '77777777777777777777xxxxxxxxxxxxxxxxxxxx'"
                            "... (5000 characters)"),
    ("-" + "9" * 4000, "must be at least 1, got -999999999999999999999999999999999999999"
                       "... (4001 characters)"),
], ids=["invalid", "below-one"])
@pytest.mark.parametrize("command,name,flag", [
    ("pda", "example1_p", "--max-states"),
    ("minimal-gens", "fig2_A", "--depth"),
], ids=["max-states", "depth"])
def test_long_bound_values_are_echoed_as_a_prefix(command, name, flag, value, message):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, str(DATA / f"{name}.json"), flag, value])
    assert code == 2
    assert out.getvalue() == ""
    *_, last = err.getvalue().splitlines()
    assert last.endswith(f"argument {flag}: {message}")
    assert len(err.getvalue()) < 400


UNTRIMMED_PAIR = MultiplicityAutomaton(
    ("a",), ("q0", "q1"), {"q0": 1}, {"q0": F(1, 2), "q1": F(1, 3)},
    {("q0", "a", "q0"): F(1, 2), ("q1", "a", "q1"): F(2, 3)})

# total mass 1 (values 2 on the empty word, -1 on "a"), but not a distribution
SIGNED_UNIT_MASS = MultiplicityAutomaton(
    ("a",), ("q0", "q1"), {"q0": 1}, {"q0": 2, "q1": -1}, {("q0", "a", "q1"): 1})

# values 1, 1, -1 on the empty word, a and aa: total mass 1, but the residual
# at a has mass 0 and a nonzero series (pda printed a 1-state PDA for it)
ZERO_MASS_RESIDUAL = MultiplicityAutomaton(
    ("a", "b"), ("q0", "q1", "q2"), {"q0": 1}, {"q0": 1, "q1": 1, "q2": -1},
    {("q0", "a", "q1"): 1, ("q1", "a", "q2"): 1})


@pytest.mark.parametrize("automaton,args,message", [
    (UNTRIMMED_PAIR, ("reduce", "--mode", "field"),
     "elimination stopped at 2 states but the series rank is 1"),
    (SIGNED_UNIT_MASS, ("pda",),
     "residual exploration produced a non-deterministic or non-probabilistic automaton"),
    (ZERO_MASS_RESIDUAL, ("pda",),
     "residual exploration produced a non-deterministic or non-probabilistic automaton"),
])
def test_construction_failures_exit_3_without_traceback(tmp_path, automaton, args, message):
    path = tmp_path / "input.json"
    path.write_text(serialize_automaton(automaton))
    command, *flags = args
    out = subprocess.run(
        [sys.executable, "-m", "stochlang", command, str(path), *flags],
        capture_output=True, text=True, timeout=30)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr.startswith(f"error: {message}")
    assert "Traceback" not in out.stderr
