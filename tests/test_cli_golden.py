"""Byte-exact CLI output of the decision commands on every fixture.

``tests/data/cli_golden/`` holds, per fixture and command, the exact stdout
(``<fixture>.<case>.out``) and the exit code (``exit_codes.json``) of the
CLI. Any change to these outputs is a change of public behaviour. To
rewrite the files after a deliberate change, run
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stochlang.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden"
FIXTURES = sorted(p.stem for p in DATA.glob("*.json"))
CASES = {
    "pda8": ["pda", "--max-states", "8"],
    "pda16": ["pda", "--max-states", "16"],
    "mingens2": ["minimal-gens", "--depth", "2"],
    "mingens3": ["minimal-gens", "--depth", "3"],
    "prefixial": ["prefixial"],
    "classify": ["classify"],
    "rank": ["rank"],
    "sums": ["sums"],
    "reduce_field": ["reduce", "--mode", "field"],
    "reduce_cone": ["reduce", "--mode", "cone"],
}
# equivalence of each fixture with each fixture: the right-hand document
# is passed after the left one
CASES.update({f"equiv_{other}": ["equiv", str(DATA / f"{other}.json")]
              for other in FIXTURES})


def run(fixture, case):
    command, *options = CASES[case]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([command, str(DATA / f"{fixture}.json"), *options])
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_output_is_unchanged(fixture, case):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run(fixture, case)
    assert code == codes[f"{fixture}.{case}"]
    assert out == (GOLDEN / f"{fixture}.{case}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for fixture in FIXTURES:
        for case in sorted(CASES):
            codes[f"{fixture}.{case}"], out = run(fixture, case)
            (GOLDEN / f"{fixture}.{case}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
