import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize("script", ["tour.py", "residual_chain.py", "code_lines.py",
                                    "union_universality_demo.py"])
def test_script_exits_cleanly(script):
    out = subprocess.run([sys.executable, str(SCRIPTS / script)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_workload_outputs_prints_the_decision_count_and_a_digest():
    # the digest itself is compared between checkouts, not pinned here
    out = subprocess.run([sys.executable, str(SCRIPTS / "workload_outputs.py")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "decisions: 435" in lines
    assert any(re.fullmatch(r"sha256: [0-9a-f]{64}", line) for line in lines)


def test_workload_outputs_against_head():
    # compares the outputs of this checkout with those of HEAD, which a
    # temporary git worktree holds; needs a git checkout with a commit
    git = ["git", "-C", str(SCRIPTS)]
    if subprocess.run(git + ["rev-parse", "--verify", "HEAD"], capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    worktrees = subprocess.run(git + ["worktree", "list"], capture_output=True, text=True).stdout
    out = subprocess.run([sys.executable, str(SCRIPTS / "workload_outputs.py"),
                          "--against", "HEAD"], capture_output=True, text=True, timeout=240)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[:2] == [line.removeprefix("HEAD ") for line in lines[2:4]]
    assert lines[4:] == ["equal"]
    # the temporary worktree is gone again
    assert subprocess.run(git + ["worktree", "list"], capture_output=True,
                          text=True).stdout == worktrees
