"""One SHA-256 digest over the outputs of every benchmark workload decision.

Builds the decisions of the four workloads of ``perfbench/workloads.py`` for
seeds 1-3, runs each once in-process through ``stochlang.cli.main``, and
hashes its exit code, stdout and stderr in order. The document directory of
each build is replaced by a fixed name, so the digest depends only on what
the program prints. Two checkouts whose digests match give byte-identical
results on every decision. Prints the number of decisions and the digest.

With ``--against REF`` the same script also runs in a temporary git
worktree of REF (a commit, branch or tag of this repository), which is
removed afterwards. Both digests are printed, then ``equal`` or
``differ``; the exit code is 1 when they differ, and 2 when REF cannot
be checked out or its run fails.

Usage: python scripts/workload_outputs.py [--against REF]
"""

import argparse
import hashlib
import io
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from stochlang import cli  # noqa: E402

SEEDS = (1, 2, 3)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def output_lines() -> list[str]:
    """The two output lines of this checkout: the decision count and the digest."""
    digest = hashlib.sha256()
    count = 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as docdir:
                with redirect_stdout(io.StringIO()):
                    decisions = workloads.build(workload, seed, docdir, cli.main)
                for decision in decisions:
                    code, out, err = run(decision.argv)
                    record = f"{code}\0{out}\0{err}\0".replace(docdir, "DOCS")
                    digest.update(record.encode())
                    count += 1
    return [f"decisions: {count}", f"sha256: {digest.hexdigest()}"]


def output_lines_at(ref: str) -> list[str]:
    """The output lines of this script run in a temporary worktree of ``ref``."""
    git = ["git", "-C", str(ROOT)]
    tmp = Path(tempfile.mkdtemp())
    tree = tmp / "tree"
    try:
        subprocess.run(git + ["worktree", "add", "--detach", "--quiet", str(tree), ref],
                       check=True)
        script = tree / "scripts" / Path(__file__).name
        shutil.copyfile(__file__, script)
        out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                             check=True)
        return out.stdout.splitlines()
    finally:
        subprocess.run(git + ["worktree", "remove", "--force", str(tree)],
                       capture_output=True)
        subprocess.run(git + ["worktree", "prune"], capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF",
                        help="also digest the outputs of REF and compare")
    args = parser.parse_args()
    here = output_lines()
    print("\n".join(here))
    if args.against is None:
        return 0
    try:
        there = output_lines_at(args.against)
    except subprocess.CalledProcessError as err:
        print(f"error: {' '.join(err.cmd)} exited with {err.returncode}", file=sys.stderr)
        print(err.stderr or "", end="", file=sys.stderr)
        return 2
    print("\n".join(f"{args.against} {line}" for line in there))
    equal = here == there
    print("equal" if equal else "differ")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
