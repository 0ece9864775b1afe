"""One SHA-256 digest over the outputs of every benchmark workload decision.

Builds the decisions of the four workloads of ``perfbench/workloads.py`` for
seeds 1-3, runs each once in-process through ``stochlang.cli.main``, and
hashes its exit code, stdout and stderr in order. The document directory of
each build is replaced by a fixed name, so the digest depends only on what
the program prints. Two checkouts whose digests match give byte-identical
results on every decision. Prints the number of decisions and the digest.

Usage: python scripts/workload_outputs.py
"""

import hashlib
import io
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


def main() -> None:
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
    print(f"decisions: {count}")
    print(f"sha256: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
