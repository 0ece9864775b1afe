"""Self-tests of the benchmark itself.

Checks, for every workload, that the seeded generators are deterministic
(same seed, same documents; another seed, other documents), that every
decision passes its oracle on the program's real output (known-defect
decisions excepted), and that every oracle rejects a deliberately corrupted
output: a wrong exit code, and the last number (or the first flag) of the
output changed.

Run from the root of a checkout:  python3 perfbench/selftest.py [WORKLOAD ...]
Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import sys
import tempfile

import run
import workloads


def corrupt(out: str) -> str:
    numbers = list(re.finditer(r"\d+", out))
    if numbers:
        last = numbers[-1]
        return out[:last.start()] + str(int(last.group()) + 1) + out[last.end():]
    if "true" in out:
        return out.replace("true", "false", 1)
    return out.replace("false", "true", 1)


def documents(docdir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(docdir)):
        with open(os.path.join(docdir, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def check_workload(cli, workload: str, scratch: str) -> list[str]:
    problems = []
    builds = {}
    for label, seed in (("first", 7), ("again", 7), ("other", 8)):
        docdir = os.path.join(scratch, f"{workload}-{label}")
        os.makedirs(docdir)
        decisions = workloads.build(workload, seed, docdir, cli.main)
        builds[label] = (decisions, documents(docdir))
    first, again, other = builds["first"], builds["again"], builds["other"]
    if first[1] != again[1]:
        problems.append("same seed wrote different documents")
    if [d.id for d in first[0]] != [d.id for d in again[0]]:
        problems.append("same seed listed different decisions")
    if first[1] == other[1]:
        problems.append("another seed wrote identical documents")

    for d in first[0]:
        code, out, _, error = run.execute(cli, d)
        verdict = run.judge(d, code, out, error)
        if d.known_defect is None and verdict is not None:
            problems.append(f"{d.id}: real output rejected: {verdict}")
        if d.known_defect is not None and verdict is None:
            problems.append(f"{d.id}: known defect no longer shows; update the listing")
        if error is not None:
            continue
        if d.check((code or 0) + 1, out) is None:
            problems.append(f"{d.id}: oracle accepts a wrong exit code")
        if d.check(code, corrupt(out)) is None:
            problems.append(f"{d.id}: oracle accepts a corrupted output")
    return problems


def main(argv) -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(run.OUT_DIR, exist_ok=True)
    signal.signal(signal.SIGALRM, run._alarm)
    cli = run._import_cli()
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    failures = 0
    try:
        for workload in argv or workloads.WORKLOADS:
            problems = check_workload(cli, workload, scratch)
            failures += len(problems)
            print(f"{workload}: {'ok' if not problems else f'{len(problems)} problem(s)'}")
            for p in problems:
                print(f"  {p}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
