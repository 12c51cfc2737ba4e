#!/usr/bin/env python3
"""Print one JSON line per CLI query over algebra files: the query, its
exit code and the sha256 of its stdout and of its stderr.

The queries are decide, a witness given a flag its kind does not read,
d-check (m = 1..3), switchable, growth (exact to n = 3 and 4, greedy to
n = 3), the four witnesses and the three closed dumps on every file, each
command that takes a closure budget once without one and once at each of
BUDGETS, then two unclosed dumps (switch and sigma) large enough that
their rows span several export batches.  Run it against two versions of
genpow and diff the outputs to list every query whose answer, exit code
or message changed:

    PYTHONPATH=src python3 scripts/output_digest.py > new.jsonl
    PYTHONPATH=/path/to/other/src python3 scripts/output_digest.py > old.jsonl
    diff old.jsonl new.jsonl

Queries run in-process, from the repository root, with the files named
relative to it, so the lines do not depend on where the checkout is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

from genpow import load_algebra
from genpow.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
BUDGETS = (0, 5, 50, 100, 2_025, 5_928, 5_929, 10**6)


def queries(path: str) -> list[list[str]]:
    """The budgeted and unbudgeted queries on one algebra file."""
    algebra = load_algebra(path)
    alpha = ",".join(str(a) for a in range(algebra.k - 1))
    beta = ",".join(str(a) for a in range(1, algebra.k))
    op = algebra.operations[0].name if algebra.operations else "none"
    budgeted = [["d-check", path, "--m", str(m)] for m in (1, 2, 3)] + [
        ["switchable", path, "--r", "0", "--n", "3"],
        ["switchable", path, "--r", "1", "--n", "4"],
        ["growth", path, "--n-max", "3"],
        ["growth", path, "--n-max", "4"],
        ["growth", path, "--n-max", "3", "--mode", "greedy"],
        ["witness", "nice", path, "--r", "1", "--n", "3"],
        ["witness", "sigma", path, "--r", "1", "--n", "4"],
        ["witness", "counterexample", path, "--op", op, "--alpha", alpha, "--beta", beta],
        ["witness", "blocker", path, "--base", "0", "--n-max", "3"],
        ["dump", "d", path, "--m", "2", "--closed"],
        ["dump", "switch", path, "--r", "1", "--n", "3", "--closed"],
        ["dump", "sigma", path, "--alpha", alpha, "--beta", beta, "--n", "2", "--closed"],
    ]
    # A flag the kind does not read: a usage error (exit 1).
    foreign = ["witness", "blocker", path, "--base", "0", "--n-max", "3", "--r", "1"]
    out = [["decide", path], foreign]
    for argv in budgeted:
        out.append(argv)
        out.extend(argv + ["--closure-budget", str(b)] for b in BUDGETS)
    # Unclosed dumps of the least power with at least 2^15 tuples: at k = 2
    # and 3 their rows fill 4 to 16 export batches of 2^16 digits.
    n = next(n for n in itertools.count(1) if algebra.k**n >= 1 << 15)
    half = -(-n // 2)
    out.append(["dump", "switch", path, "--r", str(n // 2), "--n", str(n)])
    out.append(["dump", "sigma", path, "--alpha", alpha, "--beta", beta, "--n", str(half)])
    return out


def digest(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return {
        "query": " ".join(argv),
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="*",
        help="algebra files relative to the repository root (default: algebras/*.json)",
    )
    args = parser.parse_args()
    os.chdir(ROOT)
    files = args.files or sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("algebras/*.json"))
    for path in files:
        for argv in queries(path):
            print(json.dumps(digest(argv)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
