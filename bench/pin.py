#!/usr/bin/env python3
"""Pin the exit code and stdout of every fixed benchmark query.

    python3 bench/pin.py

Runs each corpus query of every workload once and writes bench/expected.json
(exit code, sha256 of stdout, line count).  The budget-edge probe is pinned
to the answer of the same query without its budget, which is the true
answer the probe should give.  Run it only at a commit whose outputs are
known good; the checked-in file was written at the commit that added the
benchmark, whose package code is the seed of this benchmark's history.
"""

from __future__ import annotations

import json
import subprocess
import sys

import checker
from run import ROOT, SRC, execute
from workloads import WORKLOADS, label, resolve


def main() -> int:
    sys.path.insert(0, str(SRC))
    import genpow.cli

    queries = {}
    for workload in WORKLOADS.values():
        runs = [(argv, argv) for argv in workload.queries if not any(a.startswith("@") for a in argv)]
        if workload.probe:
            flag = workload.probe.index("--closure-budget")
            unbudgeted = workload.probe[:flag] + workload.probe[flag + 2 :]
            runs.append((workload.probe, unbudgeted))
        for key_argv, argv in runs:
            rc, out, wall, _ = execute(genpow.cli.main, resolve(argv, ROOT, {}), None)
            queries[label(key_argv)] = {
                "exit": rc,
                "sha256": checker.digest(out),
                "lines": out.count("\n"),
            }
            print(f"{wall:8.3f} s  exit {rc}  {label(key_argv)}", file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    doc = {"pinned_at": commit or "unknown", "queries": queries}
    checker.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
