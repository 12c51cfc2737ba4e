#!/usr/bin/env python3
"""Fold benchmark result files into one BENCH_<label>.json at the
repository root.

Each file is a bench/out/result-*.json written by one run of
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` or
`--trace 1`.  The record holds the machine the runs were made on, the
commit they ran, and per workload the seeds of the untraced runs, each
run's end-to-end metrics and failed query count, and the median of each
metric over the runs.  Traced runs report per-layer metrics instead; they
are listed apart (`traced_runs`), and `layers` holds the median of each
per-layer metric over them:

    python3 scripts/bench_record.py --label 83c856b --commit 83c856b \\
        /path/to/checkout/bench/out/result-search-seed1-trace0.json ...

All files must come from one machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def medians(runs: list[dict]) -> dict[str, float]:
    """The median of each metric over the runs."""
    return {
        name: statistics.median(run["metrics"][name] for run in runs)
        for name in runs[0]["metrics"]
    }


def record(label: str, commit: str, results: list[dict]) -> dict:
    """The BENCH record of these run results, workloads and runs in the
    order given."""
    machines = {json.dumps(r["machine"], sort_keys=True) for r in results}
    if len(machines) != 1:
        raise ValueError(f"results come from {len(machines)} machines")
    workloads: dict[str, dict] = {}
    for r in results:
        entry = workloads.setdefault(r["workload"], {})
        if not r["trace"]:
            entry.setdefault("seeds", []).append(r["seed"])
        entry.setdefault("traced_runs" if r["trace"] else "runs", []).append(
            {
                "seed": r["seed"],
                "seconds": r["seconds"],
                "attempted": r["attempted"],
                "failed": len(r["failures"]),
                "metrics": r["metrics"],
            }
        )
    for entry in workloads.values():
        for runs, key in (("runs", "medians"), ("traced_runs", "layers")):
            if runs in entry:
                entry[key] = medians(entry[runs])
    return {
        "label": label,
        "commit": commit,
        "machine": results[0]["machine"],
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--commit", help="the commit the runs measured (default: the label)")
    parser.add_argument(
        "--out", type=Path, default=ROOT, help="directory to write to (default: the repository root)"
    )
    parser.add_argument("results", nargs="+", type=Path, help="bench/out/result-*.json files")
    args = parser.parse_args(argv)
    results = [json.loads(path.read_text()) for path in args.results]
    bench = record(args.label, args.commit or args.label, results)
    target = args.out / f"BENCH_{args.label}.json"
    target.write_text(json.dumps(bench, indent=1) + "\n")
    print(target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
