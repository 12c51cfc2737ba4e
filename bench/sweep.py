#!/usr/bin/env python3
"""Run every workload over ten seeds and print each metric's spread.

    python3 bench/sweep.py [--baseline]

This is the one command that prints all end-to-end metrics per workload,
with units, plus failed_frac (failed over attempted queries) and the
outcome of the budget-edge probe.  Runs are sequential, one process at a
time, with seeds 1..10 and the run_seconds of BENCHMARK.json.  For every
end-to-end metric it prints the median of the runs' values, their
quartiles, and the spread (q3 - q1) / median next to the metric's bound.
One traced run per workload (seed 1) adds the per-layer metrics.
Everything goes to bench/out/sweep.json; --baseline also writes
bench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from run import BENCH, OUT, ROOT, machine, quartiles
from workloads import WORKLOADS, label

RUNS = 10
TRACED_RUNS = 1


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    # The probe is not part of the result line; run.py keeps it in its details.
    details = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    probe = json.loads(details.read_text(encoding="utf-8"))["probe"]
    return {"seed": seed, "trace": trace, "probe": probe, **last}


def probe_outcome(runs: list[dict]) -> dict | None:
    """How the budget-edge probe ended over the runs, as measured."""
    probes = [r["probe"] for r in runs if r["probe"] is not None]
    if not probes:
        return None
    refused = [p for p in probes if p["reason"] is not None]
    return {
        "query": probes[0]["query"],
        "runs": len(probes),
        "refused": len(refused),
        "exits": sorted({p["exit"] for p in probes}),
        "reasons": sorted({p["reason"] for p in refused}),
    }


def summarize(runs: list[dict], listed: list[dict]) -> dict:
    out = {}
    for metric in listed:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        out[metric["name"]] = {
            "unit": metric["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "n": len(values),
            "spread": (q3 - q1) / med if med else None,
            "bound": metric.get("bound"),
            "values": values,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    doc = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    started = time.time()
    for name in (w["name"] for w in spec["workloads"]):
        seeds = range(1, RUNS + 1)
        plain = [one_run(name, s, seconds, 0) for s in seeds]
        traced = [one_run(name, s, seconds, 1) for s in seeds[:TRACED_RUNS]]
        attempted = sum(r["attempted"] for r in plain)
        failed = sum(r["failed"] for r in plain)
        entry = {
            "seeds": list(seeds),
            "correct": all(r["correct"] for r in plain + traced),
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "probe": probe_outcome(plain + traced),
            "end_to_end": summarize(plain, spec["end_to_end"]),
            "per_layer": summarize(traced, spec["per_layer"]),
        }
        doc["workloads"][name] = entry
        print(f"{name}: {len(plain)} runs, correct {entry['correct']}, "
              f"failed_frac {entry['failed_frac']:.4f} ({failed} of {attempted})")
        probe = entry["probe"]
        if probe is not None:
            print(f"  budget-edge probe, not a timed query: {probe['query']}: refused in "
                  f"{probe['refused']} of {probe['runs']} runs, exits {probe['exits']} "
                  f"{'; '.join(probe['reasons'])}")
        for metric, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] is not None and s["spread"] <= s["bound"] / 3 else "WIDE"
            print(f"  {metric:<12} {s['median']:10.4f} {s['unit']:<3} q1 {s['q1']:.4f} "
                  f"q3 {s['q3']:.4f} n {s['n']}  spread {s['spread']:.3f} "
                  f"bound {s['bound']}  {flag}")
        for metric, s in entry["per_layer"].items():
            print(f"  {metric:<24} {s['median']:14.6g} {s['unit']}")
        sys.stdout.flush()
    doc["elapsed_s"] = time.time() - started
    (OUT / "sweep.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if args.baseline:
        write_baseline(doc, spec)
    return 0


def write_baseline(doc: dict, spec: dict) -> None:
    """Machine, workloads with their queries, and the measured baseline."""
    pinned = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads = {}
    for name, entry in doc["workloads"].items():
        w = WORKLOADS[name]
        probe = entry["probe"]
        workloads[name] = {
            "why": why[name],
            "queries": [label(q) for q in w.queries],
            "generated": {k: vars(g) for k, g in w.generated.items()},
            "known_failures": (
                [{**probe,
                  "expected": "exit 0 with the pinned true answer (full: yes)",
                  "reported_as": "budget_edge.refused in traced runs and a report line; "
                                 "not a timed query"}]
                if probe is not None and probe["refused"] else []
            ),
            **{k: v for k, v in entry.items() if k in ("seeds", "failed_frac")},
            "end_to_end": {m: {k: s[k] for k in ("unit", "median", "q1", "q3", "n", "spread", "bound", "values")}
                           for m, s in entry["end_to_end"].items()},
            "per_layer_median": {m: s["median"] for m, s in entry["per_layer"].items()},
        }
    baseline = {
        "pinned_at": pinned["pinned_at"],
        "machine": doc["machine"],
        "run_seconds": doc["run_seconds"],
        "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
        "workloads": workloads,
    }
    (BENCH / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
