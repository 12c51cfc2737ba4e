#!/usr/bin/env python3
"""Run one workload of the genpow benchmark and print its metrics.

    python3 bench/run.py --workload saturating --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's `src/`.  The workload's seeded algebras are
written to a temporary directory under bench/out/ and removed afterwards.
Then the run measures set-up time in fresh child processes, and drives
`genpow.cli.main` in-process over the workload's queries, pass after
pass, until the next pass would end after --seconds.  Every query's exit
code and stdout are checked (checker.py).  Query timings are reported at
the speed of a fixed reference task timed before each query (see
REFERENCE_S), so that the shared host's changes of speed cancel out.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json; with --trace 1 it holds the per-layer metrics
(tracing.py), including the tracing overhead: after one untraced warm-up
pass, an untraced and a traced pass alternate, and the overhead is the
median difference within these adjacent pairs.  Lines above it are a
readable report.  Details, with the seed and every sample, go to
bench/out/result-*.json, and the spans of a traced run to
bench/out/spans-*.json.

Exit status 0 after a run, 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checker
import inputs
import tracing
from workloads import WORKLOADS, files, label, resolve

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# One process and no extra threads: numpy's BLAS and OpenMP pools start
# when it is imported, so they are pinned to one thread first.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 12
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import genpow\n"
    "for path in sys.argv[2:]:\n"
    "    genpow.load_algebra(path)\n"
    "print('ready', flush=True)\n"
)


# The shared host changes speed by up to 50% for minutes at a time, with
# the load of other tenants, and every query slows with it.  So before
# each query the run times a fixed reference task, a pure-Python loop and
# a numpy pass (the program's two kinds of work), and reports its timings
# at reference speed: measured seconds times REFERENCE_S over the run's
# median reference time.  REFERENCE_S is about the task's time on a 2-CPU
# x86-64 Xeon VM with Python 3.11 and numpy 2.4, so figures stay near
# wall time there.
REFERENCE_S = 0.020


def reference() -> float:
    """Seconds of one run of the reference task."""
    import numpy as np  # main() imports it first, after pinning its threads

    start = time.perf_counter()
    seen = set()
    for i in range(40_000):
        seen.add((i % 7, i % 11, i % 13))
    cells = np.arange(40_000, dtype=np.int64) * 7919 % 3**10
    digits = cells[:, None] // 3 ** np.arange(9, -1, -1) % 3
    np.unique((digits[:-1] * 3 + digits[1:]).sum(axis=1))
    return time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup(paths: list[Path]) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    genpow and loaded the workload's algebra files."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)],
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, **ONE_THREAD),
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child failed with exit {child.returncode}")
    return elapsed


def execute(main, argv: list[str], recorder: tracing.Recorder | None):
    """(exit code, stdout, wall s, cpu s) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.process_time()
        span = recorder.open("cli") if recorder else None
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed query, not a failed run
            traceback.print_exc(file=sys.__stderr__)
            rc = -1
        finally:
            if recorder:
                recorder.close(span)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return rc, out.getvalue(), wall, cpu


class Plan:
    """A workload resolved for one seed: argv, label and checks per query."""

    def __init__(self, name: str, seed: int, tmp: Path):
        self.spec = WORKLOADS[name]
        drawn = inputs.generate(self.spec, seed, tmp)
        self.drawn = {key: algebra for key, (algebra, _) in drawn.items()}
        paths = {f"@{key}": str(path) for key, (_, path) in drawn.items()}
        pinned = checker.load_pinned()
        self.queries = [
            (label(argv), resolve(argv, ROOT, paths), checker.checks_for(argv, pinned, self.drawn))
            for argv in self.spec.queries
        ]
        self.probe = None
        if self.spec.probe:
            argv = self.spec.probe
            self.probe = (label(argv), resolve(argv, ROOT, paths), checker.checks_for(argv, pinned, {}))
        self.files = [Path(paths.get(f, ROOT / f)) for f in files(self.spec)]


def run_pass(main, workload: Plan, recorder, failures: list) -> dict:
    walls, cpus, refs, lines = [], [], [], 0
    for key, argv, checks in workload.queries:
        if recorder:
            recorder.query += 1
        refs.append(reference())
        rc, out, wall, cpu = execute(main, argv, recorder)
        walls.append(wall)
        cpus.append(cpu)
        lines += out.count("\n")
        reason = checker.verify(checks, rc, out)
        if reason is not None:
            failures.append({"query": key, "reason": reason})
    return {
        "traced": recorder is not None,
        "wall": sum(walls),
        "cpu": sum(cpus),
        "max_query": max(walls),
        "query_walls": walls,
        "refs": refs,
        "lines": lines,
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def measure(args, workload: Plan, main) -> dict:
    # Untimed warm-up: argparse, the first file read and numpy's first calls.
    execute(main, ["validate", str(workload.files[0])], None)
    setup, passes, spans, failures = [], [], [], []
    start = time.perf_counter()
    if args.trace:
        # A whole pass warms every code path before the first pair; it is
        # checked but left out of every metric.
        passes.append(dict(run_pass(main, workload, None, failures), warmup=True))
    while True:
        # Set-up samples are taken between passes, spread evenly over the
        # run, so one slow spell of the shared machine does not decide
        # their median.
        due = SETUP_SAMPLES * (time.perf_counter() - start) / args.seconds
        while len(setup) < min(SETUP_SAMPLES, due + 1):
            setup.append(measure_setup(workload.files))
        # Traced passes sit at even indices, each after its untraced partner.
        traced = bool(args.trace) and len(passes) % 2 == 0
        recorder = tracing.Recorder() if traced else None
        if recorder:
            with tracing.Tracer(recorder):
                p = run_pass(main, workload, recorder, failures)
            p["layers"] = tracing.layer_metrics(recorder.spans)
            spans.append(recorder.spans)
        else:
            p = run_pass(main, workload, None, failures)
        passes.append(p)
        if args.trace and not traced:
            continue
        elapsed = time.perf_counter() - start
        longest = max(q["wall"] for q in passes)
        if elapsed + (1 + args.trace) * longest > args.seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(workload.files))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe = None
    if workload.probe:
        key, argv, checks = workload.probe
        rc, out, wall, _ = execute(main, argv, None)
        probe = {
            "query": key,
            "exit": rc,
            "wall": wall,
            "reason": checker.verify(checks, rc, out),
        }
    return {
        "setup": setup,
        "passes": passes,
        "spans": spans,
        "failures": failures,
        "rss_mb": rss_mb,
        "probe": probe,
        "measured_s": time.perf_counter() - start,
    }


def timed(passes: list[dict]) -> list[dict]:
    """The untraced passes that count, without the warm-up pass."""
    return [p for p in passes if not p["traced"] and not p.get("warmup")]


def speed(passes: list[dict]) -> float:
    """REFERENCE_S over the median reference time of the passes."""
    return REFERENCE_S / statistics.median(r for p in passes for r in p["refs"])


def metrics(result: dict, trace: bool) -> dict[str, float]:
    plain = timed(result["passes"])
    scale = speed(plain)
    values = {
        "wall_s": statistics.median(p["wall"] for p in plain) * scale,
        "cpu_s": statistics.median(p["cpu"] for p in plain) * scale,
        "max_query_s": statistics.median(p["max_query"] for p in plain) * scale,
        # A fresh interpreter's start-up is not the work the reference
        # task models; scaled set-up times spread more than measured ones.
        "setup_s": statistics.median(result["setup"]),
        "peak_rss_mb": result["rss_mb"],
    }
    if not trace:
        return values
    traced = [p for p in result["passes"] if p["traced"]]
    layers = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    layers["cli.lines"] = statistics.median(p["lines"] for p in traced)
    # (untraced, traced) pairs of adjacent passes after the warm-up pass.
    pairs = list(zip(result["passes"][1::2], result["passes"][2::2]))
    overhead = statistics.median(t["wall"] - u["wall"] for u, t in pairs)
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_frac"] = overhead / statistics.median(u["wall"] for u, _ in pairs)
    probe = result["probe"]
    layers["budget_edge.refused"] = float(probe is not None and probe["reason"] is not None)
    return layers


def report(args, workload: Plan, result: dict, attempted: int) -> list[str]:
    plain = timed(result["passes"])
    failed = len(result["failures"])
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(result['passes'])} ({len(plain)} timed untraced)  "
        f"queries/pass {len(workload.queries)}",
    ]
    values = metrics(result, False)
    scale = speed(plain)
    lines.append(
        f"  reference task: median {REFERENCE_S / scale:.4f} s over "
        f"{sum(len(p['refs']) for p in plain)} runs; wall_s, cpu_s and max_query_s "
        f"are measured times scaled by {scale:.4f} = {REFERENCE_S} s over that median"
    )
    # Each metric, then the quartiles of the measured samples it comes from.
    for name, samples in (
        ("wall_s", [p["wall"] for p in plain]),
        ("cpu_s", [p["cpu"] for p in plain]),
        ("max_query_s", [p["max_query"] for p in plain]),
        ("setup_s", result["setup"]),
    ):
        q1, med, q3 = quartiles(samples)
        lines.append(
            f"  {name:<12} {values[name]:10.4f} s   measured: median {med:.4f}  "
            f"q1 {q1:.4f}  q3 {q3:.4f}  n {len(samples)}"
        )
    lines.append(f"  {'peak_rss_mb':<12} {result['rss_mb']:10.1f} MB")
    lines.append(f"  {'failed_frac':<12} {failed / attempted:10.4f}     {failed} of {attempted} queries")
    lines.append("    measured median per query")
    for i, (key, _, _) in enumerate(workload.queries):
        lines.append(f"    {statistics.median(p['query_walls'][i] for p in plain):8.4f} s  {key}")
    for failure in result["failures"][:10]:
        lines.append(f"  FAILED {failure['query']}: {failure['reason']}")
    probe = result["probe"]
    if probe is not None:
        verdict = "answered" if probe["reason"] is None else f"REFUSED ({probe['reason']})"
        lines.append(
            f"  budget-edge probe, not a timed query: {probe['query']}: {verdict}; "
            "expected the true answer 'full: yes'"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "genpow" / "__init__.py").is_file() or not (ROOT / "algebras").is_dir():
        print(f"bench: no genpow source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(SRC))
    import genpow.cli

    if ROOT not in Path(genpow.cli.__file__).resolve().parents:
        print(f"bench: imported genpow from {genpow.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = Plan(args.workload, args.seed, tmp)
        result = measure(args, workload, genpow.cli.main)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(result["passes"]) * len(workload.queries)
    values = metrics(result, bool(args.trace))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "machine": machine(),
                "generated": {k: vars(a) for k, a in workload.drawn.items()},
                "queries": [key for key, _, _ in workload.queries],
                "attempted": attempted,
                **{k: v for k, v in result.items() if k != "spans"},
                "metrics": values,
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    if result["spans"]:
        (OUT / f"spans-{stem}.json").write_text(
            json.dumps(
                {"fields": ["name", "start", "end", "parent", "query", "info"],
                 "passes": result["spans"]},
                separators=(",", ":"),
            ),
            encoding="utf-8",
        )
    for line in report(args, workload, result, attempted):
        print(line)
    failed = len(result["failures"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
