"""One smoke test per script in scripts/, run as a subprocess on small
arguments."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import genpow

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(genpow.__file__).resolve().parent.parent


def run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=60,
    )


def test_growth_survey_prints_the_growth_rows():
    survey = run(ROOT / "scripts" / "growth_survey.py", "algebras/min2.json", "--n-max", 3)
    growth = run("-m", "genpow", "growth", "algebras/min2.json", "--n-max", 3)
    assert survey.returncode == growth.returncode == 0
    assert survey.stdout == "# min2.json\n" + growth.stdout


def test_dichotomy_report_prints_its_verdict():
    proc = run(
        ROOT / "scripts" / "dichotomy_report.py",
        "algebras/xor3.json", "--m-extra", 0, "--n-max", 3,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "== xor3.json: k=2, operations: xor3/3"
    assert "   verdict: PGP" in lines
    assert lines[-1] == "   least r with switchability at n=3: 1"


def test_output_digest_hashes_each_query():
    proc = run(ROOT / "scripts" / "output_digest.py", "algebras/projections_k2.json")
    assert proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    # decide, then 15 budgeted queries, each unbudgeted and at 8 budgets.
    assert len(lines) == 1 + 15 * 9
    assert lines[0]["query"] == "decide algebras/projections_k2.json"
    assert {line["exit"] for line in lines} <= {0, 1, 3, 4}
    direct = run("-m", "genpow", "d-check", "algebras/projections_k2.json", "--m", 2)
    entry = next(
        line for line in lines if line["query"] == "d-check algebras/projections_k2.json --m 2"
    )
    assert entry["exit"] == direct.returncode == 0
    assert entry["stdout"] == hashlib.sha256(direct.stdout.encode()).hexdigest()
    assert entry["stderr"] == hashlib.sha256(b"").hexdigest()


def test_bench_record_folds_results_into_one_file(tmp_path):
    machine = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}
    paths = []
    for workload, seed, wall in (("search", 1, 1.0), ("search", 2, 3.0), ("scan", 1, 0.5)):
        result = {
            "workload": workload, "seed": seed, "seconds": 30.0, "trace": 0,
            "machine": machine, "attempted": 12, "failures": [],
            "metrics": {"wall_s": wall, "peak_rss_mb": 44.0 + seed},
        }
        paths.append(tmp_path / f"result-{workload}-seed{seed}-trace0.json")
        paths[-1].write_text(json.dumps(result))
    proc = run(
        ROOT / "scripts" / "bench_record.py", "--label", "test", "--commit", "abc1234",
        "--out", tmp_path, *paths,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(tmp_path / "BENCH_test.json")
    bench = json.loads((tmp_path / "BENCH_test.json").read_text())
    assert (bench["label"], bench["commit"], bench["machine"]) == ("test", "abc1234", machine)
    assert list(bench["workloads"]) == ["search", "scan"]
    search = bench["workloads"]["search"]
    assert search["seeds"] == [1, 2]
    assert [r["metrics"]["wall_s"] for r in search["runs"]] == [1.0, 3.0]
    assert search["runs"][0]["failed"] == 0
    assert search["medians"] == {"wall_s": 2.0, "peak_rss_mb": 45.5}
    assert bench["workloads"]["scan"]["medians"]["wall_s"] == 0.5


def test_bench_record_folds_traced_runs_into_layers(tmp_path):
    machine = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}
    paths = []
    for seed, trace, metrics in (
        (1, 0, {"wall_s": 1.0}),
        (2, 1, {"extend.calls": 10.0, "extend.us_per_call": 40.0}),
        (3, 1, {"extend.calls": 10.0, "extend.us_per_call": 60.0}),
        (4, 1, {"extend.calls": 10.0, "extend.us_per_call": 90.0}),
    ):
        result = {
            "workload": "search", "seed": seed, "seconds": 30.0, "trace": trace,
            "machine": machine, "attempted": 8, "failures": [], "metrics": metrics,
        }
        paths.append(tmp_path / f"result-search-seed{seed}-trace{trace}.json")
        paths[-1].write_text(json.dumps(result))
    proc = run(ROOT / "scripts" / "bench_record.py", "--label", "t", "--out", tmp_path, *paths)
    assert proc.returncode == 0, proc.stderr
    search = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["search"]
    assert search["seeds"] == [1]
    assert search["medians"] == {"wall_s": 1.0}
    assert [r["seed"] for r in search["traced_runs"]] == [2, 3, 4]
    assert search["layers"] == {"extend.calls": 10.0, "extend.us_per_call": 60.0}
    # A workload with traced runs alone has layers and no medians.
    proc = run(ROOT / "scripts" / "bench_record.py", "--label", "u", "--out", tmp_path, paths[1])
    assert proc.returncode == 0, proc.stderr
    search = json.loads((tmp_path / "BENCH_u.json").read_text())["workloads"]["search"]
    assert set(search) == {"traced_runs", "layers"}
