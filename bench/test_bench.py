"""Self-tests of the benchmark.  Run with: python3 -m pytest bench"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import subprocess
import sys

import pytest

import checker
import inputs
import tracing
from run import BENCH, REFERENCE_S, ROOT, SRC, execute, metrics
from workloads import WORKLOADS, Generated, label

sys.path.insert(0, str(SRC))
import genpow  # noqa: E402
import genpow.cli  # noqa: E402


def run_cli(*argv: str):
    rc, out, _, _ = execute(genpow.cli.main, list(argv), None)
    return rc, out


# -- checker -------------------------------------------------------------


def test_checker_rejects_corrupted_stdout_and_wrong_exit():
    key = "d-check algebras/min2.json --m 5"
    checks = checker.checks_for(tuple(key.split()), checker.load_pinned(), {})
    rc, out = run_cli("d-check", str(ROOT / "algebras/min2.json"), "--m", "5")
    assert checker.verify(checks, rc, out) is None
    assert checker.verify(checks, rc, out.replace("full: yes", "full: no")) is not None
    assert checker.verify(checks, rc, out + "\n") is not None
    assert checker.verify(checks, 4, out) is not None


def test_theorem_checks_reject_wrong_counts():
    facts = checker.d_check_facts(3, 2, rho=7)
    good = "m: 2\nseed-count: 45\nclosure-count: 77\nspace: 81\nfull: no\n"
    assert facts(0, good) is None
    assert facts(0, good.replace("seed-count: 45", "seed-count: 44")) is not None
    assert facts(0, good.replace("full: no", "full: yes")) is not None
    assert facts(0, good.replace("closure-count: 77", "closure-count: 78")) is not None
    assert facts(3, good) is not None


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_fixed_query_is_pinned():
    pinned = checker.load_pinned()
    for workload in WORKLOADS.values():
        for argv in workload.queries + ((workload.probe,) if workload.probe else ()):
            if not any(a.startswith("@") for a in argv):
                assert label(argv) in pinned


# -- generator and oracles -----------------------------------------------


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    outputs = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        directory = tmp_path / sub
        directory.mkdir()
        for workload in WORKLOADS.values():
            inputs.generate(workload, seed, directory)
        outputs.append({p.name: p.read_bytes() for p in sorted(directory.iterdir())})
    assert outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]


@pytest.mark.parametrize("seed", range(5))
def test_draws_have_the_promised_verdict(seed):
    for name, spec in (("p", Generated("pgp", 3, 2)), ("e", Generated("planted", 3, 2))):
        drawn = inputs.draw(seed, name, spec)
        pair, _ = inputs.first_projective_pair(drawn.k, drawn.arity, drawn.table)
        assert (pair is None) == (spec.kind == "pgp")
        if drawn.pair is not None:
            assert inputs.projective_at(drawn.k, drawn.arity, drawn.table, drawn.pair)


@pytest.mark.parametrize("seed", range(3))
def test_reference_outputs_agree_with_the_package(seed, tmp_path):
    for workload in WORKLOADS.values():
        for drawn, path in inputs.generate(workload, seed, tmp_path).values():
            assert run_cli("decide", str(path)) == (0, inputs.decide_text(drawn))
            assert run_cli("validate", str(path)) == (0, inputs.validate_text(drawn))
            if drawn.k == 2:
                expected = inputs.growth_text(drawn, 3)
                assert run_cli("growth", str(path), "--n-max", "3") == (0, expected)


def test_closed_forms_match_enumeration():
    for k, n, r in itertools.product((2, 3), (1, 2, 4), (0, 1, 2)):
        brute = sum(
            sum(t[i] != t[i + 1] for i in range(n - 1)) <= r
            for t in itertools.product(range(k), repeat=n)
        )
        assert inputs.switch_count(k, n, r) == brute
    for k, m in itertools.product((2, 3), (1, 2)):
        brute = sum(
            any(t[2 * i] == t[2 * i + 1] for i in range(m))
            for t in itertools.product(range(k), repeat=2 * m)
        )
        assert inputs.equal_pair_count(k, m) == brute


# -- tracing -------------------------------------------------------------


def _bindings():
    out = {}
    for module_name, names in tracing.BINDINGS.items():
        module = importlib.import_module(module_name)
        for name in names:
            out[(module_name, name)] = getattr(module, name)
    return out, dict(genpow.cli._HANDLERS)


def test_tracer_restores_module_attributes():
    before = _bindings()
    recorder = tracing.Recorder()
    with pytest.raises(RuntimeError):
        with tracing.Tracer(recorder):
            assert genpow.cli.load_algebra is not before[0][("genpow.cli", "load_algebra")]
            rc, _ = run_cli("d-check", str(ROOT / "algebras/xor3.json"), "--m", "2")
            assert rc == 0
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after[1] == before[1]
    assert all(after[0][key] is value for key, value in before[0].items())
    names = {span[0] for span in recorder.spans}
    assert {"cli.handler", "load_algebra", "equal_pair_tuples", "closure"} <= names


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli", 0.0, 10.0, -1, 0, None],
        ["cli.handler", 1.0, 9.0, 0, 0, None],
        ["closure", 2.0, 5.0, 1, 0, {"out": 8, "new": 4, "full": True, "space": 8}],
        ["closure", 5.0, 6.0, 1, 0, {"out": 4, "new": 0, "full": False, "space": 8}],
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.output_s"] == pytest.approx(2.0)
    assert metrics["closure.s"] == pytest.approx(4.0)
    assert metrics["closure.calls"] == 2
    assert metrics["closure.full_frac"] == 0.5
    assert metrics["closure.new_per_s"] == pytest.approx(1.0)


# -- the run script --------------------------------------------------------


def test_timings_are_scaled_to_reference_speed():
    half = REFERENCE_S / 2
    passes = [
        {"traced": False, "wall": 3.0, "cpu": 2.0, "max_query": 2.0, "refs": [half, half]},
        {"traced": False, "wall": 4.0, "cpu": 3.0, "max_query": 2.5, "refs": [half, half]},
        {"traced": True, "wall": 9.0, "cpu": 9.0, "max_query": 9.0, "refs": [1.0, 1.0]},
    ]
    values = metrics({"passes": passes, "setup": [0.3, 0.1, 0.2], "rss_mb": 50.0}, False)
    assert values["wall_s"] == pytest.approx(7.0)
    assert values["cpu_s"] == pytest.approx(5.0)
    assert values["max_query_s"] == pytest.approx(4.5)
    assert values["setup_s"] == 0.2


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
