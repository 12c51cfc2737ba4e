import functools
import json
import random
import subprocess
import sys

import pytest

import genpow.cli
from genpow import Limits
from genpow.cli import main
from tests.conftest import corpus_path
from tests.oracles import (
    brute_equal_pair_tuples,
    brute_subset_pair_relation,
    per_pattern_charges,
)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        rc = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return invoke


def path(name):
    return corpus_path(name)


# -- validate -------------------------------------------------------------


def test_validate_xor3(run):
    rc, out, err = run("validate", path("xor3"))
    assert rc == 0
    assert out == "size: 2\noperations: 1\n  xor3: arity 3\nidempotent: yes\n"
    assert err == ""


def test_validate_non_idempotent(run):
    rc, out, _ = run("validate", path("non_idempotent"))
    assert rc == 0
    assert "idempotent: no (czero(1, 1) = 0)" in out


def test_validate_missing_file(run):
    rc, out, err = run("validate", "no_such_file.json")
    assert rc == 2
    assert out == ""
    assert err.startswith("genpow: cannot read algebra file:")


def test_validate_bad_json(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    rc, _, err = run("validate", bad)
    assert rc == 2
    assert err.startswith("genpow: invalid algebra file:")
    assert "line 1" in err


def test_validate_bad_table(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"size": 2, "operations": [{"name": "f", "arity": 2, "table": [0]}]}',
        encoding="utf-8",
    )
    rc, _, err = run("validate", bad)
    assert rc == 2
    assert "table has 1 entries" in err


# -- decide ----------------------------------------------------------------


def test_decide_pgp(run):
    rc, out, _ = run("decide", path("min2"))
    assert rc == 0
    assert out == "verdict: PGP\npairs checked: 1\n"


def test_decide_egp(run):
    rc, out, _ = run("decide", path("egp3"))
    assert rc == 0
    assert out == (
        "verdict: EGP\n"
        "alpha: {0, 1}\n"
        "beta: {1, 2}\n"
        "projective coordinate for f: 1\n"
    )


def test_decide_exits_4_when_the_pair_scan_passes_the_space_budget(
    run, tmp_path, monkeypatch
):
    # decide runs on the default budgets, whose 2**26 pairs are first
    # exceeded at k = 18.  A space budget of 100 pairs stands in for that
    # here: the 301 covering pairs of this PGP table at k = 6 come in one
    # chunk, which is refused before it is checked.
    rng = random.Random(6)
    table = [rng.randrange(6) for _ in range(6 * 6)]
    for a in range(6):
        table[a * 6 + a] = a
    algebra = tmp_path / "k6.json"
    algebra.write_text(json.dumps(
        {"size": 6, "operations": [{"name": "f", "arity": 2, "table": table}]}
    ))
    assert run("decide", algebra) == (
        0, "verdict: PGP\npairs checked: 301\n", ""
    )
    monkeypatch.setattr(genpow.cli, "Limits", functools.partial(Limits, space=100))
    assert run("decide", algebra) == (
        4,
        "",
        "genpow: budget exceeded: covering-pair scan exceeded the space budget "
        "of 100 pairs (pairs checked: 0)\n",
    )


def test_decide_rejects_non_idempotent(run):
    rc, out, err = run("decide", path("non_idempotent"))
    assert rc == 3
    assert out == ""
    assert err.startswith("genpow: precondition violated:")
    assert "czero(1, 1) = 0" in err


# -- the closure checks ------------------------------------------------------


def test_d_check(run):
    rc, out, _ = run("d-check", path("xor3"), "--m", 2)
    assert rc == 0
    assert out == "m: 2\nseed-count: 12\nclosure-count: 16\nspace: 16\nfull: yes\n"


def test_d_check_not_full(run):
    rc, out, _ = run("d-check", path("projections_k2"), "--m", 2)
    assert rc == 0
    assert out.endswith("full: no\n")


def test_d_check_budget(run):
    rc, _, err = run("d-check", path("xor3"), "--m", 2, "--closure-budget", 1)
    assert rc == 4
    assert err.startswith("genpow: budget exceeded:")


def test_d_check_budget_met_by_early_exit(run):
    # The closure is full after 57,600 of the 13.8 M cells in its first pattern.
    rc, out, err = run("d-check", path("xor3"), "--m", 4, "--closure-budget", 200000)
    assert (rc, err) == (0, "")
    assert out == run("d-check", path("xor3"), "--m", 4)[1]


def test_d_check_budget_on_proper_closure(run, egp3):
    # egp3 closes the 45 seeds to 77 of 81 tuples.  That is |R_2| for its
    # EGP pair, so the closure stops there, after the first round's
    # 45**2 = 2,025 cells instead of the 77**2 = 5,929 a fixed-point check
    # would spend.  The need comes from the genpow-free reference.
    seeds = brute_equal_pair_tuples(3, 2)
    ceiling = len(brute_subset_pair_relation(3, {0, 1}, {1, 2}, 2))
    _, charges = per_pattern_charges(egp3, seeds, stop=ceiling, batch=1 << 16)
    need = sum(cells for _, cells, _, _ in charges)
    assert need == 2_025
    rc, out, _ = run("d-check", path("egp3"), "--m", 2, "--closure-budget", need)
    assert rc == 0
    assert out.endswith("closure-count: 77\nspace: 81\nfull: no\n")
    rc, out, err = run("d-check", path("egp3"), "--m", 2, "--closure-budget", need - 1)
    assert (rc, out) == (4, "")
    assert "of 81," in err


def test_d_check_stops_at_the_subset_pair_relation(run):
    # At m = 4 the closure equals R_4 (6,545 tuples) after 26,788,320 of
    # the 42,837,025 steps a fixed-point check spends.
    budgeted = run("d-check", path("egp3"), "--m", 4, "--closure-budget", 26_788_320)
    assert budgeted == run("d-check", path("egp3"), "--m", 4)
    assert budgeted[1].endswith("closure-count: 6545\nspace: 6561\nfull: no\n")
    rc, out, _ = run("d-check", path("egp3"), "--m", 4, "--closure-budget", 26_788_319)
    assert (rc, out) == (4, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["d-check", "xor3", "--m", "0"],
        ["switchable", "xor3", "--r", "-1", "--n", "3"],
        ["switchable", "xor3", "--r", "1", "--n", "0"],
        ["dump", "d", "xor3", "--m", "0"],
        ["dump", "switch", "xor3", "--r", "-2", "--n", "3"],
    ],
    ids=["d-check-m0", "switchable-r-1", "switchable-n0", "dump-d-m0", "dump-switch-r-2"],
)
def test_out_of_range_sizes_exit_3(run, argv):
    argv = [str(path(a)) if a == "xor3" else a for a in argv]
    rc, out, err = run(*argv)
    assert (rc, out) == (3, "")
    assert err.startswith("genpow: precondition violated:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--closure-budget", "--exact-budget"])
def test_negative_budget_is_a_usage_error(run, flag):
    rc, out, err = run("growth", path("xor3"), "--n-max", 2, flag, -1)
    assert (rc, out) == (1, "")
    assert "budget must be >= 0" in err


def test_zero_budgets_are_legal(run):
    rc, out, _ = run("growth", path("xor3"), "--n-max", 2, "--exact-budget", 0)
    assert rc == 0
    assert out == "n,size,mode\n1,2,greedy\n2,3,greedy\n"
    rc, out, err = run("d-check", path("xor3"), "--m", 1, "--closure-budget", 0)
    assert (rc, out) == (4, "")
    assert err.startswith("genpow: budget exceeded: closure exceeded the step budget of 0")


def test_switchable(run):
    rc, out, _ = run("switchable", path("xor3"), "--r", 1, "--n", 2)
    assert rc == 0
    assert out == "n: 2\nr: 1\nseed-count: 4\nclosure-count: 4\nspace: 4\nfull: yes\n"
    rc, out, _ = run("switchable", path("xor3"), "--r", 0, "--n", 2)
    assert rc == 0
    assert out.endswith("full: no\n")


# -- growth -------------------------------------------------------------------


def test_growth_exact(run):
    rc, out, err = run("growth", path("xor3"), "--n-max", 4, "--mode", "exact")
    assert rc == 0
    assert out == "n,size,mode\n1,2,exact\n2,3,exact\n3,4,exact\n4,5,exact\n"
    assert err == ""


def test_growth_says_why_a_row_is_greedy(run):
    # egp3's exact search at n = 3 runs out of nodes; the row falls back to
    # greedy, and stderr says why while stdout keeps the CSV alone.
    rc, out, err = run("growth", path("egp3"), "--n-max", 3)
    assert rc == 0
    assert out == "n,size,mode\n1,2,exact\n2,4,exact\n3,11,greedy\n"
    assert err == "n = 3 greedy: exact search exceeded 20000 nodes at k**n = 27\n"
    rc, out, err = run("growth", path("xor3"), "--n-max", 3, "--exact-budget", 4)
    assert rc == 0
    assert out == "n,size,mode\n1,2,exact\n2,3,exact\n3,4,greedy\n"
    assert err == "n = 3 greedy: k**n = 8 exceeds the exact-search budget 4\n"
    rc, _, err = run("growth", path("egp3"), "--n-max", 3, "--mode", "greedy")
    assert rc == 0 and err == ""


def test_growth_greedy(run):
    # the ascending scan grabs all of 00, 01, 10, 11 before min closes the
    # gap, one more than the true minimum
    rc, out, _ = run("growth", path("min2"), "--n-max", 2, "--mode", "greedy")
    assert rc == 0
    assert out == "n,size,mode\n1,2,greedy\n2,4,greedy\n"


def test_growth_without_operations_does_not_list_every_tuple():
    # Every tuple generates itself, so row n has size 2**n.  Listing the
    # 2**21 tuples of the last row as Python tuples takes about 10 s and
    # 0.5 GB; the timeout turns that into a failure.
    proc = subprocess.run(
        [sys.executable, "-m", "genpow", "growth", str(path("projections_k2")),
         "--n-max", "21"],
        capture_output=True,
        text=True,
        timeout=4,
    )
    assert proc.returncode == 0
    rows = [f"{n},{2**n},exact" for n in range(1, 22)]
    assert proc.stdout == "\n".join(["n,size,mode", *rows]) + "\n"


def test_growth_rejects_bad_mode(run):
    rc, _, err = run("growth", path("min2"), "--n-max", 2, "--mode", "auto")
    assert rc == 1
    assert "invalid choice" in err


# -- witnesses ----------------------------------------------------------------


def test_witness_nice(run):
    rc, out, _ = run("witness", "nice", path("projections_k2"), "--r", 1, "--n", 3)
    assert rc == 0
    assert out == (
        "arity: 3\n"
        "block-lengths: 1 1 1\n"
        "excluded: 0 1 0\n"
        "base-arity: 3\n"
        "base-members: 6 of 8\n"
        "nice: yes\n"
    )


def test_witness_nice_refused_when_switchable(run):
    rc, _, err = run("witness", "nice", path("xor3"), "--r", 1, "--n", 3)
    assert rc == 3
    assert "no witness exists" in err


def test_witness_nice_missing_flags(run):
    rc, _, err = run("witness", "nice", path("xor3"))
    assert rc == 1
    assert "--r" in err and "--n" in err


def test_witness_sigma(run):
    rc, out, _ = run("witness", "sigma", path("projections_k2"), "--r", 7, "--n", 9)
    assert rc == 0
    assert out == (
        "arity: 4\n"
        "pair: (0, 1)\n"
        "multiplicity: 4\n"
        "excluded: 0 1 0 1\n"
        "members: 12 of 16\n"
    )


def test_witness_sigma_narrow_relation(run):
    rc, _, err = run("witness", "sigma", path("projections_k2"), "--r", 1, "--n", 3)
    assert rc == 3
    assert "must exceed" in err


@pytest.mark.parametrize("kind", ["nice", "sigma"])
def test_witness_scan_over_space_budget_exits_fast(kind):
    # 2^40 tuples exceed the space budget; the scan must refuse them, not
    # walk them.  A subprocess with a timeout turns a hang into a failure.
    proc = subprocess.run(
        [sys.executable, "-m", "genpow", "witness", kind, str(path("min2")),
         "--r", "1", "--n", "40"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("genpow: budget exceeded:")


def test_witness_scan_under_space_budget(run):
    rc, out, _ = run("witness", "nice", path("min2"), "--r", 1, "--n", 20)
    assert rc == 0
    assert out == (
        "arity: 3\n"
        "block-lengths: 1 18 1\n"
        "excluded: 1 0 1\n"
        "base-arity: 20\n"
        "base-members: 211 of 1048576\n"
        "nice: yes\n"
    )
    rc, out, err = run("witness", "sigma", path("min2"), "--r", 1, "--n", 20)
    assert rc == 3
    assert out == ""
    assert "must exceed" in err


def test_witness_counterexample(run):
    rc, out, _ = run(
        "witness", "counterexample", path("min2"),
        "--op", "min", "--alpha", "0", "--beta", "1",
    )
    assert rc == 0
    assert out == (
        "operation: min\n"
        "alpha: {0}\n"
        "beta: {1}\n"
        "rows: 4\n"
        "row 1: 1 0\n"
        "row 2: 1 1\n"
        "row 3: 0 1\n"
        "row 4: 1 1\n"
        "image: 0 1 0 1\n"
    )


def test_witness_counterexample_unknown_op(run):
    rc, _, err = run(
        "witness", "counterexample", path("min2"),
        "--op", "nope", "--alpha", "0", "--beta", "1",
    )
    assert rc == 3
    assert "no operation named 'nope'" in err


def test_witness_counterexample_projective_op(run):
    rc, _, err = run(
        "witness", "counterexample", path("egp3"),
        "--op", "f", "--alpha", "0,1", "--beta", "1,2",
    )
    assert rc == 3
    assert "projective at coordinate 1" in err


def test_witness_blocker(run):
    rc, out, _ = run(
        "witness", "blocker", path("projections_k2"), "--base", "0", "--n-max", 2
    )
    assert rc == 0
    assert out == "base: {0}\nn-max: 2\ncandidate: {0}\n"
    rc, out, _ = run(
        "witness", "blocker", path("xor3"), "--base", "0", "--n-max", 2
    )
    assert rc == 0
    assert out == "base: {0}\nn-max: 2\ncandidate: none\n"


def test_witness_blocker_grows(run):
    rc, out, _ = run(
        "witness", "blocker", path("egp3"), "--base", "1", "--n-max", 2
    )
    assert rc == 0
    assert out.endswith("candidate: {0, 1}\n")


# -- dump ---------------------------------------------------------------------


def test_dump_d(run):
    rc, out, _ = run("dump", "d", path("min2"), "--m", 1)
    assert rc == 0
    assert out == "0 0\n1 1\n"


def test_dump_d_closed_differs(run):
    rc, plain, _ = run("dump", "d", path("xor3"), "--m", 2)
    assert rc == 0
    rc, closed, _ = run("dump", "d", path("xor3"), "--m", 2, "--closed")
    assert rc == 0
    assert len(plain.splitlines()) == 12
    assert len(closed.splitlines()) == 16
    assert set(plain.splitlines()) < set(closed.splitlines())


def test_dump_switch(run):
    rc, out, _ = run("dump", "switch", path("min2"), "--r", 0, "--n", 3)
    assert rc == 0
    assert out == "0 0 0\n1 1 1\n"


def test_dump_sigma(run):
    rc, out, _ = run(
        "dump", "sigma", path("egp3"), "--alpha", "0,1", "--beta", "1,2", "--n", 1
    )
    assert rc == 0
    assert out == "0 0\n0 1\n1 0\n1 1\n1 2\n2 1\n2 2\n"


def test_dump_missing_parameter(run):
    rc, _, err = run("dump", "d", path("min2"))
    assert rc == 1
    assert "--m" in err


def test_dump_bad_subset(run):
    rc, _, err = run(
        "dump", "sigma", path("min2"), "--alpha", "0", "--beta", "0", "--n", 1
    )
    assert rc == 3
    assert "cover" in err


# -- argument handling ---------------------------------------------------------


def test_unknown_command(run):
    rc, _, err = run("frobnicate", path("min2"))
    assert rc == 1
    assert "invalid choice" in err


def test_bad_element_list(run):
    rc, _, err = run(
        "dump", "sigma", path("min2"), "--alpha", "zero", "--beta", "1", "--n", 1
    )
    assert rc == 1
    assert "comma-separated" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "COMMAND" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "genpow", "decide", str(path("min2"))],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "verdict: PGP\npairs checked: 1\n"
