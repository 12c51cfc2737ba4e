"""Closure rounds against a per-pattern reference.

A round that fits one grid batch and the step budget is evaluated whole;
every other round runs argument pattern by argument pattern, charging the
budget per batch.  closure and closure_extend run every round in numpy.
In the exact search's extend (subpower._extender), when every operation is
tabulated on A^n itself, every whole round runs on bit masks, OR-ing image
masks from the operations' _image_tables, and only a round over the step
budget hands the closure to numpy.  Sweeping the step budget across a
closure's whole cost sends its rounds down every way, and each budget must
give the result or the refusal message the reference gives.
"""

import random

import pytest

import genpow.subpower
from genpow import (
    LIMITS,
    Algebra,
    BudgetExceededError,
    Limits,
    TupleSet,
    closure,
    closure_extend,
    decode_tuple,
    encode_tuple,
    equal_pair_evidence,
)
from genpow.subpower import _block_columns, _extender
from tests.oracles import (
    brute_closure,
    brute_equal_pair_tuples,
    brute_subset_pair_relation,
    per_pattern_charges,
    random_op,
    random_table_op,
)


SEEDED = {
    "binary_k3": Algebra(k=3, operations=(random_op(3, 2, 1),)),
    "ternary_k2": Algebra(k=2, operations=(random_op(2, 3, 2),)),
    "two_ops_k2": Algebra(k=2, operations=(random_op(2, 2, 3), random_op(2, 3, 4))),
}


def expected(charges, members, space, budget):
    """The reference's size, or the refusal of the first charge over budget."""
    for steps, cells, rounds, size in charges:
        if steps + cells > budget:
            return (
                f"closure exceeded the step budget of {budget:,} combination "
                f"applications (rounds completed: {rounds}, "
                f"tuples: {size:,} of {space:,}, steps applied: {steps:,})"
            )
    return len(members)


def outcome(run):
    """The size run() reports, or its refusal message."""
    try:
        result = run()
    except BudgetExceededError as exc:
        return str(exc)
    return result if isinstance(result, int) else len(result)


def assert_sweep(run, charges, members, space, case, budgets=None):
    """run(limits) agrees with the reference at every step budget from 0
    to one past the reference's whole cost, or at the given budgets."""
    total = sum(cells for _, cells, _, _ in charges)
    for budget in range(total + 2) if budgets is None else budgets:
        got = outcome(lambda: run(budget))
        assert got == expected(charges, members, space, budget), (*case, budget)


@pytest.mark.parametrize("dense", [LIMITS.dense, 0], ids=["dense", "sparse"])
def test_budget_sweep_matches_per_pattern_reference(corpus, non_idem, dense):
    rng = random.Random(11)
    algebras = {**corpus, "non_idempotent": non_idem, **SEEDED}
    for name, alg in algebras.items():
        k = alg.k
        for n in (1, 2, 3):
            space = k**n
            for count in (1, 2, 3):
                encodings = rng.sample(range(space), min(count, space))
                seeds = [decode_tuple(e, k, n) for e in encodings]
                ts = TupleSet.from_tuples(k, n, seeds, limits=Limits(dense=dense))
                members, charges = per_pattern_charges(alg, seeds)
                closed = closure(alg, ts)
                assert set(closed) == members, (name, n, count)
                assert_sweep(
                    lambda b: closure(alg, ts, limits=Limits(steps=b, dense=dense)),
                    charges, members, space, (name, n, count),
                )
                # closure_extend's first round has tuples known before it.
                outside = [e for e in range(space) if not closed.has_encoding(e)]
                if not outside:
                    continue
                extra = rng.choice(outside)
                members, charges = per_pattern_charges(
                    alg, [decode_tuple(extra, k, n)], old=members
                )
                assert_sweep(
                    lambda b: closure_extend(
                        alg, closed, [extra], limits=Limits(steps=b, dense=dense)
                    ),
                    charges, members, space, (name, n, count, extra),
                )


def mask(encodings):
    """The bit mask of a set of encodings."""
    return sum(1 << e for e in set(encodings))


def run_extend(algebra, n, limits, closed, extra):
    """The search's extend of a closed TupleSet by one tuple, as encodings."""
    grown = _extender(algebra, n, limits)(mask(closed.encodings().tolist()), extra)
    return [e for e in range(algebra.k**n) if grown >> e & 1]


class Counted:
    """Counts the grids _grid_results evaluates, the insertions into a
    TupleSet, the calls of the numpy rounds in _saturate with the rounds they
    carry in, and the image tables built."""

    def __init__(self, monkeypatch):
        self.grids, self.insertions, self.handovers, self.tables = [], [], [], []
        grid_results = genpow.subpower._grid_results
        insert = TupleSet.add_encodings_array
        saturate = genpow.subpower._saturate
        image_tables = genpow.subpower._image_tables

        def counted_table(op, n):
            self.tables.append((op.name, n))
            return image_tables(op, n)

        def counted_grid(columns, groups):
            self.grids.append(len(groups))
            return grid_results(columns, groups)

        def counted_insert(ts, arr):
            self.insertions.append(arr.size)
            return insert(ts, arr)

        def counted_saturate(*args, **kwargs):
            rounds = args[7] if len(args) > 7 else kwargs.get("rounds", 0)
            self.handovers.append(rounds)
            return saturate(*args, **kwargs)

        monkeypatch.setattr(genpow.subpower, "_grid_results", counted_grid)
        monkeypatch.setattr(TupleSet, "add_encodings_array", counted_insert)
        monkeypatch.setattr(genpow.subpower, "_saturate", counted_saturate)
        monkeypatch.setattr(genpow.subpower, "_image_tables", counted_table)


def round_cells(charges):
    """Cells of each round of the reference, in order."""
    cells = {}
    for _, count, rounds, _ in charges:
        cells[rounds] = cells.get(rounds, 0) + count
    return [cells[r] for r in sorted(cells)]


def test_whole_round_makes_s_grids_per_operation_and_one_insertion(maj3, monkeypatch):
    # The closure of these seeds in majority3's A^5 has 9 tuples; adding 8
    # gives a proper subpower of 20 tuples after 3 rounds.  Each round fits
    # one batch, so each is one numpy whole round, as every round of
    # closure_extend is.
    closed = closure(maj3, TupleSet.from_encodings(2, 5, [7, 14, 21, 26, 27, 30]))
    members, charges = per_pattern_charges(maj3, [decode_tuple(8, 2, 5)], old=set(closed))
    cells = round_cells(charges)
    assert (len(closed), len(members), len(cells)) == (9, 20, 3)
    assert max(cells) <= genpow.subpower._CHUNK_CELLS
    counted = Counted(monkeypatch)
    widened = closure_extend(maj3, closed, [8])
    monkeypatch.undo()
    assert set(widened) == members
    assert counted.handovers == [0]
    assert counted.tables == []
    assert counted.grids == [3] * 3 * len(cells)
    assert len(counted.insertions) == len(cells)


def test_tiny_rounds_make_no_grid(egp3, monkeypatch):
    # closure({2, 26}) on egp3 at A^3 has 3 tuples; adding 6 gives a proper
    # subpower of 12 tuples after 4 rounds of at most 57 cells.  egp3 is
    # tabulated on A^3 itself, so in the search's extend every round runs
    # on bit masks.
    closed = closure(egp3, TupleSet.from_encodings(3, 3, [2, 26]))
    members, charges = per_pattern_charges(egp3, [decode_tuple(6, 3, 3)], old=set(closed))
    cells = round_cells(charges)
    assert (len(closed), len(members), len(cells)) == (3, 12, 4)
    counted = Counted(monkeypatch)
    widened = run_extend(egp3, 3, LIMITS, closed, 6)
    monkeypatch.undo()
    assert {decode_tuple(e, 3, 3) for e in widened} == members
    assert counted.grids == counted.insertions == counted.handovers == []
    assert counted.tables == [("f", 3)]


# One-block algebras for the mask rounds, with the largest power they are
# checked at: every operation is tabulated on A^n itself up to there.
UNARY_K3 = Algebra(k=3, operations=(random_table_op(3, 1, random.Random(5), False),))
MASK_CASES = {
    "unary_k3": (UNARY_K3, 3),
    "binary_k3": (SEEDED["binary_k3"], 3),
    "ternary_k2": (SEEDED["ternary_k2"], 4),
    "two_ops_k2": (SEEDED["two_ops_k2"], 4),
}


@pytest.mark.parametrize("name", sorted(MASK_CASES))
def test_mask_rounds_match_the_oracle(name, monkeypatch):
    # extend of the closure of 0-3 random seeds (the empty set too) by a
    # random tuple outside it, against a full-rescan closure; every round
    # runs on masks, with no grid and no handover to numpy.
    algebra, n_max = MASK_CASES[name]
    k = algebra.k
    rng = random.Random(name)
    for n in range(1, n_max + 1):
        for op in algebra.operations:
            genpow.subpower._power_table(op, n)  # built once, by grids
    counted = Counted(monkeypatch)
    checked = 0
    for n in range(1, n_max + 1):
        assert all(_block_columns(op, n)[0] == n for op in algebra.operations)
        space = k**n
        extend = _extender(algebra, n, LIMITS)
        for _ in range(12):
            picks = rng.sample(range(space), rng.randint(0, min(3, space)))
            members = brute_closure(algebra, [decode_tuple(e, k, n) for e in picks])
            outside = [e for e in range(space) if decode_tuple(e, k, n) not in members]
            if not outside:
                continue
            extra = rng.choice(outside)
            widened = brute_closure(algebra, [*members, decode_tuple(extra, k, n)])
            closed = mask(encode_tuple(t, k) for t in members)
            assert extend(closed, extra) == mask(encode_tuple(t, k) for t in widened), (
                name, n, picks, extra,
            )
            checked += 1
    monkeypatch.undo()
    assert checked >= 2 * n_max, checked
    assert counted.grids == counted.insertions == counted.handovers == []
    assert len(counted.tables) == n_max * len(algebra.operations)


def test_tiny_rounds_stop_at_the_full_power(xor3, monkeypatch):
    # Three tuples of A^2 span it affinely.  Round 0 (27 cells) fills it,
    # and the closure stops before it charges round 1 (37 cells).
    seeds = [(0, 0), (0, 1), (1, 0)]
    members, charges = per_pattern_charges(xor3, seeds)
    assert (len(members), round_cells(charges)) == (4, [27])
    charged = []
    charge = Limits.charge_steps

    def counted_charge(limits, steps, cells, rounds, result):
        charged.append(cells)
        return charge(limits, steps, cells, rounds, result)

    monkeypatch.setattr(Limits, "charge_steps", counted_charge)
    assert len(closure(xor3, TupleSet.from_tuples(2, 2, seeds))) == 4
    assert charged == [27]


def test_mask_rounds_stop_at_the_full_power(xor3, monkeypatch):
    # {00, 01} is closed under xor3; extending it by 10 fills A^2 in round
    # 0 (3**3 - 2**3 = 19 cells), and extend stops before it charges
    # round 1, as closure does.
    charged = []
    charge = Limits.charge_steps

    def counted_charge(limits, steps, cells, rounds, result):
        charged.append(cells)
        return charge(limits, steps, cells, rounds, result)

    extend = _extender(xor3, 2, LIMITS)
    monkeypatch.setattr(Limits, "charge_steps", counted_charge)
    assert extend(mask([0, 1]), 2) == mask(range(4))
    assert charged == [19]


# egp3 closures in A^4 of several rounds: (seeds, extra tuple or None,
# tuples).  closure and closure_extend run them in numpy alone, in one
# _saturate call from round 0.
HANDOVERS = [
    ([3, 11, 18, 54], None, 23),
    ([24, 32, 60, 74, 78, 80], None, 25),
    ([3, 11, 18, 54], 29, 29),
]


def charge_edges(charges):
    """0, one past the whole cost, and every budget where a charge starts
    to fit with one step either side: the outcome changes only there."""
    need = sum(cells for _, cells, _, _ in charges)
    return {0, need + 1} | {
        steps + cells + d for steps, cells, _, _ in charges for d in (-1, 0, 1)
    }


@pytest.mark.parametrize("dense", [LIMITS.dense, 0], ids=["dense", "sparse"])
@pytest.mark.parametrize("case", range(len(HANDOVERS)))
def test_budget_sweep_across_the_handover(egp3, monkeypatch, dense, case):
    encodings, extra, size = HANDOVERS[case]
    seeds = [decode_tuple(e, 3, 4) for e in encodings]
    ts = TupleSet.from_tuples(3, 4, seeds, limits=Limits(dense=dense))
    members, charges = per_pattern_charges(egp3, seeds)
    run = lambda b: closure(egp3, ts, limits=Limits(steps=b, dense=dense))
    if extra is not None:
        closed = closure(egp3, ts)
        members, charges = per_pattern_charges(
            egp3, [decode_tuple(extra, 3, 4)], old=members
        )
        run = lambda b: closure_extend(
            egp3, closed, [extra], limits=Limits(steps=b, dense=dense)
        )
    counted = Counted(monkeypatch)
    assert len(run(LIMITS.steps)) == len(members) == size
    monkeypatch.undo()
    assert counted.handovers == [0] and counted.tables == []
    assert_sweep(run, charges, members, 81, ("egp3", case), charge_edges(charges))


# Extensions of egp3 closures in A^4 by one tuple in the search's extend:
# (seeds, extra tuple, tuples, rounds).  With the step budget to spare
# every round runs on masks; a budget that cannot afford round r hands the
# closure to numpy with r rounds carried.
EXTENSIONS = [
    ([1, 54, 57, 62, 80], 0, 32, 3),
    ([3, 11, 18, 54], 29, 29, 2),
]


@pytest.mark.parametrize("dense", [LIMITS.dense, 0], ids=["dense", "sparse"])
@pytest.mark.parametrize("case", range(len(EXTENSIONS)))
def test_extend_budget_sweep_across_the_handover(egp3, monkeypatch, dense, case):
    encodings, extra, size, rounds = EXTENSIONS[case]
    closed = closure(egp3, TupleSet.from_encodings(3, 4, encodings))
    members, charges = per_pattern_charges(
        egp3, [decode_tuple(extra, 3, 4)], old=set(closed)
    )
    assert len(round_cells(charges)) == rounds
    run = lambda b: run_extend(egp3, 4, Limits(steps=b, dense=dense), closed, extra)
    counted = Counted(monkeypatch)
    assert len(run(LIMITS.steps)) == len(members) == size
    assert counted.handovers == []
    assert_sweep(run, charges, members, 81, ("egp3", case), charge_edges(charges))
    monkeypatch.undo()
    assert set(counted.handovers) == set(range(rounds))


@pytest.mark.parametrize("m", [2, 3])
def test_ceiling_budget_sweep_matches_per_pattern_reference(egp3, m):
    # d-check stops egp3's closure at |R_m| of its EGP pair {0, 1}, {1, 2}.
    # The reference cuts patterns into the engine's 2**16-cell batches.
    seeds = brute_equal_pair_tuples(3, m)
    ceiling = len(brute_subset_pair_relation(3, {0, 1}, {1, 2}, m))
    members, charges = per_pattern_charges(egp3, seeds, stop=ceiling, batch=1 << 16)
    need = sum(cells for _, cells, _, _ in charges)
    assert (len(members), need) == {2: (77, 2_025), 3: (721, 260_604)}[m]
    budgets = None
    if m == 3:
        # 260,606 closures are too many for the suite; the reference's
        # outcome changes only where a charge starts to fit, so check
        # there and one step either side.
        budgets = charge_edges(charges)
    assert_sweep(
        lambda b: equal_pair_evidence(egp3, m, limits=Limits(steps=b)).closure_count,
        charges, members, 3 ** (2 * m), ("egp3", m), budgets,
    )
