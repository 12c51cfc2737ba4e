"""Closure rounds against a per-pattern reference.

A round that fits one grid batch and the step budget is evaluated whole;
every other round runs argument pattern by argument pattern, charging the
budget per batch.  closure and closure_extend run every round in numpy.
In the exact search's extend (subpower._extender), when every operation is
tabulated on A^n itself, the leading whole rounds of at most _SCALAR_CELLS
cells are tuple lookups, and the first round that does not qualify hands
the closure to numpy.  Sweeping the step budget across a closure's whole
cost sends its rounds down every way, and each budget must give the
result or the refusal message the reference gives.
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
    equal_pair_evidence,
)
from genpow.subpower import _extender
from tests.oracles import (
    brute_equal_pair_tuples,
    brute_subset_pair_relation,
    per_pattern_charges,
    random_op,
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


class Counted:
    """Counts the grids _grid_results evaluates, the insertions into a
    TupleSet, the calls of _scalar_rounds with the closures it hands to the
    numpy loop, and the lookup tables asked for."""

    def __init__(self, monkeypatch):
        self.grids, self.insertions, self.handovers, self.tables = [], [], [], []
        self.lookup_calls = 0
        grid_results = genpow.subpower._grid_results
        insert = TupleSet.add_encodings_array
        scalar_rounds = genpow.subpower._scalar_rounds
        lookup_table = genpow.subpower._lookup_table

        def counted_table(op, n):
            self.tables.append((op.name, n))
            return lookup_table(op, n)

        def counted_grid(columns, groups):
            self.grids.append(len(groups))
            return grid_results(columns, groups)

        def counted_insert(ts, arr):
            self.insertions.append(arr.size)
            return insert(ts, arr)

        def counted_scalar(*args):
            self.lookup_calls += 1
            state = scalar_rounds(*args)
            if state is not None:
                self.handovers.append(state[1])
            return state

        monkeypatch.setattr(genpow.subpower, "_grid_results", counted_grid)
        monkeypatch.setattr(TupleSet, "add_encodings_array", counted_insert)
        monkeypatch.setattr(genpow.subpower, "_scalar_rounds", counted_scalar)
        monkeypatch.setattr(genpow.subpower, "_lookup_table", counted_table)


def round_cells(charges):
    """Cells of each round of the reference, in order."""
    cells = {}
    for _, count, rounds, _ in charges:
        cells[rounds] = cells.get(rounds, 0) + count
    return [cells[r] for r in sorted(cells)]


def test_whole_round_makes_s_grids_per_operation_and_one_insertion(maj3, monkeypatch):
    # The closure of these seeds in majority3's A^5 has 9 tuples; adding 8
    # gives a proper subpower of 20 tuples after 3 rounds.  Each round has
    # more than _SCALAR_CELLS cells and fits one batch, so each is one
    # numpy whole round, as every round of closure_extend is.
    closed = closure(maj3, TupleSet.from_encodings(2, 5, [7, 14, 21, 26, 27, 30]))
    members, charges = per_pattern_charges(maj3, [decode_tuple(8, 2, 5)], old=set(closed))
    cells = round_cells(charges)
    assert (len(closed), len(members), len(cells)) == (9, 20, 3)
    assert min(cells) > genpow.subpower._SCALAR_CELLS
    assert max(cells) <= genpow.subpower._CHUNK_CELLS
    counted = Counted(monkeypatch)
    widened = closure_extend(maj3, closed, [8])
    monkeypatch.undo()
    assert set(widened) == members
    assert counted.handovers == []
    assert counted.tables == []
    assert counted.grids == [3] * 3 * len(cells)
    assert len(counted.insertions) == len(cells)


def test_tiny_rounds_make_no_grid(egp3, monkeypatch):
    # closure({2, 26}) on egp3 at A^3 has 3 tuples; adding 6 gives a proper
    # subpower of 12 tuples after 4 rounds of at most 57 cells.  egp3 is
    # tabulated on A^3 itself, so in the search's extend every round is a
    # tuple lookup per cell.
    closed = closure(egp3, TupleSet.from_encodings(3, 3, [2, 26]))
    members, charges = per_pattern_charges(egp3, [decode_tuple(6, 3, 3)], old=set(closed))
    cells = round_cells(charges)
    assert (len(closed), len(members), len(cells)) == (3, 12, 4)
    assert max(cells) <= genpow.subpower._SCALAR_CELLS
    counted = Counted(monkeypatch)
    widened = _extender(egp3, 3, LIMITS)(closed.encodings().tolist(), 6)
    monkeypatch.undo()
    assert {decode_tuple(e, 3, 3) for e in widened} == members
    assert counted.grids == counted.insertions == counted.handovers == []
    assert counted.tables == [("f", 3)]


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


# egp3 closures in A^4 whose leading rounds have at most _SCALAR_CELLS
# cells and whose later rounds have more: (seeds, extra tuple or None,
# tuples).  closure and closure_extend run them in numpy alone.
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
    assert counted.lookup_calls == 0 and counted.tables == []
    assert_sweep(run, charges, members, 81, ("egp3", case), charge_edges(charges))


# Extensions of egp3 closures in A^4 by one tuple that the search's extend
# starts as tuple lookups and hands to numpy: (seeds, extra tuple, tuples,
# rounds before the handover).
EXTENSIONS = [
    ([1, 54, 57, 62, 80], 0, 32, 2),
    ([3, 11, 18, 54], 29, 29, 1),
]


@pytest.mark.parametrize("dense", [LIMITS.dense, 0], ids=["dense", "sparse"])
@pytest.mark.parametrize("case", range(len(EXTENSIONS)))
def test_extend_budget_sweep_across_the_handover(egp3, monkeypatch, dense, case):
    encodings, extra, size, scalar = EXTENSIONS[case]
    closed = closure(egp3, TupleSet.from_encodings(3, 4, encodings))
    members, charges = per_pattern_charges(
        egp3, [decode_tuple(extra, 3, 4)], old=set(closed)
    )
    run = lambda b: _extender(egp3, 4, Limits(steps=b, dense=dense))(
        closed.encodings().tolist(), extra
    )
    counted = Counted(monkeypatch)
    assert len(run(LIMITS.steps)) == len(members) == size
    monkeypatch.undo()
    assert counted.handovers == [scalar]
    assert_sweep(run, charges, members, 81, ("egp3", case), charge_edges(charges))


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
