"""Closure rounds against a per-pattern reference.

A round that fits one grid batch and the step budget is evaluated whole;
every other round runs argument pattern by argument pattern, charging the
budget per batch.  Sweeping the step budget across a closure's whole cost
sends its rounds down both ways, and each budget must give the result or
the refusal message the reference gives.
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


def test_whole_round_makes_s_grids_per_operation_and_one_insertion(egp3, monkeypatch):
    # closure({2, 26}) on egp3 at A^3 has 3 tuples; adding 6 gives a proper
    # subpower of 12 tuples after 4 rounds, each of which fits one batch.
    closed = closure(egp3, TupleSet.from_encodings(3, 3, [2, 26]))
    members, charges = per_pattern_charges(egp3, [decode_tuple(6, 3, 3)], old=set(closed))
    rounds = charges[-1][2] + 1
    assert (len(closed), len(members), rounds) == (3, 12, 4)
    grids, insertions = [], []
    grid_results = genpow.subpower._grid_results
    insert = TupleSet.add_encodings_array

    def counted_grid(columns, groups):
        grids.append(len(groups))
        return grid_results(columns, groups)

    def counted_insert(self, arr):
        insertions.append(arr.size)
        return insert(self, arr)

    monkeypatch.setattr(genpow.subpower, "_grid_results", counted_grid)
    monkeypatch.setattr(TupleSet, "add_encodings_array", counted_insert)
    widened = closure_extend(egp3, closed, [6])
    monkeypatch.undo()
    assert set(widened) == members
    s = egp3.operations[0].arity
    assert len(grids) <= s * rounds
    assert len(insertions) <= rounds


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
        budgets = {0, need + 1} | {
            steps + cells + d for steps, cells, _, _ in charges for d in (-1, 0, 1)
        }
    assert_sweep(
        lambda b: equal_pair_evidence(egp3, m, limits=Limits(steps=b)).closure_count,
        charges, members, 3 ** (2 * m), ("egp3", m), budgets,
    )
