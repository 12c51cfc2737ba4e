"""Closure rounds against a per-grid reference.

closure and closure_extend run every round in numpy, as s grids per s-ary
operation, each cut into batches of at most 2**16 cells and charged to the
step budget batch by batch.  In the exact search's extend
(subpower._extender), when every operation is tabulated on A^n itself,
every round that fits the step budget runs whole on bit masks, OR-ing
image masks from the operations' _image_tables, and when a round does not
fit the whole closure goes to numpy from round 0.  Sweeping the step
budget across a closure's whole cost sends its rounds down every way, and
each budget must give the result or the refusal message the reference
gives.
"""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

import genpow.subpower
from genpow import (
    LIMITS,
    Algebra,
    BudgetExceededError,
    Limits,
    OperationTable,
    TupleSet,
    closure,
    closure_extend,
    decode_tuple,
    encode_tuple,
    equal_pair_evidence,
)
from genpow.subpower import _block_columns, _extender, _round_grids
from tests.oracles import (
    apply_op,
    brute_closure,
    brute_equal_pair_tuples,
    brute_subset_pair_relation,
    brute_switch_tuples,
    is_symmetric,
    per_grid_charges,
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


@pytest.mark.parametrize("backend", ["dense", "sparse"], indirect=True)
def test_budget_sweep_matches_per_pattern_reference(corpus, non_idem, backend):
    # Besides 1-3 random seeds, the tuples with at most r switches at n = 3
    # (r = 0, 1): reversing the coordinates maps them onto themselves.
    rng = random.Random(11)
    algebras = {**corpus, "non_idempotent": non_idem, **SEEDED}
    for name, alg in algebras.items():
        k = alg.k
        for n in (1, 2, 3):
            space = k**n
            for count in (1, 2, 3) + (("r0", "r1") if n == 3 else ()):
                if isinstance(count, int):
                    encodings = rng.sample(range(space), min(count, space))
                    seeds = [decode_tuple(e, k, n) for e in encodings]
                else:
                    seeds = sorted(brute_switch_tuples(k, n, int(count[1])))
                ts = TupleSet.from_tuples(k, n, seeds)
                members, charges = per_grid_charges(alg, seeds)
                closed = closure(alg, ts)
                assert set(closed) == members, (name, n, count)
                assert_sweep(
                    lambda b: closure(alg, ts, limits=Limits(steps=b)),
                    charges, members, space, (name, n, count),
                )
                # closure_extend's first round has tuples known before it.
                outside = [e for e in range(space) if not closed.has_encoding(e)]
                if not outside:
                    continue
                extra = rng.choice(outside)
                members, charges = per_grid_charges(
                    alg, [decode_tuple(extra, k, n)], old=members
                )
                assert_sweep(
                    lambda b: closure_extend(
                        alg, closed, [extra], limits=Limits(steps=b)
                    ),
                    charges, members, space, (name, n, count, extra),
                )


def frontier_cells(algebra, old, seeds):
    """Cells of each round of the semi-naive closure of `old | seeds`,
    `old` already closed, from a full-rescan closure: the set known at
    each round is the one before with the images of all its argument
    combinations, and a round's cells are the combinations of its set
    that are not combinations of the set before, or for a symmetric
    operation those whose first argument is not in the set before."""
    before, known = set(old), set(old) | set(seeds)
    width = len(next(iter(known)))
    cells = []
    while known != before:
        cells.append(sum(
            (len(known) - len(before)) * len(known)**(op.arity - 1)
            if is_symmetric(op) else len(known)**op.arity - len(before)**op.arity
            for op in algebra.operations
        ))
        images = {
            tuple(apply_op(op, [row[c] for row in args]) for c in range(width))
            for op in algebra.operations
            for args in itertools.product(known, repeat=op.arity)
        }
        before, known = known, known | images
    return cells


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_per_grid_reference_charges_each_frontier_combination_once(arity):
    # A check of the reference that runs no genpow closure: with a stop no
    # set reaches, the cells it charges in each round add up to the sum over
    # operations of |old | new|**s - |old|**s, or |new| * |old | new|**(s-1)
    # for a symmetric one, whose sets here are too small to cut into runs.
    rng = random.Random(arity)
    rounds = []
    for case in range(20):
        k, n = rng.choice([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
        arities = [arity] + rng.sample([1, 2, 3], rng.randint(0, 1))
        algebra = Algebra(k=k, operations=tuple(
            random_table_op(k, s, rng, rng.random() < 0.5, name=f"f{j}")
            for j, s in enumerate(arities)
        ))
        everything = list(itertools.product(range(k), repeat=n))
        old = brute_closure(algebra, rng.sample(everything, rng.randint(0, 1)))
        outside = [t for t in everything if t not in old]
        if not outside:
            continue
        seeds = rng.sample(outside, min(len(outside), rng.randint(1, 2)))
        members, charges = per_grid_charges(algebra, seeds, old=old, stop=k**n + 1)
        cells = frontier_cells(algebra, old, seeds)
        assert members == brute_closure(algebra, [*old, *seeds]), case
        assert round_cells(charges) == cells, case
        rounds.append(len(cells))
    assert len(rounds) >= 15 and max(rounds) >= 2, rounds


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [1, 12, 64, genpow.subpower._CHUNK_CELLS])
def test_round_grids_hold_each_frontier_combination(s, batch, monkeypatch):
    # Index arrays for old {0, 2, 5} and the frontier {1, 3, 4}, interleaved
    # as a round's sets can be.  The uncut grids of a non-symmetric
    # operation hold every argument tuple that touches the frontier exactly
    # once; a symmetric operation's uncut grid holds every such multiset.
    # Its prefix runs, whatever batch sets the run length, hold no tuple
    # twice, no more cells, and every tuple whose argument 0 is a frontier
    # member at the latest position of the sequence old then frontier, so
    # every such multiset.  With runs of one row they hold just those
    # tuples, and at s <= 2 each multiset exactly once.  On the role
    # tokens the extend kernel passes, the same uncut grids come back.
    monkeypatch.setattr(genpow.subpower, "_CHUNK_CELLS", batch)
    old, new, union = np.array([0, 2, 5]), np.array([1, 3, 4]), np.arange(6)
    touching = [t for t in itertools.product(range(6), repeat=s) if {1, 3, 4} & set(t)]
    multisets = {tuple(sorted(t)) for t in touching}
    position = {x: i for i, x in enumerate([0, 2, 5, 1, 3, 4])}
    latest_first = [
        t for t in touching
        if t[0] in (1, 3, 4) and position[t[0]] == max(map(position.get, t))
    ]

    def cells(symmetric, runs):
        grids = _round_grids(s, symmetric, runs, old, new, union, None)
        return [t for groups in grids for t in itertools.product(*groups)]

    def roles(symmetric):
        grids = _round_grids(s, symmetric, False, 0, 1, 2, None)
        sets = (old, new, union)
        return [t for groups in grids for t in itertools.product(*(sets[g] for g in groups))]

    assert Counter(cells(False, False)) == Counter(touching)
    assert Counter(cells(False, True)) == Counter(touching)
    assert {tuple(sorted(t)) for t in cells(True, False)} == multisets
    runs = cells(True, True)
    assert len(set(runs)) == len(runs) <= len(cells(True, False))
    assert set(latest_first) <= set(runs) <= {t for t in touching if t[0] in (1, 3, 4)}
    if batch // 6 ** (s - 1) <= 1:
        assert Counter(runs) == Counter(latest_first)
        if s <= 2:
            assert Counter(tuple(sorted(t)) for t in runs) == Counter(multisets)
    for symmetric in (False, True):
        assert roles(symmetric) == cells(symmetric, False)


def mask(encodings):
    """The bit mask of a set of encodings."""
    return sum(1 << e for e in set(encodings))


def run_extend(algebra, n, limits, closed, extra):
    """The search's extend of a closed TupleSet by one tuple, as encodings."""
    grown = _extender(algebra, n, limits)(mask(closed.encodings().tolist()), extra)
    return [e for e in range(algebra.k**n) if grown >> e & 1]


class Counted:
    """Counts the grids _grid_results evaluates, the insertions into a
    TupleSet, the calls of the numpy rounds in _saturate with the sets
    (old, new) they start from, as encodings, and the image tables built."""

    def __init__(self, monkeypatch):
        self.grids, self.insertions, self.saturates, self.tables = [], [], [], []
        grid_results = genpow.subpower._grid_results
        insert = TupleSet.add_encodings_array
        saturate = genpow.subpower._saturate
        image_tables = genpow.subpower._image_tables

        def counted_table(op, n, *args):
            self.tables.append((op.name, n))
            return image_tables(op, n, *args)

        def counted_grid(columns, groups):
            self.grids.append(len(groups))
            return grid_results(columns, groups)

        def counted_insert(ts, arr):
            self.insertions.append(arr.size)
            return insert(ts, arr)

        def counted_saturate(algebra, result, old, new, *args):
            self.saturates.append((tuple(map(int, old)), tuple(map(int, new))))
            return saturate(algebra, result, old, new, *args)

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


# if-then-else, ite(x, y, z) = y if x else z: a ternary operation that is
# not symmetric.
ITE = Algebra(k=2, operations=(
    OperationTable(name="ite", arity=3, k=2, table=(0, 1, 0, 1, 0, 0, 1, 1)),
))


def assert_round_grids(monkeypatch, algebra, seeds, extra, sizes, per_round):
    """Closes the seeds in A^5, checks the closure's size, the extension's
    size and rounds against `sizes`, and that closure_extend by `extra`
    makes `per_round` grids a round, each one batch with one insertion,
    after the extra tuple's own bulk insertion."""
    closed = closure(algebra, TupleSet.from_encodings(2, 5, seeds))
    members, charges = per_grid_charges(
        algebra, [decode_tuple(extra, 2, 5)], old=set(closed)
    )
    cells = round_cells(charges)
    assert (len(closed), len(members), len(cells)) == sizes
    assert max(cells) <= genpow.subpower._CHUNK_CELLS
    counted = Counted(monkeypatch)
    widened = closure_extend(algebra, closed, [extra])
    monkeypatch.undo()
    assert set(widened) == members
    assert counted.saturates == [(tuple(closed.encodings().tolist()), (extra,))]
    assert counted.tables == []
    assert counted.grids == [3] * per_round * len(cells)
    assert len(counted.insertions) == 1 + per_round * len(cells)
    assert counted.insertions[0] == 1


def test_round_makes_s_grids_per_operation_and_one_insertion_per_grid(monkeypatch):
    # The closure of these seeds under ite in A^5 has 4 tuples; adding 16
    # gives a proper subpower of 16 tuples after 3 rounds.  Each round fits
    # one batch, so each of its 3 grids is one batch with one insertion.
    assert_round_grids(monkeypatch, ITE, [11, 14, 15], 16, (4, 16, 3), 3)


def test_symmetric_round_makes_one_grid_per_operation(maj3, monkeypatch):
    # The closure of these seeds in majority3's A^5 has 9 tuples; adding 8
    # gives a proper subpower of 20 tuples after 3 rounds.  maj ignores the
    # order of its arguments, so each round runs one grid, whose frontier
    # rows are one run: 100, 3,249 and 400 cells.
    assert_round_grids(monkeypatch, maj3, [7, 14, 21, 26, 27, 30], 8, (9, 20, 3), 1)


def test_tiny_rounds_make_no_grid(egp3, monkeypatch):
    # closure({2, 26}) on egp3 at A^3 has 3 tuples; adding 6 gives a proper
    # subpower of 12 tuples after 4 rounds of at most 57 cells.  egp3 is
    # tabulated on A^3 itself, so in the search's extend every round runs
    # on bit masks.
    closed = closure(egp3, TupleSet.from_encodings(3, 3, [2, 26]))
    members, charges = per_grid_charges(egp3, [decode_tuple(6, 3, 3)], old=set(closed))
    cells = round_cells(charges)
    assert (len(closed), len(members), len(cells)) == (3, 12, 4)
    counted = Counted(monkeypatch)
    widened = run_extend(egp3, 3, LIMITS, closed, 6)
    monkeypatch.undo()
    assert {decode_tuple(e, 3, 3) for e in widened} == members
    assert counted.grids == counted.insertions == counted.saturates == []
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
    assert counted.grids == counted.insertions == counted.saturates == []
    assert len(counted.tables) == n_max * len(algebra.operations)


def test_tiny_rounds_stop_at_the_full_power(xor3, monkeypatch):
    # Three tuples of A^2 span it affinely.  They are invariant under
    # swapping the pair's coordinates, so round 0 draws its first argument
    # from the 2 orbit representatives (2 * 3 * 3 = 18 cells) and fills
    # A^2; the closure stops before it charges round 1 (37 cells).
    seeds = [(0, 0), (0, 1), (1, 0)]
    members, charges = per_grid_charges(xor3, seeds)
    assert (len(members), round_cells(charges)) == (4, [18])
    charged = []
    charge = Limits.charge_steps

    def counted_charge(limits, steps, cells, rounds, result):
        charged.append(cells)
        return charge(limits, steps, cells, rounds, result)

    monkeypatch.setattr(Limits, "charge_steps", counted_charge)
    assert len(closure(xor3, TupleSet.from_tuples(2, 2, seeds))) == 4
    assert charged == [18]


def record_limits(monkeypatch):
    """The names of the public Limits methods called from here on."""
    called = []

    def recorded(name, method):
        def record(*args):
            called.append(name)
            return method(*args)
        return record

    for name, method in vars(Limits).items():
        if callable(method) and not name.startswith("_"):
            monkeypatch.setattr(Limits, name, recorded(name, method))
    return called


def test_mask_rounds_stop_at_the_full_power(monkeypatch):
    # {00, 01} is closed under ite; extending it by 10 fills A^2 in round
    # 0 (3**3 - 2**3 = 19 cells).  At a budget of 19, extend stops before
    # it sums round 1, as closure_extend stops before it charges it, and
    # the mask rounds call no Limits method.  At 18, extend hands the
    # closure to _saturate from {00, 01} and 10, which fills A^2 in the
    # round's first batch of 4 cells, as closure_extend does.
    closed = TupleSet.from_encodings(2, 2, [0, 1])
    assert len(closure_extend(ITE, closed, [2], limits=Limits(steps=18))) == 4
    fits, over = (_extender(ITE, 2, Limits(steps=b)) for b in (19, 18))
    called = record_limits(monkeypatch)
    counted = Counted(monkeypatch)
    assert fits(mask([0, 1]), 2) == mask(range(4))
    assert called == counted.saturates == []
    assert over(mask([0, 1]), 2) == mask(range(4))
    assert counted.saturates == [((0, 1), (2,))]


def test_symmetric_mask_round_charges_one_grid(xor3, monkeypatch):
    # xor3 ignores the order of its arguments, so extending the closed
    # {00, 01} by 10 runs one grid, 10 against all three tuples twice:
    # 1 * 3**2 = 9 cells, one batch.  At a budget of 9 the mask round fills
    # A^2 and calls no Limits method; at 8 extend hands the closure to
    # _saturate, which refuses that batch as closure_extend does.
    closed = TupleSet.from_encodings(2, 2, [0, 1])
    assert len(closure_extend(xor3, closed, [2], limits=Limits(steps=9))) == 4
    with pytest.raises(BudgetExceededError) as refused:
        closure_extend(xor3, closed, [2], limits=Limits(steps=8))
    assert "tuples: 3 of 4, steps applied: 0)" in str(refused.value)
    fits, over = (_extender(xor3, 2, Limits(steps=b)) for b in (9, 8))
    called = record_limits(monkeypatch)
    counted = Counted(monkeypatch)
    assert fits(mask([0, 1]), 2) == mask(range(4))
    assert called == counted.saturates == []
    with pytest.raises(BudgetExceededError) as handed_over:
        over(mask([0, 1]), 2)
    assert str(handed_over.value) == str(refused.value)
    assert counted.saturates == [((0, 1), (2,))]


# egp3 closures in A^4 of several rounds: (seeds, extra tuple or None,
# tuples).  closure and closure_extend run them in numpy alone, in one
# _saturate call.
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


@pytest.mark.parametrize("backend", ["dense", "sparse"], indirect=True)
@pytest.mark.parametrize("case", range(len(HANDOVERS)))
def test_budget_sweep_across_the_handover(egp3, monkeypatch, backend, case):
    encodings, extra, size = HANDOVERS[case]
    seeds = [decode_tuple(e, 3, 4) for e in encodings]
    ts = TupleSet.from_tuples(3, 4, seeds)
    members, charges = per_grid_charges(egp3, seeds)
    run = lambda b: closure(egp3, ts, limits=Limits(steps=b))
    if extra is not None:
        closed = closure(egp3, ts)
        members, charges = per_grid_charges(
            egp3, [decode_tuple(extra, 3, 4)], old=members
        )
        run = lambda b: closure_extend(
            egp3, closed, [extra], limits=Limits(steps=b)
        )
    counted = Counted(monkeypatch)
    assert len(run(LIMITS.steps)) == len(members) == size
    monkeypatch.undo()
    assert len(counted.saturates) == 1 and counted.tables == []
    assert_sweep(run, charges, members, 81, ("egp3", case), charge_edges(charges))


# Extensions of egp3 closures in A^4 by one tuple in the search's extend:
# (seeds, extra tuple, tuples, rounds).  With the step budget to spare
# every round runs on masks; a budget that cannot afford round r hands the
# whole closure to numpy, from the closed set and the extra tuple.
EXTENSIONS = [
    ([1, 54, 57, 62, 80], 0, 32, 3),
    ([3, 11, 18, 54], 29, 29, 2),
]


@pytest.mark.parametrize("backend", ["dense", "sparse"], indirect=True)
@pytest.mark.parametrize("case", range(len(EXTENSIONS)))
def test_extend_budget_sweep_across_the_handover(egp3, monkeypatch, backend, case):
    encodings, extra, size, rounds = EXTENSIONS[case]
    closed = closure(egp3, TupleSet.from_encodings(3, 4, encodings))
    members, charges = per_grid_charges(
        egp3, [decode_tuple(extra, 3, 4)], old=set(closed)
    )
    assert len(round_cells(charges)) == rounds
    run = lambda b: run_extend(egp3, 4, Limits(steps=b), closed, extra)
    counted = Counted(monkeypatch)
    assert len(run(LIMITS.steps)) == len(members) == size
    assert counted.saturates == []
    assert_sweep(run, charges, members, 81, ("egp3", case), charge_edges(charges))
    monkeypatch.undo()
    assert set(counted.saturates) == {(tuple(closed.encodings().tolist()), (extra,))}


@pytest.mark.parametrize("m", [2, 3])
def test_ceiling_budget_sweep_matches_per_pattern_reference(egp3, m):
    # d-check stops egp3's closure at |R_m| of its EGP pair {0, 1}, {1, 2}.
    # The seeds are invariant under permuting and swapping the designated
    # pairs, so round 0 draws its first argument from their 15 (m = 2) or
    # 46 (m = 3) orbit representatives.
    seeds = brute_equal_pair_tuples(3, m)
    ceiling = len(brute_subset_pair_relation(3, {0, 1}, {1, 2}, m))
    members, charges = per_grid_charges(egp3, seeds, stop=ceiling)
    need = sum(cells for _, cells, _, _ in charges)
    assert (len(members), need) == {2: (77, 675), 3: (721, 23_598)}[m]
    budgets = None
    if m == 3:
        # 23,600 closures are too many for the suite; the reference's
        # outcome changes only where a charge starts to fit, so check
        # there and one step either side.
        budgets = charge_edges(charges)
    assert_sweep(
        lambda b: equal_pair_evidence(egp3, m, limits=Limits(steps=b)).closure_count,
        charges, members, 3 ** (2 * m), ("egp3", m), budgets,
    )
