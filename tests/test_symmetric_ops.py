"""Closures under operations that ignore the order of their arguments.

An operation is symmetric when every permutation of its arguments leaves
its table unchanged.  A closure round then runs one grid per such
operation instead of s: the round's new tuples are cut into runs, a run is
argument 0 and the other arguments range over the tuples known before the
round followed by the new ones, up to the end of the run.  The exact
search's extend keeps grid 0 alone for it and builds no table for its
first argument.

These tests check the detector against a brute check of every
permutation, and closure, closure_extend and extend against brute_closure
on 1,000 seeded algebras whose table is drawn on sorted argument tuples
and 200 that add a non-symmetric operation, dense and sparse, at the
engine's batch size and at one small enough to cut every round into runs
of one tuple.  Budget sweeps at that small batch size check the charges
of the runs against the per-grid reference.
"""

import itertools
import random

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
)
from genpow.cli import main
from genpow.criteria import switch_tuples
from genpow.subpower import _extender, _is_symmetric
from tests.conftest import corpus_path
from tests.oracles import (
    brute_closure,
    is_symmetric,
    per_grid_charges,
    random_symmetric_op,
    random_table_op,
)
from tests.test_rounds import assert_sweep, charge_edges

SYMMETRIC = 1000
MIXED = 200
BLOCK = 100  # algebras per test case
SMALL_BATCH = 8  # grid cells per batch that cut rounds into runs of one tuple


def draw(seed):
    """The seed's algebra: k in {2, 3} and a symmetric operation of arity 2
    or 3; from seed SYMMETRIC on, also a non-symmetric one of arity 2 or 3,
    before or after it."""
    rng = random.Random(seed)
    k = rng.choice((2, 3))
    operations = [random_symmetric_op(k, rng.randint(2, 3), rng, name="f")]
    if seed >= SYMMETRIC:
        arity = rng.randint(2, 3)
        other = random_table_op(k, arity, rng, rng.random() < 0.5, name="g")
        while is_symmetric(other):
            other = random_table_op(k, arity, rng, rng.random() < 0.5, name="g")
        operations.insert(rng.randint(0, 1), other)
    return Algebra(k=k, operations=tuple(operations))


def sizes(algebra):
    """The n with k**n >= 4 where a brute_closure pass stays small:
    (k**n)**s <= 4,096 for every operation."""
    arity = max(op.arity for op in algebra.operations)
    return [n for n in range(1, 7) if 4 <= algebra.k**n and algebra.k ** (n * arity) <= 4096]


def mask(members, k):
    """The bit mask of a set of tuples."""
    return sum(1 << encode_tuple(t, k) for t in members)


def check_algebra(seed, sparse, monkeypatch):
    algebra = draw(seed)
    k = algebra.k
    rng = random.Random(-seed)
    for n in sizes(algebra):
        space = k**n
        seeds = [decode_tuple(e, k, n) for e in rng.sample(range(space), rng.randint(1, 3))]
        members = brute_closure(algebra, seeds)
        outside = [e for e in range(space) if decode_tuple(e, k, n) not in members]
        extra = rng.choice(outside) if outside else None
        if extra is not None:
            widened = brute_closure(algebra, [*members, decode_tuple(extra, k, n)])
        for backend, batch in itertools.product(("dense", "sparse"), (None, SMALL_BATCH)):
            case = (seed, n, backend, batch)
            with sparse(backend == "sparse"), monkeypatch.context() as patch:
                if batch is not None:
                    patch.setattr(genpow.subpower, "_CHUNK_CELLS", batch)
                closed = closure(algebra, TupleSet.from_tuples(k, n, seeds))
                assert set(closed) == members, case
                if extra is None:
                    continue
                assert set(closure_extend(algebra, closed, [extra])) == widened, case
                extend = _extender(algebra, n, LIMITS)
                assert extend(mask(members, k), extra) == mask(widened, k), case


@pytest.mark.parametrize("block", range((SYMMETRIC + MIXED) // BLOCK))
def test_closures_under_symmetric_operations_match_brute_closure(block, sparse, monkeypatch):
    for seed in range(block * BLOCK, (block + 1) * BLOCK):
        check_algebra(seed, sparse, monkeypatch)


def test_the_draw_is_symmetric_and_mixed():
    counts = {"symmetric": 0, "mixed": 0}
    for seed in range(SYMMETRIC + MIXED):
        flags = [is_symmetric(op) for op in draw(seed).operations]
        counts["mixed" if False in flags else "symmetric"] += True in flags
    assert counts == {"symmetric": SYMMETRIC, "mixed": MIXED}, counts


def all_tables(k, arity):
    """Every operation table of the arity on k elements."""
    for table in itertools.product(range(k), repeat=k**arity):
        yield OperationTable(name="f", arity=arity, k=k, table=table)


def test_detector_matches_the_brute_check():
    shapes = ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))
    ops = [op for k, arity in shapes for op in all_tables(k, arity)]
    rng = random.Random(5)
    for k, arity in itertools.product((3, 4), (3, 4)):
        ops += [random_symmetric_op(k, arity, rng) for _ in range(20)]
        ops += [random_table_op(k, arity, rng, rng.random() < 0.5) for _ in range(20)]
    found = {True: 0, False: 0}
    for op in ops:
        assert _is_symmetric(op) == is_symmetric(op), op
        found[is_symmetric(op)] += 1
    assert min(found.values()) >= 100, found


def test_symmetry_in_two_arguments_is_not_enough():
    # x AND y, whatever z: swapping x and y leaves it, the cyclic shift not.
    both = OperationTable(name="and", arity=3, k=2, table=(0, 0, 0, 0, 0, 0, 1, 1))
    # 1 on the cyclic shifts of (0, 1, 2): the cyclic shift leaves it, the
    # swap of x and y not.
    cyclic = OperationTable(name="cyc", arity=3, k=3, table=tuple(
        int(args in {(0, 1, 2), (1, 2, 0), (2, 0, 1)})
        for args in itertools.product(range(3), repeat=3)
    ))
    # Drawn on (sorted(x, y), z): symmetric in x and y by construction.
    rng = random.Random(9)
    pairwise = []
    for _ in range(50):
        drawn = {}
        table = tuple(
            drawn.setdefault((min(x, y), max(x, y), z), rng.randrange(3))
            for x, y, z in itertools.product(range(3), repeat=3)
        )
        pairwise.append(OperationTable(name="p", arity=3, k=3, table=table))
    for op in [both, cyclic, *pairwise]:
        assert not _is_symmetric(op) and not is_symmetric(op), op


@pytest.mark.parametrize("backend", ["dense", "sparse"], indirect=True)
def test_runs_budget_sweep_matches_the_reference(monkeypatch, backend):
    """closure and closure_extend of draws at the small batch size, where
    rounds are cut into runs, at every step budget where a reference
    charge starts to fit, one step either side, 0 and one past the whole
    cost."""
    monkeypatch.setattr(genpow.subpower, "_CHUNK_CELLS", SMALL_BATCH)
    cut = 0
    for seed in itertools.chain(range(30), range(SYMMETRIC, SYMMETRIC + 10)):
        algebra = draw(seed)
        k = algebra.k
        rng = random.Random(seed)
        n = max(sizes(algebra))
        space = k**n
        seeds = [decode_tuple(e, k, n) for e in rng.sample(range(space), 2)]
        members, charges = per_grid_charges(algebra, seeds, batch=SMALL_BATCH)
        ts = TupleSet.from_tuples(k, n, seeds)
        assert_sweep(
            lambda b: closure(algebra, ts, limits=Limits(steps=b)),
            charges, members, space, (seed, n), sorted(charge_edges(charges)),
        )
        closed = closure(algebra, ts)
        outside = [e for e in range(space) if not closed.has_encoding(e)]
        if not outside:
            continue
        extra = rng.choice(outside)
        widened, charges = per_grid_charges(
            algebra, [decode_tuple(extra, k, n)], old=members, batch=SMALL_BATCH
        )
        assert_sweep(
            lambda b: closure_extend(algebra, closed, [extra], limits=Limits(steps=b)),
            charges, widened, space, (seed, n, extra), sorted(charge_edges(charges)),
        )
        cut += len(charges) > len({r for _, _, r, _ in charges})
    assert cut >= 20, cut


def test_min_closes_the_one_switch_tuples_of_length_50_in_900000_steps(min2):
    # min closes the tuples with at most one switch to those whose ones
    # form one interval, the empty one included: 50 * 51 / 2 + 1 of them.
    # Round 0's one grid and then the seeds times each round's new tuples
    # apply 127,600 combinations; all orderings of the arguments number
    # 1,628,176.
    closed = closure(min2, switch_tuples(2, 50, 1), limits=Limits(steps=900_000))
    intervals = {
        tuple(int(i <= p < j) for p in range(50)) for i in range(51) for j in range(i, 51)
    }
    assert len(intervals) == 1276
    assert set(closed) == intervals


def test_switchable_min2_fits_a_budget_of_100(capsys):
    # The 8 tuples of A^4 with at most one switch close to 11 under min:
    # 8 * 8 cells in round 0, then the 8 seeds times the 3 new tuples, 88
    # in all; all orderings of the arguments take 88 + 33 = 121.
    code = main(["switchable", str(corpus_path("min2")), "--r", "1", "--n", "4",
                 "--closure-budget", "100"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == "n: 4\nr: 1\nseed-count: 8\nclosure-count: 11\nspace: 16\nfull: no\n"


def test_image_tables_skip_the_first_table_of_a_symmetric_operation(
    min2, egp3, monkeypatch
):
    built = []
    image_tables = genpow.subpower._image_tables

    def spy(op, n, *args):
        last, first = image_tables(op, n, *args)
        built.append((op.name, len(last), len(first)))
        return last, first

    monkeypatch.setattr(genpow.subpower, "_image_tables", spy)
    _extender(min2, 3, LIMITS)
    _extender(egp3, 2, LIMITS)
    assert built == [("min", 8, 0), ("f", 9, 9)]


def test_a_symmetric_refusal_reports_how_far_it_got():
    # Rock-paper-scissors, the winner of the two: symmetric but not
    # associative, so every round keeps its runs.  A^2 from three tuples:
    # round 0 runs its one grid, 3 * 3 = 9 cells, and makes (1, 0); round
    # 1 runs 1 * 4 = 4 and makes (1, 1), and round 2, 1 * 5 = 5 cells,
    # makes nothing new.
    rps = OperationTable(name="rps", arity=2, k=3, table=(0, 1, 0, 1, 1, 2, 0, 2, 2))
    algebra = Algebra(k=3, operations=(rps,))
    seeds = TupleSet.from_tuples(3, 2, [(0, 0), (0, 1), (1, 2)])
    assert len(closure(algebra, seeds, limits=Limits(steps=18))) == 5
    with pytest.raises(BudgetExceededError) as info:
        closure(algebra, seeds, limits=Limits(steps=17))
    assert "rounds completed: 2, tuples: 5 of 9, steps applied: 13)" in str(info.value)
