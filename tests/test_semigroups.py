"""Closures under a lone binary associative operation.

When an algebra's one operation is binary and associative, every closure
round after round 0 runs one grid: argument 0 from the tuples the round 0
union holds, argument 1 from the round's new tuples.  Everything a
closure makes is then a product u1*(u2*(...*uL*w)) of round-0 tuples,
which is enough in a semigroup.

These tests check the detector against a brute check of every triple,
and closure, closure_extend and the exact search's extend against
brute_closure on 1,000 seeded semigroups (meets of intersection-closed
set families, subsemigroups of the full transformation semigroup T3,
rectangular, left-zero and null bands, and Z_k under addition, each with
its elements relabelled at random) and 200 algebras that add a second
operation, where the rule must stay off.  Each runs dense and sparse, at
the engine's batch size and at 8 cells, which cuts most grids into
several batches.  Budget sweeps at that batch size check the charges
against the per-grid reference.
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
    is_full,
)
from genpow.cli import main
from genpow.criteria import switch_tuples
from genpow.subpower import _CHUNK_CELLS, _extender, _is_semigroup, _layouts
from tests.conftest import corpus_path
from tests.oracles import (
    brute_closure,
    is_associative,
    pair_group,
    pair_orbit,
    per_grid_charges,
    random_table_op,
)
from tests.test_rounds import assert_sweep, charge_edges

SEMIGROUPS = 1000
MIXED = 200
BLOCK = 100  # algebras per test case
SMALL_BATCH = 8  # grid cells per batch, which cut most grids into several batches
MAX_K = 6


def relabelled(k, multiply, rng, name="f"):
    """The table of multiply on range(k) with its elements renamed by a
    random permutation."""
    name_of = list(range(k))
    rng.shuffle(name_of)
    table = [0] * (k * k)
    for x, y in itertools.product(range(k), repeat=2):
        table[name_of[x] * k + name_of[y]] = name_of[multiply(x, y)]
    return OperationTable(name=name, arity=2, k=k, table=tuple(table))


def meets(rng):
    """Intersection on a random family of subsets of a 4-set, closed under
    intersection, with 2 to MAX_K members."""
    while True:
        family = {rng.randrange(16) for _ in range(rng.randint(2, 4))}
        while any(a & b not in family for a in family for b in family):
            family |= {a & b for a in family for b in family}
        if 2 <= len(family) <= MAX_K:
            members = sorted(family)
            return len(members), lambda x, y: members.index(members[x] & members[y])


def compose(f, g):
    """f after g, maps of {0, 1, 2} as tuples of images."""
    return tuple(f[g[x]] for x in range(3))


def transformations(rng):
    """The subsemigroup of T3 that 1 or 2 random maps generate under
    composition, with 2 to MAX_K members."""
    while True:
        members = {tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randint(1, 2))}
        generators = list(members)
        frontier = list(members)
        while frontier and len(members) <= MAX_K:
            made = {compose(g, f) for g in generators for f in frontier} - members
            members |= made
            frontier = list(made)
        if 2 <= len(members) <= MAX_K:
            members = sorted(members)
            return len(members), lambda x, y: members.index(compose(members[x], members[y]))


def rectangular(rng):
    """I x J with (i, j)(i', j') = (i, j'): a left-zero band when |J| = 1,
    a right-zero one when |I| = 1."""
    shapes = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if 2 <= i * j <= MAX_K]
    rows, columns = rng.choice(shapes)
    return rows * columns, lambda x, y: x - x % columns + y % columns


def left_zero(rng):
    return rng.randint(2, MAX_K), lambda x, y: x


def null(rng):
    return rng.randint(2, MAX_K), lambda x, y: 0


def cyclic(rng):
    k = rng.randint(2, MAX_K)
    return k, lambda x, y: (x + y) % k


KINDS = (meets, transformations, rectangular, left_zero, null, cyclic)


def draw(seed):
    """The seed's algebra: a relabelled semigroup of kind seed % 6; from
    seed SEMIGROUPS on, also a second operation before or after it, a
    random table of arity 1 to 3 or another semigroup on the same
    elements."""
    rng = random.Random(seed)
    k, multiply = KINDS[seed % len(KINDS)](rng)
    operations = [relabelled(k, multiply, rng)]
    if seed >= SEMIGROUPS:
        if rng.random() < 0.25:
            other = rng.choice([lambda x, y: x, lambda x, y: 0, lambda x, y: (x + y) % k])
            operations.insert(rng.randint(0, 1), relabelled(k, other, rng, name="g"))
        else:
            arity = rng.randint(1, 3)
            other = random_table_op(k, arity, rng, rng.random() < 0.5, name="g")
            operations.insert(rng.randint(0, 1), other)
    return Algebra(k=k, operations=tuple(operations))


def sizes(algebra):
    """The n with k**n >= 4 where a brute_closure pass stays small:
    (k**n)**s <= 1,296 for every operation."""
    arity = max(op.arity for op in algebra.operations)
    return [n for n in range(1, 7) if 4 <= algebra.k**n and algebra.k ** (n * arity) <= 1296]


def mask(members, k):
    """The bit mask of a set of tuples."""
    return sum(1 << encode_tuple(t, k) for t in members)


def drawn_seeds(k, n, rng):
    """1 to 3 random tuples of A^n; at even n, half the time with their
    orbits under the permutations of the designated pairs, which closure
    then reduces by."""
    seeds = {decode_tuple(e, k, n) for e in rng.sample(range(k**n), rng.randint(1, 3))}
    if n % 2 == 0 and rng.random() < 0.5:
        group = pair_group(n // 2)
        seeds = set().union(*(pair_orbit(t, group) for t in seeds))
    return sorted(seeds)


def check_algebra(seed, sparse, monkeypatch):
    algebra = draw(seed)
    k = algebra.k
    rng = random.Random(-seed)
    for n in sizes(algebra):
        space = k**n
        seeds = drawn_seeds(k, n, rng)
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


@pytest.mark.parametrize("block", range((SEMIGROUPS + MIXED) // BLOCK))
def test_closures_under_semigroups_match_brute_closure(block, sparse, monkeypatch):
    for seed in range(block * BLOCK, (block + 1) * BLOCK):
        check_algebra(seed, sparse, monkeypatch)


def test_the_draw_is_semigroups_then_mixed():
    counts = {"semigroup": 0, "mixed": 0}
    kinds = set()
    for seed in range(SEMIGROUPS + MIXED):
        algebra = draw(seed)
        (op,) = (op for op in algebra.operations if op.name == "f")
        assert is_associative(op), seed
        counts["semigroup" if len(algebra.operations) == 1 else "mixed"] += 1
        kinds.add((seed % len(KINDS), algebra.k))
    assert counts == {"semigroup": SEMIGROUPS, "mixed": MIXED}, counts
    assert {kind for kind, _ in kinds} == set(range(len(KINDS)))
    assert {k for _, k in kinds} == set(range(2, MAX_K + 1))


def all_tables(k):
    """Every binary operation table on k elements."""
    for table in itertools.product(range(k), repeat=k * k):
        yield OperationTable(name="f", arity=2, k=k, table=table)


def test_detector_matches_the_brute_check_on_every_small_table():
    found = {True: 0, False: 0}
    for op in itertools.chain(all_tables(1), all_tables(2), all_tables(3)):
        assert _is_semigroup(op) == is_associative(op), op
        found[is_associative(op)] += 1
    # 1 + 8 + 113 associative tables on k = 1, 2 and 3 elements.
    assert found == {True: 122, False: 1 + 16 + 3**9 - 122}, found


def test_detector_matches_the_brute_check_on_one_entry_mutants():
    found = {True: 0, False: 0}
    for seed in range(SEMIGROUPS):
        op = draw(seed).operations[0]
        assert _is_semigroup(op), seed
        rng = random.Random(seed)
        table = list(op.table)
        cell = rng.randrange(len(table))
        table[cell] = rng.choice([a for a in range(op.k) if a != table[cell]])
        mutant = OperationTable(name="f", arity=2, k=op.k, table=tuple(table))
        assert _is_semigroup(mutant) == is_associative(mutant), (seed, cell)
        found[is_associative(mutant)] += 1
    assert min(found.values()) >= 50, found


def test_layouts_flag_the_binary_associative_operations(
    min2, non_idem, maj3, xor3, egp3
):
    flags = {}
    for algebra in (min2, non_idem, maj3, xor3, egp3):
        layouts = _layouts(algebra.operations, 3, _CHUNK_CELLS)
        flags.update((op.name, flag) for op, (*_, flag) in zip(algebra.operations, layouts))
    assert flags == {"min": True, "czero": True, "maj": False, "xor3": False, "f": False}


def test_only_a_lone_semigroup_runs_the_generators_grid(min2, monkeypatch):
    """After round 0, min2 draws argument 0 from the round-0 union; with a
    second operation, min keeps its runs in every round."""
    calls = []
    round_grids = genpow.subpower._round_grids

    def spy(*args):
        calls.append(args[-1] is not None)
        return round_grids(*args)

    monkeypatch.setattr(genpow.subpower, "_round_grids", spy)
    seeds = TupleSet.from_tuples(2, 3, [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    closed = closure(min2, seeds)
    assert calls == [False, True, True]
    negation = OperationTable(name="not", arity=1, k=2, table=(1, 0))
    mixed = Algebra(k=2, operations=(*min2.operations, negation))
    calls.clear()
    assert len(closure(mixed, seeds)) > len(closed)
    assert calls and not any(calls)


@pytest.mark.parametrize("backend", ["dense", "sparse"], indirect=True)
def test_semigroup_budget_sweep_matches_the_reference(monkeypatch, backend):
    """closure and closure_extend of draws at the small batch size, at
    every step budget where a reference charge starts to fit, one step
    either side, 0 and one past the whole cost."""
    monkeypatch.setattr(genpow.subpower, "_CHUNK_CELLS", SMALL_BATCH)
    later = 0
    for seed in itertools.chain(range(36), range(SEMIGROUPS, SEMIGROUPS + 12)):
        algebra = draw(seed)
        k = algebra.k
        rng = random.Random(seed)
        n = max(sizes(algebra))
        space = k**n
        seeds = drawn_seeds(k, n, rng)
        members, charges = per_grid_charges(algebra, seeds, batch=SMALL_BATCH)
        ts = TupleSet.from_tuples(k, n, seeds)
        assert_sweep(
            lambda b: closure(algebra, ts, limits=Limits(steps=b)),
            charges, members, space, (seed, n), sorted(charge_edges(charges)),
        )
        later += seed < SEMIGROUPS and any(r > 0 for _, _, r, _ in charges)
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
    assert later >= 10, later


def test_a_semigroup_refusal_reports_how_far_it_got(min2):
    # A^3 from the three tuples with one zero.  Reversing the coordinates
    # maps them onto themselves, so later rounds draw the frontier's
    # reversal orbit representatives.  Round 0 runs min's prefix run over
    # all 3 seeds, 3 * 3 = 9 cells, and makes the three with two zeros;
    # round 1 runs the 3 seeds times the representatives 001 and 010 of
    # those 3 (100 reverses 001), 6 cells, and makes the all-zero tuple;
    # round 2, 3 * 1 = 3 cells, makes nothing new.
    seeds = TupleSet.from_tuples(2, 3, [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    assert len(closure(min2, seeds, limits=Limits(steps=18))) == 7
    with pytest.raises(BudgetExceededError) as info:
        closure(min2, seeds, limits=Limits(steps=17))
    assert str(info.value) == (
        "closure exceeded the step budget of 17 combination applications "
        "(rounds completed: 2, tuples: 7 of 8, steps applied: 15)"
    )


def test_min_closes_the_two_switch_tuples_of_length_12_in_600000_steps(min2):
    closed = closure(min2, switch_tuples(2, 12, 2), limits=Limits(steps=600_000))
    assert is_full(closed)


def test_switchable_min2_two_switches_at_16_is_full(capsys):
    code = main(["switchable", str(corpus_path("min2")), "--r", "2", "--n", "16",
                 "--closure-budget", "20000000"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.endswith("space: 65536\nfull: yes\n")
