"""Closures of seeds invariant under a symmetry of the coordinates.

In A^(2m) the pair group G of order 2**m * m! permutes the designated
pairs (2j, 2j+1) and swaps the coordinates inside each; in any A^n the
reversal maps t_1 .. t_n to t_n .. t_1.  `closure` finds when its seeds
are invariant under one of them, and then draws each round's frontier
argument from the frontier's orbit representatives alone and inserts
every image with its whole orbit.  These tests check the detection and
the representatives against brute force over the groups, the closures
against the genpow-free full-rescan oracles, on the corpus and on seeded
algebras, with dense and with sparse membership, and the charges against
the per-grid reference, which applies the same rule by brute force.
"""

import itertools
import random

import numpy as np
import pytest

import genpow.subpower
from genpow import Algebra, Limits, OperationTable, TupleSet, closure, decode_tuple, encode_tuple
from genpow.subpower import _orbit_representatives, _pair_images, _symmetry
from tests.oracles import (
    brute_closure,
    brute_covering_pairs,
    brute_equal_pair_tuples,
    brute_subset_pair_relation,
    brute_switch_tuples,
    elements,
    numpy_closure,
    pair_group,
    pair_orbit,
    per_grid_charges,
    random_symmetric_op,
    random_table_op,
)
from tests.test_differential import draw, oracle
from tests.test_rounds import assert_sweep, charge_edges

SEEDED = 40


def orbit_union(k, n, count, rng):
    """The union of the G-orbits of `count` random tuples of A^n."""
    group = pair_group(n // 2)
    picks = rng.sample(range(k**n), count)
    return set().union(*(pair_orbit(decode_tuple(e, k, n), group) for e in picks))


def symmetric_seeds(k, n, rng):
    """G-invariant seed sets of A^n: the equal-pair tuples, the subset-pair
    relation of a random covering pair, and unions of 1 to 3 random orbits."""
    m = n // 2
    a, b = rng.choice(brute_covering_pairs(k))
    return {
        "equal-pair": brute_equal_pair_tuples(k, m),
        "subset-pair": brute_subset_pair_relation(k, elements(a, k), elements(b, k), m),
        "orbits": orbit_union(k, n, rng.randint(1, 3), rng),
    }


def sizes(algebra):
    """Even n where the oracle's full rescans stay small: (k**n)**s <= 3**12."""
    arity = max(op.arity for op in algebra.operations)
    return [n for n in (2, 4, 6) if (algebra.k**n) ** arity <= 3**12]


def table_op(name, arity, k, f):
    """The operation of arity `arity` on k elements that f computes."""
    table = tuple(f(*args) for args in itertools.product(range(k), repeat=arity))
    return OperationTable(name, arity, k, table)


def detection_algebras(k):
    """One algebra per detection case: a non-symmetric operation (the
    first projection), a symmetric one that is not binary (ternary
    median-like), and a symmetric binary associative one (min)."""
    return {
        "projection": Algebra(k=k, operations=(table_op("p", 2, k, lambda x, y: x),)),
        "symmetric": Algebra(k=k, operations=(
            table_op("s", 3, k, lambda x, y, z: sorted((x, y, z))[1]),
        )),
        "semigroup": Algebra(k=k, operations=(table_op("m", 2, k, min),)),
    }


def picked(symmetry):
    """The group _symmetry picked: the pair group keeps no prefix runs,
    the reversal does."""
    return None if symmetry is None else "reversal" if symmetry.runs else "pairs"


def test_detection_and_representatives_match_brute_force():
    rng = random.Random(7)
    checked = {None: 0, "pairs": 0, "reversal": 0}
    for k in (2, 3):
        algebras = detection_algebras(k)
        for n in range(1, 7):
            if k**n > 729:
                continue
            group = pair_group(n // 2) if n % 2 == 0 else None
            reversal = [tuple(range(n)), tuple(range(n - 1, -1, -1))]
            for _ in range(10):
                picks = rng.sample(range(k**n), min(3, k**n))
                seeds = {decode_tuple(e, k, n) for e in picks}
                draw_kind = rng.random()
                if group is not None and draw_kind < 0.4:
                    seeds = orbit_union(k, n, 2, rng)
                elif draw_kind < 0.7:
                    seeds |= {t[::-1] for t in seeds}
                ts = TupleSet.from_tuples(k, n, seeds)
                by_pairs = group is not None and all(pair_orbit(t, group) <= seeds for t in seeds)
                by_reversal = n > 2 and all(t[::-1] in seeds for t in seeds)
                for name, algebra in algebras.items():
                    found = _symmetry(algebra, ts, ts.encodings())
                    want = "pairs" if by_pairs else (
                        "reversal" if by_reversal and name != "symmetric" else None
                    )
                    assert picked(found) == want, (k, n, name, seeds)
                    checked[want] += 1
                    if found is None:
                        continue
                    orbits = group if want == "pairs" else reversal
                    least = sorted({encode_tuple(min(pair_orbit(t, orbits)), k) for t in seeds})
                    assert _orbit_representatives(ts.encodings(), found).tolist() == least
    assert min(checked.values()) >= 20, checked


def test_detection_skips_an_algebra_without_operations():
    ts = TupleSet.from_tuples(2, 4, [(0, 0, 0, 0)])
    assert _symmetry(Algebra(k=2, operations=()), ts, ts.encodings()) is None
    assert picked(_symmetry(detection_algebras(2)["projection"], ts, ts.encodings())) == "pairs"


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pair_images_match_the_generator_permutations(k, m):
    # The 2m - 1 generators of G as permutations of the coordinates: the
    # swap inside pair 0, the transpositions of pair 0 with pair j, then
    # the swaps inside pairs 1 .. m-1; each image is taken tuple by tuple.
    n = 2 * m

    def permutation(swaps):
        perm = list(range(n))
        for a, b in swaps:
            perm[a], perm[b] = perm[b], perm[a]
        return perm

    generators = (
        [permutation([(0, 1)])]
        + [permutation([(0, 2 * j), (1, 2 * j + 1)]) for j in range(1, m)]
        + [permutation([(2 * j, 2 * j + 1)]) for j in range(1, m)]
    )
    tuples = [decode_tuple(e, k, n) for e in range(k**n)]
    images = list(_pair_images(np.arange(k**n, dtype=np.int64), k, m))
    assert len(images) == len(generators) == 2 * m - 1
    for perm, image in zip(generators, images):
        assert image.tolist() == [encode_tuple([t[c] for c in perm], k) for t in tuples]
    empty = list(_pair_images(np.empty(0, dtype=np.int64), k, m))
    assert [image.size for image in empty] == [0] * (2 * m - 1)


def check_closures(name, algebra, rng, sparse):
    """Every symmetric seed set at every size, on both backends."""
    k = algebra.k
    for n in sizes(algebra):
        for kind, seeds in symmetric_seeds(k, n, rng).items():
            members = oracle(algebra, seeds, n)
            for backend in ("dense", "sparse"):
                with sparse(backend == "sparse"):
                    ts = TupleSet.from_tuples(k, n, seeds)
                found = _symmetry(algebra, ts, ts.encodings())
                assert found is not None and not found.runs, (name, n, kind)
                closed = closure(algebra, ts)
                assert set(closed) == members, (name, n, kind, backend)


def test_symmetric_closures_of_the_corpus_match_the_oracle(corpus, non_idem, sparse):
    rng = random.Random(3)
    for name, algebra in {**corpus, "non_idempotent": non_idem}.items():
        if algebra.operations:
            check_closures(name, algebra, rng, sparse)


@pytest.mark.parametrize("seed", range(SEEDED))
def test_symmetric_closures_of_seeded_algebras_match_the_oracle(seed, sparse):
    check_closures(seed, draw(seed), random.Random(seed), sparse)


@pytest.mark.parametrize("backend", ["dense", "sparse"], indirect=True)
def test_symmetric_budget_sweep_matches_the_reference(backend):
    """Orbit unions at n = 2 and 4 with k**n <= 81, at every step budget
    where a reference charge starts to fit, one step either side, 0 and one
    past the whole cost."""
    swept = 0
    for seed in range(SEEDED):
        algebra = draw(seed)
        k = algebra.k
        rng = random.Random(-seed)
        for n in (2, 4):
            if k**n > 81:
                continue
            seeds = orbit_union(k, n, rng.randint(1, 3), rng)
            members, charges = per_grid_charges(algebra, seeds)
            ts = TupleSet.from_tuples(k, n, seeds)
            assert_sweep(
                lambda b: closure(algebra, ts, limits=Limits(steps=b)),
                charges, members, k**n, (seed, n), sorted(charge_edges(charges)),
            )
            swept += len(charges) > 0
    assert swept >= SEEDED, swept


# -- the reversal, differentially -------------------------------------------

REVERSAL_ALGEBRAS = 300
FAMILIES = ("symmetric", "non-symmetric", "semigroup", "mixed")
BRUTE_COMBINATIONS = 2_000


def reference_closure(algebra, seeds, n):
    """brute_closure when a pass of each operation over all of A^n is at
    most BRUTE_COMBINATIONS combinations, else numpy_closure, the same
    full-rescan fixed point vectorized."""
    space = algebra.k**n
    if all(space**op.arity <= BRUTE_COMBINATIONS for op in algebra.operations):
        return set(brute_closure(algebra, seeds))
    return {decode_tuple(e, algebra.k, n) for e in numpy_closure(algebra, seeds).tolist()}


def random_semigroup_op(k, rng, name="f"):
    """A random binary associative table, drawn until one is."""
    while True:
        table = tuple(rng.randrange(k) for _ in range(k * k))
        if all(
            table[table[x * k + y] * k + z] == table[x * k + table[y * k + z]]
            for x, y, z in itertools.product(range(k), repeat=3)
        ):
            return OperationTable(name=name, arity=2, k=k, table=table)


def reversal_draw(seed):
    """The seed's algebra, with k in {2, 3} and one or two operations of
    arity <= 3, by seed modulo 4: all symmetric, all drawn at random
    (non-symmetric, in practice), one random associative binary
    operation, or a random associative or symmetric operation beside one
    drawn at random."""
    rng = random.Random(seed)
    k = rng.choice((2, 3))
    family = FAMILIES[seed % 4]

    def symmetric(j):
        return random_symmetric_op(k, rng.randint(1, 3), rng, name=f"s{j}")

    def drawn(j):
        return random_table_op(k, rng.randint(1, 3), rng, rng.random() < 0.5, name=f"g{j}")

    if family == "symmetric":
        operations = [symmetric(j) for j in range(rng.choice((1, 2)))]
    elif family == "non-symmetric":
        operations = [drawn(j) for j in range(rng.choice((1, 2)))]
    elif family == "semigroup":
        operations = [random_semigroup_op(k, rng)]
    else:
        first = random_semigroup_op(k, rng, name="a") if rng.random() < 0.5 else symmetric(0)
        operations = [first, drawn(1)]
    return Algebra(k=k, operations=tuple(operations))


def reversal_seeds(k, n, rng):
    """Seed sets of A^n that reversing the coordinates maps onto
    themselves: the tuples with at most r switches for r = 0 and 1, and
    1 to 3 random tuples with their reverses."""
    seeds = {f"switch r={r}": brute_switch_tuples(k, n, r) for r in (0, 1)}
    picks = [decode_tuple(e, k, n) for e in rng.sample(range(k**n), rng.randint(1, 3))]
    seeds["random"] = set(picks) | {t[::-1] for t in picks}
    return seeds


@pytest.mark.parametrize("seed", range(REVERSAL_ALGEBRAS))
def test_reversal_closures_match_the_undetected_closure_and_the_oracle(
    seed, sparse, monkeypatch
):
    algebra = reversal_draw(seed)
    k = algebra.k
    rng = random.Random(-seed)
    for n in (n for n in range(3, 7) if k**n <= 81):
        for name, seeds in reversal_seeds(k, n, rng).items():
            members = reference_closure(algebra, seeds, n)
            for backend in ("dense", "sparse"):
                with sparse(backend == "sparse"):
                    ts = TupleSet.from_tuples(k, n, seeds)
                detected = closure(algebra, ts)
                with monkeypatch.context() as patch:
                    patch.setattr(genpow.subpower, "_symmetry", lambda *args: None)
                    undetected = closure(algebra, ts)
                case = (seed, n, name, backend)
                assert set(detected) == set(undetected) == members, case


def test_the_reversal_draw_takes_each_path():
    """Across the draw, the reversal is picked for every kind but the
    all-symmetric one, where only a binary associative operation takes
    it, and seed sets at even n that the pair group also maps onto
    themselves take the pair group."""
    picked_by_family = {family: {None: 0, "pairs": 0, "reversal": 0} for family in FAMILIES}
    for seed in range(REVERSAL_ALGEBRAS):
        algebra = reversal_draw(seed)
        k = algebra.k
        rng = random.Random(-seed)
        for n in (n for n in range(3, 7) if k**n <= 81):
            for seeds in reversal_seeds(k, n, rng).values():
                ts = TupleSet.from_tuples(k, n, seeds)
                found = picked(_symmetry(algebra, ts, ts.encodings()))
                picked_by_family[FAMILIES[seed % 4]][found] += 1
    for family in ("non-symmetric", "semigroup", "mixed"):
        assert picked_by_family[family]["reversal"] >= 100, picked_by_family
    assert picked_by_family["symmetric"][None] >= 100, picked_by_family
    assert sum(counts["pairs"] for counts in picked_by_family.values()) >= 20, picked_by_family
