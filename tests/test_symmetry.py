"""Closures of seeds invariant under the symmetry of the designated pairs.

In A^(2m) the group G of order 2**m * m! permutes the designated pairs
(2j, 2j+1) and swaps the coordinates inside each.  `closure` finds when
its seeds are G-invariant, and then draws each round's frontier argument
from the frontier's orbit representatives alone and inserts every image
with its whole orbit.  These tests check the detection and the
representatives against brute force over G, the closures against the
genpow-free full-rescan oracles, on the corpus and on seeded algebras, with
dense and with sparse membership, and the charges against the per-grid
reference, which applies the same rule by brute force.
"""

import random

import numpy as np
import pytest

from genpow import Limits, TupleSet, closure, decode_tuple, encode_tuple
from genpow.subpower import _orbit_representatives, _pair_images, _pair_symmetry
from tests.oracles import (
    brute_covering_pairs,
    brute_equal_pair_tuples,
    brute_subset_pair_relation,
    elements,
    pair_group,
    pair_orbit,
    per_grid_charges,
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


def test_detection_and_representatives_match_brute_force():
    rng = random.Random(7)
    checked = {0: 0, 1: 0}
    for k in (2, 3):
        for n in range(1, 7):
            if k**n > 729:
                continue
            group = pair_group(n // 2) if n % 2 == 0 else None
            for _ in range(10):
                picks = rng.sample(range(k**n), min(3, k**n))
                seeds = {decode_tuple(e, k, n) for e in picks}
                if group is not None and rng.random() < 0.5:
                    seeds = orbit_union(k, n, 2, rng)
                ts = TupleSet.from_tuples(k, n, seeds)
                invariant = group is not None and all(
                    pair_orbit(t, group) <= seeds for t in seeds
                )
                assert _pair_symmetry(ts, ts.encodings()) == (n // 2 if invariant else 0), (
                    k, n, seeds,
                )
                checked[invariant] += 1
                if group is None:
                    continue
                least = sorted({encode_tuple(min(pair_orbit(t, group)), k) for t in seeds})
                assert _orbit_representatives(ts.encodings(), k, n // 2).tolist() == least
    assert min(checked.values()) >= 20, checked


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
                assert _pair_symmetry(ts, ts.encodings()) == n // 2, (name, n, kind)
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
