"""The batched tuple-space scan and every constructor that goes through it,
checked against the per-tuple references in tests/oracles.py.

Each constructor runs on dense and on sparse storage, with batches of 7 cells
(so batches split the space and least-encoding tie-breaks cross batch
boundaries) and of 64 cells (so ties also meet inside one batch).
"""

import itertools

import numpy as np
import pytest

import genpow.subpower
from genpow import (
    LIMITS,
    BudgetExceededError,
    Limits,
    TupleSet,
    cross_equality_witness,
    equal_pair_tuples,
    evenize_nice,
    nice_relation_from_nonswitchability,
    subset_pair_relation,
)
from genpow.criteria import SubsetPair, switch_tuples
from genpow.subpower import scan_space
from genpow.witnesses import NiceRelation
from tests.oracles import (
    brute_block_members,
    brute_closure,
    brute_collapse_runs,
    brute_cross_equality,
    brute_equal_pair_tuples,
    brute_evenize,
    brute_fewest_switch_outsider,
    brute_subset_pair_relation,
    brute_switch_tuples,
)


@pytest.fixture(params=[7, 64], ids=["cells7", "cells64"], autouse=True)
def small_batches(request, monkeypatch):
    monkeypatch.setattr(genpow.subpower, "_CHUNK_CELLS", request.param)


@pytest.fixture(params=[LIMITS, Limits(dense=0)], ids=["dense", "sparse"])
def limits(request):
    return request.param


def test_scan_walks_the_space_in_order():
    for k, n in ((2, 1), (2, 5), (3, 4)):
        batches = list(scan_space(k, n))
        encodings = np.concatenate([e for e, _ in batches])
        assert encodings.tolist() == list(range(k**n))
        rows = [tuple(row) for _, d in batches for row in d.tolist()]
        assert rows == list(itertools.product(range(k), repeat=n))


def test_scan_refuses_before_the_first_batch():
    with pytest.raises(BudgetExceededError):
        scan_space(2, 5, limits=Limits(space=31))
    with pytest.raises(BudgetExceededError):
        scan_space(2, 40)


def test_iteration_decodes_in_ascending_order(limits):
    members = [(2, 0, 1), (0, 0, 0), (1, 2, 2), (0, 2, 1), (2, 2, 2)]
    ts = TupleSet.from_tuples(3, 3, members, limits=limits)
    assert list(ts) == sorted(members)
    assert list(ts.lines()) == [" ".join(map(str, t)) for t in sorted(members)]


@pytest.mark.parametrize("k,m", [(1, 2), (2, 1), (2, 3), (3, 2)])
def test_equal_pair_tuples(limits, k, m):
    ts = equal_pair_tuples(k, m, limits=limits)
    assert list(ts) == sorted(brute_equal_pair_tuples(k, m))


@pytest.mark.parametrize(
    "k,alpha,beta,n",
    [
        (2, [0], [1], 1),
        (2, [0], [1], 3),
        (3, [0, 1], [1, 2], 2),
        (3, [0], [1, 2], 2),
        (4, [0, 1, 3], [2, 3], 1),
    ],
)
def test_subset_pair_relation(limits, k, alpha, beta, n):
    pair = SubsetPair.from_elements(k, alpha, beta)
    ts = subset_pair_relation(pair, n, limits=limits)
    assert list(ts) == sorted(brute_subset_pair_relation(k, alpha, beta, n))


@pytest.mark.parametrize(
    "k,n,r", [(2, 1, 0), (2, 6, 0), (2, 6, 2), (2, 7, 6), (3, 4, 1), (3, 5, 3)]
)
def test_switch_tuples(limits, k, n, r):
    ts = switch_tuples(k, n, r, limits=limits)
    assert list(ts) == sorted(brute_switch_tuples(k, n, r))


NICE_CASES = [
    ("projections_k2", 1, 3),
    ("projections_k2", 1, 4),
    ("projections_k2", 7, 10),
    ("min2", 1, 5),
    ("min2", 1, 6),
    ("majority3", 0, 3),
    ("egp3", 0, 3),
    ("egp3", 1, 4),
]


@pytest.mark.parametrize("name,r,n", NICE_CASES)
def test_nice_relation_pipeline(corpus, limits, name, r, n):
    algebra = corpus[name]
    k = algebra.k
    closed = brute_closure(algebra, brute_switch_tuples(k, n, r))
    blocks, values = brute_collapse_runs(brute_fewest_switch_outsider(k, n, closed))

    rel = nice_relation_from_nonswitchability(algebra, r, n, limits=limits)
    assert set(rel.base) == closed
    assert (rel.block_lengths, rel.excluded) == (blocks, values)

    members = brute_block_members(k, blocks, closed)
    assert list(rel.materialize(limits=limits)) == sorted(members)

    if rel.m % 2:
        even = evenize_nice(rel, limits=limits)
        expected, dropped = brute_evenize(k, members, rel.excluded)
        assert even.excluded == dropped
        assert list(even.base) == sorted(expected)


def punctured(k, holes, limits):
    """All of A^m but the holes; the first hole is the excluded tuple."""
    m = len(holes[0])
    members = set(itertools.product(range(k), repeat=m)) - set(holes)
    base = TupleSet.from_tuples(k, m, members, limits=limits)
    rel = NiceRelation(k=k, block_lengths=(1,) * m, base=base, excluded=holes[0])
    return rel, members


@pytest.mark.parametrize(
    "k,holes",
    [
        (2, [(0, 1, 0, 1, 0)]),
        (3, [(0, 1, 0, 2, 1), (2, 1, 2, 0, 1), (1, 0, 1, 0, 1)]),
        (3, [(1, 2, 0, 2, 1, 0, 1), (0, 1, 0, 1, 0, 1, 0)]),
    ],
)
def test_evenize_nice(limits, k, holes):
    rel, members = punctured(k, holes, limits)
    even = evenize_nice(rel, limits=limits)
    expected, dropped = brute_evenize(k, members, rel.excluded)
    assert even.excluded == dropped
    assert list(even.base) == sorted(expected)


@pytest.mark.parametrize("source", ["pipeline", "punctured"])
def test_cross_equality_relation(proj2, limits, source):
    if source == "pipeline":
        rel = nice_relation_from_nonswitchability(proj2, 7, 10, limits=limits)
        members = brute_block_members(2, rel.block_lengths, set(rel.base))
    else:
        holes = [(0, 1) * 4 + (0,), (1, 0) * 4 + (1,)]
        rel, members = punctured(2, holes, limits)
    witness = cross_equality_witness(rel, 1, 2, limits=limits)
    expected, excluded = brute_cross_equality(2, 1, members, rel.excluded)
    assert witness.excluded == excluded
    assert list(witness.relation) == sorted(expected)
