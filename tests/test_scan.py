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
import genpow.witnesses
from genpow import (
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
from genpow.subpower import _rendered_cells, _table_width, scan_space
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


DEFAULT_CELLS = genpow.subpower._CHUNK_CELLS


@pytest.fixture(params=[7, 64], ids=["cells7", "cells64"], autouse=True)
def small_batches(request, monkeypatch):
    monkeypatch.setattr(genpow.subpower, "_CHUNK_CELLS", request.param)


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


def test_iteration_decodes_in_ascending_order(backend):
    members = [(2, 0, 1), (0, 0, 0), (1, 2, 2), (0, 2, 1), (2, 2, 2)]
    ts = TupleSet.from_tuples(3, 3, members)
    assert repr(ts).endswith(f"{backend})")
    assert list(ts) == sorted(members)
    assert ts.text() == "".join(" ".join(map(str, t)) + "\n" for t in sorted(members))


# (k, n): every k at n <= 4, then n beyond one table row of digits, with a
# narrower top row.  Spaces up to 12**4 rows, every n <= 4 among them, are
# sampled without replacement, with the empty and a one-row set; larger
# ones take 60 random rows.
TEXT_SIZES = [(k, n) for n in (1, 2, 4) for k in (1, 2, 3, 10, 11, 12)] + [
    (2, 13), (2, 15), (2, 25), (3, 9), (3, 10), (11, 5), (12, 5), (12, 7), (1, 70),
]


@pytest.mark.parametrize("k,n", TEXT_SIZES)
def test_text_matches_a_per_row_rendering(backend, monkeypatch, k, n):
    # From k = 11 on, symbols take one or two bytes, so rows vary in length.
    # Each set is rendered at the fixture's batch size and at the default,
    # where the table rows hold more digits.
    rng = np.random.default_rng(100 * k + n)
    if k**n <= 12**4:
        space = list(itertools.product(range(k), repeat=n))
        order = rng.permutation(len(space))
        sizes = {0, 1, min(len(space), 60), len(space) if len(space) <= 144 else 0}
        samples = [[space[i] for i in order[:size]] for size in sorted(sizes)]
    else:
        samples = [list(map(tuple, rng.integers(k, size=(60, n)).tolist()))]
    for members in samples:
        ts = TupleSet.from_tuples(k, n, members)
        expected = "".join(" ".join(map(str, t)) + "\n" for t in sorted(set(members)))
        assert ts.text() == expected
        with monkeypatch.context() as patch:
            patch.setattr(genpow.subpower, "_CHUNK_CELLS", DEFAULT_CELLS)
            assert ts.text() == expected
            assert not _rendered_cells(k, _table_width(k, n)).flags.writeable


@pytest.mark.parametrize("k,m", [(1, 2), (2, 1), (2, 3), (3, 2)])
def test_equal_pair_tuples(backend, k, m):
    ts = equal_pair_tuples(k, m)
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
def test_subset_pair_relation(backend, k, alpha, beta, n):
    pair = SubsetPair.from_elements(k, alpha, beta)
    ts = subset_pair_relation(pair, n)
    assert list(ts) == sorted(brute_subset_pair_relation(k, alpha, beta, n))


@pytest.mark.parametrize(
    "k,n,r", [(2, 1, 0), (2, 6, 0), (2, 6, 2), (2, 7, 6), (3, 4, 1), (3, 5, 3)]
)
def test_switch_tuples(backend, k, n, r):
    ts = switch_tuples(k, n, r)
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
def test_nice_relation_pipeline(corpus, backend, name, r, n):
    algebra = corpus[name]
    k = algebra.k
    closed = brute_closure(algebra, brute_switch_tuples(k, n, r))
    blocks, values = brute_collapse_runs(brute_fewest_switch_outsider(k, n, closed))

    rel = nice_relation_from_nonswitchability(algebra, r, n)
    assert set(rel.base) == closed
    assert (rel.block_lengths, rel.excluded) == (blocks, values)

    members = brute_block_members(k, blocks, closed)
    assert list(rel.materialize()) == sorted(members)

    if rel.m % 2:
        even = evenize_nice(rel)
        expected, dropped = brute_evenize(k, members, rel.excluded)
        assert even.excluded == dropped
        assert list(even.base) == sorted(expected)


@pytest.mark.parametrize(
    "name,r,n", [("egp3", 0, 4), ("min2", 1, 6), ("projections_k2", 2, 7)]
)
def test_nice_relation_takes_the_first_level_with_an_outsider(
    corpus, backend, monkeypatch, name, r, n
):
    # A closure that holds every tuple with at most r + 1 switches leaves the
    # first level searched, r + 1, with no outsider; the witness comes from
    # the next one.
    algebra = corpus[name]
    k = algebra.k
    monkeypatch.setattr(
        genpow.witnesses, "closure", lambda algebra, seeds, limits: switch_tuples(k, n, r + 1)
    )
    expected = brute_collapse_runs(
        brute_fewest_switch_outsider(k, n, brute_switch_tuples(k, n, r + 1))
    )
    rel = nice_relation_from_nonswitchability(algebra, r, n)
    assert (rel.block_lengths, rel.excluded) == expected
    assert rel.m == r + 3


def punctured(k, holes):
    """All of A^m but the holes; the first hole is the excluded tuple."""
    m = len(holes[0])
    members = set(itertools.product(range(k), repeat=m)) - set(holes)
    base = TupleSet.from_tuples(k, m, members)
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
def test_evenize_nice(backend, k, holes):
    rel, members = punctured(k, holes)
    even = evenize_nice(rel)
    expected, dropped = brute_evenize(k, members, rel.excluded)
    assert even.excluded == dropped
    assert list(even.base) == sorted(expected)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("block_lengths", [(2, 1, 3), (1, 4), (3,)])
def test_contains_digits_reads_block_expansions(backend, k, block_lengths):
    # Half of the block expansions are members, and some other tuples too.
    rng = np.random.default_rng(10 * k + len(block_lengths))
    m, n = len(block_lengths), sum(block_lengths)
    expansions = {
        tuple(a for a, width in zip(c, block_lengths) for _ in range(width))
        for c in itertools.product(range(k), repeat=m)
        if rng.random() < 0.5
    }
    members = expansions | set(map(tuple, rng.integers(k, size=(20, n)).tolist()))
    base = TupleSet.from_tuples(k, n, members)
    rel = NiceRelation(k=k, block_lengths=block_lengths, base=base, excluded=(0,) * m)
    assert list(rel.materialize()) == sorted(brute_block_members(k, block_lengths, members))


@pytest.mark.parametrize("source", ["pipeline", "punctured"])
def test_cross_equality_relation(proj2, backend, source):
    if source == "pipeline":
        rel = nice_relation_from_nonswitchability(proj2, 7, 10)
        members = brute_block_members(2, rel.block_lengths, set(rel.base))
    else:
        holes = [(0, 1) * 4 + (0,), (1, 0) * 4 + (1,)]
        rel, members = punctured(2, holes)
    witness = cross_equality_witness(rel, 1, 2)
    expected, excluded = brute_cross_equality(2, 1, members, rel.excluded)
    assert witness.excluded == excluded
    assert list(witness.relation) == sorted(expected)
