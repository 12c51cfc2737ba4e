"""The blocked grid evaluator, checked against the brute-force oracles.

An operation is evaluated on A^n through power tables of width b: one
table gather per block of b coordinates.  The batch size sets b, so every
check runs with batches of 1, 7 and 64 cells and at the default size.
Across these, b ranges from 1 (one gather per coordinate) to n (the
encoding is the only block).  The sizes include n that are not multiples
of b, where the top block has its own narrower table.  The random tables
have f(0, ..., 0) != 0, so a top block padded with zero coordinates would
give wrong images.  The split of encodings into blocks, at every width the
package uses, is checked against a divmod loop.
"""

import itertools
import random

import numpy as np
import pytest

import genpow.subpower
from genpow import Algebra, OperationTable, TupleSet, closure, preserves_relation
from genpow.subpower import (
    _block_columns,
    _block_table,
    _grid_results,
    _split_blocks,
    _table_width,
)
from tests.oracles import apply_op, brute_blocks, brute_closure, brute_preserves, random_op

DEFAULT_CELLS = genpow.subpower._CHUNK_CELLS

# (k, arity, n).  At the default batch size b is 8, 8, 5, 5, 5 and 3, so
# the top blocks are 1, 3, 2, 1, 2 and 1 coordinates wide.
CASES = [(2, 2, 9), (2, 2, 11), (2, 3, 7), (2, 3, 11), (3, 2, 7), (3, 3, 4)]


@pytest.fixture(params=[1, 7, 64, DEFAULT_CELLS], ids=["cells1", "cells7", "cells64", "default"])
def cells(request, monkeypatch):
    monkeypatch.setattr(genpow.subpower, "_CHUNK_CELLS", request.param)
    return request.param


def random_tuples(k, n, count, seed):
    rng = random.Random(seed)
    return {tuple(rng.randrange(k) for _ in range(n)) for _ in range(count)}


def small_seeds(k, n, seed):
    # Two seeds over {0, 1} or one over {0, 1, 2}: the closure holds at most
    # 2**(2**2) = 16 or 3**3 = 27 tuples (one per term operation), so the
    # rescan oracle stays cheap at any n.
    return random_tuples(k, n, 2 if k == 2 else 1, seed)


def test_cases_have_narrow_top_blocks():
    for k, arity, n in CASES:
        b, _ = _block_columns(random_op(k, arity, 0), n)
        assert 1 < b < n and n % b, (k, arity, n, b)


@pytest.mark.parametrize("k,arity,n", CASES)
@pytest.mark.parametrize("seed", range(2))
def test_closure_matches_rescan(cells, k, arity, n, seed):
    algebra = Algebra(k=k, operations=(random_op(k, arity, seed),))
    seeds = small_seeds(k, n, seed)
    got = closure(algebra, TupleSet.from_tuples(k, n, seeds))
    assert set(got) == brute_closure(algebra, seeds)


def test_closure_two_operations_of_different_arity(cells):
    # The two operations split the frontier into blocks of different widths.
    algebra = Algebra(k=2, operations=(random_op(2, 2, 5), random_op(2, 3, 6)))
    seeds = small_seeds(2, 11, 7)
    got = closure(algebra, TupleSet.from_tuples(2, 11, seeds))
    assert set(got) == brute_closure(algebra, seeds)


@pytest.mark.parametrize("n", [1, 3, 9, 17])
def test_closure_non_idempotent_corpus(cells, non_idem, n):
    seeds = random_tuples(2, n, 5, n)
    got = closure(non_idem, TupleSet.from_tuples(2, n, seeds))
    assert set(got) == brute_closure(non_idem, seeds)


@pytest.mark.parametrize("k,arity,n", CASES)
@pytest.mark.parametrize("seed", range(2))
def test_preserves_relation_matches_brute(cells, k, arity, n, seed):
    op = random_op(k, arity, seed)
    closed = brute_closure(Algebra(k=k, operations=(op,)), small_seeds(k, n, seed))
    relations = [
        closed,
        random_tuples(k, n, 6, seed),
        # A closed set without one of its tuples is preserved only when
        # no combination reaches that tuple.
        closed - {max(closed)},
    ]
    for members in relations:
        rel = TupleSet.from_tuples(k, n, members)
        assert preserves_relation(op, rel) == brute_preserves(op, members)
    assert preserves_relation(op, TupleSet.from_tuples(k, n, closed))


@pytest.mark.parametrize("k,arity,n", CASES)
def test_grid_results_apply_the_operation_coordinatewise(cells, k, arity, n):
    op = random_op(k, arity, n)
    rows = sorted(random_tuples(k, n, 5, arity))
    encodings = np.array([TupleSet(k, n).encode(t) for t in rows], dtype=np.int64)
    b, columns = _block_columns(op, n)
    blocks = _split_blocks(encodings, k, b, n)
    got = _grid_results(columns, [blocks] * arity).tolist()
    want = [
        TupleSet(k, n).encode(tuple(apply_op(op, column) for column in zip(*args)))
        for args in itertools.product(rows, repeat=arity)
    ]
    assert got == want


# (k, n) for the split: every k at small n, the largest n whose encodings
# fit the int64 limit at k = 2 and k = 3, and k = 1 at more digits than
# an array has dimensions.
SPLIT_SIZES = [(k, n) for k in (1, 2, 3, 5, 11) for n in (1, 2, 5, 7, 9)] + [
    (2, 62), (3, 39), (1, 70),
]


@pytest.mark.parametrize("k,n", SPLIT_SIZES)
def test_split_blocks_matches_a_divmod_loop(cells, k, n):
    rng = random.Random(1000 * k + n)
    space = k**n
    encodings = [0, space - 1] + [rng.randrange(space) for _ in range(30)]
    # The block width depends on k, the arity and n only.
    ops = [OperationTable(name="f", arity=arity, k=k, table=(0,) * k**arity) for arity in (2, 3)]
    grid_widths = {_block_columns(op, n)[0] for op in ops}
    for b in sorted({1, 2, n} & set(range(1, n + 1)) | grid_widths):
        blocks = -(-n // b)
        for rows in ([], encodings[:1], encodings):
            got = _split_blocks(np.array(rows, dtype=np.int64), k, b, n)
            assert got.dtype == np.int64
            assert got.shape == (len(rows), blocks)
            assert got.tolist() == [brute_blocks(e, k, b, n) for e in rows], b
        c = _table_width(k**b, blocks)
        if c > 1:
            table = _block_table(k**b, c)
            assert table.dtype == np.int64 and not table.flags.writeable


def test_table_width_is_the_widest_that_fits_a_batch(cells):
    # The table of c blocks, base**c rows of c entries, fits in one batch.
    for base, blocks in [(2, 62), (2, 3), (2, 15), (3, 39), (4, 8), (9, 8), (11, 5)]:
        widest = max(c for c in range(1, blocks + 1) if c == 1 or base**c * c <= cells)
        assert _table_width(base, blocks) == widest
    if cells == DEFAULT_CELLS:
        assert [_table_width(2, 62), _table_width(2, 15), _table_width(3, 10)] == [12, 12, 8]
