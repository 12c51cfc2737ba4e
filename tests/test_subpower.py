import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genpow.subpower

from genpow import (
    Algebra,
    BudgetExceededError,
    Limits,
    OperationTable,
    TupleSet,
    UniverseMismatchError,
    closure,
    closure_extend,
    decode_tuple,
    encode_tuple,
    equal_pair_tuples,
    is_full,
)
from genpow.subpower import _block_columns, _grid_batches, _grid_results, _weights
from tests.oracles import brute_closure, brute_equal_pair_tuples, gf2_affine_rank


def test_weights_are_cached_and_read_only():
    weights = _weights(3, 4)
    assert _weights(3, 4) is weights
    assert weights.tolist() == [27, 9, 3, 1]
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 0


@given(st.integers(min_value=1, max_value=5), st.data())
def test_encode_decode_round_trip(k, data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    t = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    assert decode_tuple(encode_tuple(t, k), k, n) == t


def test_encoding_is_row_major():
    # first coordinate most significant
    assert encode_tuple((1, 0), 2) == 2
    assert encode_tuple((0, 1), 2) == 1
    assert encode_tuple((2, 1, 0), 3) == 21
    assert decode_tuple(5, 2, 3) == (1, 0, 1)


def every_tuple(k, n):
    return list(itertools.product(range(k), repeat=n))


@pytest.mark.parametrize("backend", ["dense", "sparse"], ids=["None", "0"], indirect=True)
def test_tupleset_basics(backend):
    ts = TupleSet(2, 3)
    assert len(ts) == 0
    assert ts.add((0, 1, 1))
    assert not ts.add((0, 1, 1))
    assert (0, 1, 1) in ts
    assert (1, 1, 1) not in ts
    assert ts.add_encoding(7)
    assert ts.has_encoding(7)
    assert sorted(ts) == [(0, 1, 1), (1, 1, 1)]
    assert list(ts.encodings()) == [3, 7]


def test_dense_and_sparse_agree(sparse):
    dense = TupleSet(3, 2)
    with sparse():
        in_set = TupleSet(3, 2)
    assert (repr(dense)[-6:], repr(in_set)[-7:]) == ("dense)", "sparse)")
    for t in [(0, 1), (2, 2), (1, 0), (0, 1)]:
        assert dense.add(t) == in_set.add(t)
    assert dense == in_set
    assert list(dense.encodings()) == list(in_set.encodings())
    assert dense.text() == in_set.text()


def test_from_tuples_and_full():
    ts = TupleSet.from_tuples(2, 2, [(0, 0), (1, 1)])
    assert len(ts) == 2
    assert not is_full(ts)
    assert is_full(TupleSet.full(2, 2))
    assert len(TupleSet.full(3, 3)) == 27
    assert TupleSet.from_encodings(2, 2, [0, 3]) == ts


def test_full_builds_no_digits(backend, monkeypatch):
    def refuse(*args):
        raise AssertionError("TupleSet.full built a digit matrix")

    monkeypatch.setattr(genpow.subpower, "_split_blocks", refuse)
    monkeypatch.setattr(genpow.subpower, "_CHUNK_CELLS", 64)
    for k, n in ((1, 3), (2, 7), (3, 5)):
        ts = TupleSet.full(k, n)
        assert is_full(ts)
        assert ts.encodings().tolist() == list(range(k**n))


def test_copy_is_independent():
    ts = TupleSet.from_tuples(2, 2, [(0, 0)])
    other = ts.copy()
    other.add((1, 1))
    assert len(ts) == 1
    assert len(other) == 2


def test_lines_sorted_lexicographically():
    ts = TupleSet.from_tuples(2, 2, [(1, 0), (0, 1), (0, 0)])
    assert ts.text() == "0 0\n0 1\n1 0\n"


@pytest.mark.parametrize("k", [1, 2, 3, 10, 11, 16])
def test_lines_match_the_per_tuple_format(k, backend):
    # From k = 11 on, elements 10, 11, ... print with two digits.
    rng = np.random.default_rng(k)
    encodings = rng.choice(k**3, size=min(k**3, 40), replace=False)
    ts = TupleSet.from_encodings(k, 3, encodings.tolist())
    assert ts.text() == "".join(" ".join(str(a) for a in t) + "\n" for t in ts)
    if k == 11:
        assert TupleSet.from_tuples(11, 2, [(10, 3)]).text() == "10 3\n"


def test_tupleset_rejects_out_of_range():
    ts = TupleSet(2, 2)
    with pytest.raises(ValueError):
        ts.add((0, 2))
    with pytest.raises(ValueError):
        ts.add((0,))
    with pytest.raises(ValueError):
        ts.add_encoding(4)
    with pytest.raises(ValueError):
        ts.add_encoding(-1)


def test_contains_encodings_vectorised():
    ts = TupleSet.from_encodings(2, 3, [0, 3, 5])
    mask = ts.contains_encodings(np.array([0, 1, 3, 7], dtype=np.int64))
    assert mask.tolist() == [True, False, True, False]


def test_add_encodings_array_returns_fresh_only(sparse):
    ts = TupleSet.from_encodings(2, 3, [0, 3])
    fresh = ts.add_encodings_array(np.array([3, 5, 5, 7], dtype=np.int64))
    assert sorted(fresh.tolist()) == [5, 7]
    assert len(ts) == 4
    # A batch that repeats fresh encodings, unsorted, on both backends.
    for on in (False, True):
        with sparse(on):
            ts = TupleSet.from_encodings(2, 3, [0, 3])
        fresh = ts.add_encodings_array(np.array([6, 3, 1, 6, 0, 1, 6], dtype=np.int64))
        assert fresh.tolist() == [1, 6]
        assert ts.add_encodings_array(np.array([3, 6, 6], dtype=np.int64)).tolist() == []
        assert ts.add_encodings_array(np.array([2], dtype=np.int64)).tolist() == [2]
        assert ts.encodings().tolist() == [0, 1, 2, 3, 6]
        assert len(ts) == 5


@pytest.mark.parametrize("k,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_equal_pair_tuples_against_enumeration(k, m):
    ts = equal_pair_tuples(k, m)
    expected = brute_equal_pair_tuples(k, m)
    assert set(ts) == expected
    assert len(ts) == k ** (2 * m) - (k * k - k) ** m


def test_equal_pair_tuples_respects_budget():
    with pytest.raises(BudgetExceededError):
        equal_pair_tuples(3, 5, limits=Limits(space=100))


def test_closure_of_projections_is_identity(proj2):
    seeds = TupleSet.from_tuples(2, 3, [(0, 1, 1), (1, 0, 1)])
    assert closure(proj2, seeds) == seeds


def test_closure_xor3_hand_example(xor3):
    seeds = TupleSet.from_tuples(2, 2, [(0, 1), (1, 0)])
    out = closure(xor3, seeds)
    # xor of three rows from {01, 10} can produce 01, 10 only; need a third seed
    assert set(out) == {(0, 1), (1, 0)}
    seeds.add((1, 1))
    assert is_full(closure(xor3, seeds))


def test_closure_universe_mismatch(xor3):
    with pytest.raises(UniverseMismatchError):
        closure(xor3, TupleSet.from_tuples(3, 2, [(0, 1)]))


def test_closure_extend_universe_mismatch(xor3, egp3):
    # Unchecked, egp3 (k = 3) on a k = 2 set made up a closure and xor3 on
    # a k = 3 set indexed past its power table.
    with pytest.raises(UniverseMismatchError):
        closure_extend(egp3, TupleSet.from_encodings(2, 2, [0]), [1])
    with pytest.raises(UniverseMismatchError):
        closure_extend(xor3, TupleSet.from_encodings(3, 3, [0]), [26])


def test_closure_empty_seeds(xor3):
    assert len(closure(xor3, TupleSet(2, 2))) == 0


def test_closure_matches_brute_force_on_corpus(corpus):
    rng = np.random.default_rng(7)
    for alg in corpus.values():
        for n in (1, 2, 3):
            space = alg.k**n
            for _ in range(4):
                count = int(rng.integers(1, min(6, space) + 1))
                encs = rng.choice(space, size=count, replace=False)
                seeds = TupleSet.from_encodings(alg.k, n, [int(e) for e in encs])
                got = closure(alg, seeds)
                want = brute_closure(alg, set(seeds))
                assert set(got) == want


@pytest.mark.parametrize("count", [1, 3, 6])
@pytest.mark.parametrize("n", [20, 30, 40])
def test_xor3_closure_is_the_affine_span_at_large_n(xor3, n, count):
    # xor3 closes a set to its affine span over GF(2).  From n = 27 on, 2**n
    # is over the dense limit, so the closure is sparse; every layout here
    # has more than one block.
    rng = random.Random(n * 10 + count)
    seeds = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(count)]
    base, *others = [int("".join(map(str, t)), 2) for t in seeds]
    span = {base}
    for other in others:
        span |= {x ^ other ^ base for x in span}
    got = closure(xor3, TupleSet.from_tuples(2, n, seeds))
    assert repr(got).endswith("dense)" if n < 27 else "sparse)")
    assert _block_columns(xor3.operations[0], n)[0] < n
    assert set(got.encodings().tolist()) == span
    assert len(got) == 2 ** gf2_affine_rank(seeds)


def small_algebras():
    tables = st.lists(st.integers(0, 1), min_size=4, max_size=4).map(tuple)
    return st.lists(tables, min_size=0, max_size=2).map(
        lambda ts: Algebra(
            k=2,
            operations=tuple(
                OperationTable(name=f"f{i}", arity=2, k=2, table=t)
                for i, t in enumerate(ts)
            ),
        )
    )


def seed_sets(n):
    return st.sets(st.integers(0, 2**n - 1), min_size=1, max_size=5).map(
        lambda encs: TupleSet.from_encodings(2, n, sorted(encs))
    )


@settings(max_examples=40)
@given(small_algebras(), seed_sets(3))
def test_closure_is_a_closure_operator(alg, seeds):
    out = closure(alg, seeds)
    # extensive
    assert all(t in out for t in seeds)
    # idempotent
    assert closure(alg, out) == out
    # agrees with the rescan oracle
    assert set(out) == brute_closure(alg, set(seeds))


@settings(max_examples=30)
@given(small_algebras(), seed_sets(3), st.sets(st.integers(0, 7), max_size=3))
def test_closure_extend_matches_scratch(alg, seeds, extra):
    closed = closure(alg, seeds)
    widened = closure_extend(alg, closed, sorted(extra))
    scratch = seeds.copy()
    for e in sorted(extra):
        scratch.add_encoding(e)
    assert widened == closure(alg, scratch)


@settings(max_examples=30)
@given(small_algebras(), seed_sets(3), seed_sets(3))
def test_closure_monotone(alg, a, b):
    merged = a.copy()
    for e in b.encodings():
        merged.add_encoding(int(e))
    small = closure(alg, a)
    big = closure(alg, merged)
    assert all(big.has_encoding(int(e)) for e in small.encodings())


def test_closure_chunk_size_independent(xor3, egp3, small_batch_closure):
    seeds = equal_pair_tuples(2, 2)
    default = closure(xor3, seeds)
    tiny = small_batch_closure(xor3, seeds)
    assert default == tiny
    seeds3 = TupleSet.from_tuples(3, 2, [(0, 1), (1, 2), (2, 0)])
    assert closure(egp3, seeds3) == small_batch_closure(egp3, seeds3)


def test_grid_batches_never_exceed_the_batch_size():
    # The trailing 300 x 300 axes alone exceed 2^16 cells, so the first
    # axis is taken one row at a time and the second is cut into runs.
    groups = [np.zeros((300, 1), dtype=np.int64)] * 3
    cells = [count for _, count in _grid_batches(groups)]
    assert max(cells) <= genpow.subpower._CHUNK_CELLS
    assert sum(cells) == 300**3


@pytest.mark.parametrize("cells", [1, 5, 7, 64])
def test_grid_batches_cover_the_grid_in_order(monkeypatch, cells):
    monkeypatch.setattr(genpow.subpower, "_CHUNK_CELLS", cells)
    rng = np.random.default_rng(0)
    groups = [rng.integers(0, 3, size=(rows, 2)) for rows in (4, 3, 5)]
    table = rng.integers(0, 3, size=27)
    weights = _weights(3, 2)
    parts = []
    for batch, count in _grid_batches(groups):
        assert 1 <= count <= cells
        parts.append(_grid_results([(table, 3)] * weights.size, batch))
        assert parts[-1].size == count
    whole = _grid_results([(table, 3)] * weights.size, groups)
    assert np.concatenate(parts).tolist() == whole.tolist()
    assert list(_grid_batches([groups[0], groups[1][:0], groups[2]])) == []


def test_closure_dense_sparse_equivalent(egp3, sparse):
    dense = TupleSet.from_tuples(3, 2, [(0, 2), (2, 1)])
    with sparse():
        in_set = TupleSet.from_tuples(3, 2, [(0, 2), (2, 1)])
    assert closure(egp3, dense) == closure(egp3, in_set)


def test_closure_step_budget(xor3):
    seeds = TupleSet.from_tuples(2, 4, [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)])
    with pytest.raises(BudgetExceededError):
        closure(xor3, seeds, limits=Limits(steps=10))


def test_closure_stops_at_full_power(xor3):
    # The first grid alone is 240**3 = 13.8 M cells, but its first
    # 57,600-cell row already fills A^8.
    assert is_full(closure(xor3, equal_pair_tuples(2, 4), limits=Limits(steps=200_000)))


# xor3 closes these seeds to their affine hull of 4 tuples in 64 cells:
# 3**3 = 27 in round 0, then grids of 9, 12 and 16 cells in round 1.
_HULL_SEEDS = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)]


def test_closure_budget_on_proper_closure(xor3):
    # Round 0 applies xor3 to the 3**3 = 27 seed triples.  xor3 ignores the
    # order of its arguments, so round 1 runs one grid, the new tuple
    # against all four twice: 1 * 4**2 = 16 cells, 43 in all.
    seeds = TupleSet.from_tuples(2, 4, _HULL_SEEDS)
    assert len(closure(xor3, seeds, limits=Limits(steps=43))) == 4
    with pytest.raises(BudgetExceededError):
        closure(xor3, seeds, limits=Limits(steps=42))


def test_closure_budget_error_reports_progress(xor3):
    seeds = TupleSet.from_tuples(2, 4, _HULL_SEEDS)
    with pytest.raises(BudgetExceededError) as info:
        closure(xor3, seeds, limits=Limits(steps=42))
    # The one grid of round 1 would take 27 applied steps to 43.
    assert "rounds completed: 1, tuples: 4 of 16, steps applied: 27" in str(info.value)


def test_closure_does_not_mutate_seeds(xor3):
    seeds = TupleSet.from_tuples(2, 2, [(0, 1), (1, 0), (1, 1)])
    before = list(seeds.encodings())
    closure(xor3, seeds)
    assert list(seeds.encodings()) == before
