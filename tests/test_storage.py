"""TupleSet storage: add_encodings_array is its one writer, _unique its one
dedupe, and dense or sparse storage is chosen from k**n alone.

A guard scans the package source for any other write to the storage, and
the writer and the dedupe are checked on both backends.
"""

import ast
import pathlib
import re
import time

import numpy as np
import pytest

import genpow
from genpow import BudgetExceededError, TupleSet, closure_extend
from genpow.subpower import _unique

SRC = pathlib.Path(genpow.__file__).resolve().parent
STORAGE = {"_dense", "_sparse", "_count"}
WRITERS = {("TupleSet", "__init__"), ("TupleSet", "copy"), ("TupleSet", "add_encodings_array")}


def _storage_name(node):
    """The storage attribute a target writes to: x._dense or x._dense[...]."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in STORAGE:
        return node.attr
    return None


def _storage_writes(tree):
    """(line, scope, attribute) of every write to the storage: an
    assignment, subscript assignment or augmented assignment to it, or a
    call of its .add or .update."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            targets = []
            if isinstance(child, ast.Assign):
                # Unpacked targets too; only the stored node of each counts.
                targets = [
                    n for t in child.targets for n in ast.walk(t)
                    if isinstance(getattr(n, "ctx", None), ast.Store)
                ]
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("add", "update")
            ):
                targets = [child.func.value]
            for target in targets:
                name = _storage_name(target)
                if name:
                    found.append((child.lineno, scope, name))
            visit(child, inner)

    visit(tree, ())
    return found


def test_the_guard_sees_every_kind_of_write():
    source = '''
class TupleSet:
    def full(self):
        self._dense[:] = True
        self._sparse = set()
        self._count += 1
        self._count: int = 0

    def add_encoding(self, e):
        self._sparse.add(e)
        self._sparse.update([e])
        a, self._count = 1, 2

    def reads(self, e):
        return self._dense[e], e in self._sparse, self._count, {1}.add(e)

def elsewhere(ts):
    ts._dense[0] = True
'''
    writes = [(scope, name) for _, scope, name in _storage_writes(ast.parse(source))]
    full, add = ("TupleSet", "full"), ("TupleSet", "add_encoding")
    assert writes == [
        (full, "_dense"), (full, "_sparse"), (full, "_count"), (full, "_count"),
        (add, "_sparse"), (add, "_sparse"), (add, "_count"), (("elsewhere",), "_dense"),
    ]


def test_add_encodings_array_is_the_only_writer_after_construction():
    stray, writers = [], set()
    for path in sorted(SRC.glob("*.py")):
        for line, scope, name in _storage_writes(ast.parse(path.read_text(encoding="utf-8"))):
            if scope in WRITERS:
                writers.add(scope)
            else:
                stray.append(f"{path.name}:{line} {'.'.join(scope)} writes {name}")
    assert stray == []
    assert writers == WRITERS


def test_numpy_unique_is_not_used():
    pattern = re.compile(r"\b(np|numpy)\.unique\b")
    used = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert used == []


def _draws():
    rng = np.random.default_rng(19)
    shuffled = rng.permutation(1000).astype(np.int64)
    return {
        "empty": np.empty(0, dtype=np.int64),
        "one": np.array([7], dtype=np.int64),
        "sorted_distinct": np.arange(0, 300, 3, dtype=np.int64),
        "shuffled": shuffled,
        "heavy_duplicates": rng.integers(0, 12, size=5000).astype(np.int64),
        "wide": rng.integers(-(2**62), 2**62, size=2000).astype(np.int64),
    }


@pytest.mark.parametrize("name", sorted(_draws()))
def test_unique_matches_numpy(name):
    values = _draws()[name]
    before = values.copy()
    got = _unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype == np.int64
    assert got.tolist() == want.tolist()
    assert values.tolist() == before.tolist()  # the input is left as it was


def test_storage_follows_k_to_the_n(sparse):
    assert repr(TupleSet(2, 26)).endswith("dense)")
    assert repr(TupleSet(2, 27)).endswith("sparse)")
    with sparse():
        assert repr(TupleSet(2, 1)).endswith("sparse)")


# (batch, new encodings returned, members after) on top of {3, 9, 20}.
BATCHES = {
    "all_known": ([9, 3, 20, 3], [], [3, 9, 20]),
    "partly_known": ([21, 3, 0, 9, 5], [0, 5, 21], [0, 3, 5, 9, 20, 21]),
    "duplicated": ([30, 4, 30, 3, 4, 4, 30], [4, 30], [3, 4, 9, 20, 30]),
    "empty": ([], [], [3, 9, 20]),
}


@pytest.mark.parametrize("case", sorted(BATCHES))
def test_add_encodings_array_returns_the_new_encodings_ascending(backend, case):
    batch, new, members = BATCHES[case]
    ts = TupleSet.from_encodings(2, 5, [20, 3, 9, 3])
    assert repr(ts).endswith(f"{backend})")
    assert len(ts) == 3
    fresh = ts.add_encodings_array(np.array(batch, dtype=np.int64))
    assert fresh.tolist() == new
    assert len(ts) == len(members)
    assert ts.encodings().tolist() == members
    assert ts.add_encodings_array(np.array(batch, dtype=np.int64)).tolist() == []
    assert len(ts) == len(members)


def test_add_encoding_reports_whether_it_was_new(backend):
    ts = TupleSet(2, 3)
    assert ts.add_encoding(5) is True
    assert ts.add_encoding(5) is False
    assert (len(ts), ts.encodings().tolist()) == (1, [5])


@pytest.mark.parametrize("bad", [-1, 8, 2**70])
def test_out_of_range_encodings_are_refused_with_one_message(xor3, backend, bad):
    message = re.escape(f"encoding {bad} outside [0, 8)")
    with pytest.raises(ValueError, match=message):
        TupleSet.from_encodings(2, 3, [1, bad, 9])
    ts = TupleSet.from_encodings(2, 3, [1])
    with pytest.raises(ValueError, match=message):
        ts.add_encoding(bad)
    with pytest.raises(ValueError, match=message):
        closure_extend(xor3, ts, [2, bad])
    assert ts.encodings().tolist() == [1]


@pytest.mark.parametrize("bad", [-1, 8, 13])
def test_membership_outside_the_space_is_refused(backend, bad):
    # Both storages refuse alike, naming the first encoding outside [0, 8):
    # a dense array must not read -1 as its last cell.
    ts = TupleSet.from_encodings(2, 3, [7])
    message = re.escape(f"encoding {bad} outside [0, 8)")
    with pytest.raises(ValueError, match=message):
        ts.has_encoding(bad)
    with pytest.raises(ValueError, match=message):
        ts.contains_encodings(np.array([7, bad, 9, 0], dtype=np.int64))
    assert ts.contains_encodings(np.array([7, 0], dtype=np.int64)).tolist() == [True, False]


def test_full_is_refused_above_the_space_budget():
    # full goes through the space scan, which refuses 2**27 tuples before
    # it makes a batch.
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="exceeds the space budget"):
        TupleSet.full(2, 27)
    assert time.perf_counter() - start < 1.0
