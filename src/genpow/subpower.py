"""Extensional subsets of A^n and the generated-subpower closure engine.

Tuples are encoded as row-major base-k integers with the first coordinate
most significant; a TupleSet keeps either a dense membership array over
the whole space or a sparse set of encodings.  The closure engine is a
semi-naive worklist: each round combines the newly discovered tuples with
everything known, in vectorized batches.  The result is the unique least
fixed point, independent of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, compress
from operator import add, itemgetter, or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import Algebra, OperationTable
from .errors import BudgetExceededError, PreconditionError, UniverseMismatchError

_ENCODING_LIMIT = 1 << 62  # encodings must fit comfortably in int64
_CHUNK_CELLS = 1 << 16  # grid cells per vectorized batch; int64 temporaries stay in cache
_MASK_BITS = 4  # tuples per chunk of a bit mask in the exact search: one hex digit
_HEX_VALUES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_BIT_VALUES = bytes.maketrans(b"01", bytes(range(2)))


@dataclass(frozen=True)
class Limits:
    """Every budget a bounded route stops at; each is enforced by one method.

    A method that finds its budget exceeded raises BudgetExceededError.
    """

    space: int = 1 << 26  # largest k**n a scan or enumerating constructor accepts, also
    # the pairs a covering-pair scan checks and the bits the exact search memoizes
    steps: int = 10**9  # closure combination applications, per closure call
    exact: int = 256  # largest k**n the exact minimum-size search accepts
    nodes: int = 20_000  # search-tree nodes before the exact search gives up
    combinations: int = 10**7  # argument combinations per preservation scan
    dense: int = 1 << 26  # largest k**n realized as a dense membership array

    def check_space(self, k: int, n: int) -> None:
        if k**n > self.space:
            raise BudgetExceededError(
                f"tuple space k**n = {k}**{n} = {k**n} exceeds the space budget "
                f"{self.space}"
            )

    def check_switch_tuples(self, total: int) -> None:
        if total > self.space:
            raise BudgetExceededError(
                f"{total} bounded-switch tuples exceed the budget {self.space}"
            )

    def check_exact(self, space: int) -> None:
        if space > self.exact:
            raise BudgetExceededError(
                f"k**n = {space} exceeds the exact-search budget {self.exact}"
            )

    def check_nodes(self, nodes: int, space: int) -> None:
        if nodes > self.nodes:
            raise BudgetExceededError(
                f"exact search exceeded {self.nodes} nodes at k**n = {space}"
            )

    def check_combinations(self, count: int, arity: int) -> None:
        if count**arity > self.combinations:
            raise BudgetExceededError(
                f"{count}**{arity} argument combinations exceed the budget "
                f"{self.combinations}"
            )

    def check_pairs(self, checked: int, chunk: int) -> None:
        """A covering-pair scan that has checked `checked` pairs may check
        a chunk of `chunk` more only within the space budget."""
        if checked + chunk > self.space:
            raise BudgetExceededError(
                f"covering-pair scan exceeded the space budget of {self.space:,} "
                f"pairs (pairs checked: {checked:,})"
            )

    def charge_steps(
        self, steps: int, cells: int, rounds: int, tuples: tuple[int, int]
    ) -> int:
        """Steps applied once a batch of `cells` runs after `steps`; a closure
        that cannot afford the batch is refused with how far it got.
        `tuples` is (tuples found so far, k**n).
        """
        if steps + cells > self.steps:
            found, space = tuples
            raise BudgetExceededError(
                f"closure exceeded the step budget of {self.steps:,} "
                f"combination applications (rounds completed: {rounds}, "
                f"tuples: {found:,} of {space:,}, "
                f"steps applied: {steps:,})"
            )
        return steps + cells


LIMITS = Limits()


def encode_tuple(t: Sequence[int], k: int) -> int:
    value = 0
    for a in t:
        value = value * k + a
    return value


def decode_tuple(encoding: int, k: int, n: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        encoding, out[i] = divmod(encoding, k)
    return tuple(out)


class TupleSet:
    """A subset of A^n with integer-encoded members.

    Membership storage is dense (one byte per point of the whole space)
    when k**n fits under limits.dense, sparse (a set of encodings)
    otherwise.  The two representations are observationally identical.
    """

    __slots__ = ("k", "n", "space", "_dense", "_sparse", "_count")

    def __init__(self, k: int, n: int, *, limits: Limits = LIMITS):
        if k < 1:
            raise ValueError(f"universe size must be >= 1, got {k}")
        if n < 1:
            raise ValueError(f"arity must be >= 1, got {n}")
        space = k**n
        if space > _ENCODING_LIMIT:
            raise BudgetExceededError(
                f"tuple space k**n = {space} exceeds the representable limit"
            )
        self.k = k
        self.n = n
        self.space = space
        if space <= limits.dense:
            self._dense: np.ndarray | None = np.zeros(space, dtype=bool)
            self._sparse: set[int] | None = None
        else:
            self._dense = None
            self._sparse = set()
        self._count = 0

    # -- construction ------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        k: int,
        n: int,
        tuples: Iterable[Sequence[int]],
        *,
        limits: Limits = LIMITS,
    ) -> "TupleSet":
        ts = cls(k, n, limits=limits)
        for t in tuples:
            ts.add(t)
        return ts

    @classmethod
    def from_encodings(
        cls,
        k: int,
        n: int,
        encodings: Iterable[int],
        *,
        limits: Limits = LIMITS,
    ) -> "TupleSet":
        ts = cls(k, n, limits=limits)
        for e in encodings:
            ts.add_encoding(int(e))
        return ts

    @classmethod
    def from_mask(
        cls,
        k: int,
        n: int,
        predicate: Callable[[np.ndarray], np.ndarray],
        *,
        limits: Limits = LIMITS,
    ) -> "TupleSet":
        """The tuples of A^n that the predicate keeps.  It maps each
        scan_space batch's (rows, n) digit matrix to a boolean row mask.
        """
        batches = scan_space(k, n, limits=limits)
        ts = cls(k, n, limits=limits)
        for encodings, digits in batches:
            ts.add_encodings_array(encodings[predicate(digits)])
        return ts

    @classmethod
    def full(cls, k: int, n: int, *, limits: Limits = LIMITS) -> "TupleSet":
        ts = cls(k, n, limits=limits)
        if ts._dense is not None:
            ts._dense[:] = True
        else:
            ts._sparse = set(range(ts.space))
        ts._count = ts.space
        return ts

    def copy(self) -> "TupleSet":
        clone = TupleSet.__new__(TupleSet)
        clone.k = self.k
        clone.n = self.n
        clone.space = self.space
        clone._dense = None if self._dense is None else self._dense.copy()
        clone._sparse = None if self._sparse is None else set(self._sparse)
        clone._count = self._count
        return clone

    # -- membership --------------------------------------------------

    def encode(self, t: Sequence[int]) -> int:
        if len(t) != self.n:
            raise ValueError(f"expected a tuple of arity {self.n}, got {len(t)}")
        for a in t:
            if not 0 <= a < self.k:
                raise ValueError(f"coordinate {a} outside universe [0, {self.k})")
        return encode_tuple(t, self.k)

    def decode(self, encoding: int) -> tuple[int, ...]:
        return decode_tuple(encoding, self.k, self.n)

    def add(self, t: Sequence[int]) -> bool:
        return self.add_encoding(self.encode(t))

    def add_encoding(self, encoding: int) -> bool:
        if not 0 <= encoding < self.space:
            raise ValueError(f"encoding {encoding} outside [0, {self.space})")
        if self._dense is not None:
            if self._dense[encoding]:
                return False
            self._dense[encoding] = True
        else:
            if encoding in self._sparse:
                return False
            self._sparse.add(encoding)
        self._count += 1
        return True

    def has_encoding(self, encoding: int) -> bool:
        if self._dense is not None:
            return bool(self._dense[encoding])
        return encoding in self._sparse

    def __contains__(self, t: Sequence[int]) -> bool:
        return self.has_encoding(self.encode(t))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for digits in self._digit_batches():
            yield from map(tuple, digits.tolist())

    def _digit_batches(self) -> Iterator[np.ndarray]:
        """Digit matrices of the members, ascending, in batches of at most
        _CHUNK_CELLS digits."""
        members = self.encodings()
        weights = _weights(self.k, self.n)
        rows = max(1, _CHUNK_CELLS // self.n)
        for start in range(0, members.size, rows):
            yield _digit_matrix(members[start : start + rows], weights, self.k)

    def encodings(self) -> np.ndarray:
        """All member encodings, ascending, as an int64 array."""
        if self._dense is not None:
            return np.flatnonzero(self._dense).astype(np.int64)
        return np.array(sorted(self._sparse), dtype=np.int64)

    def contains_encodings(self, arr: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return self._dense[arr]
        sparse = self._sparse
        return np.fromiter((e in sparse for e in arr.tolist()), dtype=bool, count=arr.size)

    def add_encodings_array(self, arr: np.ndarray) -> np.ndarray:
        """Insert encodings in bulk; return the ones that were actually new,
        ascending."""
        if arr.size == 0:
            return arr
        if self._dense is not None:
            # Most batches are all known already; dedupe only the rest.
            fresh = arr[~self._dense[arr]]
            if fresh.size > 1:
                fresh = np.unique(fresh)
            self._dense[fresh] = True
        else:
            sparse = self._sparse
            fresh_list = [e for e in np.unique(arr).tolist() if e not in sparse]
            sparse.update(fresh_list)
            fresh = np.array(fresh_list, dtype=np.int64)
        self._count += fresh.size
        return fresh

    # -- comparisons and export ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleSet):
            return NotImplemented
        if (self.k, self.n, self._count) != (other.k, other.n, other._count):
            return False
        return np.array_equal(self.encodings(), other.encodings())

    def __repr__(self) -> str:
        kind = "dense" if self._dense is not None else "sparse"
        return f"TupleSet(k={self.k}, n={self.n}, size={self._count}, {kind})"

    def lines(self) -> Iterator[str]:
        """Export rows: base-k digits separated by spaces, ascending."""
        symbols = np.array([str(a) for a in range(self.k)], dtype=object)
        for digits in self._digit_batches():
            yield from map(" ".join, symbols[digits].tolist())


def is_full(ts: TupleSet) -> bool:
    """True iff the set is all of A^n."""
    return len(ts) == ts.space


def equal_pair_tuples(k: int, m: int, *, limits: Limits = LIMITS) -> TupleSet:
    """Tuples of length 2m where some designated pair (2i, 2i+1) is equal.

    The complement consists of tuples whose m designated pairs are all
    unequal, so the cardinality is k**(2m) - (k*k - k)**m.
    """
    if k < 1 or m < 1:
        raise PreconditionError(f"need k >= 1 and m >= 1, got k = {k}, m = {m}")
    return TupleSet.from_mask(
        k, 2 * m, lambda digits: (digits[:, 0::2] == digits[:, 1::2]).any(axis=1),
        limits=limits,
    )


@lru_cache(maxsize=64)
def _weights(k: int, n: int) -> np.ndarray:
    """Place values of the n base-k digits, most significant first;
    read-only, since every caller shares it."""
    weights = np.power(k, np.arange(n - 1, -1, -1), dtype=np.int64)
    weights.flags.writeable = False
    return weights


def scan_space(
    k: int, n: int, *, limits: Limits = LIMITS
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk A^n in ascending encoding order, in batches of at most
    _CHUNK_CELLS digit cells.

    Yields each batch's int64 encodings with their (rows, n) digit matrix.
    A space above the space budget is refused here, before any batch is made.
    """
    limits.check_space(k, n)
    return _scan_batches(k, n)


def _scan_batches(k: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    space = k**n
    weights = _weights(k, n)
    rows = max(1, _CHUNK_CELLS // n)
    for start in range(0, space, rows):
        encodings = np.arange(start, min(start + rows, space), dtype=np.int64)
        yield encodings, _digit_matrix(encodings, weights, k)


def _digit_matrix(encodings: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Shape (len(encodings), n) matrix of base-k digits."""
    return (encodings[:, None] // weights[None, :]) % k


def _grid_batches(
    digit_groups: list[np.ndarray],
) -> Iterator[tuple[list[np.ndarray], int]]:
    """Split the cartesian grid over the rows of the groups into batches of
    at most _CHUNK_CELLS cells, in row-major order.

    The first axis is cut into runs of rows.  When one row of it alone
    exceeds the batch size, its rows are taken one at a time and the rest
    of the grid is split the same way.  Yields each batch's groups with
    its cell count.
    """
    first, rest = digit_groups[0], digit_groups[1:]
    tail = math.prod(g.shape[0] for g in rest)
    if tail == 0:
        return
    if tail > _CHUNK_CELLS:
        inner = list(_grid_batches(rest))
        for i in range(first.shape[0]):
            row = first[i : i + 1]
            for batch, cells in inner:
                yield [row, *batch], cells
        return
    rows_per = max(1, _CHUNK_CELLS // tail)
    for start in range(0, first.shape[0], rows_per):
        head = first[start : start + rows_per]
        yield [head, *rest], head.shape[0] * tail


def _grid_results(
    columns: Sequence[tuple[np.ndarray, int]],
    groups: Sequence[np.ndarray],
) -> np.ndarray:
    """Result encodings of applying one operation to every argument combo.

    groups[i] has one row per argument tuple and one column per block,
    most significant first; the grid is the cartesian product over rows of
    the groups.  columns[c] = (table, base) evaluates block c: `base` is
    the number of values a block-c entry takes (k**width) and `table` is
    the operation on such blocks (see _power_table).  Block results are
    joined in base `base`, so one gather is done per block.
    """
    first, rest = groups[0], groups[1:]
    result = None
    for c, (table, base) in enumerate(columns):
        index = first[:, c]
        for group in rest:
            index = index[..., None] * base + group[:, c]
        if result is None:
            result = table[index].astype(np.int64)
        else:
            result *= base
            result += table[index]
    return result.ravel()


@lru_cache(maxsize=64)
def _power_table(op: OperationTable, width: int) -> np.ndarray:
    """The operation applied coordinatewise to A^width, on encodings.

    Indexed like op.table with base-k**width block encodings for
    arguments; each entry is the encoding of the image.  Built by
    _grid_results over the digit matrix of A^width, in the narrowest
    unsigned dtype, and read-only since every caller shares it.
    """
    k = op.k
    table = np.array(op.table, dtype=np.min_scalar_type(k - 1))
    if width > 1:
        digits = _digit_matrix(np.arange(k**width, dtype=np.int64), _weights(k, width), k)
        images = _grid_results([(table, k)] * width, [digits] * op.arity)
        table = images.astype(np.min_scalar_type(k**width - 1))
    table.flags.writeable = False
    return table


def _block_columns(op: OperationTable, n: int) -> tuple[int, list[tuple[np.ndarray, int]]]:
    """Block width b for evaluating op on A^n, with the _grid_results
    column of each of the ceil(n/b) blocks, most significant first.

    b is the widest width <= n whose power table, k**(b*arity) entries,
    fits in one grid batch, and at least 1.  The top block holds the
    n - (blocks-1)*b leftover coordinates and has its own narrower table:
    padding it with zero coordinates would be wrong whenever
    f(0, ..., 0) != 0.
    """
    k = op.k
    b = 1
    while b < n and k ** ((b + 1) * op.arity) <= _CHUNK_CELLS:
        b += 1
    blocks = -(-n // b)
    widths = [n - (blocks - 1) * b] + [b] * (blocks - 1)
    return b, [(_power_table(op, w), k**w) for w in widths]


def _split_blocks(encodings: np.ndarray, k: int, b: int, n: int) -> np.ndarray:
    """Shape (len(encodings), ceil(n/b)) matrix of base-k**b blocks,
    most significant first.  With b = n the encoding is the only block."""
    if b == n:
        return encodings[:, None]
    return _digit_matrix(encodings, _weights(k**b, -(-n // b)), k**b)


def _grid_images(op: OperationTable, members: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Images under op, applied coordinatewise, of every op.arity-tuple of
    members (encodings in A^n), one _grid_batches batch at a time."""
    b, columns = _block_columns(op, n)
    blocks = _split_blocks(members, op.k, b, n)
    for batch, _ in _grid_batches([blocks] * op.arity):
        yield _grid_results(columns, batch)


@lru_cache(maxsize=64)
def _layouts(
    operations: tuple[OperationTable, ...], n: int, chunk_cells: int
) -> tuple[tuple[int, list[tuple[np.ndarray, int]]], ...]:
    """_block_columns of each operation on A^n.  Keyed on the batch size
    too, because the block width depends on it."""
    return tuple(_block_columns(op, n) for op in operations)


def _saturate(
    algebra: Algebra,
    result: TupleSet,
    old: np.ndarray | list[int],
    new: np.ndarray | list[int],
    limits: Limits,
    ceiling: int,
    steps: int = 0,
    rounds: int = 0,
) -> TupleSet:
    """Drive (old | new) to the closure fixed point inside `result`, from
    a closure that has applied `steps` steps in `rounds` rounds.

    `old` must already be closed as a standalone set; every member of
    both must already be present in `result`.  Both are ascending.
    `ceiling` is the size of a closed superset of them (k**n, the full
    power, unless the caller knows a smaller one).  The closure is the
    least fixed point, so once the result holds `ceiling` tuples it is
    that superset, and final; the check comes before each charge.

    A round that fits one batch and the step budget is evaluated whole:
    s grids per s-ary operation, one charge and one insertion.  Any other
    round runs argument pattern by pattern in batches, charging and
    inserting per batch, so a refusal says how far it got.  No batch of a
    whole round could have been refused, and both ways insert the same
    images, so the two agree on every result and every refusal.
    """
    if not algebra.operations:
        return result
    k, n = result.k, result.n
    layouts = _layouts(algebra.operations, n, _CHUNK_CELLS)
    old, new = np.asarray(old, np.int64), np.asarray(new, np.int64)
    widths = {b for b, _ in layouts}
    old_blocks = {b: _split_blocks(old, k, b, n) for b in widths}
    while new.size:
        union = np.concatenate([old, new])
        union.sort()
        new_blocks = {b: _split_blocks(new, k, b, n) for b in widths}
        union_blocks = {b: _split_blocks(union, k, b, n) for b in widths}
        round_cells = sum(
            union.size**op.arity - old.size**op.arity for op in algebra.operations
        )
        if round_cells <= _CHUNK_CELLS and steps + round_cells <= limits.steps:
            if len(result) == ceiling:
                return result
            steps = limits.charge_steps(
                steps, round_cells, rounds, (len(result), result.space)
            )
            # Grid i draws argument i from the new frontier, the earlier
            # ones from `old` and the later ones from `old | new`: together
            # every combination that touches the frontier, each once.
            images = []
            for op, (b, columns) in zip(algebra.operations, layouts):
                s = op.arity
                for i in range(s if old.size else 1):
                    groups = [old_blocks[b]] * i + [new_blocks[b]]
                    groups += [union_blocks[b]] * (s - 1 - i)
                    images.append(_grid_results(columns, groups))
            new = result.add_encodings_array(np.concatenate(images))
        else:
            produced: list[np.ndarray] = []
            for op, (b, columns) in zip(algebra.operations, layouts):
                s = op.arity
                # Every argument pattern that draws at least one tuple from
                # the new frontier; all-old combos were covered in earlier
                # rounds.
                for pattern in range(1, 1 << s):
                    groups = [
                        new_blocks[b] if (pattern >> (s - 1 - i)) & 1 else old_blocks[b]
                        for i in range(s)
                    ]
                    for batch, cells in _grid_batches(groups):
                        if len(result) == ceiling:
                            return result
                        steps = limits.charge_steps(
                            steps, cells, rounds, (len(result), result.space)
                        )
                        fresh = result.add_encodings_array(_grid_results(columns, batch))
                        if fresh.size:
                            produced.append(fresh)
            new = np.sort(np.concatenate(produced)) if produced else np.empty(0, np.int64)
        rounds += 1
        old, old_blocks = union, union_blocks
    return result


def _mask_members(mask: int, space: int) -> list[int]:
    """Ascending positions of the set bits of a mask below bit `space`."""
    if mask.bit_count() * 8 < space:
        # Few members: walking them beats a pass over all `space` bits.
        members = []
        while mask:
            low = mask & -mask
            members.append(low.bit_length() - 1)
            mask ^= low
        return members
    bits = format(mask, f"0{space}b")[::-1].encode().translate(_BIT_VALUES)
    return list(compress(range(space), bits))


def _image_tables(op: OperationTable, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Image masks of op on A^n, for applying it to whole bit masks of
    tuples chunk by chunk (the "Four Russians" method).

    Returns (last, first).  last[p] is a row for the last argument, p the
    base-k**n index of an assignment of the others: entry
    (c << _MASK_BITS) + v is the OR of 1 << f(..., x) over the encodings
    x = c * _MASK_BITS + b with bit b of v set.  first[p] is the same for
    the first argument; a unary op has only `last`, with the one row p = 0.
    Each row has ceil(k**n / _MASK_BITS) << _MASK_BITS entries, built from
    _power_table(op, n).
    """
    space = op.k**n
    images = _power_table(op, n).tolist()
    rows = space ** (op.arity - 1)
    chunks = -(-space // _MASK_BITS)
    pad = [0] * (chunks * _MASK_BITS - space)
    powers = [1 << y for y in range(space)]
    # Equal masks share one int: the tables hold few distinct values (5,955
    # of 474,336 entries for egp3 at n = 5), and each int takes k**n bits.
    shared = {}.setdefault

    def row(line: list[int]) -> list[int]:
        """The row for the k**n images of the argument running over A^n."""
        bits = list(map(powers.__getitem__, line)) + pad
        levels = [[0] * chunks]  # levels[v][c]: entry v of chunk c
        for b in range(_MASK_BITS):
            column = bits[b::_MASK_BITS]
            levels += [list(map(or_, level, column)) for level in levels]
        entries = list(chain.from_iterable(zip(*levels)))
        return list(map(shared, entries, entries))

    last = [row(images[p * space : (p + 1) * space]) for p in range(rows)]
    first = [row(images[p::rows]) for p in range(rows)] if op.arity > 1 else []
    return last, first


def _extender(algebra: Algebra, n: int, limits: Limits) -> Callable[[int, int], int]:
    """extend(closed, e): the closure of a closed set of A^n with a tuple e
    outside it, for the exact search, which makes many such closures.
    Both sets are bit masks: bit x is set iff tuple x is a member.

    When every operation is tabulated on A^n itself (one block), every
    round runs on masks, with the whole-round ceiling check and charge of
    _saturate: a round ORs image masks from the operations' _image_tables,
    built here once per search and freed with it, at most
    2 * (k**n)**(s-1) * ceil(k**n / _MASK_BITS) * 2**_MASK_BITS entries for
    an s-ary operation.  A round over the step budget, or a multi-block
    layout from the start, hands the closure to _saturate in a TupleSet of
    the tuples known, with its steps and rounds carried.  Either way its
    charges, results and refusals are those of closure_extend.
    """
    k = algebra.k
    space = k**n

    def handover(known: int, old: int, new: int, steps: int, rounds: int) -> int:
        result = TupleSet.from_encodings(k, n, _mask_members(known, space), limits=limits)
        _saturate(
            algebra, result, _mask_members(old, space), _mask_members(new, space),
            limits, space, steps, rounds,
        )
        # Distinct members' bits: their sum is the closure's mask.
        return sum(map((1).__lshift__, result.encodings().tolist()))

    if not all(b == n for b, _ in _layouts(algebra.operations, n, _CHUNK_CELLS)):
        return lambda closed, e: handover(closed | 1 << e, closed, 1 << e, 0, 0)

    # The grids of _saturate's whole round, as (table, chunked, head, rest).
    # Grid i of an s-ary operation draws argument i from the frontier, the
    # earlier ones from `old` and the later ones from `union`.  It lists
    # every argument but one, in order, and ORs the chunks of that one
    # through its image table: the last argument, or the first in grid
    # s - 1, whose last is the small frontier.  Sets are 0 = old,
    # 1 = the frontier, 2 = union and 3 = [0], the row of a unary table;
    # head is the first set listed and rest the others.  While `old` is
    # empty only grid 0 has cells.
    grids, first_grids = [], []
    for op in algebra.operations:
        s = op.arity
        last, first = _image_tables(op, n)
        if s == 1:
            grids.append((last, 1, 3, ()))
        else:
            for i in range(s - 1):
                ids = (0,) * i + (1,) + (2,) * (s - 2 - i)
                grids.append((last, 2, ids[0], ids[1:]))
            ids = (0,) * (s - 2) + (1,)
            grids.append((first, 0, ids[0], ids[1:]))
        first_grids.append(grids[-s])
    arities = [op.arity for op in algebra.operations]
    listed = max(arities) > 2  # a grid lists members of `old` and `union`
    unary = min(arities) == 1  # a grid ORs the chunks of the frontier
    chunks = -(-space // _MASK_BITS)
    digits_format = f"0{chunks}x"
    # The first entry of each chunk's run in a table row, for the mask's
    # hex digits, most significant first.
    offsets = range((chunks - 1) << _MASK_BITS, -1, -1 << _MASK_BITS)

    def entries(mask: int) -> list[int]:
        """Entries of an image-table row whose OR is the images of the
        mask's members: one per nonzero chunk, or one per member when they
        are few."""
        if mask.bit_count() * 8 < space:
            return [x // _MASK_BITS << _MASK_BITS | 1 << x % _MASK_BITS
                    for x in _mask_members(mask, space)]
        digits = format(mask, digits_format).encode().translate(_HEX_VALUES)
        return list(map(add, compress(offsets, digits), compress(digits, digits)))

    def getter(mask: int) -> itemgetter:
        """The getter of a row's entries for the mask, and of entry 0
        (always 0), so that it returns a tuple."""
        return itemgetter(0, *entries(mask))

    @lru_cache(maxsize=1)
    def closed_view(closed: int) -> tuple[list[int], Optional[list[int]]]:
        # Consecutive calls mostly close the same set: the search tries
        # every next pick of a node in turn.
        return entries(closed), _mask_members(closed, space) if listed else None

    def extend(closed: int, e: int) -> int:
        old, new, known = closed, 1 << e, closed | 1 << e
        closed_entries, old_list = closed_view(closed)
        old_get = itemgetter(0, *closed_entries)
        # Round 0's union is `closed` and e: one more entry, for e's bit.
        e_entry = e // _MASK_BITS << _MASK_BITS | 1 << e % _MASK_BITS
        union_get = itemgetter(0, *closed_entries, e_entry)
        union_list = old_list + [e] if listed else None
        frontier = [e]
        steps = rounds = 0
        while True:
            size, before = known.bit_count(), old.bit_count()
            cells = 0
            for s in arities:
                cells += size**s - before**s
            if steps + cells > limits.steps:
                return handover(known, old, new, steps, rounds)
            if size == space:
                return known
            steps = limits.charge_steps(steps, cells, rounds, (size, space))
            if union_get is None:
                union_get = getter(known)
                union_list = _mask_members(known, space) if listed else None
            sets = (old_list, frontier, union_list, [0])
            getters = (old_get, getter(new) if unary else None, union_get)
            images = 0
            for table, chunked, head, rest in grids if old else first_grids:
                index = sets[head]
                for p in rest:
                    index = [j * space + x for j in index for x in sets[p]]
                rows = map(getters[chunked], map(table.__getitem__, index))
                images = reduce(or_, chain.from_iterable(rows), images)
            old, new = known, images & ~known
            if not new:
                return known
            known |= new
            old_get, old_list, union_get = union_get, union_list, None
            frontier = _mask_members(new, space)
            rounds += 1

    return extend


def _check_universe(algebra: Algebra, ts: TupleSet) -> None:
    if algebra.k != ts.k:
        raise UniverseMismatchError(
            f"algebra universe {algebra.k} != tuple set universe {ts.k}"
        )


def closure(
    algebra: Algebra,
    seeds: TupleSet,
    *,
    limits: Limits = LIMITS,
    ceiling: Optional[int] = None,
) -> TupleSet:
    """Least superset of the seeds closed under every operation, applied
    coordinatewise.  The seeds are not modified; the result inherits their
    dense/sparse representation.

    `ceiling` is the size of a closed superset of the seeds known in
    advance, k**n by default; the closure stops as soon as it holds that
    many tuples.
    """
    _check_universe(algebra, seeds)
    ceiling = seeds.space if ceiling is None else ceiling
    return _saturate(algebra, seeds.copy(), [], seeds.encodings(), limits, ceiling)


def closure_extend(
    algebra: Algebra,
    closed: TupleSet,
    extra_encodings: Iterable[int],
    *,
    limits: Limits = LIMITS,
) -> TupleSet:
    """Closure of closed | extras, assuming `closed` is already closed.

    Cheaper than re-closing from scratch: only combinations touching the
    added tuples are enumerated.
    """
    _check_universe(algebra, closed)
    result = closed.copy()
    fresh = sorted(e for e in map(int, extra_encodings) if result.add_encoding(e))
    if not fresh:
        return result
    return _saturate(algebra, result, closed.encodings(), fresh, limits, result.space)
