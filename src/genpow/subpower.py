"""Extensional subsets of A^n and the generated-subpower closure engine.

Tuples are encoded as row-major base-k integers with the first coordinate
most significant; a TupleSet keeps either a dense membership array over
the whole space or a sparse set of encodings.  The closure engine is a
semi-naive worklist: each round combines the newly discovered tuples with
everything known, in vectorized batches; under a lone associative binary
operation, after the first round, with the tuples it started from only.
The result is the unique least fixed point, independent of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, compress, islice
from operator import add, itemgetter, or_
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Optional, Sequence

import numpy as np

from .algebra import Algebra, OperationTable, _require_same_universe
from .errors import BudgetExceededError, PreconditionError

_ENCODING_LIMIT = 1 << 62  # encodings must fit comfortably in int64
_DENSE_LIMIT = 1 << 26  # largest k**n stored as a dense membership array
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
    # the projectivity test's coordinate choices and the exact search's memo
    # bits, k**n plus a fixed overhead per stored closure
    steps: int = 10**9  # closure combination applications, per closure call
    exact: int = 256  # largest k**n the exact minimum-size search accepts
    nodes: int = 20_000  # search-tree nodes before the exact search gives up
    combinations: int = 10**7  # argument combinations per preservation scan

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

    def check_choices(self, choices: int) -> None:
        if choices > self.space:
            raise BudgetExceededError(
                f"projectivity test needs {choices:,} coordinate choices, over "
                f"the space budget of {self.space:,}"
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
    when k**n <= _DENSE_LIMIT, sparse (a set of encodings) otherwise.  The
    two representations are observationally identical.  After __init__,
    add_encodings_array is the only writer of the storage.
    """

    __slots__ = ("k", "n", "space", "_dense", "_sparse", "_count")

    def __init__(self, k: int, n: int):
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
        if space <= _DENSE_LIMIT:
            self._dense: np.ndarray | None = np.zeros(space, dtype=bool)
            self._sparse: set[int] | None = None
        else:
            self._dense = None
            self._sparse = set()
        self._count = 0

    # -- construction ------------------------------------------------

    @classmethod
    def from_tuples(cls, k: int, n: int, tuples: Iterable[Sequence[int]]) -> "TupleSet":
        ts = cls(k, n)
        ts.add_encodings_array(ts._checked(map(ts.encode, tuples)))
        return ts

    @classmethod
    def from_encodings(cls, k: int, n: int, encodings: Iterable[int]) -> "TupleSet":
        ts = cls(k, n)
        ts.add_encodings_array(ts._checked(encodings))
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
        ts = cls(k, n)
        for encodings, digits in batches:
            ts.add_encodings_array(encodings[predicate(digits)])
        return ts

    @classmethod
    def full(cls, k: int, n: int, *, limits: Limits = LIMITS) -> "TupleSet":
        """All of A^n; a space above the space budget is refused."""
        limits.check_space(k, n)
        ts = cls(k, n)
        for start in range(0, ts.space, _CHUNK_CELLS):
            stop = min(start + _CHUNK_CELLS, ts.space)
            ts.add_encodings_array(np.arange(start, stop, dtype=np.int64))
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
        return self.add_encodings_array(self._checked([encoding])).size == 1

    def _checked(self, encodings: Iterable[int]) -> np.ndarray:
        """The encodings as an int64 array; the first one outside
        [0, space) is refused."""
        values = list(map(int, encodings))
        if values and not (min(values) >= 0 and max(values) < self.space):
            self._refuse(values)
        return np.array(values, dtype=np.int64)

    def _refuse(self, encodings: Iterable[int]) -> NoReturn:
        """Raise for the first of the encodings outside [0, space)."""
        bad = next(e for e in encodings if not 0 <= e < self.space)
        raise ValueError(f"encoding {bad} outside [0, {self.space})")

    def has_encoding(self, encoding: int) -> bool:
        if not 0 <= encoding < self.space:
            self._refuse([encoding])
        if self._dense is not None:
            return bool(self._dense[encoding])
        return encoding in self._sparse

    def __contains__(self, t: Sequence[int]) -> bool:
        return self.has_encoding(self.encode(t))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for digits in self._digit_batches(1):
            yield from map(tuple, digits.tolist())

    def _digit_batches(self, b: int) -> Iterator[np.ndarray]:
        """The members, ascending, split into base-k**b blocks by
        _split_blocks (digits at b = 1), in batches of at most _CHUNK_CELLS
        coordinates."""
        members = self.encodings()
        rows = max(1, _CHUNK_CELLS // self.n)
        for start in range(0, members.size, rows):
            yield _split_blocks(members[start : start + rows], self.k, b, self.n)

    def encodings(self) -> np.ndarray:
        """All member encodings, ascending, as an int64 array."""
        if self._dense is not None:
            return np.flatnonzero(self._dense).astype(np.int64)
        return np.array(sorted(self._sparse), dtype=np.int64)

    def contains_encodings(self, arr: np.ndarray) -> np.ndarray:
        """Membership of each encoding of an int64 array.  Read as unsigned,
        a negative encoding is above the space too, so one max finds any
        encoding outside [0, space)."""
        if arr.size and arr.view(np.uint64).max() >= self.space:
            self._refuse(arr.tolist())
        if self._dense is not None:
            return self._dense[arr]
        member = self._sparse.__contains__
        return np.fromiter(map(member, arr.tolist()), dtype=bool, count=arr.size)

    def add_encodings_array(self, arr: np.ndarray) -> np.ndarray:
        """Insert encodings in bulk; return the ones that were actually new,
        ascending."""
        if arr.size == 0:
            return arr
        if self._dense is not None:
            # Most batches are all known already; dedupe only the rest.
            fresh = arr[~self._dense[arr]]
            if fresh.size > 1:
                fresh = _unique(fresh)
            self._dense[fresh] = True
        else:
            fresh = _unique(arr)
            fresh = fresh[~self.contains_encodings(fresh)]
            self._sparse.update(fresh.tolist())
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

    def text(self) -> str:
        """Export rows: base-k digits in decimal separated by spaces, one
        row per line, ascending; "" for the empty set.

        Every digit takes a cell of w + 1 bytes, w the width of k - 1: its
        symbol, zero bytes after a shorter symbol, then a space, or the
        newline that ends its row.  Rows are split into base-k**c values,
        c the _table_width of the n digits, and a batch of rows is one
        gather from the _rendered_cells of the c-digit values.  The top
        value holds the leftover digits, so the padding cells in front of
        them are dropped.  Zero bytes occur only when k > 10, and are then
        dropped at the end.
        """
        k, n = self.k, self.n
        c = _table_width(k, n)
        cells = _rendered_cells(k, c)
        padding = (-n % c) * (cells.itemsize // c)
        blocks = []
        for values in self._digit_batches(c):
            rows = cells.take(values).view(np.uint8)[:, padding:]
            rows[:, -1] = ord("\n")
            blocks.append(rows.tobytes())
        out = b"".join(blocks)
        return (out.translate(None, b"\0") if k > 10 else out).decode("ascii")


@lru_cache(maxsize=64)
def _rendered_cells(k: int, c: int) -> np.ndarray:
    """Entry v holds the text cells of the c base-k digits of v, most
    significant first, each its symbol, zero bytes up to the width of k - 1,
    then a space (see TupleSet.text); read-only since every caller shares
    it."""
    w = len(str(k - 1))
    symbols = "".join(str(a).ljust(w, "\0") + " " for a in range(k))
    table = np.frombuffer(symbols.encode(), dtype=f"V{w + 1}")[_block_table(k, c)]
    table = np.ascontiguousarray(table).view(f"V{c * (w + 1)}").ravel()
    table.flags.writeable = False
    return table


def _unique(arr: np.ndarray) -> np.ndarray:
    """The distinct values of arr, ascending: a sort, then each element
    that differs from its left neighbour.  On integer batches this beats
    numpy's own unique, which hashes."""
    arr = np.sort(arr)
    keep = np.ones(arr.size, dtype=bool)
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


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
    rows = max(1, _CHUNK_CELLS // n)
    for start in range(0, space, rows):
        encodings = np.arange(start, min(start + rows, space), dtype=np.int64)
        yield encodings, _split_blocks(encodings, k, 1, n)


def _grid_batches(
    digit_groups: list[np.ndarray],
) -> Iterator[tuple[list[np.ndarray], int]]:
    """Split the cartesian grid over the rows of the groups into batches of
    at most _CHUNK_CELLS cells, in row-major order.

    The first axis is cut into runs of rows.  When one row of it alone
    exceeds the batch size, its rows are taken one at a time and the rest
    of the grid is split the same way, lazily for each row.  Yields each
    batch's groups with its cell count.
    """
    first, rest = digit_groups[0], digit_groups[1:]
    tail = math.prod(g.shape[0] for g in rest)
    if tail == 0:
        return
    if tail > _CHUNK_CELLS:
        for i in range(first.shape[0]):
            row = first[i : i + 1]
            for batch, cells in _grid_batches(rest):
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
        digits = _split_blocks(np.arange(k**width, dtype=np.int64), k, 1, width)
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
    """Shape (len(encodings), ceil(n/b)) int64 matrix of base-k**b blocks,
    most significant first: the digits at b = 1, the pair values at b = 2.
    With b = n the encoding is the only block.  The one place encodings
    are divided into blocks.

    c consecutive blocks form a wide block, c the _table_width of the
    ceil(n/b) blocks: one divmod per wide block, then one gather from the
    _block_table of their c sub-blocks.  The top wide block holds the
    leftover blocks, and its value is below base**leftover, so its row of
    the table starts with zero sub-blocks; those leading columns are
    dropped, and nothing is padded anywhere else.
    """
    base = k**b
    blocks = -(-n // b)
    c = _table_width(base, blocks)
    if c == 1:
        return (encodings[:, None] // _weights(base, blocks)[None, :]) % base
    wide = -(-blocks // c)
    values = (encodings[:, None] // _weights(base**c, wide)[None, :]) % base**c
    split = _block_table(base, c).take(values, axis=0).reshape(len(encodings), wide * c)
    return split[:, wide * c - blocks :]


def _table_width(base: int, blocks: int) -> int:
    """Blocks per table row for splitting `blocks` base-`base` blocks: the
    widest c <= blocks whose table, base**c rows of c entries, fits in one
    grid batch, and at least 1.  Base 1 has one block value, 0, and takes
    no table."""
    c = 1
    while 1 < base and c < blocks and base ** (c + 1) * (c + 1) <= _CHUNK_CELLS:
        c += 1
    return c


@lru_cache(maxsize=64)
def _block_table(base: int, c: int) -> np.ndarray:
    """Row v holds the c base-`base` digits of v, most significant first:
    a (base**c, c) int64 table, read-only since every caller shares it."""
    table = np.ascontiguousarray(np.indices((base,) * c).reshape(c, -1).T, np.int64)
    table.flags.writeable = False
    return table


def _grid_images(op: OperationTable, members: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Images under op, applied coordinatewise, of every op.arity-tuple of
    members (encodings in A^n), one _grid_batches batch at a time."""
    b, columns = _block_columns(op, n)
    blocks = _split_blocks(members, op.k, b, n)
    for batch, _ in _grid_batches([blocks] * op.arity):
        yield _grid_results(columns, batch)


def _is_symmetric(op: OperationTable) -> bool:
    """True iff op's table is invariant under every permutation of its
    arguments: under swapping arguments 0 and 1 and under the cyclic
    shift, which generate them all.  A unary op is symmetric."""
    table = np.array(op.table).reshape((op.k,) * op.arity)
    return op.arity == 1 or (
        np.array_equal(table, table.swapaxes(0, 1))
        and np.array_equal(table, np.moveaxis(table, 0, -1))
    )


def _is_semigroup(op: OperationTable) -> bool:
    """True iff op is binary and associative: (x*y)*z = x*(y*z) on every
    triple, one gather of the table by itself on each side."""
    if op.arity != 2:
        return False
    table = np.array(op.table).reshape(op.k, op.k)
    return np.array_equal(table[table], table[:, table])


@lru_cache(maxsize=64)
def _layouts(
    operations: tuple[OperationTable, ...], n: int, chunk_cells: int
) -> tuple[tuple[int, list[tuple[np.ndarray, int]], bool, bool], ...]:
    """_block_columns of each operation on A^n, with whether the operation
    is symmetric and whether it is binary and associative.  Keyed on the
    batch size too, because the block width depends on it."""
    return tuple(
        (*_block_columns(op, n), _is_symmetric(op), _is_semigroup(op)) for op in operations
    )


# -- symmetries of the seeds -----------------------------------------------
#
# A permutation of the n coordinates commutes with every operation, since
# operations act coordinatewise; so a group H of such permutations that
# maps the seeds onto themselves maps their closure onto itself too, and
# every round's sets stay H-invariant (see _saturate).  closure detects two
# groups.  In A^(2m) the pair group of order 2**m * m! permutes the m
# designated pairs (2j, 2j+1) and swaps the two coordinates inside each
# pair; an encoding is read as m base-k**2 pair values, pair 0 most
# significant.  In any A^n the reversal maps t_1 .. t_n to t_n .. t_1; at
# n = 2m it lies in the pair group.


class _Symmetry(NamedTuple):
    """A group H of coordinate permutations of A^n, acting on int64
    encodings.  images(e) yields the images of e under H's generators, one
    generator at a time, the first `generating` of which generate H;
    canonical(e) maps each encoding to the least member of its orbit.
    `runs` says whether a symmetric operation keeps its prefix runs over
    the whole frontier (see _round_grids) instead of running one grid that
    draws from orbit representatives."""

    images: Callable[[np.ndarray], Iterable[np.ndarray]]
    generating: int
    canonical: Callable[[np.ndarray], np.ndarray]
    runs: bool


def _batches(encodings: np.ndarray) -> Iterator[np.ndarray]:
    """The encodings in slices of _CHUNK_CELLS rows, at least one slice."""
    for start in range(0, max(1, encodings.size), _CHUNK_CELLS):
        yield encodings[start : start + _CHUNK_CELLS]


def _pair_swap(k: int) -> np.ndarray:
    """swap[a*k + b] = b*k + a: a pair value with its coordinates swapped."""
    return np.arange(k * k, dtype=np.int64).reshape(k, k).T.ravel()


def _pair_images(encodings: np.ndarray, k: int, m: int) -> Iterator[np.ndarray]:
    """Images of encodings in A^(2m) under the 2m - 1 generators of the pair
    group, one generator at a time: the swap inside pair 0, the
    transpositions of pair 0 with pair j for j = 1 .. m-1 (these m generate
    the group), then the swaps inside pairs 1 .. m-1."""
    weights = _weights(k * k, m)
    values = _split_blocks(encodings, k, 2, 2 * m)
    swap = _pair_swap(k)
    # Pair j's swapped values are gathered only when its generator is reached.
    swaps = (encodings + (swap[v] - v) * w for v, w in zip(values.T, weights))
    yield next(swaps)
    for j in range(1, m):
        yield encodings + (values[:, j] - values[:, 0]) * (weights[0] - weights[j])
    yield from swaps


def _pair_canonical(encodings: np.ndarray, k: int, m: int) -> np.ndarray:
    """The least member of each encoding's pair-group orbit: each pair's
    smaller coordinate goes first, then the pairs are sorted."""
    values = _split_blocks(encodings, k, 2, 2 * m)
    values = np.minimum(values, _pair_swap(k)[values])
    values.sort(axis=1)
    return values @ _weights(k * k, m)


def _reversed(encodings: np.ndarray, k: int, n: int) -> np.ndarray:
    """The encodings of the tuples with their n coordinates reversed."""
    return _split_blocks(encodings, k, 1, n) @ _weights(k, n)[::-1]


def _symmetry(algebra: Algebra, seeds: TupleSet, members: np.ndarray) -> Optional[_Symmetry]:
    """The group of coordinate permutations that _saturate closes the
    seeds (encodings `members`) by, or None; always None without
    operations.  The pair group is tried when n = 2m.  The reversal is tried next when n > 2 (at n = 2 it is the
    pair group) and some grid draws from orbit representatives: one of an
    operation that is not symmetric, or the rounds after round 0 of a lone
    binary associative operation.  A symmetric operation keeps its prefix
    runs under the reversal, which hold each multiset about once already.

    A group is picked when each of its first `generating` generators maps
    the seeds into themselves, tested batch by batch up to the first
    batch that fails."""
    k, n = seeds.k, seeds.n
    layouts = _layouts(algebra.operations, n, _CHUNK_CELLS)
    groups = []
    if layouts and n % 2 == 0:
        m = n // 2
        groups.append(_Symmetry(
            partial(_pair_images, k=k, m=m), m, partial(_pair_canonical, k=k, m=m), False
        ))
    semigroup = len(layouts) == 1 and layouts[0][3]
    if n > 2 and (semigroup or any(not symmetric for _, _, symmetric, _ in layouts)):
        reverse = partial(_reversed, k=k, n=n)
        groups.append(_Symmetry(
            lambda e: (reverse(e),), 1, lambda e: np.minimum(e, reverse(e)), True
        ))
    for group in groups:
        if all(
            seeds.contains_encodings(image).all()
            for batch in _batches(members)
            for image in islice(group.images(batch), group.generating)
        ):
            return group
    return None


def _orbit_representatives(encodings: np.ndarray, symmetry: _Symmetry) -> np.ndarray:
    """The least member of the orbit of each encoding, each once,
    ascending, computed batch by batch."""
    return _unique(np.concatenate([symmetry.canonical(batch) for batch in _batches(encodings)]))


def _insert_orbits(result: TupleSet, fresh: np.ndarray, symmetry: _Symmetry) -> np.ndarray:
    """Insert the orbits of the fresh encodings, which `result` already
    holds, by closing them under the generators batch by batch; return
    every encoding added, fresh included.  Outside `fresh`, `result` must
    hold whole orbits."""
    added = [fresh]
    while fresh.size:
        fresh = np.concatenate([
            result.add_encodings_array(image)
            for batch in _batches(fresh)
            for image in symmetry.images(batch)
        ])
        added.append(fresh)
    return np.concatenate(added)


def _round_grids(
    s: int, symmetric: bool, runs: bool, old, new, union, generators
) -> Iterator[list]:
    """The argument groups of each grid a semi-naive round runs for an
    s-ary operation, from old, the frontier (`new`) and union: the one
    statement of a round's grids, which _saturate reads with block
    matrices and _extender with role tokens.

    `generators`, U, the union at round 0, are given after round 0 for the
    one operation of an algebra when it is binary and associative (see
    _saturate).  The round is then the one grid with argument 0 from U and
    argument 1 from the frontier.  Otherwise:

    Grid i of s grids, from s - 1 down to 0, draws argument i from the
    frontier, the earlier ones from `old` and the later ones from `union`:
    together every combination that touches the frontier, each once.  A
    symmetric operation runs grid 0 alone, which holds every multiset of
    arguments that touches the frontier.  With `runs` it is cut into
    prefix runs instead, which hold them in fewer cells: read `old`
    followed by the frontier as one sequence; every such multiset has a
    frontier member at its latest position, and that member goes first.
    So the frontier is cut into runs of R = max(1, _CHUNK_CELLS //
    |sequence|**(s-1)) rows, each run is argument 0, and the others range
    over the sequence up to the end of the run.
    """
    if generators is not None:
        yield [generators, new]
    elif symmetric and runs:
        sequence = np.concatenate([old, new])
        rows = max(1, _CHUNK_CELLS // len(sequence) ** (s - 1))
        for start in range(0, len(new), rows):
            prefix = sequence[: len(old) + start + rows]
            yield [new[start : start + rows]] + [prefix] * (s - 1)
    else:
        for i in range(0 if symmetric else s - 1, -1, -1):
            yield [old] * i + [new] + [union] * (s - 1 - i)


def _saturate(
    algebra: Algebra,
    result: TupleSet,
    old: np.ndarray | list[int],
    new: np.ndarray | list[int],
    limits: Limits,
    ceiling: int,
    symmetry: Optional[_Symmetry] = None,
) -> TupleSet:
    """Drive (old | new) to the closure fixed point inside `result`.

    `old` must already be closed as a standalone set; every member of
    both must already be present in `result`.  Both are ascending.
    `ceiling` is the size of a closed superset of them (k**n, the full
    power, unless the caller knows a smaller one).  The closure is the
    least fixed point, so once the result holds `ceiling` tuples it is
    that superset, and final; the check comes before each charge.

    A round runs, for each operation in order, its _round_grids: the s
    grids of an s-ary one, or one grid cut into prefix runs of frontier
    rows when the operation is symmetric (see _is_symmetric).  Each grid
    goes in _grid_batches batches, and each batch is charged and inserted
    on its own, so a refusal says how far the round got.

    `symmetry`, a group H of coordinate permutations (see _symmetry),
    says that `old` and `new` are H-invariant.  Then every set a round
    starts from stays H-invariant, and an image with argument i in the
    frontier is moved by some g in H to one with argument i the frontier's
    orbit representative, while g maps old, the frontier and union to
    themselves.  So grid i draws argument i from the frontier's orbit
    representatives alone, only those cells are charged, and each batch's
    fresh images are inserted with their whole orbits.  A symmetric
    operation keeps its prefix runs over the whole frontier when H's
    `runs` says so (the reversal), and otherwise runs its one grid on the
    representatives (the pair group), since moving argument 0 to its
    orbit representative does not keep the prefix.

    When the algebra's one operation is binary and associative (see
    _is_semigroup), every round after round 0 runs the one grid U x the
    frontier, U the union at round 0, and is charged |U| * |new| cells.
    That is the enumeration of a semigroup by left multiplication
    (Froidure and Pin, 1997), and it is exact.  Let T be the closure of U
    under w -> u*w for u in U.  Every member of T is a product
    u1*(u2*(...*uL)), so t*v = u1*(...*(uL*v)) lies in T for t, v in T, by
    induction on L, and T is the closure of U.  Round 0 already makes u*w
    for w in U: a pair inside `old` lands in `old`, which is closed.  With
    a symmetry U is H-invariant, so drawing argument 1 from the
    frontier's orbit representatives and inserting whole orbits stays
    exact.  In every later round |U| * |new| is at most the cells of the
    round's semi-naive grids, since U is part of `old`.
    """
    k, n = result.k, result.n
    layouts = _layouts(algebra.operations, n, _CHUNK_CELLS)
    old, new = np.asarray(old, np.int64), np.asarray(new, np.int64)
    widths = {b for b, *_ in layouts}
    old_blocks = {b: _split_blocks(old, k, b, n) for b in widths}
    semigroup = len(layouts) == 1 and layouts[0][3]
    runs = symmetry is None or symmetry.runs
    # Prefix runs read the whole frontier, every other grid `drawn`.
    whole = symmetry is not None and runs and any(sym for _, _, sym, _ in layouts)
    generators = None  # U's blocks after round 0, for a semigroup
    steps = rounds = 0
    while new.size:
        union = np.concatenate([old, new])
        union.sort()
        drawn = new if symmetry is None else _orbit_representatives(new, symmetry)
        drawn_blocks = {b: _split_blocks(drawn, k, b, n) for b in widths}
        new_blocks = drawn_blocks
        if whole and generators is None:
            new_blocks = {b: _split_blocks(new, k, b, n) for b in widths}
        union_blocks = {b: _split_blocks(union, k, b, n) for b in widths}
        produced: list[np.ndarray] = []
        for op, (b, columns, symmetric, _) in zip(algebra.operations, layouts):
            frontier = new_blocks if symmetric and runs else drawn_blocks
            grids = _round_grids(
                op.arity, symmetric, runs, old_blocks[b], frontier[b], union_blocks[b], generators
            )
            for groups in grids:
                for batch, cells in _grid_batches(groups):
                    if len(result) == ceiling:
                        return result
                    steps = limits.charge_steps(
                        steps, cells, rounds, (len(result), result.space)
                    )
                    fresh = result.add_encodings_array(_grid_results(columns, batch))
                    if symmetry is not None and fresh.size:
                        fresh = _insert_orbits(result, fresh, symmetry)
                    if fresh.size:
                        produced.append(fresh)
        new = np.sort(np.concatenate(produced)) if produced else np.empty(0, np.int64)
        rounds += 1
        old, old_blocks = union, union_blocks
        if semigroup and generators is None:
            (generators,) = union_blocks.values()
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


def _image_tables(
    op: OperationTable, n: int, symmetric: bool
) -> tuple[list[list[int]], list[list[int]]]:
    """Image masks of op on A^n, for applying it to whole bit masks of
    tuples chunk by chunk (the "Four Russians" method).

    Returns (last, first).  last[p] is a row for the last argument, p the
    base-k**n index of an assignment of the others: entry
    (c << _MASK_BITS) + v is the OR of 1 << f(..., x) over the encodings
    x = c * _MASK_BITS + b with bit b of v set.  first[p] is the same for
    the first argument; a unary or symmetric op has only `last`, with the
    one row p = 0 when unary.  Each row has ceil(k**n / _MASK_BITS) <<
    _MASK_BITS entries, built from _power_table(op, n).
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
    first = [] if symmetric else [row(images[p::rows]) for p in range(rows)]
    return last, first


def _extender(algebra: Algebra, n: int, limits: Limits) -> Callable[[int, int], int]:
    """extend(closed, e): the closure of a closed set of A^n with a tuple e
    outside it, for the exact search, which makes many such closures.
    Both sets are bit masks: bit x is set iff tuple x is a member.

    When every operation is tabulated on A^n itself (one block), every
    round runs on masks: it ORs the images of each operation's
    _round_grids, not cut into prefix runs, through its _image_tables,
    built here once per search and freed with it, at most 2 *
    (k**n)**(s-1) * ceil(k**n / _MASK_BITS) * 2**_MASK_BITS entries for an
    s-ary operation, half that for a symmetric one.  Mask rounds run
    while the sum of their cells fits the step budget, where _saturate
    could not have refused any of their batches: a round's cells are
    _saturate's, or for a symmetric operation |new| * |union|**(s-1), at
    least the cells of its runs.  A lone binary associative operation
    keeps these semi-naive charges too, although _saturate charges only
    |U| * |new| after round 0, U = `closed` with e: round 0 is charged as
    above, and every later round at least |new| * |old|, with `old` a
    superset of U.  So each sum of mask rounds is at least the charges of
    the same rounds in _saturate.  When the next round would not fit, or
    on a multi-block layout, handover closes `closed` and e in _saturate
    from round 0, replaying any mask rounds at charges no larger, so
    results and refusals are closure_extend's.
    """
    k = algebra.k
    space = k**n

    def handover(closed: int, e: int) -> int:
        result = TupleSet.from_encodings(k, n, _mask_members(closed | 1 << e, space))
        _saturate(algebra, result, _mask_members(closed, space), [e], limits, space)
        # Distinct members' bits: their sum is the closure's mask.
        return sum(map((1).__lshift__, result.encodings().tolist()))

    layouts = _layouts(algebra.operations, n, _CHUNK_CELLS)
    if not all(b == n for b, *_ in layouts):
        return handover

    # Each operation's _round_grids on role tokens 0 = old, 1 = the
    # frontier and 2 = union, as (table, chunked, head, rest): the grid ORs
    # the chunks of one argument through its image table, the last one, or
    # the first when the last is the small frontier, and lists the others,
    # head first; 3 = [0] is the one row of a unary table.  While `old` is
    # empty only the grids without role 0 have cells.
    grids, first_grids, charged = [], [], []
    for op, (_, _, symmetric, _) in zip(algebra.operations, layouts):
        s = op.arity
        last, first = _image_tables(op, n, symmetric)
        for roles in _round_grids(s, symmetric, False, 0, 1, 2, None):
            if s > 1 and roles[-1] == 1:
                table, chunked, others = first, roles[0], roles[1:]
            else:
                table, chunked, others = last, roles[-1], roles[:-1] or [3]
            grids.append((table, chunked, others[0], others[1:]))
            if 0 not in roles:
                first_grids.append(grids[-1])
        charged.append((s, symmetric))
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
        mask's members: one per nonzero chunk."""
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
        steps = 0
        while True:
            size, before = known.bit_count(), old.bit_count()
            if size == space:
                return known
            # |union|**s - |old|**s cells for an s-ary operation, or
            # |new| * |union|**(s-1) for a symmetric one.
            for s, symmetric in charged:
                steps += (
                    (size - before) * size ** (s - 1) if symmetric else size**s - before**s
                )
            if steps > limits.steps:
                return handover(closed, e)
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

    return extend


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
    many tuples, and seeds that already fill it are returned unclosed.
    Otherwise, when the algebra has operations, the seeds are tested for
    two symmetries (see _symmetry): seeds in A^(2m) invariant under
    permuting the designated pairs (2j, 2j+1) and swapping inside them,
    and else, for n > 2, seeds invariant under reversing the coordinates,
    when some operation is not symmetric or the algebra's one operation is
    binary and associative.  Symmetric seeds are closed by orbit
    representatives (see _saturate), and only their cells are charged to
    the step budget.
    """
    _require_same_universe("algebra", algebra.k, "tuple set", seeds.k)
    ceiling = seeds.space if ceiling is None else ceiling
    if len(seeds) == ceiling:
        return seeds.copy()
    members = seeds.encodings()
    symmetry = _symmetry(algebra, seeds, members)
    return _saturate(algebra, seeds.copy(), [], members, limits, ceiling, symmetry)


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
    _require_same_universe("algebra", algebra.k, "tuple set", closed.k)
    result = closed.copy()
    fresh = result.add_encodings_array(result._checked(extra_encodings))
    return _saturate(algebra, result, closed.encodings(), fresh, limits, result.space)
