"""Dichotomy criteria: does the n-th power of a finite algebra need
polynomially or exponentially many generators?

The exact decision for idempotent algebras scans covering pairs of proper
subsets (alpha, beta) and asks whether every basic operation is projective
for the pair: some coordinate j such that the j-th argument landing in
alpha (resp. beta) forces the result into alpha (resp. beta).  One such
pair certifies exponential growth; none certifies polynomial growth.

The other routes here are verification-style: close a structured seed set
(equal-pair tuples, bounded-switch tuples) under the operations and test
whether the full power is reached.  They apply to non-idempotent algebras
too but only answer for the sizes actually checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .algebra import Algebra, OperationTable, first_non_idempotent
from .errors import (
    BudgetExceededError,
    NotIdempotentError,
    PreconditionError,
)
from .subpower import (
    _CHUNK_CELLS,
    LIMITS,
    Limits,
    TupleSet,
    _extender,
    closure,
    closure_extend,
    decode_tuple,
    equal_pair_tuples,
    is_full,
)


def _format_subset(mask: int) -> str:
    elements = [str(i) for i in range(mask.bit_length()) if mask >> i & 1]
    return "{" + ", ".join(elements) + "}"


@dataclass(frozen=True)
class SubsetPair:
    """Two proper subsets of {0..k-1} that jointly cover the universe."""

    k: int
    alpha: int  # bitmask
    beta: int  # bitmask

    def __post_init__(self):
        full = (1 << self.k) - 1
        for name, mask in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0 < mask < full:
                raise PreconditionError(
                    f"{name} must be a proper nonempty subset of the universe"
                )
        if self.alpha | self.beta != full:
            raise PreconditionError("alpha and beta must cover the universe")

    @classmethod
    def from_elements(
        cls, k: int, alpha: Sequence[int], beta: Sequence[int]
    ) -> "SubsetPair":
        def mask(elements: Sequence[int]) -> int:
            m = 0
            for a in elements:
                if not 0 <= a < k:
                    raise PreconditionError(
                        f"element {a} outside universe [0, {k})"
                    )
                m |= 1 << a
            return m

        return cls(k, mask(alpha), mask(beta))

    def in_alpha(self, a: int) -> bool:
        return bool(self.alpha >> a & 1)

    def in_beta(self, a: int) -> bool:
        return bool(self.beta >> a & 1)

    def alpha_elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.k) if self.in_alpha(i))

    def beta_elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.k) if self.in_beta(i))

    def describe(self) -> str:
        return f"alpha={_format_subset(self.alpha)} beta={_format_subset(self.beta)}"

    def relation_size(self, m: int) -> int:
        """|R_m|, the tuples of A^(2m) with some designated pair (2i, 2i+1)
        in alpha x alpha or beta x beta: k**(2m) - (k**2 - |rho|)**m, where
        |rho| = |alpha|**2 + |beta|**2 - |alpha & beta|**2.
        """
        a, b, both = (
            bin(mask).count("1") for mask in (self.alpha, self.beta, self.alpha & self.beta)
        )
        return self.k ** (2 * m) - (self.k**2 - a * a - b * b + both * both) ** m


def iter_subset_pairs(k: int) -> Iterator[SubsetPair]:
    """All unordered covering pairs of proper subsets, masks ascending.

    The projectivity condition is symmetric in the two subsets, so each
    pair appears once, with the smaller mask first.
    """
    for alpha, beta in _subset_pair_chunks(k):
        for a, b in zip(alpha.tolist(), beta.tolist()):
            yield SubsetPair(k, a, b)


def _subset_pair_chunks(k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """_pair_chunks(k), kept read-only once listed for k <= 9 (at most
    9,330 pairs), where listing them would cost more than checking them."""
    if k <= 9:
        return iter(_small_pair_chunks(k, _CHUNK_CELLS))
    return _pair_chunks(k)


@lru_cache(maxsize=None)
def _small_pair_chunks(k: int, cells: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    # Keyed on the chunk size as well, which tests change.
    chunks = tuple(_pair_chunks(k))
    for chunk in chunks:
        for masks in chunk:
            masks.setflags(write=False)
    return chunks


def _pair_chunks(k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every covering pair of proper subsets of {0..k-1} as int64
    (alpha, beta) mask arrays, alpha < beta, in mask order, in chunks of
    at most _CHUNK_CELLS pairs.

    beta covers the complement of alpha, so beta = ~alpha + d for a
    proper submask d of alpha, and beta ascends with d.  With h the
    highest element outside alpha, beta > alpha iff d holds every element
    of alpha above h.  The pairs of alpha are therefore listed directly,
    about 3**k / 2 in all: d = high + the i-th subset of low for
    i = 0 .. 2**|low| - 2, where high and low are the elements of alpha
    above and below h.  A chunk takes several alphas when they fit, else
    one alpha in runs of i.
    """
    if k > 62:
        raise PreconditionError(
            f"the covering-pair scan holds subsets as 64-bit masks, so it needs "
            f"k <= 62, got k = {k}"
        )
    full = (1 << k) - 1
    for start in range(1, full, _CHUNK_CELLS):
        alpha = np.arange(start, min(start + _CHUNK_CELLS, full), dtype=np.int64)
        h = np.zeros_like(alpha)
        for j in range(k):
            h[(alpha >> j) & 1 == 0] = j
        low = alpha & ((1 << h) - 1)
        count = (1 << _popcount(low, k)) - 1
        # Clipped so that the running sum fits; a clipped alpha gets chunks
        # of its own.
        ends = np.cumsum(np.minimum(count, _CHUNK_CELLS + 1))
        pos = 0
        while pos < alpha.size:
            base = int(ends[pos - 1]) if pos else 0
            stop = int(np.searchsorted(ends, base + _CHUNK_CELLS, side="right"))
            if stop > pos:
                reps = count[pos:stop]
                i = np.arange(int(ends[stop - 1]) - base) - np.repeat(
                    np.cumsum(reps) - reps, reps
                )
                runs = [(np.repeat(alpha[pos:stop], reps), np.repeat(low[pos:stop], reps), i)]
                pos = stop
            else:
                runs = _runs_of_one(alpha[pos], low[pos], int(count[pos]))
                pos += 1
            for a, lo, i in runs:
                if a.size:
                    yield a, (full ^ a) | (a ^ lo) | _deposit(i, lo, k)


def _runs_of_one(alpha: np.int64, low: np.int64, size: int):
    """(alpha, low, i) arrays for i = 0 .. size - 1, a chunk at a time."""
    for run in range(0, size, _CHUNK_CELLS):
        i = np.arange(run, min(run + _CHUNK_CELLS, size), dtype=np.int64)
        yield np.full(i.size, alpha), np.full(i.size, low), i


def _popcount(masks: np.ndarray, k: int) -> np.ndarray:
    total = np.zeros_like(masks)
    for j in range(k):
        total += (masks >> j) & 1
    return total


def _deposit(i: np.ndarray, masks: np.ndarray, k: int) -> np.ndarray:
    """The bits of i spread, lowest first, over the set bits of masks."""
    out = np.zeros_like(masks)
    rank = np.zeros_like(masks)
    for j in range(k):
        bit = (masks >> j) & 1
        out |= ((i >> rank) & bit) << j
        rank += bit
    return out


def _image_masks(op: OperationTable) -> np.ndarray:
    """Shape (arity, k): entry [j, x] is the bitmask of the values op takes
    on the argument tuples whose j-th argument is x."""
    s = op.arity
    bits = np.left_shift(1, np.array(op.table, dtype=np.int64)).reshape((op.k,) * s)
    return np.stack([
        np.bitwise_or.reduce(bits, axis=tuple(i for i in range(s) if i != j))
        for j in range(s)
    ])


def _projective_coordinates(
    op: OperationTable, alpha: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Least 1-based projective coordinate of op for each pair
    (alpha[p], beta[p]) of int64 masks, 0 where there is none.

    Coordinate j fails for a pair iff some x in alpha has an image mask
    F_j(x) not inside alpha, or some x in beta one not inside beta.
    """
    images = _image_masks(op)[:, None, :]
    shifts = np.arange(op.k, dtype=np.int64)
    fails = np.zeros((op.arity, alpha.size), dtype=bool)
    for side in (alpha, beta):
        member = ((side[:, None] >> shifts) & 1).astype(bool)
        fails |= (member & ((images & ~side[:, None]) != 0)).any(axis=2)
    works = ~fails
    return np.where(works.any(axis=0), works.argmax(axis=0) + 1, 0)


def projective_coordinate(op: OperationTable, pair: SubsetPair) -> Optional[int]:
    """1-based coordinate witnessing projectivity for the pair, or None.

    Coordinate j works when for every argument tuple, args[j] in alpha
    forces the result into alpha, and likewise for beta.  The least such
    j is returned.
    """
    if op.k != pair.k:
        raise PreconditionError(
            f"operation universe {op.k} != subset pair universe {pair.k}"
        )
    masks = (np.array([mask], dtype=np.int64) for mask in (pair.alpha, pair.beta))
    j = int(_projective_coordinates(op, *masks)[0])
    return j or None


@dataclass(frozen=True)
class EgpDecision:
    """Outcome of the exact dichotomy decision for an idempotent algebra."""

    k: int
    egp: bool
    pair: Optional[SubsetPair]
    coordinates: tuple[tuple[str, int], ...] = ()
    pairs_checked: int = 0

    @property
    def verdict(self) -> str:
        return "EGP" if self.egp else "PGP"

    def render(self) -> list[str]:
        lines = [f"verdict: {self.verdict}"]
        if self.egp:
            assert self.pair is not None
            lines.append(f"alpha: {_format_subset(self.pair.alpha)}")
            lines.append(f"beta: {_format_subset(self.pair.beta)}")
            for name, j in self.coordinates:
                lines.append(f"projective coordinate for {name}: {j}")
        else:
            lines.append(f"pairs checked: {self.pairs_checked}")
        return lines


def _projectivity_scan(algebra: Algebra, limits: Limits = LIMITS) -> EgpDecision:
    """The first pair of iter_subset_pairs for which every operation is
    projective, with each operation's least projective coordinate and the
    number of pairs scanned up to and including it; with no such pair,
    the number of pairs.

    Vectorized over a chunk of pairs at a time; the scan stops at the
    first chunk that holds such a pair.  Idempotence is not assumed.
    """
    checked = 0
    for alpha, beta in _subset_pair_chunks(algebra.k):
        limits.check_pairs(checked, alpha.size)
        alive = np.arange(alpha.size)
        columns: list[np.ndarray] = []
        for op in algebra.operations:
            coords = _projective_coordinates(op, alpha[alive], beta[alive])
            found = coords > 0
            alive = alive[found]
            columns = [column[found] for column in columns] + [coords[found]]
            if not alive.size:
                break
        if alive.size:
            i = int(alive[0])
            return EgpDecision(
                k=algebra.k,
                egp=True,
                pair=SubsetPair(algebra.k, int(alpha[i]), int(beta[i])),
                coordinates=tuple(
                    (op.name, int(column[0]))
                    for op, column in zip(algebra.operations, columns)
                ),
                pairs_checked=checked + i + 1,
            )
        checked += alpha.size
    return EgpDecision(k=algebra.k, egp=False, pair=None, pairs_checked=checked)


def decide_egp_idempotent(algebra: Algebra, *, limits: Limits = LIMITS) -> EgpDecision:
    """Exact growth dichotomy for an idempotent algebra.

    Exponential iff some covering pair of proper subsets makes every
    basic operation projective; the first such pair in mask order is
    reported together with a witnessing coordinate per operation.
    Raises NotIdempotentError otherwise, since the scan only decides
    the question for idempotent algebras.  The scan's pairs, about
    3**k / 2 in all, are charged against limits.space chunk by chunk, so
    at the default budget a PGP algebra is answered up to k = 17 and
    refused from k = 18.
    """
    witness = first_non_idempotent(algebra)
    if witness is not None:
        op, a, v = witness
        raise NotIdempotentError(op.name, op.arity, a, v)
    return _projectivity_scan(algebra, limits)


# -- switch-based generation ------------------------------------------


def count_switches(t: Sequence[int]) -> int:
    """Number of adjacent unequal positions."""
    return sum(1 for i in range(len(t) - 1) if t[i] != t[i + 1])


def count_switch_tuples(k: int, n: int, r: int) -> int:
    """|{t in A^n : t has at most r switches}| in closed form.

    A tuple with exactly i switches is i+1 constant runs: choose the i
    boundaries, k values for the first run, k-1 for each later run.
    """
    if k < 1 or n < 1 or r < 0:
        raise ValueError("need k >= 1, n >= 1, r >= 0")
    return sum(
        math.comb(n - 1, i) * k * (k - 1) ** i for i in range(min(r, n - 1) + 1)
    )


def switch_tuples(k: int, n: int, r: int, *, limits: Limits = LIMITS) -> TupleSet:
    """All tuples of A^n with at most r switches.

    Prefixes grow one coordinate at a time as encodings; a prefix with
    more than r switches is dropped as soon as it has them.  Appending
    digits in ascending order keeps the prefixes ascending.
    """
    if k < 1 or n < 1 or r < 0:
        raise PreconditionError(
            f"need k >= 1, n >= 1, r >= 0, got k = {k}, n = {n}, r = {r}"
        )
    limits.check_switch_tuples(count_switch_tuples(k, n, r))
    ts = TupleSet(k, n, limits=limits)
    prefixes = values = np.arange(k, dtype=np.int64)
    switches = np.zeros(k, dtype=np.int64)
    for _ in range(n - 1):
        grown = (switches[:, None] + (prefixes[:, None] % k != values)).ravel()
        keep = grown <= r
        prefixes = (prefixes[:, None] * k + values).ravel()[keep]
        switches = grown[keep]
    ts.add_encodings_array(prefixes)
    return ts


@dataclass(frozen=True)
class SwitchEvidence:
    """Closure check: do the bounded-switch tuples generate the power?"""

    n: int
    r: int
    seed_count: int
    closure_count: int
    space: int
    full: bool

    def render(self) -> list[str]:
        return [
            f"n: {self.n}",
            f"r: {self.r}",
            f"seed-count: {self.seed_count}",
            f"closure-count: {self.closure_count}",
            f"space: {self.space}",
            f"full: {'yes' if self.full else 'no'}",
        ]


def switch_generation_evidence(
    algebra: Algebra,
    r: int,
    n: int,
    *,
    limits: Limits = LIMITS,
) -> SwitchEvidence:
    """Close the at-most-r-switch tuples of A^n and record the outcome."""
    seeds = switch_tuples(algebra.k, n, r, limits=limits)
    closed = closure(algebra, seeds, limits=limits)
    return SwitchEvidence(
        n=n,
        r=r,
        seed_count=len(seeds),
        closure_count=len(closed),
        space=seeds.space,
        full=is_full(closed),
    )


def is_r_switchable_at(
    algebra: Algebra,
    r: int,
    n: int,
    *,
    limits: Limits = LIMITS,
) -> bool:
    """True iff the at-most-r-switch tuples generate all of A^n."""
    return switch_generation_evidence(algebra, r, n, limits=limits).full


@dataclass(frozen=True)
class DGenEvidence:
    """Closure check: do the equal-pair tuples generate the power A^(2m)?"""

    m: int
    seed_count: int
    closure_count: int
    space: int
    full: bool

    def render(self) -> list[str]:
        return [
            f"m: {self.m}",
            f"seed-count: {self.seed_count}",
            f"closure-count: {self.closure_count}",
            f"space: {self.space}",
            f"full: {'yes' if self.full else 'no'}",
        ]


def _equal_pair_ceiling(
    algebra: Algebra, seeds: TupleSet, m: int, limits: Limits
) -> int:
    """Size of a closed superset of the equal-pair seeds of A^(2m): |R_m| of
    the first covering pair every operation is projective for, else k**(2m).

    R_m holds every seed, since alpha and beta cover A.  An operation
    projective at j maps R_m into itself: the designated pair that puts
    its j-th argument in R_m lies in alpha x alpha (or beta x beta), and
    so does that pair of the image.  Idempotence is not needed.

    The pair scan checks about 3**k / 2 pairs.  It runs only when 4**k,
    a bound above that, fits the space budget and the closure's first
    round has at least as many cells, so it costs at most a share of the
    closure it can shorten.
    """
    first_round = sum(len(seeds) ** op.arity for op in algebra.operations)
    if 4**algebra.k > min(first_round, limits.space):
        return seeds.space
    pair = _projectivity_scan(algebra, limits).pair
    return seeds.space if pair is None else pair.relation_size(m)


def equal_pair_evidence(
    algebra: Algebra,
    m: int,
    *,
    limits: Limits = LIMITS,
) -> DGenEvidence:
    """Close the tuples of A^(2m) with some designated equal pair.

    Fullness at some m at least k is polynomial-growth evidence; staying
    non-full at every m at least k characterizes exponential growth, but
    a bounded scan can only ever support, not certify, that direction.
    The closure stops once it is full or holds |R_m| tuples for the first
    all-projective covering pair (see _equal_pair_ceiling).
    """
    seeds = equal_pair_tuples(algebra.k, m, limits=limits)
    ceiling = _equal_pair_ceiling(algebra, seeds, m, limits)
    closed = closure(algebra, seeds, limits=limits, ceiling=ceiling)
    return DGenEvidence(
        m=m,
        seed_count=len(seeds),
        closure_count=len(closed),
        space=seeds.space,
        full=is_full(closed),
    )


def equal_pair_generates(algebra: Algebra, m: int, *, limits: Limits = LIMITS) -> bool:
    """True iff the designated-equal-pair tuples generate all of A^(2m)."""
    return equal_pair_evidence(algebra, m, limits=limits).full


# -- generating-set sizes ----------------------------------------------


@dataclass(frozen=True)
class GeneratingSet:
    """A generating set of A^n found by search.

    mode "exact" means provably minimum; "greedy" is an upper bound.
    """

    k: int
    n: int
    mode: str
    # Ascending generator encodings; a range when every tuple is needed.
    encodings: Sequence[int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.encodings)

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(decode_tuple(e, self.k, self.n) for e in self.encodings)


class _ExactSearch:
    """One exact search: its node count and its closure memo.

    A closed set is a Python int whose bit e is set iff tuple e is a
    member; it is closed by one more tuple with _extender's extend, which
    takes and returns such masks.  On a one-block layout its rounds run on
    the masks too, so a node makes no member list and no TupleSet unless
    a round is over the step budget.

    Iterative deepening re-walks every shallower tree, and different picks
    often close to the same set, so many closures repeat.  The memo maps a
    closed set's bit mask to a row [lo, children]: the closures of the set
    with each tuple outside it, `width` bytes each, for the slots lo,
    lo + 1, ... of those tuples in encoding order.  A node is counted and
    checked against the node budget before its lookup, and extend runs
    only on a miss.  Each call has its own step budget, so a stored
    closure came from a call that succeeded and would succeed again: visit
    order, node counts, answers and refusals are those of a search without
    the memo.

    Only visited nodes are stored.  A row starts at the first slot of the
    first visit of its set and grows at its end; a later visit that starts
    before lo computes the closures below lo without storing them; no
    search over the corpus or in the tests makes such a visit.  The memo
    holds at most one set per node plus one key per row, `width` bytes of
    budget each, and at most limits.space membership bits in all; past
    that it stores nothing more.  It is freed with the search object when
    _exact_minimum returns or raises.
    """

    def __init__(self, algebra: Algebra, n: int, limits: Limits):
        self.limits = limits
        self.space = algebra.k**n
        self.full = (1 << self.space) - 1
        self.close = _extender(algebra, n, limits)
        self.nodes = 0
        self.width = -(-self.space // 8)  # bytes per stored set
        self.room = limits.space // 8  # bytes the memo may still take
        self.memo: dict[int, list] = {}

    def _reserve(self, size: int) -> bool:
        if size > self.room:
            return False
        self.room -= size
        return True

    def extend(self, chosen: list[int], closed: int, target: int) -> Optional[list[int]]:
        """A generating set of at most `target` picks that extends `chosen`,
        whose closure has the membership mask `closed`."""
        if closed == self.full:
            return chosen
        if len(chosen) == target:
            return None
        # Anything a minimum set picks next is outside the closure of what
        # it already picked; slot i is the i-th such tuple.
        free = self.full ^ closed
        start = chosen[-1] + 1 if chosen else 0
        slot = (free & ((1 << start) - 1)).bit_count()
        free = free >> start << start
        w = self.width
        entry = self.memo.get(closed)
        if entry is None:
            entry = [slot, bytearray()]
            if self._reserve(w):
                self.memo[closed] = entry
        lo, row = entry
        while free:
            low = free & -free
            free ^= low
            e = low.bit_length() - 1
            self.nodes += 1
            self.limits.check_nodes(self.nodes, self.space)
            i = (slot - lo) * w
            if 0 <= i < len(row):
                child = int.from_bytes(row[i : i + w], "little")
            else:
                child = self.close(closed, e)
                if i == len(row) and self._reserve(w):
                    row += child.to_bytes(w, "little")
            found = self.extend(chosen + [e], child, target)
            if found is not None:
                return found
            slot += 1
        return None


def _exact_minimum(algebra: Algebra, n: int, limits: Limits) -> tuple[int, ...]:
    search = _ExactSearch(algebra, n, limits)
    for target in range(1, search.space + 1):
        found = search.extend([], 0, target)
        if found is not None:
            return tuple(found)
    raise AssertionError("the full space generates itself")


def _greedy_upper_bound(algebra: Algebra, n: int, limits: Limits) -> tuple[int, ...]:
    space = algebra.k**n
    closed = TupleSet(algebra.k, n, limits=limits)
    chosen: list[int] = []
    for e in range(space):
        if not closed.has_encoding(e):
            chosen.append(e)
            closed = closure_extend(algebra, closed, [e], limits=limits)
            if is_full(closed):
                break
    return tuple(chosen)


def min_generating_size(
    algebra: Algebra,
    n: int,
    *,
    mode: str = "auto",
    limits: Limits = LIMITS,
) -> GeneratingSet:
    """Smallest (mode "exact") or small (mode "greedy") generating set of A^n.

    The exact search is iterative-deepening over ascending encodings and
    returns the lexicographically least minimum set; it refuses spaces
    larger than limits.exact and searches larger than limits.nodes (deep
    minimum sets make the tree explode well before the space cap does).
    Mode "auto" picks exact when affordable.
    """
    if n < 1:
        raise PreconditionError(f"power must be >= 1, got {n}")
    if mode not in ("auto", "exact", "greedy"):
        raise PreconditionError(f"unknown search mode {mode!r}")
    limits.check_space(algebra.k, n)
    space = algebra.k**n
    if not algebra.operations:
        # Closure is the identity, so every tuple must be a generator.
        return GeneratingSet(k=algebra.k, n=n, mode="exact", encodings=range(space))
    if mode == "auto":
        mode = "exact" if space <= limits.exact else "greedy"
    if mode == "exact":
        limits.check_exact(space)
        encodings = _exact_minimum(algebra, n, limits)
    else:
        encodings = _greedy_upper_bound(algebra, n, limits)
    return GeneratingSet(k=algebra.k, n=n, mode=mode, encodings=encodings)


@dataclass(frozen=True)
class GrowthRow:
    n: int
    size: int
    mode: str
    # Why a row of an exact profile is greedy: the exact search's refusal,
    # by space or by search-tree size.  Not part of the CSV.
    reason: Optional[str] = None


@dataclass(frozen=True)
class GrowthProfile:
    k: int
    rows: tuple[GrowthRow, ...]
    note: Optional[str] = None

    def to_csv(self) -> str:
        out = ["n,size,mode"]
        out.extend(f"{row.n},{row.size},{row.mode}" for row in self.rows)
        return "\n".join(out) + "\n"


def growth_profile(
    algebra: Algebra,
    n_max: int,
    *,
    mode: str = "exact",
    limits: Limits = LIMITS,
) -> GrowthProfile:
    """Generating-set sizes of A^1 .. A^n_max, one row per power.

    mode "exact" falls back to greedy on rows where the exact search is
    over budget, either by space or by search-tree size; the row's mode
    says greedy and its reason gives the refusal.  Rows past the greedy
    budget are omitted and noted instead of raising.
    """
    if n_max < 1:
        raise PreconditionError(f"n_max must be >= 1, got {n_max}")
    if mode not in ("exact", "greedy"):
        raise PreconditionError(f"unknown growth mode {mode!r}")
    rows = []
    note = None
    for n in range(1, n_max + 1):
        reason = None
        try:
            if mode == "exact":
                try:
                    gs = min_generating_size(algebra, n, mode="exact", limits=limits)
                except BudgetExceededError as exc:
                    reason = str(exc)
            if mode == "greedy" or reason is not None:
                gs = min_generating_size(algebra, n, mode="greedy", limits=limits)
        except BudgetExceededError as exc:
            note = f"rows from n = {n} omitted: {exc}"
            break
        rows.append(GrowthRow(n=gs.n, size=gs.size, mode=gs.mode, reason=reason))
    return GrowthProfile(k=algebra.k, rows=tuple(rows), note=note)
