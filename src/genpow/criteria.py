"""Dichotomy criteria: does the n-th power of a finite algebra need
polynomially or exponentially many generators?

The exact decision for idempotent algebras asks whether some covering
pair of proper subsets (alpha, beta) makes every basic operation
projective: some coordinate j such that the j-th argument landing in
alpha (resp. beta) forces the result into alpha (resp. beta).  One such
pair certifies exponential growth; none certifies polynomial growth.

The other routes here are verification-style: close a structured seed set
(equal-pair tuples, bounded-switch tuples) under the operations and test
whether the full power is reached.  They apply to non-idempotent algebras
too but only answer for the sizes actually checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import Algebra, OperationTable, _require_idempotent, _require_same_universe
from .errors import BudgetExceededError, PreconditionError
from .subpower import (
    LIMITS,
    Limits,
    TupleSet,
    _extender,
    _mask_members,
    closure,
    closure_extend,
    decode_tuple,
    equal_pair_tuples,
    is_full,
)


def _format_subset(elements: Iterable[int]) -> str:
    return "{" + ", ".join(str(a) for a in elements) + "}"


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
        return (
            f"alpha={_format_subset(self.alpha_elements())} "
            f"beta={_format_subset(self.beta_elements())}"
        )

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
    """All unordered covering pairs of proper subsets, masks ascending,
    the smaller first: beta > alpha holds the complement of alpha, the
    elements of alpha above the highest element h outside it, and a
    proper submask of low, those below h."""
    full = (1 << k) - 1
    for alpha in range(1, full):
        low = alpha & ((1 << ((full ^ alpha).bit_length() - 1)) - 1)
        sub = 0
        while sub != low:
            yield SubsetPair(k, alpha, (full ^ low) | sub)
            sub = (sub - low) & low


def _pair_rank(k: int, alpha: int, beta: int) -> int:
    """1-based position of the pair in iter_subset_pairs(k), in closed form.

    An alpha has 2**|low| - 1 pairs.  For each element b of alpha, the
    alphas that agree with alpha above b and lack b have 2**c * 3**b - 2**b
    pairs in all, c being the number of elements of low above b (0 when
    b > h).  beta is alpha's i-th pair, i read off beta's bits in low.
    """
    h = (((1 << k) - 1) ^ alpha).bit_length() - 1
    low = [b for b in range(h) if alpha >> b & 1]
    rank = 1 + sum(3**b - 2**b for b in range(h + 1, k))
    for i, b in enumerate(low):
        rank += 2 ** (len(low) - 1 - i) * 3**b - 2**b + ((beta >> b & 1) << i)
    return rank


def _image_masks(op: OperationTable) -> list[list[int]]:
    """Entry [j][x] is the bit mask of the values op takes on the argument
    tuples whose j-th argument is x: a digraph on A, under which a set is
    closed iff op is projective at j + 1 for it."""
    masks = [[0] * op.k for _ in range(op.arity)]
    for args, value in zip(itertools.product(range(op.k), repeat=op.arity), op.table):
        for graph, x in zip(masks, args):
            graph[x] |= 1 << value
    return masks


def _reach(graph: Sequence[int], mask: int) -> int:
    """The least superset of mask closed under graph's edges."""
    todo = mask
    while todo:
        x = todo & -todo
        todo ^= x
        new = graph[x.bit_length() - 1] & ~mask
        mask |= new
        todo |= new
    return mask


def projective_coordinate(op: OperationTable, pair: SubsetPair) -> Optional[int]:
    """1-based coordinate witnessing projectivity for the pair, or None.

    Coordinate j works when for every argument tuple, args[j] in alpha
    forces the result into alpha, and likewise for beta.  The least such
    j is returned.
    """
    _require_same_universe("operation", op.k, "subset pair", pair.k)
    for j, graph in enumerate(_image_masks(op), start=1):
        if _reach(graph, pair.alpha) == pair.alpha and _reach(graph, pair.beta) == pair.beta:
            return j
    return None


@dataclass(frozen=True)
class EgpDecision:
    """Outcome of the exact dichotomy decision for an idempotent algebra."""

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
            lines.append(f"alpha: {_format_subset(self.pair.alpha_elements())}")
            lines.append(f"beta: {_format_subset(self.pair.beta_elements())}")
            for name, j in self.coordinates:
                lines.append(f"projective coordinate for {name}: {j}")
        else:
            lines.append(f"pairs checked: {self.pairs_checked}")
        return lines


def _projectivity_scan(algebra: Algebra, limits: Limits = LIMITS) -> EgpDecision:
    """The first pair of iter_subset_pairs for which every operation is
    projective, its coordinates and position; else the number of pairs.

    A pair works iff both sides are closed under the union of the
    digraphs of some choice of one coordinate per operation.  Under a
    choice, a set is in a working pair iff it and the closure b of its
    complement are proper and closed, and then b is its least partner.
    Each such set holds the closure of one element, itself such a set.
    So the first pair is the least (a, b) over the choices and the
    elements whose closure a qualifies.  Idempotence is not assumed.
    """
    k, full = algebra.k, (1 << algebra.k) - 1
    limits.check_choices(math.prod(op.arity for op in algebra.operations))
    best = (full, full)
    for chosen in itertools.product(*(_image_masks(op) for op in algebra.operations)):
        graph = [reduce(or_, edges) for edges in zip([0] * k, *chosen)]
        for x in range(k):
            a = _reach(graph, 1 << x)
            if a != full and a <= best[0] and (b := _reach(graph, full ^ a)) != full:
                best = min(best, (a, b))
    if best[0] == full:
        return EgpDecision(False, None, pairs_checked=(3**k - 2 ** (k + 1) + 1) // 2)
    pair = SubsetPair(k, *best)
    coordinates = tuple((op.name, projective_coordinate(op, pair)) for op in algebra.operations)
    return EgpDecision(True, pair, coordinates, _pair_rank(k, *best))


def decide_egp_idempotent(algebra: Algebra, *, limits: Limits = LIMITS) -> EgpDecision:
    """Exact growth dichotomy for an idempotent algebra.

    Exponential iff some covering pair of proper subsets makes every
    basic operation projective; the first such pair in mask order is
    reported together with a witnessing coordinate per operation.
    Raises NotIdempotentError otherwise, since the test only decides
    the question for idempotent algebras.  It costs O(k**2) bit
    operations per choice of a coordinate for each operation, and refuses
    more choices than limits.space.
    """
    _require_idempotent(algebra)
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

    A tuple has at most n - 1 switches, so r >= n - 1 gives all of A^n,
    inserted a batch of encodings at a time.  Otherwise prefixes grow one
    coordinate at a time as encodings; a prefix with more than r switches
    is dropped as soon as it has them.  Appending digits in ascending
    order keeps the prefixes ascending.
    """
    if k < 1 or n < 1 or r < 0:
        raise PreconditionError(
            f"need k >= 1, n >= 1, r >= 0, got k = {k}, n = {n}, r = {r}"
        )
    limits.check_switch_tuples(count_switch_tuples(k, n, r))
    if r >= n - 1:
        return TupleSet.full(k, n, limits=limits)
    ts = TupleSet(k, n)
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
class ClosureEvidence:
    """Closure check: do the seeds generate the power they live in?

    `params` holds the check's (name, value) pairs in print order.
    """

    params: tuple[tuple[str, int], ...]
    seed_count: int
    closure_count: int
    space: int

    @property
    def full(self) -> bool:
        return self.closure_count == self.space

    def render(self) -> list[str]:
        return [f"{name}: {value}" for name, value in self.params] + [
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
) -> ClosureEvidence:
    """Close the at-most-r-switch tuples of A^n and record the outcome."""
    seeds = switch_tuples(algebra.k, n, r, limits=limits)
    closed = closure(algebra, seeds, limits=limits)
    return ClosureEvidence((("n", n), ("r", r)), len(seeds), len(closed), seeds.space)


def is_r_switchable_at(
    algebra: Algebra,
    r: int,
    n: int,
    *,
    limits: Limits = LIMITS,
) -> bool:
    """True iff the at-most-r-switch tuples generate all of A^n."""
    return switch_generation_evidence(algebra, r, n, limits=limits).full


def _equal_pair_ceiling(
    algebra: Algebra, seeds: TupleSet, m: int, limits: Limits
) -> int:
    """Size of a closed superset of the equal-pair seeds of A^(2m): |R_m| of
    the first covering pair every operation is projective for, else k**(2m).

    R_m holds every seed, since alpha and beta cover A.  An operation
    projective at j maps R_m into itself: the designated pair that puts
    its j-th argument in R_m lies in alpha x alpha (or beta x beta), and
    so does that pair of the image.  Idempotence is not needed.

    No ceiling is set when the pair test is over the space budget.
    """
    try:
        pair = _projectivity_scan(algebra, limits).pair
    except BudgetExceededError:
        return seeds.space
    return seeds.space if pair is None else pair.relation_size(m)


def equal_pair_evidence(
    algebra: Algebra,
    m: int,
    *,
    limits: Limits = LIMITS,
) -> ClosureEvidence:
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
    return ClosureEvidence((("m", m),), len(seeds), len(closed), seeds.space)


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
    # Why mode "auto" fell back to greedy: the exact search's refusal, by
    # space, by search-tree size or by a closure's steps.  Not in the CSV.
    reason: Optional[str] = None

    @property
    def size(self) -> int:
        return len(self.encodings)

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(decode_tuple(e, self.k, self.n) for e in self.encodings)


def _forced_mask(algebra: Algebra, n: int) -> int:
    """Bit x is set iff tuple x of A^n is forced: no basic operation
    produces it from argument tuples that all differ from it.  Every
    generating set of A^n holds every forced tuple.

    An s-ary f makes x from arguments that all differ from x iff each
    coordinate i has a row a of f's table with f(a) = x_i whose slot mask
    {j : a_j != x_i} joins the others' to 2**s - 1.  So per operation the
    tuples' prefixes carry the set of slot unions they can reach, bit u
    set iff union u is, one coordinate at a time; a prefix that reaches
    the full union keeps it, but every coordinate is still visited.
    """
    k, unmade = algebra.k, 0
    for op in algebra.operations:
        masks = [set() for _ in range(k)]  # slot masks of the rows f maps to v
        for args, v in zip(itertools.product(range(k), repeat=op.arity), op.table):
            masks[v].add(sum(1 << j for j, a in enumerate(args) if a != v))
        states = 1 << op.arity

        @cache
        def step(reach: int, v: int) -> int:
            unions = {u | m for u in _mask_members(reach, states) for m in masks[v]}
            return sum(1 << u for u in unions)

        layer = [1]  # the empty prefix reaches the empty union
        for _ in range(n):
            layer = [step(reach, v) for reach in layer for v in range(k)]
        full = 1 << states - 1
        unmade |= sum(1 << x for x, reach in enumerate(layer) if reach & full)
    return ((1 << k**n) - 1) ^ unmade


# What a memo entry costs beside its child's k**n bits: the dict slot, the
# (closed, e) key tuple and the child int's header; the closed int is shared
# with the entry that made it.  tracemalloc read 120-170 bytes per entry
# over k**n / 8 (CPython 3.11, k**n from 27 to 4096), so at its room the
# memo holds about limits.space / 8 bytes.
_MEMO_ENTRY_BITS = 150 * 8


class _ExactSearch:
    """One exact search: its node count and its closure memo.

    A closed set is a Python int whose bit e is set iff tuple e is a
    member; it is closed by one more tuple with _extender's extend, which
    takes and returns such masks.  On a one-block layout its rounds run on
    the masks too, so a node makes no member list and no TupleSet unless
    its closure is over the step budget.

    Iterative deepening re-walks every shallower tree, and different picks
    often close to the same set, so many closures repeat.  The memo maps a
    closed set's mask and a pick, (closed, e), to the mask of their
    closure.  A node is counted and checked against the node budget before
    its lookup, and extend runs only on a miss.  Each call has its own
    step budget, so a stored closure came from a call that succeeded and
    would succeed again: visit order, node counts, answers and refusals
    are those of a search without the memo.  It stores at most `room`
    closures, and past that nothing more; it is freed with the search
    object when minimum returns or raises.

    Every generating set holds the forced tuples (_forced_mask).  So at
    the last pick of an iteration, a node whose closed set and pick leave
    a forced tuple out cannot answer: it is counted and checked against
    the node budget, and then skipped with no lookup, closure or child
    call.  That child would have returned None, and its closure could not
    have been refused, since the test is on only while the step budget
    covers sum (k**n)**arity, the most any closure of A^n is charged.  If
    the closed set leaves two out, every pick leaves one out, and all the
    picks are counted and checked at once.  A skipped closure is not
    stored; the next iteration, where that node is interior, computes and
    stores it.  Visit order, node counts, answers and refusals are again
    those of the search without the test.
    """

    def __init__(self, algebra: Algebra, n: int, limits: Limits):
        self.limits = limits
        self.space = algebra.k**n
        limits.check_exact(self.space)
        self.full = (1 << self.space) - 1
        self.close = _extender(algebra, n, limits)
        self.nodes = 0
        self.memo: dict[tuple[int, int], int] = {}
        self.room = limits.space // (self.space + _MEMO_ENTRY_BITS)
        # Under this bound no closure is refused by steps: a round charges
        # at most |union|**s - |old|**s per operation, which telescopes.
        # After round 0 a lone binary associative operation is charged
        # |U| * |new|, U the union at round 0, and that is at most
        # |union|**2 - |old|**2.
        affordable = sum(self.space**op.arity for op in algebra.operations) <= limits.steps
        self.forced = _forced_mask(algebra, n) if affordable else 0

    def minimum(self) -> tuple[int, ...]:
        """The lexicographically least minimum generating set, by
        iterative deepening."""
        for target in range(1, self.space + 1):
            found = self.extend([], 0, target)
            if found is not None:
                return tuple(found)
        raise AssertionError("the full space generates itself")

    def extend(self, chosen: list[int], closed: int, target: int) -> Optional[list[int]]:
        """A generating set of at most `target` picks that extends `chosen`,
        whose closure has the membership mask `closed`."""
        if closed == self.full:
            return chosen
        if len(chosen) == target:
            return None
        # Anything a minimum set picks next is outside the closure of what
        # it already picked, and above its last pick.
        start = chosen[-1] + 1 if chosen else 0
        free = (self.full ^ closed) >> start << start
        # At the last pick, a forced tuple outside the closed set and the
        # pick is outside the child, which is then not full.
        missing = self.forced & ~closed if len(chosen) + 1 == target else 0
        if missing & (missing - 1):
            # Every pick is skipped; a refusal leaves the count at budget + 1.
            self.nodes = min(self.nodes + free.bit_count(), self.limits.nodes + 1)
            self.limits.check_nodes(self.nodes, self.space)
            return None
        memo = self.memo
        while free:
            low = free & -free
            free ^= low
            e = low.bit_length() - 1
            self.nodes += 1
            self.limits.check_nodes(self.nodes, self.space)
            if missing & ~low:
                continue
            child = memo.get((closed, e))
            if child is None:
                child = self.close(closed, e)
                if len(memo) < self.room:
                    memo[closed, e] = child
            found = self.extend(chosen + [e], child, target)
            if found is not None:
                return found
        return None


def _greedy_upper_bound(algebra: Algebra, n: int, limits: Limits) -> tuple[int, ...]:
    space = algebra.k**n
    closed = TupleSet(algebra.k, n)
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
    Mode "exact" raises a refusal; mode "auto" returns the greedy set
    instead, with the refusal (a closure's by steps too) as its reason.
    """
    if n < 1:
        raise PreconditionError(f"power must be >= 1, got {n}")
    if mode not in ("auto", "exact", "greedy"):
        raise PreconditionError(f"unknown search mode {mode!r}")
    limits.check_space(algebra.k, n)
    if not algebra.operations:
        # Closure is the identity, so every tuple must be a generator.
        return GeneratingSet(k=algebra.k, n=n, mode="exact", encodings=range(algebra.k**n))
    reason = None
    if mode != "greedy":
        try:
            encodings = _ExactSearch(algebra, n, limits).minimum()
            return GeneratingSet(k=algebra.k, n=n, mode="exact", encodings=encodings)
        except BudgetExceededError as exc:
            if mode == "exact":
                raise
            reason = str(exc)
    encodings = _greedy_upper_bound(algebra, n, limits)
    return GeneratingSet(k=algebra.k, n=n, mode="greedy", encodings=encodings, reason=reason)


@dataclass(frozen=True)
class GrowthProfile:
    rows: tuple[GeneratingSet, ...]
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

    Each row is min_generating_size's answer, in mode "auto" for mode
    "exact" (so a row the exact search refuses is greedy, with the refusal
    as its reason) and in mode "greedy" otherwise.  Rows past the greedy
    budget are omitted and noted instead of raising.
    """
    if n_max < 1:
        raise PreconditionError(f"n_max must be >= 1, got {n_max}")
    if mode not in ("exact", "greedy"):
        raise PreconditionError(f"unknown growth mode {mode!r}")
    search = "auto" if mode == "exact" else "greedy"
    rows = []
    note = None
    for n in range(1, n_max + 1):
        try:
            rows.append(min_generating_size(algebra, n, mode=search, limits=limits))
        except BudgetExceededError as exc:
            note = f"rows from n = {n} omitted: {exc}"
            break
    return GrowthProfile(rows=tuple(rows), note=note)
