"""Constructive witnesses behind the growth dichotomy.

The objects here make the verdicts auditable: a "nice" relation certifies
non-switchability in collapsed form, the cross-equality relation distills
it into a fixed-arity obstruction, the subset-pair relation family links
projectivity to relation preservation, and the counterexample matrix
exhibits a concrete preservation failure for a non-projective operation.
Every constructor re-verifies its own guarantee before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import Algebra, OperationTable, evaluate, first_non_idempotent
from .criteria import SubsetPair, projective_coordinate, switch_tuples
from .errors import (
    GenpowError,
    NotIdempotentError,
    PreconditionError,
)
from .subpower import (
    LIMITS,
    Limits,
    TupleSet,
    _grid_images,
    _weights,
    closure,
    decode_tuple,
    is_full,
    scan_space,
)


@dataclass(frozen=True)
class NiceRelation:
    """A non-full relation that keeps every tuple with an adjacent equal pair.

    Membership of (c_1,...,c_m) is answered by block expansion: c_i is
    repeated block_lengths[i] times and the widened tuple is looked up in
    the base set.  `excluded` is a claimed non-member of arity m; the
    niceness clauses themselves are checked by verify_nice, not assumed.
    """

    k: int
    block_lengths: tuple[int, ...]
    base: TupleSet = field(repr=False)
    excluded: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "block_lengths", tuple(self.block_lengths))
        object.__setattr__(self, "excluded", tuple(self.excluded))
        if not self.block_lengths or any(b < 1 for b in self.block_lengths):
            raise PreconditionError("block lengths must be positive and nonempty")
        if self.base.k != self.k:
            raise PreconditionError(
                f"base universe {self.base.k} != relation universe {self.k}"
            )
        if self.base.n != sum(self.block_lengths):
            raise PreconditionError(
                f"base arity {self.base.n} != total block length "
                f"{sum(self.block_lengths)}"
            )
        if len(self.excluded) != self.m:
            raise PreconditionError(
                f"excluded tuple has arity {len(self.excluded)}, expected {self.m}"
            )
        if any(not 0 <= c < self.k for c in self.excluded):
            raise PreconditionError("excluded tuple has out-of-range coordinates")

    @property
    def m(self) -> int:
        return len(self.block_lengths)

    def expand(self, t: Sequence[int]) -> tuple[int, ...]:
        if len(t) != self.m:
            raise ValueError(f"expected arity {self.m}, got {len(t)}")
        out: list[int] = []
        for c, width in zip(t, self.block_lengths):
            out.extend([c] * width)
        return tuple(out)

    def contains(self, t: Sequence[int]) -> bool:
        return self.expand(t) in self.base

    def contains_digits(self, digits: np.ndarray) -> np.ndarray:
        """Row mask of a (rows, m) digit matrix: which rows are members."""
        wide = np.repeat(digits, self.block_lengths, axis=1)
        return self.base.contains_encodings(wide @ _weights(self.k, self.base.n))

    def materialize(self, *, limits: Limits = LIMITS) -> TupleSet:
        """Flatten to an explicit TupleSet of arity m."""
        return TupleSet.from_mask(self.k, self.m, self.contains_digits, limits=limits)


def verify_nice(rel: NiceRelation, *, limits: Limits = LIMITS) -> bool:
    """Exhaustively check both clauses: the excluded tuple really is out,
    and every tuple with some adjacent equal pair really is in.
    """
    batches = scan_space(rel.k, rel.m, limits=limits)
    if rel.contains(rel.excluded):
        return False
    for _, digits in batches:
        adjacent = (digits[:, 1:] == digits[:, :-1]).any(axis=1)
        if not rel.contains_digits(digits[adjacent]).all():
            return False
    return True


def nice_relation_from_nonswitchability(
    algebra: Algebra,
    r: int,
    n: int,
    *,
    limits: Limits = LIMITS,
) -> NiceRelation:
    """Collapse a non-switchability witness into a nice relation.

    Closes the at-most-r-switch tuples of A^n; among the tuples left out,
    takes the one with the fewest switches (ties: least encoding) and
    collapses its constant runs to single coordinates.  Any tuple of the
    quotient with an adjacent equal pair expands to fewer switches than
    the minimum, so it lies in the closure: the quotient is nice.
    """
    # Taken first so that an over-budget space is refused before the closure.
    batches = scan_space(algebra.k, n, limits=limits)
    seeds = switch_tuples(algebra.k, n, r, limits=limits)
    closed = closure(algebra, seeds, limits=limits)
    if is_full(closed):
        raise PreconditionError(
            f"algebra generates its power from {r}-switch tuples at n = {n}; "
            "no witness exists"
        )
    best: Optional[tuple[int, ...]] = None
    best_switches = n
    for encodings, digits in batches:
        outside = digits[~closed.contains_encodings(encodings)]
        if not outside.size:
            continue
        switches = (outside[:, 1:] != outside[:, :-1]).sum(axis=1)
        # argmin takes the first minimum, the least encoding in this batch;
        # an earlier batch keeps a tie.
        i = int(np.argmin(switches))
        if switches[i] < best_switches:
            best, best_switches = tuple(outside[i].tolist()), int(switches[i])
    assert best is not None
    blocks: list[int] = []
    values: list[int] = []
    for a in best:
        if values and values[-1] == a:
            blocks[-1] += 1
        else:
            blocks.append(1)
            values.append(a)
    # The excluded tuple is outside the seed set, so it has more than r
    # switches and the quotient arity exceeds r + 1.
    assert len(values) >= r + 2, (best, r)
    rel = NiceRelation(
        k=algebra.k,
        block_lengths=tuple(blocks),
        base=closed,
        excluded=tuple(values),
    )
    if not verify_nice(rel, limits=limits):
        raise GenpowError(
            "internal error: collapsed non-switchability witness failed "
            "the niceness check"
        )
    return rel


def evenize_nice(rel: NiceRelation, *, limits: Limits = LIMITS) -> NiceRelation:
    """Reduce an odd-arity relation to even arity by merging two variables.

    Even input is returned unchanged.  For odd arity, two positions of
    the excluded tuple with equal values are sought among indices
    0, 2, 4, ... (least first index, then least second); the earlier
    position is dropped and reads the later one's variable.  Designated
    pairs (0,1), (2,3), ... of the result map onto adjacent positions of
    the input, so a tuple equal on some designated pair stays a member
    whenever the input is nice.
    """
    m = rel.m
    if m % 2 == 0:
        return rel
    u = rel.excluded
    evens = range(0, m, 2)
    pq = next(((p, q) for p in evens for q in evens if p < q and u[p] == u[q]), None)
    if pq is None:
        raise PreconditionError(
            f"excluded tuple repeats no value on even positions; arity {m} "
            f"is below the guaranteed threshold 2k = {2 * rel.k}"
        )
    p, q = pq
    # Input position t reads this variable of the arity-(m-1) result.
    source = [q - 1 if t == p else (t if t < p else t - 1) for t in range(m)]
    base = TupleSet.from_mask(
        rel.k, m - 1, lambda digits: rel.contains_digits(digits[:, source]),
        limits=limits,
    )
    dropped = tuple(u[t] for t in range(m) if t != p)
    return NiceRelation(
        k=rel.k, block_lengths=(1,) * (m - 1), base=base, excluded=dropped
    )


@dataclass(frozen=True)
class CrossEqualityWitness:
    """Fixed-arity obstruction distilled from a wide nice relation.

    The relation has arity 2n + k over variables (x_1..x_n, y_1..y_n,
    z_0..z_{k-1}); it omits (a,..,a, b,..,b, 0,..,k-1) yet contains every
    tuple with x_i = y_j for some i, j.
    """

    k: int
    n: int
    arity: int
    pair_used: tuple[int, int]
    multiplicity: int
    relation: TupleSet = field(repr=False)
    excluded: tuple[int, ...]
    position_vars: tuple[int, ...] = field(repr=False)

    def render(self) -> list[str]:
        return [
            f"arity: {self.arity}",
            f"pair: ({self.pair_used[0]}, {self.pair_used[1]})",
            f"multiplicity: {self.multiplicity}",
            "excluded: " + " ".join(str(a) for a in self.excluded),
            f"members: {len(self.relation)} of {self.relation.space}",
        ]


def cross_equality_witness(
    rel: NiceRelation,
    n: int,
    k: int,
    *,
    limits: Limits = LIMITS,
) -> CrossEqualityWitness:
    """Build the arity-(2n+k) obstruction from a sufficiently wide nice
    relation.

    Adjacent positions of the excluded tuple are read off as pairs; the
    most frequent pair (a, b) occurs at least n^2 times because the arity
    exceeds 2k^2 n^2.  The first n^2 occurrences are rewired to the
    variable pairs (x_i, y_j) in row-major order, further occurrences to
    (x_1, y_1), and every other position to the z variable indexed by its
    excluded-tuple value.  Membership is inherited through that rewiring.
    """
    if k != rel.k:
        raise PreconditionError(
            f"universe size {k} != relation universe {rel.k}"
        )
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    m = rel.m
    bound = 2 * k * k * n * n
    if m <= bound:
        raise PreconditionError(
            f"relation arity {m} must exceed 2*k^2*n^2 = {bound}"
        )
    if not verify_nice(rel, limits=limits):
        raise PreconditionError("relation is not nice")
    u = rel.excluded
    pairs = [(u[2 * t], u[2 * t + 1]) for t in range(m // 2)]
    tally: dict[tuple[int, int], int] = {}
    for pr in pairs:
        tally[pr] = tally.get(pr, 0) + 1
    top = max(tally.values())
    a, b = min(pr for pr, c in tally.items() if c == top)
    assert top >= n * n, (top, n)

    arity = 2 * n + k
    position_vars = [2 * n + c for c in u]
    seen = 0
    for t, pr in enumerate(pairs):
        if pr != (a, b):
            continue
        if seen < n * n:
            i, j = divmod(seen, n)
        else:
            i, j = 0, 0
        position_vars[2 * t] = i
        position_vars[2 * t + 1] = n + j
        seen += 1

    batches = scan_space(k, arity, limits=limits)
    relation = TupleSet(k, arity, limits=limits)
    cross_violation = None
    for encodings, digits in batches:
        member = rel.contains_digits(digits[:, position_vars])
        relation.add_encodings_array(encodings[member])
        crossing = (digits[:, :n, None] == digits[:, None, n : 2 * n]).any(axis=(1, 2))
        missing = digits[crossing & ~member]
        if missing.size and cross_violation is None:
            cross_violation = tuple(missing[0].tolist())
    excluded = (a,) * n + (b,) * n + tuple(range(k))
    if excluded in relation:
        raise GenpowError(
            "internal error: the designated excluded tuple is a member"
        )
    if cross_violation is not None:
        raise GenpowError(
            "internal error: a tuple with matching x/y coordinates is "
            f"missing: {cross_violation}"
        )
    return CrossEqualityWitness(
        k=k,
        n=n,
        arity=arity,
        pair_used=(a, b),
        multiplicity=top,
        relation=relation,
        excluded=excluded,
        position_vars=tuple(position_vars),
    )


def subset_pair_relation(
    pair: SubsetPair, n: int, *, limits: Limits = LIMITS
) -> TupleSet:
    """Tuples of A^(2n) where some designated pair (2t, 2t+1) lies in
    (alpha x alpha) | (beta x beta).
    """
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    alpha = np.array([pair.in_alpha(x) for x in range(pair.k)])
    beta = np.array([pair.in_beta(x) for x in range(pair.k)])
    rho = np.outer(alpha, alpha) | np.outer(beta, beta)
    return TupleSet.from_mask(
        pair.k, 2 * n, lambda digits: rho[digits[:, 0::2], digits[:, 1::2]].any(axis=1),
        limits=limits,
    )


def preserves_relation(
    op: OperationTable, rel: TupleSet, *, limits: Limits = LIMITS
) -> bool:
    """Brute-force preservation: every arity-many choice of members maps
    to a member under coordinatewise application.
    """
    if op.k != rel.k:
        raise PreconditionError(
            f"operation universe {op.k} != relation universe {rel.k}"
        )
    members = rel.encodings()
    count = members.size
    if count == 0:
        return True
    limits.check_combinations(count, op.arity)
    for images in _grid_images(op, members, rel.n):
        if not rel.contains_encodings(images).all():
            return False
    return True


@dataclass(frozen=True)
class ProjectivityCounterexample:
    """A preservation failure for a non-projective operation.

    rows holds 2s argument tuples of width s; the s columns all belong to
    the subset-pair relation of arity 2s, while applying the operation to
    each row yields a non-member.
    """

    op_name: str
    arity: int
    pair: SubsetPair
    rows: tuple[tuple[int, ...], ...]
    image: tuple[int, ...]

    def render(self) -> list[str]:
        lines = [
            f"operation: {self.op_name}",
            f"alpha: {_format_elements(self.pair.alpha_elements())}",
            f"beta: {_format_elements(self.pair.beta_elements())}",
            f"rows: {len(self.rows)}",
        ]
        for idx, row in enumerate(self.rows, start=1):
            lines.append(f"row {idx}: " + " ".join(str(a) for a in row))
        lines.append("image: " + " ".join(str(a) for a in self.image))
        return lines


def _format_elements(elements: Iterable[int]) -> str:
    return "{" + ", ".join(str(a) for a in elements) + "}"


def projectivity_counterexample(
    op: OperationTable, pair: SubsetPair, *, limits: Limits = LIMITS
) -> ProjectivityCounterexample:
    """Exhibit a subset-pair relation violation for a non-projective op.

    For each coordinate j the least argument tuple certifying the failure
    is found, scanning alpha before beta; it contributes one row, followed
    by a constant row drawn from the failing subset minus the other one.
    Each column then meets the relation on its own block, while the image
    misses it on every block.  Requires an idempotent operation so the
    constant rows map to themselves.
    """
    if op.k != pair.k:
        raise PreconditionError(
            f"operation universe {op.k} != subset pair universe {pair.k}"
        )
    k, s = op.k, op.arity
    for c in range(k):
        v = evaluate(op, (c,) * s)
        if v != c:
            raise NotIdempotentError(op.name, s, c, v)
    j_ok = projective_coordinate(op, pair)
    if j_ok is not None:
        raise PreconditionError(
            f"operation {op.name!r} is projective at coordinate {j_ok}; "
            "no counterexample exists"
        )
    sides = (
        ("alpha", pair.in_alpha, pair.alpha_elements(), pair.beta_elements()),
        ("beta", pair.in_beta, pair.beta_elements(), pair.alpha_elements()),
    )
    rows: list[tuple[int, ...]] = []
    for j in range(s):
        found = None
        for e in range(k**s):
            args = decode_tuple(e, k, s)
            value = evaluate(op, args)
            for _, in_side, own, other in sides:
                if in_side(args[j]) and not in_side(value):
                    c_j = min(set(own) - set(other))
                    found = (args, c_j)
                    break
            if found:
                break
        assert found is not None, "coordinate admits no violation yet failed"
        args, c_j = found
        rows.append(args)
        rows.append((c_j,) * s)
    image = tuple(evaluate(op, row) for row in rows)
    sigma = subset_pair_relation(pair, s, limits=limits)
    for i in range(s):
        column = tuple(row[i] for row in rows)
        if column not in sigma:
            raise GenpowError(
                f"internal error: counterexample column {column} is not "
                "a relation member"
            )
    if image in sigma:
        raise GenpowError(
            "internal error: counterexample image is a relation member"
        )
    return ProjectivityCounterexample(
        op_name=op.name, arity=s, pair=pair, rows=tuple(rows), image=image
    )


def egp_lower_bound(n: int, k: int) -> Fraction:
    """The rational C(2n, n) / 2^k.  Dominates 2^(n-k), with equality
    exactly at n = 1.

    It is not a lower bound on the size of generating sets of A^n for
    EGP algebras: egp_lower_bound(4, 2) = 35/2, yet every algebra with
    k = 2 has A^4 generated by its 16 tuples, the projections_k2 corpus
    member (EGP) with none fewer.  Which power it bounds is open.
    """
    if n < 1 or k < 1:
        raise PreconditionError("need n >= 1 and k >= 1")
    return Fraction(math.comb(2 * n, n), 2**k)


def find_blocker_bounded(
    algebra: Algebra,
    base: Sequence[int],
    n_max: int,
    *,
    limits: Limits = LIMITS,
) -> Optional[tuple[int, ...]]:
    """Greedily grow a candidate blocking subset from `base`.

    C blocks at n when the tuples meeting C somewhere fail to generate
    A^n.  Starting from base, each element in ascending order is added
    if blocking survives at every n <= n_max.  Returns the grown C, or
    None when base itself does not block.  The result is only a
    candidate: a bounded scan cannot certify blocking at all n.
    """
    witness = first_non_idempotent(algebra)
    if witness is not None:
        op, a, v = witness
        raise NotIdempotentError(op.name, op.arity, a, v)
    k = algebra.k
    elements = sorted(set(base))
    if not elements or any(not 0 <= a < k for a in elements):
        raise PreconditionError(
            "base must be a nonempty set of universe elements"
        )
    if len(elements) == k:
        raise PreconditionError("base must be a proper subset of the universe")
    if n_max < 1:
        raise PreconditionError(f"n_max must be >= 1, got {n_max}")
    # The largest power is refused before any closure runs.
    limits.check_space(k, n_max)

    def blocks(candidate: frozenset[int]) -> bool:
        hits = np.zeros(k, dtype=bool)
        hits[list(candidate)] = True
        for n in range(1, n_max + 1):
            seeds = TupleSet.from_mask(
                k, n, lambda digits: hits[digits].any(axis=1), limits=limits
            )
            if is_full(closure(algebra, seeds, limits=limits)):
                return False
        return True

    grown = frozenset(elements)
    if not blocks(grown):
        return None
    for e in range(k):
        if e in grown:
            continue
        attempt = grown | {e}
        if blocks(attempt):
            grown = attempt
    return tuple(sorted(grown))
