"""Slow reference implementations the test suite checks the engine against.

Everything here works on plain python tuples and sets, rescans from
scratch every pass, and shares no code with the package internals.
"""

import itertools
import math
import random

import numpy as np

from genpow import OperationTable


def apply_op(op, column):
    index = 0
    for a in column:
        index = index * op.k + a
    return op.table[index]


def brute_closure(algebra, seeds):
    """Fixed point by full rescan; only usable for tiny powers."""
    current = set(seeds)
    if not algebra.operations or not current:
        return frozenset(current)
    width = len(next(iter(current)))
    changed = True
    while changed:
        changed = False
        snapshot = list(current)
        for op in algebra.operations:
            for args in itertools.product(snapshot, repeat=op.arity):
                image = tuple(
                    apply_op(op, [row[i] for row in args]) for i in range(width)
                )
                if image not in current:
                    current.add(image)
                    changed = True
    return frozenset(current)


def per_pattern_charges(algebra, seeds, old=()):
    """Unbudgeted semi-naive closure of `old | seeds`, `old` already closed,
    with the step-budget charges the per-pattern loop makes on the way.

    Each round runs, for every operation in order, the argument patterns
    1 .. 2**s - 1 in order: bit s-1-i of a pattern takes argument i from the
    round's new tuples, a clear bit from the tuples known before the round.
    Before each pattern the loop stops if the set is the whole space;
    otherwise it charges the pattern's cell count, then inserts its images.
    Returns the closed set and the charges as (steps applied before, cells,
    rounds completed, tuples before).
    """
    current = set(old) | set(seeds)
    if not current:
        return frozenset(), []
    width = len(next(iter(current)))
    space = algebra.k**width
    old = set(old)
    new = current - old
    steps = rounds = 0
    charges = []
    while new:
        old_rows, new_rows = sorted(old), sorted(new)
        produced = set()
        for op in algebra.operations:
            s = op.arity
            for pattern in range(1, 2**s):
                if len(current) == space:
                    return frozenset(current), charges
                groups = [
                    new_rows if (pattern >> (s - 1 - i)) & 1 else old_rows
                    for i in range(s)
                ]
                cells = math.prod(len(group) for group in groups)
                charges.append((steps, cells, rounds, len(current)))
                steps += cells
                for args in itertools.product(*groups):
                    image = tuple(
                        apply_op(op, [row[i] for row in args]) for i in range(width)
                    )
                    if image not in current:
                        current.add(image)
                        produced.add(image)
        rounds += 1
        old |= new
        new = produced
    return frozenset(current), charges


def brute_equal_pair_tuples(k, m):
    out = set()
    for t in itertools.product(range(k), repeat=2 * m):
        if any(t[2 * i] == t[2 * i + 1] for i in range(m)):
            out.add(t)
    return out


def brute_switch_count(t):
    return sum(1 for i in range(len(t) - 1) if t[i] != t[i + 1])


def brute_switch_tuples(k, n, r):
    return {
        t
        for t in itertools.product(range(k), repeat=n)
        if brute_switch_count(t) <= r
    }


def brute_preserves(op, members):
    """Does op map tuples of members back into the member set?"""
    rows = list(members)
    if not rows:
        return True
    width = len(rows[0])
    for args in itertools.product(rows, repeat=op.arity):
        image = tuple(apply_op(op, [row[i] for row in args]) for i in range(width))
        if image not in members:
            return False
    return True


def numpy_preserves(op, member_tuples):
    """Exhaustive preservation check, vectorized over all argument choices.

    Same answer as brute_preserves; usable when the member count raised to
    the operation arity is large for python loops but fine as an array.
    """
    rows = sorted(member_tuples)
    if not rows:
        return True
    k = op.k
    arr = np.array(rows, dtype=np.int64)
    count, width = arr.shape
    index = None
    for pos in range(op.arity):
        shape = [1] * op.arity + [width]
        shape[pos] = count
        d = arr.reshape(shape)
        index = d if index is None else index * k + d
    images = np.asarray(op.table, dtype=np.int64)[index]
    weights = np.power(k, np.arange(width - 1, -1, -1), dtype=np.int64)
    encodings = (images * weights).sum(axis=-1)
    mask = np.zeros(k**width, dtype=bool)
    mask[(arr * weights).sum(axis=1)] = True
    return bool(mask[encodings].all())


def random_idempotent_binary(k, rng, name="f"):
    table = [rng.randrange(k) for _ in range(k * k)]
    for a in range(k):
        table[a * k + a] = a
    return OperationTable(name=name, arity=2, k=k, table=tuple(table))


def random_op(k, arity, seed):
    """A seeded random table with f(0, ..., 0) != 0."""
    rng = random.Random(seed)
    table = [rng.randrange(k) for _ in range(k**arity)]
    table[0] = rng.randrange(1, k)
    return OperationTable(name=f"f{seed}", arity=arity, k=k, table=tuple(table))


def brute_subset_pair_relation(k, alpha, beta, n):
    """Tuples of A^(2n) with some pair (2t, 2t+1) inside alpha or inside beta."""
    alpha, beta = set(alpha), set(beta)

    def rho(x, y):
        return (x in alpha and y in alpha) or (x in beta and y in beta)

    return {
        t
        for t in itertools.product(range(k), repeat=2 * n)
        if any(rho(t[2 * i], t[2 * i + 1]) for i in range(n))
    }


def brute_block_members(k, block_lengths, base_members):
    """Tuples c of A^m whose block expansion (c_i repeated block_lengths[i]
    times) lies in base_members."""
    out = set()
    for c in itertools.product(range(k), repeat=len(block_lengths)):
        wide = tuple(a for a, width in zip(c, block_lengths) for _ in range(width))
        if wide in base_members:
            out.add(c)
    return out


def brute_fewest_switch_outsider(k, n, members):
    """Non-member of A^n with the fewest switches; ties go to the
    lexicographically least, which is the least encoding."""
    best = None
    for t in itertools.product(range(k), repeat=n):
        if t in members:
            continue
        if best is None or brute_switch_count(t) < brute_switch_count(best):
            best = t
    return best


def brute_collapse_runs(t):
    """(run lengths, run values) of a tuple."""
    lengths, values = [], []
    for a in t:
        if values and values[-1] == a:
            lengths[-1] += 1
        else:
            lengths.append(1)
            values.append(a)
    return tuple(lengths), tuple(values)


def brute_evenize(k, members, excluded):
    """Odd-arity merge: the least even positions p < q with equal excluded
    values; position p of the input reads variable q - 1 of the result."""
    m = len(excluded)
    p, q = next(
        (p, q)
        for p in range(0, m, 2)
        for q in range(p + 2, m, 2)
        if excluded[p] == excluded[q]
    )
    out = set()
    for y in itertools.product(range(k), repeat=m - 1):
        if y[:p] + (y[q - 1],) + y[p:] in members:
            out.add(y)
    return out, excluded[:p] + excluded[p + 1 :]


def brute_cross_equality(k, n, members, excluded):
    """Relation over (x_1..x_n, y_1..y_n, z_0..z_{k-1}) and its excluded
    tuple, rebuilt from the most frequent (least on ties) adjacent pair of
    the excluded tuple."""
    m = len(excluded)
    pairs = [(excluded[2 * t], excluded[2 * t + 1]) for t in range(m // 2)]
    counts = {pr: pairs.count(pr) for pr in pairs}
    top = max(counts.values())
    a, b = min(pr for pr in counts if counts[pr] == top)
    variable = [2 * n + u for u in excluded]
    hits = [t for t, pr in enumerate(pairs) if pr == (a, b)]
    for seen, t in enumerate(hits):
        i, j = divmod(seen, n) if seen < n * n else (0, 0)
        variable[2 * t], variable[2 * t + 1] = i, n + j
    relation = {
        v
        for v in itertools.product(range(k), repeat=2 * n + k)
        if tuple(v[x] for x in variable) in members
    }
    return relation, (a,) * n + (b,) * n + tuple(range(k))
