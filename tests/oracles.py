"""Slow reference implementations the test suite checks the engine against.

Everything here works on plain python tuples and sets, rescans from
scratch every pass, and shares no code with the package internals.
"""

import itertools
import math
import random

import numpy as np

from genpow import OperationTable, TupleSet, closure_extend, is_full


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


def grid_runs(sizes, batch):
    """Cell counts of the runs a row-major grid with these axis sizes is
    cut into when no run may exceed `batch` cells: runs of whole rows of
    the first axis, or, when one such row alone is larger, each of its
    rows cut the same way in turn."""
    first, rest = sizes[0], sizes[1:]
    tail = math.prod(rest)
    if first == 0 or tail == 0:
        return []
    if tail > batch:
        return grid_runs(rest, batch) * first
    per = max(1, batch // tail)
    return [min(per, first - start) * tail for start in range(0, first, per)]


def per_pattern_charges(algebra, seeds, old=(), stop=None, batch=None):
    """Unbudgeted semi-naive closure of `old | seeds`, `old` already closed,
    with the step-budget charges the per-pattern loop makes on the way.

    Each round runs, for every operation in order, the argument patterns
    1 .. 2**s - 1 in order: bit s-1-i of a pattern takes argument i from the
    round's new tuples, a clear bit from the tuples known before the round.
    A pattern is one charge, or with `batch` the grid_runs of its grid.
    Before each charge the loop stops if the set holds `stop` tuples (the
    whole space by default); otherwise it charges the cell count, then
    inserts those cells' images.  Returns the set and the charges as
    (steps applied before, cells, rounds completed, tuples before).
    """
    current = set(old) | set(seeds)
    if not current:
        return frozenset(), []
    width = len(next(iter(current)))
    if stop is None:
        stop = algebra.k**width
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
                groups = [
                    new_rows if (pattern >> (s - 1 - i)) & 1 else old_rows
                    for i in range(s)
                ]
                sizes = [len(group) for group in groups]
                runs = [math.prod(sizes)] if batch is None else grid_runs(sizes, batch)
                combos = itertools.product(*groups)
                for cells in runs:
                    if len(current) == stop:
                        return frozenset(current), charges
                    charges.append((steps, cells, rounds, len(current)))
                    steps += cells
                    for args in itertools.islice(combos, cells):
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


def brute_projective_coordinate(op, alpha, beta):
    """Least 1-based coordinate j such that, on every argument tuple, the
    j-th argument in alpha puts the value in alpha and the j-th argument
    in beta puts it in beta; None when no coordinate does.  alpha and beta
    are sets of elements."""
    candidates = list(range(op.arity))
    for index, args in enumerate(itertools.product(range(op.k), repeat=op.arity)):
        value = op.table[index]
        candidates = [
            j
            for j in candidates
            if (value in alpha or args[j] not in alpha)
            and (value in beta or args[j] not in beta)
        ]
        if not candidates:
            return None
    return candidates[0] + 1


def brute_covering_pairs(k):
    """(alpha, beta) bitmasks of the covering pairs of proper subsets,
    alpha < beta, ascending."""
    full = (1 << k) - 1
    return [(a, b) for a in range(1, full) for b in range(a + 1, full) if a | b == full]


def elements(mask, k):
    return {x for x in range(k) if mask >> x & 1}


def brute_first_projective_pair(algebra):
    """(alpha, beta, coordinates, pairs scanned) for the first covering
    pair every operation is projective for, coordinates as (name, j);
    (None, None, (), number of pairs) when there is none."""
    pairs = brute_covering_pairs(algebra.k)
    for scanned, (a, b) in enumerate(pairs, start=1):
        alpha, beta = elements(a, algebra.k), elements(b, algebra.k)
        coords = [
            (op.name, brute_projective_coordinate(op, alpha, beta))
            for op in algebra.operations
        ]
        if all(j is not None for _, j in coords):
            return a, b, tuple(coords), scanned
    return None, None, (), len(pairs)


def random_table_op(k, arity, rng, idempotent, name="f"):
    """A random table, forced to be idempotent or forced not to be."""
    table = [rng.randrange(k) for _ in range(k**arity)]
    diagonal = [sum(a * k**p for p in range(arity)) for a in range(k)]
    for a, index in enumerate(diagonal):
        table[index] = a
    if not idempotent:
        a = rng.randrange(k)
        table[diagonal[a]] = rng.choice([v for v in range(k) if v != a])
    return OperationTable(name=name, arity=arity, k=k, table=tuple(table))


def planted_op(k, arity, alpha, beta, j, rng, idempotent=False, name="f"):
    """A random table projective at 1-based coordinate j for the pair of
    element sets: each value is drawn from the sides its j-th argument lies
    in, or is a on the diagonal (a, ..., a) when idempotent."""
    table = []
    for args in itertools.product(range(k), repeat=arity):
        if idempotent and len(set(args)) == 1:
            table.append(args[0])
            continue
        allowed = [
            v
            for v in range(k)
            if (v in alpha or args[j - 1] not in alpha)
            and (v in beta or args[j - 1] not in beta)
        ]
        table.append(rng.choice(allowed))
    return OperationTable(name=name, arity=arity, k=k, table=tuple(table))


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


def numpy_closure(algebra, members):
    """Fixed point by full rescan like brute_closure, vectorized over all
    argument choices like numpy_preserves; returns encodings, first
    coordinate most significant.  Needs count**arity * width cells."""
    k = algebra.k
    rows = np.array(sorted(members), dtype=np.int64)
    width = rows.shape[1]
    weights = np.power(k, np.arange(width - 1, -1, -1), dtype=np.int64)
    current = np.unique(rows @ weights)
    while True:
        digits = (current[:, None] // weights) % k
        images = [current]
        for op in algebra.operations:
            index = 0
            for pos in range(op.arity):
                shape = [1] * op.arity + [width]
                shape[pos] = len(digits)
                index = index * k + digits.reshape(shape)
            images.append(np.asarray(op.table, dtype=np.int64)[index].reshape(-1, width) @ weights)
        grown = np.unique(np.concatenate(images))
        if grown.size == current.size:
            return current
        current = grown


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


def brute_counterexample(op, alpha, beta, sigma):
    """The counterexample matrix of an idempotent op for the element sets
    alpha and beta, by one full scan of A^s per coordinate j: the least
    argument tuple whose j-th argument lies in alpha (tested first) or beta
    while its value does not, then the constant row of the least element
    of that side outside the other.  sigma is
    brute_subset_pair_relation(k, alpha, beta, s).

    Returns (rows, image, columns in sigma, image in sigma), or the least
    1-based coordinate with no failing tuple."""
    k, s = op.k, op.arity
    alpha, beta = set(alpha), set(beta)
    tuples = list(itertools.product(range(k), repeat=s))
    value = dict(zip(tuples, op.table))
    rows = []
    for j in range(s):
        failure = None
        for args in tuples:
            for own, other in ((alpha, beta), (beta, alpha)):
                if failure is None and args[j] in own and value[args] not in own:
                    failure = args, min(own - other)
        if failure is None:
            return j + 1
        rows += [failure[0], (failure[1],) * s]
    image = tuple(value[row] for row in rows)
    columns = [tuple(row[i] for row in rows) for i in range(s)]
    return rows, image, all(c in sigma for c in columns), image in sigma


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


def reference_exact_minimum(algebra, n, limits):
    """The exact search without a memo: iterative deepening over ascending
    encodings, one closure_extend call per node.  Returns the least minimum
    generating set's encodings with the number of nodes visited, or raises
    the package's node or step refusal at the same node.

    It drives the package's public closure_extend, TupleSet and Limits, so
    it checks the search around them, not the closure engine.
    """
    space = algebra.k**n
    nodes = 0

    def extend(chosen, closed, target):
        nonlocal nodes
        if is_full(closed):
            return chosen
        if len(chosen) == target:
            return None
        start = chosen[-1] + 1 if chosen else 0
        for e in range(start, space):
            if closed.has_encoding(e):
                continue
            nodes += 1
            limits.check_nodes(nodes, space)
            grown = closure_extend(algebra, closed, [e], limits=limits)
            found = extend(chosen + [e], grown, target)
            if found is not None:
                return found
        return None

    for target in range(1, space + 1):
        found = extend([], TupleSet(algebra.k, n, limits=limits), target)
        if found is not None:
            return tuple(found), nodes
    raise AssertionError("the full space generates itself")


def majority3_growth(n):
    """The least m with C(m - 1, ceil(m / 2)) >= n.  By Baker-Pixley a set
    generates A^n under the majority operation iff every pair of
    coordinates shows all four value pairs, so the minimum is the least
    number of rows of a binary covering array of strength 2 with n
    columns (Kleitman-Spencer)."""
    m = 1
    while math.comb(m - 1, -(-m // 2)) < n:
        m += 1
    return m


# Minimum generating-set sizes of A^n for the corpus, in closed form.
# - xor3 closes a set to its affine span over GF(2), which needs n + 1
#   points to be everything.
# - min2 closes a set under meets: the all-ones tuple and the n tuples
#   with one zero are produced by no meet of other tuples, and they give
#   every tuple.
# - egp3's f(x, y) lies in {0, 2} only for x = y = 0 or x = 2, so a tuple
#   of {0, 2}^n is produced only with itself as first argument; one step
#   of f on two such tuples gives every tuple (f(0, 2) = 1), so those 2^n
#   tuples are the minimum.
# - projections_k2 has no operations, so every tuple is needed.
# - non_idempotent's constant binary operation only adds the all-zero
#   tuple, so every other tuple is needed.
CLOSED_FORM_GROWTH = {
    "xor3": lambda n: n + 1,
    "min2": lambda n: n + 1,
    "egp3": lambda n: 2**n,
    "projections_k2": lambda n: 2**n,
    "non_idempotent": lambda n: 2**n - 1,
    "majority3": majority3_growth,
}


def gf2_affine_rank(vectors):
    """Dimension of the affine span of 0/1 vectors over GF(2), by Gaussian
    elimination on the differences from the first vector."""
    base = vectors[0]
    rows = [int("".join(str(a ^ b) for a, b in zip(v, base)), 2) for v in vectors[1:]]
    rank = 0
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        if pivot == 0:
            continue
        rank += 1
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if r >> top & 1 else r for r in rows]
    return rank
