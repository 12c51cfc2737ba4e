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


def pair_group(m):
    """Every permutation of the 2m coordinates of A^(2m) that permutes the
    designated pairs (2j, 2j+1) and swaps coordinates inside them, as the
    tuple of source coordinates: 2**m * m! of them."""
    return [
        tuple(c for j, flip in zip(order, flips) for c in (2 * j + flip, 2 * j + 1 - flip))
        for order in itertools.permutations(range(m))
        for flips in itertools.product((0, 1), repeat=m)
    ]


def pair_orbit(t, group):
    """The images of a tuple under every permutation of the group."""
    return {tuple(t[c] for c in g) for g in group}


def is_symmetric(op):
    """Does op ignore the order of its arguments?  Checked on every
    argument tuple under every permutation of it."""
    return all(
        apply_op(op, perm) == apply_op(op, args)
        for args in itertools.product(range(op.k), repeat=op.arity)
        for perm in itertools.permutations(args)
    )


def is_associative(op):
    """Is op binary with (x*y)*z = x*(y*z)?  Checked on every triple."""
    if op.arity != 2:
        return False

    def mul(x, y):
        return apply_op(op, (x, y))

    return all(
        mul(mul(x, y), z) == mul(x, mul(y, z))
        for x, y, z in itertools.product(range(op.k), repeat=3)
    )


def per_grid_charges(algebra, seeds, old=(), stop=None, batch=1 << 16):
    """Unbudgeted semi-naive closure of `old | seeds`, `old` already closed,
    with the step-budget charges the engine's rounds make on the way.

    Each round runs, for every operation in order, grids i = s-1 down to
    0: grid i takes arguments 0 .. i-1 from the tuples known before the
    round, argument i from the round's new tuples and the later ones from
    both.  While nothing was known before, only grid 0 runs.  A grid is
    charged as its grid_runs of `batch` cells, the engine's 2**16 unless
    a test shrinks both.  Before each charge the loop
    stops if the set holds `stop` tuples (the whole space by default);
    otherwise it charges the cell count, then inserts those cells' images.
    Returns the set and the charges as (steps applied before, cells,
    rounds completed, tuples before).

    An operation that is_symmetric runs one grid per run instead: the
    sequence of the known tuples followed by the new ones, each part
    ascending, is cut after every R = max(1, batch // len**(s-1)) new
    tuples; a run's new tuples are argument 0, and the others range over
    the sequence up to the end of the run.

    A closure from scratch (`old` empty) by an algebra with operations
    may pick a group of coordinate permutations: pair_group(m) when the
    width is 2m and every permutation of it maps the seeds into
    themselves; else the reversal when the width is above 2, reversing
    every seed gives a seed, and some operation is not is_symmetric or the
    algebra's one operation is_associative.  It then draws argument i only
    from the least tuple of each orbit among the round's new tuples, and
    inserts every image with its whole orbit.  Under the pair group a
    symmetric operation runs grid 0 alone, over those least tuples; under
    the reversal it keeps its runs over all the new tuples.

    When the algebra has one operation and it is_associative, every round
    after the first runs one grid instead: argument 0 from the tuples
    known when the first round started, ascending, and argument 1 from
    the round's new tuples (their orbit representatives, as above).
    """
    current = set(old) | set(seeds)
    if not current:
        return frozenset(), []
    width = len(next(iter(current)))
    if stop is None:
        stop = algebra.k**width
    symmetric = [is_symmetric(op) for op in algebra.operations]
    semigroup = len(algebra.operations) == 1 and is_associative(algebra.operations[0])
    identity = tuple(range(width))
    pairs = pair_group(width // 2) if width % 2 == 0 else []
    reversal = [identity, identity[::-1]]
    group, runs = [identity], True
    if not old and algebra.operations:
        if pairs and all(pair_orbit(t, pairs) <= current for t in current):
            group, runs = pairs, False
        elif (
            width > 2
            and (not all(symmetric) or semigroup)
            and all(pair_orbit(t, reversal) <= current for t in current)
        ):
            group = reversal
    generators = sorted(current)
    old = set(old)
    new = current - old
    steps = rounds = 0
    charges = []
    while new:
        new_rows = sorted({min(pair_orbit(t, group)) for t in new})
        old_rows, union_rows, all_new = sorted(old), sorted(old | new), sorted(new)
        sequence = old_rows + all_new
        produced = set()
        for op, whole in zip(algebra.operations, symmetric):
            s = op.arity
            if semigroup and rounds:
                grids = [[generators, new_rows]]
            elif not whole:
                grids = [
                    [old_rows] * i + [new_rows] + [union_rows] * (s - 1 - i)
                    for i in reversed(range(s if old else 1))
                ]
            elif not runs:
                grids = [[new_rows] + [union_rows] * (s - 1)]
            else:
                per = max(1, batch // len(sequence) ** (s - 1))
                grids = [
                    [all_new[a : a + per]] + [sequence[: len(old_rows) + a + per]] * (s - 1)
                    for a in range(0, len(all_new), per)
                ]
            for groups in grids:
                combos = itertools.product(*groups)
                for cells in grid_runs([len(group) for group in groups], batch):
                    if len(current) == stop:
                        return frozenset(current), charges
                    charges.append((steps, cells, rounds, len(current)))
                    steps += cells
                    for args in itertools.islice(combos, cells):
                        image = tuple(
                            apply_op(op, [row[c] for row in args]) for c in range(width)
                        )
                        if image not in current:
                            orbit = pair_orbit(image, group)
                            current |= orbit
                            produced |= orbit
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


def brute_roots_for_every_choice(algebra):
    """The certificate of a PGP verdict: for each choice of one coordinate
    j per operation (itertools.product order), the least root r whose
    forward closure under the edges args[j] -> f(args), read off the
    tables, is all of A.  None when some choice has no such root, that is
    when a covering pair makes every operation projective."""
    k = algebra.k
    roots = []
    for choice in itertools.product(*(range(op.arity) for op in algebra.operations)):
        edges = {x: set() for x in range(k)}
        for op, j in zip(algebra.operations, choice):
            for args, value in zip(itertools.product(range(k), repeat=op.arity), op.table):
                edges[args[j]].add(value)
        for r in range(k):
            seen, todo = {r}, [r]
            while todo:
                for y in edges[todo.pop()] - seen:
                    seen.add(y)
                    todo.append(y)
            if len(seen) == k:
                roots.append(r)
                break
        else:
            return None
    return roots


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


def random_symmetric_op(k, arity, rng, name="f"):
    """A random table drawn on sorted argument tuples: every reordering of
    an argument tuple takes the value drawn for the sorted one."""
    drawn = {}
    table = []
    for args in itertools.product(range(k), repeat=arity):
        key = tuple(sorted(args))
        if key not in drawn:
            drawn[key] = rng.randrange(k)
        table.append(drawn[key])
    return OperationTable(name=name, arity=arity, k=k, table=tuple(table))


def random_nu_op(k, arity, rng, name="f"):
    """A random near-unanimity table of arity >= 3: f(y, x, ..., x) = ...
    = f(x, ..., x, y) = x, and so f(x, ..., x) = x; the other entries are
    drawn."""
    table = []
    for args in itertools.product(range(k), repeat=arity):
        majority = [a for a in set(args) if args.count(a) >= arity - 1]
        table.append(majority[0] if majority else rng.randrange(k))
    return OperationTable(name=name, arity=arity, k=k, table=tuple(table))


def random_maltsev_op(k, rng, name="p"):
    """A random ternary Mal'tsev table: p(x, y, y) = x = p(y, y, x), and
    so p(x, x, x) = x; the other entries are drawn."""
    table = []
    for x, y, z in itertools.product(range(k), repeat=3):
        if y == z:
            table.append(x)
        elif x == y:
            table.append(z)
        else:
            table.append(rng.randrange(k))
    return OperationTable(name=name, arity=3, k=k, table=tuple(table))


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


def brute_blocks(encoding, k, b, n):
    """The ceil(n/b) base-k**b blocks of an encoding of A^n, most
    significant first, by repeated divmod."""
    blocks = []
    for _ in range(-(-n // b)):
        encoding, block = divmod(encoding, k**b)
        blocks.append(block)
    return blocks[::-1]


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


def brute_forced_tuples(algebra, n):
    """The forced tuples of A^n: those x that no application of an
    operation to argument tuples of A^n, every one of them different from
    x, yields.  Every application is evaluated once, vectorized like
    numpy_preserves; (k**n)**arity * n cells per operation."""
    k, space = algebra.k, algebra.k**n
    weights = np.power(k, np.arange(n - 1, -1, -1), dtype=np.int64)
    digits = np.arange(space, dtype=np.int64)[:, None] // weights % k
    made = np.zeros(space, dtype=bool)
    for op in algebra.operations:
        index, arguments = 0, []
        for pos in range(op.arity):
            shape = [1] * op.arity
            shape[pos] = space
            index = index * k + digits.reshape(shape + [n])
            arguments.append(np.arange(space).reshape(shape))
        images = np.asarray(op.table, dtype=np.int64)[index] @ weights
        made[images[np.logical_and.reduce([images != a for a in arguments])]] = True
    return {tuple(int(a) for a in digits[x]) for x in np.flatnonzero(~made)}


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
        found = extend([], TupleSet(algebra.k, n), target)
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
