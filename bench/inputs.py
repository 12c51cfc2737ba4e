"""Seeded algebra generator and the reference facts the checker uses.

Nothing here imports genpow: the projectivity scan, the closed-form
counts and the brute-force generating-set search are written again from
the definitions, so a defect in the package cannot hide in its own
oracle.  Tables are flat, row-major, first argument most significant,
as in the package's file format.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional

from workloads import Generated, Workload


@dataclass(frozen=True)
class Drawn:
    """One generated algebra with a single operation named `f`."""

    name: str
    kind: str
    k: int
    arity: int
    table: tuple[int, ...]
    # Planted covering pair (alpha, beta) as bitmasks, for kind "planted".
    pair: Optional[tuple[int, int]] = None
    redraws: int = 0

    def document(self) -> str:
        doc = {
            "size": self.k,
            "operations": [{"name": "f", "arity": self.arity, "table": list(self.table)}],
        }
        return json.dumps(doc, indent=2) + "\n"


def digits(index: int, k: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        index, d = divmod(index, k)
        out.append(d)
    return tuple(reversed(out))


@lru_cache(maxsize=None)
def _rows(k: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """Argument tuples in table order."""
    return tuple(digits(i, k, arity) for i in range(k**arity))


def covering_pairs(k: int):
    """Covering pairs of proper nonempty subsets, smaller mask first, ascending."""
    full = (1 << k) - 1
    for a in range(1, full):
        for b in range(a + 1, full):
            if a | b == full:
                yield a, b


def projective_at(k: int, arity: int, table, pair: tuple[int, int]) -> Optional[int]:
    """Least 1-based coordinate j with x_j in S forcing f(x) in S, for S = alpha, beta."""
    for j in range(arity):
        if all(
            not (mask >> x[j] & 1) or (mask >> value & 1)
            for x, value in zip(_rows(k, arity), table)
            for mask in pair
        ):
            return j + 1
    return None


def first_projective_pair(k: int, arity: int, table) -> tuple[Optional[tuple[int, int]], int]:
    """(first pair the operation is projective for, pairs scanned)."""
    scanned = 0
    for pair in covering_pairs(k):
        scanned += 1
        if projective_at(k, arity, table, pair) is not None:
            return pair, scanned
    return None, scanned


def _random_idempotent(rng: random.Random, k: int, arity: int) -> list[int]:
    table = []
    for x in _rows(k, arity):
        table.append(x[0] if len(set(x)) == 1 else rng.randrange(k))
    return table


def _planted(rng: random.Random, k: int, arity: int) -> tuple[list[int], tuple[int, int]]:
    full = (1 << k) - 1
    while True:
        a, b = sorted((rng.randrange(1, full), rng.randrange(1, full)))
        if a != b and a | b == full:
            break
    j = rng.randrange(arity)
    table = []
    for x in _rows(k, arity):
        if len(set(x)) == 1:
            table.append(x[0])
            continue
        allowed = [
            v for v in range(k) if all(not (m >> x[j] & 1) or (m >> v & 1) for m in (a, b))
        ]
        table.append(rng.choice(allowed))
    return table, (a, b)


def draw(seed: int, name: str, spec: Generated) -> Drawn:
    """Deterministic for (seed, name): the same seed gives the same table."""
    rng = random.Random(f"genpow-bench:{seed}:{name}")
    k, s = spec.k, spec.arity
    if spec.kind == "planted":
        table, pair = _planted(rng, k, s)
        return Drawn(name, spec.kind, k, s, tuple(table), pair=pair)
    table = _random_idempotent(rng, k, s)
    redraws = 0
    if spec.kind == "pgp":
        while first_projective_pair(k, s, table)[0] is not None:
            table = _random_idempotent(rng, k, s)
            redraws += 1
    elif spec.kind != "random":
        raise ValueError(f"unknown kind {spec.kind!r}")
    return Drawn(name, spec.kind, k, s, tuple(table), redraws=redraws)


def generate(workload: Workload, seed: int, directory: Path) -> dict[str, tuple[Drawn, Path]]:
    """Draw the workload's algebras and write them as algebra files."""
    out = {}
    for name, spec in sorted(workload.generated.items()):
        algebra = draw(seed, name, spec)
        path = directory / f"{name}.json"
        path.write_text(algebra.document(), encoding="utf-8")
        out[name] = (algebra, path)
    return out


# -- reference facts -----------------------------------------------------


def equal_pair_count(k: int, m: int) -> int:
    """Tuples of A^(2m) with some designated pair (2i, 2i+1) equal."""
    return k ** (2 * m) - (k * k - k) ** m


def switch_count(k: int, n: int, r: int) -> int:
    """Tuples of A^n with at most r adjacent unequal positions."""
    return sum(math.comb(n - 1, i) * k * (k - 1) ** i for i in range(min(r, n - 1) + 1))


def rho_size(k: int, pair: tuple[int, int]) -> int:
    """|alpha^2 u beta^2| for a pair given as bitmasks."""
    a, b = (bin(m).count("1") for m in pair)
    both = bin(pair[0] & pair[1]).count("1")
    return a * a + b * b - both * both


def _fmt(mask: int) -> str:
    return "{" + ", ".join(str(i) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def validate_text(algebra: Drawn) -> str:
    return (
        f"size: {algebra.k}\noperations: 1\n  f: arity {algebra.arity}\nidempotent: yes\n"
    )


def decide_text(algebra: Drawn) -> str:
    pair, scanned = first_projective_pair(algebra.k, algebra.arity, algebra.table)
    if pair is None:
        return f"verdict: PGP\npairs checked: {scanned}\n"
    j = projective_at(algebra.k, algebra.arity, algebra.table, pair)
    return (
        f"verdict: EGP\nalpha: {_fmt(pair[0])}\nbeta: {_fmt(pair[1])}\n"
        f"projective coordinate for f: {j}\n"
    )


def _closure(k: int, arity: int, table, members: set) -> set:
    current = set(members)
    while True:
        images = {
            tuple(table[sum(a * k ** (arity - 1 - p) for p, a in enumerate(col))]
                  for col in zip(*args))
            for args in itertools.product(current, repeat=arity)
        }
        if images <= current:
            return current
        current |= images


def growth_text(algebra: Drawn, n_max: int) -> str:
    """Exact minimum generating-set sizes of A^1..A^n_max by brute force.

    Only for spaces of a few tuples, where the package's exact search
    also answers; rows are "n,size,exact".
    """
    rows = ["n,size,mode"]
    for n in range(1, n_max + 1):
        space = list(itertools.product(range(algebra.k), repeat=n))
        size = next(
            size
            for size in range(1, len(space) + 1)
            if any(
                len(_closure(algebra.k, algebra.arity, algebra.table, set(c))) == len(space)
                for c in itertools.combinations(space, size)
            )
        )
        rows.append(f"{n},{size},exact")
    return "\n".join(rows) + "\n"
