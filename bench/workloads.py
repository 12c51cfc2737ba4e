"""The benchmark's workloads: fixed corpus queries plus seeded algebras.

Every query is a `genpow` command line.  A path written `@name` stands for
an algebra file the benchmark generates from the run's seed (see
inputs.py); every other path is a corpus file under `algebras/`.  Queries
are sized so that one pass over a workload takes about 2-8 s on a 2-CPU
x86-64 box, which leaves three to twelve passes in a 30-s run.

Which layer each workload is meant to move, and on which workload a
planned optimisation is predicted to change nothing, is written next to
each workload.  Layers are the package modules; tracing.py wraps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Generated:
    """An algebra the benchmark draws from the seed.

    kind is "pgp" (random idempotent, redrawn until it is PGP by the
    benchmark's own projectivity scan), "planted" (random idempotent
    table projective at one coordinate for a random covering pair, so
    EGP) or "random" (random idempotent, taken as drawn).
    """

    kind: str
    k: int
    arity: int


@dataclass(frozen=True)
class Workload:
    """Queries of one workload.  Its name and `why` are in BENCHMARK.json;
    a self-test checks that the names there and here agree."""

    queries: tuple[tuple[str, ...], ...]
    generated: dict[str, Generated] = field(default_factory=dict)
    # Run once per run outside the timed passes; see run.py.
    probe: tuple[str, ...] | None = None


# `switchable xor3 --r 1 --n 8` reaches the full power after 262,144 of
# the 16,777,216 combination steps the engine spends at the seed commit.
# A budget between the two is enough for an engine that stops at the
# answer; today's engine runs past it and exits 4.
BUDGET_EDGE_STEPS = 1_000_000

WORKLOADS: dict[str, Workload] = {
    # Every closure becomes the full power long before the engine stops,
    # so stopping at the answer shows here.  Moves: closure.s, wall_s.
    "saturating": Workload(
        queries=(
            ("d-check", "algebras/xor3.json", "--m", "4"),
            ("d-check", "algebras/majority3.json", "--m", "4"),
            ("switchable", "algebras/xor3.json", "--r", "1", "--n", "8"),
            ("d-check", "algebras/min2.json", "--m", "5"),
            ("d-check", "@pgp3", "--m", "3"),
        ),
        generated={"pgp3": Generated("pgp", 3, 2)},
        probe=(
            "switchable", "algebras/xor3.json", "--r", "1", "--n", "8",
            "--closure-budget", str(BUDGET_EDGE_STEPS),
        ),
    ),
    # Closures that stay proper subpowers: early exit is bypassed and its
    # predicted change here is zero; symmetry-reduced rounds and grid work
    # show here.  The min2 query uses the sparse backend (k^n > 2^26).
    "proper": Workload(
        queries=(
            ("d-check", "algebras/egp3.json", "--m", "4"),
            ("d-check", "@planted3", "--m", "3"),
            ("witness", "nice", "algebras/egp3.json", "--r", "2", "--n", "7"),
            ("switchable", "algebras/min2.json", "--r", "1", "--n", "50"),
        ),
        generated={"planted3": Generated("planted", 3, 2)},
    ),
    # Thousands of closure_extend calls on spaces of at most 81 tuples;
    # Python per-call overhead dominates.  The egp3 n = 3 row exceeds the
    # 20,000-node budget and falls back to greedy.  Grid-kernel changes
    # are predicted not to move this workload.
    "search": Workload(
        queries=(
            ("growth", "algebras/egp3.json", "--n-max", "3"),
            ("growth", "algebras/min2.json", "--n-max", "4"),
            ("growth", "algebras/majority3.json", "--n-max", "3"),
            ("growth", "@pgp2t", "--n-max", "3"),
        ),
        generated={"pgp2t": Generated("pgp", 2, 3)},
    ),
    # Closure is the identity or tiny: the time goes to seed builders,
    # per-tuple scans over 2^15 spaces, parsing, the decide scan and
    # output.  Closure changes are predicted not to move it.
    "scan": Workload(
        queries=(
            ("witness", "nice", "algebras/projections_k2.json", "--r", "13", "--n", "15"),
            ("witness", "sigma", "algebras/projections_k2.json", "--r", "13", "--n", "15",
             "--target", "1"),
            ("dump", "switch", "algebras/projections_k2.json", "--r", "14", "--n", "15"),
            ("dump", "sigma", "algebras/egp3.json", "--alpha", "0,1", "--beta", "1,2",
             "--n", "5"),
            ("witness", "blocker", "algebras/egp3.json", "--base", "0", "--n-max", "6"),
        )
        + tuple(
            (command, f"@rand{k}") for k in range(3, 10) for command in ("validate", "decide")
        ),
        generated={f"rand{k}": Generated("random", k, 2) for k in range(3, 10)},
    ),
}


def label(argv: tuple[str, ...]) -> str:
    """The query as it is shown and keyed in expected.json."""
    return " ".join(argv)


def resolve(argv: tuple[str, ...], root, generated: dict[str, str]) -> list[str]:
    """argv with corpus paths made absolute and `@name` replaced by its file."""
    return [
        generated.get(a, str(root / a) if a.startswith("algebras/") else a) for a in argv
    ]


def files(workload: Workload) -> list[str]:
    """Corpus files and generated placeholders the workload reads, in order."""
    seen: list[str] = []
    for argv in workload.queries:
        for arg in argv:
            if (arg.startswith("@") or arg.startswith("algebras/")) and arg not in seen:
                seen.append(arg)
    return seen
