#!/usr/bin/env python3
"""Survey a batch of algebra files and print one dichotomy report each.

For idempotent algebras the exact verdict is printed; every algebra also
gets the bounded verification checks (equal-pair generation over a small
m range, switchability probes) so the two routes can be eyeballed against
each other.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from genpow import (
    BudgetExceededError,
    NotIdempotentError,
    decide_egp_idempotent,
    equal_pair_evidence,
    is_r_switchable_at,
    load_algebra,
)


def report(path: Path, m_extra: int, n_max: int) -> None:
    algebra = load_algebra(path)
    k = algebra.k
    ops = ", ".join(f"{op.name}/{op.arity}" for op in algebra.operations) or "none"
    print(f"== {path.name}: k={k}, operations: {ops}")
    try:
        decision = decide_egp_idempotent(algebra)
        for line in decision.render():
            print(f"   {line}")
    except (NotIdempotentError, BudgetExceededError) as exc:
        print(f"   decide skipped: {exc}")
    for m in range(max(1, k), k + m_extra + 1):
        try:
            ev = equal_pair_evidence(algebra, m)
        except BudgetExceededError as exc:
            print(f"   equal-pair m={m}: skipped ({exc})")
            break
        print(
            f"   equal-pair m={m}: {ev.closure_count}/{ev.space}"
            f" {'full' if ev.full else 'not full'}"
        )
    for n in range(2, n_max + 1):
        # More switches give more seeds, so the first r that works is the least.
        least = next((r for r in range(n) if is_r_switchable_at(algebra, r, n)), "-")
        print(f"   least r with switchability at n={n}: {least}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="algebra files (default: algebras/*.json next to the repo root)",
    )
    parser.add_argument("--m-extra", type=int, default=2, help="extra m steps past k")
    parser.add_argument("--n-max", type=int, default=4, help="largest power probed")
    args = parser.parse_args()
    files = args.files
    if not files:
        root = Path(__file__).resolve().parent.parent / "algebras"
        files = sorted(root.glob("*.json"))
    if not files:
        print("no algebra files found", file=sys.stderr)
        return 1
    for path in files:
        report(path, args.m_extra, args.n_max)
    return 0


if __name__ == "__main__":
    sys.exit(main())
