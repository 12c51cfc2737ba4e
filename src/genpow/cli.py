"""Command-line front-end.

One algebra file in, one report out.  Subcommands mirror the library:
validate, decide, d-check, switchable, growth, witness, dump.  Exit codes:
0 success, 1 usage error, 2 invalid algebra file, 3 precondition violated,
4 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .algebra import Algebra, first_non_idempotent, load_algebra
from .criteria import (
    SubsetPair,
    _format_subset,
    decide_egp_idempotent,
    equal_pair_evidence,
    growth_profile,
    switch_generation_evidence,
    switch_tuples,
)
from .errors import (
    AlgebraFileError,
    BudgetExceededError,
    GenpowError,
    PreconditionError,
)
from .subpower import LIMITS, Limits, closure, equal_pair_tuples
from .witnesses import (
    cross_equality_witness,
    find_blocker_bounded,
    nice_relation_from_nonswitchability,
    projectivity_counterexample,
    subset_pair_relation,
    verify_nice,
)

# bench/tracing.py times the witness layer by rebinding verify_nice on this
# module, so the name stays bound here although no handler calls it.
__all__ = ["UsageError", "build_parser", "main", "verify_nice"]


class UsageError(GenpowError):
    """Bad command line; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _element_list(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if not parts:
        raise argparse.ArgumentTypeError("expected at least one element")
    return parts


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="genpow",
        description=(
            "Classify finite algebras by the growth of generating sets "
            "of their finite powers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    budgets = _Parser(add_help=False)
    budgets.add_argument(
        "--closure-budget",
        dest="steps",
        type=_budget,
        default=LIMITS.steps,
        metavar="STEPS",
        help="abort closures after this many combination applications",
    )
    budgets.add_argument(
        "--exact-budget",
        dest="exact",
        type=_budget,
        default=LIMITS.exact,
        metavar="SIZE",
        help="largest k**n the exact minimum-size search accepts",
    )

    p = sub.add_parser("validate", help="parse a file and report its shape")
    p.add_argument("file")

    p = sub.add_parser("decide", help="exact growth dichotomy (idempotent only)")
    p.add_argument("file")

    p = sub.add_parser(
        "d-check",
        parents=[budgets],
        help="close the designated-equal-pair tuples of A^(2m)",
    )
    p.add_argument("file")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser(
        "switchable",
        parents=[budgets],
        help="close the at-most-r-switch tuples of A^n",
    )
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser(
        "growth", parents=[budgets], help="generating-set sizes per power, CSV"
    )
    p.add_argument("file")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")

    p = sub.add_parser(
        "witness", parents=[budgets], help="materialize a constructive witness"
    )
    p.add_argument("kind", choices=("nice", "sigma", "counterexample", "blocker"))
    p.add_argument("file")
    p.add_argument("--r", type=int, help="switch bound (nice, sigma)")
    p.add_argument("--n", type=int, help="power to test (nice, sigma)")
    p.add_argument(
        "--target",
        type=int,
        default=1,
        help="cross-equality parameter n (sigma; default 1)",
    )
    p.add_argument("--op", help="operation name (counterexample)")
    p.add_argument("--alpha", type=_element_list, help="subset, e.g. 0,1")
    p.add_argument("--beta", type=_element_list, help="subset, e.g. 1,2")
    p.add_argument("--base", type=_element_list, help="starting subset (blocker)")
    p.add_argument("--n-max", type=int, help="largest power checked (blocker)")

    p = sub.add_parser(
        "dump", parents=[budgets], help="print a tuple set, one row per line"
    )
    p.add_argument("kind", choices=("d", "switch", "sigma"))
    p.add_argument("file")
    p.add_argument("--m", type=int, help="pair count (d)")
    p.add_argument("--r", type=int, help="switch bound (switch)")
    p.add_argument("--n", type=int, help="power (switch, sigma)")
    p.add_argument("--alpha", type=_element_list, help="subset (sigma)")
    p.add_argument("--beta", type=_element_list, help="subset (sigma)")
    p.add_argument(
        "--closed",
        action="store_true",
        help="close the set under the file's operations before printing",
    )
    return parser


def _require(parser_name: str, **named) -> None:
    missing = [f"--{flag.replace('_', '-')}" for flag, v in named.items() if v is None]
    if missing:
        raise UsageError(
            f"genpow {parser_name}: the following arguments are required: "
            + ", ".join(missing)
        )


def _pair_from_args(algebra: Algebra, args) -> SubsetPair:
    return SubsetPair.from_elements(algebra.k, args.alpha, args.beta)


def _cmd_validate(args, limits: Limits) -> list[str]:
    algebra = load_algebra(args.file)
    lines = [f"size: {algebra.k}", f"operations: {len(algebra.operations)}"]
    for op in algebra.operations:
        lines.append(f"  {op.name}: arity {op.arity}")
    witness = first_non_idempotent(algebra)
    if witness is None:
        lines.append("idempotent: yes")
    else:
        op, a, v = witness
        diag = ", ".join([str(a)] * op.arity)
        lines.append(f"idempotent: no ({op.name}({diag}) = {v})")
    return lines


def _cmd_decide(args, limits: Limits) -> list[str]:
    algebra = load_algebra(args.file)
    return decide_egp_idempotent(algebra, limits=limits).render()


def _cmd_d_check(args, limits: Limits) -> list[str]:
    algebra = load_algebra(args.file)
    return equal_pair_evidence(algebra, args.m, limits=limits).render()


def _cmd_switchable(args, limits: Limits) -> list[str]:
    algebra = load_algebra(args.file)
    return switch_generation_evidence(algebra, args.r, args.n, limits=limits).render()


def _cmd_growth(args, limits: Limits) -> list[str]:
    algebra = load_algebra(args.file)
    profile = growth_profile(algebra, args.n_max, mode=args.mode, limits=limits)
    for row in profile.rows:
        if row.reason:
            print(f"n = {row.n} greedy: {row.reason}", file=sys.stderr)
    if profile.note:
        print(profile.note, file=sys.stderr)
    return profile.to_csv().splitlines()


def _cmd_witness(args, limits: Limits) -> list[str]:
    algebra = load_algebra(args.file)
    if args.kind == "nice":
        _require("witness nice", r=args.r, n=args.n)
        rel = nice_relation_from_nonswitchability(
            algebra, args.r, args.n, limits=limits
        )
        return [
            f"arity: {rel.m}",
            "block-lengths: " + " ".join(str(b) for b in rel.block_lengths),
            "excluded: " + " ".join(str(a) for a in rel.excluded),
            f"base-arity: {rel.base.n}",
            f"base-members: {len(rel.base)} of {rel.base.space}",
            # The constructor refuses a relation that fails verify_nice.
            "nice: yes",
        ]
    if args.kind == "sigma":
        _require("witness sigma", r=args.r, n=args.n)
        rel = nice_relation_from_nonswitchability(
            algebra, args.r, args.n, limits=limits
        )
        witness = cross_equality_witness(rel, args.target, algebra.k, limits=limits)
        return witness.render()
    if args.kind == "counterexample":
        _require("witness counterexample", op=args.op, alpha=args.alpha, beta=args.beta)
        try:
            op = algebra.operation(args.op)
        except KeyError:
            raise PreconditionError(f"no operation named {args.op!r} in the file")
        pair = _pair_from_args(algebra, args)
        return projectivity_counterexample(op, pair, limits=limits).render()
    _require("witness blocker", base=args.base, n_max=args.n_max)
    candidate = find_blocker_bounded(algebra, args.base, args.n_max, limits=limits)
    lines = [
        f"base: {_format_subset(sorted(set(args.base)))}",
        f"n-max: {args.n_max}",
    ]
    if candidate is None:
        lines.append("candidate: none")
    else:
        lines.append(f"candidate: {_format_subset(candidate)}")
    return lines


def _cmd_dump(args, limits: Limits) -> list[str]:
    algebra = load_algebra(args.file)
    if args.kind == "d":
        _require("dump d", m=args.m)
        ts = equal_pair_tuples(algebra.k, args.m, limits=limits)
    elif args.kind == "switch":
        _require("dump switch", r=args.r, n=args.n)
        ts = switch_tuples(algebra.k, args.n, args.r, limits=limits)
    else:
        _require("dump sigma", alpha=args.alpha, beta=args.beta, n=args.n)
        ts = subset_pair_relation(_pair_from_args(algebra, args), args.n, limits=limits)
    if args.closed:
        ts = closure(algebra, ts, limits=limits)
    return list(ts.lines())


_HANDLERS = {
    "validate": _cmd_validate,
    "decide": _cmd_decide,
    "d-check": _cmd_d_check,
    "switchable": _cmd_switchable,
    "growth": _cmd_growth,
    "witness": _cmd_witness,
    "dump": _cmd_dump,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # validate and decide take no budget flags and run on the defaults.
        limits = Limits(
            steps=getattr(args, "steps", LIMITS.steps),
            exact=getattr(args, "exact", LIMITS.exact),
        )
        for line in _HANDLERS[args.command](args, limits):
            print(line)
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"genpow: cannot read algebra file: {exc}", file=sys.stderr)
        return 2
    except AlgebraFileError as exc:
        print(f"genpow: invalid algebra file: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"genpow: precondition violated: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"genpow: budget exceeded: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
