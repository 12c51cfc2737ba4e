"""Command-line front-end.

One algebra file in, one report out.  Subcommands mirror the library:
validate, decide, d-check, switchable, growth, witness, dump.  Exit codes:
0 success, 1 usage error, 2 invalid algebra file, 3 precondition violated,
4 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
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
    # No flag is read from a prefix of its name: `witness blocker` would
    # otherwise take `--n` for `--n-max`.
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        # argparse would skip an unknown option before a witness or dump
        # kind and read the option's value as the kind.
        if args and args[0].startswith("-") and args[0] not in ("-h", "--help"):
            for action in self._actions:
                if action.dest == "kind":
                    self.error(
                        f"option {args[0].split('=')[0]} goes after the kind "
                        f"({', '.join(action.choices)})"
                    )
        return super().parse_known_args(args, namespace)


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

    # Flags shared by several commands, each declared once: the file and
    # closure budget of every command but validate and decide, the switch
    # bound and power, and dump's --closed.
    budgeted = _Parser(add_help=False)
    budgeted.add_argument("file")
    budgeted.add_argument(
        "--closure-budget",
        dest="steps",
        type=_budget,
        default=LIMITS.steps,
        metavar="STEPS",
        help="abort closures after this many combination applications",
    )
    switches = _Parser(add_help=False, parents=[budgeted])
    switches.add_argument("--r", type=int, required=True, help="switch bound")
    switches.add_argument("--n", type=int, required=True, help="power")
    closed = _Parser(add_help=False)
    closed.add_argument(
        "--closed",
        action="store_true",
        help="close the set under the file's operations before printing",
    )

    p = sub.add_parser("validate", help="parse a file and report its shape")
    p.add_argument("file")

    p = sub.add_parser("decide", help="exact growth dichotomy (idempotent only)")
    p.add_argument("file")

    p = sub.add_parser(
        "d-check",
        parents=[budgeted],
        help="close the designated-equal-pair tuples of A^(2m)",
    )
    p.add_argument("--m", type=int, required=True)

    sub.add_parser(
        "switchable",
        parents=[switches],
        help="close the at-most-r-switch tuples of A^n",
    )

    p = sub.add_parser(
        "growth", parents=[budgeted], help="generating-set sizes per power, CSV"
    )
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument(
        "--exact-budget",
        dest="exact",
        type=_budget,
        default=LIMITS.exact,
        metavar="SIZE",
        help="largest k**n the exact minimum-size search accepts",
    )

    p = sub.add_parser("witness", help="materialize a constructive witness")
    kinds = p.add_subparsers(dest="kind", required=True)
    kinds.add_parser(
        "nice", parents=[switches], help="nice relation from a failed switch check"
    )
    p = kinds.add_parser("sigma", parents=[switches], help="cross-equality obstruction")
    p.add_argument(
        "--target", type=int, default=1, help="cross-equality parameter n (default 1)"
    )
    p = kinds.add_parser(
        "counterexample", parents=[budgeted], help="preservation-violation matrix"
    )
    p.add_argument("--op", required=True, help="operation name")
    p.add_argument("--alpha", type=_element_list, required=True, help="subset, e.g. 0,1")
    p.add_argument("--beta", type=_element_list, required=True, help="subset, e.g. 1,2")
    p = kinds.add_parser("blocker", parents=[budgeted], help="greedy blocking subset")
    p.add_argument("--base", type=_element_list, required=True, help="starting subset")
    p.add_argument("--n-max", type=int, required=True, help="largest power checked")

    p = sub.add_parser("dump", help="print a tuple set, one row per line")
    kinds = p.add_subparsers(dest="kind", required=True)
    p = kinds.add_parser("d", parents=[budgeted, closed], help="equal-pair seeds")
    p.add_argument("--m", type=int, required=True, help="pair count")
    kinds.add_parser("switch", parents=[switches, closed], help="switch seeds")
    p = kinds.add_parser("sigma", parents=[budgeted, closed], help="subset-pair relation")
    p.add_argument("--alpha", type=_element_list, required=True, help="subset")
    p.add_argument("--beta", type=_element_list, required=True, help="subset")
    p.add_argument("--n", type=int, required=True, help="power")
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser main uses, built on its first call, not at import."""
    return build_parser()


def _text(lines: Sequence[str]) -> str:
    """A handler's stdout: each line followed by a newline."""
    return "".join(f"{line}\n" for line in lines)


def _pair_from_args(algebra: Algebra, args) -> SubsetPair:
    return SubsetPair.from_elements(algebra.k, args.alpha, args.beta)


def _cmd_validate(algebra: Algebra, args, limits: Limits) -> str:
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
    return _text(lines)


def _cmd_decide(algebra: Algebra, args, limits: Limits) -> str:
    return _text(decide_egp_idempotent(algebra, limits=limits).render())


def _cmd_d_check(algebra: Algebra, args, limits: Limits) -> str:
    return _text(equal_pair_evidence(algebra, args.m, limits=limits).render())


def _cmd_switchable(algebra: Algebra, args, limits: Limits) -> str:
    evidence = switch_generation_evidence(algebra, args.r, args.n, limits=limits)
    return _text(evidence.render())


def _cmd_growth(algebra: Algebra, args, limits: Limits) -> str:
    profile = growth_profile(algebra, args.n_max, mode=args.mode, limits=limits)
    for row in profile.rows:
        if row.reason:
            print(f"n = {row.n} greedy: {row.reason}", file=sys.stderr)
    if profile.note:
        print(profile.note, file=sys.stderr)
    return profile.to_csv()


def _cmd_witness(algebra: Algebra, args, limits: Limits) -> str:
    if args.kind in ("nice", "sigma"):
        rel = nice_relation_from_nonswitchability(
            algebra, args.r, args.n, limits=limits
        )
        if args.kind == "sigma":
            witness = cross_equality_witness(rel, args.target, algebra.k, limits=limits)
            return _text(witness.render())
        lines = [
            f"arity: {rel.m}",
            "block-lengths: " + " ".join(str(b) for b in rel.block_lengths),
            "excluded: " + " ".join(str(a) for a in rel.excluded),
            f"base-arity: {rel.base.n}",
            f"base-members: {len(rel.base)} of {rel.base.space}",
            # The constructor refuses a relation that fails verify_nice.
            "nice: yes",
        ]
        return _text(lines)
    if args.kind == "counterexample":
        try:
            op = algebra.operation(args.op)
        except KeyError:
            raise PreconditionError(f"no operation named {args.op!r} in the file")
        pair = _pair_from_args(algebra, args)
        return _text(projectivity_counterexample(op, pair, limits=limits).render())
    candidate = find_blocker_bounded(algebra, args.base, args.n_max, limits=limits)
    lines = [
        f"base: {_format_subset(sorted(set(args.base)))}",
        f"n-max: {args.n_max}",
    ]
    if candidate is None:
        lines.append("candidate: none")
    else:
        lines.append(f"candidate: {_format_subset(candidate)}")
    return _text(lines)


def _cmd_dump(algebra: Algebra, args, limits: Limits) -> str:
    if args.kind == "d":
        ts = equal_pair_tuples(algebra.k, args.m, limits=limits)
    elif args.kind == "switch":
        ts = switch_tuples(algebra.k, args.n, args.r, limits=limits)
    else:
        ts = subset_pair_relation(_pair_from_args(algebra, args), args.n, limits=limits)
    if args.closed:
        ts = closure(algebra, ts, limits=limits)
    return ts.text()


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
    try:
        args = _parser().parse_args(argv)
        # A budget a command takes no flag for runs on its default.
        limits = Limits(
            steps=getattr(args, "steps", LIMITS.steps),
            exact=getattr(args, "exact", LIMITS.exact),
        )
        algebra = load_algebra(args.file)
        sys.stdout.write(_HANDLERS[args.command](algebra, args, limits))
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
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"genpow: budget exceeded: out of memory{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
