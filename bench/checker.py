"""Output checks: every query's exit code and stdout are verified.

A fixed corpus query is compared byte for byte with the output pinned in
expected.json (written by pin.py from the seed commit).  A query on a
generated algebra is checked against facts that hold by theorem, computed
by inputs.py without the package.  Each check returns None when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import inputs
from workloads import label

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "bench" / "expected.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Pinned:
    """Exit code and the sha256 of stdout recorded at the seed commit."""

    exit: int
    sha256: str
    lines: int

    def __call__(self, rc: int, out: str) -> Optional[str]:
        if rc != self.exit:
            return f"exit {rc}, pinned {self.exit}"
        if digest(out) != self.sha256:
            return f"stdout differs from the pinned output ({out.count(chr(10))} lines, pinned {self.lines})"
        return None


@dataclass(frozen=True)
class Exact:
    """Exit 0 and exactly this stdout."""

    text: str

    def __call__(self, rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}, expected 0"
        if out != self.text:
            return f"stdout {out!r}, expected {self.text!r}"
        return None


def _fields(out: str, names: list[str]) -> dict[str, str]:
    lines = out.splitlines()
    keys = [line.split(": ", 1)[0] for line in lines]
    if keys != names:
        raise ValueError(f"fields {keys}, expected {names}")
    return {line.split(": ", 1)[0]: line.split(": ", 1)[1] for line in lines}


@dataclass(frozen=True)
class ClosureFacts:
    """Theorem-level facts about a `d-check` or `switchable` report.

    seed-count equals its closed form, space is k^n, seeds <= closure <=
    space, and `full: yes` holds exactly when closure-count == space.  For
    an algebra planted EGP with covering pair of size |rho|, the closure of
    the equal-pair tuples lies inside the subset-pair relation, so it is
    not full and has at most k^(2m) - (k^2 - |rho|)^m tuples.
    """

    head: tuple[tuple[str, int], ...]  # leading fields, e.g. (("m", 3),)
    seed_count: int
    space: int
    rho_bound: Optional[int] = None

    def __call__(self, rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}, expected 0"
        names = [name for name, _ in self.head]
        try:
            f = _fields(out, names + ["seed-count", "closure-count", "space", "full"])
            closed = int(f["closure-count"])
        except ValueError as exc:
            return f"malformed report: {exc}"
        for name, value in self.head:
            if f[name] != str(value):
                return f"{name}: {f[name]}, expected {value}"
        if int(f["seed-count"]) != self.seed_count:
            return f"seed-count {f['seed-count']}, closed form {self.seed_count}"
        if int(f["space"]) != self.space:
            return f"space {f['space']}, expected {self.space}"
        if not self.seed_count <= closed <= self.space:
            return f"closure-count {closed} outside [{self.seed_count}, {self.space}]"
        if f["full"] != ("yes" if closed == self.space else "no"):
            return f"full: {f['full']} with closure-count {closed} of {self.space}"
        if self.rho_bound is not None and closed > self.rho_bound:
            return f"closure-count {closed} above the subset-pair bound {self.rho_bound}"
        return None


def d_check_facts(k: int, m: int, rho: Optional[int] = None) -> ClosureFacts:
    space = k ** (2 * m)
    bound = None if rho is None else space - (k * k - rho) ** m
    return ClosureFacts((("m", m),), inputs.equal_pair_count(k, m), space, bound)


def switch_facts(k: int, n: int, r: int) -> ClosureFacts:
    return ClosureFacts((("n", n), ("r", r)), inputs.switch_count(k, n, r), k**n)


def _corpus_size(relative: str) -> int:
    return json.loads((ROOT / relative).read_text(encoding="utf-8"))["size"]


def _option(argv: tuple[str, ...], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def load_pinned(path: Path = EXPECTED) -> dict[str, Pinned]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {key: Pinned(**value) for key, value in doc["queries"].items()}


def checks_for(
    argv: tuple[str, ...], pinned: dict[str, Pinned], drawn: dict[str, "inputs.Drawn"]
) -> list:
    """Every check that applies to one query.

    A fixed query must have a pinned output under its label; generated
    algebras are named by `@name` arguments.
    """
    key = label(argv)
    checks: list = []
    names = [a[1:] for a in argv if a.startswith("@")]
    algebra = drawn[names[0]] if names else None
    if algebra is None:
        if key not in pinned:
            raise KeyError(f"no pinned output for {key!r}; run bench/pin.py")
        checks.append(pinned[key])
    command = argv[0]
    if command == "d-check":
        m = _option(argv, "--m")
        if algebra is None:
            k = _corpus_size(argv[1])
            checks.append(d_check_facts(k, m))
        else:
            rho = None if algebra.pair is None else inputs.rho_size(algebra.k, algebra.pair)
            checks.append(d_check_facts(algebra.k, m, rho))
    elif command == "switchable":
        k = _corpus_size(argv[1])
        checks.append(switch_facts(k, _option(argv, "--n"), _option(argv, "--r")))
    elif algebra is not None:
        if command == "validate":
            checks.append(Exact(inputs.validate_text(algebra)))
        elif command == "decide":
            checks.append(Exact(inputs.decide_text(algebra)))
        elif command == "growth":
            checks.append(Exact(inputs.growth_text(algebra, _option(argv, "--n-max"))))
        else:
            raise ValueError(f"no reference check for {key!r}")
    return checks


def verify(checks: list, rc: int, out: str) -> Optional[str]:
    """The first failing check's reason, or None when all pass."""
    for check in checks:
        reason = check(rc, out)
        if reason is not None:
            return reason
    return None
