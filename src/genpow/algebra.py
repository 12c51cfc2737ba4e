"""Finite algebras given by operation tables over A = {0, ..., k-1}.

Elements are plain ints.  A table stores its values flat, row-major with
the first argument as the most significant base-k digit, so the value of
f(a_1, ..., a_s) sits at index a_1*k^(s-1) + ... + a_s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    AlgebraFileError,
    AlgebraSyntaxError,
    ElementRangeError,
    NotIdempotentError,
    TableDimensionError,
    UniverseMismatchError,
)

# Tables of arity s hold k**s entries; the parser refuses anything beyond
# this arity so file sizes stay sane.  Direct construction is not capped.
DEFAULT_MAX_ARITY = 4


@dataclass(frozen=True)
class OperationTable:
    """A finitary operation f: A^arity -> A stored as a flat table."""

    name: str
    arity: int
    k: int
    table: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise AlgebraFileError("operation name must be a nonempty string")
        if self.arity < 1:
            raise AlgebraFileError(
                f"operation {self.name!r}: arity must be >= 1, got {self.arity}"
            )
        if self.k < 1:
            raise AlgebraFileError(
                f"operation {self.name!r}: universe size must be >= 1, got {self.k}"
            )
        object.__setattr__(self, "table", tuple(self.table))
        expected = self.k**self.arity
        if len(self.table) != expected:
            raise TableDimensionError(
                f"operation {self.name!r}: table has {len(self.table)} entries, "
                f"expected k**arity = {expected}"
            )
        for pos, value in enumerate(self.table):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ElementRangeError(
                    f"operation {self.name!r}: table entry {pos} is not an integer"
                )
            if not 0 <= value < self.k:
                raise ElementRangeError(
                    f"operation {self.name!r}: table entry {pos} is {value}, "
                    f"outside [0, {self.k})"
                )


@dataclass(frozen=True)
class Algebra:
    """A universe size together with a (possibly empty) list of operations.

    An empty operation list models the algebra whose term operations are
    just the projections; it is perfectly legal and heavily used as the
    identity oracle for the closure engine.
    """

    k: int
    operations: tuple[OperationTable, ...] = ()

    def __post_init__(self):
        if self.k < 1:
            raise AlgebraFileError(f"universe size must be >= 1, got {self.k}")
        object.__setattr__(self, "operations", tuple(self.operations))
        names = set()
        for op in self.operations:
            if op.k != self.k:
                raise AlgebraFileError(
                    f"operation {op.name!r} has universe size {op.k}, "
                    f"algebra has {self.k}"
                )
            if op.name in names:
                raise AlgebraFileError(f"duplicate operation name {op.name!r}")
            names.add(op.name)

    def operation(self, name: str) -> OperationTable:
        for op in self.operations:
            if op.name == name:
                return op
        raise KeyError(name)


def evaluate(op: OperationTable, args: Sequence[int]) -> int:
    """Apply an operation table to a full argument tuple."""
    if len(args) != op.arity:
        raise ValueError(
            f"operation {op.name!r} expects {op.arity} arguments, got {len(args)}"
        )
    index = 0
    for a in args:
        if not 0 <= a < op.k:
            raise ValueError(f"argument {a} outside universe [0, {op.k})")
        index = index * op.k + a
    return op.table[index]


def first_non_idempotent(algebra: Algebra) -> Optional[tuple[OperationTable, int, int]]:
    """Return (op, a, f(a,...,a)) for the first diagonal violation, if any."""
    for op in algebra.operations:
        for a in range(algebra.k):
            value = evaluate(op, (a,) * op.arity)
            if value != a:
                return op, a, value
    return None


def _require_idempotent(algebra: Algebra) -> None:
    """Raise NotIdempotentError at the first diagonal violation, if any."""
    witness = first_non_idempotent(algebra)
    if witness is not None:
        op, a, v = witness
        raise NotIdempotentError(op.name, op.arity, a, v)


def _require_same_universe(name: str, k: int, other_name: str, other_k: int) -> None:
    """Raise UniverseMismatchError unless two operands share a universe."""
    if k != other_k:
        raise UniverseMismatchError(
            f"{name} universe {k} != {other_name} universe {other_k}"
        )


def is_idempotent(algebra: Algebra) -> bool:
    """True iff every operation satisfies f(a, ..., a) = a for all a."""
    return first_non_idempotent(algebra) is None


def _require_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise AlgebraFileError(f"{what} must be an integer")
    return value


def parse_algebra(text: str, *, max_arity: int = DEFAULT_MAX_ARITY) -> Algebra:
    """Parse the textual algebra format into a validated Algebra.

    The document is a JSON object with fields `size` (the universe size k)
    and `operations` (array of objects with `name`, `arity` and `table`,
    the table being a flat integer array in row-major order with the first
    argument most significant).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraSyntaxError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise AlgebraFileError("top-level value must be an object")
    unknown = set(doc) - {"size", "operations"}
    if unknown:
        raise AlgebraFileError(f"unknown top-level fields: {sorted(unknown)}")
    if "size" not in doc:
        raise AlgebraFileError("missing required field 'size'")
    k = _require_int(doc["size"], "'size'")
    if k < 1:
        raise AlgebraFileError(f"'size' must be >= 1, got {k}")
    ops_doc = doc.get("operations", [])
    if not isinstance(ops_doc, list):
        raise AlgebraFileError("'operations' must be an array")
    operations = []
    for pos, entry in enumerate(ops_doc):
        if not isinstance(entry, dict):
            raise AlgebraFileError(f"operation {pos}: must be an object")
        extra = set(entry) - {"name", "arity", "table"}
        if extra:
            raise AlgebraFileError(f"operation {pos}: unknown fields {sorted(extra)}")
        for field in ("name", "arity", "table"):
            if field not in entry:
                raise AlgebraFileError(f"operation {pos}: missing field '{field}'")
        name = entry["name"]
        if not isinstance(name, str):
            raise AlgebraFileError(f"operation {pos}: 'name' must be a string")
        arity = _require_int(entry["arity"], f"operation {name!r}: 'arity'")
        if arity > max_arity:
            raise AlgebraFileError(
                f"operation {name!r}: arity {arity} exceeds the limit {max_arity}"
            )
        table = entry["table"]
        if not isinstance(table, list):
            raise AlgebraFileError(f"operation {name!r}: 'table' must be an array")
        operations.append(OperationTable(name=name, arity=arity, k=k, table=tuple(table)))
    return Algebra(k=k, operations=tuple(operations))


def serialize_algebra(algebra: Algebra) -> str:
    """Emit the same textual format parse_algebra reads (round-trips)."""
    doc = {
        "size": algebra.k,
        "operations": [
            {"name": op.name, "arity": op.arity, "table": list(op.table)}
            for op in algebra.operations
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_algebra(path, *, max_arity: int = DEFAULT_MAX_ARITY) -> Algebra:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_algebra(handle.read(), max_arity=max_arity)
