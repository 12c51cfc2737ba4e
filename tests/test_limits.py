"""The Limits value: its defaults, the messages of its checks, and a guard
that every budget is stated and enforced there and nowhere else.
"""

import ast
import inspect
import pathlib
import re

import pytest

import genpow
import genpow.criteria
import genpow.subpower
import genpow.witnesses
from genpow import LIMITS, BudgetExceededError, Limits, TupleSet

SRC = pathlib.Path(genpow.__file__).resolve().parent


def test_defaults():
    assert LIMITS == Limits(
        space=1 << 26,
        steps=10**9,
        exact=256,
        nodes=20_000,
        combinations=10**7,
        dense=1 << 26,
    )
    with pytest.raises(AttributeError):
        LIMITS.steps = 1


def refusal(check, *args):
    with pytest.raises(BudgetExceededError) as info:
        check(*args)
    return str(info.value)


def test_check_messages():
    limits = Limits(space=8, exact=16, nodes=5, combinations=10, steps=50)
    assert refusal(limits.check_space, 2, 4) == (
        "tuple space k**n = 2**4 = 16 exceeds the space budget 8"
    )
    assert refusal(limits.check_switch_tuples, 9) == (
        "9 bounded-switch tuples exceed the budget 8"
    )
    assert refusal(limits.check_exact, 27) == "k**n = 27 exceeds the exact-search budget 16"
    assert refusal(limits.check_nodes, 6, 9) == "exact search exceeded 5 nodes at k**n = 9"
    assert refusal(limits.check_combinations, 4, 2) == (
        "4**2 argument combinations exceed the budget 10"
    )
    result = TupleSet.from_tuples(2, 4, [(0, 0, 0, 1), (0, 0, 1, 0)])
    assert refusal(limits.charge_steps, 48, 9, 1, (len(result), result.space)) == (
        "closure exceeded the step budget of 50 combination applications "
        "(rounds completed: 1, tuples: 2 of 16, steps applied: 48)"
    )


def test_checks_pass_at_the_budget():
    limits = Limits(space=16, exact=27, nodes=6, combinations=16, steps=57)
    limits.check_space(2, 4)
    limits.check_switch_tuples(16)
    limits.check_exact(27)
    limits.check_nodes(6, 9)
    limits.check_combinations(4, 2)
    assert limits.charge_steps(48, 9, 1, (0, 16)) == 57


def _raises_budget_error(node: ast.Raise) -> bool:
    target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
    return name == "BudgetExceededError"


def _budget_raise_scopes():
    """(file, line, enclosing class/function names) of every
    `raise BudgetExceededError` in the package source."""
    found = []

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Raise) and child.exc and _raises_budget_error(child):
                found.append((path.name, child.lineno, scope))
            visit(child, inner, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (), path)
    return found


def test_budget_errors_are_raised_only_by_limits():
    found = _budget_raise_scopes()
    # TupleSet.__init__ refuses a space whose encodings overflow int64: a
    # limit of the representation, not a budget.
    stray = [
        f"{name}:{line} in {'.'.join(scope) or '<module>'}"
        for name, line, scope in found
        if not (len(scope) == 2 and scope[0] == "Limits")
        and scope != ("TupleSet", "__init__")
    ]
    assert stray == []
    assert any(scope[0] == "Limits" for _, _, scope in found)


FORBIDDEN = re.compile(r"budget|\w+_budget|dense_threshold|chunk_cells")


def _public_callables():
    for module in (genpow.subpower, genpow.criteria, genpow.witnesses):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)
                    if inspect.isfunction(fn) and (attr == "__init__" or attr[0] != "_"):
                        yield f"{module.__name__}.{name}.{attr}", fn


def test_no_budget_keywords_in_public_signatures():
    checked = dict(_public_callables())
    assert "genpow.subpower.closure" in checked
    assert "genpow.subpower.TupleSet.from_mask" in checked
    offending = [
        f"{qualname}({param})"
        for qualname, fn in checked.items()
        for param in inspect.signature(fn).parameters
        if FORBIDDEN.fullmatch(param)
    ]
    assert offending == []
