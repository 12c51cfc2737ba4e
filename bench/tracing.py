"""Spans around the package's layers, recorded from outside the package.

Tracer replaces the public functions of genpow's modules at the module
attributes their callers look up (a name imported with `from .x import f`
is a separate binding in the importing module, so each binding is wrapped
where it is used) and restores every original on exit.  Each span is
(name, start, end, parent, query, info), kept in memory and written out
when the run ends; info holds counts read from the call's arguments and
result at the same boundary.  A layer's self time is its span duration
minus the durations of its child spans; the run is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

# Span name -> layer.  "cli" is the benchmark's own span around cli.main;
# "cli.handler" wraps the subcommand handler, so the self time of "cli"
# is argparse plus printing.
LAYERS = {
    "load_algebra": "algebra",
    "decide_egp_idempotent": "decide",
    "equal_pair_tuples": "seeds",
    "switch_tuples": "seeds",
    "subset_pair_relation": "seeds",
    "closure": "closure",
    "closure_extend": "extend",
    "min_generating_size": "search",
    "growth_profile": "search",
    "nice_relation_from_nonswitchability": "witness",
    "verify_nice": "witness",
    "cross_equality_witness": "witness",
    "find_blocker_bounded": "witness",
    "cli": "cli",
    "cli.handler": "handler",
}

# (module, attribute) bindings that callers on the CLI paths look up.
BINDINGS = {
    "genpow.cli": (
        "load_algebra", "decide_egp_idempotent", "growth_profile",
        "equal_pair_tuples", "switch_tuples", "subset_pair_relation", "closure",
        "nice_relation_from_nonswitchability", "verify_nice",
        "cross_equality_witness", "find_blocker_bounded",
    ),
    "genpow.criteria": (
        "equal_pair_tuples", "switch_tuples", "closure", "closure_extend",
        "min_generating_size",
    ),
    "genpow.witnesses": (
        "switch_tuples", "subset_pair_relation", "closure", "verify_nice",
    ),
}


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts read at the boundary of one successful call."""
    if name == "decide_egp_idempotent":
        return {"pairs": result.pairs_checked}
    if LAYERS[name] == "seeds":
        return {"tuples": len(result)}
    if name == "closure":
        seeds = args[1]
        return {
            "out": len(result),
            "new": len(result) - len(seeds),
            "full": len(result) == result.space,
            "space": seeds.space,
        }
    if name == "growth_profile":
        exact = sum(row.mode == "exact" for row in result.rows)
        return {"rows": len(result.rows), "exact": exact}
    # Computed sizes of the spaces the witness code scans tuple by tuple.
    if name == "nice_relation_from_nonswitchability":
        return {"scan": args[0].k ** args[2]}
    if name == "verify_nice":
        return {"scan": args[0].k ** args[0].m}
    if name == "cross_equality_witness":
        return {"scan": result.relation.space}
    return {}


class Recorder:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.query = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.query, None])
        self._stack.append(index)
        return index

    def close(self, index: int, info: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = info
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index, _counts(name, args, result))
            return result

        return traced


class Tracer:
    """Install a recorder's wrappers into genpow; restore on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []
        self._handlers: dict | None = None

    def __enter__(self) -> "Tracer":
        import importlib

        try:
            for module_name, names in BINDINGS.items():
                module = importlib.import_module(module_name)
                for name in names:
                    original = getattr(module, name)
                    self._saved.append((module, name, original))
                    setattr(module, name, self.recorder.wrap(name, original))
            handlers = importlib.import_module("genpow.cli")._HANDLERS
            self._handlers = dict(handlers)
            for command, fn in self._handlers.items():
                handlers[command] = self.recorder.wrap("cli.handler", fn)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        if self._handlers is not None:
            import genpow.cli

            genpow.cli._HANDLERS.update(self._handlers)
            self._handlers = None


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every name, zero when unused)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    count: dict[str, float] = {}

    def add(table: dict, key: str, value: float) -> None:
        table[key] = table.get(key, 0.0) + value

    for i, (name, start, end, parent, _, info) in enumerate(spans):
        add(self_s, name, end - start - child[i])
        add(count, name + ".calls", 1)
        for key, value in (info or {}).items():
            add(count, f"{name}.{key}", float(value))
        if name == "closure" and parent >= 0 and spans[parent][0] == "find_blocker_bounded":
            # The blocker scans each power's seed mask inline, one closure per power.
            add(count, "find_blocker_bounded.scan", float((info or {}).get("space", 0)))

    def layer_self(layer: str) -> float:
        return sum(v for name, v in self_s.items() if LAYERS[name] == layer)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    seeds_s = layer_self("seeds")
    seeds_n = sum(count.get(f"{n}.tuples", 0.0) for n in LAYERS if LAYERS[n] == "seeds")
    closure_s = layer_self("closure")
    closure_calls = count.get("closure.calls", 0.0)
    extend_calls = count.get("closure_extend.calls", 0.0)
    extend_s = layer_self("extend")
    rows = count.get("growth_profile.rows", 0.0)
    exact = count.get("growth_profile.exact", 0.0)
    witness = (
        "nice_relation_from_nonswitchability", "verify_nice",
        "cross_equality_witness", "find_blocker_bounded",
    )
    return {
        "algebra.load_s": layer_self("algebra"),
        "algebra.loads": count.get("load_algebra.calls", 0.0),
        "decide.s": layer_self("decide"),
        "decide.pairs_checked": count.get("decide_egp_idempotent.pairs", 0.0),
        "seeds.s": seeds_s,
        "seeds.tuples": seeds_n,
        "seeds.tuples_per_s": ratio(seeds_n, seeds_s),
        "closure.calls": closure_calls,
        "closure.s": closure_s,
        "closure.tuples_out": count.get("closure.out", 0.0),
        "closure.new_tuples": count.get("closure.new", 0.0),
        "closure.new_per_s": ratio(count.get("closure.new", 0.0), closure_s),
        "closure.full_frac": ratio(count.get("closure.full", 0.0), closure_calls),
        "extend.calls": extend_calls,
        "extend.s": extend_s,
        "extend.us_per_call": ratio(extend_s * 1e6, extend_calls),
        "search.s": layer_self("search"),
        "search.rows": rows,
        "search.exact_rows": exact,
        "search.greedy_rows": rows - exact,
        "search.exact_frac": ratio(exact, rows),
        "witness.s": layer_self("witness"),
        "witness.verify_s": self_s.get("verify_nice", 0.0),
        "witness.scan_tuples": sum(count.get(f"{n}.scan", 0.0) for n in witness),
        "cli.output_s": self_s.get("cli", 0.0),
    }
