"""The closure engine against genpow-free full-rescan oracles on 200
seeded random algebras.

Each algebra has k in {2, 3} and one or two operations of arity 1 to 3,
each idempotent or not.  At every n with k**n <= 81, `closure` of a few
random seeds and `closure_extend` of that closure by a tuple outside it
must equal the oracle, with dense and with sparse membership.  The oracle
is brute_closure where one of its passes is at most (k**n)**arity <=
20,000 combinations, and the vectorized numpy_closure above that (ternary
operations at k**n = 32, 64 and 81).

closure and closure_extend evaluate every round as numpy grids.  The
exact search's extend (subpower._extender) works on bit masks and runs
every round on them when every operation is tabulated on A^n itself, and
the draw spans both layouts.  extend must give the same closure as
closure_extend, and the same refusal at every step budget where a charge
starts to fit, also when a budget hands a closure over to numpy, which
closes it whole from round 0 after any mask rounds, and when a layout is
multi-block, where numpy runs every round.
"""

import functools
import random

import pytest

import genpow.subpower
from genpow import (
    LIMITS,
    Algebra,
    Limits,
    TupleSet,
    closure,
    closure_extend,
    decode_tuple,
    encode_tuple,
)
from genpow.subpower import _block_columns, _extender
from tests.oracles import (
    brute_closure,
    numpy_closure,
    per_grid_charges,
    random_op,
    random_table_op,
)
from tests.test_rounds import assert_sweep

ALGEBRAS = 200
BRUTE_COMBINATIONS = 20_000


def draw(seed):
    """The seed's algebra: k, then one or two random operations."""
    rng = random.Random(seed)
    k = rng.choice((2, 3))
    operations = []
    for j in range(rng.choice((1, 2))):
        arity = rng.randint(1, 3)
        if rng.random() < 0.5:
            operations.append(random_table_op(k, arity, rng, True, name=f"g{j}"))
        else:
            operations.append(random_op(k, arity, 10 * seed + j))
    return Algebra(k=k, operations=tuple(operations))


def sizes(k):
    return [n for n in range(1, 7) if k**n <= 81]


def oracle(algebra, seeds, n):
    """The closure of the seeds, as a set of tuples."""
    space = algebra.k**n
    if all(space**op.arity <= BRUTE_COMBINATIONS for op in algebra.operations):
        return set(brute_closure(algebra, seeds))
    return {decode_tuple(e, algebra.k, n) for e in numpy_closure(algebra, seeds).tolist()}


def extensions(seed, close):
    """The seed's algebra, and per n its draw: (n, seeds, members, extra).
    The seeds are 1-3 random tuples, members = close(algebra, seeds, n) is
    their closure as a set of tuples, and extra is the encoding of a random
    tuple outside it, or None when there is none."""
    algebra = draw(seed)
    k = algebra.k
    rng = random.Random(-seed)
    draws = []
    for n in sizes(k):
        space = k**n
        count = rng.randint(1, min(3, space))
        seeds = [decode_tuple(e, k, n) for e in rng.sample(range(space), count)]
        members = close(algebra, seeds, n)
        outside = [e for e in range(space) if decode_tuple(e, k, n) not in members]
        draws.append((n, seeds, members, rng.choice(outside) if outside else None))
    return algebra, draws


def package_closure(algebra, seeds, n):
    return set(closure(algebra, TupleSet.from_tuples(algebra.k, n, seeds)))


def mask(members, k):
    """The bit mask of a set of tuples."""
    return sum(1 << encode_tuple(t, k) for t in members)


@pytest.mark.parametrize("seed", range(ALGEBRAS))
def test_closure_and_extend_match_the_oracle(seed, sparse):
    algebra, draws = extensions(seed, oracle)
    k = algebra.k
    for n, seeds, members, extra in draws:
        if extra is not None:
            widened = oracle(algebra, [*members, decode_tuple(extra, k, n)], n)
        for backend in ("dense", "sparse"):
            with sparse(backend == "sparse"):
                ts = TupleSet.from_tuples(k, n, seeds)
                closed = closure(algebra, ts)
                assert set(closed) == members, (seed, n, backend)
                if extra is not None:
                    grown = closure_extend(algebra, closed, [extra])
                    assert set(grown) == widened, (seed, n, backend, extra)
                    extend = _extender(algebra, n, LIMITS)
                    assert extend(mask(members, k), extra) == mask(widened, k), (
                        seed, n, backend, extra,
                    )


def test_extend_budget_sweep_across_the_handover(monkeypatch, sparse):
    """Every draw with a one-block layout whose extension by its extra
    tuple takes at least two rounds, so that a budget edge hands it over to
    numpy after at least one mask round, and every draw with a multi-block
    layout, dense and sparse, at every step budget where a reference charge
    starts to fit, one step either side, 0 and one past the whole cost."""
    carried = []
    saturate = genpow.subpower._saturate

    def counted(algebra, result, old, new, *args):
        carried.append((tuple(map(int, old)), tuple(map(int, new))))
        return saturate(algebra, result, old, new, *args)

    monkeypatch.setattr(genpow.subpower, "_saturate", counted)
    # Each budget makes its own extend; build each image table once.
    tables = functools.lru_cache(maxsize=None)(genpow.subpower._image_tables)
    monkeypatch.setattr(genpow.subpower, "_image_tables", tables)
    swept = {"handover": 0, "multi-block": 0}
    for seed in range(ALGEBRAS):
        algebra, draws = extensions(seed, package_closure)
        k = algebra.k
        for n, _, members, extra in draws:
            if extra is None:
                continue
            one_block = all(_block_columns(op, n)[0] == n for op in algebra.operations)
            widened, charges = per_grid_charges(
                algebra, [decode_tuple(extra, k, n)], old=members
            )
            rounds = len({r for _, _, r, _ in charges})
            if one_block and rounds < 2:
                continue
            swept["handover" if one_block else "multi-block"] += 1
            need = sum(cells for _, cells, _, _ in charges)
            budgets = {0, need + 1} | {
                steps + cells + d for steps, cells, _, _ in charges for d in (-1, 0, 1)
            }
            for backend in ("dense", "sparse"):
                carried.clear()
                with sparse(backend == "sparse"):
                    assert_sweep(
                        lambda b: _extender(algebra, n, Limits(steps=b))(
                            mask(members, k), extra
                        ).bit_count(),
                        charges, widened, k**n, (seed, n, backend), sorted(budgets),
                    )
                # A one-block closure goes over only at a budget edge, a
                # multi-block one at once; either way numpy closes it
                # whole, from the closed set and the extra tuple.
                start = tuple(sorted(encode_tuple(t, k) for t in members))
                assert set(carried) == {(start, (extra,))}, (seed, n, carried)
    assert swept["handover"] >= 50 and swept["multi-block"] >= 50, swept


def test_the_draw_has_unary_idempotent_and_mixed_layout_cases():
    unary = idempotent = mixed = 0
    for seed in range(ALGEBRAS):
        algebra = draw(seed)
        unary += any(op.arity == 1 for op in algebra.operations)
        idempotent += any(
            all(op.table[a * sum(algebra.k**p for p in range(op.arity))] == a
                for a in range(algebra.k))
            for op in algebra.operations
        )
        for n in sizes(algebra.k):
            single = {_block_columns(op, n)[0] == n for op in algebra.operations}
            mixed += single == {True, False}
    assert unary >= 20 and idempotent >= 20 and mixed >= 5, (unary, idempotent, mixed)
