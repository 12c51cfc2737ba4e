"""The forced tuples of A^n, those no operation produces from argument
tuples that all differ from them, against the full application scan of
tests/oracles.py: on 300 seeded random algebras with one or two
operations, on the corpus, whose forced sets are known in closed form,
and on the sub3 probe algebra."""

import itertools
import random

import pytest

from genpow import Algebra, OperationTable, decode_tuple, load_algebra
from genpow.criteria import _forced_mask
from tests.conftest import corpus_path
from tests.oracles import CLOSED_FORM_GROWTH, brute_forced_tuples, random_table_op

SEEDS = 300


def forced_tuples(algebra, n):
    mask = _forced_mask(algebra, n)
    return {decode_tuple(x, algebra.k, n) for x in range(algebra.k**n) if mask >> x & 1}


def draw(seed):
    """k 2..3 and an operation of arity 1..3, idempotent for even seeds;
    every fifth algebra adds a random binary operation."""
    rng = random.Random(seed)
    k, arity = 2 + seed % 3 // 2, 1 + seed // 3 % 3
    ops = (random_table_op(k, arity, rng, seed % 2 == 0),)
    if seed % 5 == 1:
        ops += (random_table_op(k, 2, rng, rng.random() < 0.5, "g"),)
    return Algebra(k=k, operations=ops)


def powers(k):
    return [n for n in range(1, 7) if k**n <= 81]


@pytest.mark.parametrize("start", range(0, SEEDS, 30))
def test_forced_mask_matches_the_application_scan(start):
    for seed in range(start, start + 30):
        algebra = draw(seed)
        for n in powers(algebra.k):
            assert forced_tuples(algebra, n) == brute_forced_tuples(algebra, n), (seed, n)


def test_the_draw_spans_universes_arities_and_both_idempotence_kinds():
    kinds = set()
    sizes = []
    for seed in range(SEEDS):
        algebra = draw(seed)
        op = algebra.operations[0]
        idempotent = all(op.table[a * sum(op.k**p for p in range(op.arity))] == a
                         for a in range(op.k))
        kinds.add((op.k, op.arity, idempotent, len(algebra.operations)))
        sizes += [len(brute_forced_tuples(algebra, n)) for n in (1, 2)]
    assert kinds == set(itertools.product((2, 3), (1, 2, 3), (False, True), (1, 2)))
    # Empty, partial and full forced sets all occur.
    assert 0 in sizes and max(sizes) == 9 and len(set(sizes)) > 4


CORPUS_EMPTY_FROM = {"xor3": 2, "majority3": 3}


@pytest.mark.parametrize("name", ["min2", "egp3", "non_idempotent", "xor3", "majority3"])
def test_corpus_forced_sets(name):
    """min2, egp3 and non_idempotent: the forced set has the size of the
    minimum generating set.  xor3 and majority3: it is empty from n = 2
    and n = 3 on."""
    algebra = load_algebra(corpus_path(name))
    for n in range(1, 7):
        forced = forced_tuples(algebra, n)
        if name in CORPUS_EMPTY_FROM:
            assert (forced == set()) is (n >= CORPUS_EMPTY_FROM[name]), n
        else:
            assert len(forced) == CLOSED_FORM_GROWTH[name](n), n
        if algebra.k**n <= 81:
            assert forced == brute_forced_tuples(algebra, n), n


def test_sub3_forces_only_the_all_twos_tuple():
    """The inline sub3 table of tests/test_cli.py: f is the first
    projection on {0, 1}, f(2, y) = 1 - y on {0, 1} and f(2, 2) = 2."""
    sub3 = Algebra(k=3, operations=(OperationTable("f", 2, 3, (0, 0, 0, 1, 1, 1, 1, 0, 2)),))
    for n in range(1, 7):
        assert forced_tuples(sub3, n) == {(2,) * n}, n
