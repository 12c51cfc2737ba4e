"""The closure's stop at a known ceiling, and the ceiling d-check uses.

For a covering pair that every operation is projective for, the
subset-pair relation R_m is closed and holds every equal-pair seed, so
the closure of the seeds lies inside it and may stop at |R_m| tuples.
These tests check the closed form of |R_m| against the brute relation,
and that stopping there changes no closure.
"""

import random

from genpow import (
    Algebra,
    Limits,
    SubsetPair,
    closure,
    equal_pair_evidence,
    equal_pair_tuples,
)
from tests.oracles import (
    brute_covering_pairs,
    brute_first_projective_pair,
    brute_subset_pair_relation,
    elements,
    numpy_closure,
    planted_op,
)


def test_relation_size_matches_the_brute_relation():
    for k in range(2, 5):
        for a, b in brute_covering_pairs(k):
            for m in range(1, 4):
                brute = brute_subset_pair_relation(k, elements(a, k), elements(b, k), m)
                assert SubsetPair(k, a, b).relation_size(m) == len(brute), (k, a, b, m)


def planted_algebras():
    """120 seeded algebras with a planted projective pair: k 2..4, arity
    1..3, idempotent or not, some with two operations."""
    rng = random.Random(23)
    for i in range(120):
        k = 2 + i % 3
        arity = 1 + (i // 3) % 3
        if k == 4 and arity == 3:
            arity = 2
        a, b = rng.choice(brute_covering_pairs(k))
        alpha, beta = elements(a, k), elements(b, k)
        idempotent = (i // 9) % 2 == 0
        ops = [planted_op(k, arity, alpha, beta, rng.randrange(1, arity + 1), rng, idempotent)]
        if i % 4 == 0:
            ops.append(planted_op(k, 2, alpha, beta, 2, rng, idempotent, name="g"))
        yield f"planted{i}", Algebra(k=k, operations=tuple(ops)), (a, b)


def check_ceiling(name, algebra, m, pairs):
    """d-check's evidence and a closure stopped at each pair's |R_m| equal
    the closure without a ceiling, which lies inside every R_m.  Returns
    how many of the stopped closures ended at their ceiling."""
    k = algebra.k
    seeds = equal_pair_tuples(k, m)
    plain = closure(algebra, seeds)
    evidence = equal_pair_evidence(algebra, m)
    assert (evidence.seed_count, evidence.closure_count) == (len(seeds), len(plain)), name
    assert evidence.full is (len(plain) == k ** (2 * m))
    members = set(plain)
    if m <= 2 and len(plain) ** max((op.arity for op in algebra.operations), default=1) <= 1 << 20:
        brute = numpy_closure(algebra, list(seeds))
        assert brute.tolist() == plain.encodings().tolist(), (name, m)
    reached = 0
    for a, b in pairs:
        relation = brute_subset_pair_relation(k, elements(a, k), elements(b, k), m)
        assert members <= relation, (name, m, a, b)
        ceiling = SubsetPair(k, a, b).relation_size(m)
        stopped = closure(algebra, seeds, ceiling=ceiling)
        assert stopped == plain, (name, m, a, b)
        reached += len(stopped) == ceiling
    return reached


def test_ceiling_changes_no_closure_on_planted_algebras():
    reached = checked = 0
    for name, algebra, planted in planted_algebras():
        a, b, _, _ = brute_first_projective_pair(algebra)
        pairs = {planted, (a, b)}
        for m in (1, 2, 3) if algebra.k == 2 else (1, 2):
            reached += check_ceiling(name, algebra, m, pairs)
            checked += len(pairs)
    # The stop fires on a good share of them, so the equality is tested.
    assert checked / 4 < reached < checked


def test_ceiling_changes_no_closure_on_the_corpus(corpus, non_idem):
    for name, algebra in {**corpus, "non_idempotent": non_idem}.items():
        a, b, _, _ = brute_first_projective_pair(algebra)
        pairs = [] if a is None else [(a, b)]
        for m in (1, 2, 3):
            check_ceiling(name, algebra, m, pairs)


def test_closure_stops_at_the_ceiling_before_any_batch():
    # The seeds are the whole relation here: R_2 of {0}, {1} over k = 2 is
    # the 12 tuples with an equal designated pair, and a projection keeps
    # it, so a closure told so applies nothing even on a budget of 0.
    ops = (planted_op(2, 2, {0}, {1}, 1, random.Random(0), name="p"),)
    seeds = equal_pair_tuples(2, 2)
    assert SubsetPair(2, 1, 2).relation_size(2) == len(seeds) == 12
    stopped = closure(Algebra(k=2, operations=ops), seeds, ceiling=12, limits=Limits(steps=0))
    assert stopped == seeds
