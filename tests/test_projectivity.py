"""The vectorized projectivity scan against the per-pair reference loop.

`projective_coordinate` and `decide_egp_idempotent` run one numpy kernel
over chunks of covering pairs; tests/oracles.py keeps the loop over
argument tuples that they replaced, sharing no code with the package.
"""

import itertools
import random

import numpy as np
import pytest

import genpow.criteria
from genpow import (
    Algebra,
    BudgetExceededError,
    Limits,
    OperationTable,
    PreconditionError,
    SubsetPair,
    decide_egp_idempotent,
    projective_coordinate,
)
from genpow.criteria import (
    _projective_coordinates,
    _projectivity_scan,
    _subset_pair_chunks,
)
from tests.oracles import (
    brute_covering_pairs,
    brute_first_projective_pair,
    brute_projective_coordinate,
    elements,
    planted_op,
    random_idempotent_binary,
    random_table_op,
)


def seeded_ops():
    """240 random tables, k 2..6, arity 1..3, half of them idempotent."""
    rng = random.Random(7)
    for i in range(240):
        k, arity = 2 + i % 5, 1 + (i // 5) % 3
        yield random_table_op(k, arity, rng, idempotent=(i // 15) % 2 == 0)


def special_ops():
    """Every projection and every constant, k 2..6, arity 1..3."""
    for k in range(2, 7):
        for arity in range(1, 4):
            rows = list(itertools.product(range(k), repeat=arity))
            for j in range(arity):
                yield OperationTable(f"p{j}", arity, k, tuple(r[j] for r in rows))
            for c in range(k):
                yield OperationTable(f"c{c}", arity, k, (c,) * len(rows))


def test_projective_coordinates_match_the_per_pair_loop():
    ops = list(seeded_ops()) + list(special_ops())
    found = total = 0
    for n, op in enumerate(ops):
        pairs = brute_covering_pairs(op.k)
        expected = [
            brute_projective_coordinate(op, elements(a, op.k), elements(b, op.k))
            for a, b in pairs
        ]
        # The scan's kernel, on every covering pair at once.
        alpha, beta = (np.array(side, dtype=np.int64) for side in zip(*pairs))
        got = _projective_coordinates(op, alpha, beta).tolist()
        assert got == [j or 0 for j in expected], op
        # The public single-pair entry point, on a share of them.
        for (a, b), j in list(zip(pairs, expected))[n % 5 :: 5]:
            assert projective_coordinate(op, SubsetPair(op.k, a, b)) == j, (op, a, b)
        found += sum(j is not None for j in expected)
        total += len(pairs)
    # Both answers occur often enough for the comparison to mean something.
    assert total / 10 < found < total * 9 / 10


@pytest.mark.parametrize("cells", [16, 1 << 16], ids=["16-cell-chunks", "default"])
def test_pair_chunks_list_every_covering_pair_in_mask_order(monkeypatch, cells):
    # 16-cell chunks take the one-alpha-in-runs path from k = 6, where
    # alpha = {0..4} has 31 pairs.
    monkeypatch.setattr(genpow.criteria, "_CHUNK_CELLS", cells)
    for k in range(1, 9):
        chunks = list(_subset_pair_chunks(k))
        pairs = [(int(a), int(b)) for alpha, beta in chunks for a, b in zip(alpha, beta)]
        assert pairs == brute_covering_pairs(k), k
        assert all(alpha.size <= cells for alpha, _ in chunks)


def test_pair_chunks_start_at_once_for_a_wide_universe():
    # At k = 40 a full scan is out of reach, but the first pair is not.
    alpha, beta = next(_subset_pair_chunks(40))
    assert (int(alpha[0]), int(beta[0])) == (1, (1 << 40) - 2)
    assert decide_egp_idempotent(Algebra(k=40, operations=())).pairs_checked == 1


def test_pair_scan_refuses_masks_wider_than_64_bits():
    with pytest.raises(PreconditionError):
        decide_egp_idempotent(Algebra(k=63, operations=()))


def scan_matches_reference(algebra):
    a, b, coords, scanned = brute_first_projective_pair(algebra)
    scan = _projectivity_scan(algebra)
    assert (scan.pairs_checked, scan.coordinates) == (scanned, coords)
    assert scan.egp is (a is not None)
    if scan.egp:
        assert (scan.pair.alpha, scan.pair.beta) == (a, b)


def test_projectivity_scan_matches_the_reference_on_mixed_algebras():
    rng = random.Random(13)
    for i in range(60):
        k = 2 + i % 4
        ops = [random_table_op(k, 1 + (i + n) % 3, rng, i % 2 == 0, f"f{n}") for n in range(2)]
        if i % 3 == 0:
            # A planted pair makes the scan stop inside a chunk.
            a, b = rng.choice(brute_covering_pairs(k))
            ops = [
                planted_op(k, arity, elements(a, k), elements(b, k), 1, rng, name=f"g{arity}")
                for arity in (2, 3)
            ]
        scan_matches_reference(Algebra(k=k, operations=tuple(ops)))


def test_decide_matches_the_reference(corpus):
    algebras = list(corpus.values())
    rng = random.Random(17)
    # The scan workload draws random idempotent binary tables, k = 3 .. 9;
    # planted pairs add EGP algebras of the same shape.
    for k in range(3, 10):
        algebras += [Algebra(k=k, operations=(random_idempotent_binary(k, rng),)) for _ in range(2)]
        a, b = rng.choice(brute_covering_pairs(k))
        op = planted_op(k, 2, elements(a, k), elements(b, k), 2, rng, idempotent=True)
        algebras.append(Algebra(k=k, operations=(op,)))
    verdicts = set()
    for algebra in algebras:
        a, b, coords, scanned = brute_first_projective_pair(algebra)
        decision = decide_egp_idempotent(algebra)
        assert decision.pairs_checked == scanned
        assert decision.egp is (a is not None)
        if decision.egp:
            assert (decision.pair.alpha, decision.pair.beta) == (a, b)
            assert decision.coordinates == coords
        verdicts.add(decision.verdict)
    assert verdicts == {"EGP", "PGP"}


def test_pair_chunks_list_about_three_to_the_k_over_two_pairs():
    # The pairs are listed directly, with no candidates to filter out.
    for k in range(1, 13):
        sizes = [alpha.size for alpha, _ in _subset_pair_chunks(k)]
        assert sum(sizes) == (3**k - 2 ** (k + 1) + 1) // 2, k
        assert 0 not in sizes


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 2,048 pairs, so that the 9,330 covering pairs at k = 9
    take several."""
    monkeypatch.setattr(genpow.criteria, "_CHUNK_CELLS", 2048)
    sizes = [alpha.size for alpha, _ in _subset_pair_chunks(9)]
    assert len(sizes) > 3 and max(sizes) <= 2048
    return sizes


def test_decide_refuses_a_scan_past_the_space_budget(small_chunks):
    sizes = small_chunks
    algebra = Algebra(k=9, operations=(random_idempotent_binary(9, random.Random(5)),))
    decision = decide_egp_idempotent(algebra)
    assert (decision.egp, decision.pairs_checked) == (False, 9_330)
    assert decide_egp_idempotent(algebra, limits=Limits(space=9_330)) == decision
    # A chunk the budget cannot pay for in full is refused before it is
    # checked: one pair short refuses the last chunk, and one pair more
    # than the first two chunks refuses the third.
    for space, paid in ((9_329, len(sizes) - 1), (sizes[0] + sizes[1] + 1, 2)):
        with pytest.raises(BudgetExceededError) as info:
            decide_egp_idempotent(algebra, limits=Limits(space=space))
        assert str(info.value) == (
            f"covering-pair scan exceeded the space budget of {space:,} "
            f"pairs (pairs checked: {sum(sizes[:paid]):,})"
        )


def test_decide_answers_when_the_first_pair_lies_in_an_early_chunk(small_chunks):
    # Projective at coordinate 1 for alpha = {0}, beta = {1..8}, the first
    # covering pair, so the first chunk holds the answer.
    first = small_chunks[0]
    op = planted_op(9, 2, {0}, set(range(1, 9)), 1, random.Random(3), idempotent=True)
    algebra = Algebra(k=9, operations=(op,))
    decision = decide_egp_idempotent(algebra, limits=Limits(space=first))
    assert decision == decide_egp_idempotent(algebra)
    assert (decision.egp, decision.pairs_checked) == (True, 1)
    with pytest.raises(BudgetExceededError):
        decide_egp_idempotent(algebra, limits=Limits(space=first - 1))
