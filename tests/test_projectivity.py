"""The projectivity test against the per-pair reference loops.

`projective_coordinate` and `decide_egp_idempotent` test closure under
one digraph per choice of a coordinate for each operation;
tests/oracles.py keeps the loops over argument tuples and covering pairs
that they replaced, sharing no code with the package.
"""

import collections
import itertools
import random

import pytest

from genpow import (
    Algebra,
    BudgetExceededError,
    Limits,
    OperationTable,
    SubsetPair,
    decide_egp_idempotent,
    is_idempotent,
    iter_subset_pairs,
    projective_coordinate,
)
from genpow.criteria import _pair_rank, _projectivity_scan
from tests.oracles import (
    brute_covering_pairs,
    brute_first_projective_pair,
    brute_projective_coordinate,
    brute_roots_for_every_choice,
    elements,
    planted_op,
    random_idempotent_binary,
    random_maltsev_op,
    random_nu_op,
    random_table_op,
)


def pgp_pairs(k):
    return (3**k - 2 ** (k + 1) + 1) // 2


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
    found = total = 0
    for op in itertools.chain(seeded_ops(), special_ops()):
        for a, b in brute_covering_pairs(op.k):
            j = brute_projective_coordinate(op, elements(a, op.k), elements(b, op.k))
            assert projective_coordinate(op, SubsetPair(op.k, a, b)) == j, (op, a, b)
            found += j is not None
            total += 1
    # Both answers occur often enough for the comparison to mean something.
    assert total / 10 < found < total * 9 / 10


@pytest.mark.parametrize("cells", [16, 1 << 16], ids=["16-cell-chunks", "default"])
def test_pair_chunks_list_every_covering_pair_in_mask_order(cells):
    # The listing read in chunks of at most `cells` pairs: 16-pair chunks
    # split every alpha's run of pairs from k = 6, where alpha = {0..4}
    # has 31, and each chunk starts at the position _pair_rank gives.
    for k in range(1, 9):
        pairs, listing = [], iter_subset_pairs(k)
        while chunk := list(itertools.islice(listing, cells)):
            assert _pair_rank(k, chunk[0].alpha, chunk[0].beta) == len(pairs) + 1, k
            pairs += [(p.alpha, p.beta) for p in chunk]
        assert pairs == brute_covering_pairs(k), k


def test_pair_chunks_list_about_three_to_the_k_over_two_pairs():
    # The pairs are listed directly, with no candidates to filter out.
    for k in range(1, 13):
        assert sum(1 for _ in iter_subset_pairs(k)) == pgp_pairs(k), k


def test_subset_pairs_start_at_once_for_a_wide_universe():
    # At k = 40 listing every pair is out of reach, but the first pair is not.
    pair = next(iter_subset_pairs(40))
    assert (pair.alpha, pair.beta) == (1, (1 << 40) - 2)
    assert decide_egp_idempotent(Algebra(k=40, operations=())).pairs_checked == 1


def test_pair_rank_is_the_position_in_iter_subset_pairs():
    for k in range(1, 8):
        for rank, pair in enumerate(iter_subset_pairs(k), start=1):
            assert _pair_rank(k, pair.alpha, pair.beta) == rank, (k, pair)


@pytest.mark.parametrize("k", [63, 64])
def test_decide_answers_past_64_bit_masks(k):
    decision = decide_egp_idempotent(Algebra(k=k, operations=()))
    assert decision.egp and decision.pair.alpha_elements() == (0,)
    assert (decision.pair.beta, decision.pairs_checked) == ((1 << k) - 2, 1)


def random_algebra(rng):
    """k 2..6, 0..2 operations of arity 1..3, planted or random tables,
    about 60% of them idempotent."""
    k = rng.randint(2, 6)
    ops = []
    for n in range(rng.randint(0, 2)):
        arity, idempotent = rng.randint(1, 3), rng.random() < 0.6
        if rng.random() < 0.4:
            a, b = rng.choice(brute_covering_pairs(k))
            j = rng.randint(1, arity)
            ops.append(
                planted_op(k, arity, elements(a, k), elements(b, k), j, rng, idempotent, f"g{n}")
            )
        else:
            ops.append(random_table_op(k, arity, rng, idempotent, f"f{n}"))
    return Algebra(k=k, operations=tuple(ops))


def test_projectivity_scan_matches_the_reference_on_mixed_algebras():
    rng = random.Random(13)
    kinds = collections.Counter()
    for _ in range(1200):
        algebra = random_algebra(rng)
        a, b, coords, scanned = brute_first_projective_pair(algebra)
        idempotent = is_idempotent(algebra)
        decision = (decide_egp_idempotent if idempotent else _projectivity_scan)(algebra)
        pair = decision.pair and (decision.pair.alpha, decision.pair.beta)
        assert (decision.egp, pair, decision.coordinates, decision.pairs_checked) == (
            a is not None,
            a and (a, b),
            coords,
            scanned,
        ), algebra
        kinds[idempotent, decision.egp] += 1
    # Every mix of idempotence and verdict occurs often.
    assert len(kinds) == 4 and min(kinds.values()) > 100, kinds


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


def test_wide_verdicts_agree_with_the_root_certificates():
    # Listing the pairs is out of reach here, so a PGP verdict is checked
    # by a root for every choice, and an EGP one by its pair's coordinates.
    rng = random.Random(29)
    verdicts = collections.Counter()
    for k in (10, 13, 17, 24, 31, 40, 48):
        ops = (random_idempotent_binary(k, rng),)
        if k <= 13:
            ops += (random_table_op(k, 3, rng, True, "g"),)
        algebras = [Algebra(k=k, operations=ops)]
        a = set(rng.sample(range(k), k // 2))
        b = set(range(k)) - a | {min(a)}
        planted = planted_op(k, 2, a, b, 2, rng, idempotent=True, name="h")
        algebras.append(Algebra(k=k, operations=(planted,)))
        for algebra in algebras:
            decision = decide_egp_idempotent(algebra)
            assert (brute_roots_for_every_choice(algebra) is None) is decision.egp
            if decision.egp:
                alpha, beta = (elements(m, k) for m in (decision.pair.alpha, decision.pair.beta))
                assert alpha | beta == set(range(k)) and len(alpha) < k and len(beta) < k
                assert decision.coordinates == tuple(
                    (op.name, brute_projective_coordinate(op, alpha, beta))
                    for op in algebra.operations
                )
            else:
                assert decision.pairs_checked == pgp_pairs(k)
            verdicts[decision.verdict] += 1
    assert verdicts == {"PGP": 7, "EGP": 7}


def test_decide_refuses_a_scan_past_the_space_budget():
    # One digraph per choice of a coordinate for each operation: 2 * 3 = 6
    # choices here, charged before any is walked.
    rng = random.Random(5)
    algebra = Algebra(
        k=9, operations=(random_idempotent_binary(9, rng), random_table_op(9, 3, rng, True, "g"))
    )
    decision = decide_egp_idempotent(algebra)
    assert (decision.egp, decision.pairs_checked) == (False, 9_330)
    assert decide_egp_idempotent(algebra, limits=Limits(space=6)) == decision
    with pytest.raises(BudgetExceededError) as info:
        decide_egp_idempotent(algebra, limits=Limits(space=5))
    assert str(info.value) == (
        "projectivity test needs 6 coordinate choices, over the space budget of 5"
    )


def test_decide_answers_when_the_first_pair_lies_in_an_early_chunk():
    # Projective at coordinate 1 for alpha = {0}, beta = {1..8}, the first
    # covering pair; the 6 choices are still charged in full up front.
    rng = random.Random(5)
    algebra = Algebra(k=9, operations=tuple(
        planted_op(9, s, {0}, set(range(1, 9)), 1, rng, idempotent=True, name=f"f{s}")
        for s in (2, 3)
    ))
    decision = decide_egp_idempotent(algebra)
    assert (decision.egp, decision.pairs_checked) == (True, 1)
    assert (decision.pair.alpha, decision.pair.beta) == (1, (1 << 9) - 2)
    assert decision.coordinates == (("f2", 1), ("f3", 1))
    assert decide_egp_idempotent(algebra, limits=Limits(space=6)) == decision
    with pytest.raises(BudgetExceededError) as info:
        decide_egp_idempotent(algebra, limits=Limits(space=5))
    assert str(info.value) == (
        "projectivity test needs 6 coordinate choices, over the space budget of 5"
    )


def with_random_idempotent_op(k, op, rng):
    """The algebra of op, with a random idempotent operation beside it
    half the time."""
    ops = (op,)
    if rng.random() < 0.5:
        ops += (random_table_op(k, rng.randint(1, 2), rng, True, "g"),)
    return Algebra(k=k, operations=ops)


def assert_pgp(algebra):
    decision = decide_egp_idempotent(algebra)
    a, _, _, scanned = brute_first_projective_pair(algebra)
    assert (decision.verdict, decision.pairs_checked) == ("PGP", scanned), algebra
    assert a is None and scanned == pgp_pairs(algebra.k)


@pytest.mark.parametrize("seed", range(0, 200, 50))
def test_every_near_unanimity_algebra_is_pgp(seed):
    """A near-unanimity operation is projective for no covering pair: with
    x in alpha - beta and y in beta - alpha, putting y at coordinate j and
    x elsewhere gives x, outside beta.  So decide says PGP."""
    for s in range(seed, seed + 50):
        rng = random.Random(s)
        k = 2 + s % 3
        op = random_nu_op(k, 3 + s // 3 % 2, rng)
        assert_pgp(with_random_idempotent_op(k, op, rng))


@pytest.mark.parametrize("seed", range(0, 200, 50))
def test_every_maltsev_algebra_is_pgp(seed):
    """A Mal'tsev operation is projective for no covering pair:
    p(y, y, x) = x rules out coordinates 1 and 2, and p(x, y, y) = x rules
    out coordinate 3.  So decide says PGP."""
    for s in range(seed, seed + 50):
        rng = random.Random(s)
        k = 2 + s % 3
        assert_pgp(with_random_idempotent_op(k, random_maltsev_op(k, rng), rng))
