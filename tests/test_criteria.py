import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpow import (
    Algebra,
    BudgetExceededError,
    Limits,
    NotIdempotentError,
    OperationTable,
    PreconditionError,
    TupleSet,
    closure,
    count_switch_tuples,
    count_switches,
    decide_egp_idempotent,
    equal_pair_evidence,
    equal_pair_generates,
    evaluate,
    growth_profile,
    is_full,
    is_r_switchable_at,
    iter_subset_pairs,
    min_generating_size,
    projective_coordinate,
    switch_generation_evidence,
    switch_tuples,
)
from genpow.criteria import SubsetPair
from tests.oracles import brute_switch_count, brute_switch_tuples


def binary(table, k=2, name="f"):
    return OperationTable(name=name, arity=2, k=k, table=tuple(table))


def one_op(table, k=2, name="f"):
    return Algebra(k=k, operations=(binary(table, k=k, name=name),))


# -- subset pairs -------------------------------------------------------


def test_subset_pair_validation():
    with pytest.raises(PreconditionError):
        SubsetPair(2, 0, 1)
    with pytest.raises(PreconditionError):
        SubsetPair(2, 3, 1)
    with pytest.raises(PreconditionError):
        SubsetPair(3, 1, 2)  # {0} and {1} miss 2
    pair = SubsetPair.from_elements(3, [0, 1], [1, 2])
    assert pair.alpha == 3
    assert pair.beta == 6
    assert pair.describe() == "alpha={0, 1} beta={1, 2}"
    assert pair.alpha_elements() == (0, 1)
    assert pair.beta_elements() == (1, 2)
    assert pair.in_alpha(0) and not pair.in_alpha(2)
    with pytest.raises(PreconditionError):
        SubsetPair.from_elements(2, [0, 5], [1])


def test_iter_subset_pairs_k2():
    pairs = list(iter_subset_pairs(2))
    assert len(pairs) == 1
    assert (pairs[0].alpha, pairs[0].beta) == (1, 2)


def test_iter_subset_pairs_k3():
    masks = [(p.alpha, p.beta) for p in iter_subset_pairs(3)]
    assert masks == [(1, 6), (2, 5), (3, 4), (3, 5), (3, 6), (5, 6)]


def test_iter_subset_pairs_structure():
    full = (1 << 4) - 1
    for pair in iter_subset_pairs(4):
        assert 0 < pair.alpha < pair.beta < full
        assert pair.alpha | pair.beta == full


def test_iter_subset_pairs_k1():
    assert list(iter_subset_pairs(1)) == []


# -- projectivity -------------------------------------------------------


def test_projective_coordinate_projections():
    pair = SubsetPair(2, 1, 2)
    p1 = binary([0, 0, 1, 1])
    p2 = binary([0, 1, 0, 1])
    assert projective_coordinate(p1, pair) == 1
    assert projective_coordinate(p2, pair) == 2


def test_projective_coordinate_min_max():
    pair = SubsetPair(2, 1, 2)
    assert projective_coordinate(binary([0, 0, 0, 1]), pair) is None
    assert projective_coordinate(binary([0, 1, 1, 1]), pair) is None


def test_projective_coordinate_egp3(egp3):
    op = egp3.operation("f")
    assert projective_coordinate(op, SubsetPair(3, 3, 6)) == 1
    assert projective_coordinate(op, SubsetPair(3, 1, 6)) is None


def test_projective_coordinate_universe_mismatch():
    with pytest.raises(PreconditionError):
        projective_coordinate(binary([0, 0, 0, 1]), SubsetPair(3, 3, 6))


@given(st.integers(1, 3), st.integers(2, 3))
def test_projection_ops_are_projective_everywhere(coord, k):
    # a projection is projective for every covering pair, via its own slot
    arity = 3
    table = [args[coord - 1] for args in itertools.product(range(k), repeat=arity)]
    op = OperationTable(name="p", arity=arity, k=k, table=tuple(table))
    for pair in iter_subset_pairs(k):
        assert projective_coordinate(op, pair) == coord


# -- the dichotomy decision ---------------------------------------------


def test_decide_four_binary_tables():
    # the four idempotent binary tables over {0, 1}: min and max mix the
    # two sides, the projections never do
    expectations = [
        ((0, 0, 0, 1), False),
        ((0, 0, 1, 1), True),
        ((0, 1, 0, 1), True),
        ((0, 1, 1, 1), False),
    ]
    for table, egp in expectations:
        decision = decide_egp_idempotent(one_op(table))
        assert decision.egp is egp, table
        if egp:
            assert (decision.pair.alpha, decision.pair.beta) == (1, 2)
        else:
            assert decision.pairs_checked == 1


def test_decide_corpus(xor3, min2, maj3, egp3, proj2):
    assert not decide_egp_idempotent(xor3).egp
    assert not decide_egp_idempotent(min2).egp
    assert not decide_egp_idempotent(maj3).egp
    decision = decide_egp_idempotent(egp3)
    assert decision.egp
    assert (decision.pair.alpha, decision.pair.beta) == (3, 6)
    assert decision.coordinates == (("f", 1),)
    # no operations at all: every pair works, the first is reported
    empty = decide_egp_idempotent(proj2)
    assert empty.egp
    assert (empty.pair.alpha, empty.pair.beta) == (1, 2)


def test_decide_render(egp3, min2):
    assert decide_egp_idempotent(egp3).render() == [
        "verdict: EGP",
        "alpha: {0, 1}",
        "beta: {1, 2}",
        "projective coordinate for f: 1",
    ]
    assert decide_egp_idempotent(min2).render() == [
        "verdict: PGP",
        "pairs checked: 1",
    ]


def test_decide_requires_idempotence(non_idem):
    with pytest.raises(NotIdempotentError) as info:
        decide_egp_idempotent(non_idem)
    assert "czero(1, 1) = 0" in str(info.value)


def test_decide_k1_is_pgp():
    alg = Algebra(k=1, operations=(OperationTable(name="f", arity=1, k=1, table=(0,)),))
    decision = decide_egp_idempotent(alg)
    assert not decision.egp
    assert decision.pairs_checked == 0


def relabelled(algebra, perm):
    inverse = [0] * len(perm)
    for i, image in enumerate(perm):
        inverse[image] = i
    ops = []
    for op in algebra.operations:
        table = tuple(
            perm[evaluate(op, tuple(inverse[a] for a in args))]
            for args in itertools.product(range(algebra.k), repeat=op.arity)
        )
        ops.append(OperationTable(name=op.name, arity=op.arity, k=algebra.k, table=table))
    return Algebra(k=algebra.k, operations=tuple(ops))


def test_decision_invariant_under_relabelling(egp3, min2, xor3):
    for perm in itertools.permutations(range(3)):
        twisted = relabelled(egp3, list(perm))
        decision = decide_egp_idempotent(twisted)
        assert decision.egp
        for op in twisted.operations:
            assert projective_coordinate(op, decision.pair) is not None
    for alg in (min2, xor3):
        for perm in itertools.permutations(range(2)):
            assert not decide_egp_idempotent(relabelled(alg, list(perm))).egp


# -- switch counting ----------------------------------------------------


def test_count_switches_examples():
    assert count_switches((0, 0, 0)) == 0
    assert count_switches((0, 1, 0)) == 2
    assert count_switches((0, 1, 1, 0)) == 2
    assert count_switches((4,)) == 0


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_count_switches_matches_brute(t):
    assert count_switches(tuple(t)) == brute_switch_count(tuple(t))


def test_count_switch_tuples_examples():
    assert count_switch_tuples(2, 3, 0) == 2
    assert count_switch_tuples(2, 3, 1) == 6
    assert count_switch_tuples(3, 2, 1) == 9
    assert count_switch_tuples(2, 10, 2) == 92
    # r >= n-1 saturates at the whole space
    assert count_switch_tuples(3, 4, 7) == 81
    with pytest.raises(ValueError):
        count_switch_tuples(2, 0, 1)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_switch_tuples_against_enumeration(k, n, r):
    expected = brute_switch_tuples(k, n, r)
    ts = switch_tuples(k, n, r)
    assert set(ts) == expected
    assert len(ts) == count_switch_tuples(k, n, r) == len(expected)


def test_switch_tuples_budget():
    with pytest.raises(BudgetExceededError):
        switch_tuples(2, 10, 2, limits=Limits(space=50))


def test_switchability_examples(xor3, proj2):
    assert not is_r_switchable_at(xor3, 0, 2)
    assert is_r_switchable_at(xor3, 1, 2)
    assert not is_r_switchable_at(proj2, 1, 3)
    # r = n-1 seeds the entire power, so the answer is trivially yes
    assert is_r_switchable_at(proj2, 2, 3)


def test_switchability_monotone_in_r(xor3, min2):
    for alg in (xor3, min2):
        answers = [is_r_switchable_at(alg, r, 3) for r in range(3)]
        assert answers == sorted(answers)


def test_switch_evidence_render(xor3):
    ev = switch_generation_evidence(xor3, 0, 2)
    assert ev.render() == [
        "n: 2",
        "r: 0",
        "seed-count: 2",
        "closure-count: 2",
        "space: 4",
        "full: no",
    ]


# -- equal-pair generation ----------------------------------------------


def test_equal_pair_generates_examples(xor3, min2, proj2, egp3):
    assert equal_pair_generates(xor3, 2)
    assert equal_pair_generates(min2, 2)
    assert not equal_pair_generates(proj2, 2)
    assert not equal_pair_generates(egp3, 3)


def test_equal_pair_evidence_render(xor3):
    ev = equal_pair_evidence(xor3, 2)
    assert ev.render() == [
        "m: 2",
        "seed-count: 12",
        "closure-count: 16",
        "space: 16",
        "full: yes",
    ]


# -- generating-set sizes -----------------------------------------------


def test_min_generating_size_xor3(xor3):
    gs1 = min_generating_size(xor3, 1)
    assert (gs1.size, gs1.mode) == (2, "exact")
    gs2 = min_generating_size(xor3, 2)
    assert (gs2.size, gs2.mode) == (3, "exact")
    assert is_full(closure(xor3, TupleSet.from_tuples(2, 2, gs2.generators)))


def test_min_generating_size_projections(proj2):
    gs = min_generating_size(proj2, 3)
    assert (gs.size, gs.mode) == (8, "exact")
    assert len(set(gs.generators)) == 8


def test_min_generating_size_egp3(egp3):
    assert min_generating_size(egp3, 1).size == 2
    gs = min_generating_size(egp3, 2)
    assert (gs.size, gs.mode) == (4, "exact")
    assert is_full(closure(egp3, TupleSet.from_tuples(3, 2, gs.generators)))


def test_exact_at_most_greedy(xor3, min2, egp3):
    for alg in (xor3, min2, egp3):
        for n in (1, 2):
            exact = min_generating_size(alg, n, mode="exact")
            greedy = min_generating_size(alg, n, mode="greedy")
            assert exact.size <= greedy.size
            assert greedy.mode == "greedy"
            seeds = TupleSet.from_tuples(alg.k, n, greedy.generators)
            assert is_full(closure(alg, seeds))


def test_min_generating_size_rejections(xor3):
    with pytest.raises(PreconditionError):
        min_generating_size(xor3, 0)
    with pytest.raises(PreconditionError):
        min_generating_size(xor3, 2, mode="fast")
    with pytest.raises(BudgetExceededError):
        min_generating_size(xor3, 9, mode="exact")
    with pytest.raises(BudgetExceededError):
        min_generating_size(xor3, 40)


def test_exact_search_node_budget(egp3):
    with pytest.raises(BudgetExceededError):
        min_generating_size(egp3, 2, mode="exact", limits=Limits(nodes=5))


# -- growth profiles ----------------------------------------------------


def test_growth_profile_projections(proj2):
    profile = growth_profile(proj2, 4)
    assert [(row.n, row.size) for row in profile.rows] == [
        (1, 2),
        (2, 4),
        (3, 8),
        (4, 16),
    ]
    assert all(row.mode == "exact" for row in profile.rows)
    assert profile.note is None


def test_growth_profile_xor3(xor3):
    profile = growth_profile(xor3, 4)
    assert [(row.n, row.size) for row in profile.rows] == [
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
    ]
    assert all(row.mode == "exact" for row in profile.rows)


def test_growth_profile_csv(xor3):
    profile = growth_profile(xor3, 2)
    assert profile.to_csv() == "n,size,mode\n1,2,exact\n2,3,exact\n"


def test_growth_profile_greedy_mode(xor3):
    profile = growth_profile(xor3, 3, mode="greedy")
    assert [(row.n, row.size, row.mode) for row in profile.rows] == [
        (1, 2, "greedy"),
        (2, 3, "greedy"),
        (3, 4, "greedy"),
    ]


def test_growth_profile_node_budget_fallback(egp3):
    profile = growth_profile(egp3, 3, limits=Limits(nodes=50))
    assert [row.mode for row in profile.rows] == ["exact", "greedy", "greedy"]
    assert profile.rows[0].size == 2
    assert profile.rows[1].size >= 4
    assert profile.note is None


def test_growth_rows_give_the_refusal_that_made_them_greedy(egp3, xor3):
    profile = growth_profile(egp3, 3, limits=Limits(nodes=50))
    assert [row.reason for row in profile.rows] == [
        None,
        "exact search exceeded 50 nodes at k**n = 9",
        "exact search exceeded 50 nodes at k**n = 27",
    ]
    profile = growth_profile(xor3, 3, limits=Limits(exact=4))
    assert [row.reason for row in profile.rows] == [
        None, None, "k**n = 8 exceeds the exact-search budget 4",
    ]
    assert "reason" not in profile.to_csv()
    greedy = growth_profile(egp3, 2, mode="greedy")
    assert [row.reason for row in greedy.rows] == [None, None]


def test_growth_profile_space_budget_note(xor3):
    profile = growth_profile(xor3, 4, limits=Limits(space=8))
    assert [row.n for row in profile.rows] == [1, 2, 3]
    assert profile.note is not None
    assert profile.note.startswith("rows from n = 4 omitted")


def test_growth_profile_greedy_note_names_the_refusal(xor3):
    profile = growth_profile(xor3, 3, mode="greedy", limits=Limits(space=4))
    assert [row.n for row in profile.rows] == [1, 2]
    assert profile.note == (
        "rows from n = 3 omitted: tuple space k**n = 2**3 = 8 exceeds the "
        "space budget 4"
    )


def test_growth_profile_rejections(xor3):
    with pytest.raises(PreconditionError):
        growth_profile(xor3, 0)
    with pytest.raises(PreconditionError):
        growth_profile(xor3, 2, mode="auto")


@settings(max_examples=25)
@given(st.integers(2, 3), st.data())
def test_growth_sizes_nondecreasing(k, data):
    table = data.draw(
        st.lists(st.integers(0, k - 1), min_size=k * k, max_size=k * k)
    )
    for a in range(k):
        table[a * k + a] = a
    alg = one_op(table, k=k)
    profile = growth_profile(alg, 3, limits=Limits(nodes=2000))
    sizes = [row.size for row in profile.rows]
    assert sizes == sorted(sizes)
