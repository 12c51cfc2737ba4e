import itertools
from fractions import Fraction

import pytest

from genpow import (
    BudgetExceededError,
    Limits,
    NotIdempotentError,
    OperationTable,
    PreconditionError,
    TupleSet,
    closure,
    cross_equality_witness,
    decide_egp_idempotent,
    egp_lower_bound,
    evenize_nice,
    find_blocker_bounded,
    min_generating_size,
    nice_relation_from_nonswitchability,
    preserves_relation,
    projectivity_counterexample,
    subset_pair_relation,
    verify_nice,
)
from genpow.criteria import SubsetPair
from genpow.witnesses import NiceRelation
from tests.oracles import brute_preserves


def punctured(k, m, holes):
    """All of A^m except the given tuples, as a width-1-blocks relation."""
    ts = TupleSet.full(k, m)
    base = TupleSet(k, m)
    for e in ts.encodings():
        t = ts.decode(int(e))
        if t not in holes:
            base.add(t)
    return NiceRelation(k=k, block_lengths=(1,) * m, base=base, excluded=holes[0])


# -- the relation wrapper -----------------------------------------------


def test_nice_relation_validation():
    base = TupleSet.full(2, 3)
    with pytest.raises(PreconditionError):
        NiceRelation(k=2, block_lengths=(), base=base, excluded=())
    with pytest.raises(PreconditionError):
        NiceRelation(k=2, block_lengths=(1, 0, 1), base=base, excluded=(0, 1))
    with pytest.raises(PreconditionError):
        NiceRelation(k=3, block_lengths=(1, 1, 1), base=base, excluded=(0, 1, 0))
    with pytest.raises(PreconditionError):
        NiceRelation(k=2, block_lengths=(1, 1), base=base, excluded=(0, 1))
    with pytest.raises(PreconditionError):
        NiceRelation(k=2, block_lengths=(1, 1, 1), base=base, excluded=(0, 1))
    with pytest.raises(PreconditionError):
        NiceRelation(k=2, block_lengths=(1, 1, 1), base=base, excluded=(0, 2, 0))


def test_nice_relation_expand_and_contains():
    base = TupleSet.from_tuples(2, 4, [(0, 0, 1, 1), (1, 1, 1, 0)])
    rel = NiceRelation(k=2, block_lengths=(2, 2), base=base, excluded=(0, 1))
    assert rel.m == 2
    assert rel.expand((0, 1)) == (0, 0, 1, 1)
    assert rel.contains((0, 1))
    assert not rel.contains((1, 0))
    with pytest.raises(ValueError):
        rel.expand((0, 1, 0))


def test_nice_relation_materialize():
    base = TupleSet.from_tuples(2, 4, [(0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 0)])
    rel = NiceRelation(k=2, block_lengths=(2, 2), base=base, excluded=(0, 0))
    # only full-block expansions count: 0011 and 1100, not 1110
    flat = rel.materialize()
    assert set(flat) == {(0, 1), (1, 0)}
    with pytest.raises(BudgetExceededError):
        rel.materialize(limits=Limits(space=2))


def test_verify_nice_accepts_and_rejects():
    good = punctured(2, 3, [(0, 1, 0)])
    assert verify_nice(good)
    # claimed exclusion is actually a member
    full = NiceRelation(
        k=2, block_lengths=(1, 1, 1), base=TupleSet.full(2, 3), excluded=(0, 1, 0)
    )
    assert not verify_nice(full)
    # a tuple with an adjacent equal pair is missing
    hole = punctured(2, 3, [(0, 0, 1), (0, 1, 0)])
    assert not verify_nice(hole)


def test_verify_nice_budget():
    wide = NiceRelation(
        k=2,
        block_lengths=(1,) * 30,
        base=TupleSet(2, 30),
        excluded=(0, 1) * 15,
    )
    with pytest.raises(BudgetExceededError):
        verify_nice(wide)


# -- extraction from non-switchability ------------------------------------


def test_nice_from_nonswitchability_projections(proj2):
    rel = nice_relation_from_nonswitchability(proj2, 1, 3)
    assert rel.block_lengths == (1, 1, 1)
    assert rel.excluded == (0, 1, 0)
    assert len(rel.base) == 6
    assert verify_nice(rel)
    # same witness one power up collapses a length-2 run
    rel4 = nice_relation_from_nonswitchability(proj2, 1, 4)
    assert rel4.block_lengths == (2, 1, 1)
    assert rel4.excluded == (0, 1, 0)
    assert verify_nice(rel4)


def test_nice_from_nonswitchability_egp3(egp3):
    rel = nice_relation_from_nonswitchability(egp3, 0, 2)
    assert rel.block_lengths == (1, 1)
    assert rel.excluded == (0, 1)
    assert len(rel.base) == 3
    assert verify_nice(rel)


def test_nice_base_is_closed_and_preserved(min2):
    rel = nice_relation_from_nonswitchability(min2, 1, 3)
    assert verify_nice(rel)
    assert closure(min2, rel.base) == rel.base
    flat = rel.materialize()
    for op in min2.operations:
        assert preserves_relation(op, flat)
        assert brute_preserves(op, set(flat))


def test_nice_from_switchable_algebra_refused(xor3):
    with pytest.raises(PreconditionError):
        nice_relation_from_nonswitchability(xor3, 1, 3)


# -- arity reduction -------------------------------------------------------


def test_evenize_identity_on_even_arity():
    rel = punctured(2, 4, [(0, 1, 0, 1)])
    assert evenize_nice(rel) is rel


def test_evenize_merges_least_even_positions():
    rel = punctured(2, 5, [(0, 1, 0, 1, 0)])
    out = evenize_nice(rel)
    assert out.m == 4
    assert out.excluded == (1, 0, 1, 0)
    assert verify_nice(out)
    assert len(out.materialize()) == 15


def test_evenize_k3_example():
    rel = punctured(3, 7, [(0, 1, 0, 2, 1, 2, 0)])
    out = evenize_nice(rel)
    assert out.m == 6
    assert out.excluded == (1, 0, 2, 1, 2, 0)
    assert verify_nice(out)
    assert len(out.materialize()) == 3**6 - 1


def test_evenize_requires_an_even_position_repeat():
    rel = punctured(3, 3, [(0, 1, 2)])
    with pytest.raises(PreconditionError) as info:
        evenize_nice(rel)
    assert "threshold 2k = 6" in str(info.value)


def test_evenize_budget():
    wide = NiceRelation(
        k=2,
        block_lengths=(1,) * 31,
        base=TupleSet(2, 31),
        excluded=(0, 1) * 15 + (0,),
    )
    with pytest.raises(BudgetExceededError):
        evenize_nice(wide)


# -- the fixed-arity obstruction -------------------------------------------


def test_cross_equality_witness_from_projections(proj2):
    rel = nice_relation_from_nonswitchability(proj2, 7, 9)
    wit = cross_equality_witness(rel, 1, 2)
    assert wit.arity == 4
    assert wit.pair_used == (0, 1)
    assert wit.multiplicity == 4
    assert wit.excluded == (0, 1, 0, 1)
    assert wit.excluded not in wit.relation
    # every tuple whose x block meets its y block is a member
    for v in itertools.product(range(2), repeat=4):
        if v[0] == v[1]:
            assert v in wit.relation
    assert len(wit.relation) == 12
    assert wit.render() == [
        "arity: 4",
        "pair: (0, 1)",
        "multiplicity: 4",
        "excluded: 0 1 0 1",
        "members: 12 of 16",
    ]


def test_cross_equality_witness_requires_width(proj2):
    rel = nice_relation_from_nonswitchability(proj2, 6, 8)
    with pytest.raises(PreconditionError) as info:
        cross_equality_witness(rel, 1, 2)
    assert "must exceed" in str(info.value)


def test_cross_equality_witness_universe_mismatch(proj2):
    rel = nice_relation_from_nonswitchability(proj2, 7, 9)
    with pytest.raises(PreconditionError):
        cross_equality_witness(rel, 1, 3)


def test_cross_equality_witness_rejects_non_nice():
    bad = punctured(2, 9, [(0, 0, 0, 0, 0, 0, 0, 0, 0)])
    with pytest.raises(PreconditionError):
        cross_equality_witness(bad, 1, 2)


# -- subset-pair relations and preservation ---------------------------------


def test_subset_pair_relation_k2():
    pair = SubsetPair(2, 1, 2)
    assert set(subset_pair_relation(pair, 1)) == {(0, 0), (1, 1)}
    sigma2 = subset_pair_relation(pair, 2)
    assert len(sigma2) == 12
    assert (0, 1, 0, 1) not in sigma2
    assert (0, 0, 1, 0) in sigma2


def test_subset_pair_relation_k3():
    pair = SubsetPair.from_elements(3, [0, 1], [1, 2])
    sigma1 = subset_pair_relation(pair, 1)
    assert set(sigma1) == set(itertools.product(range(3), repeat=2)) - {
        (0, 2),
        (2, 0),
    }


def test_subset_pair_relation_complement_product():
    # a tuple avoids the relation iff every designated pair avoids rho
    for k, masks in ((2, [(1, 2)]), (3, [(1, 6), (3, 6), (5, 6)])):
        for a, b in masks:
            pair = SubsetPair(k, a, b)
            rho = sum(
                1
                for x in range(k)
                for y in range(k)
                if (pair.in_alpha(x) and pair.in_alpha(y))
                or (pair.in_beta(x) and pair.in_beta(y))
            )
            for n in (1, 2):
                ts = subset_pair_relation(pair, n)
                assert ts.space - len(ts) == (k * k - rho) ** n


def test_subset_pair_relation_budget():
    with pytest.raises(BudgetExceededError):
        subset_pair_relation(SubsetPair(2, 1, 2), 5, limits=Limits(space=100))


def test_preserves_relation_examples(min2, xor3):
    pair = SubsetPair(2, 1, 2)
    sigma2 = subset_pair_relation(pair, 2)
    assert not preserves_relation(min2.operation("min"), sigma2)
    assert not preserves_relation(xor3.operation("xor3"), sigma2)
    proj = OperationTable(name="p2", arity=2, k=2, table=(0, 1, 0, 1))
    for n in (1, 2):
        assert preserves_relation(proj, subset_pair_relation(pair, n))


def test_preserves_relation_trivial_cases(min2):
    op = min2.operation("min")
    assert preserves_relation(op, TupleSet.full(2, 2))
    assert preserves_relation(op, TupleSet(2, 2))
    diagonal = TupleSet.from_tuples(2, 2, [(0, 0), (1, 1)])
    assert preserves_relation(op, diagonal)


def test_preserves_relation_matches_brute(min2, maj3, xor3):
    pair = SubsetPair(2, 1, 2)
    rels = [
        subset_pair_relation(pair, 1),
        subset_pair_relation(pair, 2),
        TupleSet.from_tuples(2, 3, [(0, 0, 1), (1, 0, 1), (1, 1, 1)]),
    ]
    ops = [min2.operation("min"), maj3.operation("maj"), xor3.operation("xor3")]
    for rel in rels:
        members = set(rel)
        for op in ops:
            assert preserves_relation(op, rel) == brute_preserves(op, members)


def test_preserves_relation_rejections(min2):
    op = min2.operation("min")
    sigma2 = subset_pair_relation(SubsetPair(2, 1, 2), 2)
    with pytest.raises(BudgetExceededError):
        preserves_relation(op, sigma2, limits=Limits(combinations=10))
    with pytest.raises(PreconditionError):
        preserves_relation(op, TupleSet.full(3, 1))


# -- counterexample matrices ------------------------------------------------


def test_counterexample_min(min2):
    pair = SubsetPair(2, 1, 2)
    ce = projectivity_counterexample(min2.operation("min"), pair)
    assert ce.rows == ((1, 0), (1, 1), (0, 1), (1, 1))
    assert ce.image == (0, 1, 0, 1)
    assert ce.render() == [
        "operation: min",
        "alpha: {0}",
        "beta: {1}",
        "rows: 4",
        "row 1: 1 0",
        "row 2: 1 1",
        "row 3: 0 1",
        "row 4: 1 1",
        "image: 0 1 0 1",
    ]


def test_counterexample_columns_meet_relation(maj3):
    pair = SubsetPair(2, 1, 2)
    op = maj3.operation("maj")
    ce = projectivity_counterexample(op, pair)
    sigma = subset_pair_relation(pair, op.arity)
    for i in range(op.arity):
        assert tuple(row[i] for row in ce.rows) in sigma
    assert ce.image not in sigma
    assert len(ce.rows) == 2 * op.arity


def test_counterexample_rejects_projective_ops(egp3):
    pair = SubsetPair(3, 3, 6)
    with pytest.raises(PreconditionError):
        projectivity_counterexample(egp3.operation("f"), pair)


def test_counterexample_requires_idempotence(non_idem):
    with pytest.raises(NotIdempotentError):
        projectivity_counterexample(non_idem.operation("czero"), SubsetPair(2, 1, 2))


# -- bounds and blockers -----------------------------------------------------


def test_egp_lower_bound_is_no_bound_on_the_nth_power(proj2):
    # projections_k2 is EGP, and A^4 over two elements is generated by its
    # 16 tuples (with no operations, by none fewer), below 70/4 = 17.5.
    assert egp_lower_bound(4, 2) == Fraction(35, 2)
    assert decide_egp_idempotent(proj2).egp
    assert min_generating_size(proj2, 4).size == 16 < egp_lower_bound(4, 2)


def test_egp_lower_bound_values():
    assert egp_lower_bound(1, 1) == 1
    assert egp_lower_bound(2, 1) == 3
    assert egp_lower_bound(3, 2) == 5
    assert egp_lower_bound(1, 5) == Fraction(1, 16)
    with pytest.raises(PreconditionError):
        egp_lower_bound(0, 1)
    with pytest.raises(PreconditionError):
        egp_lower_bound(1, 0)


def test_find_blocker_examples(proj2, xor3, egp3, min2):
    assert find_blocker_bounded(proj2, [0], 3) == (0,)
    assert find_blocker_bounded(xor3, [0], 3) is None
    assert find_blocker_bounded(egp3, [1], 2) == (0, 1)
    assert find_blocker_bounded(min2, [0], 3) == (0,)
    assert find_blocker_bounded(min2, [1], 3) is None


def test_find_blocker_rejections(xor3, non_idem):
    with pytest.raises(PreconditionError):
        find_blocker_bounded(xor3, [], 2)
    with pytest.raises(PreconditionError):
        find_blocker_bounded(xor3, [0, 1], 2)
    with pytest.raises(PreconditionError):
        find_blocker_bounded(xor3, [0], 0)
    with pytest.raises(PreconditionError):
        find_blocker_bounded(xor3, [0, 7], 2)
    with pytest.raises(NotIdempotentError):
        find_blocker_bounded(non_idem, [0], 2)
    with pytest.raises(BudgetExceededError):
        find_blocker_bounded(xor3, [0], 30)
