"""The report records: one ClosureEvidence for both bounded generation
checks, growth rows that keep their generators, and fields that are
derived rather than stored."""

import dataclasses

import pytest

from genpow import (
    ClosureEvidence,
    CrossEqualityWitness,
    GeneratingSet,
    ProjectivityCounterexample,
    SubsetPair,
    cross_equality_witness,
    equal_pair_evidence,
    equal_pair_generates,
    growth_profile,
    is_r_switchable_at,
    load_algebra,
    nice_relation_from_nonswitchability,
    projectivity_counterexample,
    switch_generation_evidence,
)
from tests.conftest import ALGEBRA_DIR
from tests.oracles import brute_closure

CORPUS = {path.stem: load_algebra(path) for path in sorted(ALGEBRA_DIR.glob("*.json"))}


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_both_closure_checks_return_closure_evidence(name):
    algebra = CORPUS[name]
    for m in (1, 2):
        evidence = equal_pair_evidence(algebra, m)
        assert isinstance(evidence, ClosureEvidence)
        assert evidence.params == (("m", m),)
        assert evidence.full is (evidence.closure_count == evidence.space)
        assert evidence.full is equal_pair_generates(algebra, m)
    for r, n in ((0, 3), (1, 3), (1, 4)):
        evidence = switch_generation_evidence(algebra, r, n)
        assert isinstance(evidence, ClosureEvidence)
        assert evidence.params == (("n", n), ("r", r))
        assert evidence.full is (evidence.closure_count == evidence.space)
        assert evidence.full is is_r_switchable_at(algebra, r, n)


def test_equal_pair_closure_stopped_at_its_ceiling_is_not_full():
    # egp3's closure stops at |R_2| = 77 of the 81 tuples of A^4.
    evidence = equal_pair_evidence(CORPUS["egp3"], 2)
    assert (evidence.closure_count, evidence.space) == (77, 81)
    assert evidence.full is False
    assert evidence.render()[0] == "m: 2"
    assert evidence.render()[-1] == "full: no"


def test_full_is_derived_from_the_counts():
    assert "full" not in field_names(ClosureEvidence)
    assert ClosureEvidence((("m", 1),), 3, 4, 4).full is True
    assert ClosureEvidence((("n", 2), ("r", 0)), 2, 2, 4).full is False


@pytest.mark.parametrize("mode", ["exact", "greedy"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_growth_rows_carry_generators_that_generate_the_power(name, mode):
    algebra = CORPUS[name]
    profile = growth_profile(algebra, 3, mode=mode)
    assert [row.n for row in profile.rows] == [1, 2, 3]
    for row in profile.rows:
        assert isinstance(row, GeneratingSet)
        assert len(row.generators) == row.size
        assert len(brute_closure(algebra, row.generators)) == algebra.k**row.n, (name, row)


def test_the_greedy_egp3_row_at_n_3_generates():
    row = growth_profile(CORPUS["egp3"], 3).rows[2]
    assert (row.n, row.size, row.mode) == (3, 11, "greedy")
    assert row.reason is not None
    assert len(brute_closure(CORPUS["egp3"], row.generators)) == 27


def test_witness_arity_is_derived():
    assert "arity" not in field_names(CrossEqualityWitness)
    assert "arity" not in field_names(ProjectivityCounterexample)
    op = CORPUS["min2"].operations[0]
    counterexample = projectivity_counterexample(op, SubsetPair.from_elements(2, [0], [1]))
    assert counterexample.arity == op.arity == len(counterexample.rows[0]) == 2
    rel = nice_relation_from_nonswitchability(CORPUS["projections_k2"], 7, 9)
    witness = cross_equality_witness(rel, 1, 2)
    assert witness.arity == witness.relation.n == 2 * 1 + 2
