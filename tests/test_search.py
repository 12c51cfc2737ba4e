"""The exact generating-set search against the unmemoized reference in
tests/oracles.py, budget by budget, and the growth rows against their
closed forms.

The search keeps a closure memo per call, from a closed set's membership
mask and a pick to the mask of their closure.  It must visit the same nodes
in the same order as the reference, so at every node budget and every step
budget it gives the reference's answer or the reference's refusal.  While
the memo has room it closes no (closed set, pick) twice, it stops storing
at its room, and it must be gone once the search returns or raises.
"""

import functools
import gc
import itertools
import random

import pytest

import genpow.subpower
from genpow import (
    Algebra,
    BudgetExceededError,
    Limits,
    OperationTable,
    TupleSet,
    closure_extend,
    growth_profile,
    load_algebra,
    min_generating_size,
)
from genpow.criteria import _MEMO_ENTRY_BITS, _ExactSearch
from tests.conftest import corpus_path
from tests.oracles import (
    CLOSED_FORM_GROWTH,
    brute_closure,
    gf2_affine_rank,
    random_op,
    random_table_op,
    reference_exact_minimum,
)

CORPUS = ("projections_k2", "xor3", "min2", "majority3", "egp3", "non_idempotent")
STEP_BUDGETS = (0, 5, 10, 20, 50, 100, 200, 500)
# Rows whose reference needs at most this many nodes (corpus, random) are
# swept at every node budget up to their need; a node sweep visits about
# need**2 / 2 nodes.  Larger rows are checked at budgets up to the cap,
# and larger corpus rows also at the default budgets.
SWEEP_CAP = {"corpus": 300, "random": 100}


def _random_algebras():
    """60 seeded one-operation algebras: k 2..3, arity 1..3, half of them
    idempotent."""
    for seed in range(60):
        rng = random.Random(seed)
        k, arity, idempotent = 2 + seed % 2, 1 + seed // 2 % 3, seed % 4 < 2
        op = random_table_op(k, arity, rng, idempotent)
        yield f"random{seed}", Algebra(k=k, operations=(op,))


ALGEBRAS = {name: load_algebra(corpus_path(name)) for name in CORPUS}
ALGEBRAS.update(_random_algebras())
# projections_k2 has no operations, so it never reaches the search.
ROWS = [
    (name, n)
    for name, algebra in ALGEBRAS.items()
    if algebra.operations
    for n in itertools.takewhile(lambda n: algebra.k**n <= 27, itertools.count(1))
]


def outcome(search, algebra, n, limits):
    """The encodings a search returns, or the message it refuses with."""
    try:
        return tuple(search(algebra, n, limits))
    except BudgetExceededError as exc:
        return str(exc)


def package(algebra, n, limits):
    return min_generating_size(algebra, n, mode="exact", limits=limits).encodings


def reference(algebra, n, limits):
    return reference_exact_minimum(algebra, n, limits)[0]


def sweep_cap(name):
    return SWEEP_CAP["corpus" if name in CORPUS else "random"]


@functools.lru_cache(maxsize=None)
def unbudgeted(name, n):
    """The reference's answer and the nodes it visits for it, or None when
    it needs more than the row's sweep cap."""
    try:
        return reference_exact_minimum(ALGEBRAS[name], n, Limits(nodes=sweep_cap(name)))
    except BudgetExceededError:
        return None


def expected_at(name, n, nodes):
    """The reference's outcome at a node budget, for a row under the sweep
    cap.  It visits nodes in an order that does not depend on the budget
    and checks the budget before each visit, so it refuses at the
    budget's first node past it iff it needs more nodes than that;
    test_expected_at_is_the_reference checks this against real runs."""
    answer, need = unbudgeted(name, n)
    if nodes >= need:
        return answer
    return f"exact search exceeded {nodes} nodes at k**n = {ALGEBRAS[name].k**n}"


IDS = [f"{name}-n{n}" for name, n in ROWS]


def test_expected_at_is_the_reference():
    for name, n in ROWS:
        if unbudgeted(name, n) is not None:
            need = unbudgeted(name, n)[1]
            for nodes in {0, need // 2, need - 1, need}:
                result = outcome(reference, ALGEBRAS[name], n, Limits(nodes=nodes))
                assert result == expected_at(name, n, nodes), (name, n, nodes)


@pytest.mark.parametrize("name, n", ROWS, ids=IDS)
def test_node_budget_sweep_matches_the_reference(name, n):
    """Every budget from 0 to need + 1 under the sweep cap; a few budgets
    up to the cap, all refused, on a larger row."""
    algebra = ALGEBRAS[name]
    swept = unbudgeted(name, n) is not None
    cap = sweep_cap(name)
    for nodes in range(unbudgeted(name, n)[1] + 2) if swept else (0, 1, cap // 2, cap):
        limits = Limits(nodes=nodes)
        if swept:
            expected = expected_at(name, n, nodes)
        else:
            expected = outcome(reference, algebra, n, limits)
        assert outcome(package, algebra, n, limits) == expected, nodes


@pytest.mark.parametrize("name, n", ROWS, ids=IDS)
def test_step_budget_sweep_matches_the_reference(name, n):
    """Every step budget, under the default node budget for a row under
    the sweep cap and under the cap for a larger one."""
    nodes = Limits().nodes if unbudgeted(name, n) is not None else sweep_cap(name)
    for steps in STEP_BUDGETS:
        limits = Limits(steps=steps, nodes=nodes)
        expected = outcome(reference, ALGEBRAS[name], n, limits)
        assert outcome(package, ALGEBRAS[name], n, limits) == expected, steps


def test_sweeps_cover_answers_and_both_refusals():
    """Most rows are swept, and their step sweeps meet answers and step
    refusals; the node sweeps meet node refusals by construction."""
    swept = [row for row in ROWS if unbudgeted(*row) is not None]
    assert len(swept) >= 0.6 * len(ROWS)
    kinds = set()
    for name, n in swept:
        for steps in (0, 500):
            result = outcome(reference, ALGEBRAS[name], n, Limits(steps=steps))
            kinds.add("answer" if isinstance(result, tuple) else result.split()[0])
    assert kinds == {"answer", "closure"}


def test_large_corpus_rows_match_at_the_default_budgets():
    """Corpus rows above the sweep cap agree at the default budgets:
    answers with their least-encoding tie-break, and the node refusals of
    egp3 at n = 3 (the benchmark's row) and non_idempotent at n = 4."""
    big = [row for row in ROWS if row[0] in CORPUS and unbudgeted(*row) is None]
    assert big == [
        ("xor3", 4), ("min2", 4), ("majority3", 4), ("egp3", 3),
        ("non_idempotent", 3), ("non_idempotent", 4),
    ]
    results = {}
    for name, n in big:
        results[name, n] = outcome(reference, ALGEBRAS[name], n, Limits())
        assert outcome(package, ALGEBRAS[name], n, Limits()) == results[name, n]
    assert results["egp3", 3] == "exact search exceeded 20000 nodes at k**n = 27"
    assert results["non_idempotent", 4] == "exact search exceeded 20000 nodes at k**n = 16"
    assert results["min2", 4] == (7, 11, 13, 14, 15)


def search_outcome(search):
    """The encodings a search returns with its node count, or the message
    it refuses with."""
    try:
        for target in range(1, search.space + 1):
            found = search.extend([], 0, target)
            if found is not None:
                return tuple(found), search.nodes
    except BudgetExceededError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "name, n",
    [("egp3", 2), ("egp3", 3), ("min2", 3), ("min2", 4), ("non_idempotent", 3)],
)
def test_forced_test_at_its_step_guard_edge(name, n):
    """The last pick is tested against the forced tuples only while no
    closure can be refused by steps: at a step budget of sum (k**n)**arity
    and not one below.  On both sides the search gives the reference's
    answer after the reference's nodes, or its refusal."""
    algebra = ALGEBRAS[name]
    edge = sum((algebra.k**n) ** op.arity for op in algebra.operations)
    for steps in (edge, edge - 1):
        search = _ExactSearch(algebra, n, Limits(steps=steps))
        assert (search.forced != 0) is (steps == edge)
        expected = outcome(reference_exact_minimum, algebra, n, Limits(steps=steps))
        assert search_outcome(search) == expected, steps


def test_egp3_search_closes_at_most_3000_sets():
    """egp3 at n = 3 is still refused at node 20,001, the benchmark's
    greedy row, but it closes at most 3,000 sets on the way where it
    closed 15,743 without the forced test: most closures were last picks
    of the last, refused iteration."""
    search = _ExactSearch(ALGEBRAS["egp3"], 3, Limits())
    calls = []
    close = search.close
    search.close = lambda *args: calls.append(1) or close(*args)
    assert search_outcome(search) == "exact search exceeded 20000 nodes at k**n = 27"
    assert search.nodes == 20_001 and len(calls) <= 3000


def test_wholly_skipped_last_picks_are_checked_at_once(monkeypatch):
    """A last pick whose closed set leaves out two forced tuples skips
    every slot, so its slots are counted and checked against the node
    budget in one step.  egp3 at n = 3 is still refused at node 20,001,
    after about 5,600 node checks instead of one per node."""
    checks = []
    check = Limits.check_nodes
    monkeypatch.setattr(
        Limits, "check_nodes",
        lambda limits, nodes, space: checks.append(nodes) or check(limits, nodes, space),
    )
    search = _ExactSearch(ALGEBRAS["egp3"], 3, Limits())
    assert search_outcome(search) == "exact search exceeded 20000 nodes at k**n = 27"
    assert search.nodes == checks[-1] == 20_001
    assert len(checks) <= 6000


def mask_of(encodings):
    return sum(1 << e for e in encodings)


def members_of(mask, space):
    return [e for e in range(space) if mask >> e & 1]


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_packed_bits_round_trip(xor3, backend, sparse):
    """The search holds a closed set as its membership mask, one bit per
    tuple; a random set comes back from its mask with the members it
    had."""
    rng = random.Random(7)
    with sparse(backend == "sparse"):
        for n in (1, 3, 4, 9):
            members = rng.sample(range(2**n), rng.randrange(2**n + 1))
            ts = TupleSet.from_encodings(2, n, members)
            mask = mask_of(ts.encodings().tolist())
            assert mask.bit_length() <= 2**n
            assert TupleSet.from_encodings(2, n, members_of(mask, 2**n)) == ts
        found = package(xor3, 3, Limits())
    # The search gives the same answer on either backend.
    assert found == package(xor3, 3, Limits())


def test_every_stored_closure_is_its_parent_closed_with_its_pick(xor3):
    """The memo maps (closed, e) to the closure of the closed set and the
    tuple e.  At xor3 n = 4 some closed sets are reached from picks with
    different last elements, so their closures are looked up from
    different first picks; every stored closure must still be that of
    its set and its tuple."""
    search = _ExactSearch(xor3, 4, Limits())
    assert next(t for t in range(1, 17) if search.extend([], 0, t)) == 5
    for (mask, e), child in search.memo.items():
        parent = TupleSet.from_encodings(2, 4, members_of(mask, 16))
        assert not parent.has_encoding(e)
        grown = closure_extend(xor3, parent, [e])
        assert child == mask_of(grown.encodings().tolist()), (mask, e)
    # One stored closure per closure the search computed.
    assert len(search.memo) == 1297


# A binary operation on k = 3 whose search revisits closed sets from picks
# below where it first visited them.
K3_BINARY = Algebra(k=3, operations=(OperationTable("f", 2, 3, (0, 1, 0, 0, 1, 0, 2, 1, 2)),))


@pytest.mark.parametrize(
    "algebra, n, calls", [(K3_BINARY, 2, 92), (ALGEBRAS["xor3"], 4, 1297)], ids=["k3", "xor3"]
)
def test_no_closure_is_computed_twice_while_the_memo_has_room(algebra, n, calls):
    """While the memo has room, a closed set and a pick are closed at most
    once.  K3_BINARY at n = 2 revisits closed sets after the picks (2, 3),
    (0, 2, 3) and (1, 2, 3), from picks below their first visit's, and
    still closes each (closed, e) once; both searches give the reference's
    answer after the reference's number of nodes."""
    search = _ExactSearch(algebra, n, Limits())
    made = []
    close = search.close
    search.close = lambda closed, e: made.append((closed, e)) or close(closed, e)
    found = search_outcome(search)
    assert len(made) == len(set(made)) == len(search.memo) == calls
    assert found == reference_exact_minimum(algebra, n, Limits())
    if algebra is K3_BINARY:
        assert found == ((1, 3, 4, 8), 299)


def _refused_search(algebra, n, limits):
    search = _ExactSearch(algebra, n, limits)
    with pytest.raises(BudgetExceededError) as info:
        for target in range(1, search.space + 1):
            search.extend([], 0, target)
    return search, str(info.value)


def test_memo_grows_with_the_nodes_visited_not_with_the_space(xor3):
    """At k**n = 4096 a search refused at 300 nodes stores at most one
    closure per node it visited, far below the room of the default space
    budget: k**n bits and _MEMO_ENTRY_BITS per closure."""
    limits = Limits(exact=4096, nodes=300)
    search, refusal = _refused_search(xor3, 12, limits)
    assert refusal == "exact search exceeded 300 nodes at k**n = 4096"
    assert search.nodes == 301
    assert 0 < len(search.memo) <= search.nodes
    assert search.room == limits.space // (4096 + _MEMO_ENTRY_BITS) == 12_671


def test_memo_stays_within_the_space_budget(xor3):
    """With room for ten closures the memo stops storing at ten, and the
    search visits the same nodes and is refused the same way."""
    limits = Limits(exact=4096, nodes=300, space=10 * (4096 + _MEMO_ENTRY_BITS) + 1)
    search, refusal = _refused_search(xor3, 12, limits)
    assert refusal == "exact search exceeded 300 nodes at k**n = 4096"
    assert search.room == len(search.memo) == 10
    # With no room, no closure is stored.
    tiny = Limits(space=16)
    assert _ExactSearch(xor3, 4, tiny).room == 0
    assert package(xor3, 4, tiny) == reference(xor3, 4, tiny) == package(xor3, 4, Limits())


def _tuple_sets_made(monkeypatch, run):
    """run()'s outcome and the TupleSets constructed meanwhile."""
    made = []
    init = TupleSet.__init__
    monkeypatch.setattr(
        TupleSet, "__init__", lambda ts, *a, **kw: made.append(1) or init(ts, *a, **kw)
    )
    try:
        return run(), len(made)
    finally:
        monkeypatch.undo()


def test_one_block_searches_close_on_lists(egp3, min2, monkeypatch):
    """On one-block layouts a node's closure makes no TupleSet unless a
    round hands it over to numpy: egp3 at n = 3 (20,000 nodes, then
    refused) makes at most one, min2 at n = 4 none.  A multi-block layout
    (a ternary operation at k**n = 81) makes one per closure for the numpy
    rounds, and its answer is still the reference's."""
    refusal, made = _tuple_sets_made(
        monkeypatch, lambda: outcome(package, egp3, 3, Limits())
    )
    assert refusal == "exact search exceeded 20000 nodes at k**n = 27" and made <= 1
    answer, made = _tuple_sets_made(
        monkeypatch, lambda: outcome(package, min2, 4, Limits())
    )
    assert answer == (7, 11, 13, 14, 15) and made == 0
    ternary = Algebra(k=3, operations=(random_op(3, 3, 0),))
    assert genpow.subpower._block_columns(ternary.operations[0], 4)[0] < 4
    answer, made = _tuple_sets_made(
        monkeypatch, lambda: outcome(package, ternary, 4, Limits())
    )
    assert answer == reference(ternary, 4, Limits()) == (1, 15) and made > 0


def test_multi_block_nodes_copy_no_tuple_set(monkeypatch):
    """A node of a multi-block search (the ternary algebra at k**n = 81
    above) hands the tuples it knows to the numpy rounds as they are: it
    copies no TupleSet and calls no closure_extend."""
    ternary = Algebra(k=3, operations=(random_op(3, 3, 0),))
    copies, extends, closes = [], [], []
    copy, close = TupleSet.copy, _ExactSearch.__init__
    monkeypatch.setattr(TupleSet, "copy", lambda ts: copies.append(1) or copy(ts))
    monkeypatch.setattr(
        genpow.subpower,
        "closure_extend",
        lambda *a, **kw: extends.append(1) or closure_extend(*a, **kw),
    )

    def counted_init(search, *args):
        close(search, *args)
        extend = search.close
        search.close = lambda members, e: closes.append(1) or extend(members, e)

    monkeypatch.setattr(_ExactSearch, "__init__", counted_init)
    assert package(ternary, 4, Limits()) == (1, 15)
    assert len(closes) > 0 and copies == extends == []


@pytest.mark.parametrize("nodes", [None, 50])
def test_no_memo_outlives_its_search(egp3, nodes):
    """With the collector off, a search that answers (egp3 at n = 2) or is
    refused (n = 3 at 50 nodes) leaves no cyclic garbage behind: its memo
    is freed by reference counting when the search returns or raises."""
    limits = Limits() if nodes is None else Limits(nodes=nodes)
    gc.collect()
    gc.disable()
    try:
        try:
            min_generating_size(egp3, 2 if nodes is None else 3, mode="exact", limits=limits)
        except BudgetExceededError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- growth rows against closed forms -------------------------------------

# Per corpus file, the rows `growth --n-max n_max` prints at the default
# budgets, with the size of each greedy row.  Every other row is exact.
# Rows past n_max are greedy: the node budget refuses xor3, min2 and
# majority3 at n = 5.  projections_k2 has no operations, so its rows are
# exact at every n; 8 is where the exact-search space budget would end.
GROWTH_ROWS = {
    "xor3": (4, {}),
    "min2": (4, {}),
    "majority3": (4, {}),
    "projections_k2": (8, {}),
    "non_idempotent": (4, {4: 16}),
    "egp3": (3, {3: 11}),
}


@pytest.mark.parametrize("name", sorted(GROWTH_ROWS))
def test_growth_rows_match_closed_forms(name):
    algebra = ALGEBRAS[name]
    n_max, greedy = GROWTH_ROWS[name]
    profile = growth_profile(algebra, n_max)
    assert [row.n for row in profile.rows] == list(range(1, n_max + 1))
    for row in profile.rows:
        truth = CLOSED_FORM_GROWTH[name](row.n)
        if row.n in greedy:
            assert (row.mode, row.size) == ("greedy", greedy[row.n])
            assert row.size >= truth
            continue
        assert (row.mode, row.size) == ("exact", truth)
        generators = min_generating_size(algebra, row.n).generators
        full = set(itertools.product(range(algebra.k), repeat=row.n))
        assert brute_closure(algebra, generators) == full
        if name == "xor3":
            assert gf2_affine_rank(generators) == row.n
