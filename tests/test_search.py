"""The exact generating-set search against the unmemoized reference in
tests/oracles.py, budget by budget, and the growth rows against their
closed forms.

The search keeps a closure memo per call.  It must visit the same nodes in
the same order as the reference, so at every node budget and every step
budget it gives the reference's answer or the reference's refusal, and the
memo must be gone once the search returns or raises.
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
    TupleSet,
    closure_extend,
    growth_profile,
    load_algebra,
    min_generating_size,
)
from genpow.criteria import _ExactSearch
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


def mask_of(encodings):
    return sum(1 << e for e in encodings)


def members_of(mask, space):
    return [e for e in range(space) if mask >> e & 1]


@pytest.mark.parametrize("limits", [Limits(), Limits(dense=0)], ids=["dense", "sparse"])
def test_packed_bits_round_trip(xor3, limits):
    """The search holds a closed set as its membership mask and the memo
    stores it in `width` bytes, ceil(k**n / 8); a random set comes back
    from the stored bytes with the members it had."""
    rng = random.Random(7)
    for n in (1, 3, 4, 9):
        members = rng.sample(range(2**n), rng.randrange(2**n + 1))
        ts = TupleSet.from_encodings(2, n, members, limits=limits)
        width = _ExactSearch(xor3, n, limits).width
        stored = mask_of(ts.encodings().tolist()).to_bytes(width, "little")
        assert len(stored) == -(-(2**n) // 8)
        back = members_of(int.from_bytes(stored, "little"), 2**n)
        assert TupleSet.from_encodings(2, n, back, limits=limits) == ts
    # The search gives the same answer on either backend.
    assert package(xor3, 3, limits) == package(xor3, 3, Limits())


def test_every_stored_closure_is_its_parent_closed_with_its_pick(xor3):
    """A memo row [lo, children] holds the closures of its parent set with
    the tuples outside it, from slot lo on.  At xor3 n = 4 some parent
    sets are reached from picks with different last elements, so their
    rows start at different slots and some grow at the front; every stored
    closure must still be that of the parent and its tuple."""
    search = _ExactSearch(xor3, 4, Limits())
    assert next(t for t in range(1, 17) if search.extend([], 0, t)) == 5
    w = search.width
    stored = 0
    for mask, (lo, row) in search.memo.items():
        parent = TupleSet.from_encodings(2, 4, members_of(mask, 16))
        outside = [e for e in range(16) if not parent.has_encoding(e)]
        assert len(row) % w == 0 and lo + len(row) // w <= len(outside)
        for i in range(len(row) // w):
            child = int.from_bytes(row[i * w : (i + 1) * w], "little")
            e = outside[lo + i]
            grown = closure_extend(xor3, parent, [e])
            assert child == mask_of(grown.encodings().tolist()), (mask, e)
            stored += 1
    # One stored closure per closure the search computed.
    assert stored == 1297


def test_a_visit_below_a_row_start_computes_without_storing(xor3):
    """A row starts where the first visit of its set starts.  A later
    visit from a lower slot counts every node, computes the closures
    below the row's start and leaves the row as it was."""
    search = _ExactSearch(xor3, 4, Limits())
    calls = []
    close = search.close
    search.close = lambda *args: calls.append(1) or close(*args)
    # xor3 is idempotent, so {9} is closed; slot 9 holds tuple 10.
    parent = 1 << 9
    assert search.extend([9], parent, 2) is None
    assert list(search.memo) == [parent]
    lo, row = search.memo[parent]
    assert (lo, len(row), len(calls)) == (9, 6 * search.width, 6)
    before = bytes(row)
    assert search.extend([1], parent, 2) is None
    # Slots 2..8 are computed and 9..14 found in the row.
    assert (search.nodes, len(calls)) == (6 + 13, 6 + 7)
    assert search.memo[parent][0] == 9 and bytes(search.memo[parent][1]) == before


def _refused_search(algebra, n, limits):
    search = _ExactSearch(algebra, n, limits)
    with pytest.raises(BudgetExceededError) as info:
        for target in range(1, search.space + 1):
            search.extend([], 0, target)
    return search, str(info.value)


def _memo_bytes(search):
    """The budget the memo has taken: `width` bytes per key and per stored
    closure."""
    return sum(search.width + len(row) for _, row in search.memo.values())


def test_memo_grows_with_the_nodes_visited_not_with_the_space(xor3):
    """At k**n = 4096 a search refused at 300 nodes stores at most one
    set per node plus one key per row, `width` = 512 bytes each: about
    0.3 MB, where one row with a slot for every tuple outside the empty
    set would take 2 MB."""
    limits = Limits(exact=4096, nodes=300)
    search, refusal = _refused_search(xor3, 12, limits)
    assert refusal == "exact search exceeded 300 nodes at k**n = 4096"
    assert search.nodes == 301
    stored = _memo_bytes(search)
    assert 0 < stored <= (2 * search.nodes + 1) * search.width
    assert stored + search.room == limits.space // 8


def test_memo_stays_within_the_space_budget(xor3):
    """With room for ten sets the memo stops storing at ten, and the
    search visits the same nodes and is refused the same way."""
    limits = Limits(exact=4096, nodes=300, space=10 * 4096)
    search, refusal = _refused_search(xor3, 12, limits)
    assert refusal == "exact search exceeded 300 nodes at k**n = 4096"
    assert search.room < search.width
    assert _memo_bytes(search) == 10 * search.width
    # With room for the root's key alone, no closure is stored.
    tiny = Limits(space=16)
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
