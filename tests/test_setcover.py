"""Cover solvers against an exhaustive oracle, including the canonical
lexicographically-smallest witness contract of the exact solver."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlcm import (
    CirculantGraph,
    CoverInstance,
    DomainError,
    InfeasibleError,
    ProblemInstance,
    decide_cover,
    exact_cover,
    generate_instance,
    greedy_cover,
    prune_links,
    reduce_instance,
    solve,
)
from gcdlcm import setcover
from gcdlcm.jsonio import canonical_json, cover_instance_from_payload, cover_instance_to_payload
from helpers import componentwise_min_cover, exhaustive_min_cover


def inst(universe_size, *sets):
    return CoverInstance(universe_size=universe_size, sets=tuple(tuple(s) for s in sets))


def test_sets_are_canonicalized():
    ci = inst(3, [2, 0, 2], [1])
    assert ci.sets == ((0, 2), (1,))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=70).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(0, n - 1), max_size=12) if n else st.just([]), max_size=8),
        )
    )
)
def test_masks_and_the_sets_view_agree(raw):
    # unsorted index lists with repeats, up to 70 elements (past one
    # machine word)
    n, sets = raw
    ci = CoverInstance(n, sets)
    assert len(ci.masks) == len(ci.sets) == len(sets)
    for s, m, view in zip(sets, ci.masks, ci.sets):
        assert view == tuple(sorted(set(s)))  # sorted, each element once
        assert m == sum(1 << e for e in set(s))
        assert view == tuple(e for e in range(n) if m >> e & 1)
    assert CoverInstance._make((n, ci.masks)) == ci
    text = canonical_json(cover_instance_to_payload(ci))
    assert cover_instance_from_payload(json.loads(text)) == ci


def test_rejects_out_of_range_elements():
    with pytest.raises(DomainError):
        inst(2, [0, 2])
    with pytest.raises(DomainError):
        inst(1, [-1])
    with pytest.raises(DomainError):
        CoverInstance(universe_size=-1, sets=())


def test_rejects_bools():
    # True == 1 passes an isinstance(_, int) check, and the JSON form of
    # such an instance would hold `true` where a number belongs
    with pytest.raises(DomainError):
        inst(2, [True, 0])
    with pytest.raises(DomainError):
        CoverInstance(universe_size=True, sets=((0,),))


@pytest.mark.parametrize("bad", ["x", None, [0]])
def test_rejects_elements_that_are_no_ints(bad):
    # an element is checked before the set is built and sorted: a str or
    # None beside an int does not sort, and a list does not hash
    with pytest.raises(DomainError, match="is not an int in range"):
        inst(3, [0, bad])


def test_empty_universe_needs_no_sets():
    assert exact_cover(inst(0)).chosen == ()
    assert exact_cover(inst(0, [], [])).chosen == ()
    assert greedy_cover(inst(0)).chosen == ()


def test_infeasible_reports_smallest_uncovered_element():
    ci = inst(3, [0], [2])
    for solver in (exact_cover, greedy_cover):
        with pytest.raises(InfeasibleError) as exc:
            solver(ci)
        assert exc.value.certificate == {"uncoverable_element": 1}


def test_greedy_overshoots_on_the_classic_trap(monkeypatch):
    # one big set baits greedy into three picks where two suffice
    ci = inst(6, [0, 1, 2, 3], [0, 1, 4], [2, 3, 5])
    g = greedy_cover(ci)
    e = exact_cover(ci)
    assert g.chosen == (0, 1, 2)
    assert not g.is_optimal
    assert e.chosen == (1, 2)
    assert e.is_optimal
    harmonic = sum(1 / k for k in range(1, ci.universe_size + 1))
    assert g.size <= harmonic * e.size
    # two rows of 15 columns: blocks of 1, 2, 4 and 8 columns across both
    # rows bait greedy into four picks where the two rows suffice, so the
    # descent from greedy's cover goes more than one set below it
    blocks = [range(0, 1), range(1, 3), range(3, 7), range(7, 15)]
    rows = [range(0, 15), range(15, 30)]
    ci = inst(30, *[[e for c in b for e in (c, c + 15)] for b in blocks], *rows)
    assert greedy_cover(ci).chosen == (0, 1, 2, 3)
    # nothing is forced, and the descent starts from greedy's four sets:
    # no decision asks for four or more
    asked = []
    within = setcover._cover_within
    monkeypatch.setattr(setcover, "_cover_within", lambda m, f, k: asked.append(k) or within(m, f, k))
    assert exact_cover(ci).chosen == (4, 5)
    assert asked and max(asked) < 4


def test_greedy_tie_breaks_to_lowest_index():
    ci = inst(2, [0, 1], [0, 1])
    assert greedy_cover(ci).chosen == (0,)


def test_exact_prefers_lexicographically_smaller_indices():
    # both {0,3} and {1,2} are minimum covers; 0 < 1 decides
    ci = inst(4, [0, 1], [0, 1], [2, 3], [2, 3])
    assert exact_cover(ci).chosen == (0, 2)


def test_singleton_answers_are_flagged_optimal():
    ci = inst(3, [0], [0, 1, 2])
    g = greedy_cover(ci)
    assert g.chosen == (1,)
    assert g.is_optimal


def test_decide_cover():
    ci = inst(3, [0, 1], [1, 2], [2])
    assert decide_cover(ci, 2)
    assert not decide_cover(ci, 1)
    assert not decide_cover(ci, -1)
    assert not decide_cover(inst(2, [0]), 5)  # infeasible is a "no"


@pytest.mark.parametrize(
    "ci, witness",
    [
        (CoverInstance(6, [[0, 3], [1, 4], [2, 5], [0, 1, 2], [3, 4, 5]]), (3, 4)),
        (
            reduce_instance(generate_instance(1, 60, 10**4, mode="max-lcm", b_count=2))[0].cover,
            None,
        ),
    ],
    ids=["two-halves", "max-lcm-60"],
)
def test_each_call_kernelizes_once(ci, witness, monkeypatch):
    # the self-reduction's decisions search the suffix as it is; only the
    # public call runs the data reductions
    calls = []
    kernelize = setcover._kernelize
    monkeypatch.setattr(setcover, "_kernelize", lambda *a: calls.append(a) or kernelize(*a))
    sol = exact_cover(ci)
    assert len(calls) == 1
    assert witness is None or sol.chosen == witness
    calls.clear()
    assert decide_cover(ci, sol.size)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "problem",
    [generate_instance(s, 500, 10**4) for s in range(3)]
    + [
        CirculantGraph(30, (6, 10, 15, 7)),
        CirculantGraph(210, (6, 10, 14, 15, 21, 35)),
        CirculantGraph(900, (12, 18, 20, 45, 50, 75, 7)),
        CirculantGraph(2310, (210, 1155, 770, 462, 330, 77, 35)),
    ],
    ids=[f"min-gcd-{s}" for s in range(3)] + [f"circulant-{m}" for m in (30, 210, 900, 2310)],
)
def test_the_root_bound_refutes_the_descents_last_step(problem, monkeypatch):
    # on these min-gcd covers ceil(|full| / largest set) refutes one set
    # fewer than the optimum, so no decision builds the packing index;
    # without that bound each one is built 1 to 5 times
    def no_packing(masks, full):
        raise AssertionError("the packing index was built")

    monkeypatch.setattr(setcover, "_packing", no_packing)
    if isinstance(problem, ProblemInstance):
        assert solve(problem).s
    else:
        assert prune_links(problem)


@st.composite
def cover_instances(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=6))
    elems = st.integers(min_value=0, max_value=n - 1)
    sets = tuple(tuple(sorted(draw(st.sets(elems, max_size=n)))) for _ in range(k))
    return CoverInstance(universe_size=n, sets=sets)


@st.composite
def planted_cover_instances(draw):
    """Up to 10 x 10 covers with planted kernelization targets: elements
    held by one set only (forcing it) and repeated sets (duplicates)."""
    n = draw(st.integers(min_value=1, max_value=10))
    k = draw(st.integers(min_value=1, max_value=7))
    label = draw(st.permutations(range(n)))
    private = draw(st.integers(min_value=0, max_value=n))
    sets = [set() for _ in range(k)]
    if private < n:
        shared = st.integers(min_value=private, max_value=n - 1)
        sets = [draw(st.sets(shared, max_size=n - private)) for _ in range(k)]
    for e in range(private):
        sets[draw(st.integers(min_value=0, max_value=k - 1))].add(e)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        copy = sets[draw(st.integers(min_value=0, max_value=len(sets) - 1))]
        sets.insert(draw(st.integers(min_value=0, max_value=len(sets))), copy)
    relabelled = tuple(tuple(sorted(label[e] for e in s)) for s in sets)
    return CoverInstance(universe_size=n, sets=relabelled)


@settings(max_examples=800, deadline=None)
@given(st.one_of(cover_instances(), planted_cover_instances()))
def test_exact_matches_exhaustive_oracle(ci):
    oracle = exhaustive_min_cover(ci.universe_size, ci.sets)
    if oracle is None:
        with pytest.raises(InfeasibleError):
            exact_cover(ci)
        assert not decide_cover(ci, len(ci.sets))
        return
    size, witness = oracle
    sol = exact_cover(ci)
    assert sol.size == size
    assert sol.chosen == witness, "exact witness must be the lex-smallest minimum cover"
    # kernelization must not change what the search alone returns
    masks = ci.masks
    full = (1 << ci.universe_size) - 1
    assert sol.chosen == tuple(setcover._exact_search(masks, full))
    # the packing lower bound at the root never exceeds the optimum
    _, packing = setcover._packing(masks, full)
    assert packing(full, len(masks) + 1)[0] <= size
    for k in range(len(ci.sets) + 1):
        assert decide_cover(ci, k) == (k >= size)
        # the search alone, on the raw family, decides the same; above the
        # optimum it returns some cover within k, not always a smallest one
        found = setcover._cover_within(list(masks), full, k)
        assert (found is not None) == (k >= size)
        if found is not None:
            assert len(set(found)) == len(found) <= k
            assert set().union(*(ci.sets[i] for i in found)) == set(range(ci.universe_size))


@settings(max_examples=400, deadline=None)
@given(cover_instances())
def test_greedy_covers_within_harmonic_bound(ci):
    if exhaustive_min_cover(ci.universe_size, ci.sets) is None:
        return
    g = greedy_cover(ci)
    covered = set()
    for i in g.chosen:
        covered.update(ci.sets[i])
    assert covered == set(range(ci.universe_size))
    opt = exact_cover(ci).size
    bound = (math.log(ci.universe_size) + 1) * opt if opt else 0
    assert g.size <= bound or g.size == opt


def test_exact_cover_is_deterministic():
    ci = inst(5, [0, 1], [1, 2], [2, 3], [3, 4], [0, 4], [0, 1, 2])
    results = {exact_cover(ci).chosen for _ in range(5)}
    assert len(results) == 1


@pytest.mark.parametrize("copies", [1, 2])
def test_exact_cover_deep_forced_instance(copies):
    # 1500 singletons, once or listed twice: kernelization takes every set
    # as forced (after dropping the later copies) without searching
    ci = CoverInstance(1500, tuple((i,) for i in range(1500)) * copies)
    assert exact_cover(ci).chosen == tuple(range(1500))


_CYCLE = tuple((i, (i + 1) % 2100) for i in range(2100))
# greedy takes (0, 1, 2, 3) first and then two more sets where two suffice;
# in front of the shifted cycle it makes the size search branch 1052 deep
_TRAP = ((0, 1, 2, 3), (0, 1, 4), (2, 3, 5), (4,), (5,))
_TRAPPED_CYCLE = _TRAP + tuple((6 + a, 6 + b) for a, b in _CYCLE)


@pytest.mark.parametrize(
    "ci, witness",
    [
        (CoverInstance(2100, _CYCLE), tuple(range(0, 2100, 2))),
        (CoverInstance(2106, _TRAPPED_CYCLE), (1, 2) + tuple(range(5, 2105, 2))),
    ],
    ids=["cycle", "trapped-cycle"],
)
def test_exact_cover_deep_search_without_forced_sets(ci, witness):
    # cycles of pairs {i, i + 1 mod 2100}: nothing is forced, and the
    # search goes more than 1050 sets deep, past the default recursion limit
    assert exact_cover(ci).chosen == witness


def test_exact_cover_matches_componentwise_oracle_on_a_large_residual():
    # what kernelization leaves of a 1000-value max-lcm cover: 17 connected
    # components of at most 17 sets, each small enough to enumerate
    cover = reduce_instance(generate_instance(1, 1000, 10**6, mode="max-lcm", b_count=2))[0].cover
    _, live, uncovered, _ = setcover._kernelize(cover.masks, (1 << cover.universe_size) - 1)
    kept = [e for e in range(cover.universe_size) if uncovered >> e & 1]
    label = {e: k for k, e in enumerate(kept)}
    residual = CoverInstance(
        len(label), tuple(tuple(label[e] for e in cover.sets[i] if e in label) for i in live)
    )
    assert len(residual.sets) > 80
    size, witness = componentwise_min_cover(residual.universe_size, residual.sets)
    assert exact_cover(residual).chosen == witness
    assert decide_cover(residual, size) and not decide_cover(residual, size - 1)
