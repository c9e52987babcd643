"""End-to-end solver pipeline against the independent brute-force oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcdlcm import (
    BRUTE_FORCE_CAP,
    CapExceededError,
    DomainError,
    ProblemInstance,
    brute_force,
    decide,
    eliminate_b,
    generate_instance,
    solve,
)
from helpers import set_value


def mk(a, b=(), mode="min-gcd"):
    return ProblemInstance(a=tuple(a), b=tuple(b), mode=mode)


def test_instance_validation():
    with pytest.raises(DomainError):
        mk([], [])
    with pytest.raises(DomainError):
        mk([6], mode="max-gcd")
    with pytest.raises(DomainError):
        mk([0, 6])
    assert mk([], [3]).a == ()
    assert mk([10, 6, 6]).a == (6, 10)


def test_min_gcd_needs_all_three():
    sol = solve(mk([6, 10, 15]))
    assert sol.s == (6, 10, 15)
    assert sol.achieved == sol.target == 1
    assert sol.optimal


def test_min_gcd_four_element_pin():
    assert solve(mk([30, 42, 70, 105])).size == 4


def test_max_lcm_pin():
    sol = solve(mk([4, 6, 9], mode="max-lcm"))
    assert sol.s == (4, 9)
    assert sol.achieved == 36


# Canonical answers on seeded max-lcm sets of values <= 1e4, where most
# cover sets are forced and a small residual is left to search.
SEEDED_MAX_LCM_PINS = [
    ((2, 44, 2), (
        169, 281, 452, 722, 842, 1244, 1270, 1525, 2025, 2834, 2836, 2878, 2962, 3334, 4591, 4670,
        4681, 4837, 4903, 6775, 7328, 7441, 7840, 7921, 7981, 8613, 8714, 9263, 9536, 9687, 9990,
    )),
    ((5, 60, 0), (
        103, 573, 845, 940, 981, 982, 1142, 1213, 1795, 1807, 2389, 2734, 3127, 3207, 3792, 3870,
        4461, 4864, 5125, 5390, 5770, 5783, 5910, 6178, 6200, 6310, 6401, 7226, 7593, 7596, 7609,
        7748, 7751, 7834, 7933, 8312, 8466, 8520, 9072, 9191, 9411, 9419, 9488, 9623,
    )),
    ((213, 60, 0), (
        537, 571, 787, 1060, 1293, 1301, 1413, 1579, 2689, 2951, 3053, 3134, 3380, 3578, 3743,
        3776, 3907, 3972, 4034, 4402, 4533, 4546, 4829, 4961, 5065, 5167, 5439, 5683, 6766, 6773,
        6796, 7337, 8059, 8224, 8300, 8776, 9173, 9714, 9720, 9723, 9944,
    )),
]


@pytest.mark.parametrize("params,expected", SEEDED_MAX_LCM_PINS)
def test_seeded_max_lcm_pins(params, expected):
    seed, count, b_count = params
    inst = generate_instance(seed, count, 10**4, mode="max-lcm", b_count=b_count)
    assert solve(inst).s == expected


def test_b_alone_attaining_target_gives_empty_s():
    sol = solve(mk([4, 6], [2]))
    assert sol.s == ()
    assert sol.achieved == 2
    sol = solve(mk([4], [8], mode="max-lcm"))
    assert sol.s == ()
    assert sol.achieved == 8


def test_singleton_and_one_element_sets():
    assert solve(mk([5])).s == (5,)
    assert brute_force(mk([5])).s == (5,)
    assert brute_force(mk([2, 4], mode="max-lcm")).s == (4,)


def test_all_ones_instance():
    sol = solve(mk([1]))
    assert sol.s == (1,)
    assert sol.achieved == 1
    assert solve(mk([1], mode="max-lcm")).s == ()


def test_decide_examples():
    assert not decide(mk([6, 10, 15]), 2)
    assert decide(mk([4, 9, 6]), 2)
    assert decide(mk([4], [8], mode="max-lcm"), 0)
    with pytest.raises(DomainError):
        decide(mk([6]), -1)


def test_brute_force_cap():
    big = mk(list(range(2, 2 + BRUTE_FORCE_CAP + 1)))
    with pytest.raises(CapExceededError):
        brute_force(big)
    assert brute_force(big, cap=BRUTE_FORCE_CAP + 1).achieved == big_target(big)


def big_target(inst):
    return set_value(inst.mode, inst.a + inst.b)


def test_greedy_feasible_and_bounded():
    inst = mk([6, 10, 15, 30, 210])
    g = solve(inst, "greedy")
    e = solve(inst, "exact")
    assert g.achieved == g.target
    universe = max(e.stats.universe_size, 1)
    assert g.size <= (math.log(universe) + 1) * max(e.size, 1)


def test_method_validation():
    with pytest.raises(DomainError):
        solve(mk([6]), "annealing")


def test_stats_reflect_cover_dimensions():
    sol = solve(mk([6, 10, 15]))
    assert sol.stats.universe_size == 3
    assert sol.stats.num_sets == 3
    assert sol.stats.elapsed_s is not None and sol.stats.elapsed_s >= 0
    trivial = solve(mk([4, 6], [2]))
    assert trivial.stats.universe_size == 0
    assert trivial.stats.num_sets == 0


small_instances = st.builds(
    mk,
    st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=8),
    st.lists(st.integers(min_value=1, max_value=10**4), max_size=3),
    st.sampled_from(["min-gcd", "max-lcm"]),
)


@settings(max_examples=300, deadline=None)
@given(small_instances)
def test_exact_matches_brute_force_size(inst):
    exact = solve(inst, "exact")
    oracle = brute_force(inst)
    assert exact.achieved == exact.target
    assert set(exact.s) <= set(inst.a)
    assert exact.size == oracle.size, (inst, exact.s, oracle.s)


@settings(max_examples=300, deadline=None)
@given(small_instances)
def test_greedy_is_feasible_and_bounded(inst):
    g = solve(inst, "greedy")
    assert g.achieved == g.target
    assert set(g.s) <= set(inst.a)
    e = solve(inst, "exact")
    if e.stats.universe_size >= 1:
        assert g.size <= (math.log(e.stats.universe_size) + 1) * e.size
    else:
        assert g.size == e.size


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=7),
    st.lists(st.integers(min_value=1, max_value=2000), max_size=2),
)
def test_b_elimination_consistency(a, b):
    # solving (a, b) and solving the collapsed single-set instance agree
    direct = solve(mk(a, b))
    bem = eliminate_b(a, b)
    collapsed = solve(mk(bem.reduced, (), "min-gcd"))
    if direct.size > 0:
        assert direct.size == collapsed.size
    else:
        # b alone attains the target, which forces every collapsed value to
        # equal it; the collapsed instance answers with that single element
        assert bem.reduced == (direct.target,)
        assert collapsed.size == 1


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=500),
)
def test_adding_elements_never_hurts_min_gcd(a, extra):
    base = solve(mk(a))
    grown = mk(tuple(a) + (extra,))
    if set_value("min-gcd", grown.a) == base.target:
        assert solve(grown).size <= base.size
