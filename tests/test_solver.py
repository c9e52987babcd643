"""End-to-end solver pipeline against the independent brute-force oracle."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcdlcm.solver as solver_module
from gcdlcm import (
    BRUTE_FORCE_CAP,
    CapExceededError,
    CirculantGraph,
    CoverInstance,
    DomainError,
    ProblemInstance,
    brute_force,
    decide,
    generate_instance,
    prune_links,
    reduce_instance,
    solve,
)
from gcdlcm.numeric import natset
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
    # 613 of 3000 values, out of a 21 x 47 residual left by kernelization
    ((1, 3000, 0), (
        101, 131, 157, 173, 181, 191, 193, 197, 241, 254, 263, 269, 281, 283, 349, 358, 359, 379,
        383, 453, 458, 467, 479, 487, 489, 502, 542, 571, 587, 593, 599, 619, 626, 641, 673, 691,
        694, 706, 709, 734, 746, 751, 787, 794, 796, 811, 818, 821, 835, 853, 859, 887, 898, 908,
        922, 971, 991, 997, 1006, 1019, 1031, 1051, 1063, 1082, 1091, 1103, 1153, 1165, 1167, 1193,
        1195, 1202, 1213, 1226, 1228, 1234, 1237, 1285, 1293, 1294, 1307, 1321, 1327, 1338, 1348,
        1402, 1423, 1429, 1433, 1439, 1444, 1451, 1459, 1465, 1538, 1543, 1546, 1553, 1555, 1571,
        1594, 1597, 1601, 1604, 1618, 1662, 1669, 1676, 1689, 1697, 1707, 1726, 1733, 1787, 1801,
        1807, 1874, 1877, 1879, 1894, 1901, 1906, 1922, 1979, 1997, 1999, 2003, 2017, 2018, 2027,
        2029, 2031, 2039, 2063, 2066, 2069, 2129, 2131, 2143, 2161, 2165, 2203, 2213, 2219, 2243,
        2246, 2273, 2281, 2287, 2311, 2317, 2342, 2357, 2383, 2389, 2393, 2428, 2458, 2487, 2521,
        2554, 2557, 2558, 2572, 2591, 2601, 2602, 2609, 2631, 2638, 2645, 2657, 2658, 2659, 2677,
        2704, 2732, 2741, 2744, 2757, 2787, 2797, 2803, 2809, 2819, 2854, 2885, 2887, 2906, 2927,
        2931, 2956, 2969, 2978, 2986, 3001, 3049, 3061, 3063, 3118, 3134, 3137, 3155, 3158, 3163,
        3187, 3203, 3207, 3217, 3254, 3257, 3265, 3271, 3292, 3307, 3314, 3319, 3327, 3343, 3351,
        3356, 3359, 3361, 3368, 3391, 3433, 3449, 3457, 3469, 3482, 3512, 3529, 3547, 3566, 3593,
        3595, 3617, 3631, 3635, 3646, 3659, 3662, 3671, 3693, 3698, 3733, 3739, 3777, 3778, 3779,
        3785, 3793, 3803, 3829, 3849, 3863, 3866, 3867, 3877, 3881, 3891, 3898, 3911, 3923, 3928,
        3931, 3946, 3947, 3992, 4001, 4022, 4052, 4072, 4083, 4107, 4119, 4129, 4135, 4156, 4178,
        4197, 4222, 4226, 4229, 4241, 4244, 4274, 4285, 4297, 4306, 4327, 4337, 4349, 4373, 4405,
        4414, 4423, 4442, 4443, 4447, 4456, 4463, 4493, 4517, 4523, 4535, 4538, 4604, 4618, 4627,
        4637, 4643, 4673, 4682, 4742, 4759, 4804, 4821, 4831, 4846, 4882, 4892, 4915, 4931, 4951,
        4967, 4987, 4999, 5003, 5006, 5021, 5041, 5046, 5051, 5062, 5079, 5113, 5164, 5186, 5201,
        5210, 5233, 5241, 5259, 5261, 5294, 5324, 5327, 5331, 5333, 5347, 5387, 5399, 5414, 5426,
        5433, 5458, 5462, 5465, 5468, 5519, 5527, 5534, 5556, 5557, 5573, 5583, 5591, 5639, 5647,
        5651, 5714, 5739, 5741, 5753, 5758, 5783, 5788, 5801, 5802, 5807, 5827, 5869, 5878, 5879,
        5881, 5931, 5932, 5948, 5953, 5961, 5979, 6011, 6022, 6053, 6079, 6089, 6091, 6121, 6159,
        6199, 6203, 6217, 6247, 6269, 6311, 6359, 6373, 6389, 6442, 6491, 6502, 6553, 6597, 6598,
        6599, 6627, 6637, 6646, 6661, 6673, 6689, 6733, 6737, 6742, 6746, 6836, 6841, 6855, 6857,
        6863, 6883, 6926, 6934, 6962, 6967, 6999, 7027, 7034, 7036, 7043, 7053, 7082, 7109, 7121,
        7122, 7162, 7187, 7197, 7211, 7237, 7246, 7288, 7290, 7297, 7302, 7341, 7346, 7349, 7369,
        7377, 7382, 7401, 7402, 7411, 7431, 7481, 7517, 7522, 7538, 7541, 7573, 7603, 7643, 7647,
        7649, 7669, 7673, 7681, 7702, 7706, 7753, 7838, 7873, 7901, 7933, 7937, 7949, 7957, 7978,
        7993, 8014, 8017, 8026, 8042, 8049, 8067, 8069, 8087, 8093, 8101, 8105, 8133, 8137, 8167,
        8185, 8186, 8192, 8231, 8287, 8291, 8306, 8329, 8348, 8363, 8367, 8369, 8396, 8403, 8438,
        8469, 8486, 8495, 8499, 8501, 8511, 8513, 8537, 8539, 8546, 8578, 8581, 8597, 8599, 8623,
        8647, 8651, 8678, 8689, 8699, 8707, 8747, 8782, 8863, 8887, 8945, 8948, 8971, 9026, 9038,
        9043, 9049, 9066, 9089, 9094, 9098, 9121, 9122, 9161, 9179, 9182, 9203, 9227, 9242, 9277,
        9278, 9293, 9311, 9337, 9357, 9358, 9375, 9379, 9403, 9409, 9419, 9442, 9461, 9466, 9497,
        9498, 9523, 9533, 9535, 9543, 9551, 9587, 9602, 9623, 9627, 9629, 9634, 9643, 9722, 9733,
        9754, 9755, 9759, 9767, 9777, 9781, 9787, 9817, 9818, 9857, 9859, 9863, 9886, 9887, 9914,
        9923, 9938, 9993,
    )),
]


@pytest.mark.parametrize("params,expected", SEEDED_MAX_LCM_PINS)
def test_seeded_max_lcm_pins(params, expected):
    seed, count, b_count = params
    inst = generate_instance(seed, count, 10**4, mode="max-lcm", b_count=b_count)
    assert solve(inst).s == expected


def test_b_alone_attaining_target_gives_empty_s(monkeypatch):
    sol = solve(mk([4, 6], [2]))
    assert sol.s == ()
    assert sol.achieved == 2
    sol = solve(mk([4], [8], mode="max-lcm"))
    assert sol.s == ()
    assert sol.achieved == 8

    def no_reduction(inst):
        raise AssertionError("b alone attains the target: nothing to reduce")

    # the empty answer builds no cover, even where a reduction would refuse:
    # min-gcd cannot eliminate b from an empty a
    monkeypatch.setattr(solver_module, "reduce_instance", no_reduction)
    cases = [
        ([4, 6], [2], "min-gcd"),
        ([4], [8], "max-lcm"),
        ([], [6, 10], "min-gcd"),
        ([], [6, 10], "max-lcm"),
    ]
    for a, b, mode in cases:
        for method in ("exact", "greedy"):
            sol = solve(mk(a, b, mode), method=method)
            assert sol.s == () and sol.optimal and sol.achieved == sol.target
            assert sol.stats.universe_size == sol.stats.num_sets == 0


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
    # b misses gcd 1 and every element collapses to 1: the reduced
    # universe is empty, yet S must hold one element
    assert not decide(mk([5, 7], [6]), 0)
    assert decide(mk([5, 7], [6]), 1)
    with pytest.raises(DomainError):
        decide(mk([6]), -1)


def test_decide_finds_no_witness(monkeypatch):
    def no_witness(inst):
        raise AssertionError("decide asked for a witness")

    monkeypatch.setattr(solver_module, "exact_cover", no_witness)
    assert not decide(mk([6, 10, 15]), 2)
    assert decide(mk([6, 10, 15]), 3)
    inst = generate_instance(1, 60, 10**4, mode="max-lcm", b_count=2)
    assert decide(inst, len(inst.a))
    assert not decide(inst, 0)


@pytest.mark.parametrize("mode, b_count", [("min-gcd", 0), ("max-lcm", 2)])
def test_reduction_hands_its_masks_over_unchecked(monkeypatch, mode, b_count):
    # the reduction builds its masks in range; only covers from outside
    # go through the validating constructor
    def no_validation(self, universe_size, sets):
        raise AssertionError("a reduction-built cover was validated again")

    inst = generate_instance(1, 60, 10**4, mode=mode, b_count=b_count)
    expected = solve(inst)
    monkeypatch.setattr(CoverInstance, "__init__", no_validation)
    cover = reduce_instance(inst)[0].cover
    assert cover.universe_size > 0 and len(cover.masks) > 1
    assert all(0 <= m < 1 << cover.universe_size for m in cover.masks)
    sol = solve(inst)
    assert (sol.s, sol.stats.num_sets) == (expected.s, expected.stats.num_sets)


@pytest.mark.parametrize(
    "built",
    [
        mk([6, 10, 15, 35, 77, 91], [2 * 3 * 5 * 7 * 11 * 13]),
        generate_instance(1, 60, 10**4, mode="max-lcm", b_count=2),
        CirculantGraph(2 * 3 * 5 * 7, (6, 10, 15, 35, 42, 77)),
    ],
    ids=["min-gcd", "max-lcm", "prune_links"],
)
def test_built_instances_are_not_checked_again(monkeypatch, built):
    # a built record's sets are canonical: neither the stages behind
    # reduce_instance nor the pruning of a built graph check them again
    callers = []

    def counted(values):
        callers.append(sys._getframe(1).f_code.co_name)
        return natset(values)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gcdlcm" and hasattr(module, "natset"):
            monkeypatch.setattr(module, "natset", counted)
    if isinstance(built, CirculantGraph):
        runs = (prune_links,)
        assert len(prune_links(built)) > 1
    else:
        runs = (solve, reduce_instance)
        assert built.b and solve(built).size > 1
    for run in runs:
        callers.clear()
        run(built)
        assert callers == [], run.__name__


@pytest.mark.parametrize(
    "seed, count, max_value, mode, b_count",
    [
        (1, 40, 10**4, "min-gcd", 0),
        (2, 40, 10**4, "min-gcd", 2),  # b alone attains the target
        (2, 25, 10**3, "min-gcd", 1),  # empty reduced universe
        (4, 25, 10**3, "min-gcd", 1),
        (1, 60, 10**4, "max-lcm", 0),
        (2, 45, 10**4, "max-lcm", 2),
        (3, 200, 10**6, "max-lcm", 2),
    ],
)
def test_decide_agrees_with_solve(seed, count, max_value, mode, b_count):
    inst = generate_instance(seed, count, max_value, mode=mode, b_count=b_count)
    size = solve(inst).size
    assert decide(inst, size)
    if size:
        assert not decide(inst, size - 1)


def test_brute_force_cap(monkeypatch):
    big = mk(list(range(2, 2 + BRUTE_FORCE_CAP + 1)))
    with pytest.raises(CapExceededError):
        brute_force(big)
    monkeypatch.setattr(solver_module, "BRUTE_FORCE_CAP", BRUTE_FORCE_CAP + 1)
    assert brute_force(big).achieved == big_target(big)


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
    bem = reduce_instance(mk(a, b))[1]
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
