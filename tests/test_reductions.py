"""Value preservation across the forward and backward reductions, plus
the elimination-map section property and the emitted-size bound."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gcdlcm
import gcdlcm.cli
from gcdlcm import (
    CoverInstance,
    DomainError,
    InfeasibleError,
    ProblemInstance,
    compute_basis,
    cover_to_gcd,
    cover_to_lcm,
    exact_cover,
    exponent_profile,
    gcd_set,
    reduce_instance,
    solve,
)
from gcdlcm.reductions import _attainment_cover
from helpers import (
    dense_attainment_reduction,
    dense_exponent_profile,
    dense_exponents,
    densify,
    exhaustive_min_cover,
    exhaustive_min_subset,
    input_size,
    set_value,
)

nat_sets = st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=8)


def forward(a, b=(), mode="min-gcd"):
    """(cover reduction, elimination map) of the instance (a, b, mode)."""
    return reduce_instance(ProblemInstance(tuple(a), tuple(b), mode))


# -- b-elimination ------------------------------------------------------


def test_eliminate_b_collapses_and_sections():
    bem = forward([4, 6], [10])[1]
    assert bem.reduced == (2,)
    assert bem.section == {2: 4}  # smallest representative wins

    bem = forward([6, 10, 15], [4])[1]
    assert bem.reduced == (1, 2)
    assert bem.section[2] == 6
    assert bem.section[1] == 15


def test_eliminate_b_with_empty_b_is_identity():
    bem = forward([4, 6], [])[1]
    assert bem.reduced == (4, 6)
    assert bem.section == {4: 4, 6: 6}


def test_eliminate_b_requires_nonempty_a():
    with pytest.raises(DomainError, match="cannot eliminate b from an empty a"):
        forward([], [3])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=10**4), min_size=1, max_size=6),
    st.lists(st.integers(min_value=1, max_value=10**4), max_size=3),
)
def test_elimination_section_and_gcd_preservation(a, b):
    bem = forward(a, b)[1]
    gb = math.gcd(*b) if b else 0
    for v in bem.reduced:
        rep = bem.section[v]
        assert rep in a
        assert math.gcd(rep, gb) == v  # section property
    assert gcd_set(tuple(a) + tuple(b)) == gcd_set(bem.reduced)
    assert set(bem.reduced) == {math.gcd(x, gb) for x in a}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=6),
    st.lists(st.integers(min_value=1, max_value=300), max_size=2),
)
def test_elimination_preserves_min_gcd_optimum(a, b):
    bem = forward(a, b)[1]
    with_b = exhaustive_min_subset(a, b, "min-gcd", nonempty=True)[0]
    collapsed = exhaustive_min_subset(bem.reduced, (), "min-gcd", nonempty=True)[0]
    assert with_b == collapsed


# -- forward: integer set -> cover instance -----------------------------


def test_gcd_to_cover_worked_examples():
    red = forward([6, 10, 15])[0]
    assert red.universe_labels == (2, 3, 5)
    assert red.set_owners == (6, 10, 15)
    assert red.cover.sets == ((2,), (1,), (0,))
    assert exact_cover(red.cover).size == 3

    red = forward([6, 12])[0]
    assert red.cover.universe_size == 2
    assert exact_cover(red.cover).size == 1  # S={6} already has gcd 6

    red = forward([4, 9])[0]
    assert exact_cover(red.cover).size == 2


def test_lcm_to_cover_worked_examples():
    red = forward([4, 6, 9], (), "max-lcm")[0]
    assert red.universe_labels == (2, 3)
    # 6 attains neither maximum, so its C-set is empty
    owners_by_set = dict(zip(red.set_owners, red.cover.sets))
    assert owners_by_set[4] == (0,)
    assert owners_by_set[6] == ()
    assert owners_by_set[9] == (1,)
    assert exact_cover(red.cover).size == 2

    red = forward([6], (), "max-lcm")[0]
    assert red.cover.universe_size == 1
    assert exact_cover(red.cover).size == 1

    red = forward([2, 4], (), "max-lcm")[0]
    assert red.universe_labels == (2,)
    assert exact_cover(red.cover).size == 1


def test_forward_reduction_dedups_equal_sets():
    # 10 and 20 attain the same minima {5}, so only the smaller owns a set
    red = forward([10, 20, 15])[0]
    assert len(red.cover.sets) == len(set(red.cover.sets))
    assert 10 in red.set_owners
    assert 20 not in red.set_owners


# products of high powers of a few small primes share columns, often at
# equal exponents; 1 gives an all-zero row
shared_powers = st.one_of(
    st.just(1),
    st.lists(
        st.tuples(st.sampled_from((2, 3, 5, 7, 11)), st.integers(min_value=1, max_value=12)),
        max_size=3,
    ).map(lambda factors: math.prod(p**e for p, e in factors)),
    st.integers(min_value=1, max_value=10**6),
)


# values across the trial bound of the basis: primes around 1000, rough
# products of them, and small-times-large products whose known prime
# (1009, 1013) also splits another value's rough cofactor
across_the_trial_bound = st.one_of(
    st.sampled_from([991, 997, 1009, 1013, 1009**2, 997 * 1009, 1009 * 1013, 1009 * 1013 * 1019]),
    st.tuples(
        st.sampled_from([1, 2, 6, 12, 2 * 3**30]),
        st.sampled_from([1009, 1013, 10007]),
        st.integers(min_value=1, max_value=3),
    ).map(lambda t: t[0] * t[1] ** t[2]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(shared_powers, across_the_trial_bound), min_size=1, max_size=8),
    st.lists(st.one_of(shared_powers, across_the_trial_bound), max_size=3),
    st.sampled_from((1, 2, 12, 30)),
    st.sampled_from(("min", "max")),
)
@example([1, 6, 10, 15], [], 1, "min")  # an all-zero row attains every zero minimum
@example([1, 6, 10, 15], [], 1, "max")  # ... and no maximum
@example([4], [4], 1, "min")  # b folds a to [4]: a positive-min column, gcd 4
@example([12, 18, 30], [], 1, "min")  # gcd 6: positive-min columns, attained in a
@example([3, 5], [7], 2, "min")  # b nonempty, gcd 2 above 1
@example([4, 6], [8], 1, "max")  # b attains the max at 2; 4 owns an empty set
@example([2**12, 3**10, 5, 6**11], [3**10], 1, "max")  # exponents of ten and more
@example([2 * 1009 * 1013 * 1019, 2 * 3**30 * 1009], [], 1, "min")  # 1009 known and split off
@example([2 * 1009 * 1013 * 1019, 2 * 3**30 * 1009], [], 1, "max")  # ... a rough cofactor
@example([3, 6], [], 1, "min")  # 3 attains a 0-min column and a positive-min one
def test_sparse_reduction_matches_the_dense_walk(a, b, common, stat):
    a = sorted({x * common for x in a})
    b = sorted({x * common for x in b})
    cb = compute_basis(a + b)
    assert densify(cb.basis, cb.nonzeros) == dense_exponents(cb.source, cb.basis)
    assert exponent_profile(cb, stat) == dense_exponent_profile(cb.source, cb.basis, stat)
    if stat == "max":
        red = _attainment_cover(tuple(a), tuple(b), stat)
        expected = dense_attainment_reduction(a, b, stat)
    else:
        # min-gcd covers the image of reduce_instance's fold of b into a, with no b
        red, bem = reduce_instance(ProblemInstance(a, b, "min-gcd"))
        image = sorted({math.gcd(x, *b) for x in a})
        assert bem.reduced == tuple(image)
        expected = dense_attainment_reduction(image, [], stat)
    sparse = (red.cover.universe_size, red.cover.masks, red.universe_labels, red.set_owners)
    assert sparse == expected


@pytest.mark.parametrize(
    "inst",
    [
        ProblemInstance(a=(6, 10, 15, 35, 77, 91), b=(2 * 3 * 5 * 7 * 11 * 13,), mode="min-gcd"),
        gcdlcm.generate_instance(1, 60, 10**4, mode="max-lcm", b_count=2),
    ],
    ids=["min-gcd", "max-lcm"],
)
def test_the_solve_path_builds_no_row_major_basis(monkeypatch, capsys, inst):
    # the reduction reads the basis by column; only the basis command
    # builds the rows of nonzeros
    expected = (solve(inst).s, reduce_instance(inst))
    args = [inst.mode, "-A", *map(str, inst.a), "-B", *map(str, inst.b)]

    def run_cli():
        outs = []
        for cmd in ("solve", "reduce"):
            assert gcdlcm.cli.main([cmd, "--mode", *args]) == 0
            outs.append(capsys.readouterr().out)
        return outs

    cli_out = run_cli()

    def refuse(*args):
        raise AssertionError("the solve path built a row-major basis")

    for name, module in list(sys.modules.items()):
        for attr in ("compute_basis", "exponent_profile"):
            if name.split(".")[0] == "gcdlcm" and hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    assert (solve(inst).s, reduce_instance(inst)) == expected
    assert run_cli() == cli_out
    with pytest.raises(AssertionError, match="row-major"):
        gcdlcm.cli.main(["basis", "--mode", *args])


def test_forward_reduction_has_one_entry(monkeypatch, capsys):
    # the package root and solver hold the function reductions defines;
    # pipebench's probes and replay reach it through solver, and the CLI
    # looks it up in reductions at call time, where the probes rebind it
    red = gcdlcm.reductions.reduce_instance
    assert gcdlcm.reduce_instance is red
    assert gcdlcm.solver.reduce_instance is red
    calls = []

    def recorder(inst):
        calls.append(inst)
        return red(inst)

    monkeypatch.setattr(gcdlcm.reductions, "reduce_instance", recorder)
    assert gcdlcm.cli.main(["reduce", "-A", "6", "10", "15"]) == 0
    assert calls == [ProblemInstance(a=(6, 10, 15), b=(), mode="min-gcd")] and capsys.readouterr().out
    assert not hasattr(gcdlcm.reductions, "attainment_reduction")


def test_forward_reduction_rejects_empty():
    for mode in ("min-gcd", "max-lcm"):
        with pytest.raises(DomainError, match="empty only if b is nonempty"):
            forward([], (), mode)


@settings(max_examples=250, deadline=None)
@given(nat_sets)
def test_forward_gcd_preserves_optimum(values):
    assume(set(values) != {1})  # sole degenerate: cover is empty, subsets are not
    red = forward(values)[0]
    cover_opt = exact_cover(red.cover).size
    subset_opt = exhaustive_min_subset(values, (), "min-gcd", nonempty=True)[0]
    assert cover_opt == subset_opt


@settings(max_examples=250, deadline=None)
@given(nat_sets)
def test_forward_lcm_preserves_optimum(values):
    assume(set(values) != {1})
    red = forward(values, (), "max-lcm")[0]
    cover_opt = exact_cover(red.cover).size
    subset_opt = exhaustive_min_subset(values, (), "max-lcm", nonempty=True)[0]
    assert cover_opt == subset_opt


@settings(max_examples=250, deadline=None)
@given(nat_sets)
def test_forward_owner_sets_reproduce_the_value(values):
    for mode in ("min-gcd", "max-lcm"):
        red = forward(values, (), mode)[0]
        chosen = exact_cover(red.cover).chosen
        owners = [red.set_owners[i] for i in chosen]
        # owners are distinct elements of the input
        assert len(owners) == len(set(owners))
        for x in owners:
            assert x in values
        if owners:
            assert set_value(mode, tuple(owners)) == set_value(mode, tuple(set(values)))


# -- backward: cover instance -> integer set ----------------------------


def test_cover_to_lcm_worked_examples():
    img = cover_to_lcm(CoverInstance(universe_size=3, sets=((0, 1), (1, 2), (2,))))
    assert img.elements == (5, 6, 15)
    assert img.target == 30
    assert img.owners == {6: 0, 15: 1, 5: 2}

    img = cover_to_lcm(CoverInstance(universe_size=1, sets=((0,),)))
    assert img.elements == (2,)
    img = cover_to_lcm(CoverInstance(universe_size=2, sets=((0,), (1,))))
    assert img.elements == (2, 3)


def test_cover_to_gcd_worked_examples():
    img = cover_to_gcd(CoverInstance(universe_size=3, sets=((0, 1), (1, 2))))
    assert img.elements == (2, 5)
    assert img.target == 1

    img = cover_to_gcd(CoverInstance(universe_size=1, sets=((0,),)))
    assert img.elements == (1,)
    img = cover_to_gcd(CoverInstance(universe_size=2, sets=((0, 1),)))
    assert img.elements == (1,)


def test_backward_rejects_non_covering_instances():
    with pytest.raises(InfeasibleError) as exc:
        cover_to_lcm(CoverInstance(universe_size=2, sets=((0,),)))
    assert exc.value.certificate == {"uncoverable_element": 1}
    with pytest.raises(InfeasibleError):
        cover_to_gcd(CoverInstance(universe_size=3, sets=((0, 1),)))


@pytest.mark.parametrize("embed", [cover_to_gcd, cover_to_lcm])
def test_backward_refuses_a_family_with_no_sets(embed):
    with pytest.raises(DomainError, match="no sets"):
        embed(CoverInstance(universe_size=0, sets=()))
    with pytest.raises(InfeasibleError):  # a nonempty universe is uncoverable first
        embed(CoverInstance(universe_size=3, sets=()))


def test_cover_to_gcd_refuses_an_empty_universe():
    # the cover needs no set, but a min-gcd subset is never empty: the image
    # {1} would have optimum 1, where the max-lcm image {1} keeps optimum 0
    for sets in (((),), ((), ())):
        ci = CoverInstance(universe_size=0, sets=sets)
        with pytest.raises(DomainError, match="empty universe"):
            cover_to_gcd(ci)
        assert exact_cover(ci).size == 0
        assert cover_to_lcm(ci) == ((1,), {1: 0}, 1)


@st.composite
def covering_instances(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=6))
    elems = st.integers(min_value=0, max_value=n - 1)
    sets = [tuple(sorted(draw(st.sets(elems, max_size=n)))) for _ in range(k)]
    missing = set(range(n)) - {e for s in sets for e in s}
    if missing:  # patch one set so the instance is feasible
        sets[0] = tuple(sorted(set(sets[0]) | missing))
    return CoverInstance(universe_size=n, sets=tuple(sets))


@settings(max_examples=250, deadline=None)
@given(covering_instances())
def test_backward_lcm_preserves_optimum(ci):
    img = cover_to_lcm(ci)
    cover_opt = exhaustive_min_cover(ci.universe_size, ci.sets)[0]
    subset_opt = exhaustive_min_subset(img.elements, (), "max-lcm", nonempty=True)[0]
    assert cover_opt == subset_opt
    for val, owner in img.owners.items():
        assert val == math.prod(
            p for j, p in _universe_primes(ci.universe_size) if j in ci.sets[owner]
        )


@settings(max_examples=250, deadline=None)
@given(covering_instances())
def test_backward_gcd_preserves_optimum(ci):
    img = cover_to_gcd(ci)
    cover_opt = exhaustive_min_cover(ci.universe_size, ci.sets)[0]
    subset_opt = exhaustive_min_subset(img.elements, (), "min-gcd", nonempty=True)[0]
    assert cover_opt == subset_opt
    assert gcd_set(img.elements) == 1


def _universe_primes(n):
    from gcdlcm.numeric import first_primes

    return list(enumerate(first_primes(n)))


@settings(max_examples=200, deadline=None)
@given(covering_instances())
def test_round_trip_preserves_cover_optimum(ci):
    img = cover_to_lcm(ci)
    red = forward(img.elements, (), "max-lcm")[0]
    assert exact_cover(red.cover).size == exhaustive_min_cover(ci.universe_size, ci.sets)[0]


@settings(max_examples=200, deadline=None)
@given(covering_instances())
def test_backward_lcm_bit_size_bound(ci):
    # emitted instance stays within c * l * m * log2(m + 2) bits for c = 4
    img = cover_to_lcm(ci)
    m = ci.universe_size
    l = len(ci.sets)
    bits = input_size(img.elements, (img.target,))
    assert bits <= 4 * l * m * math.log2(m + 2)
