"""Coprime-basis invariants: pairwise coprimality, elements >= 2, exact
reconstruction, usage, and the lcm/gcd product identities."""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdlcm import (
    DomainError,
    SplitMix64,
    basis,
    compute_basis,
    exponent_profile,
    gcd_set,
    generate_instance,
    lcm_set,
    natset,
)
from gcdlcm.numeric import first_primes
from helpers import dense_exponents, densify, pairwise_refine, reconstruct


def assert_valid_basis(cb):
    for p in cb.basis:
        assert p >= 2
    for p, q in combinations(cb.basis, 2):
        assert math.gcd(p, q) == 1, f"basis elements {p} and {q} share a factor"
    assert cb.basis == tuple(sorted(cb.basis))
    assert len(cb.nonzeros) == len(cb.source)
    for a, pairs in zip(cb.source, cb.nonzeros):
        # positive exponents by strictly ascending column
        assert all(e > 0 for _, e in pairs)
        assert [c for c, _ in pairs] == sorted({c for c, _ in pairs})
        assert reconstruct(cb.basis, pairs) == a
    # usage: every basis element appears in some source element
    rows = densify(cb.basis, cb.nonzeros)
    for col, p in enumerate(cb.basis):
        assert any(row[col] > 0 for row in rows), f"unused basis element {p}"


def assert_profile_identities(cb):
    d = exponent_profile(cb, "max")
    g = exponent_profile(cb, "min")
    assert math.prod(p ** d[p] for p in cb.basis) == lcm_set(cb.source)
    assert math.prod(p ** g[p] for p in cb.basis) == gcd_set(cb.source)


def test_two_element_basis():
    cb = compute_basis([30, 42])
    assert cb.basis == (5, 6, 7)
    assert cb.nonzeros == (((0, 1), (1, 1)), ((1, 1), (2, 1)))
    assert_valid_basis(cb)


def test_prime_powers_collapse():
    cb = compute_basis([8, 12])
    assert cb.basis == (2, 3)
    assert cb.nonzeros == (((0, 3),), ((0, 2), (1, 1)))
    assert_valid_basis(cb)


def test_ones_get_zero_rows():
    cb = compute_basis([1, 1, 1])
    assert cb.source == (1,)
    assert cb.basis == ()
    assert cb.nonzeros == ((),)
    cb2 = compute_basis([1, 6])
    assert cb2.nonzeros == ((), ((0, 1),))


def test_empty_input():
    cb = compute_basis([])
    assert cb.source == ()
    assert cb.basis == ()
    assert cb.nonzeros == ()
    with pytest.raises(DomainError):
        exponent_profile(cb, "max")


def test_profile_rejects_unknown_stat():
    with pytest.raises(DomainError):
        exponent_profile(compute_basis([6]), "median")


def test_deterministic_across_input_order():
    assert compute_basis([30, 42, 70, 105]) == compute_basis([105, 70, 42, 30])
    assert compute_basis([4, 6, 9]) == compute_basis([9, 9, 6, 4])


def test_four_element_profile_identities():
    cb = compute_basis([30, 42, 70, 105])
    assert_valid_basis(cb)
    assert_profile_identities(cb)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=12))
def test_basis_invariants_random(values):
    cb = compute_basis(values)
    assert cb.source == tuple(sorted(set(values)))
    assert_valid_basis(cb)
    assert_profile_identities(cb)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=50).map(lambda k: 2**k * 3 ** (k % 5)),
        min_size=1,
        max_size=8,
    )
)
def test_basis_invariants_high_exponents(values):
    # heavily composite values exercise the exponent extraction loops
    cb = compute_basis(values)
    assert_valid_basis(cb)
    assert_profile_identities(cb)


# values up to 1e12, plus products of small primes so that splits are common
refinable = st.one_of(
    st.integers(min_value=1, max_value=10**12),
    st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=10).map(math.prod),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(refinable, max_size=12))
def test_basis_matches_pairwise_refinement(values):
    expected = pairwise_refine({v for v in values if v > 1})
    assert compute_basis(values).basis == tuple(expected)


@pytest.mark.parametrize("count, max_value", [(500, 10**4), (300, 10**6), (200, 10**18)])
def test_basis_matches_pairwise_refinement_on_generated_sets(count, max_value):
    values = generate_instance(1, count, max_value).a
    expected = pairwise_refine({v for v in values if v > 1})
    assert compute_basis(values).basis == tuple(expected)


# products of 1-3 powers (exponents 1-3) of a pool of 20 primes share
# factors often, so values split deep in the product tree, the tree
# doubles several times and freed slots are taken again
PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
prime_power_products = st.lists(
    st.tuples(st.sampled_from(PRIME_POOL), st.integers(min_value=1, max_value=3)),
    min_size=1,
    max_size=3,
).map(lambda factors: math.prod(p**e for p, e in factors))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(prime_power_products, st.integers(min_value=1, max_value=10**12)),
        max_size=40,
    ).map(lambda values: values + values[::4])
)
def test_basis_matches_pairwise_refinement_on_shared_prime_powers(values):
    cb = compute_basis(values)
    assert cb.basis == tuple(pairwise_refine({v for v in values if v > 1}))
    assert_valid_basis(cb)
    if cb.source:
        assert_profile_identities(cb)


def rough_semiprimes(count, primes, seed):
    """``count`` distinct products of two distinct ``primes``, the pairs
    drawn by SplitMix64(seed).below."""
    rng = SplitMix64(seed)
    products = {}
    while len(products) < count:
        p, q = (primes[rng.below(len(primes))] for _ in range(2))
        if p != q:
            products.setdefault(p * q, None)
    return list(products)


def test_refinement_gcd_calls_grow_with_the_log_of_the_basis(monkeypatch):
    cases = [
        # a scan of the whole coprime list per value made 2,176 calls per
        # value here; a descent of the product tree makes about 24. The
        # values are refined directly: compute_basis factors values this
        # small over the primes below 1000 and never refines them.
        (generate_instance(1, 2000, 10**4).a, 100),
        # rough values sharing large primes, which _columns does refine:
        # the tree makes about 10 calls per value, a running product with
        # a linear scan on a hit about 65
        (rough_semiprimes(1000, first_primes(368)[168:], 1), 20),
    ]
    calls = 0
    real_gcd = math.gcd

    def counting(*args):
        nonlocal calls
        calls += 1
        return real_gcd(*args)

    monkeypatch.setattr(math, "gcd", counting)
    for values, per_value in cases:
        calls = 0
        basis._refine([v for v in values if v > 1])
        assert calls <= per_value * sum(v > 1 for v in values)


def sieve_below(n):
    return [k for k in range(2, n) if all(k % d for d in range(2, math.isqrt(k) + 1))]


def test_trial_division_constants():
    assert basis._SMALL_PRIMES == sieve_below(1000)
    assert basis._PRIME_BELOW == 1009**2


def test_factors_sharing_a_direction_form_one_entry():
    assert compute_basis([6 * 10007]).basis == (60042,)
    cb = compute_basis([6 * 10007, 6 * 10007**2])
    assert cb.basis == (6, 10007)
    assert cb.nonzeros == (((0, 1), (1, 1)), ((0, 1), (1, 2)))
    assert compute_basis([900]).basis == (900,)
    assert compute_basis([1009**2]).basis == (1009**2,)
    assert compute_basis([1009**2, 7 * 1009]).basis == (7, 1009)
    # 1009 is known prime in the larger value and split off the rough
    # cofactor of the smaller one; it shares the direction of 2
    values = [2 * 1009 * 1013 * 1019, 2 * 3**30 * 1009]
    assert compute_basis(values).basis == tuple(pairwise_refine(set(values)))


# values on both sides of the trial bound: the primes around 1000 and
# their powers, the smallest rough cofactors, small-times-large products
# whose factors share an exponent direction, and rough cofactors split
# by a known prime of another value
BOUNDARY_PRIMES = (991, 997, 1009, 1013)
LARGE_PRIMES = (1009, 1013, 10007, 999983)
across_the_trial_bound = st.one_of(
    st.tuples(st.sampled_from(BOUNDARY_PRIMES), st.integers(min_value=1, max_value=3)).map(
        lambda t: t[0] ** t[1]
    ),
    st.sampled_from([1, 1009**2, 997 * 1009, 1009 * 1013, 1009 * 1013 * 1019, 7 * 1009]),
    st.tuples(
        st.sampled_from([1, 2, 6, 12, 991]),
        st.sampled_from(LARGE_PRIMES),
        st.integers(min_value=1, max_value=3),
    ).map(lambda t: t[0] * t[1] ** t[2]),
    st.integers(min_value=1, max_value=10**12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(across_the_trial_bound, max_size=12).map(lambda values: values + values[::3]))
def test_basis_matches_oracles_across_the_trial_bound(values):
    cb = compute_basis(values)
    assert cb.basis == tuple(pairwise_refine({v for v in values if v > 1}))
    assert densify(cb.basis, cb.nonzeros) == dense_exponents(cb.source, cb.basis)
    assert_valid_basis(cb)


@settings(max_examples=300, deadline=None)
@given(st.lists(across_the_trial_bound, max_size=12).map(lambda values: values + values[::3]))
# a rough row before the row whose cofactor is the known prime 1009
@example([2 * 1009 * 1013 * 1019, 2 * 3**30 * 1009])
# the known prime 1009 divides two rough cofactors
@example([1009 * 1013 * 1019, 1009 * 1021 * 1031, 7 * 1009])
# a prime 997 left over by trial division, next to a rough cofactor
@example([2 * 997, 1009 * 1013 * 1019])
def test_columns_hold_rows_in_order_across_the_trial_bound(values):
    # each column holds exactly the rows with a positive exponent,
    # strictly ascending, with the exponents that division reads
    source = natset(values)
    found, columns = basis._columns(source)
    dense = dense_exponents(source, found)
    for col, (rows, exps) in enumerate(columns):
        assert list(rows) == [row for row, cells in enumerate(dense) if cells[col]]
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert list(exps) == [dense[row][col] for row in rows]


def test_refine_sees_only_rough_cofactors(monkeypatch):
    received = []
    real_refine = basis._refine

    def recording(values):
        values = list(values)
        received.extend(values)
        return real_refine(values)

    monkeypatch.setattr(basis, "_refine", recording)
    for count, max_value in ((500, 10**4), (300, 10**6)):
        compute_basis(generate_instance(1, count, max_value).a)
    assert received == []
    compute_basis(generate_instance(1, 200, 10**18).a)
    assert received
    small = math.prod(sieve_below(1000))
    assert all(math.gcd(v, small) == 1 for v in received)


def test_refine_gets_every_cofactor_above_997_once_one_is_rough(monkeypatch):
    # every cofactor of seed 1 is rough; seed 2 also leaves the prime
    # 235159, which divides no rough cofactor and is refined with them
    received = []
    real_refine = basis._refine

    def recording(values):
        values = list(values)
        received.append(values)
        return real_refine(values)

    monkeypatch.setattr(basis, "_refine", recording)
    small = sieve_below(1000)
    for seed in (1, 2):
        source = natset(generate_instance(seed, 200, 10**18).a)
        received.clear()
        basis._columns(source)
        left = []
        for v in source:
            for p in small:
                while not v % p:
                    v //= p
            if v > 997:
                left.append(v)
        assert any(v >= 1009**2 for v in left)
        assert len(received) == 1
        assert Counter(received[0]) == Counter(left)
    assert 235159 in left
