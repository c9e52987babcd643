from __future__ import annotations

import enum
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdlcm import CirculantGraph, DomainError, ProblemInstance, gcd_set, lcm_set, natset
from gcdlcm import setcover
from gcdlcm.numeric import _sieve, first_primes, set_bits
from helpers import input_size


def test_natset_sorts_and_dedups():
    assert natset([10, 2, 2, 7]) == (2, 7, 10)
    assert natset([]) == ()
    assert natset((5,)) == (5,)


@settings(max_examples=200)
@given(
    st.lists(st.integers(min_value=1, max_value=10**30), max_size=40),
    st.sampled_from(("sorted", "reversed", "shuffled", "repeated")),
    st.randoms(use_true_random=False),
)
def test_natset_matches_sort_of_set(values, order, rng):
    if order == "sorted":
        values.sort()
    elif order == "reversed":
        values.sort(reverse=True)
    elif order == "shuffled":
        rng.shuffle(values)
    else:
        values += values[::2]
    canonical = natset(values)
    assert canonical == tuple(sorted(set(values)))
    assert natset(canonical) is canonical  # canonical input comes back as it is
    assert natset(iter(canonical)) == canonical


@pytest.mark.parametrize("bad", [0, -1, True, 2.0, "3"])
def test_natset_names_the_first_bad_value_after_a_valid_prefix(bad):
    with pytest.raises(DomainError, match=f"got {bad!r}$"):
        natset([*range(1, 501), bad, 0, "x"])


class Level(enum.IntEnum):
    LOW = 2
    HIGH = 7


def test_natset_accepts_int_subclasses_other_than_bool():
    for values in ([Level.HIGH, 3, Level.LOW, 3], [Level.LOW, 3, Level.HIGH]):
        canonical = natset(values)
        assert canonical == (2, 3, 7)
        assert [type(v) for v in canonical] == [Level, int, Level]


@pytest.mark.parametrize("bad", [0, -3, 2.5, "6", True])
def test_natset_rejects_non_positive_ints(bad):
    with pytest.raises(DomainError):
        natset([bad])


@pytest.mark.parametrize(
    "canonical",
    [natset, lambda v: ProblemInstance(a=v, b=(), mode="min-gcd"), lambda v: CirculantGraph(6, v)],
    ids=["natset", "ProblemInstance", "CirculantGraph"],
)
@pytest.mark.parametrize("values", [(1, True), (True, 1), (2, 2.0), (2.0, 2), (2, "3"), (2, None)])
def test_every_value_is_checked_before_the_dedup(canonical, values):
    # an equal value of another type is refused wherever it stands, and a
    # value that does not compare with ints is a domain error, not a TypeError
    with pytest.raises(DomainError):
        canonical(values)


def test_gcd_set_conventions():
    assert gcd_set(()) == 0
    assert gcd_set((42,)) == 42
    assert gcd_set((6, 10, 15)) == 1
    assert gcd_set((30, 42, 70, 105)) == 1
    assert gcd_set((12, 18)) == 6


def test_lcm_set_conventions():
    assert lcm_set(()) == 1
    assert lcm_set((4, 6, 9)) == 36
    assert lcm_set((7,)) == 7
    with pytest.raises(DomainError):
        lcm_set((0, 3))


@given(
    st.one_of(
        st.integers(min_value=0, max_value=1100).map(lambda j: 1 << j),
        st.integers(min_value=0, max_value=1 << 1100),
    )
)
@example(0)
@example(1 << 64 | 1 << 63)
@example((1 << 1001) - 1)
def test_set_bits_lists_every_set_bit_ascending(mask):
    assert set_bits(mask) == tuple(j for j in range(mask.bit_length()) if mask >> j & 1)
    assert setcover.set_bits is set_bits


def test_first_primes_small():
    assert first_primes(0) == []
    assert first_primes(1) == [2]
    assert first_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(DomainError):
        first_primes(-1)


def test_first_primes_bulk():
    primes = first_primes(200)
    assert len(primes) == 200
    assert primes[99] == 541  # the hundredth prime
    assert primes == sorted(set(primes))
    for p in primes:
        assert all(p % q for q in range(2, math.isqrt(p) + 1))


def test_first_primes_is_a_prefix_of_one_large_sieve():
    # 1,299,709 is the 100,000th prime
    reference = _sieve(1_299_709)
    for m in [*range(65), 100, 1000, 10**4, 10**5]:
        assert first_primes(m) == reference[:m]


@given(st.integers(min_value=1, max_value=10**30))
def test_input_size_is_ceil_log2_of_x_plus_one(x):
    bits = input_size([x])
    # smallest b with x + 1 <= 2**b
    assert 2**bits >= x + 1
    assert 2 ** (bits - 1) < x + 1


def test_input_size_counts_union_once():
    assert input_size([6, 10], [10, 15]) == input_size([6, 10, 15])
    assert input_size([1]) == 1
    assert input_size([6, 10, 15]) == 3 + 4 + 4
    with pytest.raises(ValueError):
        input_size([0])
