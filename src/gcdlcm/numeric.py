"""Integer set arithmetic and prime generation.

All values are plain Python ints (arbitrary precision). Sets of positive
integers are kept in canonical form: duplicate-free, ascending tuples, so
every set-valued result is byte-reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from gcdlcm.errors import DomainError

NatSet = tuple[int, ...]


def natset(values: Iterable[int]) -> NatSet:
    """Canonicalize an iterable of positive integers: dedup, sort ascending.

    Every value is checked before the dedup, so an equal value of another
    type (True for 1, 2.0 for 2) is refused wherever it stands.
    """
    values = list(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise DomainError(f"set elements must be positive integers, got {v!r}")
    return tuple(sorted(set(values)))


def gcd_set(values: Iterable[int]) -> int:
    """gcd of all elements; 0 for the empty set (gcd(0, x) = x)."""
    return math.gcd(*values)


def lcm_set(values: Iterable[int]) -> int:
    """lcm of all elements; 1 for the empty set."""
    vals = list(values)
    for v in vals:
        if v == 0:
            raise DomainError("lcm is not defined for sets containing 0")
    return math.lcm(*vals)


def first_primes(m: int) -> list[int]:
    """The first m primes, from one sieve window: p_m < m (ln m + ln ln m)
    for m >= 6 (Rosser), and 15 holds the first five."""
    if m < 0:
        raise DomainError(f"prime count must be nonnegative, got {m}")
    if m < 6:
        return _sieve(15)[:m]
    return _sieve(int(m * (math.log(m) + math.log(math.log(m)))) + 3)[:m]


def _sieve(limit: int) -> list[int]:
    is_prime = bytearray([1]) * (limit + 1)
    is_prime[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            start = p * p
            is_prime[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i in range(2, limit + 1) if is_prime[i]]

