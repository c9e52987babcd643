"""Deterministic instance generation for test corpora and benchmarks.

The generator is pinned to SplitMix64 with the constants below rather
than any standard-library RNG, so identical seeds reproduce identical
corpora in any port of this tool. Algorithm, per draw:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output z xor (z >> 31)

An element in [2, max_value] is 2 + (draw mod (max_value - 1)); the
modulo bias is irrelevant at corpus scale and keeps the recipe trivially
portable. Elements of a are drawn first (count draws), then b (b_count
draws); each list is deduplicated afterwards.
"""

from __future__ import annotations

from gcdlcm.errors import DomainError
from gcdlcm.numeric import ProblemInstance

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """64-bit SplitMix generator; the full state is the 64-bit seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound): next_u64 mod bound."""
        return self.next_u64() % bound


def generate_instance(
    seed: int,
    count: int,
    max_value: int,
    mode: str = "min-gcd",
    b_count: int = 0,
) -> ProblemInstance:
    """Pseudo-random instance fully determined by the seed."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if max_value < 2:
        raise DomainError(f"max value must be >= 2, got {max_value}")
    if b_count < 0:
        raise DomainError(f"b count must be >= 0, got {b_count}")
    rng = SplitMix64(seed)
    a = [2 + rng.below(max_value - 1) for _ in range(count)]
    b = [2 + rng.below(max_value - 1) for _ in range(b_count)]
    return ProblemInstance(a=tuple(a), b=tuple(b), mode=mode)
