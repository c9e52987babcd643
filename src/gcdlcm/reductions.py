"""Transforms between subset-gcd/lcm problems and minimum cover.

Forward direction: a set of positive integers becomes a cover instance
over its coprime basis, where each element owns the basis elements whose
extreme exponent it attains (max for lcm, min for gcd). A subfamily of
owner sets covers the basis exactly when the owners preserve the lcm
(resp. gcd) of the whole set, so optimal sizes transfer both ways.

Backward direction: a cover instance over X embeds into integers by
assigning the j-th prime to universe element j; a set maps to the product
of its primes (lcm variant) or to the total product divided by its primes
(gcd variant). Every transform carries owner maps so solutions can be
pulled back.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from gcdlcm.basis import CoprimeBasis, compute_basis, exponent_profile
from gcdlcm.errors import DomainError
from gcdlcm.numeric import NatSet, first_primes, natset
from gcdlcm.setcover import CoverInstance, require_feasible


@dataclass(frozen=True)
class BEliminationMap:
    """Image of a under x -> gcd({x} | b), with a section back to representatives.

    section maps each reduced value to the smallest element of a producing
    it, so gcd({section(v)} | b) == v for every reduced v.
    """

    reduced: NatSet
    section: dict[int, int]


@dataclass(frozen=True)
class CoverReduction:
    """Cover instance plus the maps back to integers: universe index ->
    basis element, set index -> owning source element."""

    cover: CoverInstance
    universe_labels: tuple[int, ...]
    set_owners: tuple[int, ...]


def eliminate_b(a: Iterable[int], b: Iterable[int]) -> BEliminationMap:
    """Collapse the pair (a, b) to a single set with equal min-gcd optimum.

    Replaces each x in a by gcd({x} | b); the section picks the smallest
    representative per image value.
    """
    a_set = natset(a)
    b_set = natset(b)
    if not a_set:
        raise DomainError("cannot eliminate b from an empty a")
    g_b = math.gcd(*b_set)
    section: dict[int, int] = {}
    for x in a_set:
        v = math.gcd(x, g_b)
        if v not in section:
            section[v] = x
    return BEliminationMap(reduced=natset(section), section=section)


def attainment_cover(
    cb: CoprimeBasis,
    universe_cols: list[int],
    profile: dict[int, int],
    owners_from: set[int],
) -> CoverReduction:
    """Cover instance whose sets record which universe columns each owner
    attains the profile exponent on.

    Equal sets collapse to the smallest owner, so reduction-produced
    instances have pairwise-distinct sets.
    """
    labels = tuple(cb.basis[c] for c in universe_cols)
    sets: list[tuple[int, ...]] = []
    owners: list[int] = []
    seen: set[tuple[int, ...]] = set()
    for x, row in zip(cb.source, cb.exponents):
        if x not in owners_from:
            continue
        cset = tuple(
            j for j, c in enumerate(universe_cols) if row[c] == profile[cb.basis[c]]
        )
        if cset not in seen:
            seen.add(cset)
            sets.append(cset)
            owners.append(x)
    cover = CoverInstance(universe_size=len(universe_cols), sets=tuple(sets))
    return CoverReduction(cover=cover, universe_labels=labels, set_owners=tuple(owners))


def lcm_to_cover(a: Iterable[int]) -> CoverReduction:
    """Cover instance whose minimum cover size equals the smallest nonempty
    subset of a preserving lcm(a)."""
    return _attainment_reduction(a, "max")


def gcd_to_cover(a: Iterable[int]) -> CoverReduction:
    """Cover instance whose minimum cover size equals the smallest nonempty
    subset of a preserving gcd(a)."""
    return _attainment_reduction(a, "min")


def _attainment_reduction(a: Iterable[int], stat: str) -> CoverReduction:
    """Attainment cover of a over its coprime basis, every column in the
    universe; ``stat`` ("min" or "max") picks the exponent to attain."""
    src = natset(a)
    if not src:
        raise DomainError("cannot reduce an empty set")
    cb = compute_basis(src)
    profile = exponent_profile(cb, stat)
    return attainment_cover(cb, list(range(len(cb.basis))), profile, set(src))


@dataclass(frozen=True)
class CoverImage:
    """Integer set produced from a cover instance.

    owners maps each element back to the smallest set index producing it;
    target is the full gcd/lcm value the embedded problem must preserve.
    """

    elements: NatSet
    owners: dict[int, int]
    target: int


def cover_to_lcm(inst: CoverInstance) -> CoverImage:
    """Embed a cover instance as a max-lcm problem: universe element j
    becomes the j-th prime, each set the product of its primes."""
    require_feasible(inst, "; the cover problem is trivial")
    primes = first_primes(inst.universe_size)
    owners: dict[int, int] = {}
    for i, s in enumerate(inst.sets):
        val = math.prod(primes[j] for j in s)
        if val not in owners:
            owners[val] = i
    return CoverImage(
        elements=natset(owners),
        owners=owners,
        target=math.prod(primes),
    )


def cover_to_gcd(inst: CoverInstance) -> CoverImage:
    """Embed a cover instance as a min-gcd problem: each set maps to the
    total prime product divided by the set's own primes.

    The emitted elements have gcd 1 exactly because the sets cover the
    universe, so 1 is the target the subset problem must preserve.
    """
    require_feasible(inst, "; the cover problem is trivial")
    primes = first_primes(inst.universe_size)
    total = math.prod(primes)
    owners: dict[int, int] = {}
    for i, s in enumerate(inst.sets):
        val = total // math.prod(primes[j] for j in s)
        if val not in owners:
            owners[val] = i
    elements = natset(owners)
    return CoverImage(
        elements=elements,
        owners=owners,
        target=math.gcd(*elements),
    )
