"""Transforms between subset-gcd/lcm problems and minimum cover.

Forward direction: one attainment reduction builds every cover. A set a
of positive integers, next to a required set b (possibly empty), becomes
a cover instance over the coprime basis of a | b: each element of a owns
the basis elements whose extreme exponent (max for lcm, min for gcd) it
attains, and the basis elements some element of b already attains leave
the universe. A subfamily of owner sets covers the universe exactly when
the owners, together with b, preserve the lcm (resp. gcd) of a | b, so
optimal sizes transfer both ways.

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

from gcdlcm.basis import compute_basis, exponent_profile
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


def attainment_reduction(a: Iterable[int], b: Iterable[int], stat: str) -> CoverReduction:
    """Attainment cover of a, next to a required set b, over the coprime
    basis of a | b; ``stat`` ("min" or "max") picks the exponent to attain.

    Columns on which some element of b attains the ``stat`` exponent need
    no covering and are dropped from the universe. Each element of a owns
    the remaining columns it attains, as a bitmask built in the one walk
    over its row; equal masks collapse to the smallest owner, so
    reduction-produced instances have pairwise-distinct sets. The masks
    go to the search as they are, through ``CoverInstance.from_masks``.
    """
    a_set, b_set = natset(a), natset(b)
    if not a_set and not b_set:
        raise DomainError("cannot reduce an empty set")
    cb = compute_basis(a_set + b_set)
    profile = exponent_profile(cb, stat)
    extreme = [profile[p] for p in cb.basis]
    a_members, b_members = set(a_set), set(b_set)
    b_rows = [row for x, row in zip(cb.source, cb.exponents) if x in b_members]
    cols = [c for c, e in enumerate(extreme) if all(row[c] != e for row in b_rows)]
    bits = [(1 << j, c, extreme[c]) for j, c in enumerate(cols)]
    owner: dict[int, int] = {}  # mask -> smallest owner
    for x, row in zip(cb.source, cb.exponents):
        if x in a_members:
            owner.setdefault(sum(bit for bit, c, e in bits if row[c] == e), x)
    return CoverReduction(
        cover=CoverInstance.from_masks(len(cols), owner),
        universe_labels=tuple(cb.basis[c] for c in cols),
        set_owners=tuple(owner.values()),
    )


def lcm_to_cover(a: Iterable[int]) -> CoverReduction:
    """Cover instance whose minimum cover size equals the smallest nonempty
    subset of a preserving lcm(a)."""
    return attainment_reduction(a, (), "max")


def gcd_to_cover(a: Iterable[int]) -> CoverReduction:
    """Cover instance whose minimum cover size equals the smallest nonempty
    subset of a preserving gcd(a)."""
    return attainment_reduction(a, (), "min")


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
        owners.setdefault(math.prod(primes[j] for j in s), i)
    return CoverImage(elements=natset(owners), owners=owners, target=math.prod(primes))


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
        owners.setdefault(total // math.prod(primes[j] for j in s), i)
    elements = natset(owners)
    return CoverImage(elements=elements, owners=owners, target=math.gcd(*elements))
