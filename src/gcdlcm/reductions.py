"""Transforms between subset-gcd/lcm problems and minimum cover.

Forward direction: ``reduce_instance`` is the one way from a checked
``ProblemInstance`` to a cover, and every cover it builds is the
attainment cover of a set a next to a required set b (possibly empty),
over the coprime basis of a | b: each element of a owns the basis
elements whose extreme exponent (max for lcm, min for gcd) it attains,
and the basis elements some element of b already attains leave the
universe. A subfamily of owner sets covers the universe exactly when
the owners, together with b, preserve the lcm (resp. gcd) of a | b, so
optimal sizes transfer both ways. Max-lcm covers a next to b as they
are. Min-gcd first folds b into a, each x becoming gcd({x} | b), and
covers that image with no b: on circulant link pruning, where b holds
the node count, the basis of all of a | b would cost tens of times the
whole solve. The instance's sets are canonical, and nothing here checks
them again.

Backward direction: a cover instance over X embeds into integers by
assigning the j-th prime to universe element j; a set maps to the product
of its primes (lcm variant). The gcd variant is the complement of that
image: each element x becomes the total product divided by x. A family
with no sets has no image and is refused. Every transform carries owner
maps so solutions can be pulled back.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from gcdlcm.basis import compute_basis, exponent_profile
from gcdlcm.errors import DomainError
from gcdlcm.numeric import NatSet, first_primes, natset
from gcdlcm.setcover import CoverInstance, require_feasible, set_bits

if TYPE_CHECKING:
    from gcdlcm.solver import ProblemInstance


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


def reduce_instance(inst: ProblemInstance) -> tuple[CoverReduction, BEliminationMap | None]:
    """The library's one forward reduction: the cover instance the solver
    searches, plus the elimination map used to collapse b (min-gcd only;
    None for max-lcm).

    Min-gcd replaces each x in a by gcd({x} | b), keeps the smallest x per
    image value as the section, and reduces the image alone.
    """
    if inst.mode == "max-lcm":
        return _attainment_cover(inst.a, inst.b, "max"), None
    if not inst.a:
        raise DomainError("cannot eliminate b from an empty a")
    g_b = math.gcd(*inst.b)
    section: dict[int, int] = {}
    for x in inst.a:
        section.setdefault(math.gcd(x, g_b), x)
    bem = BEliminationMap(reduced=tuple(sorted(section)), section=section)
    return _attainment_cover(bem.reduced, (), "min"), bem


def _attainment_cover(a: NatSet, b: NatSet, stat: str) -> CoverReduction:
    """Attainment cover of a, next to a required set b, over the coprime
    basis of a | b; ``stat`` ("min" or "max") picks the exponent to attain.

    Columns on which some element of b attains the ``stat`` exponent need
    no covering and are dropped from the universe. Each element of a owns
    the remaining columns it attains, as a bitmask built from the nonzeros
    of its row alone (``_attained``); equal masks collapse to the smallest
    owner, so reduction-produced instances have pairwise-distinct sets.
    The masks go to the search as they are, through
    ``CoverInstance.from_masks``.

    a and b must be canonical sets, not both empty; the only check left
    is the one ``compute_basis`` makes on a | b.
    """
    cb = compute_basis(a + b)
    profile = exponent_profile(cb, stat)
    extreme = [profile[p] for p in cb.basis]
    cols: Sequence[int] = range(len(extreme))
    a_rows = cb.nonzeros  # a is the source when b is empty
    if b:
        row = dict(zip(cb.source, cb.nonzeros))
        dropped = 0
        for m in _attained([row[x] for x in b], extreme, cols):
            dropped |= m
        cols = [c for c in cols if not dropped >> c & 1]
        a_rows = [row[x] for x in a]
    owner: dict[int, int] = {}  # mask -> smallest owner
    for x, m in zip(a, _attained(a_rows, extreme, cols)):
        owner.setdefault(m, x)
    return CoverReduction(
        cover=CoverInstance.from_masks(len(cols), owner),
        universe_labels=tuple([cb.basis[c] for c in cols]),
        set_owners=tuple(owner.values()),
    )


def _attained(
    rows: Sequence[tuple[tuple[int, int], ...]], extreme: list[int], cols: Sequence[int]
) -> list[int]:
    """Per row of (column, exponent) nonzeros, the bitmask of the columns
    it attains among ``cols``, bit j standing for ``cols[j]``. A row
    attains a column where its entry is the extreme. A column whose
    extreme is 0 (a min that some row lacks) it attains exactly where it
    holds no entry, so that bit starts set and the row's entry clears it."""
    bit = [0] * len(extreme)
    zero = [0] * len(extreme)  # the bits of the columns with extreme 0
    for j, c in enumerate(cols):
        bit[c] = 1 << j
        if not extreme[c]:
            zero[c] = bit[c]
    held_by_none = sum(zero)
    return [
        sum((bit[c] if e == extreme[c] else -zero[c] for c, e in row), held_by_none)
        for row in rows
    ]


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
    becomes the j-th prime, each set the product of its primes.

    A family with no sets is refused once it is known to be feasible (its
    universe is empty): its image would be an empty set, and an empty
    ``a`` next to an empty ``b`` is no subset problem.
    """
    require_feasible(inst, "; the cover problem is trivial")
    if not inst.masks:
        raise DomainError("a cover with no sets has no integer image")
    primes = first_primes(inst.universe_size)
    owners: dict[int, int] = {}
    for i, m in enumerate(inst.masks):
        owners.setdefault(math.prod(primes[j] for j in set_bits(m)), i)
    return CoverImage(elements=natset(owners), owners=owners, target=math.prod(primes))


def cover_to_gcd(inst: CoverInstance) -> CoverImage:
    """Embed a cover instance as a min-gcd problem: the complement of the
    lcm image, each of its elements x mapped to its target divided by x.

    The map is injective, so every element keeps its owner and the owners
    their order. A prime divides the gcd of the complements exactly when
    its universe element lies in no set, so the sets cover exactly when that
    gcd is 1, the target the subset problem must preserve.
    """
    img = cover_to_lcm(inst)
    owners = {img.target // x: i for x, i in img.owners.items()}
    return CoverImage(elements=natset(owners), owners=owners, target=1)
