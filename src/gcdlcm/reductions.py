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
whole solve. The instance's sets are canonical and are not checked
again, nor merged: the basis rows are a's, then b's.

Backward direction: a cover instance over X embeds into integers by
assigning the j-th prime to universe element j; a set maps to the product
of its primes (lcm variant). The gcd variant is the complement of that
image: each element x becomes the total product divided by x. A family
with no sets has no image, nor has an empty universe a gcd one: both are
refused. Every transform carries owner maps so solutions can be pulled back.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from gcdlcm.basis import _columns
from gcdlcm.errors import DomainError
from gcdlcm.numeric import NatSet, ProblemInstance, first_primes, natset, set_bits
from gcdlcm.setcover import CoverInstance, require_feasible


class BEliminationMap(NamedTuple):
    """Image of a under x -> gcd({x} | b), with a section back to representatives.

    section maps each reduced value to the smallest element of a producing
    it, so gcd({section(v)} | b) == v for every reduced v.
    """

    reduced: NatSet
    section: dict[int, int]


class CoverReduction(NamedTuple):
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

    It is read off the basis columns. A column's extreme is the max of its
    exponents, or for "min" their min if every row holds it and 0 otherwise.
    The holders at the extreme attain it, or at 0 the rows holding nothing.
    A column some element of b attains leaves the universe; any other puts
    its bit in the mask of each row attaining it, a 0-extreme bit starting
    set in every mask and leaving each holder's. Equal masks collapse to
    the smallest owner, so reduction-produced instances have
    pairwise-distinct sets. The masks go to the search as they are,
    through ``CoverInstance._make``.

    a and b must be canonical sets, not both empty, and b is empty for
    "min" (``reduce_instance`` folds it into a first). Nothing is checked
    or merged: a's rows come first, then b's, so a column is b's when its
    attaining rows reach past a; a value in both just repeats a row.
    """
    basis, columns = _columns(a + b)
    masks = [0] * len(a)  # b's rows never take a bit
    held_by_none = 0  # the bits of the kept columns with extreme 0
    labels: list[int] = []
    for p, (rows, exps) in zip(basis, columns):
        bit = 1 << len(labels)
        if stat == "min" and len(rows) < len(a):  # b is empty
            held_by_none += bit
            bit = -bit  # each holder takes the bit out again
        else:
            extreme = max(exps) if stat == "max" else min(exps)
            if exps.count(extreme) < len(exps):
                rows = [r for r, e in zip(rows, exps) if e == extreme]
            if rows[-1] >= len(a):
                continue
        for r in rows:
            masks[r] += bit
        labels.append(p)
    owner: dict[int, int] = {}  # mask -> smallest owner
    for x, m in zip(a, masks):
        owner.setdefault(m + held_by_none, x)
    return CoverReduction(
        cover=CoverInstance._make((len(labels), tuple(owner))),
        universe_labels=tuple(labels),
        set_owners=tuple(owner.values()),
    )


class CoverImage(NamedTuple):
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
    gcd is 1, the target the subset problem must preserve. An empty universe
    is refused: it needs no set, and a min-gcd subset is never empty.
    """
    img = cover_to_lcm(inst)
    if not inst.universe_size:
        raise DomainError("an empty universe has no min-gcd image: the gcd of no element is 0")
    owners = {img.target // x: i for x, i in img.owners.items()}
    return CoverImage(elements=natset(owners), owners=owners, target=1)
