"""Coprime basis of an integer set with the full exponent matrix.

A coprime basis of a set A is a list of pairwise coprime integers >= 2
such that every element of A is exactly a product of powers of basis
elements. Bases are not unique in general; the one computed here is the
natural coprime base, at which every refinement by gcd splits ends,
whatever the order of the splits, so the result is deterministic. It is
built from a worklist that splits each new value against a
pairwise-coprime list, without rescanning pairs already known coprime.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from gcdlcm.errors import DomainError
from gcdlcm.numeric import NatSet, natset


@dataclass(frozen=True)
class CoprimeBasis:
    """Basis with exponent matrix: rows follow source order, columns basis order."""

    source: NatSet
    basis: tuple[int, ...]
    exponents: tuple[tuple[int, ...], ...]

    def exponent(self, a: int, p: int) -> int:
        """Multiplicity of basis element p in source element a."""
        return self.exponents[self.source.index(a)][self.basis.index(p)]

    def reconstruct(self, a: int) -> int:
        """Product of basis powers for a's row; equals a by the invariant."""
        row = self.exponents[self.source.index(a)]
        return math.prod(p**e for p, e in zip(self.basis, row))


def _refine(values: Iterable[int]) -> list[int]:
    """Natural coprime base of the values (all >= 2), ascending.

    A worklist feeds a pairwise-coprime list. A value coprime to every
    listed entry joins the list; a value x sharing h > 1 with a listed p
    takes p out and sends x // h, p // h and h back to the worklist (parts
    equal to 1 are dropped). Each split shrinks the product of list and
    worklist by h, so the loop ends, and every value stays a product of
    powers of what is listed. The result does not depend on the order of
    the splits: a set's natural coprime base is unique (Bernstein,
    "Factoring into coprimes in essentially linear time", J. Algorithms
    54, 2005).
    """
    coprime: list[int] = []
    work = list(values)
    while work:
        x = work.pop()
        for k, p in enumerate(coprime):
            h = math.gcd(x, p)
            if h > 1:
                del coprime[k]
                work.extend(v for v in (x // h, p // h, h) if v > 1)
                break
        else:
            coprime.append(x)
    return sorted(coprime)


def compute_basis(a: Iterable[int]) -> CoprimeBasis:
    """Coprime basis of a set of positive integers.

    Elements equal to 1 get an all-zero exponent row and never enter the
    refinement. Every other element is a product of powers of the basis,
    so one pass of division extracts its exponents.
    """
    source = natset(a)
    basis = tuple(_refine(v for v in source if v > 1))
    rows: list[tuple[int, ...]] = []
    for v in source:
        row = []
        rem = v
        for p in basis:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            row.append(e)
        if rem != 1:
            raise RuntimeError("internal: an element is not a product of basis powers")
        rows.append(tuple(row))
    return CoprimeBasis(source=source, basis=basis, exponents=tuple(rows))


def exponent_profile(cb: CoprimeBasis, stat: str) -> dict[int, int]:
    """Per basis element, the max ("max") or min ("min") exponent over all rows.

    The product of p**profile[p] equals lcm(source) for "max" and
    gcd(source) for "min".
    """
    if stat not in ("max", "min"):
        raise DomainError(f"stat must be 'max' or 'min', got {stat!r}")
    if not cb.source:
        raise DomainError("exponent profile of an empty set does not exist")
    agg = max if stat == "max" else min
    return {
        p: agg(row[col] for row in cb.exponents)
        for col, p in enumerate(cb.basis)
    }
