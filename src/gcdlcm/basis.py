"""Coprime basis of an integer set, its exponent matrix held sparse, by columns or rows.

A coprime basis of a set A is a list of pairwise coprime integers >= 2
such that every element of A is exactly a product of powers of basis
elements. Bases are not unique in general; the one computed here is the
natural coprime base N (Bernstein, "Factoring into coprimes in
essentially linear time", J. Algorithms 54, 2005), which is unique, so
the result is deterministic.

It is built factor first. Trial division by the 168 primes below 1000
strips each element, stopping once p * p exceeds what is left. A
cofactor left below 1009**2 has no prime factor below 1009, so it is 1
or prime. Any other cofactor is rough; it met all 168 primes. Once one
cofactor is rough, every cofactor left above 997 is refined together by
gcd splits: a worklist splits each value against a pairwise-coprime
list held in the leaves of a product tree, so finding an entry that
shares a factor with a value takes O(log |list|) gcds. Trial division
over that base, row by row, extracts the exponents of the cofactors it
split, so columns stay in row order. On elements up to 10**6 nothing is
rough and no gcd split runs: each cofactor above 997 is a prime.

The factors found (small primes, prime cofactors, refined base entries)
form a coprime base of A, each with an exponent vector over the elements.
Dividing a vector by the gcd g of its entries gives its primitive
direction; the factors q of one direction become one basis element, the
product of their q**g. Why that is N: the grouped set is a coprime base
whose exponent vectors are primitive and pairwise non-proportional. Any
coprime base refines N, so each n in N is the product of c**k_c over a
set of entries c, disjoint for distinct n, with e_c = k_c * e_n. Every
entry lies in one of these sets, since it divides some element. Distinct
directions leave one c per n, and a primitive e_c forces k_c = 1, so
c = n. Each direction is the column of its entry: the rows holding it
and their exponents, which the attainment cover reads as they are. The
rows of a ``CoprimeBasis`` are the transpose, and a row keeps only its
nonzero exponents: on distinct integers it has a few, against hundreds
or thousands of basis elements.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable
from typing import NamedTuple

from gcdlcm.errors import DomainError
from gcdlcm.numeric import NatSet, first_primes, natset

_SMALL_PRIMES = first_primes(168)  # the primes below 1000; the next one is 1009
_SMALL_SQUARES = [(p, p * p) for p in _SMALL_PRIMES]
_PRIME_BELOW = 1009**2  # a cofactor free of the small primes and below this is prime


class CoprimeBasis(NamedTuple):
    """Basis with its exponent matrix, rows following source order and
    columns basis order. ``nonzeros[i]`` holds the (column, exponent) pairs
    of ``source[i]`` with a positive exponent, by ascending column."""

    source: NatSet
    basis: tuple[int, ...]
    nonzeros: tuple[tuple[tuple[int, int], ...], ...]


def _refine(values: Iterable[int]) -> list[int]:
    """Natural coprime base of the values (all >= 2), ascending.

    A worklist feeds a pairwise-coprime list. A value coprime to every
    listed entry joins the list; a value x sharing h > 1 with a listed p
    takes p out and sends x // h, p // h and h back to the worklist, where
    h = gcd(x, p) (parts equal to 1 are dropped). A value equal to a
    listed entry is skipped, through a set of the listed values: its split
    would only send it back. Each split shrinks the product of list and
    worklist by h, so the loop ends, and every value stays a product of
    powers of what is listed.

    The result does not depend on the order of the splits. The natural
    coprime base N of the values is the coprime base whose entries are
    products of powers of the entries of every coprime base of the values
    (Bernstein, "Factoring into coprimes in essentially linear time",
    J. Algorithms 54, 2005). Every value ever listed or waiting is a
    product of powers of N, since gcds and quotients of such products
    are. So the final list and N each factor over the other; two coprime
    sets that do are equal.

    The list lives in the leaves of a product tree, stored as a heap:
    ``tree[1]`` is the root, node i has children 2i and 2i + 1, the
    ``cap`` leaves are ``tree[cap:]`` (1 for a free slot), and every
    other node is the product of its children. A value coprime to the
    root takes a free leaf and multiplies every node above it; a full tree
    doubles, the old one becoming the left subtree of the new root and
    its right subtree all ones. Any other value x walks down from the
    root, one gcd per level, holding g = gcd(x, node): the entries are
    pairwise coprime, so g is the product of gcd(x, q) over the entries q
    below the node. It goes left, to gcd(g, left child), when that is
    above 1, and right otherwise, where g is unchanged. It ends at an
    entry p with g = gcd(x, p) = h, and frees the leaf by dividing its
    path by p.
    """
    gcd = math.gcd
    cap = 1
    tree = [0, 1]
    free = [0]
    listed: set[int] = set()
    work = list(values)
    while work:
        x = work.pop()
        if x in listed:
            continue
        g = gcd(x, tree[1])
        if g == 1:
            if not free:
                grown = [0, tree[1]]
                width = 1
                while width <= cap:
                    grown += tree[width : 2 * width]
                    grown += [1] * width
                    width <<= 1
                tree = grown
                free = list(range(2 * cap - 1, cap - 1, -1))
                cap <<= 1
            i = cap + free.pop()
            while i:
                tree[i] *= x
                i >>= 1
            listed.add(x)
            continue
        i = 1
        while i < cap:
            i <<= 1
            common = gcd(g, tree[i])
            if common > 1:
                g = common
            else:
                i += 1
        p = tree[i]
        free.append(i - cap)
        while i:
            tree[i] //= p
            i >>= 1
        listed.remove(p)
        if x != g:
            work.append(x // g)
        if p != g:
            work.append(p // g)
        work.append(g)
    return sorted(listed)


def compute_basis(a: Iterable[int]) -> CoprimeBasis:
    """Coprime basis of a set of positive integers, factor first.

    Elements equal to 1 get an empty row. The rows are the transpose of
    the columns ``_columns`` reads off the exponent directions, with no
    second pass of division.
    """
    source = natset(a)
    basis, columns = _columns(source)
    rows: list[list[tuple[int, int]]] = [[] for _ in source]
    for col, (holders, exps) in enumerate(columns):
        for row, e in zip(holders, exps):
            rows[row].append((col, e))
    return CoprimeBasis(source, basis, tuple([tuple(pairs) for pairs in rows]))


Column = tuple[tuple[int, ...], tuple[int, ...]]


def _columns(source: NatSet) -> tuple[tuple[int, ...], list[Column]]:
    """The ascending basis of a canonical set and, per basis element, its
    column: the rows holding it, ascending, and their exponents.

    The factors come from trial division by the primes below 1000 and,
    once a cofactor is rough, from one ``_refine`` of every cofactor left
    above 997; the factors of one primitive exponent direction make one
    entry (see the module docstring).
    """
    # factor -> its holder rows, ascending, and their exponents
    holders: defaultdict[int, list[int]] = defaultdict(list)
    powers: defaultdict[int, list[int]] = defaultdict(list)
    left: list[tuple[int, int]] = []  # (row, cofactor above 997), by row
    rough = False
    for row, v in enumerate(source):
        for p, square in _SMALL_SQUARES:
            if square > v:
                break
            if not v % p:
                v //= p
                e = 1
                while not v % p:
                    v //= p
                    e += 1
                holders[p].append(row)
                powers[p].append(e)
        if v > _SMALL_PRIMES[-1]:
            left.append((row, v))
            rough = rough or v >= _PRIME_BELOW
        elif v > 1:
            holders[v].append(row)
            powers[v].append(1)
    base = _refine([v for _, v in left]) if rough else ()
    whole = set(base) if rough else ()
    for row, v in left:
        if not rough or v in whole:  # every prime cofactor comes out whole
            holders[v].append(row)
            powers[v].append(1)
            continue
        for p in base:
            if not v % p:
                v //= p
                e = 1
                while not v % p:
                    v //= p
                    e += 1
                holders[p].append(row)
                powers[p].append(e)
                if v == 1:
                    break
        if v != 1:
            raise RuntimeError("internal: an element is not a product of basis powers")
    # primitive direction -> entry
    entries: dict[Column, int] = {}
    for q, rows in holders.items():
        exps = powers[q]
        g = math.gcd(*exps)
        if g > 1:
            exps = [e // g for e in exps]
            q **= g
        direction = (tuple(rows), tuple(exps))
        entries[direction] = entries.get(direction, 1) * q
    columns = sorted(entries, key=entries.__getitem__)
    return tuple([entries[direction] for direction in columns]), columns


def exponent_profile(cb: CoprimeBasis, stat: str) -> dict[int, int]:
    """Per basis element, the max ("max") or min ("min") exponent over all rows.

    The product of p**profile[p] equals lcm(source) for "max" and
    gcd(source) for "min". Only the nonzeros are read: a column's max is
    its largest entry, and its min is 0 unless every row holds it.
    """
    if stat not in ("max", "min"):
        raise DomainError(f"stat must be 'max' or 'min', got {stat!r}")
    if not cb.source:
        raise DomainError("exponent profile of an empty set does not exist")
    entries: list[list[int]] = [[] for _ in cb.basis]  # the nonzeros of each column
    for pairs in cb.nonzeros:
        for c, e in pairs:
            entries[c].append(e)
    if stat == "max":
        return dict(zip(cb.basis, map(max, entries)))
    rows = len(cb.source)
    return {p: min(es) if len(es) == rows else 0 for p, es in zip(cb.basis, entries)}
