"""Shared oracles and process helpers for the test suite.

The oracles here are deliberately independent of the library internals:
plain exhaustive enumeration over subsets (whole, or per connected
component of a cover), math.gcd/math.lcm for set values, the all-pairs
fixed point for coprime refinement, the bit size of an input, and the
exponent profile and attainment cover walked over every cell of a dense
exponent matrix. Anything the solvers claim is checked against these.
A basis's rows of nonzeros are read here too (``densify``,
``reconstruct``), so the library keeps no dense view of its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from math import gcd, lcm, prod
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(
    *args: str, stdin: str | None = None, env: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    """``python -m gcdlcm`` with this checkout's ``src`` first on the path."""
    return run_python("-m", "gcdlcm", *args, stdin=stdin, env=env)


def run_python(
    *args: str, stdin: str | None = None, env: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    """A fresh ``python ARGS`` with this checkout's ``src`` first on the path."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )


def set_value(mode: str, values) -> int:
    """gcd or lcm of the values, with gcd(())=0 and lcm(())=1."""
    return gcd(*values) if mode == "min-gcd" else lcm(*values)


def exhaustive_min_subset(a, b, mode, nonempty: bool = False):
    """(size, witness) of the smallest S within a attaining the target with b.

    Enumerates subsets in (size, lexicographic) order, so the witness is
    canonical. nonempty=True skips S = {} even when it attains the target.
    """
    a = tuple(sorted(set(a)))
    b = tuple(sorted(set(b)))
    target = set_value(mode, a + b)
    start = 1 if nonempty else 0
    for size in range(start, len(a) + 1):
        for combo in combinations(a, size):
            if set_value(mode, combo + b) == target:
                return size, combo
    raise AssertionError("the full set always attains the target")


def exhaustive_min_cover(universe_size, sets):
    """(size, lexicographically smallest witness), or None when infeasible."""
    need = set(range(universe_size))
    for size in range(len(sets) + 1):
        for combo in combinations(range(len(sets)), size):
            covered = set()
            for i in combo:
                covered.update(sets[i])
            if need <= covered:
                return size, combo
    return None


def componentwise_min_cover(universe_size, sets):
    """``exhaustive_min_cover`` run on each connected component (sets
    sharing an element are connected) and joined.

    A cover is a cover of every component, so the optima add up. Two
    minimum covers differ exactly where their parts differ, so the least
    index of their symmetric difference lies in one component: the join
    of the components' lexicographically smallest minimum covers is the
    lexicographically smallest minimum cover of the whole.
    """
    root = list(range(len(sets)))  # union-find over set indices

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    holder = {}
    for i, s in enumerate(sets):
        for e in s:
            root[find(i)] = find(holder.setdefault(e, i))
    if len(holder) < universe_size:
        return None
    components = {}
    for i in range(len(sets)):
        components.setdefault(find(i), []).append(i)
    size, witness = 0, []
    for members in components.values():
        label = {e: k for k, e in enumerate(sorted({e for i in members for e in sets[i]}))}
        part = exhaustive_min_cover(len(label), [[label[e] for e in sets[i]] for i in members])
        size += part[0]
        witness += (members[i] for i in part[1])
    return size, tuple(sorted(witness))


def input_size(a, b=()) -> int:
    """Total bit length of the union: sum of ceil(log2(x + 1)), each element
    counted once even if listed in both sets."""
    union = set(a) | set(b)
    for v in union:
        if v < 1:
            raise ValueError(f"input-size elements must be >= 1, got {v}")
    # ceil(log2(x + 1)) == x.bit_length() for x >= 1
    return sum(v.bit_length() for v in union)


def pairwise_refine(entries: set[int]) -> list[int]:
    """Fixed point of pairwise splitting; returns an ascending coprime list.

    The pair picked each step is the lexicographically first (by ascending
    value order) with gcd > 1, and the scan restarts after every split.
    Entries equal to 1 are dropped; equal values merge.
    """
    current = sorted(entries)
    while True:
        found = None
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                h = gcd(current[i], current[j])
                if h > 1:
                    found = (current[i], current[j], h)
                    break
            if found:
                break
        if found is None:
            return current
        p, q, h = found
        merged = set(current)
        merged.discard(p)
        merged.discard(q)
        for v in (p // h, q // h, h):
            if v > 1:
                merged.add(v)
        current = sorted(merged)


def dense_exponents(values, basis) -> list[list[int]]:
    """One row per value, one cell per basis element: the exponent of each
    basis element in the value, found by dividing."""
    rows = []
    for x in values:
        row = []
        for p in basis:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            row.append(e)
        assert x == 1, "not a product of basis powers"
        rows.append(row)
    return rows


def densify(basis, nonzeros) -> list[list[int]]:
    """The dense matrix that rows of (column, exponent) nonzeros stand
    for: one row per source element, one cell per basis element."""
    rows = []
    for pairs in nonzeros:
        row = [0] * len(basis)
        for c, e in pairs:
            row[c] = e
        rows.append(row)
    return rows


def reconstruct(basis, pairs) -> int:
    """The product of ``basis[c] ** e`` over one row's nonzeros."""
    return prod(basis[c] ** e for c, e in pairs)


def dense_exponent_profile(values, basis, stat: str) -> dict[int, int]:
    """Per basis element, the max or min exponent over every cell of its
    column."""
    agg = max if stat == "max" else min
    columns = zip(*dense_exponents(values, basis))
    return dict(zip(basis, map(agg, columns)))


def dense_attainment_reduction(a, b, stat: str):
    """(universe size, masks, universe labels, set owners) of the
    attainment cover of a next to b, by a walk over every cell.

    The basis is the pairwise refinement of a | b. A column leaves the
    universe when some element of b attains its extreme; each element of
    a, ascending, owns the bitmask of the remaining columns it attains,
    and equal masks keep the smallest owner.
    """
    a, b = sorted(set(a)), sorted(set(b))
    basis = pairwise_refine({v for v in a + b if v > 1})
    extreme = dense_exponent_profile(sorted(set(a + b)), basis, stat)
    row = dict(zip(a + b, dense_exponents(a + b, basis)))
    cols = [c for c, p in enumerate(basis) if all(row[x][c] != extreme[p] for x in b)]
    owner = {}
    for x in a:
        attained = (j for j, c in enumerate(cols) if row[x][c] == extreme[basis[c]])
        owner.setdefault(sum(1 << j for j in attained), x)
    return len(cols), tuple(owner), tuple(basis[c] for c in cols), tuple(owner.values())
