"""Shared oracles and process helpers for the test suite.

The oracles here are deliberately independent of the library internals:
plain exhaustive enumeration over subsets (whole, or per connected
component of a cover), math.gcd/math.lcm for set values, the all-pairs
fixed point for coprime refinement, and the bit size of an input.
Anything the solvers claim is checked against these.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(
    *args: str, stdin: str | None = None, env: dict[str, str] | None = None
) -> subprocess.CompletedProcess:
    """``python -m gcdlcm`` with this checkout's ``src`` first on the path."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "gcdlcm", *args],
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
