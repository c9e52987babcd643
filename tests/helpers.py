"""Shared oracles and process helpers for the test suite.

The oracles here are deliberately independent of the library internals:
plain exhaustive enumeration over subsets, math.gcd/math.lcm for set
values, and the all-pairs fixed point for coprime refinement. Anything
the solvers claim is checked against these.
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
