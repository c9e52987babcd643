"""End-to-end subset minimization: smallest S within a such that S together
with b preserves the gcd (or lcm) of everything.

Pipeline: the answer starts empty, which is right when b alone attains
the target. Otherwise ``reductions.reduce_instance``, the one forward
reduction, turns the instance into a cover (folding b into a for
min-gcd), the cover search solves it, and its solution maps back through
the owner maps (and the elimination section) to elements of a. Every
answer, the empty one too, is checked against the target.

A subset enumerator capped at small sizes serves as the independent
oracle for the whole pipeline.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import NamedTuple

from gcdlcm.errors import CapExceededError, DomainError
from gcdlcm.numeric import NatSet, ProblemInstance, gcd_set, lcm_set
from gcdlcm.reductions import reduce_instance
from gcdlcm.setcover import decide_cover, exact_cover, greedy_cover

BRUTE_FORCE_CAP = 20


class SolveStats(NamedTuple):
    """Wall time plus the dimensions of the reduced cover instance."""

    elapsed_s: float
    universe_size: int
    num_sets: int


class SubsetSolution(NamedTuple):
    s: NatSet
    achieved: int
    target: int
    method: str
    optimal: bool
    stats: SolveStats

    @property
    def size(self) -> int:
        return len(self.s)


def _mode_value(mode: str, values) -> int:
    return gcd_set(values) if mode == "min-gcd" else lcm_set(values)


def solve(inst: ProblemInstance, method: str = "exact") -> SubsetSolution:
    """Smallest (exact) or approximately smallest (greedy) S within a with
    the mode value of S | b equal to that of a | b.

    Greedy answers satisfy |S| <= (ln |X| + 1) * OPT over the reduced
    universe X. ``optimal`` is the cover solution's flag: owners pull back
    injectively, and an empty cover to one element. S is empty when b alone
    attains the target (no cover; sizes 0); every answer passes one check.
    """
    if method not in ("exact", "greedy"):
        raise DomainError(f"method must be 'exact' or 'greedy', got {method!r}")
    start = time.perf_counter()
    target = _mode_value(inst.mode, inst.a + inst.b)
    s, optimal, dims = (), True, (0, 0)  # the answer when b alone attains the target
    if _mode_value(inst.mode, inst.b) != target:
        red, bem = reduce_instance(inst)
        pull_back = bem.section.__getitem__ if bem is not None else lambda owner: owner
        cover_sol = exact_cover(red.cover) if method == "exact" else greedy_cover(red.cover)
        # b misses the target, so S is not empty: an empty universe has one
        # set, owned by the smallest element, and that set is the answer
        s = tuple(sorted(pull_back(red.set_owners[i]) for i in cover_sol.chosen or (0,)))
        optimal, dims = cover_sol.is_optimal, (red.cover.universe_size, len(red.cover.masks))
    achieved = _mode_value(inst.mode, s + inst.b)
    if achieved != target:
        raise RuntimeError(f"internal: solution achieves {achieved}, target {target}")
    stats = SolveStats(time.perf_counter() - start, *dims)
    return SubsetSolution(s, achieved, target, method, optimal, stats)


def decide(inst: ProblemInstance, k: int) -> bool:
    """Is there S within a, |S| <= k, attaining the target together with b?

    The shortcuts of ``solve``, then the bounded cover search asked for k
    sets, with no witness.
    """
    if k < 0:
        raise DomainError(f"subset size bound must be nonnegative, got {k}")
    target = _mode_value(inst.mode, inst.a + inst.b)
    if _mode_value(inst.mode, inst.b) == target:
        return True
    red, _ = reduce_instance(inst)
    # b misses the target, so S is not empty
    return k >= 1 and decide_cover(red.cover, k)


def brute_force(inst: ProblemInstance) -> SubsetSolution:
    """Independent oracle: enumerate subsets of a by (size, lexicographic)
    order and return the first attaining the target. Refuses |a| above
    ``BRUTE_FORCE_CAP``."""
    if len(inst.a) > BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"brute force over {len(inst.a)} elements exceeds the cap of {BRUTE_FORCE_CAP}"
        )
    start = time.perf_counter()
    target = _mode_value(inst.mode, inst.a + inst.b)
    for size in range(len(inst.a) + 1):
        for combo in combinations(inst.a, size):
            if _mode_value(inst.mode, combo + inst.b) == target:
                stats = SolveStats(time.perf_counter() - start, 0, 0)
                return SubsetSolution(combo, target, target, "brute-force", True, stats)
    raise RuntimeError("internal: the full set always attains the target")
