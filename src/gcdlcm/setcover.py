"""Minimum-cover instances and the greedy / exact solvers.

The universe is {0, ..., universe_size - 1}; sets are index lists. The
greedy solver carries the classical harmonic-number guarantee
|greedy| <= H(|X|) * OPT; the exact solver returns the lexicographically
smallest index list among all minimum covers, so results are canonical
and reproducible. The exact solver first kernelizes the instance with the
classic set-cover data reductions (sets that add nothing, duplicate sets,
forced sets) and then runs the two-phase branch-and-bound of the
compiled/pure kernel pair on the residual instance only.
"""

from __future__ import annotations

from dataclasses import dataclass

from gcdlcm import _kernel
from gcdlcm.errors import DomainError, InfeasibleError


@dataclass(frozen=True)
class CoverInstance:
    """Universe size plus an ordered list of index sets (canonicalized:
    each set sorted and duplicate-free; the list order is meaningful)."""

    universe_size: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.universe_size, int) or self.universe_size < 0:
            raise DomainError(f"universe size must be a nonnegative int, got {self.universe_size!r}")
        canon = []
        for s in self.sets:
            t = tuple(sorted(set(s)))
            for e in t:
                if not isinstance(e, int) or e < 0 or e >= self.universe_size:
                    raise DomainError(
                        f"set element {e!r} outside universe of size {self.universe_size}"
                    )
            canon.append(t)
        object.__setattr__(self, "sets", tuple(canon))


@dataclass(frozen=True)
class CoverSolution:
    chosen: tuple[int, ...]
    is_optimal: bool

    @property
    def size(self) -> int:
        return len(self.chosen)


def require_feasible(inst: CoverInstance, detail: str = "") -> None:
    """Raise InfeasibleError naming the smallest element in no set, with
    ``detail`` appended to the message; return when the sets cover the
    universe."""
    covered = set()
    for s in inst.sets:
        covered.update(s)
    for x in range(inst.universe_size):
        if x not in covered:
            raise InfeasibleError(
                f"element {x} is contained in no set{detail}",
                certificate={"uncoverable_element": x},
            )


def greedy_cover(inst: CoverInstance) -> CoverSolution:
    """Greedy approximation; ties break to the lowest set index.

    Optimal only when the answer has size 0 or 1; flagged accordingly.
    """
    require_feasible(inst)
    chosen = _kernel.greedy_cover(inst.universe_size, inst.sets)
    return CoverSolution(chosen=tuple(sorted(chosen)), is_optimal=len(chosen) <= 1)


def exact_cover(inst: CoverInstance) -> CoverSolution:
    """Minimum cover; among minimum covers, the lexicographically smallest
    index list. An empty universe is covered by the empty subfamily.

    The kernel search runs only on what ``_kernelize`` leaves uncovered;
    its witness maps back through the increasing list of live set indices
    and joins the forced sets.
    """
    require_feasible(inst)
    forced, live, uncovered = _kernelize(inst)
    chosen = list(forced)
    if uncovered:
        size = uncovered.bit_count()
        if size == inst.universe_size:
            sets = [inst.sets[i] for i in live]  # nothing forced: same numbering
        else:
            elems = (e for e in range(inst.universe_size) if uncovered >> e & 1)
            rank = {e: r for r, e in enumerate(elems)}
            sets = [[rank[e] for e in inst.sets[i] if e in rank] for i in live]
        chosen += (live[i] for i in _kernel.exact_cover(size, sets))
    return CoverSolution(chosen=tuple(sorted(chosen)), is_optimal=True)


def decide_cover(inst: CoverInstance, k: int) -> bool:
    """Is there a cover of size <= k? Infeasible instances answer no."""
    if k < 0:
        return False
    try:
        return exact_cover(inst).size <= k
    except InfeasibleError:
        return False


def _kernelize(inst: CoverInstance) -> tuple[list[int], list[int], int]:
    """Apply the set-cover data reductions to a fixpoint on a feasible
    instance. Returns (forced, live, uncovered): the set indices every
    canonical cover takes, the increasing indices of the sets the search
    still has to choose from, and the bitmask of the elements the forced
    sets leave uncovered (0 when they cover everything).

    Each round restricts the live sets to the uncovered elements and
      1. drops a set that adds nothing there,
      2. keeps only the lowest index among sets equal there,
      3. takes every set holding an element no other live set holds.

    None of the rules changes the lexicographically smallest minimum
    cover W (sorted index lists; of two lists of equal length, the smaller
    is the one holding the least index of their symmetric difference):
      - A forced set lies in every cover built from live sets, and W is
        built from live sets (below), so it lies in W.
      - Every minimum cover contains the forced sets, so a set adding
        nothing beyond them would be redundant in it: no minimum cover
        holds one.
      - If sets i < j agree on the uncovered elements and a minimum cover
        holds j, it cannot hold i too (j would be redundant), and swapping
        j for i gives a minimum cover whose sorted list is
        lexicographically smaller. So W never holds j.
    With the forced sets F fixed, two minimum covers F + R and F + R'
    differ exactly where R and R' do, so W is F plus the canonical cover
    of the residual instance. Live indices map back in increasing order,
    which keeps that order too.
    """
    uncovered = (1 << inst.universe_size) - 1
    pow2 = [1 << e for e in range(inst.universe_size)]
    masks = [sum(map(pow2.__getitem__, s)) for s in inst.sets]
    live = list(range(len(masks)))
    forced: list[int] = []
    while True:
        restricted: dict[int, int] = {}  # mask on the uncovered -> lowest index
        for i in live:
            m = masks[i] & uncovered
            if m and m not in restricted:
                restricted[m] = i
        live = list(restricted.values())
        # elements held by exactly one live set: in `once` but not in `twice`
        once = twice = 0
        for m in restricted:
            twice |= once & m
            once |= m
        unique = once & ~twice
        if not unique:
            return forced, live, uncovered
        for m, i in restricted.items():
            if m & unique:
                forced.append(i)
                uncovered &= ~m
