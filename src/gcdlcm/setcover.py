"""Minimum-cover instances and the greedy / exact solvers.

The universe is {0, ..., universe_size - 1}; sets are index lists, held
as int bitmasks while solving. The greedy solver carries the classical
harmonic-number guarantee |greedy| <= H(|X|) * OPT; the exact solver
returns the lexicographically smallest index list among all minimum
covers, so results are canonical and reproducible. The exact solver first
kernelizes the instance with the classic set-cover data reductions (sets
that add nothing, duplicate sets, forced sets) and then runs a two-phase
branch-and-bound on the residual bitmasks only: a size search for the
optimum, then a lexicographic search for the witness. Both searches keep
their own stacks, so no depth of cover reaches the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def require_feasible(inst: CoverInstance, detail: str = "") -> list[int]:
    """One bitmask per set (bit e set when the set holds element e), read
    once for feasibility too: raise InfeasibleError naming the smallest
    element in no set, with ``detail`` appended to the message."""
    # sets are sorted, so s[-1] is the largest element; the table stops at
    # the largest element held, whatever universe size the input claims
    top = max((s[-1] for s in inst.sets if s), default=-1)
    pow2 = [1 << e for e in range(top + 1)]
    masks = [sum(map(pow2.__getitem__, s)) for s in inst.sets]
    union = 0
    for m in masks:
        union |= m
    x = (~union & (union + 1)).bit_length() - 1  # lowest bit not in the union
    if x < inst.universe_size:
        raise InfeasibleError(
            f"element {x} is contained in no set{detail}",
            certificate={"uncoverable_element": x},
        )
    return masks


def greedy_cover(inst: CoverInstance) -> CoverSolution:
    """Greedy approximation; ties break to the lowest set index.

    Optimal only when the answer has size 0 or 1; flagged accordingly.
    """
    masks = require_feasible(inst)
    chosen = _greedy_order(masks, (1 << inst.universe_size) - 1)
    return CoverSolution(chosen=tuple(sorted(chosen)), is_optimal=len(chosen) <= 1)


def exact_cover(inst: CoverInstance) -> CoverSolution:
    """Minimum cover; among minimum covers, the lexicographically smallest
    index list. An empty universe is covered by the empty subfamily.

    The search runs only on what ``_kernelize`` leaves uncovered: the live
    sets restricted to the uncovered elements, which keep their bit
    positions. Its witness maps back through the increasing list of live
    set indices and joins the forced sets. Searching the restricted masks
    in place gives the witness that renumbering the uncovered elements in
    increasing order would give: renumbering changes no bit count and no
    order between elements, so the branching element (fewest holders,
    lowest on ties), every bound and every candidate order stay the same.
    """
    masks = require_feasible(inst)
    forced, live, uncovered = _kernelize(masks, (1 << inst.universe_size) - 1)
    chosen = list(forced)
    if uncovered:
        residual = [masks[i] & uncovered for i in live]
        chosen += (live[i] for i in _exact_search(residual, uncovered))
    return CoverSolution(chosen=tuple(sorted(chosen)), is_optimal=True)


def decide_cover(inst: CoverInstance, k: int) -> bool:
    """Is there a cover of size <= k? Infeasible instances answer no."""
    if k < 0:
        return False
    try:
        return exact_cover(inst).size <= k
    except InfeasibleError:
        return False


def _kernelize(masks: list[int], full: int) -> tuple[list[int], list[int], int]:
    """Apply the set-cover data reductions to a fixpoint on the bitmasks
    of a feasible instance over the elements of ``full``. Returns
    (forced, live, uncovered): the set indices every canonical cover takes, the increasing indices of the sets the search
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
    uncovered = full
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


def _greedy_order(masks: list[int], full: int) -> list[int]:
    """Repeatedly pick the set covering the most uncovered elements of
    ``full``; ties break to the lowest set index. Returns indices in pick
    order."""
    covered = 0
    chosen: list[int] = []
    while covered != full:
        best_i = -1
        best_gain = 0
        for i, m in enumerate(masks):
            gain = (m & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_i = i
        chosen.append(best_i)
        covered |= masks[best_i]
    return chosen


def _exact_search(masks: list[int], full: int) -> list[int]:
    """Lexicographically smallest minimum cover of ``full`` by sets within
    it. Greedy gives an upper bound, a branch-and-bound on the uncovered
    element held by the fewest sets gives the optimal size, and a
    lexicographic depth-first search at that size gives the witness."""
    if not full:
        return []
    ub = len(_greedy_order(masks, full))
    size = _min_cover_size(masks, full, ub)
    return _lex_min_cover(masks, full, size)


def _min_cover_size(masks: list[int], full: int, ub: int) -> int:
    if -(-full.bit_count() // max(m.bit_count() for m in masks)) >= ub:
        return ub  # the root's lower bound already meets the greedy cover
    num_sets = len(masks)
    holders: list[list[int]] = [[] for _ in range(full.bit_length())]  # element -> sets
    for i, m in enumerate(masks):
        for e, bit in enumerate(bin(m)[:1:-1]):  # bit 0 first
            if bit == "1":
                holders[e].append(i)
    best = ub

    def children(covered: int, depth: int):
        """Yield the coverage of each child of this node worth searching;
        the bound is checked again each time a child's search returns."""
        rem = full & ~covered
        maxgain = max((m & rem).bit_count() for m in masks)
        need = -(-rem.bit_count() // maxgain)
        if depth + need >= best:
            return
        # branch on the uncovered element in the fewest sets; ties: lowest element
        x = -1
        fewest = num_sets + 1
        r = rem
        while r:
            low = r & -r
            e = low.bit_length() - 1
            if len(holders[e]) < fewest:
                fewest = len(holders[e])
                x = e
            r ^= low
        cands = sorted(holders[x], key=lambda i: (-(masks[i] & rem).bit_count(), i))
        tried: list[int] = []
        for i in cands:
            g = masks[i] & rem
            if any(g & ~t == 0 for t in tried):
                continue  # gain dominated by a sibling already explored
            tried.append(g)
            yield covered | masks[i]
            if depth + need >= best:
                return

    # an explicit stack of open nodes keeps deep covers off the recursion limit
    stack = [children(0, 0)]
    while stack:
        covered = next(stack[-1], None)
        if covered is None:
            stack.pop()
        elif covered == full:
            best = min(best, len(stack))
        else:
            stack.append(children(covered, len(stack)))
    return best


def _lex_min_cover(masks: list[int], full: int, size: int) -> list[int]:
    num_sets = len(masks)
    suffix_union = [0] * (num_sets + 1)
    suffix_maxbits = [0] * (num_sets + 1)
    for i in range(num_sets - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | masks[i]
        suffix_maxbits[i] = max(suffix_maxbits[i + 1], masks[i].bit_count())

    def viable(start: int, covered: int, left: int) -> bool:
        """Can ``left`` more sets from ``start`` on complete ``covered``?"""
        return (
            left > 0
            and covered | suffix_union[start] == full
            and (full & ~covered).bit_count() <= left * suffix_maxbits[start]
        )

    def children(start: int, covered: int):
        for i in range(start, num_sets):
            if masks[i] & ~covered:  # minimum covers never include a set adding nothing
                yield i, covered | masks[i]

    # depth-first over increasing index lists, so the first cover found is
    # the lexicographically smallest one of this size
    chosen: list[int] = []  # chosen[d] leads from stack[d] to stack[d + 1]
    stack = [children(0, 0)] if viable(0, 0, size) else []
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        i, covered = step
        if covered == full:
            return chosen + [i]
        if viable(i + 1, covered, size - len(stack)):
            chosen.append(i)
            stack.append(children(i + 1, covered))
    raise RuntimeError("internal: lexicographic search missed the known optimum")
