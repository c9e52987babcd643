"""Minimum-cover instances and the greedy / exact solvers.

The universe is {0, ..., universe_size - 1}; each set is an int bitmask,
built once by the reduction or the validating constructor and read by
every solver. The greedy solver carries the classical harmonic-number
guarantee |greedy| <= H(|X|) * OPT; the exact solver returns the
lexicographically smallest index list among all minimum covers, so
results are canonical. The classic set-cover data reductions run once
per call; on what they leave, one bounded search decides "a cover of at
most k sets?", the optimum is a descent on that decision and the witness
comes by self-reduction on it.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from typing import NamedTuple

from gcdlcm.errors import DomainError, InfeasibleError
from gcdlcm.numeric import set_bits


class _CoverFields(NamedTuple):
    universe_size: int
    masks: tuple[int, ...]


class CoverInstance(_CoverFields):
    """Universe size plus an ordered list of set bitmasks (bit e set when
    the set holds element e). ``CoverInstance(universe_size, sets)`` checks
    index lists from outside, in any order and with repeats, and builds the
    masks in that pass; ``CoverInstance._make((universe_size, masks))``
    takes a tuple of masks below ``1 << universe_size`` unchecked. ``sets``
    views the masks as sorted index tuples."""

    __slots__ = ()

    def __new__(cls, universe_size: int, sets):
        n = universe_size
        if type(n) is not int or n < 0:  # bool, a subclass of int, is refused
            raise DomainError(f"universe size must be a nonnegative int, got {n!r}")
        masks = []
        for s in map(tuple, sets):  # read twice: set() and sorted() fail on some types
            if all(type(e) is int for e in s):
                s = sorted(set(s))  # the smallest bad element is named
            m = 0
            for e in s:
                if type(e) is not int or not 0 <= e < n:
                    raise DomainError(f"set element {e!r} is not an int in range({n})")
                m |= 1 << e
            masks.append(m)
        return _CoverFields.__new__(cls, n, tuple(masks))

    def __reduce__(self):
        # unpickle through the masks: ``__new__`` would read them as index lists
        return type(self)._make, (tuple(self),)

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(set_bits, self.masks))


class CoverSolution(NamedTuple):
    chosen: tuple[int, ...]
    is_optimal: bool

    @property
    def size(self) -> int:
        return len(self.chosen)


def require_feasible(inst: CoverInstance, detail: str = "") -> None:
    """Raise InfeasibleError naming the smallest element in no set, with
    ``detail`` appended to the message."""
    union = 0
    for m in inst.masks:
        union |= m
    x = (~union & (union + 1)).bit_length() - 1  # lowest bit not in the union
    if x < inst.universe_size:
        raise InfeasibleError(
            f"element {x} is contained in no set{detail}",
            certificate={"uncoverable_element": x},
        )


def greedy_cover(inst: CoverInstance) -> CoverSolution:
    """Greedy approximation; ties break to the lowest set index. Flagged
    optimal only when the answer has size 0 or 1."""
    require_feasible(inst)
    chosen = _greedy_order(inst.masks, (1 << inst.universe_size) - 1)
    return CoverSolution(chosen=tuple(sorted(chosen)), is_optimal=len(chosen) <= 1)


def exact_cover(inst: CoverInstance) -> CoverSolution:
    """Minimum cover; among minimum covers, the lexicographically smallest
    index list. An empty universe is covered by the empty subfamily.

    ``_kernelize`` runs once; the optimum by descent and the witness by
    self-reduction on one decision (``_exact_search``) run on the residual
    masks it hands back, mapped back through the increasing live indices
    and joined to the forced sets.
    """
    require_feasible(inst)
    forced, live, uncovered, residual = _kernelize(inst.masks, (1 << inst.universe_size) - 1)
    chosen = _exact_search(residual, uncovered)
    return CoverSolution(tuple(sorted(forced + [live[i] for i in chosen])), is_optimal=True)


def decide_cover(inst: CoverInstance, k: int) -> bool:
    """Is there a cover of size <= k? Infeasible instances answer no.
    The one decision, on the residual masks ``_kernelize`` hands back and
    k less the forced sets, with no test on k: it refuses a negative one."""
    try:
        require_feasible(inst)
    except InfeasibleError:
        return False
    forced, _, uncovered, residual = _kernelize(inst.masks, (1 << inst.universe_size) - 1)
    return _cover_within(residual, uncovered, k - len(forced)) is not None


def _kernelize(masks: Sequence[int], full: int) -> tuple[list[int], list[int], int, list[int]]:
    """Apply the set-cover data reductions to a fixpoint on the bitmasks
    of a feasible instance over the elements of ``full``. Returns
    (forced, live, uncovered, residual): the set indices every canonical
    cover takes, the increasing indices of the sets still to choose from,
    the elements the forced sets leave uncovered (0 when none), and the
    live sets' masks restricted to those elements, in live order.

    Each round restricts the live sets to the uncovered elements and
      1. drops a set that adds nothing there,
      2. keeps only the lowest index among sets equal there,
      3. takes every set holding an element no other live set holds.

    None of the rules changes the optimum or the lexicographically
    smallest minimum cover W (of two sorted index lists of equal length,
    the smaller holds the least index of their symmetric difference):
      - A forced set lies in every cover built from live sets, and W is
        built from live sets (below), so it lies in W.
      - Every minimum cover holds the forced sets, so none holds a set
        adding nothing beyond them: it would be redundant.
      - If sets i < j agree on the uncovered elements, a minimum cover
        holding j holds no i (j would be redundant), and swapping j for
        i gives a lexicographically smaller one. So W never holds j.
    With the forced sets F fixed, minimum covers F + R and F + R' differ
    where R and R' do, so W is F plus the canonical cover of the residual,
    whose live indices map back in increasing order.
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
            return forced, live, uncovered, list(restricted)
        for m, i in restricted.items():
            if m & unique:
                forced.append(i)
                uncovered &= ~m


def _greedy_order(masks: Sequence[int], full: int) -> list[int]:
    """Repeatedly pick the set covering the most uncovered elements of
    ``full``; ties break to the lowest set index. Returns indices in pick
    order. Gains only fall, so a heap of stale (-gain, index) entries
    picks the same set once its top is fresh."""
    heap = [(-m.bit_count(), i) for i, m in enumerate(masks)]
    heapq.heapify(heap)
    covered = 0
    chosen: list[int] = []
    while covered != full:
        _, i = heapq.heappop(heap)
        top = (-(masks[i] & ~covered).bit_count(), i)
        if heap and top > heap[0]:
            heapq.heappush(heap, top)
        else:
            chosen.append(i)
            covered |= masks[i]
    return chosen


def _exact_search(masks: list[int], full: int) -> list[int]:
    """Lexicographically smallest minimum cover of ``full`` by sets within
    it, by descent and self-reduction on the one decision ``_cover_within``.

    The descent starts from greedy's cover and asks for one set fewer
    than the last cover found until the answer is no: that gives a
    minimum cover C of s sets. The witness W is fixed one position at a
    time. With W[:p] fixed and C[p:] covering the rest, each j > W[p - 1]
    whose later sets cover what it leaves with s - p - 1 sets (no fewer
    can) starts a minimum cover, and a smaller p-th index is
    lexicographically smaller whatever follows: W[p] is the least such j.
    C[p] is one, so only j < C[p] are decided, and a yes replaces C[p:]
    by j and the cover found. A j adding nothing would leave s - 1 sets,
    so it is skipped. Each decision asks for the rest by the later sets
    restricted to it, which cover it, since C[p:] lies among them.
    """
    cover = _greedy_order(masks, full)
    while (fewer := _cover_within(masks, full, len(cover) - 1)) is not None:
        cover = fewer
    cover.sort()  # cover[:p] is final
    covered = 0
    for p in range(len(cover)):
        left = len(cover) - p - 1  # sets after the one position p takes
        for j in range(cover[p - 1] + 1 if p else 0, cover[p]):
            if masks[j] & ~covered:
                rest = full & ~(covered | masks[j])
                found = _cover_within([m & rest for m in masks[j + 1 :]], rest, left)
                if found is not None:
                    cover[p:] = [j] + sorted(j + 1 + i for i in found)
                    break
        covered |= masks[cover[p]]
    return cover


def _cover_within(masks: list[int], full: int, k: int) -> list[int] | None:
    """The first cover of ``full`` by at most ``k`` of the sets (which lie
    within it and cover it) that the search meets, or None, as for any
    negative k. The root's bound ceil(|full| / largest set) refutes k, else
    greedy's cover accepts it, else a branch-and-bound stopping at its first
    leaf decides. It branches on the first element ``_packing`` keeps, tries
    its holders by decreasing gain, skips one whose gain a tried sibling's
    contains, and cuts a node once its depth plus the packing exceeds k."""
    if not full:
        return [] if k >= 0 else None
    if -(-full.bit_count() // max(map(int.bit_count, masks))) > k:
        return None  # before greedy, which a descent's last step would redo
    greedy = _greedy_order(masks, full)
    if len(greedy) <= k:
        return greedy
    holders, packing = _packing(masks, full)

    def children(covered: int, depth: int):
        # yield (set, coverage) per child of a node the packing keeps
        rem = full & ~covered
        need, x = packing(rem, k + 1 - depth)
        if depth + need > k:
            return
        cands = sorted(holders[x], key=lambda i: (-(masks[i] & rem).bit_count(), i))
        tried: list[int] = []
        for i in cands:
            g = masks[i] & rem
            if any(g & ~t == 0 for t in tried):
                continue  # gain dominated by a sibling already explored
            tried.append(g)
            yield i, covered | masks[i]

    # a stack of (open node, set leading to it) keeps off the recursion limit
    stack = [(children(0, 0), -1)]
    while stack:
        step = next(stack[-1][0], None)
        if step is None:
            stack.pop()
        elif step[1] == full:
            return [i for _, i in stack[1:]] + [step[0]]
        else:
            stack.append((children(step[1], len(stack)), step[0]))
    return None


def _packing(masks: list[int], full: int):
    """The element -> holding sets index, and the packing lower bound.

    ``bound(rem, stop)`` takes the elements of ``rem`` by fewest holders
    (lowest on ties) and keeps one when none of its holders holds a kept
    element. Each kept element needs a set of its own (they are a feasible
    solution of the dual of the set-cover LP), so it returns their count,
    stopping at ``stop``, and the first kept element.
    """
    holders: list[list[int]] = [[] for _ in range(full.bit_length())]
    reach = [0] * full.bit_length()  # element -> union of the sets holding it
    for i, m in enumerate(masks):
        for e in set_bits(m):
            holders[e].append(i)
            reach[e] |= m
    by_count: dict[int, int] = {}  # holder count -> bitmask of the elements
    for e, hs in enumerate(holders):
        by_count[len(hs)] = by_count.get(len(hs), 0) | 1 << e
    groups = [by_count[c] for c in sorted(by_count)]

    def bound(rem: int, stop: int) -> tuple[int, int]:
        need = 0
        dead = 0  # elements sharing a set with a kept element
        x = -1
        for g in groups:
            r = rem & g & ~dead
            while r:
                e = (r & -r).bit_length() - 1
                x = e if x < 0 else x
                need += 1
                if need >= stop:
                    return need, x
                dead |= reach[e]
                r &= ~dead
        return need, x

    return holders, bound
