"""Minimum-cover instances and the greedy / exact solvers.

The universe is {0, ..., universe_size - 1}; each set is an int bitmask,
built once by the reduction or the validating constructor and read by
every solver. The greedy solver carries the classical harmonic-number
guarantee |greedy| <= H(|X|) * OPT; the exact solver returns the
lexicographically smallest index list among all minimum covers, so
results are canonical. After the classic set-cover data reductions, one
bounded search answers the optimum and the decision "at most k sets?";
the witness comes by self-reduction on that decision.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from gcdlcm.errors import DomainError, InfeasibleError


@dataclass(frozen=True, init=False)
class CoverInstance:
    """Universe size plus an ordered list of set bitmasks (bit e set when
    the set holds element e). ``CoverInstance(universe_size, sets)`` checks
    index lists from outside, in any order and with repeats, and builds the
    masks in that pass; ``sets`` views them as sorted index tuples."""

    universe_size: int
    masks: tuple[int, ...]

    def __init__(self, universe_size: int, sets):
        n = universe_size
        if type(n) is not int or n < 0:  # bool, a subclass of int, is refused
            raise DomainError(f"universe size must be a nonnegative int, got {n!r}")
        masks = []
        for s in sets:
            m = 0
            for e in sorted(set(s)):  # the smallest bad element is named
                if type(e) is not int or not 0 <= e < n:
                    raise DomainError(f"set element {e!r} is not an int in range({n})")
                m |= 1 << e
            masks.append(m)
        object.__setattr__(self, "universe_size", n)
        object.__setattr__(self, "masks", tuple(masks))

    @classmethod
    def from_masks(cls, universe_size: int, masks) -> CoverInstance:
        """The instance over ``masks``, unchecked: each lies below ``1 << universe_size``."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "universe_size", universe_size)
        object.__setattr__(inst, "masks", tuple(masks))
        return inst

    @cached_property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(set_bits, self.masks))


def set_bits(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending, one ``find`` per bit: the masks
    read are mostly a few elements of a wide universe."""
    digits = bin(mask)[:1:-1]
    bits = []
    j = digits.find("1")
    while j >= 0:
        bits.append(j)
        j = digits.find("1", j + 1)
    return tuple(bits)


@dataclass(frozen=True)
class CoverSolution:
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

    One bounded search, the witness by self-reduction (``_exact_search``)
    on what ``_kernelize`` leaves, mapped back through the increasing live
    indices and joined to the forced sets.
    """
    require_feasible(inst)
    masks = inst.masks
    forced, live, uncovered = _kernelize(masks, (1 << inst.universe_size) - 1)
    residual = _exact_search([masks[i] & uncovered for i in live], uncovered)
    return CoverSolution(tuple(sorted(forced + [live[i] for i in residual])), is_optimal=True)


def decide_cover(inst: CoverInstance, k: int) -> bool:
    """Is there a cover of size <= k? Infeasible instances answer no.
    The same bounded search, asked for k sets and no witness."""
    try:
        require_feasible(inst)
    except InfeasibleError:
        return False
    return _kernel_cover(inst.masks, (1 << inst.universe_size) - 1, k) is not None


def _kernelize(masks: Sequence[int], full: int) -> tuple[list[int], list[int], int]:
    """Apply the set-cover data reductions to a fixpoint on the bitmasks
    of a feasible instance over the elements of ``full``. Returns
    (forced, live, uncovered): the set indices every canonical cover
    takes, the increasing indices of the sets still to choose from, and
    the elements the forced sets leave uncovered (0 when none).

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
            return forced, live, uncovered
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


def _kernel_cover(masks: Sequence[int], full: int, k: int) -> list[int] | None:
    """``_min_cover`` behind ``_kernelize``, forced sets included."""
    forced, live, uncovered = _kernelize(masks, full)
    if len(forced) > k:
        return None
    rest = _min_cover([masks[i] & uncovered for i in live], uncovered, k - len(forced))
    return None if rest is None else forced + [live[i] for i in rest]


def _exact_search(masks: list[int], full: int) -> list[int]:
    """Lexicographically smallest minimum cover of ``full`` by sets within
    it, by self-reduction on the one bounded search ``_min_cover``.

    ``_min_cover`` gives a minimum cover C, of s sets; the witness W is
    fixed one position at a time. With W[:p] fixed and C[p:] covering the
    rest, each j > W[p - 1] whose later sets cover what it leaves with
    s - p - 1 sets (no fewer can) starts a minimum cover, and a smaller
    p-th index is lexicographically smaller whatever follows: W[p] is the
    least such j. C[p] is one, so only j < C[p] are decided, and a yes
    replaces C[p:] by j and the cover found. A j adding nothing would
    leave s - 1 sets, so it is skipped. Each decision asks whether the
    later sets cover the rest and whether their largest could in time,
    then runs ``_kernel_cover`` (``_kernelize`` keeps the optimum).
    """
    if not full:
        return []
    suffix_union = list(accumulate(reversed(masks), int.__or__, initial=0))[::-1]
    suffix_maxbits = list(accumulate(map(int.bit_count, reversed(masks)), max, initial=0))[::-1]
    cover = sorted(_min_cover(masks, full, len(masks)))  # cover[:p] is final
    covered = 0
    for p in range(len(cover)):
        left = len(cover) - p - 1  # sets after the one position p takes
        for j in range(cover[p - 1] + 1 if p else 0, cover[p]):
            rest = full & ~(covered | masks[j])
            fits = rest.bit_count() <= left * suffix_maxbits[j + 1]
            if fits and masks[j] & ~covered and not rest & ~suffix_union[j + 1]:
                found = _kernel_cover(masks[j + 1 :], rest, left)
                if found is not None:
                    cover[p:] = [j] + sorted(j + 1 + i for i in found)
                    break
        covered |= masks[cover[p]]
    return cover


def _min_cover(masks: list[int], full: int, k: int) -> list[int] | None:
    """A smallest cover of ``full`` by at most ``k`` of the sets, which lie
    within it and cover it; None when every cover needs more. Greedy gives
    the first incumbent. The branch-and-bound branches on the first element
    ``_packing`` keeps, tries its holders by decreasing gain, skips one
    whose gain a tried sibling's contains, and bounds every node by the
    packing."""
    if not full:
        return []
    greedy = _greedy_order(masks, full)
    best = greedy if len(greedy) <= k else None
    limit = min(len(greedy), k + 1)  # search for covers below this size
    if -(-full.bit_count() // max(m.bit_count() for m in masks)) >= limit:
        return best  # the root's cheap bound already meets the limit
    holders, packing = _packing(masks, full)

    def children(covered: int, depth: int):
        # yield (set, coverage) per child, checking the bound again after each
        rem = full & ~covered
        need, x = packing(rem, limit - depth)
        if depth + need >= limit:
            return
        cands = sorted(holders[x], key=lambda i: (-(masks[i] & rem).bit_count(), i))
        tried: list[int] = []
        for i in cands:
            g = masks[i] & rem
            if any(g & ~t == 0 for t in tried):
                continue  # gain dominated by a sibling already explored
            tried.append(g)
            yield i, covered | masks[i]
            if depth + need >= limit:
                return

    # a stack of (open node, set leading to it) keeps off the recursion limit
    stack = [(children(0, 0), -1)]
    while stack:
        step = next(stack[-1][0], None)
        if step is None:
            stack.pop()
        elif step[1] == full:
            best = [i for _, i in stack[1:]] + [step[0]]
            limit = len(best)
        else:
            stack.append((children(step[1], len(stack)), step[0]))
    return best


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
