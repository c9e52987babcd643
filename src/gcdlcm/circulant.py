"""Circulant graphs: connectivity and minimal link pruning.

A circulant graph on m nodes joins i and j when |i - j| is congruent to
some link a mod m. It is connected exactly when gcd of the links together
with m is 1; a breadth-first search over the actual edges serves as the
independent oracle for that criterion. Pruning asks for the fewest links
keeping the graph connected, a min-gcd subset problem with required set
{m}.
"""

from __future__ import annotations

from dataclasses import dataclass

from gcdlcm.errors import CapExceededError, DomainError, InfeasibleError
from gcdlcm.numeric import NatSet, gcd_set, natset
from gcdlcm.solver import ProblemInstance, solve

BFS_NODE_CAP = 10**6


@dataclass(frozen=True)
class CirculantGraph:
    node_count: int
    links: NatSet

    def __post_init__(self):
        if type(self.node_count) is not int or self.node_count < 1:  # refuses bool
            raise DomainError(f"node count must be a positive int, got {self.node_count!r}")
        object.__setattr__(self, "links", natset(self.links))


def is_connected_gcd(g: CirculantGraph) -> bool:
    """Number-theoretic criterion: connected iff gcd(links | {m}) = 1."""
    return gcd_set(g.links + (g.node_count,)) == 1


def is_connected_bfs(g: CirculantGraph) -> bool:
    """Oracle: breadth-first search from node 0 over the actual edges,
    stepping +-a mod m for each link a; connected when it reaches all m
    nodes.

    Refuses graphs above ``BFS_NODE_CAP`` nodes. Links congruent to 0
    mod m are self-loops and contribute no edges.
    """
    m = g.node_count
    if m > BFS_NODE_CAP:
        raise CapExceededError(
            f"breadth-first search over {m} nodes exceeds the cap of {BFS_NODE_CAP}"
        )
    steps = sorted({a % m for a in g.links} - {0})
    seen = bytearray(m)
    seen[0] = 1
    count = 1
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for a in steps:
                w = v + a
                if w >= m:
                    w -= m
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    nxt.append(w)
                u = v - a
                if u < 0:
                    u += m
                if not seen[u]:
                    seen[u] = 1
                    count += 1
                    nxt.append(u)
        frontier = nxt
    return count == m


def prune_links(g: CirculantGraph, method: str = "exact") -> NatSet:
    """Minimal (exact) or approximately minimal (greedy) link subset
    keeping the graph connected. The input graph must be connected."""
    if not is_connected_gcd(g):
        raise InfeasibleError(
            f"graph on {g.node_count} nodes with links {list(g.links)} is not connected",
            certificate={"gcd": gcd_set(g.links + (g.node_count,))},
        )
    inst = ProblemInstance(a=g.links, b=(g.node_count,), mode="min-gcd")
    return solve(inst, method).s
