"""Seeded request streams for the three benchmark workloads.

Every instance comes from ``gcdlcm.generate_instance`` or from a
SplitMix64 stream, both seeded from the workload seed, so one seed always
yields the same requests in the same order. The program only ever sees
the generated inputs.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

from gcdlcm import CirculantGraph, ProblemInstance, SplitMix64, generate_instance

WORKLOADS = ("min-gcd-cli", "max-lcm-search", "circulant-prune")

# min-gcd-cli cycles through every (command, size) pair in this order, so
# each run sees the same mix whatever its length.
CLI_COMMANDS = ("solve", "basis", "reduce")
CLI_SIZES = ((500, 10**4), (300, 10**6), (200, 10**18))

# max-lcm-search cycles through every (|A|, |B|) pair, as min-gcd-cli does.
# Above about 80 elements the exact search time grows a heavy tail (see
# README.md), which no fixed-length run measures steadily.
LCM_COUNTS = range(40, 49)
LCM_B_COUNTS = (0, 2)
LCM_MAX_VALUE = 10**4

# circulant-prune: node counts are products of small primes up to
# GRAPH_NODE_CAP; every link is a multiple of a nonempty product of the
# node count's primes, so no single link connects the graph alone.
GRAPH_PRIMES = (2, 3, 5, 7, 11, 13)
GRAPH_NODE_CAP = 4096
GRAPH_LINKS_MIN = 50
GRAPH_LINKS_MAX = 400
GRAPH_LINK_MAX = 10**12


@dataclass(frozen=True)
class Request:
    """One request: a CLI command or library call and its input."""

    op: str  # "solve", "basis", "reduce" or "prune"
    instance: ProblemInstance | None = None
    graph: CirculantGraph | None = None


def instance_json(inst: ProblemInstance) -> str:
    """The instance as the CLI reads it from ``--input``."""
    return json.dumps({"A": [str(x) for x in inst.a], "B": [str(x) for x in inst.b], "mode": inst.mode})


def encode(req: Request) -> bytes:
    """Byte form of a request, for comparing corpora."""
    if req.graph is not None:
        body = {"links": [str(x) for x in req.graph.links], "nodes": req.graph.node_count}
    else:
        body = json.loads(instance_json(req.instance))
    return json.dumps({"op": req.op, "input": body}, sort_keys=True).encode()


def _cli_requests(rng: SplitMix64) -> Iterator[Request]:
    while True:
        for count, max_value in CLI_SIZES:
            for cmd in CLI_COMMANDS:
                inst = generate_instance(rng.next_u64(), count, max_value, mode="min-gcd")
                yield Request(cmd, instance=inst)


def _lcm_requests(rng: SplitMix64) -> Iterator[Request]:
    while True:
        for count in LCM_COUNTS:
            for b_count in LCM_B_COUNTS:
                inst = generate_instance(
                    rng.next_u64(), count, LCM_MAX_VALUE, mode="max-lcm", b_count=b_count
                )
                yield Request("solve", instance=inst)


def circulant_graph(rng: SplitMix64) -> CirculantGraph:
    """A connected circulant graph whose smallest connecting link set has
    at least two links. Draws that come out disconnected are redrawn."""
    while True:
        pool = list(GRAPH_PRIMES)
        primes = sorted(pool.pop(rng.below(len(pool))) for _ in range(2 + rng.below(3)))
        nodes = math.prod(primes)
        if nodes > GRAPH_NODE_CAP:
            continue
        for _ in range(4):
            p = primes[rng.below(len(primes))]
            if nodes * p <= GRAPH_NODE_CAP:
                nodes *= p
        links = []
        for _ in range(GRAPH_LINKS_MIN + rng.below(GRAPH_LINKS_MAX - GRAPH_LINKS_MIN + 1)):
            mask = 1 + rng.below((1 << len(primes)) - 1)
            d = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
            links.append(d * (1 + rng.below(GRAPH_LINK_MAX // d)))
        if math.gcd(nodes, *links) == 1:
            return CirculantGraph(node_count=nodes, links=tuple(links))


def _prune_requests(rng: SplitMix64) -> Iterator[Request]:
    while True:
        yield Request("prune", graph=circulant_graph(rng))


def requests(workload: str, seed: int) -> Iterator[Request]:
    """Endless deterministic request stream of one workload."""
    make = {
        "min-gcd-cli": _cli_requests,
        "max-lcm-search": _lcm_requests,
        "circulant-prune": _prune_requests,
    }[workload]
    # Mix the workload name into the seed so workloads never share inputs.
    return make(SplitMix64(seed ^ (WORKLOADS.index(workload) << 56)))
