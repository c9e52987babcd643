"""Connectivity criterion against the BFS oracle, and pruning minimality."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdlcm import (
    CapExceededError,
    CirculantGraph,
    DomainError,
    InfeasibleError,
    brute_force,
    gcd_set,
    is_connected_bfs,
    is_connected_gcd,
    prune_links,
)
from gcdlcm.solver import ProblemInstance, solve


def graph(m, links):
    return CirculantGraph(node_count=m, links=tuple(links))


def test_graph_validation():
    with pytest.raises(DomainError):
        graph(0, [1])
    with pytest.raises(DomainError):
        graph(5, [0])
    assert graph(1, []).links == ()
    with pytest.raises(DomainError, match="node count"):
        graph(True, [1])  # True == 1, but a node count is no bool


def test_connectivity_examples():
    assert not is_connected_gcd(graph(4, [2]))
    assert is_connected_gcd(graph(5, [1]))
    assert is_connected_gcd(graph(6, [2, 3]))
    assert not is_connected_bfs(graph(4, [2]))
    assert is_connected_bfs(graph(1, []))
    assert not is_connected_bfs(graph(6, [4]))
    assert is_connected_bfs(graph(6, [2, 3]))


def test_links_beyond_m_wrap_around():
    # link 7 on 5 nodes behaves like link 2
    assert is_connected_gcd(graph(5, [7])) == is_connected_bfs(graph(5, [7])) == True
    assert is_connected_gcd(graph(4, [6])) == is_connected_bfs(graph(4, [6])) == False
    # multiples of m are self-loops only
    assert not is_connected_bfs(graph(3, [6]))
    assert not is_connected_gcd(graph(3, [6]))


def test_bfs_cap():
    with pytest.raises(CapExceededError):
        is_connected_bfs(graph(10**7, [1]))
    assert is_connected_bfs(graph(10**5, [1]))


def test_criteria_agree_exhaustively_small():
    for m in range(1, 25):
        links = list(range(1, m))
        for size in range(0, 3):
            for combo in combinations(links, size):
                g = graph(m, combo)
                assert is_connected_gcd(g) == is_connected_bfs(g), (m, combo)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=2000),
    st.lists(st.integers(min_value=1, max_value=4000), max_size=6),
)
def test_criteria_agree_random(m, links):
    g = graph(m, links)
    assert is_connected_gcd(g) == is_connected_bfs(g)


def test_prune_examples():
    assert prune_links(graph(6, [2, 3, 4])) == (2, 3)
    assert prune_links(graph(4, [1, 2])) == (1,)
    with pytest.raises(InfeasibleError) as exc:
        prune_links(graph(4, [2]))
    assert exc.value.certificate == {"gcd": 2}


def test_prune_greedy_stays_connected():
    pruned = prune_links(graph(30, [6, 10, 15, 7]), method="greedy")
    assert is_connected_bfs(graph(30, pruned))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=500),
    st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=8),
)
def test_prune_minimality_and_connectivity(m, links):
    g = graph(m, links)
    if not is_connected_gcd(g):
        with pytest.raises(InfeasibleError):
            prune_links(g)
        return
    pruned = prune_links(g)
    assert set(pruned) <= set(g.links)
    assert is_connected_bfs(graph(m, pruned))
    oracle = brute_force(ProblemInstance(a=g.links, b=(m,), mode="min-gcd"))
    assert len(pruned) == oracle.size


@st.composite
def graphs(draw):
    """Circulant graphs whose links may repeat or be multiples of m."""
    m = draw(st.integers(min_value=1, max_value=500))
    link = st.integers(min_value=1, max_value=1000) | st.integers(1, 4).map(lambda k: k * m)
    return graph(m, draw(st.lists(link, max_size=8)))


@settings(max_examples=200, deadline=None)
@given(graphs())
@example(graph(1, []))
@example(graph(1, [3, 5]))
@example(graph(7, []))
@example(graph(6, [6, 12]))
@example(graph(6, [4, 6, 9]))
@example(graph(4, [2, 4, 8]))
def test_prune_answers_as_the_checked_solve(g):
    # prune_links hands the graph's links over unchecked; it answers as
    # solve on an instance built and checked from the same links
    m = g.node_count
    for method in ("exact", "greedy"):
        if is_connected_gcd(g):
            checked = solve(ProblemInstance(g.links, (m,), "min-gcd"), method)
            assert prune_links(g, method) == checked.s
            continue
        with pytest.raises(InfeasibleError) as exc:
            prune_links(g, method)
        assert str(exc.value) == f"graph on {m} nodes with links {list(g.links)} is not connected"
        assert exc.value.certificate == {"gcd": gcd_set(g.links + (m,))}


def test_prune_refuses_a_bad_method_before_connectivity():
    # solve checks the method first, so a disconnected graph with a bad
    # method is refused as a domain error, not reported as disconnected
    for g in (graph(4, [2]), graph(4, [1, 2])):
        with pytest.raises(DomainError, match="method must be"):
            prune_links(g, "brute-force")
