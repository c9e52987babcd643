"""Tests of the benchmark itself: answer checks, corpus determinism and
the tail-percentile rule.

Run from the repository root::

    python3 -m pytest pipebench/tests -q
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "pipebench"), str(ROOT / "src")]

import pytest  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
import serve  # noqa: E402
from gcdlcm import (  # noqa: E402
    CirculantGraph,
    ProblemInstance,
    compute_basis,
    generate_instance,
    jsonio,
    prune_links,
    reduce_instance,
    solve,
)
from run import summarize, tail  # noqa: E402

_canonical = jsonio.canonical_json


# -- subset answers ---------------------------------------------------------


@pytest.mark.parametrize(
    "mode, a, b",
    [("max-lcm", (4, 6, 9, 10), ()), ("min-gcd", (6, 10, 15, 35), ()), ("max-lcm", (8, 9, 25, 7), (3,))],
)
def test_check_subset_accepts_solver_answers(mode, a, b):
    sol = solve(ProblemInstance(a=a, b=b, mode=mode))
    assert check.check_subset(mode, a, b, sol.s) is None


def test_check_subset_rejects_tampered_answers():
    a = (4, 6, 9, 10)
    s = solve(ProblemInstance(a=a, b=(), mode="max-lcm")).s  # (4, 9, 10)
    assert check.check_subset("max-lcm", a, (), s) is None
    assert "attain" in check.check_subset("max-lcm", a, (), s[:-1])
    assert "subset" in check.check_subset("max-lcm", a, (), (4, 9, 20))
    assert "redundant" in check.check_subset("max-lcm", a, (), (4, 6, 9, 10))
    assert "ascending" in check.check_subset("max-lcm", a, (), (10, 4, 9))


# -- CLI outputs ------------------------------------------------------------


def test_check_cli_output_accepts_and_rejects_solve():
    inst = ProblemInstance(a=(6, 10, 15), b=(), mode="min-gcd")
    payload = jsonio.subset_solution_to_payload(solve(inst))
    assert check.check_cli_output("solve", inst.mode, inst.a, inst.b, _canonical(payload)) is None
    wrong = dict(payload, S=["6", "10"], size=2)
    assert "attain" in check.check_cli_output("solve", inst.mode, inst.a, inst.b, _canonical(wrong))
    indented = json.dumps(payload, indent=4, sort_keys=True) + "\n"
    assert "canonical" in check.check_cli_output("solve", inst.mode, inst.a, inst.b, indented)


def test_check_cli_output_rejects_bad_basis():
    a = (12, 18, 35)
    payload = jsonio.basis_to_payload(compute_basis(a))
    assert check.check_cli_output("basis", "min-gcd", a, (), _canonical(payload)) is None
    shared = dict(payload, basis=["2", "6", "35"])
    assert "coprime" in check.check_cli_output("basis", "min-gcd", a, (), _canonical(shared))
    rows = [list(r) for r in payload["exponents"]]
    rows[0][0] += 1
    assert "reconstruct" in check.check_cli_output(
        "basis", "min-gcd", a, (), _canonical(dict(payload, exponents=rows))
    )


def test_check_cli_output_rejects_bad_reduction():
    inst = ProblemInstance(a=(12, 18, 30, 45), b=(), mode="min-gcd")
    payload = jsonio.reduction_to_payload(inst.mode, *reduce_instance(inst))
    assert check.check_cli_output("reduce", inst.mode, inst.a, (), _canonical(payload)) is None
    owners = list(reversed(payload["set_owners"]))
    assert "owners" in check.check_cli_output(
        "reduce", inst.mode, inst.a, (), _canonical(dict(payload, set_owners=owners))
    )


# -- circulant pruning ------------------------------------------------------


def test_check_pruned_accepts_and_rejects():
    g = CirculantGraph(node_count=6, links=(2, 3, 4))
    assert check.check_pruned(g, prune_links(g)) is None
    assert "connect" in check.check_pruned(g, (2, 4))
    assert "redundant" in check.check_pruned(g, (2, 3, 4))
    assert "subset" in check.check_pruned(g, (2, 5))


def test_check_pruned_uses_breadth_first_search(monkeypatch):
    g = CirculantGraph(node_count=6, links=(2, 3, 4))
    monkeypatch.setattr(check.circulant, "is_connected_bfs", lambda graph: False)
    assert "breadth-first" in check.check_pruned(g, (2, 3))


# -- deadline ---------------------------------------------------------------


def test_request_past_its_deadline_is_killed_and_the_next_is_served(monkeypatch):
    # 200 values take far longer than the deadline in exact max-lcm search.
    monkeypatch.setattr(serve, "REQUEST_DEADLINE_S", 0.5)
    slow = corpus.Request("solve", instance=generate_instance(1, 200, 10**4, mode="max-lcm", b_count=2))
    fast = ProblemInstance(a=(4, 6, 9, 10), b=(), mode="max-lcm")
    worker = serve.Worker()
    try:
        served = worker.serve(slow)
        assert served.answer is None
        assert "no answer within 0.5 s" in served.error
        served = worker.serve(corpus.Request("solve", instance=fast))
        assert served.error is None
        assert check.check_subset(fast.mode, fast.a, fast.b, served.answer) is None
    finally:
        worker.close()


# -- corpora ----------------------------------------------------------------


def _first(workload: str, seed: int, n: int) -> list[bytes]:
    return [corpus.encode(r) for r in itertools.islice(corpus.requests(workload, seed), n)]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_equal_seeds_give_identical_corpora(workload):
    assert _first(workload, 7, 10) == _first(workload, 7, 10)
    assert _first(workload, 7, 10) != _first(workload, 8, 10)


def test_workloads_do_not_share_inputs():
    assert _first("max-lcm-search", 7, 1) != _first("min-gcd-cli", 7, 1)


def test_circulant_graphs_are_connected_and_need_two_links():
    for req in itertools.islice(corpus.requests("circulant-prune", 3), 50):
        g = req.graph
        assert 2 <= g.node_count <= corpus.GRAPH_NODE_CAP
        assert corpus.GRAPH_LINKS_MIN <= len(g.links) <= corpus.GRAPH_LINKS_MAX
        assert len(prune_links(g)) >= 2


# -- tail percentile --------------------------------------------------------


def test_tail_is_the_eleventh_largest_sample():
    samples = [float(x) for x in range(1, 101)]
    random.Random(0).shuffle(samples)
    assert tail(samples) == (90.0, 90.0)
    assert tail(samples[:11]) == (min(samples[:11]), 100.0 / 11)


def test_tail_with_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([float(x) for x in range(10)]) == (9.0, 100.0)


def test_summarize_takes_medians_over_blocks():
    fast = [(0.01, True)] * 200
    slow_block = [(0.01, True)] * 199 + [(5.0, True)]
    stats = summarize(fast + slow_block + fast + [(0.02, False)] * 50, size=200)
    assert stats["blocks"] == 3
    assert stats["latency_p50_s"] == 0.01
    assert stats["latency_tail_s"] == 0.01
    # Block throughputs: 100/s, 200 / 6.99 s, and 200 / (2 s + 1 s of failed requests).
    assert stats["requests_per_s"] == pytest.approx(200 / 3.0)
    assert summarize([(0.5, True)] * 20, size=200)["blocks"] == 1
