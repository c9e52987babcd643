"""Answer checks. Each returns None for a correct answer, else a reason.

The checks recompute what they compare against with the standard
library rather than with gcdlcm, except that the circulant check also
asks ``gcdlcm.circulant.is_connected_bfs`` to walk the pruned graph:
that walk is the oracle the package keeps for the gcd criterion.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence

from gcdlcm import CirculantGraph, circulant


def _value(mode: str, values: Sequence[int]) -> int:
    return math.gcd(*values) if mode == "min-gcd" else math.lcm(*values)


def check_subset(mode: str, a: Sequence[int], b: Sequence[int], s: Sequence[int]) -> str | None:
    """S is a sorted subset of A, attains the target of A and B together
    with B, and loses it when any one element is dropped."""
    if list(s) != sorted(set(s)):
        return "S is not strictly ascending"
    if not set(s) <= set(a):
        return "S is not a subset of A"
    target = _value(mode, [*a, *b])
    if _value(mode, [*s, *b]) != target:
        return f"S does not attain the {mode} target {target}"
    for i in range(len(s)):
        if _value(mode, [*s[:i], *s[i + 1 :], *b]) == target:
            return f"S is redundant: dropping {s[i]} keeps the target"
    return None


def _pairwise_coprime(values: Sequence[int]) -> bool:
    """Each value >= 2 and coprime to the product of all the others."""
    total = math.prod(values)
    return all(p >= 2 and math.gcd(p, total // p) == 1 for p in values)


def check_cli_output(op: str, mode: str, a: Sequence[int], b: Sequence[int], text: str) -> str | None:
    """Output of ``gcdlcm solve|basis|reduce --direction forward``."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if json.dumps(payload, indent=2, sort_keys=True) + "\n" != text:
        return "output is not canonical JSON"
    try:
        if op == "solve":
            return _check_solve_payload(mode, a, b, payload)
        if op == "basis":
            return _check_basis_payload(a, b, payload)
        return _check_reduce_payload(mode, a, b, payload)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed {op} output: {type(exc).__name__}: {exc}"


def _check_solve_payload(mode, a, b, payload) -> str | None:
    s = [int(x) for x in payload["S"]]
    target = _value(mode, [*a, *b])
    if int(payload["target"]) != target or int(payload["achieved"]) != target:
        return "reported target or achieved value is wrong"
    if payload["size"] != len(s):
        return "reported size differs from |S|"
    return check_subset(mode, a, b, s)


def _check_basis_payload(a, b, payload) -> str | None:
    elements = sorted(set(a) | set(b))
    if [int(x) for x in payload["elements"]] != elements:
        return "basis elements differ from A and B"
    basis = [int(p) for p in payload["basis"]]
    if not _pairwise_coprime(basis):
        return "basis is not pairwise coprime"
    rows = payload["exponents"]
    if len(rows) != len(elements):
        return "exponent matrix has the wrong number of rows"
    for x, row in zip(elements, rows):
        if len(row) != len(basis) or math.prod(p**e for p, e in zip(basis, row) if e) != x:
            return f"basis does not reconstruct {x}"
    return None


def _check_reduce_payload(mode, a, b, payload) -> str | None:
    """Forward min-gcd reduction with B empty: every element of A owns
    exactly the labels on which it attains the minimum exponent, the
    labels are pairwise coprime and account for all of A / gcd(A)."""
    if mode != "min-gcd" or b:
        raise ValueError("only min-gcd reductions with empty B are checked")
    labels = [int(p) for p in payload["universe_labels"]]
    if not _pairwise_coprime(labels):
        return "universe labels are not pairwise coprime"
    cover = payload["cover"]
    if cover["universe_size"] != len(labels):
        return "universe size differs from the label count"
    g = math.gcd(*a)
    expected: dict[tuple[int, ...], int] = {}
    for x in sorted(a):
        rest = x // g
        attained = []
        for j, p in enumerate(labels):
            if rest % p:
                attained.append(j)
            else:
                while rest % p == 0:
                    rest //= p
        if rest != 1:
            return f"labels do not factor {x}"
        expected.setdefault(tuple(attained), x)
    got = {tuple(s): int(x) for s, x in zip(cover["sets"], payload["set_owners"])}
    if len(got) != len(cover["sets"]) or got != expected:
        return "cover sets or their owners are wrong"
    return None


def check_pruned(g: CirculantGraph, pruned: Sequence[int]) -> str | None:
    """Pruned links are links of g, keep it connected by the gcd
    criterion and by breadth-first search, and none can be dropped."""
    if list(pruned) != sorted(set(pruned)):
        return "pruned links are not strictly ascending"
    if not set(pruned) <= set(g.links):
        return "pruned links are not a subset of the links"
    if math.gcd(g.node_count, *pruned) != 1:
        return "pruned graph fails the gcd connectivity criterion"
    if not circulant.is_connected_bfs(CirculantGraph(g.node_count, tuple(pruned))):
        return "breadth-first search finds the pruned graph disconnected"
    for i in range(len(pruned)):
        if math.gcd(g.node_count, *pruned[:i], *pruned[i + 1 :]) == 1:
            return f"pruned links are redundant: {pruned[i]} can be dropped"
    return None
