"""Byte parity of the CLI on a seeded corpus.

Each subcommand group runs ``cli.main`` in process on a fixed corpus and
hashes, per call, the exit code, standard output and standard error into
one sha256 digest per group. A refactor that changes any byte of any call
changes its group's pinned digest; a deliberate output change re-pins it
and says so.

Corpus: ``generate_instance`` seeds of max-lcm 45@1e4 with b=2, min-gcd
60@1e9 with b=3 and min-gcd 200@1e6 (exact and greedy ``solve``, forward
``reduce``, ``basis``); random circulant graphs (exact and greedy
pruning, disconnected ones included); random small covers with repeats,
unsorted sets and uncoverable elements, reduced backward in both modes;
hand-built shapes of the exponent matrix (``basis`` and forward
``reduce`` in both modes): a 1 in A, the basis of [1], a gcd above 1, B
attaining column extremes, an owner with an empty set, exponents of ten
and more, nonzeros in the first and last column, and 9, 10, 99 and 100
columns, where label digit counts change, with near-full sets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys

import pytest

from gcdlcm import cli
from gcdlcm.generate import SplitMix64, generate_instance
from gcdlcm.numeric import first_primes

INSTANCES = (
    [("max-lcm", 45, 10**4, 2, seed) for seed in range(10)]
    + [("min-gcd", 60, 10**9, 3, seed) for seed in range(10)]
    + [("min-gcd", 200, 10**6, 0, seed) for seed in range(5)]
)


def _instance_args(mode, count, max_value, b_count, seed):
    inst = generate_instance(seed, count, max_value, mode, b_count)
    args = ["--mode", mode, "-A", *map(str, inst.a)]
    return args + (["-B", *map(str, inst.b)] if inst.b else [])


def _shape_instances():
    primes = tuple(first_primes(100))
    yield (1,), ()
    yield (1, 6, 10, 15), ()
    yield (4,), (4,)
    yield (4, 6), (8,)
    yield (12, 18, 30), ()
    yield (12, 18, 30, 45), (6,)
    yield (2**12, 3**10, 5, 6**11), (3**10,)
    yield (2 * 3 * 5 * 7 * 11, 2, 11, 1), (7,)
    for n in (9, 10, 99, 100):
        total = math.prod(primes[:n])
        yield primes[:n] + (1,), ()
        yield tuple(total // p for p in primes[:n]), ()
        yield tuple(total // p for p in primes[1:n]), (2 * primes[n - 1] ** 3,)


def _shape_calls():
    for a, b in _shape_instances():
        args = ["-A", *map(str, a)] + (["-B", *map(str, b)] if b else [])
        yield ["basis", *args]
        for mode in ("min-gcd", "max-lcm"):
            yield ["reduce", "--mode", mode, *args]


def _circulant_calls():
    rng = SplitMix64(2024)
    for _ in range(60):
        m = 1 + rng.below(60)
        links = [1 + rng.below(3 * m) for _ in range(1 + rng.below(6))]
        for method in ("exact", "greedy"):
            yield ["circulant", "-m", str(m), "--links", *map(str, links), "--method", method]


def _backward_calls():
    rng = SplitMix64(7)
    for _ in range(36):
        n = rng.below(7)
        sets = [
            [rng.below(n) for _ in range(rng.below(n + 2))] if n else []
            for _ in range(1 + rng.below(6))
        ]
        doc = json.dumps({"universe_size": n, "sets": sets})
        for mode in ("min-gcd", "max-lcm"):
            yield ["reduce", "--direction", "backward", "--input", "-", "--mode", mode], doc


GROUPS = {
    "solve-exact": lambda: (["solve", *_instance_args(*i)] for i in INSTANCES),
    "solve-greedy": lambda: (
        ["solve", "--method", "greedy", *_instance_args(*i)] for i in INSTANCES
    ),
    "reduce-forward": lambda: (["reduce", *_instance_args(*i)] for i in INSTANCES),
    "basis": lambda: (["basis", *_instance_args(*i)] for i in INSTANCES),
    "circulant": _circulant_calls,
    "reduce-backward": _backward_calls,
    "sparse-shapes": _shape_calls,
}

DIGESTS = {
    "solve-exact": "3f30dfcc780cec0a08f9585c5b32408370c370c4937935510ea644cd22540597",
    "solve-greedy": "85b0d3fbba75e5ffe732fe685c2472ad59b3bd62b77b333ae589b40922dd5b3d",
    "reduce-forward": "401616d883a86ab8c41bc00605cb18d92fd999c8516becc2148ed8986cab81b1",
    "basis": "1a9a40c7d238ab662e065adca2b61a408c4ea40e9411fd935c6d5e0de1d72934",
    "circulant": "a03f28e986068eec3c84dc60bf9d53d40dce46839a99f4b4af817fde9294a9a2",
    "reduce-backward": "9ec607b4c30fb83b5bcd4d1d048808854f00a2bef4ace760eecb6dba050cc914",
    "sparse-shapes": "f3f605a7c9ee0a2594e5ec7d799f70ba53a15d76c5d0ff5394aaacb287d64ac8",
}


def _run(argv, stdin, monkeypatch) -> bytes:
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return f"{status}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


@pytest.fixture
def restore_int_digits():
    """``cli.main`` lifts the int/str digit limit; put it back afterwards."""
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    yield
    if old is not None:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cli_output_digest(group, monkeypatch, restore_int_digits):
    h = hashlib.sha256()
    for call in GROUPS[group]():
        argv, stdin = call if isinstance(call, tuple) else (call, "")
        h.update(_run(argv, stdin, monkeypatch))
    assert h.hexdigest() == DIGESTS[group]
