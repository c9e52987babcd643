"""Pipeline benchmark of gcdlcm: one closed loop, one request in flight.

Usage, from the root of a source checkout::

    python3 pipebench/run.py --workload max-lcm-search --seed 1 --seconds 40 --trace 0

Builds its requests from ``--seed``, serves them for ``--seconds`` seconds,
checks every answer, and prints two JSON lines: the run's context (seed,
kernel backend, Python, nproc, commit, failures, tail percentile), then
the result. ``--trace 0`` serves every request once and reports the
end-to-end metrics; ``--trace 1`` serves every request once plain and
once traced, reports per-layer metrics and the tracing overhead, and
writes the spans to ``.bench_out/``. See pipebench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed once before serving and then between requests every
# SETUP_EVERY_S, so that its median samples the whole run, not the state
# the machine was in during its first second.
SETUP_EVERY_S = 2.0
TAIL_BEYOND = 10
# Latency and throughput are taken per block of this many consecutive
# requests and reported as the median over blocks, so that the few
# instances per run that take 20-50 times the median, or a few seconds in
# which the shared machine runs slow, move one block, not the result. A
# run with fewer than two blocks' worth is one block.
BLOCK_REQUESTS = 100

# name -> unit; the order BENCHMARK.json lists them in
END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it:
    the (beyond + 1)-th largest sample and the percentage of samples at or
    below its rank. With no more than ``beyond`` samples, the largest, at
    100."""
    xs = sorted(samples)
    if len(xs) <= beyond:
        return xs[-1], 100.0
    rank = len(xs) - beyond
    return xs[rank - 1], 100.0 * rank / len(xs)


def summarize(outcomes: list[tuple[float, bool]], size: int = BLOCK_REQUESTS) -> dict[str, float]:
    """Median over blocks of ``size`` consecutive requests (the remainder
    joins the last block) of throughput, median latency and tail latency.

    ``outcomes`` holds (seconds, answered correctly) per attempted
    request; failed requests count towards a block's busy time only.
    """
    count = max(1, len(outcomes) // size)
    blocks = [outcomes[i * size : (i + 1) * size] for i in range(count - 1)]
    blocks.append(outcomes[(count - 1) * size :])
    rows = []
    for block in blocks:
        ok = [t for t, good in block if good]
        if ok:
            rows.append((len(ok) / sum(t for t, _ in block), statistics.median(ok), *tail(ok)))
    if not rows:
        raise ValueError("no request was answered correctly")
    rps, p50, tail_s, tail_pct = (statistics.median(col) for col in zip(*rows))
    return {
        "requests_per_s": rps,
        "latency_p50_s": p50,
        "latency_tail_s": tail_s,
        "latency_tail_percentile": tail_pct,
        "blocks": len(rows),
    }


def _setup_once(env: dict) -> float:
    """Wall time of a fresh interpreter importing gcdlcm and selecting
    its kernel backend."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import gcdlcm; gcdlcm.kernel_backend()"], env=env, cwd=ROOT, check=True
    )
    return time.perf_counter() - start


def _reference_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine ran
    plain Python during the run, for comparing runs."""
    times = []
    for _ in range(9):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Serve the workload for ``seconds``; return (context, result)."""
    import gcdlcm
    import check
    import corpus
    import serve
    from spans import LAYER_METRICS, Probes, Tracer, request_layers

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    tracer = Tracer("p") if traced else None
    if traced:
        Probes(tracer).install()
    cli = workload == "min-gcd-cli"
    worker = serve.Worker(env if cli else None)

    def serve_one(req, with_trace: bool):
        if not cli:
            return worker.serve(req, with_trace)
        served = worker.serve(req)
        if with_trace and served.error is None:
            # The CLI process is not instrumented: record its span, then
            # replay its stages here under the probes.
            end = time.perf_counter()
            tracer.record("cli.process", end - served.latency_s, end)
            if serve.replay_cli(req.op, corpus.instance_json(req.instance), tracer) != served.answer:
                return served._replace(answer=None, error="in-process replay disagrees with the CLI output")
        return served

    def verdict(req, served) -> str | None:
        """Why the request failed, or None."""
        if served.error is not None:
            return served.error
        if req.graph is not None:
            return check.check_pruned(req.graph, served.answer)
        inst = req.instance
        if cli:
            return check.check_cli_output(req.op, inst.mode, inst.a, inst.b, served.answer)
        return check.check_subset(inst.mode, inst.a, inst.b, served.answer)

    failures: list[str] = []
    wrong = 0

    def attempt(req, with_trace: bool = False):
        """Serve and check one request: (served, reason it failed or None).
        An answer that fails its check also makes the run incorrect."""
        nonlocal wrong
        served = serve_one(req, with_trace)
        reason = verdict(req, served)
        if reason is not None:
            failures.append(reason)
            wrong += served.error is None
        return served, reason

    outcomes: list[tuple[float, bool]] = []
    setups: list[float] = []
    layer_sums: dict[str, float] = defaultdict(float)
    paired = {"plain": 0.0, "traced": 0.0}
    all_spans = []
    attempted = failed = 0
    reqs = corpus.requests(workload, seed)
    reference = [_reference_ms()]
    worker.start()
    next_setup = time.perf_counter()
    stop_at = next_setup + seconds
    try:
        while time.perf_counter() < stop_at:
            req = next(reqs)
            attempted += 1
            if not traced:
                if time.perf_counter() >= next_setup:
                    setups.append(_setup_once(env))
                    next_setup = time.perf_counter() + SETUP_EVERY_S
                served, reason = attempt(req)
                failed += reason is not None
                outcomes.append((served.latency_s, reason is None))
                continue
            # Once plain, once traced, alternating which goes first.
            kinds = ("plain", "traced") if attempted % 2 else ("traced", "plain")
            results = {kind: (*attempt(req, kind == "traced"), tracer.take()) for kind in kinds}
            if any(reason is not None for _, reason, _ in results.values()):
                failed += 1
                continue
            for kind, (served, _, _) in results.items():
                paired[kind] += served.latency_s
            served, _, parent_spans = results["traced"]
            spans = served.spans + parent_spans
            all_spans.append(spans)
            for name, value in request_layers(spans).items():
                layer_sums[name] += value
    finally:
        worker.close()
    reference.append(_reference_ms())

    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "kernel_backend": gcdlcm.kernel_backend(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "failed_frac": failed / attempted,
        "failures": failures[:5],
        "reference_loop_ms": reference,
    }
    metrics = {}
    if traced:
        traced_ok = attempted - failed
        if traced_ok == 0:
            raise SystemExit(f"error: no request of {workload} succeeded: {failures[:3]}")
        for name, unit in LAYER_METRICS.items():
            metrics[name] = {"value": layer_sums[name] / traced_ok, "unit": unit}
        overhead = 100.0 * (paired["traced"] / paired["plain"] - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        context["traced_requests"] = traced_ok
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(all_spans))
    else:
        if not any(good for _, good in outcomes):
            raise SystemExit(f"error: no request of {workload} succeeded: {failures[:3]}")
        values = summarize(outcomes)
        context["samples"] = sum(good for _, good in outcomes)
        context["setup_samples"] = len(setups)
        context["blocks"] = values.pop("blocks")
        context["latency_tail_percentile"] = values.pop("latency_tail_percentile")
        values.update({
            "peak_rss_mb": worker.peak_rss_kib / 1024,
            "setup_s": statistics.median(setups),
        })
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return context, result


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "gcdlcm" / "__init__.py").is_file():
        print(f"error: no gcdlcm source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpus import WORKLOADS

    parser = argparse.ArgumentParser(description="gcdlcm pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    context, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
