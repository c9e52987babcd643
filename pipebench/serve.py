"""Serving side of the closed loop: one request in flight, each under a
deadline.

Requests run in a spawned worker process, because the compiled kernel
does not check for signals: a request past its deadline is ended by
killing the worker, and the next request starts a fresh one. CLI
requests are processes the worker starts and kills at the deadline.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import subprocess
import sys
import time
from typing import Any, NamedTuple

from corpus import Request, instance_json
from spans import Probes, Tracer

REQUEST_DEADLINE_S = 20.0
# A CLI process past the deadline is killed inside the worker; this margin
# lets that report arrive before the worker itself is given up.
CLI_REPORT_MARGIN_S = 5.0

CLI_ARGS = {
    "solve": ("solve",),
    "basis": ("basis",),
    "reduce": ("reduce", "--direction", "forward"),
}


class Served(NamedTuple):
    answer: Any  # S, the pruned links, or the CLI's standard output
    latency_s: float
    spans: list
    error: str | None  # set when no answer came back


def _call(req: Request, cli_env: dict | None):
    """The request itself. Library calls go through module attributes so
    that probes see them."""
    from gcdlcm import circulant, solver

    if cli_env is not None:
        proc = subprocess.run(
            [sys.executable, "-m", "gcdlcm", *CLI_ARGS[req.op], "--input", "-"],
            input=instance_json(req.instance),
            capture_output=True,
            text=True,
            env=cli_env,
            timeout=REQUEST_DEADLINE_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout
    if req.op == "prune":
        return circulant.prune_links(req.graph, "exact")
    return solver.solve(req.instance, "exact").s


def _peak_rss_kib() -> int:
    """Peak resident set of this process since it was exec'd (VmHWM), or
    of the largest CLI process it ran. A child's ru_maxrss also counts the
    memory it shared with its parent before exec, which is why requests
    run here and not in the larger benchmark process."""
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _worker_main(conn, cli_env: dict | None) -> None:
    """Answer (request, traced) messages until None arrives, then send
    the peak RSS."""
    from gcdlcm import setcover

    tracer = Tracer("w")
    probes = None
    while (msg := conn.recv()) is not None:
        req, traced = msg
        if traced:
            probes = probes or Probes(tracer)
            probes.install()
        start = time.perf_counter()
        try:
            answer = _call(req, cli_env)
            latency = time.perf_counter() - start
            if traced and "setcover.exact_cover" in tracer.last_arg:
                setcover.greedy_cover(tracer.last_arg["setcover.exact_cover"])
            reply = Served(answer, latency, tracer.take(), None)
        except Exception as exc:  # report the failed request and keep serving
            reply = Served(None, time.perf_counter() - start, tracer.take(), f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                probes.remove()
        conn.send(tuple(reply))
    conn.send(_peak_rss_kib())


class Worker:
    """A spawned worker process, replaced after a missed deadline. With
    ``cli_env`` it serves each request as a ``python -m gcdlcm`` process
    run with that environment."""

    def __init__(self, cli_env: dict | None = None):
        self._ctx = multiprocessing.get_context("spawn")
        self._cli_env = cli_env
        self._proc = None
        self._conn = None
        self.peak_rss_kib = 0

    def start(self) -> None:
        self._conn, child = self._ctx.Pipe()
        self._proc = self._ctx.Process(target=_worker_main, args=(child, self._cli_env), daemon=True)
        self._proc.start()
        child.close()

    def serve(self, req: Request, traced: bool = False) -> Served:
        if self._proc is None:
            self.start()
        start = time.perf_counter()
        try:
            self._conn.send((req, traced))
            margin = CLI_REPORT_MARGIN_S if self._cli_env is not None else 0.0
            if self._conn.poll(REQUEST_DEADLINE_S + margin):
                return Served(*self._conn.recv())
            error = f"no answer within {REQUEST_DEADLINE_S:g} s"
        except (EOFError, OSError):  # the pipe closed or was reset
            error = "worker process died"
        self.stop(kill=True)
        return Served(None, time.perf_counter() - start, [], error)

    def stop(self, kill: bool = False) -> None:
        if self._proc is None:
            return
        if kill:
            self._proc.kill()
        else:
            try:
                self._conn.send(None)
                if self._conn.poll(10):
                    self.peak_rss_kib = max(self.peak_rss_kib, self._conn.recv())
            except (OSError, EOFError):
                self._proc.kill()
        self._proc.join(10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()
        self._proc = self._conn = None

    def close(self) -> None:
        """Stop the worker and the resource tracker that starting a spawned
        process launches, so that no process outlives the run."""
        from multiprocessing import resource_tracker

        self.stop()
        resource_tracker._resource_tracker._stop()


def replay_cli(op: str, text_in: str, tracer: Tracer) -> str:
    """The CLI's stages once more in this process, each call in a span;
    with probes installed the calls inside them get spans too."""
    from gcdlcm import basis, jsonio, setcover, solver

    with tracer.span("cli.replay"):
        with tracer.span("jsonio.parse"):
            inst = jsonio.instance_from_payload(json.loads(text_in))
        if op == "solve":
            result = solver.solve(inst, "exact")
        elif op == "basis":
            result = basis.compute_basis(inst.a + inst.b)
        else:
            result = solver.reduce_instance(inst)
        counts: dict = {}
        with tracer.span("jsonio.emit", counts):
            if op == "solve":
                payload = jsonio.subset_solution_to_payload(result)
            elif op == "basis":
                payload = jsonio.basis_to_payload(result)
            else:
                payload = jsonio.reduction_to_payload(inst.mode, *result)
            text_out = jsonio.canonical_json(payload)
        counts["bytes_out"] = len(text_out.encode())
    if "setcover.exact_cover" in tracer.last_arg:
        setcover.greedy_cover(tracer.last_arg["setcover.exact_cover"])
    return text_out
