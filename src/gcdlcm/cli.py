"""Command-line front end.

Every subcommand prints one canonical JSON document on standard output
(or to --output); diagnostics go to standard error. Exit codes: 0 on
success, 1 on infeasibility (a JSON certificate is still printed), 2 on
usage, parse, or domain errors, 130 on Ctrl-C (one line on standard
error). Output is byte-identical across runs with the same inputs; the
only deliberately nondeterministic field, wall time, stays behind the
opt-in --timings flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# what every command uses; each _cmd_* imports the pipeline modules it runs
from gcdlcm import jsonio
from gcdlcm.errors import CapExceededError, DomainError, InfeasibleError
from gcdlcm.numeric import MODES, ProblemInstance


def _read_json(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DomainError(f"{path}: JSON nested too deeply to parse") from None


def _instance_from_args(args) -> ProblemInstance:
    if args.input is not None and (args.a is not None or args.b is not None):
        raise DomainError("give --input or inline -A/-B values, not both")
    if args.input is not None:
        payload = _read_json(args.input)
    elif args.a is None:
        raise DomainError("an instance needs --input FILE or inline -A values")
    else:  # inline values are read as the payload a file would hold
        payload = {"A": args.a, "B": args.b or []}
    inst = jsonio.instance_from_payload(payload)
    # argparse limits --mode to MODES, and a and b are already canonical
    return inst if args.mode is None else inst._replace(mode=args.mode)


def _cmd_solve(args):
    from gcdlcm.solver import brute_force, solve

    inst = _instance_from_args(args)
    if args.method == "brute-force":
        sol = brute_force(inst)
    else:
        sol = solve(inst, method=args.method)
    return jsonio.subset_solution_to_payload(sol, include_timing=args.timings), 0


def _cmd_reduce(args):
    from gcdlcm import reductions

    if args.direction == "forward":
        inst = _instance_from_args(args)
        red, bem = reductions.reduce_instance(inst)
        return jsonio.reduction_to_payload(inst.mode, red, bem), 0
    if args.a is not None or args.b is not None:
        raise DomainError("backward reduction reads a cover from --input, not inline -A/-B values")
    if args.input is None:
        raise DomainError("backward reduction needs --input with a cover instance")
    cover = jsonio.cover_instance_from_payload(_read_json(args.input))
    mode = args.mode or "min-gcd"
    img = reductions.cover_to_gcd(cover) if mode == "min-gcd" else reductions.cover_to_lcm(cover)
    return jsonio.cover_image_to_payload(mode, img), 0


def _cmd_basis(args):
    from gcdlcm.basis import compute_basis

    inst = _instance_from_args(args)
    return jsonio.basis_to_payload(compute_basis(inst.a + inst.b)), 0


def _cmd_circulant(args):
    from gcdlcm.circulant import CirculantGraph, prune_links

    nodes = jsonio.parse_int(args.nodes, "nodes")
    g = CirculantGraph(node_count=nodes, links=tuple(jsonio.parse_int_list(args.links, "links")))
    payload = {"links": [str(x) for x in g.links], "nodes": g.node_count}
    try:
        pruned = prune_links(g, method=args.method)
    except InfeasibleError as exc:
        return {**payload, "connected": False, "gcd": str(exc.certificate["gcd"])}, 1
    return {
        **payload,
        "connected": True,
        "pruned_links": [str(x) for x in pruned],
        "removed_count": len(g.links) - len(pruned),
    }, 0


def _cmd_gen(args):
    from gcdlcm.generate import generate_instance

    inst = generate_instance(
        seed=jsonio.parse_int(args.seed, "seed"),
        count=jsonio.parse_int(args.count, "count"),
        max_value=jsonio.parse_int(args.max_value, "max-value"),
        mode=args.mode,
        b_count=jsonio.parse_int(args.b_count, "b-count"),
    )
    return jsonio.instance_to_payload(inst), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcdlcm",
        description=(
            "Smallest subsets preserving the gcd or lcm of an integer set, "
            "with set-cover reductions and circulant-graph link pruning."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", metavar="FILE", help="write the JSON result here instead of standard output"
    )
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument(
        "--input", metavar="FILE", help="instance JSON file; '-' reads standard input"
    )
    # integer options stay strings: jsonio.parse_int checks them as a file's
    instance.add_argument("-A", dest="a", metavar="INT", nargs="+", help="elements of A inline")
    instance.add_argument("-B", dest="b", metavar="INT", nargs="+", help="elements of B inline")
    instance.add_argument(
        "--mode",
        choices=MODES,
        help="objective; overrides the instance file (default min-gcd)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "solve",
        parents=[common, instance],
        help="smallest S within A attaining the target together with B",
    )
    p.add_argument(
        "--method",
        choices=("exact", "greedy", "brute-force"),
        default="exact",
        help="brute-force enumerates subsets and refuses a large A",
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="include wall time in stats (not byte-reproducible)",
    )
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser(
        "reduce",
        parents=[common, instance],
        help="cover reduction of an instance, or a cover instance embedded as integers",
    )
    p.add_argument(
        "--direction",
        choices=("forward", "backward"),
        default="forward",
        help="forward: instance to cover; backward: cover file to integer set",
    )
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser(
        "basis",
        parents=[common, instance],
        help="coprime basis and exponent matrix of A together with B",
    )
    p.set_defaults(handler=_cmd_basis)

    p = sub.add_parser(
        "circulant",
        parents=[common],
        help="connectivity and minimal link pruning of a circulant graph",
    )
    p.add_argument("-m", "--nodes", dest="nodes", required=True, metavar="M")
    p.add_argument("--links", metavar="INT", nargs="*", default=[], help="link lengths")
    p.add_argument("--method", choices=("exact", "greedy"), default="exact")
    p.set_defaults(handler=_cmd_circulant)

    p = sub.add_parser(
        "gen", parents=[common], help="deterministic pseudo-random instance from a seed"
    )
    p.add_argument("--seed", required=True)
    p.add_argument("--count", required=True)
    p.add_argument("--max-value", default=10_000, metavar="N")
    p.add_argument("--mode", choices=MODES, default="min-gcd")
    p.add_argument("--b-count", default=0, metavar="N")
    p.set_defaults(handler=_cmd_gen)

    return parser


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    # payload integers are arbitrarily large decimals; lift the int/str
    # conversion limit (Python before 3.10.7 has none)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except KeyboardInterrupt:  # Ctrl-C ends a long search with one line
        print("error: interrupted", file=sys.stderr)
        return 130


def _run(args) -> int:
    try:
        payload, status = args.handler(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        payload, status = {"certificate": exc.certificate, "infeasible": True}, 1
    except (DomainError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args, jsonio.canonical_json(payload))
    except OSError as exc:
        where = args.output or "standard output"
        print(f"error: cannot write {where}: {exc}", file=sys.stderr)
        return 2
    return status
