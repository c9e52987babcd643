"""Command-line behavior: golden outputs, byte determinism, exit codes."""

from __future__ import annotations

import io
import itertools
import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gcdlcm import (
    CirculantGraph,
    CoverInstance,
    ProblemInstance,
    cli,
    decide,
    decide_cover,
    exact_cover,
    jsonio,
    prune_links,
    solve,
)
from gcdlcm.generate import generate_instance
from gcdlcm.numeric import first_primes
from gcdlcm.reductions import cover_to_lcm
from helpers import python_env, run_cli

GOLDEN = Path(__file__).parent / "golden"


def assert_matches_golden(result, name):
    expected = (GOLDEN / name).read_text()
    assert result.stdout == expected, f"output drifted from golden {name}"


def assert_canonical(text):
    """``text`` is what ``json.dumps(indent=2, sort_keys=True)`` writes for its payload."""
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_solve_min_gcd_golden():
    r = run_cli("solve", "-A", "6", "10", "15", "--mode", "min-gcd")
    assert r.returncode == 0
    assert_matches_golden(r, "solve_min_gcd_6_10_15.json")
    payload = json.loads(r.stdout)
    assert payload["size"] == 3


def test_solve_max_lcm_golden():
    r = run_cli("solve", "-A", "4", "6", "9", "--mode", "max-lcm")
    assert r.returncode == 0
    assert_matches_golden(r, "solve_max_lcm_4_6_9.json")
    assert json.loads(r.stdout)["S"] == ["4", "9"]


def test_solve_trivial_empty_s():
    r = run_cli("solve", "-A", "4", "6", "-B", "2")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["S"] == []
    assert payload["achieved"] == "2"


def test_solve_brute_force_method_agrees_with_exact():
    exact = run_cli("solve", "-A", "30", "42", "70", "105")
    brute = run_cli("solve", "-A", "30", "42", "70", "105", "--method", "brute-force")
    assert exact.returncode == brute.returncode == 0
    a, b = json.loads(exact.stdout), json.loads(brute.stdout)
    assert a["size"] == b["size"] == 4
    assert b["method"] == "brute-force"


def test_solve_reads_instance_from_stdin():
    doc = json.dumps({"A": ["6", "10", "15"], "B": [], "mode": "min-gcd"})
    r = run_cli("solve", "--input", "-", stdin=doc)
    assert r.returncode == 0
    assert json.loads(r.stdout)["size"] == 3


def test_mode_flag_overrides_instance_file(tmp_path):
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"A": [4, 6, 9], "mode": "min-gcd"}))
    r = run_cli("solve", "--input", str(f), "--mode", "max-lcm")
    assert json.loads(r.stdout)["S"] == ["4", "9"]


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "result.json"
    r = run_cli("solve", "-A", "6", "10", "15", "--output", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    assert json.loads(out.read_text())["size"] == 3
    assert_canonical(out.read_text())


def test_reduce_forward_golden():
    r = run_cli("reduce", "-A", "6", "10", "15", "--mode", "min-gcd")
    assert r.returncode == 0
    assert_matches_golden(r, "reduce_forward_min_gcd_6_10_15.json")


def test_reduce_backward_golden():
    doc = json.dumps({"universe_size": 3, "sets": [[0, 1], [1, 2], [2]]})
    r = run_cli("reduce", "--direction", "backward", "--input", "-", "--mode", "max-lcm", stdin=doc)
    assert r.returncode == 0
    assert_matches_golden(r, "reduce_backward_max_lcm.json")
    assert json.loads(r.stdout)["target"] == "30"


def test_reduce_backward_infeasible_certificate():
    doc = json.dumps({"universe_size": 2, "sets": [[0]]})
    r = run_cli("reduce", "--direction", "backward", "--input", "-", stdin=doc)
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["infeasible"] is True
    assert payload["certificate"] == {"uncoverable_element": 1}
    assert "error" in r.stderr
    assert_canonical(r.stdout)


def test_reduce_backward_huge_universe_without_sets_fails_at_once():
    doc = json.dumps({"universe_size": 10**12, "sets": []})
    r = run_cli("reduce", "--direction", "backward", "--input", "-", stdin=doc)
    assert r.returncode == 1
    assert json.loads(r.stdout)["certificate"] == {"uncoverable_element": 0}


@pytest.mark.parametrize("mode", ["min-gcd", "max-lcm"])
def test_reduce_backward_empty_family_exits_2(mode):
    doc = json.dumps({"universe_size": 0, "sets": []})
    r = run_cli("reduce", "--direction", "backward", "--input", "-", "--mode", mode, stdin=doc)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: a cover with no sets has no integer image\n"


def test_reduce_backward_min_gcd_refuses_an_empty_universe():
    doc = json.dumps({"universe_size": 0, "sets": [[]]})
    r = run_cli("reduce", "--direction", "backward", "--input", "-", stdin=doc)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: an empty universe has no min-gcd image: the gcd of no element is 0\n"


@pytest.mark.parametrize("inline", [["-A", "5", "7", "-B", "3"], ["-B", "3"]])
def test_reduce_backward_refuses_inline_values(tmp_path, capsys, inline):
    # once ignored them and embedded the cover file
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"universe_size": 3, "sets": [[0, 1], [1, 2], [2]]}))
    argv = ["reduce", "--direction", "backward", "--input", str(cover), *inline, "--mode", "max-lcm"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert not out and "-A/-B" in err


@pytest.fixture
def unlimited_int_digits():
    """Lift Python's int/str conversion limit (3.10.7 and later) in this
    process, to check integers longer than 4300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_reduce_backward_target_over_4300_digits(unlimited_int_digits):
    n = 1500
    doc = json.dumps({"universe_size": n, "sets": [list(range(0, n, 2)), list(range(1, n, 2))]})
    r = run_cli("reduce", "--direction", "backward", "--input", "-", "--mode", "max-lcm", stdin=doc)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert len(payload["target"]) > 4300
    assert int(payload["target"]) == math.prod(first_primes(n))


def test_solve_target_over_4300_digits(unlimited_int_digits):
    x, y = 10**3000 + 1, 10**3000 + 3
    r = run_cli("solve", "--mode", "max-lcm", "-A", str(x), str(y))
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["S"] == [str(x), str(y)]
    assert int(payload["target"]) == x * y


def test_input_number_over_4300_digits():
    big = "1" + "0" * 4999
    r = run_cli("solve", "--input", "-", stdin='{"A": [%s, 6], "mode": "min-gcd"}' % big)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["S"] == ["6", big]
    assert payload["target"] == "2"


def test_basis_golden():
    r = run_cli("basis", "-A", "30", "42")
    assert r.returncode == 0
    assert_matches_golden(r, "basis_30_42.json")


def test_circulant_prune_golden():
    r = run_cli("circulant", "-m", "6", "--links", "2", "3", "4")
    assert r.returncode == 0
    assert_matches_golden(r, "circulant_m6_links_2_3_4.json")
    payload = json.loads(r.stdout)
    assert payload["pruned_links"] == ["2", "3"]
    assert payload["removed_count"] == 1


def test_circulant_disconnected_exit_1():
    r = run_cli("circulant", "-m", "4", "--links", "2")
    assert r.returncode == 1
    assert_matches_golden(r, "circulant_disconnected_m4.json")
    payload = json.loads(r.stdout)
    assert payload["connected"] is False


def test_gen_golden():
    r = run_cli("gen", "--seed", "7", "--count", "5", "--max-value", "1000")
    assert r.returncode == 0
    assert_matches_golden(r, "gen_seed7.json")


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "-A", "6", "10", "15"),
        ("solve", "-A", "4", "6", "9", "--mode", "max-lcm", "--method", "greedy"),
        ("reduce", "-A", "12", "18", "30"),
        ("basis", "-A", "360", "420"),
        ("circulant", "-m", "30", "--links", "6", "10", "15"),
        ("gen", "--seed", "123", "--count", "8", "--max-value", "5000", "--b-count", "2"),
    ],
)
def test_byte_determinism_across_runs(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_usage_errors_exit_2():
    assert run_cli("solve").returncode == 2  # no instance given
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("solve", "-A", "0").returncode == 2  # nonpositive element
    assert run_cli("solve", "-A", "6", "--mode", "median").returncode == 2


def test_non_canonical_decimals_in_a_file_exit_2():
    # once answered S = ["12", "45"]: int() read "1_2" as 12 and "٤٥" as 45
    r = run_cli("solve", "--input", "-", stdin=json.dumps({"A": ["1_2", " 18 ", "+30", "٤٥"]}))
    assert r.returncode == 2 and "A[0]" in r.stderr and not r.stdout


@pytest.mark.parametrize(
    "argv, field",
    [
        (["solve", "-A", "6", "+30"], "A[1]"),
        (["solve", "-A", "6", "-B", " 4"], "B[0]"),
        (["circulant", "-m", "٦", "--links", "1_0", "+3", " 4 "], "nodes"),
        (["circulant", "-m", "6", "--links", "10", "+3", " 4 "], "links[1]"),
        (["gen", "--seed", "+7", "--count", "٣", "--max-value", "1_000", "--b-count", " 1 "], "seed"),
        (["gen", "--seed", "7", "--count", "٣"], "count"),
        (["gen", "--seed", "7", "--count", "3", "--max-value", "1_000"], "max-value"),
        (["gen", "--seed", "7", "--count", "3", "--b-count", " 1 "], "b-count"),
    ],
)
def test_non_canonical_inline_decimals_exit_2(capsys, argv, field):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert not out and field in err


def test_parse_errors_report_position_and_exit_2():
    r = run_cli("solve", "--input", "-", stdin="{broken")
    assert r.returncode == 2
    assert "line 1" in r.stderr
    r = run_cli("solve", "--input", "-", stdin=json.dumps({"A": ["six"]}))
    assert r.returncode == 2
    assert "A[0]" in r.stderr
    r = run_cli("solve", "--input", "/nonexistent/instance.json")
    assert r.returncode == 2


def test_unwritable_output_reports_one_line_and_exits_2(tmp_path):
    r = run_cli("solve", "-A", "6", "10", "--output", str(tmp_path / "missing" / "out.json"))
    assert r.returncode == 2
    assert r.stderr.startswith("error: cannot write ") and r.stderr.count("\n") == 1


def test_non_utf8_input_reports_one_line_and_exits_2(tmp_path):
    path = tmp_path / "instance.json"
    path.write_bytes(b'{"A": ["6", "10\xff"]}')
    r = run_cli("solve", "--input", str(path))
    assert r.returncode == 2
    assert r.stderr.startswith(f"error: cannot read {path}") and r.stderr.count("\n") == 1


def test_brute_force_cap_refusal_exits_2():
    args = ["solve", "--method", "brute-force", "-A"] + [str(v) for v in range(2, 30)]
    r = run_cli(*args)
    assert r.returncode == 2
    assert "cap" in r.stderr


def test_timings_flag_adds_elapsed():
    plain = run_cli("solve", "-A", "6", "10", "15")
    timed = run_cli("solve", "-A", "6", "10", "15", "--timings")
    assert "elapsed_s" not in json.loads(plain.stdout)["stats"]
    assert json.loads(timed.stdout)["stats"]["elapsed_s"] >= 0
    assert_canonical(timed.stdout)


def test_cli_output_needs_no_pure_python_encoder(monkeypatch, capsys, unlimited_int_digits):
    """``json.dumps`` with ``indent`` runs ``json.encoder._make_iterencode``,
    the pure-Python encoder, which costs more than computing a large basis
    or reduction; canonical output is written without it."""
    a = [str(x) for x in generate_instance(1, 200, 10**4).a]
    calls = [["solve", "-A", *a], ["basis", "-A", *a], ["reduce", "-A", *a]]

    def stdout_of(argv):
        status = cli.main(argv)
        return status, capsys.readouterr().out

    plain = [stdout_of(argv) for argv in calls]

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert [stdout_of(argv) for argv in calls] == plain


def test_cli_and_library_build_no_set_lists(monkeypatch, capsys, tmp_path, unlimited_int_digits):
    """A cover's sets are read from its masks: ``solve``, ``reduce`` in
    both directions and ``basis`` never build the index lists of
    ``CoverInstance.sets``, in the CLI or the library."""
    gcd_inst = generate_instance(1, 200, 10**4, b_count=2)
    lcm_inst = generate_instance(2, 60, 10**4, mode="max-lcm", b_count=2)
    calls = []
    for inst in (gcd_inst, lcm_inst):
        args = ["--mode", inst.mode, "-A", *map(str, inst.a), "-B", *map(str, inst.b)]
        calls += [["solve", *args], ["basis", *args], ["reduce", *args]]
    calls.append(["solve", "--mode", "max-lcm", "-A", "4", "6", "-B", "8"])
    cover_file = tmp_path / "cover.json"
    cover_file.write_text(
        json.dumps({"sets": [list(s) for s in _ag_hitting_cover(2).sets], "universe_size": 12})
    )
    for mode in ("min-gcd", "max-lcm"):
        backward = ["reduce", "--direction", "backward", "--mode", mode]
        calls.append([*backward, "--input", str(cover_file)])
    graphs = [CirculantGraph(node_count=60, links=(6, 10, 15, 24)), CirculantGraph(12, (3, 4, 6))]

    def outputs():
        cli_out = [(cli.main(argv), capsys.readouterr().out) for argv in calls]
        library = [
            (solve(inst, method).s, [decide(inst, k) for k in range(4)])
            for inst in (gcd_inst, lcm_inst, ProblemInstance((4, 6), (8,), "max-lcm"))
            for method in ("exact", "greedy")
        ]
        pruned = [prune_links(g, method) for g in graphs for method in ("exact", "greedy")]
        return cli_out, library, pruned

    plain = outputs()

    def refuse(self):
        raise AssertionError("the set lists were built")

    monkeypatch.setattr(CoverInstance, "sets", property(refuse))
    assert outputs() == plain


def test_inline_values_parse_as_a_files_payload(monkeypatch, capsys, tmp_path):
    """Inline ``-A``/``-B`` values go through ``instance_from_payload`` as
    the payload a file would hold, and ``--mode`` overrides the parsed mode."""
    a, b = ["12", "18", "30", "45"], ["6"]
    parsed = []
    parse = jsonio.instance_from_payload

    def record(payload):
        parsed.append(payload)
        return parse(payload)

    monkeypatch.setattr(jsonio, "instance_from_payload", record)
    commands = [["solve"], ["reduce"], ["basis"]]
    for command in commands:
        assert cli.main([*command, "-A", *a, "-B", *b]) == 0
    capsys.readouterr()
    assert parsed == [{"A": a, "B": b}] * len(commands)

    def run(argv):
        status = cli.main(argv)
        out, err = capsys.readouterr()
        return status, out, err

    for mode in ("min-gcd", "max-lcm"):
        f = tmp_path / f"{mode}.json"
        f.write_text(json.dumps({"A": a, "B": b, "mode": mode}))
        for command in commands:
            inline = run([*command, "--mode", mode, "-A", *a, "-B", *b])
            assert inline[0] == 0 and inline == run([*command, "--input", str(f)])

    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"A": ["6", "x"]}))
    status, out, err = run(["solve", "-A", "6", "x"])
    assert (status, out) == (2, "") and "A[1]" in err
    assert run(["solve", "--input", str(f)]) == (status, out, err)

    # a file is checked in full before --mode replaces its mode
    f.write_text(json.dumps({"A": ["6", "10"], "mode": "median"}))
    status, out, err = run(["solve", "--input", str(f), "--mode", "max-lcm"])
    assert (status, out) == (2, "") and "mode" in err


def test_canonical_json_gets_only_str_lists_and_held_rows(monkeypatch, capsys, tmp_path):
    """Every payload a command writes holds lists of decimal strings or
    names, ``str`` keys, and held views of rows: nothing that needs a join
    of ints."""
    written = []
    write = jsonio.canonical_json

    def record(payload):
        written.append(payload)
        return write(payload)

    monkeypatch.setattr(jsonio, "canonical_json", record)
    inline = ["-A", "12", "18", "30", "45", "-B", "6"]
    calls = [
        (["solve", *inline], 0),
        (["solve", "--method", "greedy", *inline], 0),
        (["solve", "--method", "brute-force", *inline], 0),
        (["basis", *inline], 0),
        (["circulant", "-m", "60", "--links", "6", "10", "15", "24"], 0),
        (["circulant", "-m", "12", "--links", "3", "6"], 1),
        (["gen", "--seed", "3", "--count", "5", "--b-count", "2"], 0),
    ]
    covers = [({"universe_size": 3, "sets": [[0, 1], [1, 2], [2]]}, 0)]
    covers.append(({"universe_size": 2, "sets": [[0]]}, 1))
    for mode in ("min-gcd", "max-lcm"):
        calls.append((["reduce", "--mode", mode, *inline], 0))
        for i, (cover, status) in enumerate(covers):
            f = tmp_path / f"cover{i}.json"
            f.write_text(json.dumps(cover))
            backward = ["reduce", "--direction", "backward", "--mode", mode, "--input", str(f)]
            calls.append((backward, status))
    for argv, status in calls:
        assert cli.main(argv) == status, argv
    capsys.readouterr()
    assert len(written) == len(calls)

    def walk(v):
        if isinstance(v, list):
            assert all(isinstance(x, str) for x in v), v
        elif isinstance(v, dict):
            assert all(isinstance(k, str) for k in v), v
            for x in v.values():
                walk(x)
        elif not isinstance(v, (str, int, float, type(None))):
            assert isinstance(v, jsonio._HeldRows), v

    for payload in written:
        walk(payload)


def test_solve_with_an_owner_of_no_columns():
    """b attains the max exponent of 2, and 4 attains no other: 4 owns
    the empty set, which stays a set of its own."""
    r = run_cli("solve", "-A", "4", "6", "-B", "8", "--mode", "max-lcm")
    assert r.returncode == 0
    assert r.stdout == (
        "{\n"
        '  "S": [\n'
        '    "6"\n'
        "  ],\n"
        '  "achieved": "24",\n'
        '  "method": "exact",\n'
        '  "optimal": true,\n'
        '  "size": 1,\n'
        '  "stats": {\n'
        '    "num_sets": 2,\n'
        '    "universe_size": 1\n'
        "  },\n"
        '  "target": "24"\n'
        "}\n"
    )


def _ag_hitting_cover(dim: int) -> CoverInstance:
    """Hitting-set cover of the affine space AG(dim, 3): the universe is its
    lines, sorted as sorted index triples, and each point, in
    ``itertools.product`` order, owns the lines through it."""
    points = list(itertools.product(range(3), repeat=dim))
    index = {p: i for i, p in enumerate(points)}
    # one direction per line class: the first nonzero coordinate is 1
    directions = [d for d in points if any(d) and d[next(i for i, c in enumerate(d) if c)] == 1]
    lines = sorted(
        {
            tuple(sorted(index[tuple((x + t * dx) % 3 for x, dx in zip(p, d))] for t in range(3)))
            for p in points
            for d in directions
        }
    )
    assert len(lines) == len(points) * (len(points) - 1) // 6
    sets = [[] for _ in points]
    for j, line in enumerate(lines):
        for i in line:
            sets[i].append(j)
    return CoverInstance(len(lines), tuple(map(tuple, sets)))


@pytest.mark.parametrize(
    "mode, owners", [("max-lcm", (0, 1, 2, 3, 6)), ("min-gcd", (0, 4, 5, 7, 8))]
)
def test_ag23_cover_solves_through_its_integer_image(
    mode, owners, monkeypatch, capsys, unlimited_int_digits
):
    """The smallest cover that is hard for the search: a set of points
    meeting every line of AG(2, 3) leaves out a cap, and the largest cap
    has 4 of the 9 points, so the optimum is 5. Embedded as integers by
    the backward reduction and solved as a subset problem, it keeps that
    size, and the owners of S form a cover."""
    cover = _ag_hitting_cover(2)
    assert exact_cover(cover).chosen == (0, 1, 2, 3, 6)
    assert decide_cover(cover, 5) and not decide_cover(cover, 4)

    def run(argv, stdin):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert cli.main(argv) == 0
        return json.loads(capsys.readouterr().out)

    doc = json.dumps({"sets": [list(s) for s in cover.sets], "universe_size": 12})
    image = run(["reduce", "--direction", "backward", "--mode", mode, "--input", "-"], doc)
    sol = run(["solve", "--input", "-"], json.dumps(image))
    assert sol["size"] == 5 and sol["optimal"] and sol["target"] == image["target"]
    assert tuple(sorted(image["owner_sets"][x] for x in sol["S"])) == owners
    covered = set().union(*(cover.sets[i] for i in owners))
    assert covered == set(range(12))


def test_ctrl_c_ends_a_long_search_with_one_line(tmp_path):
    """SIGINT in the middle of a search: exit code 130 and one line on
    standard error, no traceback. The max-lcm image of AG(4, 3)'s
    hitting-set cover reduces in about 0.1 s and then searches for
    minutes."""
    image = cover_to_lcm(_ag_hitting_cover(4))
    doc = tmp_path / "ag43.json"
    doc.write_text(json.dumps({"A": [str(x) for x in image.elements], "B": [], "mode": "max-lcm"}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gcdlcm", "solve", "--input", str(doc)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=python_env(),
    )
    try:
        time.sleep(1.5)
        assert proc.poll() is None, "the search ended before it was interrupted"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert "Traceback" not in err
    assert err.splitlines() == ["error: interrupted"]
    assert (proc.returncode, out) == (130, "")
