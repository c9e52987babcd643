"""Round-trips and canonical-form guarantees of the JSON layer."""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdlcm import CoverInstance, DomainError, ProblemInstance, solve
from gcdlcm.jsonio import (
    canonical_json,
    cover_instance_from_payload,
    cover_instance_to_payload,
    instance_from_payload,
    instance_to_payload,
    parse_int,
    subset_solution_to_payload,
)


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [2]})
    assert text == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
    assert text.endswith("\n")


_KEYS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é", "键", "\u2028"]))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(4301, 5000).map(lambda digits: -(10**digits) + 1),  # past the 4300-digit limit
    st.floats(),
    st.sampled_from([-0.0, 1e300, 5e-324]),
    st.text(),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.lists(st.text(), max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=5),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=30))
@example([1, True])
@example([1, "1"])
@example({"a": [[], {}, ()], "b": {"c": [[1, -2], ["x", "\\"]]}})
@example({"owners": {10: [1, 2], 2: "x", -1: {}}})
def test_canonical_json_writes_what_indented_json_dumps_writes(payload):
    old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert canonical_json(payload) == expected
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def test_parse_int_accepts_numbers_and_decimal_strings():
    assert parse_int(7, "x") == 7
    assert parse_int("7", "x") == 7
    assert parse_int(str(10**40), "x") == 10**40
    for bad in (True, 1.5, "0x7", "", None, []):
        with pytest.raises(DomainError):
            parse_int(bad, "x")


def test_instance_round_trip():
    inst = ProblemInstance(a=(6, 10, 15), b=(4,), mode="min-gcd")
    assert instance_from_payload(instance_to_payload(inst)) == inst


def test_instance_payload_is_lenient_about_int_forms():
    payload = {"A": [6, "10", 15], "B": [], "mode": "max-lcm"}
    inst = instance_from_payload(payload)
    assert inst.a == (6, 10, 15)
    assert inst.mode == "max-lcm"
    # B and mode are optional
    assert instance_from_payload({"A": ["5"]}).mode == "min-gcd"
    with pytest.raises(DomainError):
        instance_from_payload({"B": ["5"]})
    with pytest.raises(DomainError):
        instance_from_payload({"A": ["5"], "mode": 3})
    with pytest.raises(DomainError):
        instance_from_payload(["5"])


def test_big_integers_survive_the_string_encoding():
    big = 10**60 + 7
    inst = ProblemInstance(a=(big, 2), b=(), mode="max-lcm")
    payload = json.loads(canonical_json(instance_to_payload(inst)))
    assert payload["A"] == ["2", str(big)]
    assert instance_from_payload(payload) == inst


def test_cover_instance_round_trip():
    ci = CoverInstance(universe_size=3, sets=((0, 1), (2,), ()))
    assert cover_instance_from_payload(cover_instance_to_payload(ci)) == ci
    with pytest.raises(DomainError):
        cover_instance_from_payload({"universe_size": 2})
    with pytest.raises(DomainError):
        cover_instance_from_payload({"universe_size": 2, "sets": "nope"})


def test_solution_payload_hides_timing_unless_asked():
    sol = solve(ProblemInstance(a=(6, 10), b=(), mode="min-gcd"))
    assert "elapsed_s" not in subset_solution_to_payload(sol)["stats"]
    timed = subset_solution_to_payload(sol, include_timing=True)
    assert timed["stats"]["elapsed_s"] >= 0


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=10**12), min_size=1, max_size=8),
    st.lists(st.integers(min_value=1, max_value=10**12), max_size=3),
    st.sampled_from(["min-gcd", "max-lcm"]),
)
def test_instance_round_trip_random(a, b, mode):
    inst = ProblemInstance(a=tuple(a), b=tuple(b), mode=mode)
    rebuilt = instance_from_payload(json.loads(canonical_json(instance_to_payload(inst))))
    assert rebuilt == inst
