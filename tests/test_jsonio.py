"""Round-trips and canonical-form guarantees of the JSON layer."""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdlcm import (
    CoprimeBasis,
    CoverInstance,
    DomainError,
    ProblemInstance,
    compute_basis,
    reduce_instance,
    solve,
)
from gcdlcm.jsonio import (
    basis_to_payload,
    canonical_json,
    cover_instance_from_payload,
    cover_instance_to_payload,
    instance_from_payload,
    instance_to_payload,
    parse_int,
    reduction_to_payload,
    subset_solution_to_payload,
)
from helpers import dense_exponents


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
    assert parse_int("-7", "x") == -7  # the sign is left to the instance checks
    # int() takes underscores, surrounding blanks, a plus sign and non-ASCII digits
    for bad in (True, 1.5, "0x7", "", "-", None, [], "1_2", " 18 ", "18\n", "+30", "٤٥", "１"):
        with pytest.raises(DomainError, match="'x'"):
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
    text = canonical_json(cover_instance_to_payload(ci))
    assert cover_instance_from_payload(json.loads(text)) == ci
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


# -- rows written from nonzeros and masks --------------------------------

# widths where the labels' digit counts change, and a few between
_WIDTHS = st.sampled_from([0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000])


@st.composite
def _sparse_rows(draw):
    """A width and rows of (column, exponent) nonzeros, ascending by column."""
    width = draw(_WIDTHS)
    rows = []
    for _ in range(draw(st.integers(0, 4 if width > 100 else 8))):
        cols = draw(st.sets(st.integers(0, width - 1), max_size=6)) if width else set()
        if width and draw(st.booleans()):
            cols |= {0, width - 1}
        exps = st.one_of(st.integers(1, 3), st.integers(9, 11), st.integers(99, 100))
        rows.append(tuple((c, draw(exps)) for c in sorted(cols)))
    return width, tuple(rows)


@st.composite
def _mask_rows(draw):
    """A universe size and masks: empty, full, near-full, sparse, random."""
    n = draw(_WIDTHS)
    full = (1 << n) - 1
    some_bits = st.lists(st.integers(0, n - 1), max_size=5) if n else st.just([])
    few = some_bits.map(lambda bits: sum({1 << j for j in bits}))
    mask = st.one_of(
        st.just(0),
        st.just(full),
        few.map(lambda m: full ^ m),
        few,
        st.integers(0, full),
    )
    return n, tuple(draw(st.lists(mask, max_size=4 if n > 100 else 8)))


def _nest(payload, depth):
    """``payload`` ``depth`` levels down, alternating dicts and lists."""
    for level in range(depth):
        payload = {"x": payload} if level % 2 else [payload]
    return payload


@settings(max_examples=200, deadline=None)
@given(_sparse_rows(), _mask_rows(), st.integers(0, 3))
@example((0, ((),)), (0, ()), 0)  # the basis of [1] and a cover with no sets
@example((0, ()), (0, ()), 0)  # the basis of no elements, no rows at all
@example((0, ((), ())), (0, (0,)), 1)  # rows of width 0, an empty set
@example((3, ((), ((0, 10), (2, 12)))), (3, (0, 7, 6, 1)), 0)
def test_rows_and_sets_write_what_json_dumps_writes_for_dense_lists(sparse, masks, depth):
    width, nonzeros = sparse
    cb = CoprimeBasis(
        source=tuple(range(1, len(nonzeros) + 1)),
        basis=tuple(range(2, width + 2)),
        nonzeros=nonzeros,
    )
    dense_rows = [[dict(row).get(c, 0) for c in range(width)] for row in nonzeros]
    n, mask_list = masks
    cover = CoverInstance._make((n, mask_list))
    dense_sets = [[j for j in range(n) if m >> j & 1] for m in mask_list]
    payload = _nest([basis_to_payload(cb), cover_instance_to_payload(cover)], depth)
    dense = [
        {
            "basis": [str(p) for p in cb.basis],
            "elements": [str(x) for x in cb.source],
            "exponents": dense_rows,
        },
        {"sets": dense_sets, "universe_size": n},
    ]
    expected = json.dumps(_nest(dense, depth), indent=2, sort_keys=True) + "\n"
    assert canonical_json(payload) == expected



def test_payload_row_lists_are_write_only_views():
    """The exponent matrix and the cover sets in a payload are views that
    only ``canonical_json`` writes: they have no length, ``json.dumps`` and
    the parsers refuse them, and the text reads back as the dense rows."""
    cb = compute_basis((12, 18, 35))
    red, bem = reduce_instance(ProblemInstance(a=(12, 18, 30, 45), b=(), mode="min-gcd"))
    rows = dense_exponents(cb.source, cb.basis)
    n = red.cover.universe_size
    sets = [[j for j in range(n) if m >> j & 1] for m in red.cover.masks]
    basis = basis_to_payload(cb)
    cover = cover_instance_to_payload(red.cover)
    reduction = reduction_to_payload("min-gcd", red, bem)
    for payload, view, dense in [
        (basis, basis["exponents"], dict(basis, exponents=rows)),
        (cover, cover["sets"], dict(cover, sets=sets)),
        (
            reduction,
            reduction["cover"]["sets"],
            dict(reduction, cover=dict(reduction["cover"], sets=sets)),
        ),
    ]:
        with pytest.raises(TypeError):
            len(view)
        with pytest.raises(TypeError):
            json.dumps(payload)
        text = canonical_json(payload)
        assert text == json.dumps(dense, indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == dense
    with pytest.raises(DomainError):
        cover_instance_from_payload(cover)
