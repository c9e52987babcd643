"""JSON payloads for instances, cover problems, solutions, and reductions.

Conventions shared by every payload: the output is the bytes
``json.dumps(payload, indent=2, sort_keys=True)`` writes, plus a trailing
newline, so equal data always produces identical bytes. It is made with
one join per list of ints or of strings: ``json.dumps`` with ``indent``
runs the pure-Python encoder, which costs more than computing a large
basis or reduction. The two large lists of rows, a basis's exponent
matrix and a cover's sets, stay in the form their owner holds them (rows
of nonzeros, bitmasks) and are written from it, as slices of one
precomputed row, without building the dense rows. In a payload each is
a view that ``canonical_json`` writes and ``json.dumps`` refuses; the
library never reads a payload back in process. Integers that can be
arbitrarily large (set elements, gcd/lcm values, basis elements)
serialize as decimal strings; universe indices, exponents, and sizes
stay JSON numbers. Parsers take what ``json.loads`` gives: JSON lists,
and either form for integer fields. They report the offending field on
error.
"""

from __future__ import annotations

import json
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any

from gcdlcm.errors import DomainError
from gcdlcm.numeric import ProblemInstance, set_bits

if TYPE_CHECKING:
    from gcdlcm.basis import CoprimeBasis
    from gcdlcm.reductions import BEliminationMap, CoverImage, CoverReduction
    from gcdlcm.setcover import CoverInstance
    from gcdlcm.solver import SubsetSolution


def canonical_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)`` and a newline."""
    return _indented(payload, "\n") + "\n"


def _indented(v: Any, nl: str) -> str:
    """``v`` as ``json.dumps(v, indent=2, sort_keys=True)`` writes it at the
    depth whose line break and indent is ``nl``."""
    inner = nl + "  "
    if isinstance(v, _HeldRows):
        return v.indented(nl)
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        kinds = set(map(type, v))
        if kinds == {int}:
            items = map(int.__repr__, v)
        elif kinds == {str}:
            items = map(encode_basestring_ascii, v)
        else:
            items = (_indented(x, inner) for x in v)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        if not all(isinstance(k, str) for k in v):
            # json.dumps sorts non-str keys by value before it writes them as str
            return json.dumps(v, indent=2, sort_keys=True).replace("\n", nl)
        pairs = (encode_basestring_ascii(k) + ": " + _indented(v[k], inner) for k in sorted(v))
        return "{" + inner + ("," + inner).join(pairs) + nl + "}"
    return json.dumps(v)


class _HeldRows:
    """A payload's list of int rows, kept as its owner holds them:
    ``indented(nl)`` writes them as ``_indented`` writes the dense rows,
    without building them."""

    def __init__(self, owner):
        self.owner = owner


class _ExponentRows(_HeldRows):
    """The exponent matrix of a ``CoprimeBasis``, from its nonzeros."""

    def __iter__(self):
        # the dense rows: only the benchmark's answer-check tests read them back
        width = len(self.owner.basis)
        return ([dict(pairs).get(c, 0) for c in range(width)] for pairs in self.owner.nonzeros)

    def indented(self, nl: str) -> str:
        if not self.owner.nonzeros:
            return "[]"
        # every row is the all-zero row with each nonzero written over its 0
        inner, cell = nl + "  ", nl + "    "
        width = len(self.owner.basis)
        zeros = "[" + cell + ("," + cell).join(["0"] * width) + inner + "]" if width else "[]"
        first, step = len(cell) + 1, len(cell) + 2  # where column 0 is, and the stride
        parts = ["[", inner]
        for pairs in self.owner.nonzeros:
            at = 0
            for c, e in pairs:
                cut = first + c * step
                parts += (zeros[at:cut], int.__repr__(e))
                at = cut + 1
            parts += (zeros[at:], "," + inner)
        parts[-1] = nl + "]"
        return "".join(parts)


class _CoverSets(_HeldRows):
    """The sets of a ``CoverInstance``, from its masks."""

    def indented(self, nl: str) -> str:
        if not self.owner.masks:
            return "[]"
        # a set of more than half the universe is the full row with its
        # missing labels cut out; a smaller one joins its labels
        inner, cell = nl + "  ", nl + "    "
        sep = "," + cell
        n = self.owner.universe_size
        labels = [str(j) for j in range(n)]
        full_row = sep.join(labels)
        starts = list(accumulate((len(label) + len(sep) for label in labels), initial=0))
        universe = (1 << n) - 1
        parts = ["[", inner]
        for m in self.owner.masks:
            if not m:
                parts.append("[]")
            elif 2 * m.bit_count() > n:
                parts += ("[", cell)
                lo = 0  # the first label of the run kept so far
                for j in set_bits(universe ^ m):
                    if j > lo:
                        parts += (full_row[starts[lo] : starts[j] - len(sep)], sep)
                    lo = j + 1
                if lo < n:
                    parts += (full_row[starts[lo] :], sep)
                parts[-1] = inner + "]"
            else:
                parts += ("[", cell, sep.join(map(labels.__getitem__, set_bits(m))), inner, "]")
            parts.append("," + inner)
        parts[-1] = nl + "]"
        return "".join(parts)


def parse_int(value: Any, field: str) -> int:
    """A JSON number or an ASCII decimal string; anything else is a parse error."""
    if isinstance(value, bool):
        raise DomainError(f"field {field!r}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        # only ASCII -?[0-9]+: int() would also take "1_2", " 18 ", "+30" and "٤٥"
        digits = value[1:] if value[:1] == "-" else value
        if digits.isascii() and digits.isdigit():
            return int(value)
        raise DomainError(f"field {field!r}: {value!r} is not a decimal integer")
    raise DomainError(
        f"field {field!r}: expected an integer, got {type(value).__name__}"
    )


def parse_int_list(values: Any, field: str) -> list[int]:
    """A JSON array of integers."""
    if not isinstance(values, list):
        raise DomainError(f"field {field!r}: expected a list")
    return [parse_int(v, f"{field}[{i}]") for i, v in enumerate(values)]


def _require(payload: Any, *fields: str) -> dict:
    if not isinstance(payload, dict):
        raise DomainError("payload must be a JSON object")
    for f in fields:
        if f not in payload:
            raise DomainError(f"field {f!r}: missing")
    return payload


# -- problem instances --------------------------------------------------


def instance_to_payload(inst: ProblemInstance) -> dict:
    return {
        "A": [str(x) for x in inst.a],
        "B": [str(x) for x in inst.b],
        "mode": inst.mode,
    }


def instance_from_payload(payload: Any) -> ProblemInstance:
    _require(payload, "A")
    mode = payload.get("mode", "min-gcd")
    if not isinstance(mode, str):
        raise DomainError(f"field 'mode': expected a string, got {type(mode).__name__}")
    return ProblemInstance(
        a=tuple(parse_int_list(payload["A"], "A")),
        b=tuple(parse_int_list(payload.get("B", []), "B")),
        mode=mode,
    )


# -- cover instances ----------------------------------------------------


def cover_instance_to_payload(inst: CoverInstance) -> dict:
    """``sets`` is written from the masks (see the module docstring)."""
    return {
        "sets": _CoverSets(inst),
        "universe_size": inst.universe_size,
    }


def cover_instance_from_payload(payload: Any) -> CoverInstance:
    from gcdlcm.setcover import CoverInstance

    _require(payload, "sets", "universe_size")
    raw = payload["sets"]
    if not isinstance(raw, list):
        raise DomainError("field 'sets': expected a list of lists")
    return CoverInstance(
        universe_size=parse_int(payload["universe_size"], "universe_size"),
        sets=tuple(tuple(parse_int_list(s, f"sets[{i}]")) for i, s in enumerate(raw)),
    )


# -- subset solutions ---------------------------------------------------


def subset_solution_to_payload(sol: SubsetSolution, include_timing: bool = False) -> dict:
    """Timing is opt-in: elapsed wall time would break byte-for-byte
    reproducibility of otherwise identical runs."""
    stats: dict[str, Any] = {
        "num_sets": sol.stats.num_sets,
        "universe_size": sol.stats.universe_size,
    }
    if include_timing:
        stats["elapsed_s"] = sol.stats.elapsed_s
    return {
        "S": [str(x) for x in sol.s],
        "achieved": str(sol.achieved),
        "method": sol.method,
        "optimal": sol.optimal,
        "size": sol.size,
        "stats": stats,
        "target": str(sol.target),
    }


# -- reductions ---------------------------------------------------------


def reduction_to_payload(
    mode: str, red: CoverReduction, bem: BEliminationMap | None
) -> dict:
    """``cover.sets`` is written from the masks (see the module docstring)."""
    payload: dict[str, Any] = {
        "cover": cover_instance_to_payload(red.cover),
        "mode": mode,
        "set_owners": [str(x) for x in red.set_owners],
        "universe_labels": [str(p) for p in red.universe_labels],
    }
    if bem is not None:
        payload["b_elimination"] = {
            "reduced": [str(v) for v in bem.reduced],
            "section": {str(v): str(x) for v, x in bem.section.items()},
        }
    return payload


def cover_image_to_payload(mode: str, img: CoverImage) -> dict:
    return {
        "A": [str(x) for x in img.elements],
        "mode": mode,
        "owner_sets": {str(x): img.owners[x] for x in img.elements},
        "target": str(img.target),
    }


# -- coprime bases ------------------------------------------------------


def basis_to_payload(cb: CoprimeBasis) -> dict:
    """``exponents`` is written from the nonzeros (see the module docstring)."""
    return {
        "basis": [str(p) for p in cb.basis],
        "elements": [str(x) for x in cb.source],
        "exponents": _ExponentRows(cb),
    }
