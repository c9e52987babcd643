"""The public records: immutable named tuples that compare, hash, print and
pickle by value, and whose validating constructors still refuse bad input."""

from __future__ import annotations

import pickle

import pytest

from gcdlcm import (
    BEliminationMap,
    CirculantGraph,
    CoprimeBasis,
    CoverImage,
    CoverInstance,
    CoverReduction,
    CoverSolution,
    DomainError,
    ProblemInstance,
    SolveStats,
    SubsetSolution,
)


def _records() -> list:
    """One fresh value of every public record, the same on every call."""
    cover = CoverInstance(3, [(2, 0), (1,), (1, 1)])
    return [
        CoprimeBasis(source=(6, 10), basis=(2, 3, 5), nonzeros=(((0, 1), (1, 1)), ((0, 1), (2, 1)))),
        BEliminationMap(reduced=(2, 3), section={2: 4, 3: 9}),
        CoverReduction(cover=cover, universe_labels=(2, 3, 5), set_owners=(10, 3, 9)),
        CoverImage(elements=(6, 10), owners={6: 0, 10: 1}, target=30),
        cover,
        CoverInstance.from_masks(3, (0b101,)),
        CoverSolution(chosen=(0, 1), is_optimal=True),
        ProblemInstance(a=(15, 6, 10, 6), b=(4,), mode="min-gcd"),
        SolveStats(elapsed_s=0.5, universe_size=3, num_sets=2),
        SubsetSolution(
            s=(15,), achieved=1, target=1, method="exact", optimal=True, stats=SolveStats(0.0, 1, 2)
        ),
        CirculantGraph(node_count=12, links=(4, 3, 4)),
    ]


RECORDS = pytest.mark.parametrize(
    "index", range(len(_records())), ids=[type(r).__name__ for r in _records()]
)


@RECORDS
def test_equal_values_compare_and_hash_equal(index):
    rec, again = _records()[index], _records()[index]
    assert rec == again and rec is not again
    if not any(isinstance(field, dict) for field in rec):  # a dict field is unhashable
        assert hash(rec) == hash(again)


@RECORDS
def test_fields_cannot_be_assigned(index):
    rec = _records()[index]
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


@RECORDS
def test_repr_names_the_class_and_its_fields(index):
    rec = _records()[index]
    text = repr(rec)
    assert text.startswith(type(rec).__name__ + "(")
    for name in rec._fields:
        assert f"{name}=" in text


@RECORDS
def test_pickle_round_trip_keeps_the_value(index):
    rec = _records()[index]
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is type(rec)


def test_cover_from_masks_pickles_as_masks():
    inst = CoverInstance.from_masks(3, (0b101,))
    assert inst.sets == ((0, 2),)  # the cached view does not travel
    back = pickle.loads(pickle.dumps(inst))
    assert back.masks == (0b101,) and back.sets == ((0, 2),)


def test_validating_records_check_and_normalize():
    assert ProblemInstance(a=(15, 6, 6), b=(), mode="max-lcm").a == (6, 15)
    assert CirculantGraph(node_count=12, links=(4, 3, 4)).links == (3, 4)
    assert CoverInstance(3, [(2, 0, 2)]).masks == (0b101,)
    with pytest.raises(DomainError, match="mode"):
        ProblemInstance(a=(6,), b=(), mode="median")
    with pytest.raises(DomainError, match="empty"):
        ProblemInstance(a=(), b=(), mode="min-gcd")
    with pytest.raises(DomainError, match="node count"):
        CirculantGraph(node_count=True, links=(1,))
    with pytest.raises(DomainError, match="range"):
        CoverInstance(3, [(3,)])


def test_records_are_tuples():
    # deliberate: named tuples unpack, and compare equal to plain tuples
    a, b, mode = ProblemInstance(a=(6, 10), b=(4,), mode="min-gcd")
    assert (a, b, mode) == ((6, 10), (4,), "min-gcd")
    assert CoverSolution(chosen=(1,), is_optimal=True) == ((1,), True)
