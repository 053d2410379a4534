"""Value records: the plain classes that ``quiver._record`` makes, with the
init, repr, equality, hashing and frozenness that callers rely on."""

import pytest

import quiverfold as qf
from quiverfold.quiver import Arrow, Quiver, _record
from quiverfold.skew import DoubleSkewReport
from quiverfold.theorems import DimensionRecord, IIClass, TheoremReport, _ReductionContext


def _ii_class(dims=(1, 1, 1)):
    q, flip = qf.build_a3_flip()
    context = _ReductionContext(q, dims, ())
    return IIClass((1, 1, 1), 1, ((1, 1, 1),), (1, 1, 1), 3, flip, qf.field_from_spec("2"), context)


def test_repr_text():
    q, _ = qf.build_a3_flip()
    assert repr(q.arrows[0]) == "Arrow(id='a', source='1', target='2')"
    assert repr(q) == (
        "Quiver(vertices=('1', '2', '3'), arrows=(Arrow(id='a', source='1', target='2'), "
        "Arrow(id='b', source='3', target='2')))"
    )
    assert repr(DimensionRecord((1, 2), "real", 1)) == (
        "DimensionRecord(vector=(1, 2), kind='real', count=1, periods=(), "
        "expected_length=None, crosscheck=None)"
    )
    # the automorphism, field and reduction context of an IIClass stay out of
    # its repr, and so does direct, which the context gives
    assert repr(_ii_class()) == (
        "IIClass(total_dims=(1, 1, 1), period=1, member_dims=((1, 1, 1),), "
        "base_dims=(1, 1, 1), base_class_id=3)"
    )
    assert _ii_class().direct
    assert repr(DoubleSkewReport(True, {"1": "1:0:0"}, 2, 2)) == (
        "DoubleSkewReport(found=True, vertex_map={'1': '1:0:0'}, skew_order=2, double_skew_order=2)"
    )
    rec = DimensionRecord((0, 1), "imaginary", 2, periods=(1, 2), expected_length=0, crosscheck=2)
    assert repr(TheoremReport("kac", "2", 3, (rec,), ("missing (1, 1)",))) == (
        "TheoremReport(title='kac', field_spec='2', height=3, records=(DimensionRecord("
        "vector=(0, 1), kind='imaginary', count=2, periods=(1, 2), expected_length=0, "
        "crosscheck=2),), witnesses=('missing (1, 1)',))"
    )


def test_equal_fields_equal_records():
    one, other = Arrow("a", "1", "2"), Arrow("a", "1", "2")
    assert one is not other and one == other and hash(one) == hash(other)
    assert one != Arrow("a", "1", "3") and one != ("a", "1", "2")
    rec = DimensionRecord((1,), "real", 1)
    same = DimensionRecord(vector=(1,), kind="real", count=1, periods=())
    assert rec == same and hash(rec) == hash(same)
    assert rec != DimensionRecord((1,), "real", 1, crosscheck=1)
    # the fields left out of the repr still count for equality
    assert _ii_class() == _ii_class() and _ii_class((1, 1, 0)) != _ii_class()
    assert hash(_ii_class()) == hash(_ii_class())
    # a record hashes its fields, so one that holds a dict is unhashable
    with pytest.raises(TypeError, match="unhashable"):
        hash(DoubleSkewReport(True, {"1": "1:0:0"}, 2, 2))

    @_record
    class Twin:
        id: str
        source: str
        target: str

    assert Twin("a", "1", "2") != one and one != Twin("a", "1", "2")
    # a Quiver hashes its fields like every other record
    q = Quiver(("1", "2"), (one,))
    assert hash(q) == hash((q.vertices, q.arrows))


def test_frozen_records_refuse_assignment_and_deletion():
    q, _ = qf.build_a3_flip()
    records = [
        (q.arrows[0], "id"),
        (q, "vertices"),
        (DimensionRecord((1,), "real", 1), "count"),
        (_ii_class(), "period"),
        (DoubleSkewReport(True, None, 2, 2), "vertex_map"),
    ]
    for rec, name in records:
        message = f"cannot assign to or delete field '{name}' of a frozen {type(rec).__name__}"
        with pytest.raises(AttributeError, match=message):
            setattr(rec, name, 5)
        with pytest.raises(AttributeError, match=message):
            delattr(rec, name)
    assert q.vertex_index == {"1": 0, "2": 1, "3": 2}  # a cached property still caches
    assert q.arrows[0].id == "a"


def test_init_by_keyword_and_default():
    rec = DimensionRecord(count=2, kind="real", vector=(1,))
    assert rec == DimensionRecord((1,), "real", 2, (), None, None)
    assert DimensionRecord((1,), "real", 2, crosscheck=3).crosscheck == 3
    for args, kwargs, message in [
        (("a", "1"), {}, "missing target"),
        ((), {"id": "a"}, "missing source, target"),
        (("a", "1", "2", "3"), {}, "takes the fields id, source, target"),
        (("a", "1", "2"), {"colour": "red"}, "takes the fields"),
        (("a", "1"), {"id": "b", "target": "2"}, "takes the fields"),
    ]:
        with pytest.raises(TypeError, match=f"^Arrow\\(\\) {message}"):
            Arrow(*args, **kwargs)
