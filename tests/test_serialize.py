"""JSON document round trips and byte-level determinism."""

import json

import pytest

import quiverfold as qf
from quiverfold.errors import Incompatible, UnknownVertex
from quiverfold.serialize import is_valued_document


def test_quiver_round_trip(a3_flip):
    q, flip = a3_flip
    doc = qf.quiver_to_dict(q, flip)
    q2, a2_ = qf.quiver_from_dict(doc)
    assert q2 == q
    assert a2_ is not None
    assert a2_.vertex_map == flip.vertex_map
    assert a2_.arrow_map == flip.arrow_map


def test_quiver_document_omits_fixed_points(a3_flip):
    q, flip = a3_flip
    doc = qf.quiver_to_dict(q, flip)
    assert doc["automorphism"]["vertices"] == {"1": "3", "3": "1"}
    assert "2" not in doc["automorphism"]["vertices"]


def test_quiver_without_automorphism(a2):
    doc = qf.quiver_to_dict(a2)
    assert "automorphism" not in doc
    q2, auto = qf.quiver_from_dict(doc)
    assert q2 == a2
    assert auto is None
    with pytest.raises(Incompatible):
        qf.quiver_from_dict({"vertices": ["u"]})


def test_valued_round_trip():
    vq = qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 2)])
    doc = qf.valued_to_dict(vq)
    assert is_valued_document(doc)
    assert not is_valued_document(qf.quiver_to_dict(qf.validate_quiver(["u"], [])))
    vq2 = qf.valued_from_dict(doc)
    assert vq2 == vq
    # list-form weights are accepted too
    doc["d"] = [2, 1]
    assert qf.valued_from_dict(doc) == vq
    with pytest.raises(Incompatible):
        qf.valued_from_dict({"vertices": ["u"], "d": {"u": 1}})


def test_fold_document_shape(a3_flip):
    q, flip = a3_flip
    doc = qf.fold_to_dict(qf.fold(flip))
    assert doc["orbits"] == {"1": ["1", "3"], "2": ["2"]}
    assert doc["d"] == [2, 1]
    assert doc["b_matrix"] == [[4, -2], [-2, 2]]
    assert doc["c_matrix"] == [[2, -1], [-2, 2]]
    assert doc["edge_pairs"] == [[2, 1]]
    assert qf.valued_from_dict(doc["valued"]).d == (2, 1)


def test_skew_document_shape(a3_flip):
    q, flip = a3_flip
    doc = qf.skew_to_dict(qf.skew(flip))
    q2, auto = qf.quiver_from_dict(doc)
    assert set(q2.vertices) == {"1:0", "2:0", "2:1"}
    assert all(set(o) == {"arrow_orbit", "residue"} for o in doc["origins"].values())


_FLIP_SKEW = (
    '{"arrows":[{"from":"1:0","id":"a:0:0","to":"2:0"},{"from":"1:0","id":"a:0:1","to":"2:1"}],'
    '"automorphism":{"arrows":{"a:0:0":"a:0:1","a:0:1":"a:0:0"},"vertices":{"2:0":"2:1","2:1":"2:0"}},'
    '"origins":{"a:0:0":{"arrow_orbit":"a","residue":0},"a:0:1":{"arrow_orbit":"a","residue":0}},'
    '"vertices":["1:0","2:0","2:1"]}'
)
_FOUR_CYCLE_SKEW = (
    '{"arrows":[{"from":"1:0","id":"r1:0:0","to":"5:0"},{"from":"1:0","id":"r1:0:1","to":"5:1"},'
    '{"from":"1:0","id":"r1:0:2","to":"5:2"},{"from":"1:0","id":"r1:0:3","to":"5:3"}],'
    '"automorphism":{"arrows":{"r1:0:0":"r1:0:1","r1:0:1":"r1:0:2","r1:0:2":"r1:0:3","r1:0:3":"r1:0:0"},'
    '"vertices":{"5:0":"5:1","5:1":"5:2","5:2":"5:3","5:3":"5:0"}},'
    '"origins":{"r1:0:0":{"arrow_orbit":"r1","residue":0},"r1:0:1":{"arrow_orbit":"r1","residue":0},'
    '"r1:0:2":{"arrow_orbit":"r1","residue":0},"r1:0:3":{"arrow_orbit":"r1","residue":0}},'
    '"vertices":["1:0","5:0","5:1","5:2","5:3"]}'
)


def test_skew_document_text(a3_flip, dtilde4):
    """The skew document is pinned as text: the arrow-orbit shifts the
    double skew check carries stay out of it."""
    for auto, text in [(a3_flip[1], _FLIP_SKEW), (dtilde4[1], _FOUR_CYCLE_SKEW)]:
        doc = qf.skew_to_dict(qf.skew(auto))
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == text


def test_rep_round_trip(a3, F4):
    rep = qf.make_representation(a3, F4, (1, 1, 1), {"a": ((2,),), "b": ((3,),)})
    doc = qf.rep_to_dict(rep)
    assert doc["field"] == "2^2"
    back = qf.rep_from_dict(doc, a3)
    assert back == rep
    # dict dims may omit zero entries; list dims work as well
    sparse = {"field": "2^2", "dims": {"1": 1}, "matrices": {}}
    srep = qf.rep_from_dict(sparse, a3)
    assert srep.dims == (1, 0, 0)
    doc["dims"] = [1, 1, 1]
    assert qf.rep_from_dict(doc, a3) == rep
    with pytest.raises(Incompatible):
        qf.rep_from_dict({"dims": {}}, a3)


def test_rep_dims_naming_no_vertex_refused(a3):
    doc = {"field": "2", "dims": {"1": 1, "9": 1}, "matrices": {}}
    with pytest.raises(UnknownVertex, match="^'dims' names vertex '9', which the quiver does not have$"):
        qf.rep_from_dict(doc, a3)


def test_catalog_document(a2, F2):
    cat = qf.isoclasses(a2, (1, 1), F2)
    doc = qf.catalog_to_dict(cat)
    assert doc["field"] == "2"
    assert doc["dims"] == {"u": 1, "v": 1}
    assert doc["state_count"] == 2
    assert len(doc["classes"]) == 2
    assert {c["indecomposable"] for c in doc["classes"]} == {True, False}
    assert all("auto_period" not in c for c in doc["classes"])


def test_catalog_document_with_automorphism(a3_flip, F2):
    q, flip = a3_flip
    cat = qf.isoclasses(q, (1, 1, 1), F2)
    doc = qf.catalog_to_dict(cat, flip)
    assert sorted(c["auto_period"] for c in doc["classes"]) == [1, 1, 2, 2]


def test_json_dumps_deterministic(a3_flip):
    q, flip = a3_flip
    one = qf.json_dumps(qf.quiver_to_dict(q, flip))
    two = qf.json_dumps(qf.quiver_to_dict(*qf.build_a3_flip()))
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one)["vertices"] == ["1", "2", "3"]
