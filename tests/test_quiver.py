import pytest

import quiverfold as qf
from quiverfold.errors import (
    DanglingEndpoint,
    DuplicateId,
    NotAdmissible,
    NotPermutation,
    VertexLoop,
)


def test_quiver_basics(a3):
    assert a3.vertices == ("1", "2", "3")
    assert [r.id for r in a3.arrows] == ["a", "b"]
    assert a3.vertex_index == {"1": 0, "2": 1, "3": 2}
    assert [r.id for r in a3.arrows_into("2")] == ["a", "b"]
    assert [r.id for r in a3.arrows_out_of("1")] == ["a"]
    assert a3.is_sink("2") and a3.is_source("1")
    assert not a3.is_sink("1")


def test_quiver_validation_errors():
    with pytest.raises(DuplicateId):
        qf.validate_quiver(["x", "x"], [])
    with pytest.raises(DuplicateId):
        qf.validate_quiver(["x", "y"], [("r", "x", "y"), ("r", "y", "x")])
    with pytest.raises(DanglingEndpoint):
        qf.validate_quiver(["x"], [("r", "x", "zzz")])
    with pytest.raises(VertexLoop):
        qf.validate_quiver(["x"], [("r", "x", "x")])


def test_reversed_at(a3):
    rev = a3.reversed_at(["2"])
    # both arrows pointed into 2, so both flip direction
    assert [(r.id, r.source, r.target) for r in rev.arrows] == [
        ("a", "2", "1"),
        ("b", "2", "3"),
    ]
    assert rev.is_source("2")


def test_quiver_hash():
    arrows = [("a", "1", "2"), ("b", "3", "2")]
    one = qf.validate_quiver(["1", "2", "3"], arrows)
    other = qf.validate_quiver(["1", "2", "3"], arrows)
    assert one is not other and one == other and hash(one) == hash(other)
    rev = one.reversed_at(["2"])
    assert rev != one and hash(rev) != hash(one)
    assert hash(rev.reversed_at(["2"])) == hash(one)


def test_automorphism_roundtrip(a3_flip):
    q, flip = a3_flip
    assert flip.order == 2
    assert flip.apply_vertex("1") == "3"
    assert flip.apply_vertex("2") == "2"
    assert flip.apply_arrow("a") == "b"
    inv = flip.inverse()
    assert inv.apply_vertex("3") == "1"
    assert flip.power(2).is_identity
    assert qf.quiver.Automorphism.identity(q).is_identity


def test_automorphism_validation(a3):
    with pytest.raises(NotPermutation):
        qf.validate_automorphism(a3, {"1": "nope"})
    with pytest.raises(NotPermutation):
        qf.validate_automorphism(a3, {"1": "2", "2": "2", "3": "3"})
    # 1 -> 2 is an arrow, so merging 1 and 2 into one orbit is inadmissible
    with pytest.raises(NotAdmissible):
        qf.validate_automorphism(
            qf.validate_quiver(
                ["1", "2"], [("r", "1", "2"), ("s", "2", "1")]
            ),
            {"1": "2", "2": "1"},
        )


def test_arrow_map_inference(a3):
    # flip has a unique compatible arrow map; inference finds it
    flip = qf.validate_automorphism(a3, {"1": "3", "3": "1"})
    assert flip.apply_arrow("a") == "b"


def test_orbit_structure(dtilde4):
    q, four, three = dtilde4
    st = qf.orbit_structure(four)
    assert st.order == 4
    assert st.vertex_orbits == (("1", "2", "3", "4"), ("5",))
    assert st.orbit_names == ("1", "5")
    assert st.d == (4, 1)
    assert st.arrow_orbits == (("r1", "r2", "r3", "r4"),)

    st3 = qf.orbit_structure(three)
    assert st3.d == (3, 1, 1)
    assert st3.orbit_names == ("1", "4", "5")


def test_orbit_divisibility(counterexample):
    q, rot = counterexample
    st = qf.orbit_structure(rot)
    assert st.order == 6
    assert st.d == (3, 2)
    for d in st.d:
        assert st.order % d == 0


def test_act_on_dimension_vector(a3_flip):
    q, flip = a3_flip
    assert qf.act_on_dimension_vector(flip, (1, 2, 3)) == (3, 2, 1)
    assert qf.act_on_dimension_vector(flip, (1, 2, 1)) == (1, 2, 1)
