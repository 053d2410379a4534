import re

import numpy as np
import pytest

import quiverfold as qf
from quiverfold import gf
from quiverfold.errors import (
    BadParameter,
    DanglingEndpoint,
    DuplicateId,
    Incompatible,
    LatticeMismatch,
    NotAdmissible,
    NotPermutation,
    TwistPeriodBroken,
    VertexLoop,
)
from quiverfold.quiver import Automorphism, _orbit


def test_quiver_basics(a3):
    assert a3.vertices == ("1", "2", "3")
    assert [r.id for r in a3.arrows] == ["a", "b"]
    assert a3.vertex_index == {"1": 0, "2": 1, "3": 2}
    assert [r.id for r in a3.arrows_into("2")] == ["a", "b"]
    assert a3.is_sink("2") and a3.is_source("1")
    assert not a3.is_sink("1")


def test_quiver_validation_errors():
    with pytest.raises(DuplicateId):
        qf.validate_quiver(["x", "x"], [])
    with pytest.raises(DuplicateId):
        qf.validate_quiver(["x", "y"], [("r", "x", "y"), ("r", "y", "x")])
    with pytest.raises(DanglingEndpoint):
        qf.validate_quiver(["x"], [("r", "x", "zzz")])
    with pytest.raises(DanglingEndpoint, match="^arrow 'r' starts at unknown vertex 'zzz'$"):
        qf.validate_quiver(["x"], [("r", "zzz", "x")])
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
    # the message names the first arrow in quiver order that breaks the rule
    tri = qf.validate_quiver(
        ["1", "2", "3", "z"],
        [("p", "z", "1"), ("q", "z", "2"), ("r", "z", "3"),
         ("b", "2", "3"), ("a", "1", "2"), ("c", "3", "1")],
    )
    with pytest.raises(
        NotAdmissible, match="^arrow 'b' joins vertices '2' and '3' of a single vertex orbit$"
    ):
        qf.validate_automorphism(tri, {"1": "2", "2": "3", "3": "1"})
    flip = {"1": "3", "3": "1"}
    with pytest.raises(NotPermutation, match="^vertex map mentions unknown vertex 'zz'$"):
        qf.validate_automorphism(a3, {"zz": "1"})
    with pytest.raises(NotPermutation, match="^arrow map mentions unknown arrow 'zz'$"):
        qf.validate_automorphism(a3, flip, {"zz": "a"})
    with pytest.raises(NotPermutation, match="^arrow map is not a bijection of the arrow set$"):
        qf.validate_automorphism(a3, flip, {"a": "b", "b": "b"})
    # a3's arrows a: 1 -> 2 and b: 3 -> 2 keep their endpoints only if swapped
    with pytest.raises(Incompatible, match="^arrow 'a' maps to 'a', whose endpoints"):
        qf.validate_automorphism(a3, flip, {})
    # inferring the arrow map: no arrow joins the images, or two parallel ones do
    line = qf.validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    with pytest.raises(Incompatible, match="^no compatible arrow map exists: arrow 'a' has no image"):
        qf.validate_automorphism(line, {"1": "3", "3": "1"})
    kronecker = qf.validate_quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v")])
    with pytest.raises(Incompatible, match="^arrow map is ambiguous at 'a' \\(parallel arrows\\)"):
        qf.validate_automorphism(kronecker, {})


def test_arrow_map_inference(a3):
    # flip has a unique compatible arrow map; inference finds it
    flip = qf.validate_automorphism(a3, {"1": "3", "3": "1"})
    assert flip.apply_arrow("a") == "b"


def test_orbit_structure(dtilde4):
    q, four, three = dtilde4
    assert four.order == 4
    assert four.vertex_orbits == (("1", "2", "3", "4"), ("5",))
    assert four.arrow_orbits == (("r1", "r2", "r3", "r4"),)
    fd = qf.fold(four)
    assert fd.orbit_names == ("1", "5")
    assert fd.d == (4, 1)

    fd3 = qf.fold(three)
    assert fd3.d == (3, 1, 1)
    assert fd3.orbit_names == ("1", "4", "5")


def test_orbit_divisibility(counterexample):
    q, rot = counterexample
    assert rot.order == 6
    d = qf.fold(rot).d
    assert d == (3, 2)
    for dv in d:
        assert rot.order % dv == 0


def test_fold_refuses_a_broken_divisibility_chain(a3_flip):
    # built without validate_automorphism: the arrows stay put while their
    # ends swap, so an arrow orbit of length 1 joins an orbit of size 2
    q, flip = a3_flip
    broken = Automorphism(q, flip.vertex_image, ("a", "b"))
    for build in (qf.fold, qf.skew):
        with pytest.raises(NotPermutation, match="^arrow orbit length violates the divisibility chain$"):
            build(broken)


def test_act_on_dimension_vector(a3_flip):
    q, flip = a3_flip
    assert qf.act_on_dimension_vector(flip, (1, 2, 3)) == (3, 2, 1)
    assert qf.act_on_dimension_vector(flip, (1, 2, 1)) == (1, 2, 1)


def test_orbit_walks_to_the_first_return():
    def step(x):
        return (x + 3) % 12

    assert _orbit(0, step) == (0, 3, 6, 9)
    assert _orbit(2, step, 4) == _orbit(2, step, 8) == (2, 5, 8, 11)
    assert _orbit("v", lambda x: x, 1) == ("v",)
    with pytest.raises(TwistPeriodBroken, match="^orbit did not close within its order 3$"):
        _orbit(0, step, 3)
    # a walk that never comes back is cut off at its order
    with pytest.raises(TwistPeriodBroken, match="^orbit did not close within its order 5$"):
        _orbit(0, lambda x: x + 1, 5)
    with pytest.raises(TwistPeriodBroken, match="^period 4 does not divide its order 6$"):
        _orbit(0, step, 6)


def _shared_ids():
    """Corners a, b, c into z, three-cycled; the arrow named after a vertex
    turns the other way round the cycle than that vertex does."""
    q = qf.validate_quiver(
        ["a", "b", "c", "z"], [("b", "a", "z"), ("a", "b", "z"), ("c", "c", "z")]
    )
    return qf.validate_automorphism(q, {"a": "b", "b": "c", "c": "a"})


def _automorphisms():
    _, flip = qf.build_a3_flip()
    star, four, three = qf.build_dtilde4()
    _, rot = qf.build_counterexample()
    pair41 = qf.make_valued_quiver(["u", "v"], [4, 1], [("u", "v", 4)])
    return {
        "flip": flip,
        "four": four,
        "three": three,
        "rot": rot,
        "identity": Automorphism.identity(star),
        "unfold-41": qf.unfold(pair41),
        "shared-ids": _shared_ids(),
    }


@pytest.mark.parametrize("name", list(_automorphisms()))
def test_cached_orbits_are_the_cycles(name):
    a = _automorphisms()[name]
    q = a.quiver
    for orbits, items, image in (
        (a.vertex_orbits, q.vertices, a.vertex_map),
        (a.arrow_orbits, [r.id for r in q.arrows], a.arrow_map),
    ):
        # each orbit walks the map from its earliest item, and the orbits
        # partition the items in the order of those earliest items
        assert sorted(x for orb in orbits for x in orb) == sorted(items)
        for orb in orbits:
            assert [image[x] for x in orb] == [*orb[1:], orb[0]]
            assert orb[0] == min(orb, key=items.index)
        assert [items.index(orb[0]) for orb in orbits] == sorted(
            items.index(orb[0]) for orb in orbits
        )
    # every arrow of an orbit joins the two vertex orbits its ends name
    orbit_of = {v: k for k, orb in enumerate(a.vertex_orbits) for v in orb}
    assert len(a.arrow_orbit_ends) == len(a.arrow_orbits)
    for ends, orb in zip(a.arrow_orbit_ends, a.arrow_orbits):
        for rid in orb:
            r = q.arrow_by_id[rid]
            assert ends == (orbit_of[r.source], orbit_of[r.target])


def test_shared_ids_orbits():
    a = _shared_ids()
    assert a.vertex_orbits == (("a", "b", "c"), ("z",))
    assert a.arrow_orbits == (("b", "a", "c"),)
    assert a.order == 3


@pytest.mark.parametrize("name", list(_automorphisms()))
def test_power_is_the_composition(name):
    a = _automorphisms()[name]
    q = a.quiver
    for k in range(-2 * a.order, 2 * a.order + 1):
        vmap = {v: v for v in q.vertices}
        amap = {r.id: r.id for r in q.arrows}
        if k >= 0:
            vstep, astep = a.vertex_map, a.arrow_map
        else:  # the inverse maps, built here as the reference for power(-1)
            vstep = {w: v for v, w in a.vertex_map.items()}
            astep = {s: r for r, s in a.arrow_map.items()}
        for _ in range(abs(k)):
            vmap = {v: vstep[w] for v, w in vmap.items()}
            amap = {r: astep[s] for r, s in amap.items()}
        p = a.power(k)
        assert p.vertex_image == tuple(vmap[v] for v in q.vertices), k
        assert p.arrow_image == tuple(amap[r.id] for r in q.arrows), k
        assert p.is_identity == (k % a.order == 0)


@pytest.mark.parametrize("name", list(_automorphisms()))
def test_is_identity_reads_the_images(name):
    """is_identity, read off the images before any cycle is walked, agrees
    with order == 1 on the automorphism and each of its powers."""
    a = _automorphisms()[name]
    for k in range(a.order + 1):
        p = a.power(k)
        identity = p.is_identity
        assert not {"vertex_orbits", "arrow_orbits", "order"} & p.__dict__.keys(), k
        assert identity == (p.order == 1), k


def test_identity_checks_walk_no_cycle(monkeypatch):
    """Classing the counterexample's representations at (1, 1, 1, 1, 1)
    over GF(5) under its rotation walks the cycles of one automorphism, the
    engine's twist, whose vertex orbits it reads, and the engine walks its
    own period once; the identity automorphisms that each twisted class and
    Frobenius period builds walk none.  A work count: it read 106
    automorphism walks while is_identity computed the order."""
    from quiverfold import quiver, theorems

    _, rot = qf.build_counterexample()
    real, calls = quiver._cycles, {"automorphism": 0, "engine": 0}

    def counted(key):
        def walk(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return walk

    monkeypatch.setattr(quiver, "_cycles", counted("automorphism"))
    monkeypatch.setattr(theorems, "_cycles", counted("engine"))
    qf.clear_catalog_store()
    assert len(theorems.ii_classes(rot, (1, 1, 1, 1, 1), qf.make_field(5))) == 1
    assert calls == {"automorphism": 1, "engine": 1}
    qf.clear_catalog_store()


_PAIR = {"vertices": ["u", "v"], "edges": [["u", "v", 2]]}


@pytest.mark.parametrize(
    "job, error, message",
    [
        (lambda q, f: qf.isoclasses(q, (1.5, 1, 1), f), LatticeMismatch, "vector entry is 1.5, "),
        (lambda q, f: qf.make_representation(q, f, (1, 1, 1), [((1.5,),), ((1,),)]),
         LatticeMismatch, "entry of arrow 'a' is 1.5, "),
        (lambda q, f: qf.valued_from_dict({**_PAIR, "d": {"u": 2.9, "v": 1}}),
         LatticeMismatch, "weight d of vertex 'u' is 2.9, "),
        (lambda q, f: qf.quiver_lattice(q).check_vector(("2", "1", "0")),
         LatticeMismatch, "vector entry is '2', "),
        (lambda q, f: qf.verify_kac(q, f, 2.5), LatticeMismatch, "height is 2.5, "),
        (lambda q, f: qf.verify_kac(q, f, -1), BadParameter, "height -1 is negative"),
        (lambda q, f: qf.make_field(2.5), LatticeMismatch, "characteristic is 2.5, "),
        (lambda q, f: qf.make_field(3, 1.0), LatticeMismatch, "extension degree is 1.0, "),
        (lambda q, f: gf.prime_power(4.5), LatticeMismatch, "field size is 4.5, "),
        (lambda q, f: qf.tube_rep(2.7, qf.make_field(2, 2)), LatticeMismatch, "parameter is 2.7, "),
        (lambda q, f: qf.rep_from_dict({"field": "2", "dims": 5}, q), LatticeMismatch, "vector is 5, "),
        (lambda q, f: qf.isoclasses(q, 5, f), LatticeMismatch, "vector is 5, "),
        (lambda q, f: (qf.isoclasses(q, (1, 1, 1), f), qf.isoclasses(q, (1.0, 1, 1), f)),
         LatticeMismatch, "vector entry is 1.0, "),
        (lambda q, f: qf.h_map(qf.skew(qf.build_a3_flip()[1]), (1.9, 1, 0)),
         LatticeMismatch, "vector entry is 1.9, "),
    ],
    ids=["isoclasses-dims", "matrix-entry", "valued-weight", "lattice-vector", "height", "negative-height",
         "characteristic", "degree", "prime-power", "tube-parameter", "document-dims", "isoclasses-int",
         "stored-dims", "h-map"],
)
def test_non_integers_refused_not_truncated(job, error, message):
    q, _ = qf.build_a3_flip()
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        job(q, qf.make_field(2))


def test_numpy_integers_pass(a3):
    vec = qf.quiver_lattice(a3).check_vector(np.array([2, 1, 0]))
    assert vec == (2, 1, 0) and all(type(x) is int for x in vec)
