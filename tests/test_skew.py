"""Unfolding, skew quivers, the h transfer map, and double-skew recovery."""

import pytest

import quiverfold as qf
from quiverfold.errors import NotUnfoldable
from quiverfold.skew import double_skew_check, skew, unfold


def test_unfold_pair21():
    vq = qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 2)])
    a = unfold(vq)
    q = a.quiver
    assert q.vertices == ("u:0", "u:1", "v:0")
    assert len(q.arrows) == 2
    assert a.order == 2
    # folding back recovers the valued data
    fd = qf.fold(a)
    assert fd.d == (2, 1)
    assert fd.valued_quiver.normalized_pairs() == vq.normalized_pairs()


def test_unfold_fold_roundtrip_positional():
    cases = [
        (["u", "v"], [2, 1], [("u", "v", 2)]),
        (["u", "v"], [4, 1], [("u", "v", 4)]),
        (["a", "b", "c"], [3, 1, 1], [("a", "c", 3), ("b", "c", 1)]),
        (["x", "y"], [3, 2], [("x", "y", 6)]),
    ]
    for vertices, d, edges in cases:
        vq = qf.make_valued_quiver(vertices, d, edges)
        back = qf.fold(unfold(vq)).valued_quiver
        assert back.d == vq.d
        assert back.normalized_pairs() == vq.normalized_pairs()
        assert [(e.b,) for e in back.edges] == [(e.b,) for e in vq.edges]


def test_unfold_rejects_bad_weights():
    from quiverfold.cartan import ValuedEdge, ValuedQuiver
    from quiverfold.errors import LatticeMismatch

    with pytest.raises(LatticeMismatch):
        qf.make_valued_quiver(["u", "v"], [0, 1], [("u", "v", 1)])
    # hand-built documents can still carry junk; unfold guards its own input
    junk = ValuedQuiver(("u", "v"), (2, 1), (ValuedEdge("u", "v", -2),))
    with pytest.raises(NotUnfoldable):
        unfold(junk)
    # a zero weight is refused before any edge count is reduced modulo it
    zero = ValuedQuiver(("u", "v"), (0, 1), (ValuedEdge("u", "v", 2),))
    with pytest.raises(NotUnfoldable, match="^symmetriser entries must be positive$"):
        unfold(zero)


def test_skew_a3_flip(a3_flip):
    q, flip = a3_flip
    skq = skew(flip)
    # orbit of size 2 gets n/d = 1 copy; the fixed vertex gets 2 copies
    assert skq.orbit_names == ("1", "2")
    assert skq.mu_counts == (1, 2)
    assert skq.quiver.vertices == ("1:0", "2:0", "2:1")
    assert len(skq.quiver.arrows) == 2
    assert skq.auto.order == 2
    # shift is admissible and its fold matches the original fold's C matrix
    assert qf.fold(skq.auto).c_matrix is not None


def test_skew_dtilde4_four_cycle(dtilde4):
    _, four, _ = dtilde4
    skq = skew(four)
    assert skq.mu_counts == (1, 4)
    assert skq.quiver.vertices == ("1:0", "5:0", "5:1", "5:2", "5:3")
    # one corner source feeding four centre copies
    assert all(r.source == "1:0" for r in skq.quiver.arrows)
    assert skq.auto.order == 4


def test_h_map(dtilde4):
    _, four, _ = dtilde4
    skq = skew(four)
    assert qf.h_map(skq, (1, 0, 0, 0, 0)) == (1, 0)
    assert qf.h_map(skq, (0, 1, 1, 1, 1)) == (0, 4)
    assert qf.h_map(skq, (1, 1, 1, 1, 2)) == (1, 5)
    with pytest.raises(qf.QuiverFoldError):
        qf.h_map(skq, (1, 0, 0))


def test_h_map_reflection_identity(dtilde4):
    # h(composite reflection at all copies of an orbit) = folded reflection of h
    _, four, _ = dtilde4
    skq = skew(four)
    tilde = qf.quiver_lattice(skq.quiver)
    folded = qf.folded_lattice(qf.fold(four))
    groups = {}
    for pos, g in enumerate(skq.group_of_vertex):
        groups.setdefault(g, []).append(skq.quiver.vertices[pos])
    for beta in [(1, 0, 0, 0, 0), (1, 1, 0, 1, 0), (2, 1, 1, 1, 1), (1, 1, 1, 1, 2)]:
        for g, members in groups.items():
            lhs = qf.h_map(skq, qf.apply_reflections(tilde, members, beta))
            rhs = qf.reflect(folded, g, qf.h_map(skq, beta))
            assert lhs == rhs


def test_double_skew_small_fixtures(a3_flip, dtilde4):
    q, flip = a3_flip
    rep = double_skew_check(flip)
    assert rep.found
    assert rep.double_skew_order == flip.order
    _, four, _ = dtilde4
    rep4 = double_skew_check(four)
    assert rep4.found
    # the recovered map is an automorphism-intertwining bijection
    assert set(rep4.vertex_map) == set(four.quiver.vertices)


def test_double_skew_squared_rotation(dtilde4):
    """The squared rotation of the star has two corner orbits of size two
    and the fixed centre; the double skew recovers it at the canonical map,
    which sends each orbit to its own copies."""
    _, four, _ = dtilde4
    rep = double_skew_check(four.power(2))
    assert rep == qf.DoubleSkewReport(
        True,
        {"1": "1:0:0", "2": "2:0:0", "3": "1:0:1", "4": "2:0:1", "5": "5:0:0"},
        2,
        2,
    )


@pytest.mark.parametrize(
    "vertices, arrows, vertex_map",
    [
        # the Kronecker quiver
        (["0", "1"], [("p", "1", "0"), ("s", "1", "0")], {"0": "0:0:0", "1": "1:0:0"}),
        # the swapped pair among three other arrows
        (["0", "1", "2"], [("r", "0", "1"), ("p", "0", "2"), ("s", "0", "2"),
                           ("t", "1", "0"), ("u", "2", "1")],
         {"0": "0:0:0", "1": "1:0:0", "2": "2:0:0"}),
    ],
    ids=["kronecker", "three-vertices"],
)
def test_double_skew_recovers_an_arrow_swap(vertices, arrows, vertex_map):
    """An automorphism that fixes every vertex and swaps two parallel arrows
    has the identity shift as its double skew, of order 1.  The swap comes
    back in the shifts: a has the eigenvalues 1 and -1 on p and s, and the
    double skew's two arrows carry the shifts 0 and 1, which give the same
    eigenvalues."""
    q = qf.validate_quiver(vertices, arrows)
    a = qf.validate_automorphism(q, {}, {"p": "s", "s": "p"})
    assert double_skew_check(a) == qf.DoubleSkewReport(True, vertex_map, 2, 1)


def test_double_skew_taken_at_the_order_of_a():
    """The quiver 0->3, 1->2 with a = (0 1)(2 3) skews to one arrow whose
    shift is the identity, of order 1 where a has order 2.  Skewed again at
    a's order, with the arrow's shift, it gives back (Q, a) at the
    canonical map."""
    q = qf.validate_quiver(["0", "1", "2", "3"], [("x", "0", "3"), ("y", "1", "2")])
    a = qf.validate_automorphism(q, {"0": "1", "1": "0", "2": "3", "3": "2"})
    assert double_skew_check(a) == qf.DoubleSkewReport(
        True, {"0": "0:0:0", "1": "0:0:1", "2": "2:0:0", "3": "2:0:1"}, 1, 2
    )


def test_double_skew_recovers_a_four_cycle():
    """The 4-cycle 0->1->3->2->0 with a = (0 3)(1 2) skews to a 2-cycle with
    the identity shift.  Without the shifts the second skew is two disjoint
    2-cycles; with them it is the 4-cycle again."""
    q = qf.validate_quiver(
        ["0", "1", "2", "3"],
        [("x", "0", "1"), ("y", "1", "3"), ("z", "3", "2"), ("w", "2", "0")],
    )
    a = qf.validate_automorphism(q, {"0": "3", "3": "0", "1": "2", "2": "1"})
    assert double_skew_check(a) == qf.DoubleSkewReport(
        True, {"0": "0:0:0", "1": "1:0:0", "2": "1:0:1", "3": "0:0:1"}, 1, 2
    )


def test_double_skew_has_no_vertex_cap():
    # an eleven-vertex line, past the old search's cap of ten vertices
    names = [str(k) for k in range(11)]
    q = qf.validate_quiver(names, [(f"a{k}", names[k], names[k + 1]) for k in range(10)])
    rep = double_skew_check(qf.validate_automorphism(q, {}))
    assert rep == qf.DoubleSkewReport(True, {v: f"{v}:0:0" for v in names}, 1, 1)
