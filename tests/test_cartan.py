"""Folding, the fixed-point transfer maps, and the bilinear forms.

The fold matrices for every bundled fixture are pinned exactly; the sigma
example and the transfer identities are checked against hand values.
"""

import pytest

import quiverfold as qf
from quiverfold.errors import (
    DanglingEndpoint,
    DuplicateId,
    LatticeMismatch,
    NotFixed,
    VertexLoop,
)


def test_fold_a3_flip(a3_flip):
    q, flip = a3_flip
    fd = qf.fold(flip)
    assert fd.orbit_names == ("1", "2")
    assert fd.d == (2, 1)
    assert fd.b_matrix == ((4, -2), (-2, 2))
    assert fd.c_matrix == ((2, -1), (-2, 2))
    assert fd.valued_quiver.normalized_pairs() == ((1, 2),)


def test_fold_dtilde4_four_cycle(dtilde4):
    q, four, _ = dtilde4
    fd = qf.fold(four)
    assert fd.orbit_names == ("1", "5")
    assert fd.d == (4, 1)
    assert fd.c_matrix == ((2, -1), (-4, 2))
    assert fd.valued_quiver.normalized_pairs() == ((1, 4),)


def test_fold_dtilde4_three_cycle(dtilde4):
    q, _, three = dtilde4
    fd = qf.fold(three)
    assert fd.orbit_names == ("1", "4", "5")
    assert fd.d == (3, 1, 1)
    assert fd.c_matrix == ((2, 0, -1), (0, 2, -1), (-3, -1, 2))
    assert fd.valued_quiver.normalized_pairs() == ((1, 1), (1, 3))


def test_fold_counterexample(counterexample):
    q, rot = counterexample
    fd = qf.fold(rot)
    assert fd.d == (3, 2)
    assert fd.b_matrix == ((6, -6), (-6, 4))
    assert fd.c_matrix == ((2, -2), (-3, 2))
    assert fd.valued_quiver.normalized_pairs() == ((2, 3),)


@pytest.mark.parametrize(
    "quiver",
    [
        qf.build_a3_flip()[0],
        qf.build_dtilde4()[0],
        qf.build_counterexample()[0],
        qf.validate_quiver(["u", "v"], [("r", "u", "v"), ("s", "u", "v")]),
    ],
    ids=["a3-flip", "dtilde4-star", "counterexample", "kronecker"],
)
def test_identity_fold_is_the_quiver_lattice(quiver):
    # at the identity every orbit is one vertex, so the folded form is the
    # quiver's own form; the CLI reads any plain document's automorphism,
    # the identity included, through fold (both D~4 fixtures share the star)
    assert qf.fold(qf.Automorphism.identity(quiver)).lattice == qf.quiver_lattice(quiver)


def test_symmetriser_relation(dtilde4):
    # B = D C for every fixture fold
    for a in (qf.build_a3_flip()[1], dtilde4[1], dtilde4[2]):
        fd = qf.fold(a)
        n = len(fd.d)
        for i in range(n):
            for j in range(n):
                assert fd.b_matrix[i][j] == fd.d[i] * fd.c_matrix[i][j]
        # symmetry of B and sign pattern of C
        for i in range(n):
            assert fd.c_matrix[i][i] == 2
            for j in range(n):
                assert fd.b_matrix[i][j] == fd.b_matrix[j][i]
                if i != j:
                    assert fd.c_matrix[i][j] <= 0


def test_f_map_and_inverse(a3_flip):
    q, flip = a3_flip
    assert qf.f_map(flip, (1, 2, 1)) == (1, 2)
    assert qf.f_inverse(flip, (1, 2)) == (1, 2, 1)
    with pytest.raises(NotFixed):
        qf.f_map(flip, (1, 2, 3))


def test_sigma_orbit_sum(a3_flip):
    q, flip = a3_flip
    assert qf.sigma(flip, (1, 1, 0)) == (1, 2, 1)
    # already fixed: minimal period 1, so sigma is the identity
    assert qf.sigma(flip, (1, 2, 1)) == (1, 2, 1)
    assert qf.sigma(flip, (0, 1, 0)) == (0, 1, 0)


def test_bilinear_forms_match_fold(a3_flip):
    q, flip = a3_flip
    fd = qf.fold(flip)
    # (x, y) on fixed vectors agrees with the folded form on images
    for x in [(1, 0, 1), (1, 2, 1), (0, 1, 0), (2, 1, 2)]:
        for y in [(1, 0, 1), (1, 1, 1), (0, 2, 0)]:
            assert qf.bilinear_q(q, x, y) == qf.bilinear_gamma(
                fd, qf.f_map(flip, x), qf.f_map(flip, y)
            )


def test_root_length(a3_flip):
    fd = qf.fold(qf.build_a3_flip()[1])
    assert qf.root_length(fd, (1, 0)) == 2
    assert qf.root_length(fd, (0, 1)) == 1
    assert qf.root_length(fd, (1, 1)) == 1
    assert qf.root_length(fd, (1, 2)) == 2


def test_euler_form(a2, F2):
    # <x, y> = sum x_i y_i - sum over arrows x_src y_tgt
    assert qf.euler_form(a2, (1, 0), (0, 1)) == -1
    assert qf.euler_form(a2, (0, 1), (1, 0)) == 0
    assert qf.euler_form(a2, (1, 1), (1, 1)) == 1


def test_make_valued_quiver_checks():
    vq = qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 2)])
    assert vq.normalized_pairs() == ((1, 2),)
    with pytest.raises(LatticeMismatch):
        # symmetry of B forces d_u | b and d_v | b
        qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 1)])
    refusals = [
        (DuplicateId, ["u", "u"], [1, 1], []),
        (LatticeMismatch, ["u", "v"], [1], []),
        (DanglingEndpoint, ["u", "v"], [1, 1], [("u", "w", 1)]),
        (VertexLoop, ["u", "v"], [1, 1], [("u", "u", 1)]),
        (DuplicateId, ["u", "v"], [1, 1], [("u", "v", 1), ("v", "u", 2)]),
        (LatticeMismatch, ["u", "v"], [1, 1], [("u", "v", 0)]),
    ]
    for error, vertices, d, edges in refusals:
        with pytest.raises(error):
            qf.make_valued_quiver(vertices, d, edges)


def test_valued_edge_pair_orientation():
    vq = qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 2)])
    e = vq.edges[0]
    # pair = (b/d_target, b/d_source)
    assert vq.edge_pair(e) == (2, 1)
