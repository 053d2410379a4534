"""Representation algebra: Hom/End/Ext, decomposition, functors, twists."""

import random

import pytest

import quiverfold as qf
from quiverfold.errors import (
    BadParameter,
    BudgetExceeded,
    EndRingTooLarge,
    FieldMismatch,
    HomSpaceTooLarge,
    LatticeMismatch,
    NotSink,
    NotSource,
    TwistPeriodBroken,
    UnknownVertex,
)
from quiverfold.reps import _intertwiner_system, mat_mul, rank


def P(a2, F2):
    return qf.make_representation(a2, F2, (1, 1), {"r": [[1]]})


def test_make_representation_validation(a2, F2, F3):
    with pytest.raises(qf.QuiverFoldError):
        qf.make_representation(a2, F2, (1,))
    with pytest.raises(qf.QuiverFoldError):
        qf.make_representation(a2, F2, (1, 1), {"r": [[1, 0]]})
    x = qf.make_representation(a2, F2, (1, 1), {"r": [[1]]})
    y = qf.make_representation(a2, F3, (1, 1), {"r": [[1]]})
    with pytest.raises(FieldMismatch):
        qf.hom_space(x, y)


@pytest.mark.parametrize(
    "matrices, message",
    [
        ([], "0 matrices for the 2 arrows"),
        ([[[1]], [[1]], [[1]]], "3 matrices for the 2 arrows"),
        ({"a": [[1]], "c": [[1]]}, "matrix for arrow 'c', which the quiver does not have"),
    ],
    ids=["short-list", "long-list", "unknown-arrow"],
)
def test_make_representation_refuses_unplaced_matrices(a3, F2, matrices, message):
    # a matrix that no arrow takes is refused, not dropped; an arrow left
    # out of a mapping still gets the zero map
    with pytest.raises(LatticeMismatch, match=f"^{message}$"):
        qf.make_representation(a3, F2, (1, 1, 1), matrices)
    assert qf.make_representation(a3, F2, (1, 1, 1), {"a": [[1]]}).matrices == (((1,),), ((0,),))


def test_hom_space_pinned_values(a2, F2):
    p = P(a2, F2)
    su = qf.simple_representation(a2, F2, "u")
    sv = qf.simple_representation(a2, F2, "v")
    assert qf.hom_space(p, su).dim == 1
    assert qf.hom_space(p, sv).dim == 0
    assert qf.hom_space(su, sv).dim == 0
    assert qf.hom_space(p, p).dim == 1
    # basis elements really intertwine
    hb = qf.hom_space(p, su)
    (phi,) = hb.basis
    assert phi  # a non-zero block family
    assert phi == (((1,),), ())  # the identity at u, the empty 0 x 1 block at v


def _sparse_rep(quiver, fld, dims, rnd):
    """A representation at dims whose entries are zero half the time, so
    that random pairs often have maps between them."""
    idx = quiver.vertex_index
    mats = {
        arr.id: [
            [rnd.choice([0, rnd.randrange(fld.q)]) for _ in range(dims[idx[arr.source]])]
            for _ in range(dims[idx[arr.target]])
        ]
        for arr in quiver.arrows
    }
    return qf.make_representation(quiver, fld, dims, mats)


@pytest.mark.parametrize(
    "name, spec, dx, dy",
    [
        ("a3", "2", (1, 2, 1), (2, 1, 2)),
        ("a3", "3", (1, 2, 1), (2, 1, 2)),
        ("star", "2^2", (1, 1, 1, 1, 2), (1, 1, 1, 1, 2)),
        ("star", "2^2", (1, 2, 1, 1, 2), (2, 1, 1, 2, 1)),
    ],
)
def test_hom_basis_intertwines(a3, dtilde4, name, spec, dx, dy):
    """Every basis element phi of Hom(X, Y) has phi_t X_a = Y_a phi_s at
    every arrow a: s -> t, on pairs with rectangular blocks, and the basis
    has as many elements as the intertwiner system's nullity.  Every block
    here is non-empty: ``mat_mul`` cannot tell a product's column count
    when its inner dimension is 0."""
    quiver = a3 if name == "a3" else dtilde4[0]
    fld = qf.field_from_spec(spec)
    rnd = random.Random(f"{name} {spec} {dx} {dy}")
    idx = quiver.vertex_index
    maps = 0
    for _ in range(20):
        x, y = _sparse_rep(quiver, fld, dx, rnd), _sparse_rep(quiver, fld, dy, rnd)
        hb = qf.hom_space(x, y)
        rows, total, _ = _intertwiner_system(x, y)
        assert hb.dim == len(hb.basis) == total - rank(fld, rows)
        for phi in hb.basis:
            for arr, xm, ym in zip(quiver.arrows, x.matrices, y.matrices):
                s, t = idx[arr.source], idx[arr.target]
                assert mat_mul(fld, phi[t], xm) == mat_mul(fld, ym, phi[s])
        maps += hb.dim
    assert maps  # the check is not vacuous


def test_ext_dim_and_euler(a2, F2):
    su = qf.simple_representation(a2, F2, "u")
    sv = qf.simple_representation(a2, F2, "v")
    assert qf.ext_dim(su, sv) == 1
    assert qf.ext_dim(sv, su) == 0
    p = P(a2, F2)
    assert qf.ext_dim(p, p) == 0
    # hom - ext matches the Euler form on these pairs
    for x in (p, su, sv):
        for y in (p, su, sv):
            lhs = qf.hom_space(x, y).dim - qf.ext_dim(x, y)
            assert lhs == qf.euler_form(a2, x.dims, y.dims)


def test_end_ring_and_indec(a2, F2):
    p = P(a2, F2)
    assert qf.end_ring(p).dim == 1
    assert qf.is_indecomposable(p)
    two = qf.direct_sum(p, p)
    assert qf.end_ring(two).dim == 4
    assert not qf.is_indecomposable(two)
    zero = qf.zero_representation(a2, F2)
    assert not qf.is_indecomposable(zero)
    assert qf.decompose(zero) == ()


def test_end_ring_cap_is_a_budget(a2, F2):
    two = qf.direct_sum(P(a2, F2), P(a2, F2))
    with pytest.raises(BudgetExceeded) as ei:
        qf.is_indecomposable(two, end_cap=1)
    assert isinstance(ei.value, EndRingTooLarge)
    assert ei.value.predicted == 2**4
    assert str(ei.value) == "endomorphism ring has 2^4 elements, cap is 1"


def test_hom_space_cap_is_a_budget(a2, F2):
    # End(P^5) has 2^25 elements, past the 2^20 the isomorphism search allows
    five = qf.direct_sum_list([P(a2, F2)] * 5, a2, F2)
    with pytest.raises(HomSpaceTooLarge) as ei:
        qf.is_isomorphic(five, five)
    assert ei.value.predicted == 2**25
    assert str(ei.value) == "hom space has 2^25 elements, cap is 1048576"


def test_direct_sum_and_decompose(a2, F2):
    p = P(a2, F2)
    su = qf.simple_representation(a2, F2, "u")
    sv = qf.simple_representation(a2, F2, "v")
    tot = qf.direct_sum_list([p, su, sv], a2, F2)
    assert tot.dims == (2, 2)
    parts = qf.decompose(tot)
    assert sorted(z.dims for z in parts) == [(0, 1), (1, 0), (1, 1)]
    rebuilt = qf.direct_sum_list(list(parts), a2, F2)
    assert qf.is_isomorphic(tot, rebuilt)


def test_is_isomorphic(a2, F2):
    p = P(a2, F2)
    q = qf.make_representation(a2, F2, (1, 1), {"r": [[1]]})
    assert qf.is_isomorphic(p, q)
    s2 = qf.make_representation(a2, F2, (1, 1))
    assert not qf.is_isomorphic(p, s2)
    assert not qf.is_isomorphic(p, qf.simple_representation(a2, F2, "u"))


def test_reflection_functor(a2, F2):
    p = P(a2, F2)
    sv = qf.simple_representation(a2, F2, "v")
    su = qf.simple_representation(a2, F2, "u")
    plus = qf.reflection_functor(p, "v", "+")
    assert plus.dims == (1, 0)
    # the simple at the sink dies
    assert qf.reflection_functor(sv, "v", "+").is_zero()
    minus = qf.reflection_functor(su, "u", "-")
    assert minus.is_zero()
    with pytest.raises(UnknownVertex):
        qf.reflection_functor(p, "w", "+")
    with pytest.raises(NotSink):
        qf.reflection_functor(p, "u", "+")
    with pytest.raises(NotSource):
        qf.reflection_functor(p, "v", "-")
    with pytest.raises(ValueError, match="direction must be"):
        qf.reflection_functor(p, "v", "*")
    with pytest.raises(BadParameter, match="direction must be"):
        qf.reflection_functor(p, "u", "-+")


def test_reflection_dimension_identity(a3, F2):
    # for indecomposables not equal to the sink simple:
    # dims(R+ X) = reflection of dims(X) at the sink
    lat = qf.quiver_lattice(a3)
    reps = [
        qf.make_representation(a3, F2, (1, 1, 0), {"a": [[1]]}),
        qf.make_representation(a3, F2, (1, 1, 1), {"a": [[1]], "b": [[1]]}),
        qf.make_representation(a3, F2, (0, 1, 1), {"b": [[1]]}),
    ]
    for x in reps:
        rx = qf.reflection_functor(x, "2", "+")
        assert rx.dims == qf.reflect(lat, "2", x.dims)


def test_s_fold_functor(a3_flip, F2):
    q, flip = a3_flip
    mid = qf.make_representation(q, F2, (0, 1, 0))
    out = qf.s_fold_functor(flip, 0, "-", mid)
    assert out.dims == (1, 1, 1)
    # dimension identity: dims transform by the composite reflection
    assert out.dims == qf.s_fold(flip, 0, mid.dims)
    for bad in (5, -1):
        with pytest.raises(UnknownVertex, match=f"^automorphism has no vertex orbit {bad}$"):
            qf.s_fold_functor(flip, bad, "-", mid)


def test_twists(a3_flip, F2, F4):
    q, flip = a3_flip
    su = qf.simple_representation(q, F2, "1")
    tw = qf.twist_auto(flip, su)
    assert tw.dims == (0, 0, 1)
    assert qf.twist_auto(flip, tw).dims == su.dims
    # frobenius squares entries; over GF(4) the non-trivial pair swaps
    x = qf.make_representation(q, F4, (1, 1, 1), {"a": [[2]], "b": [[1]]})
    fx = qf.twist_frobenius(x)
    assert fx.matrix_of["a"] == ((3,),)
    assert qf.twist_frobenius(fx).matrix_of["a"] == ((2,),)


def test_ii_orbit_sum(a3_flip, F2, monkeypatch):
    q, flip = a3_flip
    s1 = qf.simple_representation(q, F2, "1")
    y, r = qf.ii_orbit_sum(flip, s1)
    assert r == 2 and y.dims == (1, 0, 1)
    assert qf.is_isomorphic(qf.twist_auto(flip, y), y)
    mid = qf.simple_representation(q, F2, "2")
    y2, r2 = qf.ii_orbit_sum(flip, mid)
    assert r2 == 1 and y2.dims == (0, 1, 0)
    # an orbit that never closes raises a named error
    monkeypatch.setattr("quiverfold.reps.is_isomorphic", lambda *args, **kw: False)
    with pytest.raises(TwistPeriodBroken):
        qf.ii_orbit_sum(flip, mid)


def test_matrix_helpers(F5):
    from quiverfold.reps import is_invertible, mat_add, mat_mul, nullspace, rank, rref

    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(F5, a, b) == ((2, 1), (4, 3))
    with pytest.raises(LatticeMismatch):
        mat_mul(F5, a, ((1,),))
    with pytest.raises(LatticeMismatch):
        mat_mul(F5, ((1,),), ())
    assert mat_add(F5, a, a) == ((2, 4), (1, 3))
    assert rank(F5, a) == 2
    assert is_invertible(F5, a)
    assert not is_invertible(F5, ((1, 2), (2, 4)))
    rr, piv = rref(F5, [[1, 2], [2, 4]])
    assert piv == [0]
    ns = nullspace(F5, [[1, 2]], 2)
    assert len(ns) == 1 and (ns[0][0] + 2 * ns[0][1]) % 5 == 0
