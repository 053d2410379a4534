"""State-space enumeration and isomorphism-class catalogs.

Class counts, orbit sizes, and indecomposable counts below were produced
independently by tools/oracle_isoclasses.py (breadth-first closure over
explicit GL generators, idempotent search for indecomposability).
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import quiverfold as qf
from quiverfold import catalog as cat_mod
from quiverfold.catalog import (
    auto_period,
    clear_catalog_store,
    frobenius_period,
    isoclasses,
    plan_isoclasses,
    twist_annotations,
)
from quiverfold.errors import BudgetExceeded, SpaceMismatch


def test_a2_f2_small(a2, F2):
    cat = isoclasses(a2, (1, 1), F2)
    assert cat.n_classes == 2
    assert sorted(cat.sizes.tolist()) == [1, 1]
    assert int(cat.indec_flags.sum()) == 1


def test_a2_f2_2x2(a2, F2):
    cat = isoclasses(a2, (2, 2), F2)
    assert cat.n_classes == 3
    assert sorted(cat.sizes.tolist()) == [1, 6, 9]
    assert int(cat.sizes.sum()) == 16
    assert int(cat.indec_flags.sum()) == 0


def test_a2_f3_2x2(a2, F3):
    cat = isoclasses(a2, (2, 2), F3)
    assert cat.n_classes == 3
    assert sorted(cat.sizes.tolist()) == [1, 32, 48]
    assert int(cat.indec_flags.sum()) == 0


def test_a3_f2(a3, F2):
    cat = isoclasses(a3, (1, 1, 1), F2)
    assert cat.n_classes == 4
    assert int(cat.indec_flags.sum()) == 1
    cat2 = isoclasses(a3, (1, 2, 1), F2)
    assert cat2.n_classes == 5
    assert sorted(cat2.sizes.tolist()) == [1, 3, 3, 3, 6]
    assert int(cat2.indec_flags.sum()) == 0


def test_star_delta_f2(dtilde4, F2):
    cat = isoclasses(dtilde4[0], (1, 1, 1, 1, 2), F2)
    assert cat.n_classes == 51
    assert int(cat.indec_flags.sum()) == 6


def test_star_delta_f3(dtilde4, F3):
    cat = isoclasses(dtilde4[0], (1, 1, 1, 1, 2), F3)
    assert cat.n_classes == 52
    assert int(cat.indec_flags.sum()) == 7


def test_counterexample_f5(counterexample, F5):
    q, rot = counterexample
    cat = isoclasses(q, (1, 1, 1, 1, 1), F5)
    assert cat.n_classes == 106
    assert int(cat.indec_flags.sum()) == 52
    fixed = [
        ci
        for ci in cat.indec_class_ids()
        if cat.class_of(qf.twist_auto(rot, cat.representative(ci))) == ci
    ]
    assert len(fixed) == 1


def test_representatives_are_canonical(a2, F2):
    cat = isoclasses(a2, (2, 2), F2)
    # class ids are ordered by least member state; representatives decode back
    assert list(cat.class_reps) == sorted(cat.class_reps)
    for ci in range(cat.n_classes):
        rep = cat.representative(ci)
        assert cat.class_of(rep) == ci
    # every state's label is consistent with its decoded representative
    for state in range(cat.space.size):
        ci = cat.class_of_state(state)
        assert 0 <= ci < cat.n_classes


def test_indecomposable_classes_entry_point(a3, F2):
    indecs = qf.indecomposable_classes(a3, (1, 1, 1), F2)
    assert len(indecs) == 1
    assert indecs[0].dims == (1, 1, 1)
    assert qf.is_indecomposable(indecs[0])


def test_budget_exceeded(a2, F2):
    with pytest.raises(BudgetExceeded) as ei:
        isoclasses(a2, (4, 4), F2, state_cap=100)
    assert ei.value.predicted == 2**16


def test_refusal_names_vector_and_field(dtilde4, F3):
    star = dtilde4[0]
    with pytest.raises(BudgetExceeded) as ei:
        isoclasses(star, (1, 1, 1, 1, 3), F3, state_cap=3**8)
    message = (
        "state space at dims (1, 1, 1, 1, 3) over GF(3) holds 3^12 = 531441 "
        "representations, cap is 6561"
    )
    assert str(ei.value) == message
    with pytest.raises(BudgetExceeded) as ei:
        plan_isoclasses(star, [(1, 1, 1, 1, 1), (1, 1, 1, 1, 3)], F3, state_cap=3**8)
    assert str(ei.value) == message + "; refused while planning, before any catalog was built"
    assert ei.value.predicted == 3**12


def test_plan_passes_stored_catalogs(a2, F2):
    # a stored catalog is served whatever the cap, so the plan lets it pass
    clear_catalog_store()
    isoclasses(a2, (2, 2), F2)
    plan_isoclasses(a2, [(2, 2)], F2, state_cap=1)
    with pytest.raises(BudgetExceeded) as ei:
        plan_isoclasses(a2, [(2, 2), (1, 2), (2, 1)], F2, state_cap=1)
    assert ei.value.predicted == 2**2
    assert "dims (1, 2)" in str(ei.value)


def test_store_memoizes(a2, F2):
    clear_catalog_store()
    c1 = isoclasses(a2, (1, 1), F2)
    c2 = isoclasses(a2, (1, 1), F2)
    assert c1 is c2
    clear_catalog_store()
    assert isoclasses(a2, (1, 1), F2) is not c1


def _load_oracle():
    path = Path(__file__).resolve().parent.parent / "tools" / "oracle_isoclasses.py"
    spec = importlib.util.spec_from_file_location("oracle_isoclasses", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "name, dims, p",
    [("a3", (2, 2, 2), 3), ("star", (1, 1, 1, 1, 2), 2), ("star", (1, 1, 1, 1, 2), 3)],
    ids=["a3-222-gf3", "star-delta-gf2", "star-delta-gf3"],
)
def test_partition_matches_oracle(name, dims, p, a3, dtilde4):
    """The whole partition agrees with the oracle's breadth-first closure
    over explicit GL generators, which shares no code with the package."""
    oracle = _load_oracle()
    quiver = {"a3": a3, "star": dtilde4[0]}[name]
    fld = qf.make_field(p)
    cat = isoclasses(quiver, dims, fld)
    vertices = list(quiver.vertices)
    arrows = [(arr.id, arr.source, arr.target) for arr in quiver.arrows]
    dim_of = dict(zip(vertices, dims))
    rep_of, classes = oracle.orbit_partition(p, vertices, arrows, dim_of)

    def code(state):
        s = 0
        for x in (x for mat in state for row in mat for x in row):
            s = s * p + x
        return s

    assert cat.class_reps.tolist() == [code(rep) for rep, _ in classes]
    assert cat.sizes.tolist() == [members for _, members in classes]
    rep_state = cat.class_reps[cat.labels]
    assert len(rep_of) == cat.space.size
    for state, rep in rep_of.items():
        assert rep_state[code(state)] == code(rep)


@pytest.mark.parametrize(
    "arrows, dims, q",
    [
        ([("a", "1", "2"), ("b", "3", "2")], (2, 1, 2), (2, 2)),
        ([("a", "1", "2"), ("b", "2", "3")], (1, 2, 2), (2, 2)),
        ([("a", "1", "2"), ("b", "2", "3")], (1, 2, 1), (3, 2)),
        ([("a", "1", "2"), ("b", "3", "2")], (1, 2, 1), (3, 2)),
    ],
    ids=["a3-212-gf4", "line-122-gf4", "line-121-gf9", "a3-121-gf9"],
)
def test_move_tables_match_decode_apply_encode(arrows, dims, q):
    """Each move's table-built permutation equals the reference route
    decode -> _Move.apply -> encode, and is a bijection of the states."""
    quiver = qf.validate_quiver(["1", "2", "3"], arrows)
    space = cat_mod.StateSpace(quiver, qf.make_field(*q), dims)
    states = np.arange(space.size, dtype=np.int64)
    moves = space.moves()
    assert {mv.kind for mv in moves} == {"scale", "transvect", "cycle"}
    for mv in moves:
        perm = space.move_permutation(mv)
        ref = space.encode_batch(mv.apply(space.decode_batch(states)))
        assert np.array_equal(perm, ref), mv.kind
        assert np.array_equal(np.sort(perm), states), mv.kind


def test_labels_narrowest_dtype(F2, F3, F5, counterexample):
    cat = isoclasses(counterexample[0], (1, 1, 1, 1, 1), F5)
    assert cat.n_classes == 106 and cat.labels.dtype == np.uint8
    # nine parallel arrows at dims (1, 1) over GF(2): no move acts, so every
    # one of the 512 states is its own class
    many = qf.validate_quiver(["u", "v"], [(f"a{k}", "u", "v") for k in range(9)])
    cat = isoclasses(many, (1, 1), F2)
    assert cat.n_classes == 512 and cat.labels.dtype == np.uint16
    assert cat.class_reps.tolist() == list(range(512))
    assert cat.sizes.tolist() == [1] * 512
    # six parallel arrows at dims (1, 1) over GF(3): the scalings pair each
    # nonzero state with its negative, so the sweep outgrows uint8 labels
    six = qf.validate_quiver(["u", "v"], [(f"a{k}", "u", "v") for k in range(6)])
    cat = isoclasses(six, (1, 1), F3)
    assert cat.n_classes == 1 + (3**6 - 1) // 2 and cat.labels.dtype == np.uint16
    assert cat.sizes.tolist() == [1] + [2] * (cat.n_classes - 1)
    assert cat.class_reps.tolist() == sorted(cat.class_reps.tolist())
    assert np.array_equal(cat.labels[cat.class_reps], np.arange(cat.n_classes))


def test_class_of_foreign_representation(a3, F2, F3):
    cat = isoclasses(a3, (1, 1, 1), F2)
    with pytest.raises(SpaceMismatch):
        cat.class_of(qf.make_representation(a3, F2, (1, 2, 1)))
    with pytest.raises(SpaceMismatch):
        cat.class_of(qf.make_representation(a3, F3, (1, 1, 1)))
    other = qf.validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    with pytest.raises(SpaceMismatch):
        cat.class_of(qf.make_representation(other, F2, (1, 1, 1)))


def test_frobenius_period_rank_invariant(a2, F4):
    # a single arrow is classified by rank, which frobenius preserves
    cat = isoclasses(a2, (2, 2), F4)
    assert {frobenius_period(cat, ci) for ci in range(cat.n_classes)} == {1}


def test_frobenius_period_two_arrows(F4):
    # two parallel arrows at dims (1, 1): classes are 0, (1:0), (0:1) and
    # the three slope classes; frobenius squares the slope, swapping the
    # two classes over the proper subfield generators
    kron = qf.validate_quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v")])
    cat = isoclasses(kron, (1, 1), F4)
    assert cat.n_classes == 6
    periods = sorted(frobenius_period(cat, ci) for ci in range(cat.n_classes))
    assert periods == [1, 1, 1, 1, 2, 2]
    ann = twist_annotations(cat)
    assert len(ann) == cat.n_classes
    assert all(a["auto_period"] is None for a in ann)


def test_auto_period(a3_flip, F2):
    q, flip = a3_flip
    cat = isoclasses(q, (1, 1, 1), F2)
    ann = twist_annotations(cat, flip)
    assert {a["auto_period"] for a in ann} <= {1, 2}
    # the full (1,1,1) indecomposable is flip-stable
    for ci in cat.indec_class_ids():
        assert auto_period(cat, flip, ci) == 1


def test_auto_period_wanders_through_dims(a3_flip, F2):
    q, flip = a3_flip
    cat = isoclasses(q, (1, 0, 0), F2)
    # S_1 twists to S_3, so the period is the full automorphism order
    for ci in cat.indec_class_ids():
        assert auto_period(cat, flip, ci) == 2
