"""The calibrated star examples: regular simples, twist orbits, tubes."""

import pytest

import quiverfold as qf
from quiverfold.errors import BadParameter, UnknownVertex


# every matrix of a regular simple is ((1,),), so its twist orbit and its
# complementary sum hold over every field; five fields stand for them
ORBIT_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]


def _twist_cycle(a, names):
    for p, m in ORBIT_FIELDS:
        fld = qf.make_field(p, m)
        for i, name in enumerate(names):
            twisted = qf.twist_auto(a, qf.regular_simple(name, fld))
            nxt = qf.regular_simple(names[(i + 1) % len(names)], fld)
            assert twisted.dims == nxt.dims
            assert qf.is_isomorphic(twisted, nxt)


def test_regular_simple_supports(F2):
    dims = {
        "E0": (1, 1, 0, 0, 1),
        "E0'": (0, 1, 1, 0, 1),
        "E0''": (1, 0, 1, 0, 1),
        "E1": (0, 0, 1, 1, 1),
        "E1'": (1, 0, 0, 1, 1),
        "E1''": (0, 1, 0, 1, 1),
    }
    for name, want in dims.items():
        assert qf.regular_simple(name, F2).dims == want


def test_regular_simple_accepts_unicode_names(F3):
    for fancy, plain in [("E₀", "E0"), ("E₀′", "E0'"), ("E₁″", "E1''")]:
        assert qf.regular_simple(fancy, F3).dims == qf.regular_simple(plain, F3).dims
    with pytest.raises(UnknownVertex):
        qf.regular_simple("E2", F3)


def test_complementary_pairs_sum_to_null_root():
    for p, m in ORBIT_FIELDS:
        fld = qf.make_field(p, m)
        for left, right in [("E0", "E1"), ("E0'", "E1'"), ("E0''", "E1''")]:
            a = qf.regular_simple(left, fld)
            b = qf.regular_simple(right, fld)
            total = tuple(x + y for x, y in zip(a.dims, b.dims))
            assert total == (1, 1, 1, 1, 2)


def test_four_cycle_orbits(dtilde4):
    q, four, three = dtilde4
    _twist_cycle(four, ["E0", "E0'", "E1", "E1'"])
    _twist_cycle(four, ["E0''", "E1''"])


def test_three_cycle_orbits(dtilde4):
    q, four, three = dtilde4
    _twist_cycle(three, ["E0", "E0'", "E0''"])
    _twist_cycle(three, ["E1", "E1'", "E1''"])


def test_tube_rep_shape(F5):
    rep = qf.tube_rep(2, F5)
    assert rep.dims == (1, 1, 1, 1, 2)
    assert rep.matrix_of["r1"] == ((1,), (1,))
    assert rep.matrix_of["r2"] == ((1,), (2,))
    assert rep.matrix_of["r3"] == ((0,), (1,))
    assert rep.matrix_of["r4"] == ((1,), (0,))
    assert qf.is_indecomposable(rep)


def test_tube_rep_rejects_fixed_columns(F5):
    for lam in (0, 1):
        with pytest.raises(BadParameter):
            qf.tube_rep(lam, F5)
    with pytest.raises(BadParameter):
        qf.tube_rep(5, F5)
    with pytest.raises(BadParameter):
        qf.tube_rep(-1, F5)


def test_tube_params_distinguish_classes(F5):
    reps = {lam: qf.tube_rep(lam, F5) for lam in (2, 3, 4)}
    for lam, rep in reps.items():
        for mu, other in reps.items():
            assert qf.is_isomorphic(rep, other) == (lam == mu)


def test_tube_action_four_cycle_f5(F5, dtilde4):
    q, four, three = dtilde4
    assert qf.tube_parameter_action(four, F5) == {2: 2, 3: 4, 4: 3}


def test_tube_action_three_cycle_f7(F7, dtilde4):
    q, four, three = dtilde4
    action = qf.tube_parameter_action(three, F7)
    assert action == {2: 6, 3: 3, 4: 2, 5: 5, 6: 4}
    assert action[3] == 3 and action[5] == 5
    # the moving parameters form the single cycle 2 -> 6 -> 4 -> 2
    assert (action[2], action[6], action[4]) == (6, 4, 2)


def test_tube_action_rejects_foreign_automorphism(F5, a3_flip):
    q, flip = a3_flip
    with pytest.raises(UnknownVertex):
        qf.tube_parameter_action(flip, F5)
