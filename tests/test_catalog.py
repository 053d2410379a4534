"""State-space enumeration and isomorphism-class catalogs.

Class counts, orbit sizes, and indecomposable counts below were produced
independently by tools/oracle_isoclasses.py (breadth-first closure over
explicit GL generators, idempotent search for indecomposability).
"""

import importlib.util
import sys
from collections import Counter
from math import prod
from pathlib import Path

import numpy as np
import pytest

import quiverfold as qf
from quiverfold import catalog as cat_mod
from quiverfold import labelling
from quiverfold import reps as reps_mod
from quiverfold.catalog import (
    IsoClassCatalog,
    auto_period,
    clear_catalog_store,
    frobenius_period,
    isoclasses,
    plan_isoclasses,
    twist_annotations,
    twisted_class,
)
from quiverfold.errors import (
    BudgetExceeded,
    LatticeMismatch,
    OrbitPartitionBroken,
    SpaceMismatch,
    TwistPeriodBroken,
)
from quiverfold.quiver import _box
from quiverfold.reps import direct_sum, identity, mat_mul, rank


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


_KRONECKER = qf.validate_quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v")])


def test_field_past_the_tables_is_refused_before_a_build(monkeypatch):
    # at (1,1) the Kronecker quiver holds 2048^2 states, under the cap, but
    # GF(2048) is past the dense tables, and no reflection lowers (1,1)
    f = qf.make_field(2, 11)
    spaces = []
    monkeypatch.setattr(cat_mod.StateSpace, "__init__", lambda self, *args: spaces.append(args))
    clear_catalog_store()
    message = (
        "state space at dims (1, 1) over GF(2048) holds 2048^2 = 4194304 "
        "representations, dense field tables are capped at q <= 1024"
    )
    planned = "; refused while planning, before any catalog was built"
    jobs = [
        (lambda: qf.verify_kac(_KRONECKER, f, 2),
         "; no sink or source orbit reflection reduces the height" + planned),
        (lambda: plan_isoclasses(_KRONECKER, [(1, 0), (1, 1)], f), planned),
        (lambda: isoclasses(_KRONECKER, (1, 1), f), ""),
    ]
    for job, stage in jobs:
        with pytest.raises(BudgetExceeded) as ei:
            job()
        assert str(ei.value) == message + stage
        assert ei.value.predicted == 2048**2
    assert cat_mod._STORE == {} and spaces == []


def test_zero_entry_vector_past_the_tables_builds():
    # a vector with no matrix entries needs no field table
    cat = isoclasses(_KRONECKER, (1, 0), qf.make_field(2, 11))
    assert cat.n_classes == 1 and cat.sizes.tolist() == [1]


@pytest.mark.parametrize(
    "entry",
    [
        lambda q, d, f: isoclasses(q, d, f),
        lambda q, d, f: plan_isoclasses(q, [d], f),
        lambda q, d, f: cat_mod.StateSpace(q, f, d),
        lambda q, d, f: qf.make_representation(q, f, d),
    ],
    ids=["isoclasses", "plan_isoclasses", "StateSpace", "make_representation"],
)
def test_negative_dims_refused(entry, dtilde4, F2):
    # the second vector has no matrix entry, so only the sign check refuses it
    for dims in [(1, 0, 0, 0, -1), (0, 0, 0, 0, -1)]:
        with pytest.raises(LatticeMismatch, match="^dimensions must be non-negative$"):
            entry(dtilde4[0], dims, F2)


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


def _quiver(name, a3, dtilde4):
    return {
        "a2": lambda: qf.validate_quiver(["u", "v"], [("r", "u", "v")]),
        "a3": lambda: a3,
        "line": lambda: qf.validate_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]),
        "kronecker": lambda: qf.validate_quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v")]),
        "star": lambda: dtilde4[0],
        "counterexample": lambda: qf.build_counterexample()[0],
        "triangle": lambda: qf.validate_quiver(
            ["1", "2", "3"], [("a", "2", "1"), ("b", "3", "1"), ("c", "2", "3")]
        ),
    }[name]()


@pytest.mark.parametrize(
    "name, dims, p",
    [
        ("a3", (2, 2, 2), 3),
        ("star", (1, 1, 1, 1, 2), 2),
        ("star", (1, 1, 1, 1, 2), 3),
        ("a2", (3, 2), 3),
        ("kronecker", (2, 2), 2),
        ("kronecker", (2, 3), 2),
        ("star", (0, 1, 1, 1, 2), 3),
        ("line", (1, 3, 1), 2),
        ("counterexample", (1, 1, 1, 1, 1), 5),
        ("triangle", (2, 3, 1), 2),
        ("triangle", (2, 2, 1), 3),
        ("star", (2, 1, 1, 1, 2), 2),
        ("star", (1, 1, 1, 2, 2), 2),
        ("counterexample", (2, 1, 1, 1, 1), 2),
    ],
    ids=[
        "a3-222-gf3",
        "star-delta-gf2",
        "star-delta-gf3",
        "a2-32-gf3",
        "kronecker-22-gf2",
        "kronecker-23-gf2",
        "star-cap-gf3",
        "line-131-gf2",
        "cx-11111-gf5",
        "triangle-231-gf2",
        "triangle-221-gf3",
        "star-21112-gf2",
        "star-11122-gf2",
        "cx-21111-gf2",
    ],
)
def test_partition_matches_oracle(name, dims, p, a3, dtilde4):
    """The whole partition agrees with the oracle's breadth-first closure
    over explicit GL generators, which shares no code with the package.

    The cases cover a rank-2 rectangular top block (a2), a second block
    between the top block's vertices (kronecker), the cap vector's shape
    (star at (0, 1, 1, 1, 2)), a vertex of dimension 3 with arrows in and
    out (line), and states whose first non-zero block is the third, of
    another shape than the top one (triangle: 2 x 3 or 2 x 2 blocks, then
    2 x 1, then 1 x 3 or 1 x 2)."""
    oracle = _load_oracle()
    quiver = _quiver(name, a3, dtilde4)
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
    assert len(rep_of) == cat.space.size
    rep_of_code = {code(state): code(rep) for state, rep in rep_of.items()}
    for state, rep in rep_of_code.items():
        assert cat.class_reps[cat.class_of_state(state)] == rep
    # each last-block level's labels, read directly and added to the class
    # id of the first class below its path, name the class of each state
    # they label
    for level, first, states in _leaf_states(cat):
        ids = level.labels.astype(np.int64) + first
        assert cat.class_reps[ids].tolist() == [rep_of_code[s] for s in states]


def _levels(cat):
    """Every level of the catalog's tree, depth first from its root."""
    out = []

    def walk(level):
        out.append(level)
        for child in level.below or ():
            walk(child)

    walk(cat.level)
    return out


def _leaf_states(cat):
    """Each last level, in the order of the paths that reach it, with the id
    of the first class it labels there, which is the sum of the offsets
    along the path, and the states it labels there: those that carry, at
    each block above it, the least value of the orbit that leads to it, and
    any values at the blocks it labels, which are the last block or, under a
    group that moves none of them, all the rest.  A shared level comes once
    per path."""
    values, out = cat.space.values, []

    def walk(level, first, prefix, depth):
        if level.below is None:
            n = prod(values[depth:])
            out.append((level, first, [prefix * n + x for x in range(n)]))
            return
        for o, (child, offset) in enumerate(zip(level.below, level.offsets)):
            least = int(np.flatnonzero(level.labels == o)[0])
            walk(child, first + offset, prefix * values[depth] + least, depth + 1)

    walk(cat.level, 0, 0, 0)
    return out


@pytest.mark.parametrize(
    "arrows, dims, q",
    [
        ([("a", "1", "2"), ("b", "3", "2")], (2, 1, 2), (2, 2)),
        ([("a", "1", "2"), ("b", "2", "3")], (1, 2, 2), (2, 2)),
        ([("a", "1", "2"), ("b", "2", "3")], (1, 2, 1), (3, 2)),
        ([("a", "1", "2"), ("b", "3", "2")], (1, 2, 1), (3, 2)),
        ([("a", "1", "2"), ("b", "2", "3")], (1, 3, 1), (3, 1)),
    ],
    ids=["a3-212-gf4", "line-122-gf4", "line-121-gf9", "a3-121-gf9", "line-131-gf3"],
)
def test_move_tables_match_decode_apply_encode(arrows, dims, q):
    """Each move's table-built permutation equals the reference route
    decode -> g_t M g_s^-1 by mat_mul -> encode_rep, and is a bijection of
    the states."""
    quiver = qf.validate_quiver(["1", "2", "3"], arrows)
    space = cat_mod.StateSpace(quiver, qf.make_field(*q), dims)
    states = np.arange(space.size, dtype=np.int64)
    f = space.field
    moves = space.moves()
    # G's generators at each vertex of dimension d: the scaling of row 0 by
    # the primitive element, the transvection adding row 1 to row 0, and the
    # cycle sending row i - 1 to row i, each stored with its inverse
    kinds = set()
    for mv in moves:
        [(v, (g, g_inv))] = mv.items()
        d = space.dims[v]
        eye = identity(d)
        assert mat_mul(f, g, g_inv) == eye
        kind = {
            _with(eye, {(0, 0): f.generator()}): "scale",
            _with(eye, {(0, 1): 1}): "transvect",
            _with(_zeros(d), {(i, (i - 1) % d): 1 for i in range(d)}): "cycle",
        }[g]
        kinds.add(kind)
        perm = space.move_permutation(mv)
        ref = [_moved_state(space, mv, x) for x in range(space.size)]
        assert np.array_equal(perm, ref), kind
        assert np.array_equal(np.sort(perm), states), kind
    assert kinds == {"scale", "transvect", "cycle"}


def _moved_state(space, move, state):
    """The state that the move sends ``state`` to, by matrix products on its
    representation, sharing no code with the table-built permutations:
    M_a -> g_t M_a g_s^-1 at every arrow a from s to t."""
    rep = space.decode(state)
    idx = space.quiver.vertex_index
    mats = []
    for arr, m in zip(space.quiver.arrows, rep.matrices):
        t, s = idx[arr.target], idx[arr.source]
        if t in move:
            m = mat_mul(space.field, move[t][0], m)
        if s in move:
            m = mat_mul(space.field, m, move[s][1])
        mats.append(m)
    return space.encode_rep(reps_mod.Representation(rep.quiver, rep.field, rep.dims, tuple(mats)))


def _zeros(d):
    return tuple((0,) * d for _ in range(d))


def _with(mat, entries):
    return tuple(
        tuple(entries.get((i, j), x) for j, x in enumerate(row)) for i, row in enumerate(mat)
    )


@pytest.mark.parametrize(
    "arrows, dims, q",
    [
        ([("a", "1", "2"), ("b", "1", "2")], (2, 2, 0), (2, 2)),
        ([("a", "1", "2"), ("b", "3", "2")], (1, 2, 1), (3, 2)),
        ([("a", "1", "2"), ("b", "2", "3")], (2, 1, 2), (2, 2)),
        ([("a", "2", "1"), ("b", "3", "1"), ("c", "2", "3")], (2, 3, 1), (3, 1)),
        ([("a", "1", "2"), ("b", "3", "2")], (1, 2, 2), (3, 1)),
    ],
    ids=["kronecker-22-gf4", "a3-121-gf9", "line-212-gf4", "triangle-231-gf3", "a3-122-gf3"],
)
def test_slice_invariants(arrows, dims, q):
    """The top level of block j, reached from the root through the zero
    orbit of every block before j, labels block j's values under G by rank:
    its orbits are the zero value and, for each rank k >= 1, the rank-k
    matrices, whose least value is N_k, so their least values ascend as
    0, N_1, ..., N_m and the orbit of N_k holds _rank_count of them.  Each
    generator of G fixes the zero state, and each of stabiliser(j, k) fixes
    N_k, so it maps the slice of states whose blocks before j are zero and
    whose block j is N_k onto itself, and the permutation built from its
    block value permutations agrees there with decode -> g_t M g_s^-1 by
    mat_mul -> encode_rep."""
    quiver = qf.validate_quiver(["1", "2", "3"], arrows)
    fld = qf.make_field(*q)
    cat = isoclasses(quiver, dims, fld)
    space = cat.space
    assert all(space.move_permutation(mv)[0] == 0 for mv in space.moves())
    assert len(space.blocks) >= 2
    top = cat.level
    for j, (off, r, c, _, _) in enumerate(space.blocks):
        free = fld.q ** (space.n_entries - off - r * c)  # the states per value of block j
        ranks = []
        for value in range(fld.q ** (r * c)):
            ents = space.entries(value * free)[off : off + r * c]
            ranks.append(rank(fld, tuple(tuple(ents[i * c : i * c + c]) for i in range(r))))
        least = [ranks.index(k) for k in range(min(r, c) + 1)]
        assert top.labels.tolist() == ranks
        assert least == [0, *space.normal_forms[j]] == sorted(least)
        counts = Counter(ranks)
        assert [counts[k] for k in range(len(least))] == [
            cat_mod._rank_count(fld.q, r, c, k) for k in range(len(least))
        ]
        rel = np.arange(free, dtype=np.int64)
        for k, value in enumerate(least[1:], 1):
            start = value * free
            moves = space.stabiliser(j, k)
            assert moves
            for mv in moves:
                ref = np.array([_moved_state(space, mv, int(x)) for x in rel + start]) - start
                assert np.array_equal(np.sort(ref), rel), (j, k, mv)
                perm = space.move_permutation(mv)[rel + start] - start
                assert np.array_equal(perm, ref), (j, k, mv)
        if top.below is not None:
            top = top.below[0]
    assert top.below is None


@pytest.mark.parametrize(
    "name, dims, q, walked, stored, labelled",
    [
        ("star", (0, 1, 1, 1, 2), (2, 4), 2_048, 1_792, 1_024),
        ("star", (2, 2, 2, 2, 3), (2, 1), 6_144, 2_432, 2_176),
        ("counterexample", (1, 1, 1, 2, 1), (5, 1), 1_120, 670, 580),
    ],
    ids=["star-cap-gf16", "star-22223-gf2", "cx-11121-gf5"],
)
def test_labelled_states(name, dims, q, walked, stored, labelled, dtilde4, monkeypatch):
    """The cap vector over GF(16) has three blocks of 256 values.  Its top
    levels label each block's values by rank without the kernel: block 0 at
    the root, block 1 in the root's zero orbit and block 2 in that one's.
    Under the stabiliser of N_1 at block 0 the kernel labels block 1's 256
    values, then block 2's under the stabiliser of each of its 3 orbits' least
    values; the stabiliser of the zero value there has the generators that
    the stabiliser of N_1 at block 1 has on block 2, so those 256 values are
    labelled and stored once.  A walk of the catalog's levels meets labels
    for 8 * 256 values, its distinct label arrays hold 7 * 256, and the
    kernel labels 4 * 256, the values below the top levels.  These are work
    counts: a change that labels or stores more of a catalog raises them."""
    real, sizes = labelling._orbit_labels, []

    def counted(n, perms):
        sizes.append(n)
        return real(n, perms)

    monkeypatch.setattr(labelling, "_orbit_labels", counted)
    clear_catalog_store()
    cat = isoclasses(_quiver(name, None, dtilde4), dims, qf.make_field(*q))
    levels = _levels(cat)
    assert sum(len(level.labels) for level in levels) == walked
    distinct = {id(level.labels): len(level.labels) for level in levels}
    assert sum(distinct.values()) == stored
    assert sum(sizes) == labelled
    clear_catalog_store()


def test_memo_hit_returns_the_level_itself(dtilde4):
    """A memo hit returns the memoised level, reps and sizes themselves, not
    copies, and a level refuses assignment.  On the cap vector over GF(16)
    the root's zero-orbit child is the top level of blocks 1.. under G,
    which reads the same arrays of G's permutations; the stabiliser of N_1
    at block 0 meets, at the zero value of block 1, the group that the
    stabiliser of N_1 at block 1 has on block 2, and both reach one level."""
    gens = [np.array([[1, 0, 2]], dtype=np.uint8), np.array([[1, 0]], dtype=np.uint8)]
    memo = {}
    level, reps, sizes = labelling._label_blocks([3, 2], gens, memo)
    again, reps_again, sizes_again = labelling._label_blocks([3, 2], gens, memo)
    assert again is level and reps_again is reps and sizes_again is sizes
    fresh, _, _ = labelling._label_blocks([3, 2], gens, {})
    assert fresh is not level and fresh.labels.tolist() == level.labels.tolist()
    assert reps.tolist() == [0, 1, 4] and sizes.tolist() == [2, 2, 2]
    with pytest.raises(AttributeError, match="frozen _Level"):
        level.labels = level.labels.copy()
    cat = isoclasses(dtilde4[0], (0, 1, 1, 1, 2), qf.make_field(2, 4))
    root = cat.level
    zero = root.below[0]
    assert zero.labels.tolist() == root.labels.tolist() and zero.gens[0] is root.gens[1]
    assert root.below[1].below[0] is zero.below[1]
    assert root.offsets == (0, 5) and zero.offsets == (0, 2)


def test_stored_space_keeps_no_value_permutations(dtilde4):
    """The levels keep their own generator rows, so the space of a built
    catalog drops the value permutations that they were gathered from."""
    clear_catalog_store()
    cat = isoclasses(dtilde4[0], (0, 1, 1, 1, 2), qf.make_field(2, 2))
    assert cat.space._perms == {} and cat.level.gens
    clear_catalog_store()


def test_stored_catalogs_keep_no_representations(dtilde4, F2):
    """A stored catalog keeps states, not decoded Representations, and
    decodes a class's least state each time it is asked for."""
    clear_catalog_store()
    qf.verify_kac(dtilde4[0], F2, 8)
    assert cat_mod._STORE
    for cat in cat_mod._STORE.values():
        for value in vars(cat).values():
            held = value.values() if isinstance(value, dict) else [value]
            assert not any(isinstance(v, qf.Representation) for v in held)
        for ci in range(cat.n_classes):
            assert cat.representative(ci) == cat.space.decode(int(cat.class_reps[ci]))
        with pytest.raises(SpaceMismatch):
            cat.representative(cat.n_classes)
    clear_catalog_store()


def _flat_labelling(cat):
    """The space labelled as a whole, by one ``_orbit_labels`` call on the
    permutations of its states that G's generators make: the class id of
    every state, and the least state and size of every class."""
    space = cat.space
    return labelling._orbit_labels(space.size, [space.move_permutation(mv) for mv in space.moves()])


@pytest.mark.parametrize("m", [2, 3], ids=["gf4", "gf8"])
def test_levels_match_flat_slice_labelling(m, dtilde4):
    """On the cap vector, the tree of levels gives the classes, sizes and
    lookups that labelling the whole space at once gives: every state over
    GF(4), and over GF(8) every class representative and a sample of the
    other states."""
    cat = isoclasses(dtilde4[0], (0, 1, 1, 1, 2), qf.make_field(2, m))
    labels, reps, sizes = _flat_labelling(cat)
    assert cat.class_reps.tolist() == reps.tolist() and cat.class_reps.dtype == reps.dtype
    assert cat.sizes.tolist() == sizes.tolist() and cat.sizes.dtype == sizes.dtype
    size = cat.space.size
    states = range(size)
    if size > 4**6:
        sample = np.random.default_rng(5).integers(size, size=1_000)
        states = np.concatenate([cat.class_reps, sample])
    for state in map(int, states):
        assert cat.class_of_state(state) == labels[state], state


def test_lookup_runs_no_elimination(dtilde4, F3):
    """A lookup walks the tree of levels from its root by stored generators
    alone: looking up every state of star delta over GF(3) runs no
    ``reps.rref``, under whatever name it is called."""
    cat = isoclasses(dtilde4[0], (1, 1, 1, 1, 2), F3)
    code, calls = reps_mod.rref.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        ids = [cat.class_of_state(s) for s in range(cat.space.size)]
    finally:
        sys.setprofile(None)
    assert calls == []
    assert (cat.class_reps[ids] <= np.arange(cat.space.size)).all()
    assert Counter(ids) == dict(enumerate(cat.sizes.tolist()))


def test_delta_over_gf16_past_the_default_cap(dtilde4):
    """Star delta over GF(16) has 16^8 states, 2^8 times the default cap,
    yet labels a few thousand block values: 65 classes, of which
    I_delta(16) = q + 4 = 20 are indecomposable."""
    clear_catalog_store()
    cat = isoclasses(dtilde4[0], (1, 1, 1, 1, 2), qf.make_field(2, 4), state_cap=2**32)
    assert cat.n_classes == 65
    assert int(cat.sizes.sum()) == 16**8
    assert int(cat.indec_flags.sum()) == 20
    clear_catalog_store()


def _label_dtypes(cat):
    """The dtypes of the last levels' labels, each of which must be the
    narrowest that fits that level's own class count."""
    dtypes = set()
    for level, _, _ in _leaf_states(cat):
        count = int(level.labels.max()) + 1
        assert np.array_equal(np.unique(level.labels), np.arange(count))
        assert level.labels.dtype == np.min_scalar_type(count - 1)
        dtypes.add(level.labels.dtype)
    return dtypes


def test_labels_narrowest_dtype(F2, F3, F5, counterexample):
    """Every last-block level numbers its own classes from 0, in the
    narrowest dtype that fits their count, and those numbers plus the
    offsets along a path to it are the catalog's class ids; every level
    above it holds orbit ids, tree parents and generator indices, each in
    the narrowest dtype that fits them."""
    cat = isoclasses(counterexample[0], (1, 1, 1, 1, 1), F5)
    assert cat.n_classes == 106 and _label_dtypes(cat) == {np.dtype(np.uint8)}
    # nine parallel arrows at dims (1, 1) over GF(2): no move acts, so every
    # one of the 512 states is its own class, and the largest last level,
    # below the first arrow's value 1, holds 256 of them; with ten arrows 512
    many = qf.validate_quiver(["u", "v"], [(f"a{k}", "u", "v") for k in range(9)])
    cat = isoclasses(many, (1, 1), F2)
    assert cat.n_classes == 512 and _label_dtypes(cat) == {np.dtype(np.uint8)}
    assert cat.class_reps.tolist() == list(range(512))
    assert cat.sizes.tolist() == [1] * 512
    assert [cat.class_of_state(s) for s in range(512)] == list(range(512))
    ten = qf.validate_quiver(["u", "v"], [(f"a{k}", "u", "v") for k in range(10)])
    cat = isoclasses(ten, (1, 1), F2)
    assert cat.n_classes == 1024
    assert _label_dtypes(cat) == {np.dtype(np.uint8), np.dtype(np.uint16)}
    assert [cat.class_of_state(s) for s in range(1024)] == list(range(1024))
    # six parallel arrows at dims (1, 1) over GF(3): the scalings pair each
    # nonzero state with its negative, so the class ids outgrow uint8, yet
    # the 243 classes below the first block's non-zero orbit fit it
    six = qf.validate_quiver(["u", "v"], [(f"a{k}", "u", "v") for k in range(6)])
    cat = isoclasses(six, (1, 1), F3)
    assert cat.n_classes == 1 + (3**6 - 1) // 2 and _label_dtypes(cat) == {np.dtype(np.uint8)}
    assert cat.sizes.tolist() == [1] + [2] * (cat.n_classes - 1)
    assert cat.class_reps.tolist() == sorted(cat.class_reps.tolist())
    ids = [cat.class_of_state(s) for s in cat.class_reps.tolist()]
    assert ids == list(range(cat.n_classes))
    reps = set(cat.class_reps.tolist())
    direct = [
        level.labels[[i for i, s in enumerate(states) if s in reps]].astype(np.int64) + first
        for level, first, states in _leaf_states(cat)
    ]
    assert np.array_equal(np.concatenate(direct), np.arange(cat.n_classes))
    for level in _levels(cat):
        if level.below is not None:
            n = len(level.labels)
            assert level.labels.dtype == np.min_scalar_type(len(level.below) - 1)
            assert level.parent.dtype == np.min_scalar_type(n - 1)
            assert level.gen.dtype == np.min_scalar_type(max(len(level.gens[0]) - 1, 0))
            assert all(s.dtype == np.min_scalar_type(s.shape[1] - 1) for s in level.gens)


def _labelling(cat):
    return (
        cat.class_reps.tolist(),
        cat.class_reps.dtype,
        cat.sizes.tolist(),
        cat.sizes.dtype,
        [
            (arr.tolist(), arr.dtype)
            for level in _levels(cat)
            for arr in (level.labels, level.parent, level.gen)
            if arr is not None
        ],
    )


def test_labels_independent_of_batch(dtilde4, counterexample, F2, F3, F5, monkeypatch):
    """The transversal and the Schreier step, which take the values of a
    level in batches of _BATCH, give the labelling across batch borders
    that they give within one batch; the orbit kernel takes a level whole."""
    kronecker = _quiver("kronecker", None, None)
    cases = [
        (dtilde4[0], (0, 1, 1, 1, 2), F3),
        (counterexample[0], (1, 1, 1, 1, 1), F5),
        (kronecker, (2, 3), F2),
    ]
    clear_catalog_store()
    whole = [_labelling(isoclasses(q, d, f)) for q, d, f in cases]
    monkeypatch.setattr(labelling, "_BATCH", 7)
    clear_catalog_store()
    assert [_labelling(isoclasses(q, d, f)) for q, d, f in cases] == whole
    clear_catalog_store()


@pytest.mark.parametrize(
    "name, dims, p",
    [
        ("a3", (1, 2, 1), 2),
        ("a3", (1, 2, 1), 3),
        ("a3", (2, 2, 2), 2),
        ("kronecker", (2, 2), 2),
        ("kronecker", (2, 3), 2),
        ("star", (1, 1, 1, 1, 2), 2),
        ("kronecker", (2, 2), "2^2"),
    ],
    ids=["a3-121-gf2", "a3-121-gf3", "a3-222-gf2", "kronecker-22-gf2", "kronecker-23-gf2",
         "star-delta-gf2", "kronecker-22-gf4"],
)
def test_sieve_matches_idempotent_search(name, dims, p, a3, dtilde4):
    """Class by class, the end-ring test's flag is the idempotent search's
    verdict on the class representative.  The cases include vectors where
    the residue field of an indecomposable's end ring is larger than F_q,
    such as Kronecker (2, 2) over GF(2), with End = F_4, and over GF(4),
    with End = F_16."""
    cat = isoclasses(_quiver(name, a3, dtilde4), dims, qf.field_from_spec(str(p)))
    flags = [qf.is_indecomposable(cat.representative(ci)) for ci in range(cat.n_classes)]
    assert cat.indec_flags.tolist() == flags


def _sieve_flags(cat, memo):
    """The direct-sum sieve that flagged indecomposables before the end-ring
    test, kept as a reference: a class is decomposable exactly when it holds
    X + Y with X indecomposable at a proper sub-vector beta.  It walks the
    box below d and pairs only the beta that carry an indecomposable with
    the classes at d - beta.  It reads the flags of each sub-catalog from
    itself, memoised in ``memo``, never from ``indec_flags``."""
    if cat in memo:
        return memo[cat]
    # the zero representation is not indecomposable, and has no sub-vectors
    flags = np.full(cat.n_classes, any(cat.dims))
    q, f, cap = cat.quiver, cat.field, cat.space.size + 1
    for beta in _box(cat.dims):
        if beta == cat.dims:
            continue
        sub = isoclasses(q, beta, f, state_cap=cap)
        sub_ids = np.flatnonzero(_sieve_flags(sub, memo)).tolist()
        if not sub_ids:
            continue
        comp = isoclasses(q, tuple(a - b for a, b in zip(cat.dims, beta)), f, state_cap=cap)
        for ii in sub_ids:
            left = sub.representative(ii)
            for cj in range(comp.n_classes):
                total = direct_sum(left, comp.representative(cj))
                flags[cat.class_of(total)] = False
    memo[cat] = flags
    return flags


@pytest.mark.parametrize(
    "name, dims, p, m",
    [
        ("star", (1, 1, 1, 1, 2), 2, 1),
        ("star", (1, 1, 1, 1, 2), 2, 2),
        ("kronecker", (2, 2), 2, 1),
        ("kronecker", (2, 2), 2, 2),
        ("counterexample", (1, 1, 1, 1, 1), 5, 1),
    ],
    ids=["star-delta-gf2", "star-delta-gf4", "kronecker-22-gf2", "kronecker-22-gf4",
         "cx-11111-gf5"],
)
def test_end_ring_flags_match_direct_sum_sieve(name, dims, p, m, a3, dtilde4):
    """On every catalog of the box below dims, dims included, the end-ring
    test flags exactly the classes that the direct-sum sieve leaves."""
    quiver, fld, memo = _quiver(name, a3, dtilde4), qf.make_field(p, m), {}
    for beta in _box(dims):
        cat = isoclasses(quiver, beta, fld)
        assert cat.indec_flags.tolist() == _sieve_flags(cat, memo).tolist(), beta


def test_flags_build_no_other_catalog(dtilde4, F2):
    """Flagging star delta leaves delta's catalog alone in the store."""
    star = dtilde4[0]
    delta = (1, 1, 1, 1, 2)
    clear_catalog_store()
    isoclasses(star, delta, F2).indec_flags
    assert set(cat_mod._STORE) == {(star, 2, 1, delta)}
    clear_catalog_store()


def test_orbit_size_must_divide_the_group(a3, F3, monkeypatch):
    # |G| = 2 * 48 * 2 = 192 at (1, 2, 1) over GF(3), and 5 does not divide it
    cat = isoclasses(a3, (1, 2, 1), F3)
    sizes = cat.sizes.copy()
    sizes[1] = 5
    monkeypatch.setattr(cat, "sizes", sizes)
    monkeypatch.setattr(cat, "_indec", None)
    with pytest.raises(
        OrbitPartitionBroken, match=r"^size 5 of class 1 does not divide \|G\| = 192$"
    ):
        cat.indec_flags
    assert cat._indec is None
    with pytest.raises(OrbitPartitionBroken):
        cat.indec_class_ids()


def test_indec_class_ids_read_the_flags(dtilde4, F2):
    cat = isoclasses(dtilde4[0], (1, 1, 1, 1, 2), F2)
    ids = cat.indec_class_ids()
    assert isinstance(ids, tuple)
    assert ids == tuple(np.flatnonzero(cat.indec_flags).tolist())


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


def test_twist_period_must_close(a3_flip, F2, monkeypatch):
    # a class lookup that never finds the starting class again; over a prime
    # field a Frobenius period is 1 without a walk, so GF(4) meets that case
    q, flip = a3_flip
    cat = isoclasses(q, (1, 1, 1), F2)
    cat4 = isoclasses(q, (1, 1, 1), qf.make_field(2, 2))
    monkeypatch.setattr(IsoClassCatalog, "class_of", lambda self, rep: 1)
    with pytest.raises(TwistPeriodBroken):
        frobenius_period(cat4, 0)
    with pytest.raises(TwistPeriodBroken):
        auto_period(cat, flip, 0)
    # over GF(8) the Frobenius order is 3; a class that returns after two
    # twists has a period that does not divide it
    cat8 = isoclasses(q, (1, 1, 0), qf.make_field(2, 3))
    found = iter([1, 0])
    monkeypatch.setattr(IsoClassCatalog, "class_of", lambda self, rep: next(found))
    with pytest.raises(TwistPeriodBroken, match="period 2 does not divide its order 3"):
        frobenius_period(cat8, 0)


def test_frobenius_period_odd_order():
    # over GF(8) the six slopes outside GF(2) fall into two Frobenius
    # orbits of length 3, the field degree
    kron = qf.validate_quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v")])
    cat = isoclasses(kron, (1, 1), qf.make_field(2, 3))
    assert cat.n_classes == 10
    periods = [frobenius_period(cat, ci) for ci in range(cat.n_classes)]
    assert sorted(periods) == [1, 1, 1, 1, 3, 3, 3, 3, 3, 3]


def test_prime_field_frobenius_periods_do_not_twist(dtilde4, F3, monkeypatch):
    # over a prime field the Frobenius twist is the identity, so no class
    # of a fresh catalog is twisted or even decoded
    q, _, _ = dtilde4
    clear_catalog_store()
    cat = isoclasses(q, (1, 1, 1, 1, 2), F3)
    real, decode = cat_mod.twist_auto, cat_mod.StateSpace.decode
    calls, decoded = [], []

    def counted(*args):
        calls.append(args)
        return real(*args)

    def counted_decode(self, state):
        decoded.append(state)
        return decode(self, state)

    monkeypatch.setattr(cat_mod, "twist_auto", counted)
    monkeypatch.setattr(cat_mod.StateSpace, "decode", counted_decode)
    assert [frobenius_period(cat, ci) for ci in range(cat.n_classes)] == [1] * 52
    assert len(calls) == 0 and len(decoded) == 0


def test_broken_orbit_partition_is_refused(a3, F2, monkeypatch):
    # the first level the kernel labels, block 1's values under the
    # stabiliser of N_1 at block 0, loses a state from the orbit of the zero
    # value, and so the catalog loses one per rank-1 value of block 0: 3
    real = labelling._orbit_labels
    levels = []

    def drop_one(n, perms):
        labels, reps, sizes = real(n, perms)
        if not levels:
            sizes = sizes.copy()
            sizes[0] -= 1
        levels.append(n)
        return labels, reps, sizes

    dims = (1, 2, 1)
    key = cat_mod._store_key(a3, F2, dims)
    clear_catalog_store()
    monkeypatch.setattr(labelling, "_orbit_labels", drop_one)
    with pytest.raises(OrbitPartitionBroken, match="^orbit sizes sum to 13, not to the 16 states$"):
        isoclasses(a3, dims, F2)
    assert key not in cat_mod._STORE


@pytest.mark.parametrize("past_end", [False, True], ids=["minus-one", "past-the-end"])
def test_ids_and_states_outside_their_range(a3, F2, past_end):
    # -1, which numpy would wrap, and the first value past the end
    cat = isoclasses(a3, (1, 1, 1), F2)
    ci = cat.n_classes if past_end else -1
    state = cat.space.size if past_end else -1
    with pytest.raises(SpaceMismatch, match=rf"class id {ci} is outside range\({cat.n_classes}\)"):
        cat.representative(ci)
    with pytest.raises(SpaceMismatch, match=rf"state {state} is outside range\({cat.space.size}\)"):
        cat.class_of_state(state)
    with pytest.raises(SpaceMismatch, match=f"class id {ci} "):
        frobenius_period(cat, ci)
    with pytest.raises(SpaceMismatch, match=f"class id {ci} "):
        twisted_class(cat, ci, qf.Automorphism.identity(a3), 0)


def test_auto_period_needs_the_catalogs_quiver(a2, a3_flip, F2):
    cat = isoclasses(a2, (1, 0), F2)
    with pytest.raises(SpaceMismatch):
        auto_period(cat, a3_flip[1], 0)
