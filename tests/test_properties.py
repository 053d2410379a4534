"""Randomised identity checks, 200 samples each at a fixed seed (more for
the double skew: 2,000 wide draws and 400 pairs against brute force).

Each test replays the same pseudorandom stream every run, so failures are
reproducible without recording inputs.
"""

import random
from collections import Counter
from functools import cache
from fractions import Fraction
from itertools import permutations, product
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import quiverfold as qf
from quiverfold import labelling
from quiverfold.reps import hom_space, ext_dim, reflection_functor
from quiverfold.skew import _exponents, _skew

SAMPLES = 200
SEED = 20260816


@cache
def _fixture(name):
    if name == "a3-flip":
        return qf.build_a3_flip()
    if name == "dtilde4-4cycle":
        q, four, _ = qf.build_dtilde4()
        return q, four
    q, rot = qf.build_counterexample()
    return q, rot


FIXTURE_NAMES = ["a3-flip", "dtilde4-4cycle", "counterexample"]
SKEW_NAMES = ["a3-flip", "dtilde4-4cycle"]


def _random_folded_vectors(a, rnd, count):
    n = len(qf.fold(a).orbit_names)
    for _ in range(count):
        yield tuple(rnd.randrange(0, 5) for _ in range(n))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_form_identity_under_folding(name):
    q, a = _fixture(name)
    fd = qf.fold(a)
    rnd = random.Random(SEED)
    pairs = zip(
        _random_folded_vectors(a, rnd, SAMPLES),
        _random_folded_vectors(a, rnd, SAMPLES),
    )
    for wx, wy in pairs:
        x = qf.f_inverse(a, wx)
        y = qf.f_inverse(a, wy)
        assert qf.bilinear_q(q, x, y) == qf.bilinear_gamma(fd, wx, wy)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_folded_reflections_intertwine(name):
    q, a = _fixture(name)
    fd = qf.fold(a)
    lat = qf.folded_lattice(fd)
    rnd = random.Random(SEED + 1)
    for w in _random_folded_vectors(a, rnd, SAMPLES):
        x = qf.f_inverse(a, w)
        k = rnd.randrange(len(fd.orbit_names))
        assert qf.f_map(a, qf.s_fold(a, k, x)) == qf.reflect(lat, k, w)


@pytest.mark.parametrize("name", SKEW_NAMES)
def test_h_map_pairing_identity(name):
    q, a = _fixture(name)
    fd = qf.fold(a)
    skq = qf.skew(a)
    names = list(skq.quiver.vertices)
    rnd = random.Random(SEED + 2)
    units = np.eye(len(fd.orbit_names), dtype=int)
    for _ in range(SAMPLES):
        beta = tuple(rnd.randrange(0, 5) for _ in names)
        hb = qf.h_map(skq, beta)
        for gi in range(len(fd.orbit_names)):
            lhs = qf.bilinear_gamma(fd, hb, tuple(units[gi]))
            rhs = 0
            for pos, owner in enumerate(skq.group_of_vertex):
                if owner != gi:
                    continue
                unit = tuple(1 if j == pos else 0 for j in range(len(names)))
                rhs += qf.bilinear_q(skq.quiver, beta, unit)
            assert lhs == fd.d[gi] * rhs


@pytest.mark.parametrize("name", SKEW_NAMES)
def test_h_map_reflections_intertwine(name):
    q, a = _fixture(name)
    skq = qf.skew(a)
    folded = qf.folded_lattice(qf.fold(a))
    tilde = qf.quiver_lattice(skq.quiver)
    groups = {}
    for pos, g in enumerate(skq.group_of_vertex):
        groups.setdefault(g, []).append(skq.quiver.vertices[pos])
    rnd = random.Random(SEED + 3)
    for _ in range(SAMPLES):
        beta = tuple(rnd.randrange(0, 5) for _ in skq.quiver.vertices)
        g = rnd.choice(list(groups))
        lhs = qf.h_map(skq, qf.apply_reflections(tilde, groups[g], beta))
        rhs = qf.reflect(folded, g, qf.h_map(skq, beta))
        assert lhs == rhs


@pytest.mark.parametrize("name", SKEW_NAMES)
def test_h_map_bounded_root_surjectivity(name):
    q, a = _fixture(name)
    skq = qf.skew(a)
    height = 4
    upstairs = qf.positive_roots_up_to(qf.quiver_lattice(skq.quiver), height)
    downstairs = qf.positive_roots_up_to(qf.folded_lattice(qf.fold(a)), height)
    image = {qf.h_map(skq, r.vector) for r in upstairs.records}
    assert image == {r.vector for r in downstairs.records}
    kind_up = {r.vector: r.kind for r in upstairs.records}
    for rec in downstairs.records:
        if rec.kind != "real":
            continue
        preimages = [
            r.vector for r in upstairs.records if qf.h_map(skq, r.vector) == rec.vector
        ]
        assert preimages, rec.vector
        assert all(kind_up[p] == "real" for p in preimages)
        orbit = set()
        cur = preimages[0]
        for _ in range(skq.auto.order):
            orbit.add(cur)
            cur = qf.act_on_dimension_vector(skq.auto, cur)
        assert orbit == set(preimages)


def test_reflection_functor_dimension_identity(a3, F2, F3):
    lat = qf.quiver_lattice(a3)
    s2 = {f.p: qf.simple_representation(a3, f, "2") for f in (F2, F3)}
    s1 = {f.p: qf.simple_representation(a3, f, "1") for f in (F2, F3)}
    rnd = random.Random(SEED + 4)
    for _ in range(SAMPLES):
        fld = (F2, F3)[rnd.randrange(2)]
        while True:
            dims = tuple(rnd.randrange(0, 3) for _ in range(3))
            if sum(dims) <= 4:
                break
        mats = {}
        for arr in a3.arrows:
            rows = dims[a3.vertex_index[arr.target]]
            cols = dims[a3.vertex_index[arr.source]]
            mats[arr.id] = tuple(
                tuple(rnd.randrange(fld.q) for _ in range(cols)) for _ in range(rows)
            )
        rep = qf.make_representation(a3, fld, dims, mats)
        parts = qf.decompose(rep)
        kept = [p for p in parts if not qf.is_isomorphic(p, s2[fld.p])]
        y = qf.direct_sum_list(kept, a3, fld)
        plus = reflection_functor(y, "2", "+")
        assert plus.dims == qf.reflect(lat, "2", y.dims)
        # R-_2 R+_2 gives back y, and R+_1 R-_1 at the source "1" gives back
        # the representation without its S_1 summands
        back = reflection_functor(plus, "2", "-")
        assert back.quiver == a3 and qf.is_isomorphic(back, y)
        kept = [p for p in parts if not qf.is_isomorphic(p, s1[fld.p])]
        y = qf.direct_sum_list(kept, a3, fld)
        minus = reflection_functor(y, "1", "-")
        assert minus.dims == qf.reflect(lat, "1", y.dims)
        back = reflection_functor(minus, "1", "+")
        assert back.quiver == a3 and qf.is_isomorphic(back, y)
    for fld in (F2, F3):
        assert reflection_functor(s2[fld.p], "2", "+").is_zero()


def test_decompose_splits_into_catalogued_indecomposables(a3, dtilde4, F2, F3, F4):
    """Every summand ``decompose`` returns is an indecomposable class of its
    catalog, and the summands add back up to the input's class; both checks
    read the catalog's end-ring flags and orbit labels, not ``reps``."""
    quivers = (a3, dtilde4[0])
    rnd = random.Random(SEED + 5)
    for _ in range(SAMPLES):
        q = quivers[rnd.randrange(2)]
        fld = (F2, F3, F4)[rnd.randrange(3)]
        # at most 2 per vertex keeps End within the idempotent search's cap
        while True:
            dims = tuple(rnd.randrange(0, 3) for _ in q.vertices)
            if 1 <= sum(dims) <= 4:
                break
        mats = {}
        for arr in q.arrows:
            rows = dims[q.vertex_index[arr.target]]
            cols = dims[q.vertex_index[arr.source]]
            mats[arr.id] = tuple(
                tuple(rnd.randrange(fld.q) for _ in range(cols)) for _ in range(rows)
            )
        rep = qf.make_representation(q, fld, dims, mats)
        parts = qf.decompose(rep)
        for part in parts:
            cat = qf.isoclasses(q, part.dims, fld)
            assert cat.indec_flags[cat.class_of(part)]
        cat = qf.isoclasses(q, rep.dims, fld)
        assert cat.class_of(qf.direct_sum_list(parts, q, fld)) == cat.class_of(rep)


def test_hom_minus_ext_is_euler(a2, F2):
    reps = []
    for dims in product(range(3), repeat=2):
        cat = qf.isoclasses(a2, dims, F2)
        reps.extend(cat.representative(ci) for ci in range(cat.n_classes))
    for x in reps:
        for y in reps:
            lhs = hom_space(x, y).dim - ext_dim(x, y)
            assert lhs == qf.euler_form(a2, x.dims, y.dims)


def test_multiset_consistency(a2, F2):
    assert qf.multiset_crosscheck(a2, F2, 4).passed


def test_fold_after_unfold_recovers_valued_data():
    for du, dv, k in product((1, 2, 3, 4), (1, 2, 3, 4), (1, 2)):
        b = k * lcm(du, dv)
        vq = qf.make_valued_quiver(["u", "v"], [du, dv], [("u", "v", b)])
        fd = qf.fold(qf.unfold(vq))
        assert fd.d == (du, dv)
        assert fd.b_matrix == vq.b_matrix
        assert fd.valued_quiver.edge_pair(fd.valued_quiver.edges[0]) == vq.edge_pair(
            vq.edges[0]
        )


def test_double_skew_closes(a3_flip, dtilde4):
    q, flip = a3_flip
    assert qf.double_skew_check(flip).found
    _, four, _ = dtilde4
    assert qf.double_skew_check(four).found


def _random_automorphism(rnd, most=6, orbits=3, rounds=(1, 2)):
    """A quiver on 2 to `most` vertices with a random vertex permutation and
    up to `orbits` arrow orbits, each joining two vertex orbits and going
    round its endpoint pairs a number of times drawn from `rounds`."""
    names = [str(k) for k in range(rnd.randint(2, most))]
    order = rnd.sample(names, len(names))
    cuts = sorted(rnd.sample(range(1, len(names)), rnd.randint(0, len(names) - 1)))
    cycles = [order[i:j] for i, j in zip([0, *cuts], [*cuts, len(names)])]
    step = {c[k]: c[(k + 1) % len(c)] for c in cycles for k in range(len(c))}
    arrows, amap = [], {}
    for t in range(rnd.randint(0, orbits) if len(cycles) > 1 else 0):
        cu, cv = rnd.sample(cycles, 2)
        u, v = rnd.choice(cu), rnd.choice(cv)
        length = rnd.choice(rounds) * lcm(len(cu), len(cv))
        for k in range(length):
            arrows.append((f"e{t}:{k}", u, v))
            amap[f"e{t}:{k}"] = f"e{t}:{(k + 1) % length}"
            u, v = step[u], step[v]
    return qf.validate_automorphism(qf.validate_quiver(names, arrows), step, amap)


def _canonical_map(a):
    return {v: f"{orb[0]}:0:{k}" for orb in a.vertex_orbits for k, v in enumerate(orb)}


def test_double_skew_map_is_an_isomorphism():
    """Every draw is recovered, and the map found is a bijection onto the
    double skew's vertices, intertwines the two vertex actions and keeps
    the arrow count of every endpoint pair."""
    rnd = random.Random(SEED + 4)
    found = 0
    for _ in range(SAMPLES):
        a = _random_automorphism(rnd)
        rep = qf.double_skew_check(a)
        if not rep.found:
            continue
        found += 1
        s1, shifts = _skew(a, a.order, {})
        a2 = _skew(s1.auto, a.order, shifts)[0].auto
        vmap = rep.vertex_map
        assert sorted(vmap) == sorted(a.quiver.vertices)
        assert sorted(vmap.values()) == sorted(a2.quiver.vertices)
        for v, w in vmap.items():
            assert vmap[a.apply_vertex(v)] == a2.apply_vertex(w)
        pairs = Counter((vmap[r.source], vmap[r.target]) for r in a.quiver.arrows)
        assert pairs == Counter((r.source, r.target) for r in a2.quiver.arrows)
    assert found == SAMPLES


def test_double_skew_recovers_every_wide_draw():
    """2-8 vertices, 0-4 arrow orbits, each going round its endpoint pairs
    twice with probability 1/4: every draw comes back at the canonical map."""
    rnd = random.Random(SEED + 6)
    for _ in range(10 * SAMPLES):
        a = _random_automorphism(rnd, most=8, orbits=4, rounds=(1, 1, 1, 2))
        rep = qf.double_skew_check(a)
        assert rep.found and rep.vertex_map == _canonical_map(a), a


def _intertwining_maps(a, b):
    """Every vertex bijection from a's quiver to b's that intertwines a and b."""
    if len(a.quiver.vertices) != len(b.quiver.vertices):
        return
    for perm in permutations(b.quiver.vertices):
        vmap = dict(zip(a.quiver.vertices, perm))
        if all(vmap[a.apply_vertex(v)] == b.apply_vertex(w) for v, w in vmap.items()):
            yield vmap


def _isomorphic(a, b):
    """Plain isomorphism of (Q, a) and (Q', b) by brute force: an
    intertwining vertex bijection, extended orbit by orbit to arrows."""
    qa, qb = a.quiver, b.quiver
    ends = {r.id: (r.source, r.target) for r in qb.arrows}

    def extend(vmap, orbits, used):
        if not orbits:
            return True
        orb, rest = orbits[0], orbits[1:]
        for beta in qb.arrows:
            image, cur = [], beta.id
            for rid in orb:
                r = qa.arrow_by_id[rid]
                if cur in used or cur in image or ends[cur] != (vmap[r.source], vmap[r.target]):
                    break
                image.append(cur)
                cur = b.apply_arrow(cur)
            else:
                if cur == beta.id and extend(vmap, rest, used | set(image)):
                    return True
        return False

    return len(qa.arrows) == len(qb.arrows) and any(
        extend(vmap, a.arrow_orbits, frozenset()) for vmap in _intertwining_maps(a, b)
    )


def _matches_double_skew(a, b):
    """(Q, a) against the double skew of (Q', b): an intertwining vertex
    bijection that gives every endpoint pair the same eigenvalues, each
    compared as a fraction of a turn."""
    s1, shifts = _skew(b, b.order, {})
    s2, shifts2 = _skew(s1.auto, b.order, shifts)

    def turns(auto, n, shifts):
        return {p: sorted(Fraction(e, n) for e in es) for p, es in _exponents(auto, n, shifts).items()}

    ours, theirs = turns(a, a.order, {}), turns(s2.auto, b.order, shifts2)
    return any(
        {(vmap[u], vmap[v]): es for (u, v), es in ours.items()} == theirs
        for vmap in _intertwining_maps(a, s2.auto)
    )


def _relabelled(a, rnd):
    """(Q, a) with its vertices and arrows renamed at random."""
    q = a.quiver
    vname = dict(zip(q.vertices, rnd.sample([f"v{k}" for k in range(len(q.vertices))], len(q.vertices))))
    aname = {r.id: f"x{k}" for k, r in enumerate(rnd.sample(q.arrows, len(q.arrows)))}
    arrows = [(aname[r.id], vname[r.source], vname[r.target]) for r in q.arrows]
    return qf.validate_automorphism(
        qf.validate_quiver([vname[v] for v in q.vertices], arrows),
        {vname[v]: vname[a.apply_vertex(v)] for v in q.vertices},
        {aname[r]: aname[a.apply_arrow(r)] for r in aname},
    )


def test_double_skew_agrees_with_plain_isomorphism():
    """For pairs (a, b) on up to 4 vertices, a matches the double skew of b
    exactly when (Q, a) and (Q', b) are isomorphic.  Half the b are a
    renamed; the others are drawn until they have a's vertex and arrow
    counts and vertex cycle type, so the vertex counts seldom decide."""
    rnd = random.Random(SEED + 5)

    def draw():
        return _random_automorphism(rnd, most=4, orbits=3, rounds=(1, 1, 1, 2))

    def shape(a):
        return len(a.quiver.arrows), sorted(map(len, a.vertex_orbits))

    agreed = Counter()
    for _ in range(2 * SAMPLES):
        a = b = draw()
        if rnd.random() < 0.5:
            while shape(b := draw()) != shape(a):
                pass
        b = _relabelled(b, rnd)
        iso = _isomorphic(a, b)
        assert _matches_double_skew(a, b) == iso
        agreed[iso] += 1
    assert agreed[True] > 0 and agreed[False] > 0


def _field_specs_up_to(bound):
    from sympy import isprime

    out = []
    for p in range(2, bound + 1):
        if not isprime(p):
            continue
        m = 1
        while p**m <= bound:
            out.append((p, m))
            m += 1
    return out


@pytest.mark.parametrize("p,m", _field_specs_up_to(2**8))
def test_field_axioms(p, m):
    fld = qf.make_field(p, m)
    q = fld.q
    add, mul = fld.tables()
    ar = np.arange(q)
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], ar) and np.array_equal(mul[1], ar)
    assert np.array_equal(np.sort(add, axis=1), np.tile(ar, (q, 1)))
    # every nonzero element has an inverse
    assert all(mul[x, fld.inv(x)] == 1 for x in range(1, q))
    if q <= 64:
        a3d = add.astype(np.int64)
        m3d = mul.astype(np.int64)
        # (x+y)+z == x+(y+z), likewise for products, via full table indexing
        assert np.array_equal(a3d[a3d, :], a3d[:, a3d])
        assert np.array_equal(m3d[m3d, :], m3d[:, m3d])
        assert np.array_equal(
            m3d[:, a3d], a3d[m3d[:, :, None], m3d[:, None, :]]
        )
    else:
        rnd = random.Random(SEED + q)
        for _ in range(SAMPLES):
            x, y, z = (rnd.randrange(q) for _ in range(3))
            assert add[add[x, y], z] == add[x, add[y, z]]
            assert mul[mul[x, y], z] == mul[x, mul[y, z]]
            assert mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]


@settings(max_examples=SAMPLES, deadline=None, derandomize=True)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
def test_frobenius_is_additive_and_multiplicative(spec, xseed, yseed):
    fld = qf.make_field(*spec)
    x = xseed % fld.q
    y = yseed % fld.q
    fx = qf.frobenius(fld, 1, x)
    fy = qf.frobenius(fld, 1, y)
    assert qf.frobenius(fld, 1, fld.add(x, y)) == fld.add(fx, fy)
    assert qf.frobenius(fld, 1, fld.mul(x, y)) == fld.mul(fx, fy)
    assert qf.frobenius(fld, fld.m, x) == x


SMALL_QUIVERS = {
    "a2": (["u", "v"], [("r", "u", "v")]),
    "a3": (["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")]),
    "line": (["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]),
    "kronecker": (["u", "v", "w"], [("a", "u", "v"), ("b", "u", "v")]),
    "triangle": (["1", "2", "3"], [("a", "2", "1"), ("b", "3", "1"), ("c", "2", "3")]),
}


@cache
def _small_quiver(name):
    return qf.validate_quiver(*SMALL_QUIVERS[name])


@cache
def _move_permutations(name, dims, spec):
    cat = qf.isoclasses(_small_quiver(name), dims, qf.make_field(*spec))
    return cat, [cat.space.move_permutation(mv) for mv in cat.space.moves()]


@settings(max_examples=SAMPLES, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(SMALL_QUIVERS)),
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
)
def test_class_of_state_is_constant_on_orbits(name, dims, spec, seeds):
    """A lookup gives every state of an orbit one class, whose least state
    is no greater than it: the class of s is the class of each generator's
    image of s, and the representative of that class is at most s."""
    dims = dims[: len(SMALL_QUIVERS[name][0])]
    q = spec[0] ** spec[1]
    assume(q ** _small_quiver(name).entry_count(dims) <= 3**7)
    cat, perms = _move_permutations(name, dims, spec)
    for state in (x % cat.space.size for x in seeds):
        ci = cat.class_of_state(state)
        assert cat.class_reps[ci] <= state
        assert all(cat.class_of_state(int(perm[state])) == ci for perm in perms)


def _plain_orbits(n, perms):
    """Orbit id of every value 0 .. n - 1 under the permutations, and the
    least value and size of every orbit, by a depth-first search in plain
    Python from each value not yet met, in increasing order."""
    labels, reps, sizes = [None] * n, [], []
    for x in range(n):
        if labels[x] is None:
            labels[x], todo, size = len(reps), [x], 0
            while todo:
                y = todo.pop()
                size += 1
                for p in perms:
                    if labels[p[y]] is None:
                        labels[p[y]] = len(reps)
                        todo.append(p[y])
            reps.append(x)
            sizes.append(size)
    return labels, reps, sizes


@st.composite
def _permutation_sets(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    return n, draw(st.lists(st.permutations(range(n)), max_size=4))


@settings(max_examples=SAMPLES, deadline=None, derandomize=True)
@given(_permutation_sets())
@example((1, []))
@example((5, []))
@example((1, [[0]]))
@example((1023, [[(x + 1) % 1023 for x in range(1023)]]))
def test_orbit_labels_match_plain_search(case):
    """The labelling kernel numbers the orbits in order of their least
    value, as a plain search does: with no permutations, on one value, and
    on the increasing 1,023-cycle, whose least value would take 1,022 rounds
    to reach every value by passing minima along the cycle without hooks."""
    n, perms = case
    labels, reps, sizes = labelling._orbit_labels(n, [np.array(p) for p in perms])
    assert (labels.tolist(), reps.tolist(), sizes.tolist()) == _plain_orbits(n, perms)
