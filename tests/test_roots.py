"""Root classification and enumeration against independently derived sets.

The expected root sets below were produced by tools/oracle_roots.py, which
grows Weyl orbits by breadth-first closure without using any package code.
"""

import pytest

import quiverfold as qf
from quiverfold import roots
from quiverfold.errors import BudgetExceeded, NoNullRoot, UnknownVertex, ZeroVector


def folded(a):
    return qf.folded_lattice(qf.fold(a))


def root_sets(lat, height):
    rs = qf.positive_roots_up_to(lat, height)
    real = {r.vector for r in rs.records if r.kind == "real"}
    imag = {r.vector for r in rs.records if r.kind == "imaginary"}
    return real, imag


def test_pair21_fold_roots(a3_flip):
    real, imag = root_sets(folded(a3_flip[1]), 4)
    assert real == {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert imag == set()


def test_pair41_fold_roots(dtilde4):
    real, imag = root_sets(folded(dtilde4[1]), 4)
    assert real == {(1, 0), (0, 1), (1, 1), (1, 3)}
    assert imag == {(1, 2)}


def test_three_cycle_fold_roots(dtilde4):
    real, imag = root_sets(folded(dtilde4[2]), 4)
    assert real == {
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
        (0, 1, 1),
        (1, 0, 1),
        (1, 0, 2),
        (1, 1, 1),
        (1, 0, 3),
    }
    assert imag == {(1, 1, 2)}


def test_counterexample_fold_roots(counterexample):
    real, imag = root_sets(folded(counterexample[1]), 4)
    assert real == {(1, 0), (0, 1), (2, 1), (1, 3)}
    assert imag == {(1, 1), (1, 2), (2, 2)}


def test_simply_laced_roots(a2, a3):
    real, imag = root_sets(qf.quiver_lattice(a2), 3)
    assert real == {(1, 0), (0, 1), (1, 1)} and not imag

    real3, imag3 = root_sets(qf.quiver_lattice(a3), 4)
    assert len(real3) == 6 and not imag3
    assert (1, 1, 1) in real3 and (1, 0, 1) not in real3


def test_star_quiver_roots(dtilde4):
    real, imag = root_sets(qf.quiver_lattice(dtilde4[0]), 6)
    assert len(real) == 24
    assert imag == {(1, 1, 1, 1, 2)}
    assert (1, 1, 1, 1, 1) in real


def test_classify_real_witness(a3_flip):
    lat = folded(a3_flip[1])
    c = qf.classify(lat, (1, 2))
    assert c.kind == "real" and c.sign == 1
    # the witness word really reflects the terminal simple back to the input
    simple = tuple(1 if n == c.simple else 0 for n in lat.names)
    assert qf.apply_reflections(lat, list(reversed(c.word)), simple) == (1, 2)


def test_classify_imaginary_and_nonroot(dtilde4):
    lat = folded(dtilde4[1])
    ci = qf.classify(lat, (1, 2))
    assert ci.kind == "imaginary"
    assert ci.fundamental == (1, 2)
    cn = qf.classify(lat, (2, 1))
    assert cn.kind == "nonroot"
    assert cn.reason
    mixed = qf.classify(lat, (1, -1))
    assert (mixed.kind, mixed.reason) == ("nonroot", "mixed signs")
    # two disjoint Kronecker quivers: (1, 1, 1, 1) pairs to zero everywhere
    two = qf.quiver_lattice(
        qf.validate_quiver(
            ["a", "b", "c", "d"],
            [("x", "a", "b"), ("y", "a", "b"), ("z", "c", "d"), ("w", "c", "d")],
        )
    )
    split = qf.classify(two, (1, 1, 1, 1))
    assert split.kind == "nonroot"
    assert split.reason == "fundamental-region vector with disconnected support"
    with pytest.raises(ZeroVector):
        qf.classify(lat, (0, 0))


def test_classify_negative_root(a3_flip):
    lat = folded(a3_flip[1])
    c = qf.classify(lat, (-1, -2))
    assert c.kind == "real" and c.sign == -1


def test_null_root(dtilde4):
    lat4 = folded(dtilde4[1])
    assert qf.null_root(lat4) == (1, 2)
    star = qf.quiver_lattice(dtilde4[0])
    assert qf.null_root(star) == (1, 1, 1, 1, 2)
    a2lat = qf.quiver_lattice(qf.validate_quiver(["u", "v"], [("r", "u", "v")]))
    assert qf.null_root(a2lat) is None


def _sympy_null_root(b):
    """The primitive positive radical generator, by sympy's nullspace."""
    import sympy

    space = sympy.Matrix(b).nullspace()
    if len(space) != 1:
        return None
    col = space[0] * sympy.lcm([sympy.Rational(x).q for x in space[0]])
    ints = [int(x) for x in col / sympy.gcd(list(col))]
    if all(x <= 0 for x in ints):
        ints = [-x for x in ints]
    return tuple(ints) if all(x > 0 for x in ints) else None


def _random_forms(rng, count):
    """Symmetric integer matrices of sizes 1..5: half of them A^T A with every
    row of A orthogonal to a chosen positive or mixed-sign vector, so their
    radical is usually that line; the rest with independent entries."""
    out = []
    for k in range(count):
        n = rng.randint(1, 5)
        if k % 2:
            out.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            for i in range(n):
                for j in range(i):
                    out[-1][i][j] = out[-1][j][i]
            continue
        delta = [rng.randint(1, 4) * rng.choice((1, 1, 1, -1)) for _ in range(n)]
        dd = sum(x * x for x in delta)
        rows = []
        for _ in range(rng.randint(max(n - 2, 0), n)):
            r = [rng.randint(-3, 3) for _ in range(n)]
            rd = sum(x * y for x, y in zip(r, delta))
            rows.append([dd * x - rd * y for x, y in zip(r, delta)])
        out.append(
            [[sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
        )
    return out


def test_null_root_matches_sympy(a3_flip, dtilde4, counterexample):
    import random

    from quiverfold.roots import CartanLattice

    lattices = [
        qf.quiver_lattice(a3_flip[0]),
        folded(a3_flip[1]),
        qf.quiver_lattice(dtilde4[0]),
        folded(dtilde4[1]),
        folded(dtilde4[2]),
        qf.quiver_lattice(counterexample[0]),
        folded(counterexample[1]),
    ]
    for b in _random_forms(random.Random(20), 400):
        names = tuple(str(i) for i in range(len(b)))
        lattices.append(CartanLattice(names, tuple(map(tuple, b)), (1,) * len(b)))
    found = 0
    for lat in lattices:
        want = _sympy_null_root(lat.b_matrix)
        assert qf.null_root(lat) == want, lat.b_matrix
        found += want is not None
    # both outcomes are well represented: a line of positive vectors, and not
    assert 50 <= found <= len(lattices) - 50


def test_defect(dtilde4, a3):
    q = dtilde4[0]
    # regular dimension vectors have defect zero
    assert qf.defect(q, (1, 1, 1, 1, 2)) == 0
    assert qf.defect(q, (1, 1, 0, 0, 1)) == 0
    assert qf.defect(q, (1, 1, 1, 1, 1)) != 0
    # the A3 form is positive definite, so it has no null root
    with pytest.raises(NoNullRoot):
        qf.defect(a3, (1, 1, 1))


def test_s_fold_composite(a3_flip):
    q, flip = a3_flip
    # reflecting at the folded orbit of 1 and 3 acts on fixed vectors
    assert qf.s_fold(flip, 0, (0, 1, 0)) == (1, 1, 1)
    assert qf.s_fold(flip, ["1", "3"], (0, 1, 0)) == (1, 1, 1)
    # the flip has two vertex orbits; an index outside them names no orbit
    for bad in (5, 2, -1):
        with pytest.raises(UnknownVertex, match=f"^automorphism has no vertex orbit {bad}$"):
            qf.s_fold(flip, bad, (0, 1, 0))
    # intertwines with the single folded reflection through f
    fd = qf.fold(flip)
    lat = qf.folded_lattice(fd)
    for v in [(1, 2, 1), (0, 1, 0), (1, 1, 1), (2, 3, 2)]:
        assert qf.f_map(flip, qf.s_fold(flip, 0, v)) == qf.reflect(
            lat, 0, qf.f_map(flip, v)
        )


def test_root_count_cap(a2, monkeypatch):
    # the cap counts the vectors the sweep walks, which bound the roots: a2
    # has nine nonzero vectors up to height 3, and three positive roots
    monkeypatch.setattr(roots, "_GRID_CAP", 8)
    with pytest.raises(BudgetExceeded, match="^9 vectors up to height 3 exceed the sweep cap of 8$") as ei:
        qf.positive_roots_up_to(qf.quiver_lattice(a2), 3)
    assert ei.value.predicted == 9
    monkeypatch.setattr(roots, "_GRID_CAP", 9)
    assert len(qf.positive_roots_up_to(qf.quiver_lattice(a2), 3).records) == 3


def test_sigma_root_image(a3_flip):
    rep = qf.sigma_root_image(a3_flip[1], 4)
    assert rep.matches
    assert set(rep.image) == {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert set(rep.folded_roots) == set(rep.image)
    # each real folded root has exactly one preimage orbit
    assert rep.real_single_orbit
    assert all(n == 1 for n in rep.orbit_counts.values())


def test_reflect_by_name(a3_flip):
    lat = folded(a3_flip[1])
    assert qf.reflect(lat, "2", (1, 0)) == qf.reflect(lat, 1, (1, 0))


_ROUTES = {
    "star-h10": (lambda: qf.quiver_lattice(qf.build_dtilde4()[0]), 10),
    "counterexample-h8": (lambda: qf.quiver_lattice(qf.build_counterexample()[0]), 8),
    "4cycle-fold-h8": (lambda: folded(qf.build_dtilde4()[1]), 8),
    "3cycle-fold-h8": (lambda: folded(qf.build_dtilde4()[2]), 8),
    "pair41-h8": (lambda: qf.make_valued_quiver(["u", "v"], [4, 1], [("u", "v", 4)]).lattice, 8),
}


@pytest.mark.parametrize("make_lattice, height", _ROUTES.values(), ids=_ROUTES.keys())
def test_closure_agrees_with_a_classify_sweep(make_lattice, height):
    # the reflection closure and a vector-by-vector classification are two
    # routes to the same roots and kinds
    lat = make_lattice()
    closure = {r.vector: r.kind for r in qf.positive_roots_up_to(lat, height).records}
    swept = {}
    for v in roots._nonneg_vectors(len(lat.names), height):
        kind = qf.classify(lat, v).kind
        if kind != "nonroot":
            swept[v] = kind
    assert closure == swept
    assert "real" in closure.values()
