"""Counting theorems: twist-orbit sums, species counts, report objects.

Species counts at the (2, 1)-weighted edge were frozen from
tools/oracle_species.py, which classifies bimodule maps directly by a
two-sided base-change orbit walk instead of going through the unfolded
quiver.
"""

import time
from math import comb

import pytest

import quiverfold as qf
from quiverfold import theorems
from quiverfold.errors import (
    BudgetExceeded,
    CharacteristicWarning,
    CrossCheckFailed,
    LatticeMismatch,
    NotFixed,
    NotPrime,
    TwistPeriodBroken,
)
from quiverfold.cartan import f_inverse
from quiverfold.quiver import _box, _orbit, act_on_dimension_vector
from quiverfold.roots import _nonneg_vectors


@pytest.fixture
def pair21():
    return qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 2)])


def test_ii_classes_full_line(a3_flip, F2):
    q, flip = a3_flip
    classes = qf.ii_classes(flip, (1, 1, 1), F2)
    assert len(classes) == 1
    c = classes[0]
    assert c.period == 1
    assert c.summand_count == 1
    assert c.member_dims == ((1, 1, 1),)
    # (1,1,1) is counted at the bottom of its reflection chain
    assert not c.direct
    rep = c.representative()
    assert rep.dims == (1, 1, 1)
    assert qf.is_indecomposable(rep)


def test_ii_classes_period_two(a3_flip, F2):
    q, flip = a3_flip
    classes = qf.ii_classes(flip, (1, 2, 1), F2)
    assert len(classes) == 1
    c = classes[0]
    assert c.period == 2
    assert sorted(c.member_dims) == [(0, 1, 1), (1, 1, 0)]
    rep = c.representative()
    assert rep.dims == (1, 2, 1)
    assert not qf.is_indecomposable(rep)
    parts = qf.decompose(rep)
    assert sorted(p.dims for p in parts) == [(0, 1, 1), (1, 1, 0)]


def test_ii_classes_requires_fixed_vector(a3_flip, F2):
    q, flip = a3_flip
    with pytest.raises(NotFixed):
        qf.ii_classes(flip, (1, 1, 0), F2)
    assert qf.ii_classes(flip, (0, 0, 0), F2) == ()


def test_ii_classes_refuses_negative_dims(counterexample, F5):
    # the vector is fixed by the rotation, so only the sign check refuses it
    with pytest.raises(LatticeMismatch, match="^dimensions must be non-negative$"):
        qf.ii_classes(counterexample[1], (1, 1, 1, -1, -1), F5)


def test_ii_classes_counterexample(counterexample, F5):
    q, rot = counterexample
    classes = qf.ii_classes(rot, (1, 1, 1, 1, 1), F5)
    assert len(classes) == 1
    c = classes[0]
    assert c.period == 1
    assert c.member_dims == ((1, 1, 1, 1, 1),)
    rep = c.representative()
    assert qf.is_indecomposable(rep)
    assert qf.is_isomorphic(qf.twist_auto(rot, rep), rep)


def test_ii_classes_reduction_matches_direct(a3_flip, F2):
    q, flip = a3_flip
    free = qf.ii_classes(flip, (1, 2, 1), F2)
    tight = qf.ii_classes(flip, (1, 2, 1), F2, state_cap=8)
    assert len(tight) == len(free) == 1
    assert tight[0].period == free[0].period
    assert sorted(tight[0].member_dims) == sorted(free[0].member_dims)


@pytest.mark.parametrize("order_bound", [1, 3])
def test_twist_orbit_engine_checks_orbit_length(a3_flip, F2, order_bound):
    # the flip's twist orbits at (1, 0, 0) and (0, 0, 1) have length 2, which
    # neither fits in 1 step nor divides 3
    q, flip = a3_flip
    engine = theorems._TwistOrbitEngine(flip, F2, 1, 0, 2**24)
    assert engine.order_bound == 2
    engine.order_bound = order_bound
    with pytest.raises(TwistPeriodBroken):
        engine.orbits((1, 0, 1))


def test_ii_classes_checks_folded_root(a3_flip, F2, monkeypatch):
    class NonRoot:
        kind = "nonroot"

    monkeypatch.setattr(theorems, "classify", lambda lat, v: NonRoot)
    with pytest.raises(CrossCheckFailed):
        qf.ii_classes(a3_flip[1], (1, 2, 1), F2)


def test_engine_checks_the_twisted_class(counterexample, F5, monkeypatch):
    # a twist that lands on no computed class breaks the reduction chain
    from quiverfold import catalog

    twisted_class = catalog.twisted_class
    monkeypatch.setattr(
        catalog,
        "twisted_class",
        lambda cat, ci, b, s: (twisted_class(cat, ci, b, s)[0], cat.n_classes),
    )
    with pytest.raises(CrossCheckFailed, match="twisting left the computed class sets"):
        qf.ii_classes(counterexample[1], (1, 1, 1, 1, 1), F5)


def test_ii_classes_unmaterialised_base(a3_flip, F2):
    # the base class is reached only through reflection, and its
    # representative is reflected back from the bottom of the chain
    q, flip = a3_flip
    classes = qf.ii_classes(flip, (1, 2, 1), F2, state_cap=1)
    assert len(classes) == 1
    c = classes[0]
    assert c.period == 2
    assert not c.direct
    base = c.base_representation()
    assert base.quiver == q
    assert base.dims == c.base_dims
    assert qf.is_indecomposable(base)


def test_ii_classes_refuses_irreducible_blowup(counterexample, F5):
    q, rot = counterexample
    with pytest.raises(BudgetExceeded) as ei:
        qf.ii_classes(rot, (1, 1, 1, 1, 1), F5, state_cap=100)
    assert ei.value.predicted is not None
    assert ei.value.predicted > 100


def test_species_count_frozen_values(pair21):
    frozen = {
        (1, 0): 1,
        (0, 1): 1,
        (2, 0): 0,
        (0, 2): 0,
        (1, 1): 1,
        (2, 1): 0,
        (1, 2): 1,
        (2, 2): 0,
        (1, 3): 0,
    }
    for alpha, want in frozen.items():
        assert qf.species_count(pair21, alpha, 2) == want, alpha


def test_species_count_field_spec_forms(pair21):
    assert qf.species_count(pair21, (1, 1), "2") == 1
    assert qf.species_count(pair21, (1, 1), 3) == 1
    assert qf.species_count(pair21, (1, 1), "4") == qf.species_count(pair21, (1, 1), "2^2") == 1
    with pytest.raises(NotPrime):
        qf.species_count(pair21, (1, 1), 6)
    with pytest.raises(NotPrime):
        qf.species_count(pair21, (1, 1), "2^")


def test_species_field_degree_below_one_refused(pair21):
    # the refusal names the spec, not the degree it would have led to
    with pytest.raises(NotPrime, match=r"^field spec '2\^0' is not a prime power"):
        qf.verify_species_theorem(pair21, "2^0", 0)
    with pytest.raises(NotPrime, match=r"^field spec '2\^-1' is not a prime power"):
        qf.species_count(pair21, (1, 0), "2^-1")


def test_species_count_refuses_negative_alpha(pair21):
    with pytest.raises(LatticeMismatch, match="^dimensions must be non-negative$"):
        qf.species_count(pair21, (1, -1), 3)


def test_species_count_budget():
    # the (4, 1)-weighted edge unfolds to the four-pointed star; at the
    # null root no orbit reflection lowers the height, so the oversized
    # state space is refused rather than sampled
    vq = qf.make_valued_quiver(["u", "v"], [4, 1], [("u", "v", 4)])
    with pytest.raises(BudgetExceeded) as ei:
        qf.species_count(vq, (1, 2), 2)
    assert ei.value.predicted == 16**8


_PAIR21 = qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 2)])
_PAIR41 = qf.make_valued_quiver(["u", "v"], [4, 1], [("u", "v", 4)])
_DTILDE4_4CYCLE = qf.build_dtilde4()[1]
_STAR = qf.build_dtilde4()[0]
_ROTATION = qf.build_counterexample()[1]


@pytest.mark.parametrize(
    "job, predicted",
    [
        (lambda: qf.species_count(_PAIR41, (1, 2), 2), 16**8),
        # no reflection moves the null root (1,1,1,1,2), whose 3^8 states
        # exceed this cap
        (lambda: qf.verify_kac(_STAR, qf.make_field(3), 6, state_cap=3**7), 3**8),
        # every vector visited before 2δ = (2,2,2,2,4), with its 32 entries,
        # reflects to a unit vector, a vector with no entries or a certificate
        (lambda: qf.verify_kac(_STAR, qf.make_field(2), 12), 2**32),
        # the first oversized vector the twist engine plans is (1,1,1,1,1),
        # with its 6 entries: no smaller vector lies on a twist orbit that
        # sums to a lift of the sweep
        (lambda: qf.verify_main_theorem(_ROTATION, qf.make_field(5), 2, state_cap=100), 5**6),
        (lambda: qf.verify_species_theorem(_PAIR41, 2, 3, state_cap=2**16), 16**8),
        (lambda: qf.multiset_crosscheck(_STAR, qf.make_field(2), 6, state_cap=2**8), 2**9),
    ],
    ids=["species_count", "verify_kac", "verify_kac_2delta", "verify_main", "verify_species",
         "multisets"],
)
def test_refusal_builds_nothing(monkeypatch, job, predicted):
    # every job plans its vectors before the first build, so an oversized
    # job refuses with the figure enumeration would have met, having built
    # no catalog at all
    from quiverfold import catalog, labelling

    def no_build(*args):
        raise RuntimeError("a catalog was built")

    monkeypatch.setattr(labelling, "_orbit_labels", no_build)
    stored = dict(catalog._STORE)
    with pytest.raises(BudgetExceeded, match="before any catalog was built") as ei:
        job()
    assert ei.value.predicted == predicted
    assert catalog._STORE == stored


def test_huge_height_refused_at_once(a3, F2):
    # a height sweep counts its grid before it walks a vector of it
    calls = [
        (lambda: qf.positive_roots_up_to(_PAIR21.lattice, 10**5), comb(10**5 + 2, 2) - 1),
        (lambda: qf.verify_kac(a3, F2, 1000), comb(1003, 3) - 1),
        (lambda: qf.multiset_crosscheck(a3, F2, 1000), comb(1003, 3) - 1),
    ]
    for call, predicted in calls:
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="exceed the sweep cap of 1000000$") as ei:
            call()
        assert time.perf_counter() - start < 0.25
        assert ei.value.predicted == predicted


@pytest.mark.parametrize(
    "quiver, q, height",
    [(_STAR, 2, 6), (qf.build_a3_flip()[0], 3, 4)],
    ids=["star-gf2", "a3-gf3"],
)
def test_verify_kac_counts_match_direct_enumeration(quiver, q, height):
    # the reflection chains against a catalog of every vector itself
    fld = qf.make_field(q)
    counts = {r.vector: r.count for r in qf.verify_kac(quiver, fld, height).records}
    for d in _nonneg_vectors(len(quiver.vertices), height):
        direct = qf.isoclasses(quiver, d, fld).indec_class_ids()
        assert counts.get(d, 0) == len(direct), d


def test_verify_kac_counts_past_the_cap_by_reflection():
    # (0,0,0,3,3) holds 3^9 states, past the cap; Kac's check is the folded
    # check at the identity, so sink/source reflection counts it in a
    # smaller space
    capped = qf.verify_kac(_STAR, qf.make_field(3), 6, state_cap=3**8)
    assert capped.passed
    assert len(capped.records) == 25
    assert capped.to_dict() == qf.verify_kac(_STAR, qf.make_field(3), 6).to_dict()


def test_verify_kac_is_the_folded_check_at_the_identity(F2):
    kac = qf.verify_kac(_STAR, F2, 6)
    folded = qf.verify_main_theorem(qf.Automorphism.identity(_STAR), F2, 6)
    assert kac.passed and folded.passed
    assert [(r.vector, r.kind, r.count) for r in kac.records] == [
        (r.vector, r.kind, r.count) for r in folded.records
    ]


def test_refusal_names_reduced_vector_and_field():
    with pytest.raises(BudgetExceeded) as ei:
        qf.species_count(_PAIR41, (1, 2), 2)
    assert str(ei.value) == (
        "state space at dims (1, 1, 1, 1, 2) over GF(16) holds 16^8 = 4294967296 "
        "representations, cap is 16777216; no sink or source orbit reflection "
        "reduces the height; refused while planning, before any catalog was built"
    )


def test_verify_kac_a2(a2, F2):
    report = qf.verify_kac(a2, F2, 3)
    assert report.passed
    assert report.title == "kac dimension-vector check"
    assert report.field_spec == "2"
    counts = {r.vector: r.count for r in report.records}
    assert counts == {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert report.lines()[0] == "kac dimension-vector check: field 2, height 3"
    assert report.lines()[-1] == "PASS"


def test_verify_main_small(a3_flip, F2):
    q, flip = a3_flip
    with pytest.warns(CharacteristicWarning):
        report = qf.verify_main_theorem(flip, F2, 2)
    assert report.passed
    rows = {r.vector: r for r in report.records}
    assert set(rows) == {(0, 1), (1, 0), (1, 1)}
    assert rows[(1, 0)].periods == (2,)
    assert rows[(1, 0)].expected_length == 2
    assert rows[(0, 1)].periods == (1,)
    assert rows[(1, 1)].periods == (1,)
    assert rows[(1, 1)].expected_length == 1


def test_verify_main_reports_classes_at_a_nonroot(a3_flip, F3, monkeypatch):
    # a folded non-root that carries a class is a counterexample: the report
    # fails with its witness instead of raising
    classify = theorems.classify

    class NonRoot:
        kind = "nonroot"

    monkeypatch.setattr(
        theorems,
        "classify",
        lambda lat, v: NonRoot if tuple(v) == (1, 1) else classify(lat, v),
    )
    report = qf.verify_main_theorem(a3_flip[1], F3, 2)
    assert not report.passed
    assert report.witnesses == ("(1, 1) is not a folded root but has 1 class(es)",)
    rows = {r.vector: r for r in report.records}
    assert rows[(1, 1)].kind == "nonroot"
    assert rows[(1, 1)].periods == (1,)
    assert rows[(1, 1)].expected_length is None


def test_verify_kac_reports_class_count_at_a_real_root(F2, monkeypatch):
    # the Kronecker quiver has q + 1 indecomposables at its imaginary root
    # (1, 1); called real, the root carries too many classes
    kronecker = qf.validate_quiver(["u", "v"], [("r", "u", "v"), ("s", "u", "v")])
    classify = theorems.classify

    class Real:
        kind = "real"

    monkeypatch.setattr(
        theorems,
        "classify",
        lambda lat, v: Real if tuple(v) == (1, 1) else classify(lat, v),
    )
    report = qf.verify_kac(kronecker, F2, 2)
    assert not report.passed
    assert report.witnesses == ("real root (1, 1) has 3 indecomposable classes, not 1",)
    assert report.lines()[-1] == "FAIL " + report.witnesses[0]


def test_verify_main_reports_summands_against_root_length(a3_flip, F3, monkeypatch):
    root_length = theorems.root_length
    monkeypatch.setattr(
        theorems,
        "root_length",
        lambda fd, w: 3 if tuple(w) == (1, 0) else root_length(fd, w),
    )
    report = qf.verify_main_theorem(a3_flip[1], F3, 2)
    assert not report.passed
    assert report.witnesses == (
        "real folded root (1, 0): class has 2 summands, root length is 3",
    )
    rows = {r.vector: r for r in report.records}
    assert rows[(1, 0)].periods == (2,)
    assert rows[(1, 0)].expected_length == 3


def test_verify_main_three_cycle_report_frozen(dtilde4):
    # over GF(2) the 3-cycle has no twist-orbit sum at the imaginary folded
    # root (1, 1, 2); the whole report is frozen
    report = qf.verify_main_theorem(dtilde4[2], qf.make_field(2), 4)
    assert report.lines() == [
        "folded dimension-vector check: field 2, height 4",
        "  (0, 0, 1)  real      classes=1 periods=[1] expected_length=1",
        "  (0, 1, 0)  real      classes=1 periods=[1] expected_length=1",
        "  (0, 1, 1)  real      classes=1 periods=[1] expected_length=1",
        "  (1, 0, 0)  real      classes=1 periods=[3] expected_length=3",
        "  (1, 0, 1)  real      classes=1 periods=[1] expected_length=1",
        "  (1, 0, 2)  real      classes=1 periods=[1] expected_length=1",
        "  (1, 0, 3)  real      classes=1 periods=[3] expected_length=3",
        "  (1, 1, 1)  real      classes=1 periods=[1] expected_length=1",
        "  (1, 1, 2)  imaginary classes=0",
        "FAIL imaginary folded root (1, 1, 2) has no class",
    ]


def test_verify_main_counterexample_slice(counterexample, F5):
    q, rot = counterexample
    report = qf.verify_main_theorem(rot, F5, 2)
    assert report.passed
    rows = {r.vector: r for r in report.records}
    assert rows[(1, 0)].kind == "real"
    assert rows[(1, 0)].periods == (3,)
    assert rows[(0, 1)].periods == (2,)
    assert rows[(1, 1)].kind == "imaginary"
    assert rows[(1, 1)].periods == (1,)
    assert rows[(1, 1)].expected_length is None


def test_verify_species_smoke(pair21):
    report = qf.verify_species_theorem(pair21, 2, 2)
    assert report.passed
    assert report.field_spec == "2"
    rows = {r.vector: r for r in report.records}
    assert rows[(1, 1)].count == 1
    assert (2, 2) not in rows
    # at height 0 there is no alpha, so nothing is unfolded: GF(2^32) would
    # exceed the extension degree cap
    empty = qf.verify_species_theorem(_PAIR41, "2^8", 0)
    assert empty.passed
    assert empty.records == ()
    assert empty.field_spec == "2^8"


@pytest.mark.parametrize(
    "job, distinct",
    [
        (lambda: qf.verify_main_theorem(_DTILDE4_4CYCLE, qf.make_field(3), 3), 51),
        (lambda: qf.verify_species_theorem(_PAIR21, 3, 4), 30),
        (lambda: qf.verify_kac(_STAR, qf.make_field(2), 4), 125),
    ],
    ids=["verify_main", "verify_species", "verify_kac"],
)
def test_one_plan_per_job(monkeypatch, job, distinct):
    # one engine plans the whole job, so each vector visited is reduced once
    seen = []
    reduce_context = theorems._reduce_context

    def counted(a, lat, beta, fld, state_cap):
        seen.append(beta)
        return reduce_context(a, lat, beta, fld, state_cap)

    monkeypatch.setattr(theorems, "_reduce_context", counted)
    job()
    assert len(seen) == len(set(seen)) == distinct


@pytest.mark.parametrize(
    "job, distinct",
    [
        (lambda: qf.verify_main_theorem(_DTILDE4_4CYCLE, qf.make_field(3), 3), 15),
        (lambda: qf.verify_species_theorem(_PAIR21, 3, 4), 6),
        (lambda: qf.verify_kac(_STAR, qf.make_field(2), 4), 0),
    ],
    ids=["verify_main", "verify_species", "verify_kac"],
)
def test_one_twist_per_handle(monkeypatch, job, distinct):
    # the engine keeps each handle's twist, so each handle is twisted once;
    # the identity twist keeps every handle without twisting it
    seen = []
    t_handle = theorems._TwistOrbitEngine.t_handle

    def counted(self, h):
        seen.append(h)
        return t_handle(self, h)

    monkeypatch.setattr(theorems._TwistOrbitEngine, "t_handle", counted)
    job()
    assert len(seen) == len(set(seen)) == distinct


def _base_representations():
    classes = qf.ii_classes(_DTILDE4_4CYCLE, (1, 1, 1, 1, 2), qf.make_field(3))
    return [c.base_representation() for c in classes]


@pytest.mark.parametrize(
    "job, builds",
    [
        (lambda: qf.verify_main_theorem(qf.build_dtilde4()[2], qf.make_field(2), 4), 1),
        (lambda: qf.verify_species_theorem(_PAIR21, 3, 4), 1),
        # the engine's only: each class keeps the chain its engine planned
        (_base_representations, 1),
    ],
    ids=["verify_main", "verify_species", "base_representation"],
)
def test_one_lattice_per_job(monkeypatch, job, builds):
    # a reflection keeps the quiver's lattice, so an engine builds it once
    # for all the vectors it reduces
    calls = []
    real = theorems.quiver_lattice

    def counted(quiver):
        calls.append(quiver)
        return real(quiver)

    monkeypatch.setattr(theorems, "quiver_lattice", counted)
    job()
    assert len(calls) == builds


def test_base_representation_reads_the_planned_chain(monkeypatch):
    # the chain is not planned again, and a bottom catalog dropped from the
    # store is rebuilt under its own state count
    classes = qf.ii_classes(_DTILDE4_4CYCLE, (1, 1, 1, 1, 2), qf.make_field(3))
    first = [c.base_representation() for c in classes]
    plans = []
    monkeypatch.setattr(theorems, "_reduce_context", lambda *args: plans.append(args))
    qf.clear_catalog_store()
    assert [c.base_representation() for c in classes] == first
    assert plans == []


# twist-orbit engines and the height of the sweep that visits their boxes
_ENGINES = {
    "flip-gf3": (lambda: theorems._auto_engine(qf.build_a3_flip()[1], qf.make_field(3), 2**24), 6),
    "3cycle-gf2": (lambda: theorems._auto_engine(qf.build_dtilde4()[2], qf.make_field(2), 2**24), 4),
    "4cycle-gf2": (lambda: theorems._auto_engine(_DTILDE4_4CYCLE, qf.make_field(2), 2**24), 4),
    "rotation-gf5": (lambda: theorems._auto_engine(_ROTATION, qf.make_field(5), 2**24), 3),
    "species21-q3": (lambda: theorems._species_engine(_PAIR21, 3, 2**24), 4),
}


def _sweep_targets(engine, height):
    """The lifts that a root sweep up to height visits, in its order."""
    n = len(engine.a.vertex_orbits)
    return [f_inverse(engine.a, alpha) for alpha in _nonneg_vectors(n, height)]


@pytest.mark.parametrize("make_engine, height", _ENGINES.values(), ids=_ENGINES.keys())
def test_pruned_box_changes_no_orbit(monkeypatch, make_engine, height):
    # the same orbits sum to every sweep target over the pruned box as over
    # the whole box below it, which plans more vectors
    pruned, full = make_engine(), make_engine()
    monkeypatch.setattr(full, "box", lambda d: tuple(_box(d)))
    for d in _sweep_targets(pruned, height):
        assert pruned.orbits_summing_to(d) == full.orbits_summing_to(d), d
    assert len(pruned.contexts) < len(full.contexts)


@pytest.mark.parametrize("make_engine, height", _ENGINES.values(), ids=_ENGINES.keys())
def test_box_is_the_divisibility_rule(make_engine, height):
    # beta is kept exactly when d = m*S(beta) for an integer m >= 1, with
    # S(beta) the sum of beta's distinct twists, found here by stepping the
    # twist; a target that the twist moves keeps nothing
    engine = make_engine()

    def kept(beta, d):
        orbit = _orbit(beta, lambda b: act_on_dimension_vector(engine.twist, b))
        s = tuple(map(sum, zip(*orbit)))
        m, rem = divmod(sum(d), sum(s))
        return not rem and d == tuple(m * x for x in s)

    unit = (1,) + (0,) * (len(engine.a.quiver.vertices) - 1)
    for d in [*_sweep_targets(engine, height), unit]:
        assert list(engine.box(d)) == [beta for beta in _box(d) if kept(beta, d)], d


def test_main_theorem_reaches_past_an_unneeded_vector():
    # no twist orbit of (1,1,1,1,2), with 7^9 states over the cap, sums to a
    # lift of this sweep, so the job never plans it
    report = qf.verify_main_theorem(_ROTATION, qf.make_field(7), 3)
    assert report.passed
    assert [r.vector for r in report.records] == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]


def test_multiset_crosscheck(a2, F2):
    report = qf.multiset_crosscheck(a2, F2, 4)
    assert report.passed
    rows = {r.vector: r for r in report.records}
    assert rows[(1, 1)].count == 2
    assert rows[(1, 1)].crosscheck == 2
    assert rows[(2, 2)].count == 3
    assert rows[(2, 2)].crosscheck == 3
    assert "multisets=3" in report.lines()[1 + list(rows).index((2, 2))]


def test_multiset_crosscheck_reports_a_hidden_class(a2, F2, monkeypatch):
    # hiding one of the two indecomposables at (1, 1) leaves one multiset
    # for the catalog's two classes there
    from quiverfold.catalog import IsoClassCatalog

    indec_class_ids = IsoClassCatalog.indec_class_ids
    monkeypatch.setattr(
        IsoClassCatalog,
        "indec_class_ids",
        lambda self: indec_class_ids(self)[1:] if self.dims == (1, 1) else indec_class_ids(self),
    )
    report = qf.multiset_crosscheck(a2, F2, 2)
    assert not report.passed
    assert report.witnesses == (
        "(1, 1): catalog has 2 classes, multisets of indecomposables give 1",
    )
    rows = {r.vector: r for r in report.records}
    assert (rows[(1, 1)].count, rows[(1, 1)].crosscheck) == (2, 1)


def test_report_round_trip(a2, F2):
    report = qf.verify_kac(a2, F2, 2)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert doc["title"] == report.title
    assert doc["field"] == "2"
    assert doc["height"] == 2
    assert len(doc["records"]) == len(report.records)
    assert doc["records"][0]["vector"] == list(report.records[0].vector)
