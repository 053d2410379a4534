"""Desk-scale verification of the dimension-vector theorems.

The counting statements all follow one pattern: enumerate indecomposable
classes over boxes of dimension vectors, group them into orbits under a
twist (by the automorphism, by Frobenius, or by a composite of both), and
compare the orbit counts against the root data of the folded form.

The three root theorems (Kac's, the folded one and the species one) are one
statement, and one sweep, ``_check_roots``, checks it on a twist engine:
it counts the twist orbits summing to the lift of every nonzero vector up
to the height bound and holds them to three rules.  A non-root has no orbit;
a real root has exactly one, with as many summands as the root's length
where a length is given; an imaginary root has at least one.  Kac's check
is the folded one at the identity automorphism.

Every vector is counted at the bottom of its chain of reflections: at a
vertex orbit that is entirely sinks or entirely sources, the reflection
functors give a twist-compatible bijection between indecomposable classes at
d and at the reflected dimension vector, so counting moves to the lower
side.  A step reorients the quiver at that one sink or source orbit; the
orbits, the symmetric form and the twist stay the job's.  The chain ends
at a vector with no matrix entries, where the zero maps are indecomposable
exactly at a unit vector; at a negative entry, which certifies that no
indecomposable exists; or where no reflection lowers the height.  Only
that last end builds a catalog, and ``gf._check_states``, the one size
check of every build and plan, refuses an oversized one with its figure.

Every twist-orbit job runs on one ``_TwistOrbitEngine``, which owns the
job's plan: the reduction context of each vector the job will visit is
fixed first, in visiting order, from state-space sizes alone, once per
vector.  A job that cannot fit its cap or the field's dense tables
therefore refuses at the vector it would have failed at, having built no
catalog.  ``catalog``, and numpy with it, is imported only where a catalog
is built, so a twist-engine job whose chains all end without one, or that
is refused while planning, never loads numpy.  An ``IIClass`` keeps its
engine's reduction context; ``reps`` loads only to materialise it.

The engine plans, reduces and catalogs only the vectors that can contribute
to a target d: the nonzero beta <= d with d = m*S(beta) for an integer
m >= 1, where p is beta's period under the twist's automorphism t and
S(beta) = beta + t beta + ... + t^(p-1) beta.  This loses nothing: a handle
at beta has a period r that is a multiple of p (Frobenius keeps dimension
vectors), so its orbit's dimension vectors sum to (r/p)*S(beta).

The engine's twist is one datum, ``(power, frobenius)``: the
``frobenius``-th Frobenius power, then the automorphism ``a**power``.  An
automorphism job twists by (1, 0), a species job by (-1, m) on the
unfolding, m the base field's degree; ``catalog.twisted_class`` takes one
step of either, with ``a**power`` carried to the bottom's orientation.
``skew`` loads only for a species job, to unfold.
"""

from __future__ import annotations

import warnings
from math import gcd, lcm
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .cartan import CartanLattice, ValuedQuiver, f_inverse, f_map, fold, quiver_lattice, root_length
from .errors import CharacteristicWarning, CrossCheckFailed, NotFixed
from .gf import FiniteField, _check_states, make_field, prime_power
from .quiver import Automorphism, Quiver, _box, _cycles, _orbit, act_on_dimension_vector, _record
from .roots import _nonneg_vectors, apply_reflections, classify

if TYPE_CHECKING:
    from .reps import Representation

Vec = tuple[int, ...]


# --- reflection reduction ---


@_record
class _ReductionContext:
    """Where the indecomposable classes at one dimension vector are counted:
    possibly on a reorientation of the job's quiver at a smaller vector,
    which is all that a reflection changes."""

    quiver: Quiver
    dims: Vec
    steps: tuple[tuple[tuple[str, ...], str], ...]


def _reduce_context(
    a: Automorphism, lat: CartanLattice, beta: Vec, fld: FiniteField, state_cap: int
) -> _ReductionContext | None:
    """Reflect beta at sink and source orbits to the bottom of its chain.

    Each step takes the orbit reflection that lowers the height most, the
    earliest orbit on a tie.  The chain stops at a vector with no matrix
    entries, whose one representation is the zero maps, or where no
    reflection lowers the height.  Returns None when a reflection lands
    outside the positive cone, which certifies that no indecomposable of
    dims beta exists at all.  The bottom's state space goes through
    ``gf._check_states``, which refuses it while planning.  Builds no
    catalog.  ``lat`` is the quiver's lattice, which a reflection leaves as
    it is: it reads only the underlying graph.
    """
    q = a.quiver
    cur_dims = q.check_vector(beta)
    steps: list[tuple[tuple[str, ...], str]] = []
    while q.entry_count(cur_dims):
        best = None
        for orbit in a.vertex_orbits:
            if all(q.is_sink(v) for v in orbit):
                direction = "+"
            elif all(q.is_source(v) for v in orbit):
                direction = "-"
            else:
                continue
            # an orbit's vertices are pairwise non-adjacent: its reflections commute
            new_dims = apply_reflections(lat, orbit, cur_dims)
            if min(new_dims) < 0:
                return None
            if sum(new_dims) < sum(best[2] if best else cur_dims):
                best = (orbit, direction, new_dims)
        if best is None:
            note = "; no sink or source orbit reflection reduces the height"
            _check_states(q, cur_dims, fld, state_cap, beta if steps else None, note, planned=True)
            break
        orbit, direction, cur_dims = best
        steps.append((orbit, direction))
        q = q.reversed_at(orbit)
    return _ReductionContext(q, cur_dims, tuple(steps))


# --- twist-orbit engine ---

Handle = tuple  # (base_dims, class_id); the plan at base_dims holds the rest


class _TwistOrbitEngine:
    """Indecomposable class handles over boxes of dimension vectors and
    their orbits under one twist, the ``frobenius``-th Frobenius power and
    then the automorphism ``a**power``: the state of one twist-orbit job."""

    def __init__(
        self, a: Automorphism, fld: FiniteField, power: int, frobenius: int, state_cap: int
    ):
        self.a = a
        self.field = fld
        self.twist = a.power(power)
        # the twist's vertex orbits as positions, each in the order t walks it
        idx = a.quiver.vertex_index
        self.orbit_ids = tuple(tuple(map(idx.__getitem__, o)) for o in self.twist.vertex_orbits)
        self.frobenius = frobenius
        self.order_bound = a.order
        self.state_cap = state_cap
        self.lattice = quiver_lattice(a.quiver)
        # each handle is its own orbit, at its own d
        self.trivial = self.twist.is_identity and frobenius % fld.m == 0
        self.boxes: dict[Vec, Sequence[Vec]] = {}
        self.contexts: dict[Vec, _ReductionContext | None] = {}
        self.handles: dict[Vec, tuple[Handle, ...]] = {}
        self.images: dict[Handle, Handle] = {}  # handle -> its twist

    def plan(self, targets: Iterable[Vec]) -> None:
        """Fix the box of every target and the reduction context of every
        vector in it, in the order given, each once.

        A job runs this over every target it visits before its first catalog
        is built, so an oversized job refuses at the vector it would have
        refused at.
        """
        for d in targets:
            if d in self.boxes:
                continue
            self.boxes[d] = self.box(d)
            for beta in self.boxes[d]:
                if beta not in self.contexts:
                    self.contexts[beta] = _reduce_context(
                        self.a, self.lattice, beta, self.field, self.state_cap
                    )

    def handles_at(self, beta: Vec) -> tuple[Handle, ...]:
        """Handles at a vector of the planned box."""
        if beta in self.handles:
            return self.handles[beta]
        ctx = self.contexts[beta]
        if ctx is None:
            ids = ()
        elif not ctx.quiver.entry_count(ctx.dims):
            # the zero maps are indecomposable exactly at a unit vector
            ids = (0,) if sum(ctx.dims) == 1 else ()
        else:
            from .catalog import isoclasses

            cat = isoclasses(ctx.quiver, ctx.dims, self.field, state_cap=self.state_cap)
            ids = cat.indec_class_ids()
        self.handles[beta] = hs = tuple((beta, cid) for cid in ids)
        return hs

    def box(self, d: Vec) -> Sequence[Vec]:
        """The vectors whose handles can lie on an orbit summing to d.

        Let t be the twist's automorphism ``a**power``; Frobenius keeps
        dimension vectors.  A handle at beta has a period r that is a
        multiple of beta's period p under t, so its orbit's dimension vectors
        sum to (r/p)*S(beta), where S(beta) = beta + t beta + ... +
        t^(p-1) beta.  The box is therefore the nonzero beta <= d with
        d = m*S(beta) for an integer m >= 1.  On a vertex orbit O of t,
        S(beta) is p/|O| times beta's sum over O, so the test asks for one
        r = m*p with |O|*d_v = r*(beta's sum over O) at every v in O; summed
        over all vertices, r = |d|/|beta|.  The box is t-stable, as the
        twist check in ``t_handle`` needs.
        """
        if self.trivial:
            return (d,)
        if any(d[i] != d[ids[0]] for ids in self.orbit_ids for i in ids):
            return ()  # d is not t-stable, so no orbit sums to it
        totals = [(ids, len(ids) * d[ids[0]]) for ids in self.orbit_ids]
        size = sum(d)

        def rotate(seq: tuple) -> tuple:
            return seq[1:] + seq[:1]

        def keep(beta: Vec) -> bool:
            r = size // sum(beta)
            p = 1  # beta's period under t: the lcm of its rotation periods on the orbits
            for ids, total in totals:
                seq = tuple(beta[i] for i in ids)
                if r * sum(seq) != total:
                    return False
                p = lcm(p, len(_orbit(seq, rotate)))
            return r % p == 0

        # r = |d|/|beta| must be an integer, the cheap test that most beta fail
        return [beta for beta in _box(d) if not size % sum(beta) and keep(beta)]

    def image(self, h: Handle) -> Handle:
        """The twist of a handle, computed once per job."""
        if self.trivial:
            return h
        if h not in self.images:
            self.images[h] = self.t_handle(h)
        return self.images[h]

    def t_handle(self, h: Handle) -> Handle:
        """The twist of a handle, stepped at the bottom that the plan gives beta."""
        beta, cid = h
        ctx = self.contexts[beta]
        qr, gamma = ctx.quiver, ctx.dims
        # a**power carried to the bottom's orientation: the same vertex and arrow images
        b = Automorphism(qr, self.twist.vertex_image, self.twist.arrow_image)
        beta2 = act_on_dimension_vector(b, beta)
        if qr.entry_count(gamma):
            from .catalog import isoclasses, twisted_class

            cat = isoclasses(qr, gamma, self.field, state_cap=self.state_cap)
            gamma2, cid2 = twisted_class(cat, cid, b, self.frobenius)
        else:
            gamma2, cid2 = act_on_dimension_vector(b, gamma), 0
        # the twisted class must sit at the bottom that the plan gives beta2
        ctx2 = self.contexts.get(beta2)
        planned = ctx2 is not None and (ctx2.quiver, ctx2.dims) == (qr, gamma2)
        if not planned or (beta2, cid2) not in self.handles_at(beta2):
            raise CrossCheckFailed(
                "twisting left the computed class sets; the reduction chain is "
                "not twist-stable"
            )
        return beta2, cid2

    def orbits(self, d: Vec) -> tuple[tuple[Handle, ...], ...]:
        self.plan([d])
        allh: list[Handle] = []
        for beta in self.boxes[d]:
            allh.extend(self.handles_at(beta))
        allh.sort()
        return _cycles(allh, self.image, self.order_bound)

    def orbits_summing_to(self, d: Vec) -> list[tuple[Handle, ...]]:
        """The orbits over d's box whose member dimension vectors add up to d."""
        return [o for o in self.orbits(d) if tuple(map(sum, zip(*(h[0] for h in o)))) == d]


# --- invariant-subfield indecomposables ---


@_record
class IIClass:
    """One isomorphism class of twist-orbit sums: the direct sum of the
    `period` successive automorphism twists of an indecomposable."""

    total_dims: Vec
    period: int
    member_dims: tuple[Vec, ...]
    base_dims: Vec
    base_class_id: int
    _auto: Automorphism
    _field: FiniteField
    _context: _ReductionContext  # the engine's plan for base_dims

    @property
    def summand_count(self) -> int:
        return self.period

    @property
    def direct(self) -> bool:
        """Whether the base class is counted at base_dims, with no reflection."""
        return not self._context.steps

    def base_representation(self) -> Representation:
        """The indecomposable whose twist orbit this class sums: the class's
        representative at the bottom of its reduction chain, reflected back
        up the chain.  A bottom catalog dropped from the store is rebuilt
        under its own state count."""
        from .reps import s_fold_functor, simple_representation

        ctx, fld = self._context, self._field
        qr = ctx.quiver
        if n := qr.entry_count(ctx.dims):
            from .catalog import isoclasses

            cat = isoclasses(qr, ctx.dims, fld, state_cap=fld.q**n)
            rep = cat.representative(self.base_class_id)
        else:
            rep = simple_representation(qr, fld, qr.vertices[ctx.dims.index(1)])
        for orbit, direction in reversed(ctx.steps):
            rep = s_fold_functor(self._auto, orbit, "-" if direction == "+" else "+", rep)
        return rep

    def representative(self) -> Representation:
        """Direct sum of the twist orbit of the base indecomposable."""
        from .reps import direct_sum_list, twist_auto

        members = [self.base_representation()]
        for _ in range(self.period - 1):
            members.append(twist_auto(self._auto, members[-1]))
        return direct_sum_list(members, self._auto.quiver, self._field)


def ii_classes(
    a: Automorphism,
    d: Sequence[int],
    fld: FiniteField,
    state_cap: int = 2**24,
) -> tuple[IIClass, ...]:
    """All twist-orbit-sum classes of total dimension vector d.

    d must be fixed by the automorphism.  Each returned class is the sum of
    one orbit {X, twist X, ..., twist^(r-1) X} of an indecomposable X whose
    member dimension vectors add up to d; r is both the orbit period and
    the number of indecomposable summands.
    """
    q = a.quiver
    dd = q.check_dims(d)
    if act_on_dimension_vector(a, dd) != dd:
        raise NotFixed(f"dimension vector {dd} is not fixed by the automorphism")
    if not any(dd):
        return ()
    engine = _auto_engine(a, fld, state_cap)
    out = []
    for orbit in engine.orbits_summing_to(dd):
        beta, cid = orbit[0]
        out.append(
            IIClass(
                total_dims=dd,
                period=len(orbit),
                member_dims=tuple(h[0] for h in orbit),
                base_dims=beta,
                base_class_id=cid,
                _auto=a,
                _field=fld,
                _context=engine.contexts[beta],
            )
        )
    if out:
        kind = classify(fold(a).lattice, f_map(a, dd)).kind
        if kind not in ("real", "imaginary"):
            raise CrossCheckFailed(
                f"dims {dd} carries twist-orbit sums but folds to a non-root"
            )
    return tuple(out)


def _auto_engine(a: Automorphism, fld: FiniteField, state_cap: int) -> _TwistOrbitEngine:
    """The engine of a job that twists by the automorphism a."""
    return _TwistOrbitEngine(a, fld, 1, 0, state_cap)


# --- species counting through the unfolded quiver ---


def _species_engine(vq: ValuedQuiver, q: int | str, state_cap: int) -> _TwistOrbitEngine:
    """The engine of a species job: the unfolding of vq over the big field
    (degree = base degree times the unfolding order), twisted by the inverse
    automorphism after base-field Frobenius."""
    from .skew import unfold

    p, mbase = prime_power(q)
    a = unfold(vq)
    return _TwistOrbitEngine(a, make_field(p, mbase * a.order), -1, mbase, state_cap)


def species_count(
    vq: ValuedQuiver,
    alpha: Sequence[int],
    q: int | str,
    state_cap: int = 2**24,
) -> int:
    """Number of indecomposable classes of the valued quiver at alpha over
    the q-element base field, counted through the unfolded quiver.

    Over the big field the indecomposables are grouped into orbits of the
    composite twist (inverse automorphism after base-field Frobenius);
    descent matches the orbits whose dimension vectors sum to the unfolding
    of alpha.
    """
    engine = _species_engine(vq, q, state_cap)
    d = engine.a.quiver.check_dims(f_inverse(engine.a, alpha))
    return len(engine.orbits_summing_to(d))


# --- theorem reports ---


@_record
class DimensionRecord:
    vector: Vec
    kind: str  # "real" | "imaginary" | "nonroot" | "any"
    count: int
    periods: tuple[int, ...] = ()
    expected_length: int | None = None
    crosscheck: int | None = None

    def to_dict(self) -> dict:
        return {
            "vector": list(self.vector),
            "kind": self.kind,
            "count": self.count,
            "periods": list(self.periods),
            "expected_length": self.expected_length,
            "crosscheck": self.crosscheck,
        }


@_record
class TheoremReport:
    title: str
    field_spec: str
    height: int
    records: tuple[DimensionRecord, ...]
    witnesses: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def lines(self) -> list[str]:
        out = [f"{self.title}: field {self.field_spec}, height {self.height}"]
        for r in self.records:
            bits = f"  {r.vector}  {r.kind:<9} classes={r.count}"
            if r.periods:
                bits += f" periods={list(r.periods)}"
            if r.expected_length is not None:
                bits += f" expected_length={r.expected_length}"
            if r.crosscheck is not None:
                bits += f" multisets={r.crosscheck}"
            out.append(bits)
        if self.passed:
            out.append("PASS")
        else:
            out.extend("FAIL " + w for w in self.witnesses)
        return out

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "field": self.field_spec,
            "height": self.height,
            "records": [r.to_dict() for r in self.records],
            "witnesses": list(self.witnesses),
            "passed": self.passed,
        }


def _check_roots(
    title: str,
    spec: str,
    height: int,
    lat: CartanLattice,
    make_engine: Callable[[], _TwistOrbitEngine],
    words: tuple[str, str, str],
    length: Callable[[Vec], int] | None = None,
) -> TheoremReport:
    """The sweep behind the three root theorems: classify every nonzero
    vector alpha of the lattice up to the height bound and hold the twist
    orbits summing to its lift, ``f_inverse(engine.a, alpha)``, to the theorem.

    ``make_engine()`` is called only when there is a vector, and the whole
    sweep is planned before the first catalog is built.  When ``length`` is
    given, each orbit's number of summands is recorded as its period.
    ``words`` is the check's wording: its root noun, the phrase for an
    empty root and the template of a class count, whose ``{es}`` is the
    plural ending, "(es)" at a non-root and "es" at a real root.
    """
    noun, none, counted = words
    alphas = list(_nonneg_vectors(len(lat.names), height))
    lifts: list[Vec] = []
    if alphas:
        engine = make_engine()
        lifts = [f_inverse(engine.a, alpha) for alpha in alphas]
        engine.plan(lifts)
    records = []
    witnesses = []
    for alpha, d in zip(alphas, lifts):
        kind = classify(lat, alpha).kind
        found = engine.orbits_summing_to(d)
        n = len(found)
        periods = tuple(len(o) for o in found) if length else ()
        exp = length(alpha) if length and kind == "real" else None
        if n or kind != "nonroot":
            records.append(DimensionRecord(alpha, kind, n, periods, exp))
        if kind == "nonroot" and n:
            has = counted.format(n=n, es="(es)")
            witnesses.append(f"{alpha} is not a {noun} but has {has}")
        elif kind == "real" and n != 1:
            has = counted.format(n=n, es="es")
            witnesses.append(f"real {noun} {alpha} has {has}, not 1")
        elif exp is not None and periods[0] != exp:
            witnesses.append(
                f"real {noun} {alpha}: class has {periods[0]} summands, "
                f"root length is {exp}"
            )
        elif kind == "imaginary" and n == 0:
            witnesses.append(f"imaginary {noun} {alpha} has {none}")
    return TheoremReport(title, spec, height, tuple(records), tuple(witnesses))


def verify_kac(
    quiver: Quiver,
    fld: FiniteField,
    height: int,
    state_cap: int = 2**24,
) -> TheoremReport:
    """Indecomposable dimension vectors up to the height bound are exactly
    the positive roots, with exactly one class at each real root: the folded
    check at the identity automorphism, whose folded form is the quiver's."""
    return _check_roots(
        "kac dimension-vector check",
        fld.spec,
        height,
        quiver_lattice(quiver),
        lambda: _auto_engine(Automorphism.identity(quiver), fld, state_cap),
        ("root", "no indecomposable class", "{n} indecomposable class{es}"),
    )


def verify_main_theorem(
    a: Automorphism,
    fld: FiniteField,
    height: int,
    state_cap: int = 2**24,
) -> TheoremReport:
    """Twist-orbit-sum classes realise exactly the positive roots of the
    folded form, and at each real root the single class has as many
    indecomposable summands as the root's length."""
    if gcd(fld.q, a.order) != 1:
        warnings.warn(
            CharacteristicWarning(
                f"field size {fld.q} shares a factor with the automorphism "
                f"order {a.order}; the counting statements are outside their "
                "intended characteristic"
            )
        )
    fd = fold(a)
    return _check_roots(
        "folded dimension-vector check",
        fld.spec,
        height,
        fd.lattice,
        lambda: _auto_engine(a, fld, state_cap),
        ("folded root", "no class", "{n} class{es}"),
        length=lambda alpha: root_length(fd, alpha),
    )


def verify_species_theorem(
    vq: ValuedQuiver,
    q: int | str,
    height: int,
    state_cap: int = 2**24,
) -> TheoremReport:
    """Species counts are positive exactly on the positive roots of the
    valued quiver's form, and equal to one on the real ones."""
    return _check_roots(
        "species counting check",
        make_field(*prime_power(q)).spec,
        height,
        vq.lattice,
        lambda: _species_engine(vq, q, state_cap),
        ("root", "species count 0", "species count {n}"),
    )


def multiset_crosscheck(
    quiver: Quiver,
    fld: FiniteField,
    height: int,
    state_cap: int = 2**24,
) -> TheoremReport:
    """Krull-Remak-Schmidt consistency: the number of isomorphism classes at
    every dimension vector equals the number of multisets of indecomposable
    classes with that dimension sum."""
    n = len(quiver.vertices)
    grid = [tuple([0] * n)] + sorted(_nonneg_vectors(n, height), key=lambda v: (sum(v), v))
    from .catalog import isoclasses, plan_isoclasses

    plan_isoclasses(quiver, grid, fld, state_cap)
    items: list[Vec] = []
    class_counts: dict[Vec, int] = {}
    for d in grid:
        cat = isoclasses(quiver, d, fld, state_cap=state_cap)
        class_counts[d] = cat.n_classes
        items.extend([d] * len(cat.indec_class_ids()))
    ways = {d: 0 for d in grid}
    ways[grid[0]] = 1
    for v in items:
        for d in grid:
            prev = tuple(x - y for x, y in zip(d, v))
            if all(x >= 0 for x in prev):
                ways[d] += ways[prev]
    records = []
    witnesses = []
    for d in grid:
        records.append(DimensionRecord(d, "any", class_counts[d], crosscheck=ways[d]))
        if ways[d] != class_counts[d]:
            witnesses.append(
                f"{d}: catalog has {class_counts[d]} classes, multisets of "
                f"indecomposables give {ways[d]}"
            )
    return TheoremReport(
        "direct-sum multiset crosscheck",
        fld.spec,
        height,
        tuple(records),
        tuple(witnesses),
    )
