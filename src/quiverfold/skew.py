"""Unfolding valued quivers and the skew-quiver construction.

Unfolding replaces a valued vertex of weight d by d plain copies and each
valued edge by parallel arrows spread over congruent copy pairs; the cyclic
copy shift is then an admissible automorphism that folds back to the valued
quiver we started from.

The skew quiver of (Q, a) replaces each vertex orbit 𝐢 of size d by n/d
labelled copies (𝐢, μ) and distributes every arrow orbit over residue
classes; the shift ã(𝐢, μ) = (𝐢, μ+1) is again admissible.  Applying the
construction twice, both times with n the order of a, returns the original
pair up to isomorphism, which `double_skew_check` verifies by trying each
rotation of every orbit's copies.
"""

from __future__ import annotations

from functools import cached_property
from itertools import permutations, product
from math import gcd, lcm

from .cartan import FoldData, ValuedQuiver, fold
from .errors import BudgetExceeded, NotUnfoldable
from .quiver import (
    Automorphism,
    Quiver,
    _orbit,
    _record,
    validate_automorphism,
    validate_quiver,
)


def _copies(names, counts) -> tuple[list[str], dict[str, str]]:
    """The copies "v:mu" of each vertex v, for mu below its count, and the
    cyclic shift "v:mu" -> "v:mu+1" on them."""
    vertices: list[str] = []
    shift: dict[str, str] = {}
    for v, cnt in zip(names, counts):
        for mu in range(cnt):
            vertices.append(f"{v}:{mu}")
            shift[f"{v}:{mu}"] = f"{v}:{(mu + 1) % cnt}"
    return vertices, shift


def unfold(vq: ValuedQuiver) -> Automorphism:
    """Unfold a valued quiver into (plain quiver, copy-shift automorphism).

    The returned automorphism carries the quiver; its orbit fold returns the
    input valued graph.  Vertex (i, mu) is named "i:mu".
    """
    for e in vq.edges:
        i, j = vq.vertex_index[e.source], vq.vertex_index[e.target]
        if e.b <= 0 or e.b % lcm(vq.d[i], vq.d[j]) != 0:
            raise NotUnfoldable(
                f"edge count {e.b} between {e.source!r} and {e.target!r} is not "
                f"a positive multiple of lcm({vq.d[i]}, {vq.d[j]})"
            )
    if any(x < 1 for x in vq.d):
        raise NotUnfoldable("symmetriser entries must be positive")

    vertices, vmap = _copies(vq.vertices, vq.d)
    arrows: list[tuple[str, str, str]] = []
    amap: dict[str, str] = {}
    for e in vq.edges:
        du = vq.d[vq.vertex_index[e.source]]
        dv = vq.d[vq.vertex_index[e.target]]
        g = gcd(du, dv)
        mult = e.b // lcm(du, dv)
        for mu in range(du):
            for nu in range(dv):
                if (mu - nu) % g != 0:
                    continue
                for k in range(mult):
                    rid = f"{e.source}>{e.target}:{mu}:{nu}:{k}"
                    arrows.append((rid, f"{e.source}:{mu}", f"{e.target}:{nu}"))
                    amap[rid] = f"{e.source}>{e.target}:{(mu + 1) % du}:{(nu + 1) % dv}:{k}"
    quiver = validate_quiver(vertices, arrows)
    return validate_automorphism(quiver, vmap, amap)


# --- skew quivers ---


@_record
class ArrowOrigin:
    """Where a skew-quiver arrow comes from: the source arrow orbit (by its
    earliest arrow id) and the residue class it realises."""

    arrow_orbit: str
    residue: int


@_record
class SkewQuiver:
    auto: Automorphism
    fold_source: FoldData
    origins: tuple[ArrowOrigin, ...]

    @property
    def quiver(self) -> Quiver:
        return self.auto.quiver

    @property
    def orbit_names(self) -> tuple[str, ...]:
        return self.fold_source.orbit_names

    @cached_property
    def mu_counts(self) -> tuple[int, ...]:
        return tuple(map(len, self.auto.vertex_orbits))

    @cached_property
    def group_of_vertex(self) -> tuple[int, ...]:
        """For each skew vertex position, the index of its base orbit."""
        return tuple(k for k, cnt in enumerate(self.mu_counts) for _ in range(cnt))

    @cached_property
    def origin_of_arrow(self) -> dict[str, ArrowOrigin]:
        return {r.id: o for r, o in zip(self.quiver.arrows, self.origins)}


def skew(a: Automorphism) -> SkewQuiver:
    """Build the skew quiver of (Q, a) with its shift automorphism."""
    return _skew(a, a.order)


def _skew(a: Automorphism, n: int) -> SkewQuiver:
    """The skew quiver of (Q, a) taken with n, a multiple of a's order."""
    fd = fold(a)
    names, d = fd.orbit_names, fd.d

    vertices, vmap = _copies(names, [n // dk for dk in d])
    arrows: list[tuple[str, str, str]] = []
    origins: list[ArrowOrigin] = []
    amap: dict[str, str] = {}
    for (si, ti), orb in zip(a.arrow_orbit_ends, a.arrow_orbits):
        ell = len(orb)
        tmod = lcm(d[si], d[ti])
        n_t = n // tmod
        residues = sorted({(k * (n // ell)) % n_t for k in range(ell // tmod)})
        src_count = n // d[si]
        tgt_count = n // d[ti]
        for r in residues:
            for mu in range(src_count):
                for nu in range((mu - r) % n_t, tgt_count, n_t):
                    rid = f"{orb[0]}:{mu}:{nu}"
                    arrows.append((rid, f"{names[si]}:{mu}", f"{names[ti]}:{nu}"))
                    origins.append(ArrowOrigin(orb[0], r))
                    amap[rid] = (
                        f"{orb[0]}:{(mu + 1) % src_count}:{(nu + 1) % tgt_count}"
                    )
    quiver = validate_quiver(vertices, arrows)
    shift = validate_automorphism(quiver, vmap, amap)
    return SkewQuiver(shift, fd, tuple(origins))


# --- double skew recovery ---


@_record
class DoubleSkewReport:
    found: bool
    vertex_map: dict[str, str] | None
    skew_order: int
    double_skew_order: int


def _pair_counts(q: Quiver) -> dict[tuple[str, str], list[str]]:
    acc: dict[tuple[str, str], list[str]] = {}
    for r in q.arrows:
        acc.setdefault((r.source, r.target), []).append(r.id)
    return acc


def _arrow_map_consistent(
    a1: Automorphism, a2: Automorphism, vmap: dict[str, str]
) -> bool:
    """Try to extend a vertex bijection to arrows so it intertwines the
    automorphisms.  Every endpoint pair must carry as many arrows on both
    sides; parallel arrows are then matched per orbit of endpoint pairs,
    trying the (few) bijections of one base class."""
    q1, q2 = a1.quiver, a2.quiver
    p1, p2 = _pair_counts(q1), _pair_counts(q2)
    for (u, v), ids in p1.items():
        if len(p2.get((vmap[u], vmap[v]), [])) != len(ids):
            return False

    def step(pair: tuple[str, str]) -> tuple[str, str]:
        return a1.apply_vertex(pair[0]), a1.apply_vertex(pair[1])

    def closes(psi: dict[str, str], length: int) -> bool:
        # carried once around an orbit of endpoint pairs, psi must come back
        cur = psi
        for _ in range(length):
            cur = {a1.apply_arrow(r): a2.apply_arrow(s) for r, s in cur.items()}
        return cur == psi

    done: set[tuple[str, str]] = set()
    for pair in p1:
        if pair in done:
            continue
        orbit = _orbit(pair, step)  # the a1-orbit of this endpoint pair
        done.update(orbit)
        base1 = p1[pair]
        base2 = p2[(vmap[pair[0]], vmap[pair[1]])]
        if not any(closes(dict(zip(base1, perm)), len(orbit)) for perm in permutations(base2)):
            return False
    return True


# the most vertices double_skew_check searches an isomorphism over
_DOUBLE_SKEW_VERTEX_CAP = 10


def double_skew_check(a: Automorphism) -> DoubleSkewReport:
    """Look for an isomorphism between (Q, a) and its double skew, the skew
    of the skew taken at a's order n.

    The double skew has d copies "i:0:k" of each vertex orbit i of size d,
    and its shift rotates them, so the maps tried send a^k(i) to
    "i:0:(k + c_i) mod d" for one offset c_i per orbit.  The offsets run in
    lexicographic order; the first map that is a bijection, intertwines the
    vertex actions and extends to arrows is reported."""
    s1 = skew(a)
    a2 = _skew(s1.auto, a.order).auto
    q1, q2 = a.quiver, a2.quiver

    most = max(len(q1.vertices), len(q2.vertices))
    if most > _DOUBLE_SKEW_VERTEX_CAP:
        raise BudgetExceeded(
            f"double skew check capped at {_DOUBLE_SKEW_VERTEX_CAP} vertices",
            predicted=most,
        )
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return DoubleSkewReport(False, None, s1.auto.order, a2.order)

    orbits = a.vertex_orbits
    place = {v: (j, k) for j, orb in enumerate(orbits) for k, v in enumerate(orb)}
    for c in product(*(range(len(orb)) for orb in orbits)):
        vmap = {}
        for v in q1.vertices:
            j, k = place[v]
            vmap[v] = f"{orbits[j][0]}:0:{(k + c[j]) % len(orbits[j])}"
        if (
            set(vmap.values()) == set(q2.vertices)
            and all(vmap[a.apply_vertex(v)] == a2.apply_vertex(w) for v, w in vmap.items())
            and _arrow_map_consistent(a, a2, vmap)
        ):
            return DoubleSkewReport(True, vmap, s1.auto.order, a2.order)
    return DoubleSkewReport(False, None, s1.auto.order, a2.order)
