"""Unfolding valued quivers and the skew-quiver construction.

Unfolding replaces a valued vertex of weight d by d plain copies and each
valued edge by parallel arrows spread over congruent copy pairs; the cyclic
copy shift is then an admissible automorphism that folds back to the valued
quiver we started from.

The skew quiver of (Q, a) replaces each vertex orbit 𝐢 of size d by n/d
labelled copies (𝐢, μ) and distributes every arrow orbit over residue
classes; the shift ã(𝐢, μ) = (𝐢, μ+1) is again admissible.  The skew of
the skew gives back (Q, a) only up to the characters of the dual group
(I. Reiten and C. Riedtmann, J. Algebra 92, 1985), which a permutation of
arrows cannot hold.  So the construction also carries one shift per arrow
orbit, which sets the eigenvalues of a power of the automorphism on that
orbit's arrows.  A plain automorphism has shift 0 on every orbit, so
`skew` does not see them; `double_skew_check` carries them through both
skews and compares the result with (Q, a) at one vertex map.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from .cartan import FoldData, ValuedQuiver, fold
from .errors import NotUnfoldable
from .quiver import (
    Automorphism,
    Quiver,
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
    if any(x < 1 for x in vq.d):
        raise NotUnfoldable("symmetriser entries must be positive")
    for e in vq.edges:
        i, j = vq.vertex_index[e.source], vq.vertex_index[e.target]
        if e.b <= 0 or e.b % lcm(vq.d[i], vq.d[j]) != 0:
            raise NotUnfoldable(
                f"edge count {e.b} between {e.source!r} and {e.target!r} is not "
                f"a positive multiple of lcm({vq.d[i]}, {vq.d[j]})"
            )

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
    return _skew(a, a.order, {})[0]


def _skew(
    a: Automorphism, n: int, shifts: dict[str, int]
) -> tuple[SkewQuiver, dict[str, int]]:
    """The skew quiver of (Q, a) taken with n, a multiple of a's order, and
    the shifts of its own arrow orbits.

    `shifts` maps an arrow orbit O of length ℓ, named by its first arrow,
    to its shift s mod n/ℓ; an orbit left out has shift 0.  O keeps the
    residues s + k·n/ℓ mod n/lcm(d_s, d_t) for k < ℓ/lcm(d_s, d_t).  Each
    residue r becomes one arrow orbit of the skew's shift, with first arrow
    "O:0:-r" and shift p - q mod gcd(d_s, d_t), where p and q are the
    places of O's first source and target in their vertex orbits."""
    fd = fold(a)
    names, d = fd.orbit_names, fd.d
    place = {v: k for orb in a.vertex_orbits for k, v in enumerate(orb)}

    vertices, vmap = _copies(names, [n // dk for dk in d])
    arrows: list[tuple[str, str, str]] = []
    origins: list[ArrowOrigin] = []
    amap: dict[str, str] = {}
    new_shifts: dict[str, int] = {}
    for (si, ti), orb in zip(a.arrow_orbit_ends, a.arrow_orbits):
        ell = len(orb)
        tmod = lcm(d[si], d[ti])
        n_t = n // tmod
        s = shifts.get(orb[0], 0)
        residues = sorted({(s + k * (n // ell)) % n_t for k in range(ell // tmod)})
        first = a.quiver.arrow_by_id[orb[0]]
        dual = (place[first.source] - place[first.target]) % gcd(d[si], d[ti])
        src_count = n // d[si]
        tgt_count = n // d[ti]
        for r in residues:
            new_shifts[f"{orb[0]}:0:{(-r) % n_t}"] = dual
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
    return SkewQuiver(shift, fd, tuple(origins)), new_shifts


# --- double skew recovery ---


@_record
class DoubleSkewReport:
    """`vertex_map` is the canonical map a^k(i) -> "i:0:k" when `found`;
    `double_skew_order` is the order of the double skew's shift, which can
    fall below a's order (it is 1 for a swap of two parallel arrows)."""

    found: bool
    vertex_map: dict[str, str] | None
    skew_order: int
    double_skew_order: int


def _exponents(
    a: Automorphism, n: int, shifts: dict[str, int]
) -> dict[tuple[str, str], list[int]]:
    """For each endpoint pair, the sorted exponents e of the eigenvalues
    ζ_n^e of a^L on its arrows, where L is the length of the pair's orbit:
    an arrow orbit of length L·c and shift s gives each of its pairs the
    exponents -s·L + k·n/c mod n for k < c."""
    acc: dict[tuple[str, str], list[int]] = {}
    for (si, ti), orb in zip(a.arrow_orbit_ends, a.arrow_orbits):
        L = lcm(len(a.vertex_orbits[si]), len(a.vertex_orbits[ti]))
        c = len(orb) // L
        s = shifts.get(orb[0], 0)
        for rid in orb[:L]:  # one arrow at each pair of the orbit
            r = a.quiver.arrow_by_id[rid]
            acc.setdefault((r.source, r.target), []).extend(
                (-s * L + k * (n // c)) % n for k in range(c)
            )
    return {pair: sorted(es) for pair, es in acc.items()}


def double_skew_check(a: Automorphism) -> DoubleSkewReport:
    """Compare (Q, a) with its double skew, the skew of the skew, both
    taken at a's order n, with the first skew's shifts carried into the
    second.

    The double skew has d copies "i:0:k" of each vertex orbit i of size d,
    and its shift adds 1 to k, so the canonical map a^k(i) -> "i:0:k" is a
    bijection that intertwines the vertex actions.  `found` holds when the
    map also carries every endpoint pair's exponents (see _exponents) to
    those of the double skew: the same eigenvalues, so an isomorphism."""
    n = a.order
    s1, shifts = _skew(a, n, {})
    s2, shifts2 = _skew(s1.auto, n, shifts)
    canon = {v: f"{orb[0]}:0:{k}" for orb in a.vertex_orbits for k, v in enumerate(orb)}
    vmap = {v: canon[v] for v in a.quiver.vertices}
    mapped = {(vmap[u], vmap[v]): es for (u, v), es in _exponents(a, n, {}).items()}
    found = mapped == _exponents(s2.auto, n, shifts2)
    return DoubleSkewReport(found, vmap if found else None, s1.auto.order, s2.auto.order)
