"""Folding a quiver with automorphism into symmetrisable Cartan data.

The symmetric generalized Cartan matrix of a quiver counts arrows between
distinct vertices (in either direction).  Folding along an admissible
automorphism produces the triple (B, D, C): B is the symmetric form on the
orbit lattice, D the diagonal of orbit sizes, and C = D^{-1} B the
symmetrisable generalized Cartan matrix.  B and D are stored losslessly;
the familiar edge value pairs (|c_ji|, |c_ij|) are derived for display.

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import (
    DanglingEndpoint,
    DuplicateId,
    LatticeMismatch,
    NotFixed,
    VertexLoop,
)
from .quiver import Automorphism, OrbitStructure, Quiver, act_on_dimension_vector, orbit_structure

Matrix = tuple[tuple[int, ...], ...]


def _check_len(name: str, v: Sequence[int], n: int) -> tuple[int, ...]:
    if len(v) != n:
        raise LatticeMismatch(f"{name} has length {len(v)}, expected {n}")
    return tuple(int(x) for x in v)


def _sym_pairing(matrix: Matrix, x: Sequence[int], y: Sequence[int]) -> int:
    return sum(
        xi * sum(matrix[i][j] * y[j] for j in range(len(y)))
        for i, xi in enumerate(x)
    )


@dataclass(frozen=True)
class SymmetricGCM:
    quiver: Quiver
    matrix: Matrix


def symmetric_gcm(quiver: Quiver) -> SymmetricGCM:
    """The symmetric generalized Cartan matrix of the underlying graph:
    2 on the diagonal, minus the number of connecting arrows off it."""
    n = len(quiver.vertices)
    idx = quiver.vertex_index
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for r in quiver.arrows:
        i, j = idx[r.source], idx[r.target]
        a[i][j] -= 1
        a[j][i] -= 1
    return SymmetricGCM(quiver, tuple(tuple(row) for row in a))


# --- valued quivers ---


@dataclass(frozen=True)
class ValuedEdge:
    source: str
    target: str
    b: int


@dataclass(frozen=True)
class ValuedQuiver:
    """A valued quiver: vertices with symmetriser weights d and oriented
    edges carrying the symmetric count b (so c_uv = b/d_u, c_vu = b/d_v)."""

    vertices: tuple[str, ...]
    d: tuple[int, ...]
    edges: tuple[ValuedEdge, ...]

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def b_matrix(self) -> Matrix:
        n = len(self.vertices)
        idx = self.vertex_index
        b = [[0] * n for _ in range(n)]
        for k in range(n):
            b[k][k] = 2 * self.d[k]
        for e in self.edges:
            i, j = idx[e.source], idx[e.target]
            b[i][j] -= e.b
            b[j][i] -= e.b
        return tuple(tuple(row) for row in b)

    @cached_property
    def c_matrix(self) -> Matrix:
        b = self.b_matrix
        n = len(self.vertices)
        return tuple(
            tuple(b[i][j] // self.d[i] for j in range(n)) for i in range(n)
        )

    def edge_pair(self, e: ValuedEdge) -> tuple[int, int]:
        """Display pair (|c_vu|, |c_uv|) for the edge u -> v."""
        i, j = self.vertex_index[e.source], self.vertex_index[e.target]
        return (e.b // self.d[j], e.b // self.d[i])

    def normalized_pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted multiset of sorted edge pairs (orientation-free)."""
        return tuple(sorted(tuple(sorted(self.edge_pair(e))) for e in self.edges))


def make_valued_quiver(
    vertices: Sequence[str], d: Sequence[int], edges: Sequence
) -> ValuedQuiver:
    """Validate and build a valued quiver.

    Edges may be ValuedEdge objects, `(source, target, b)` triples, or
    mappings with keys ``from``/``to``/``b``.  Each edge's count must be a
    positive multiple of both endpoint weights.
    """
    verts = tuple(str(v) for v in vertices)
    if len(set(verts)) != len(verts):
        raise DuplicateId("duplicate vertex id in valued quiver")
    if len(d) != len(verts):
        raise LatticeMismatch("symmetriser length does not match vertex count")
    dd = tuple(int(x) for x in d)
    if any(x < 1 for x in dd):
        raise LatticeMismatch("symmetriser entries must be positive")

    idx = {v: k for k, v in enumerate(verts)}
    norm: list[ValuedEdge] = []
    seen_pairs: set[frozenset] = set()
    for item in edges:
        if isinstance(item, ValuedEdge):
            e = item
        elif isinstance(item, dict):
            e = ValuedEdge(str(item["from"]), str(item["to"]), int(item["b"]))
        else:
            s, t, b = item
            e = ValuedEdge(str(s), str(t), int(b))
        if e.source not in idx or e.target not in idx:
            raise DanglingEndpoint(f"edge {e.source!r}->{e.target!r} has an unknown endpoint")
        if e.source == e.target:
            raise VertexLoop(f"edge at {e.source!r} is a loop")
        pair = frozenset((e.source, e.target))
        if pair in seen_pairs:
            raise DuplicateId(
                f"two valued edges join {e.source!r} and {e.target!r}; "
                f"merge them into one count"
            )
        seen_pairs.add(pair)
        if e.b < 1:
            raise LatticeMismatch(f"edge {e.source!r}->{e.target!r} has non-positive count")
        if e.b % dd[idx[e.source]] != 0 or e.b % dd[idx[e.target]] != 0:
            raise LatticeMismatch(
                f"edge count {e.b} between {e.source!r} and {e.target!r} is not a "
                f"multiple of both weights {dd[idx[e.source]]}, {dd[idx[e.target]]}"
            )
        norm.append(e)
    return ValuedQuiver(verts, dd, tuple(norm))


# --- folding ---


@dataclass(frozen=True)
class FoldData:
    """Result of folding: exact B and D (hence C), and the valued quiver on
    the orbit vertices."""

    orbits: OrbitStructure
    b_matrix: Matrix

    @property
    def auto(self) -> Automorphism:
        return self.orbits.auto

    @property
    def d(self) -> tuple[int, ...]:
        return self.orbits.d

    @property
    def orbit_names(self) -> tuple[str, ...]:
        return self.orbits.orbit_names

    @cached_property
    def c_matrix(self) -> Matrix:
        n = len(self.d)
        for i in range(n):
            for j in range(n):
                if self.b_matrix[i][j] % self.d[i] != 0:
                    raise LatticeMismatch("symmetriser does not divide the form")
        return tuple(
            tuple(self.b_matrix[i][j] // self.d[i] for j in range(n)) for i in range(n)
        )

    @cached_property
    def valued_quiver(self) -> ValuedQuiver:
        st = self.orbits
        seen: dict[frozenset, ValuedEdge] = {}
        order: list[frozenset] = []
        names = st.orbit_names
        for k, (si, ti) in enumerate(st.arrow_orbit_ends):
            key = frozenset((si, ti))
            if key not in seen:
                seen[key] = ValuedEdge(names[si], names[ti], st.arrow_orbit_lengths[k])
                order.append(key)
            else:
                e = seen[key]
                seen[key] = ValuedEdge(e.source, e.target, e.b + st.arrow_orbit_lengths[k])
        return ValuedQuiver(names, st.d, tuple(seen[k] for k in order))


def fold(a: Automorphism) -> FoldData:
    """Fold the quiver of `a` along `a` into symmetrisable Cartan data."""
    st = orbit_structure(a)
    m = len(st.vertex_orbits)
    b = [[0] * m for _ in range(m)]
    for k in range(m):
        b[k][k] = 2 * st.d[k]
    for k, (si, ti) in enumerate(st.arrow_orbit_ends):
        ell = st.arrow_orbit_lengths[k]
        b[si][ti] -= ell
        b[ti][si] -= ell
    return FoldData(st, tuple(tuple(row) for row in b))


# --- bilinear forms ---


def bilinear_q(carrier: SymmetricGCM | Quiver, x: Sequence[int], y: Sequence[int]) -> int:
    """Symmetric form x^T A y of the unfolded lattice."""
    gcm = symmetric_gcm(carrier) if isinstance(carrier, Quiver) else carrier
    n = len(gcm.matrix)
    xs = _check_len("x", x, n)
    ys = _check_len("y", y, n)
    return _sym_pairing(gcm.matrix, xs, ys)


def bilinear_gamma(
    carrier: FoldData | ValuedQuiver, x: Sequence[int], y: Sequence[int]
) -> int:
    """Symmetric form x^T B y of the folded (valued) lattice."""
    b = carrier.b_matrix if isinstance(carrier, FoldData) else carrier.b_matrix
    n = len(b)
    xs = _check_len("x", x, n)
    ys = _check_len("y", y, n)
    return _sym_pairing(b, xs, ys)


def euler_form(quiver: Quiver, x: Sequence[int], y: Sequence[int]) -> int:
    """Non-symmetric Euler pairing: sum x_i y_i - sum over arrows x_src y_tgt."""
    n = len(quiver.vertices)
    xs = _check_len("x", x, n)
    ys = _check_len("y", y, n)
    idx = quiver.vertex_index
    total = sum(a * b for a, b in zip(xs, ys))
    for r in quiver.arrows:
        total -= xs[idx[r.source]] * ys[idx[r.target]]
    return total


def root_length(carrier: FoldData | ValuedQuiver, w: Sequence[int]) -> int:
    """Half the B-norm of w.  Integral because B has even diagonal."""
    val = bilinear_gamma(carrier, w, w)
    return val // 2


# --- moving vectors across the fold ---


def f_map(a: Automorphism, v: Sequence[int]) -> tuple[int, ...]:
    """Identify an a-fixed vector of the quiver lattice with a vector of the
    orbit lattice (one coordinate per orbit)."""
    st = orbit_structure(a)
    vec = a.quiver.check_vector(v)
    idx = a.quiver.vertex_index
    out = []
    for orb in st.vertex_orbits:
        vals = {vec[idx[u]] for u in orb}
        if len(vals) > 1:
            raise NotFixed(
                f"vector is not fixed by the automorphism: orbit {orb} carries "
                f"values {sorted(vals)}"
            )
        out.append(vec[idx[orb[0]]])
    return tuple(out)


def f_inverse(a: Automorphism, w: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`f_map`: spread orbit coordinates back over vertices."""
    st = orbit_structure(a)
    ws = _check_len("w", w, len(st.vertex_orbits))
    out = [0] * len(a.quiver.vertices)
    idx = a.quiver.vertex_index
    for k, orb in enumerate(st.vertex_orbits):
        for u in orb:
            out[idx[u]] = ws[k]
    return tuple(out)


def sigma(a: Automorphism, v: Sequence[int]) -> tuple[int, ...]:
    """Sum of the a-orbit of v in the quiver lattice (minimal period)."""
    vec = a.quiver.check_vector(v)
    total = list(vec)
    cur = act_on_dimension_vector(a, vec)
    while cur != vec:
        for i, x in enumerate(cur):
            total[i] += x
        cur = act_on_dimension_vector(a, cur)
    return tuple(total)
