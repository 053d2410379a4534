"""The Cartan lattice of a quiver or of its fold, and the maps between them.

A ``CartanLattice`` holds named coordinates, a symmetric form B and a
symmetriser D, with C = D^{-1} B the symmetrisable generalized Cartan
matrix; ``_lattice`` builds every one.  A quiver's lattice has d = 1 and one
edge per arrow.  Folding along an admissible automorphism reads its cached
cycles into a valued quiver on the vertex orbits (orbit sizes as weights,
arrow-orbit lengths summed per pair of orbits as counts), whose lattice is
the folded one.  B and D are stored losslessly; the familiar edge value
pairs (|c_ji|, |c_ij|) are derived for display.

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from functools import cached_property, partial
from math import lcm
from typing import Iterable, Sequence

from .errors import (
    DanglingEndpoint,
    DuplicateId,
    LatticeMismatch,
    NotFixed,
    NotPermutation,
    VertexLoop,
)
from .quiver import Automorphism, Quiver, act_on_dimension_vector, _integer, _orbit, _record, _triple, _vector

Matrix = tuple[tuple[int, ...], ...]


# --- lattices ---


@_record
class CartanLattice:
    """A root lattice: named coordinates, symmetric form B, symmetriser D."""

    names: tuple[str, ...]
    b_matrix: Matrix
    d: tuple[int, ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: k for k, v in enumerate(self.names)}

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.names)
        return tuple(
            tuple(j for j in range(n) if j != i and self.b_matrix[i][j] != 0)
            for i in range(n)
        )

    @cached_property
    def c_matrix(self) -> Matrix:
        """C = D^{-1} B."""
        return tuple(
            tuple(x // di for x in row) for row, di in zip(self.b_matrix, self.d)
        )

    def check_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        return _vector(v, len(self.names), "lattice")

    def pairing(self, v: Sequence[int], i: int) -> int:
        """(Bv)_i."""
        return sum(self.b_matrix[i][j] * v[j] for j in range(len(v)))

    def form(self, x: Sequence[int], y: Sequence[int]) -> int:
        """x^T B y."""
        xs = self.check_vector(x)
        ys = self.check_vector(y)
        return sum(xi * self.pairing(ys, i) for i, xi in enumerate(xs))


def _lattice(
    names: tuple[str, ...], d: tuple[int, ...], edges: Iterable[tuple[int, int, int]]
) -> CartanLattice:
    """The lattice with 2 d_i on the diagonal of B and, for each edge
    (i, j, b), b subtracted at (i, j) and at (j, i)."""
    n = len(names)
    b = [[2 * d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, count in edges:
        b[i][j] -= count
        b[j][i] -= count
    return CartanLattice(names, tuple(tuple(row) for row in b), d)


def quiver_lattice(quiver: Quiver) -> CartanLattice:
    """The symmetric lattice of the underlying graph: 2 on the diagonal,
    minus the number of connecting arrows off it."""
    idx = quiver.vertex_index
    return _lattice(
        quiver.vertices,
        (1,) * len(quiver.vertices),
        ((idx[r.source], idx[r.target], 1) for r in quiver.arrows),
    )


# --- valued quivers ---


@_record
class ValuedEdge:
    source: str
    target: str
    b: int


@_record
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
    def lattice(self) -> CartanLattice:
        idx = self.vertex_index
        return _lattice(
            self.vertices,
            self.d,
            ((idx[e.source], idx[e.target], e.b) for e in self.edges),
        )

    @property
    def b_matrix(self) -> Matrix:
        return self.lattice.b_matrix

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
    dd = tuple(_integer(x, f"weight d of vertex {v!r}") for v, x in zip(verts, d))
    if any(x < 1 for x in dd):
        raise LatticeMismatch("symmetriser entries must be positive")

    idx = {v: k for k, v in enumerate(verts)}
    norm: list[ValuedEdge] = []
    seen_pairs: set[frozenset] = set()
    for item in edges:
        if isinstance(item, ValuedEdge):
            e = item
        else:
            s, t, b = _triple(item, ("from", "to", "b"), "edge")
            e = ValuedEdge(str(s), str(t), _integer(b, f"edge count b of {item!r}"))
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


@_record
class FoldData:
    """Result of folding: the automorphism and the valued quiver on its
    vertex orbits (named by their earliest vertex, weighted by their size),
    whose lattice holds B, D and C."""

    auto: Automorphism
    valued_quiver: ValuedQuiver

    @property
    def d(self) -> tuple[int, ...]:
        return self.valued_quiver.d

    @property
    def orbit_names(self) -> tuple[str, ...]:
        return self.valued_quiver.vertices

    @property
    def lattice(self) -> CartanLattice:
        return self.valued_quiver.lattice

    @property
    def b_matrix(self) -> Matrix:
        return self.lattice.b_matrix

    @property
    def c_matrix(self) -> Matrix:
        return self.lattice.c_matrix


def fold(a: Automorphism) -> FoldData:
    """Fold the quiver of `a` along `a` into symmetrisable Cartan data.

    Arrow orbits between the same two vertex orbits merge into one valued
    edge, oriented as the first of them."""
    names = tuple(orb[0] for orb in a.vertex_orbits)
    d = tuple(map(len, a.vertex_orbits))
    edges: dict[frozenset, ValuedEdge] = {}
    for (si, ti), orb in zip(a.arrow_orbit_ends, a.arrow_orbits):
        # only an automorphism built without validate_automorphism can fail
        if len(orb) % lcm(d[si], d[ti]):
            raise NotPermutation("arrow orbit length violates the divisibility chain")
        key = frozenset((si, ti))
        e = edges.get(key) or ValuedEdge(names[si], names[ti], 0)
        edges[key] = ValuedEdge(e.source, e.target, e.b + len(orb))
    return FoldData(a, ValuedQuiver(names, d, tuple(edges.values())))


# --- bilinear forms ---


def bilinear_q(quiver: Quiver, x: Sequence[int], y: Sequence[int]) -> int:
    """Symmetric form x^T A y of the unfolded lattice."""
    return quiver_lattice(quiver).form(x, y)


def bilinear_gamma(
    carrier: FoldData | ValuedQuiver, x: Sequence[int], y: Sequence[int]
) -> int:
    """Symmetric form x^T B y of the folded (valued) lattice."""
    return carrier.lattice.form(x, y)


def euler_form(quiver: Quiver, x: Sequence[int], y: Sequence[int]) -> int:
    """Non-symmetric Euler pairing: sum x_i y_i - sum over arrows x_src y_tgt."""
    xs, ys = quiver.check_vector(x), quiver.check_vector(y)
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
    vec = a.quiver.check_vector(v)
    idx = a.quiver.vertex_index
    out = []
    for orb in a.vertex_orbits:
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
    ws = _vector(w, len(a.vertex_orbits), "fold")
    out = [0] * len(a.quiver.vertices)
    idx = a.quiver.vertex_index
    for k, orb in enumerate(a.vertex_orbits):
        for u in orb:
            out[idx[u]] = ws[k]
    return tuple(out)


def sigma(a: Automorphism, v: Sequence[int]) -> tuple[int, ...]:
    """Sum of the a-orbit of v in the quiver lattice (minimal period)."""
    orbit = _orbit(a.quiver.check_vector(v), partial(act_on_dimension_vector, a))
    return tuple(map(sum, zip(*orbit)))
