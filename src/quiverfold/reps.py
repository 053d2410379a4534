"""Quiver representations over small finite fields, with exact linear algebra.

A representation assigns a dimension to every vertex and an integer-coded
matrix over the field to every arrow (shape: target dimension by source
dimension, row-major).  Everything downstream is elementary linear algebra
over the field: homomorphism spaces are nullspaces of the intertwining
system, indecomposability is the absence of a nontrivial idempotent
endomorphism (searched exhaustively under a cap), and reflection functors
take kernels at sinks with deterministic echelon bases, and cokernels at
sources as the transpose dual of a kernel.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadParameter,
    EndRingTooLarge,
    FieldMismatch,
    HomSpaceTooLarge,
    LatticeMismatch,
    NotSink,
    NotSource,
    TwistPeriodBroken,
    UnknownVertex,
)
from .gf import FiniteField
from .quiver import Automorphism, Quiver, act_on_dimension_vector, _integer, _orbit_members, _record

Mat = tuple[tuple[int, ...], ...]


# --- exact matrix helpers (tuple-of-rows matrices, integer-coded entries) ---


def zeros(rows: int, cols: int) -> Mat:
    return tuple((0,) * cols for _ in range(rows))


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_add(f: FiniteField, a: Mat, b: Mat) -> Mat:
    return tuple(
        tuple(f.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(f: FiniteField, c: int, a: Mat) -> Mat:
    return tuple(tuple(f.mul(c, x) for x in row) for row in a)


def mat_mul(f: FiniteField, a: Mat, b: Mat) -> Mat:
    """The product a·b.  A matrix of no rows carries no column count, so an
    r×0 matrix times ``()`` is r rows of no columns."""
    if a and len(a[0]) != len(b):
        raise LatticeMismatch(f"{len(a[0])} columns against {len(b)} rows")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = 0
            for k, x in enumerate(row):
                if x:
                    acc = f.add(acc, f.mul(x, b[k][j]))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def transpose(a: Mat) -> Mat:
    if not a:
        return ()
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def rref(f: FiniteField, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and pivot column indices over any exact field."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for k in range(r, len(m)):
            if m[k][c] != 0:
                pr = k
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c] != 0:
                coef = m[k][c]
                m[k] = [f.sub(x, f.mul(coef, y)) for x, y in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(f: FiniteField, rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Deterministic basis of the right kernel: one vector per free column,
    ascending, each with a 1 at its own free column."""
    red, pivots = rref(f, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for k, pc in enumerate(pivots):
            v[pc] = f.neg(red[k][fc])
        basis.append(tuple(v))
    return basis


def rank(f: FiniteField, mat: Mat) -> int:
    return len(rref(f, mat)[0])


def is_invertible(f: FiniteField, mat: Mat) -> bool:
    return len(mat) == (len(mat[0]) if mat else 0) and rank(f, mat) == len(mat)


# --- representations ---


@_record
class Representation:
    quiver: Quiver
    field: FiniteField
    dims: tuple[int, ...]
    matrices: tuple[Mat, ...]

    @cached_property
    def matrix_of(self) -> dict[str, Mat]:
        return {r.id: m for r, m in zip(self.quiver.arrows, self.matrices)}

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0


def make_representation(
    quiver: Quiver,
    field: FiniteField,
    dims: Sequence[int],
    matrices: Mapping[str, Sequence[Sequence[int]]] | Sequence | None = None,
) -> Representation:
    """Validate shapes and entries and build a representation.  Omitted
    matrices default to zero."""
    dd = quiver.check_dims(dims)
    ids = [r.id for r in quiver.arrows]
    if matrices is not None and not isinstance(matrices, Mapping):
        if len(matrices) != len(ids):
            raise LatticeMismatch(f"{len(matrices)} matrices for the {len(ids)} arrows")
        matrices = dict(zip(ids, matrices))
    for rid in matrices or ():
        if rid not in ids:
            raise LatticeMismatch(f"matrix for arrow {rid!r}, which the quiver does not have")
    idx = quiver.vertex_index
    mats: list[Mat] = []
    for arr in quiver.arrows:
        rows_want = dd[idx[arr.target]]
        cols_want = dd[idx[arr.source]]
        raw = (matrices or {}).get(arr.id)
        if raw is None:
            mats.append(zeros(rows_want, cols_want))
            continue
        m = tuple(tuple(_integer(x, f"entry of arrow {arr.id!r}") for x in row) for row in raw)
        if len(m) != rows_want or any(len(row) != cols_want for row in m):
            raise LatticeMismatch(
                f"matrix for arrow {arr.id!r} must be {rows_want}x{cols_want}"
            )
        for row in m:
            for x in row:
                if not 0 <= x < field.q:
                    raise LatticeMismatch(
                        f"entry {x} of arrow {arr.id!r} is not a field element code"
                    )
        mats.append(m)
    return Representation(quiver, field, dd, tuple(mats))


def zero_representation(quiver: Quiver, field: FiniteField, dims: Sequence[int] | None = None) -> Representation:
    dd = quiver.check_vector(dims) if dims is not None else (0,) * len(quiver.vertices)
    return make_representation(quiver, field, dd)


def simple_representation(quiver: Quiver, field: FiniteField, vertex: str) -> Representation:
    dims = tuple(1 if v == vertex else 0 for v in quiver.vertices)
    return make_representation(quiver, field, dims)


def direct_sum(x: Representation, y: Representation) -> Representation:
    _check_same_world(x, y)
    dims = tuple(a + b for a, b in zip(x.dims, y.dims))
    idx = x.quiver.vertex_index
    mats = []
    for k, arr in enumerate(x.quiver.arrows):
        xr, yr = x.matrices[k], y.matrices[k]
        cx = x.dims[idx[arr.source]]
        cy = y.dims[idx[arr.source]]
        top = tuple(row + (0,) * cy for row in xr)
        bottom = tuple((0,) * cx + row for row in yr)
        mats.append(top + bottom)
    return Representation(x.quiver, x.field, dims, tuple(mats))


def direct_sum_list(reps: Sequence[Representation], quiver: Quiver, field: FiniteField) -> Representation:
    acc = zero_representation(quiver, field)
    for r in reps:
        acc = direct_sum(acc, r)
    return acc


def _check_same_world(x: Representation, y: Representation) -> None:
    if x.field is not y.field:
        raise FieldMismatch("representations live over different fields")
    if x.quiver != y.quiver:
        raise FieldMismatch("representations live on different quivers")


# --- homomorphism spaces ---


@_record
class HomBasis:
    """Basis of the intertwiner space Hom(X, Y): tuples of per-vertex
    matrices phi_v of shape dimY_v x dimX_v."""

    dim: int
    basis: tuple[tuple[Mat, ...], ...]


def _intertwiner_system(
    x: Representation, y: Representation
) -> tuple[list[list[int]], int, list[int]]:
    """Linear system phi_j X_rho = Y_rho phi_i over all arrows, in the
    flattened per-vertex variables phi_v[r, c].  Returns (rows, n_vars,
    offsets); all-zero rows are dropped."""
    f = x.field
    q = x.quiver
    idx = q.vertex_index
    nv = len(q.vertices)

    offsets = []
    total = 0
    for k in range(nv):
        offsets.append(total)
        total += y.dims[k] * x.dims[k]

    def var(vk: int, r: int, c: int) -> int:
        return offsets[vk] + r * x.dims[vk] + c

    rows: list[list[int]] = []
    for k, arr in enumerate(q.arrows):
        i, j = idx[arr.source], idx[arr.target]
        xm, ym = x.matrices[k], y.matrices[k]
        for r in range(y.dims[j]):
            for c in range(x.dims[i]):
                row = [0] * total
                # (phi_j  X_rho)[r, c]
                for t in range(x.dims[j]):
                    if xm[t][c]:
                        row[var(j, r, t)] = f.add(row[var(j, r, t)], xm[t][c])
                # -(Y_rho phi_i)[r, c]
                for t in range(y.dims[i]):
                    if ym[r][t]:
                        pos = var(i, t, c)
                        row[pos] = f.sub(row[pos], ym[r][t])
                if any(row):
                    rows.append(row)
    return rows, total, offsets


def _cut(v: Sequence[int], x: Representation, y: Representation, offsets: Sequence[int]) -> tuple[Mat, ...]:
    """A flat intertwiner vector as its per-vertex blocks phi_k: y.dims[k]
    rows of x.dims[k] entries each, from offsets[k] on.  Rows are tuples, so
    blocks compare equal to the products ``mat_mul`` returns."""
    mats = []
    for k, off in enumerate(offsets):
        c = x.dims[k]
        mats.append(tuple(tuple(v[off + r * c : off + (r + 1) * c]) for r in range(y.dims[k])))
    return tuple(mats)


def hom_space(x: Representation, y: Representation) -> HomBasis:
    _check_same_world(x, y)
    rows, total, offsets = _intertwiner_system(x, y)
    basis = tuple(_cut(v, x, y, offsets) for v in nullspace(x.field, rows, total))
    return HomBasis(len(basis), basis)


def end_ring(x: Representation) -> HomBasis:
    return hom_space(x, x)


def ext_dim(x: Representation, y: Representation) -> int:
    """Dimension of the extension space between two representations.

    The intertwiner conditions form a map from the per-vertex hom spaces to
    the per-arrow ones; its kernel is Hom(X, Y) and its cokernel is the
    extension space, so dim Ext = (sum over arrows of x_src * y_tgt) - rank.
    """
    _check_same_world(x, y)
    idx = x.quiver.vertex_index
    rows, _, _ = _intertwiner_system(x, y)
    codomain = sum(
        x.dims[idx[arr.source]] * y.dims[idx[arr.target]] for arr in x.quiver.arrows
    )
    return codomain - rank(x.field, rows)


# --- indecomposability and isomorphism ---


def _nonzero_homs(
    x: Representation, y: Representation, cap: int, refuse: type, what: str
) -> Iterator[tuple[Mat, ...]]:
    """Every nonzero element of Hom(x, y), in coefficient-lexicographic
    order; a space of more than ``cap`` elements is refused with ``refuse``,
    naming it ``what``.  The callers have checked that x and y share a
    field and a quiver."""
    f = x.field
    rows, total, offsets = _intertwiner_system(x, y)
    basis = nullspace(f, rows, total)
    size = f.q ** len(basis)
    if size > cap:
        raise refuse(f"{what} has {f.q}^{len(basis)} elements, cap is {cap}", predicted=size)
    for coeffs in product(range(f.q), repeat=len(basis)):
        if any(coeffs):
            flat = [0] * total
            for c, vec in zip(coeffs, basis):
                if c:
                    flat = [f.add(a, f.mul(c, b)) for a, b in zip(flat, vec)]
            yield _cut(flat, x, y, offsets)


def _first_nontrivial_idempotent(
    x: Representation, end_cap: int
) -> tuple[Mat, ...] | None:
    """The first (in coefficient-lexicographic order) endomorphism that is
    idempotent and neither zero nor the identity, or None."""
    f = x.field
    ident = tuple(identity(d) for d in x.dims)
    for phi in _nonzero_homs(x, x, end_cap, EndRingTooLarge, "endomorphism ring"):
        if phi != ident and tuple(mat_mul(f, m, m) for m in phi) == phi:
            return phi
    return None


def is_indecomposable(x: Representation, end_cap: int = 2**20) -> bool:
    """Exhaustive idempotent search in the endomorphism ring."""
    if x.is_zero():
        return False
    return _first_nontrivial_idempotent(x, end_cap) is None


# the largest hom space is_isomorphic searches for an invertible intertwiner
_HOM_CAP = 2**20


def is_isomorphic(x: Representation, y: Representation) -> bool:
    """Exhaustive search for an invertible intertwiner."""
    _check_same_world(x, y)
    if x.dims != y.dims:
        return False
    if x.total_dim == 0:
        return True
    homs = _nonzero_homs(x, y, _HOM_CAP, HomSpaceTooLarge, "hom space")
    return any(all(is_invertible(x.field, m) for m in phi) for phi in homs)


def _restrict_to_image(x: Representation, e: tuple[Mat, ...]) -> Representation:
    """The subrepresentation spanned by the columns of an idempotent e.

    At each vertex the basis of im(e_v) is the rows of the reduced echelon
    form of e_v's transpose.  Each row has a 1 at its own pivot and 0 at the
    other pivots, so a vector of that span has its entries at the pivots as
    its coordinates.  e intertwines, so every arrow maps a source basis row
    into the target span, and the summand's matrix entries are read at the
    target pivots instead of solved for."""
    f = x.field
    q = x.quiver
    idx = q.vertex_index
    reduced = [rref(f, transpose(m)) for m in e]
    dims = tuple(len(pivots) for _, pivots in reduced)
    mats = []
    for k, arr in enumerate(q.arrows):
        i, j = idx[arr.source], idx[arr.target]
        xm = x.matrices[k]
        mats.append(
            tuple(
                tuple(_dot_row(f, xm[p], b) for b in reduced[i][0])
                for p in reduced[j][1]
            )
        )
    return Representation(q, f, dims, tuple(mats))


def _dot_row(f: FiniteField, row: Sequence[int], vec: Sequence[int]) -> int:
    acc = 0
    for a, b in zip(row, vec):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


def decompose(x: Representation, end_cap: int = 2**20) -> tuple[Representation, ...]:
    """Indecomposable summands via deterministic idempotent splitting."""
    if x.is_zero():
        return ()
    e = _first_nontrivial_idempotent(x, end_cap)
    if e is None:
        return (x,)
    f = x.field
    one_minus = tuple(
        mat_add(f, identity(d), mat_scale(f, f.neg(1), m))
        for d, m in zip(x.dims, e)
    )
    left = _restrict_to_image(x, e)
    right = _restrict_to_image(x, one_minus)
    return decompose(left, end_cap) + decompose(right, end_cap)


# --- twists ---


def twist_auto(a: Automorphism, x: Representation) -> Representation:
    """The twisted representation: spaces and maps pulled back along a^{-1},
    so its dimension vector is a applied to the original one."""
    if a.quiver != x.quiver:
        raise FieldMismatch("automorphism and representation live on different quivers")
    q = x.quiver
    inv_a = a.inverse_arrow_map
    dims = act_on_dimension_vector(a, x.dims)
    mats = tuple(x.matrix_of[inv_a[r.id]] for r in q.arrows)
    return Representation(q, x.field, dims, mats)


def twist_frobenius(x: Representation, s: int = 1) -> Representation:
    """Apply the s-th Frobenius power entrywise."""
    f = x.field
    mats = tuple(
        tuple(tuple(f.frobenius(v, s) for v in row) for row in m) for m in x.matrices
    )
    return Representation(x.quiver, f, x.dims, mats)


# --- reflection functors ---


def _dual(x: Representation) -> Representation:
    """The transpose dual: every arrow reversed (same ids, same order) and
    every matrix transposed.  Shapes come from dims, since a 0-row matrix
    does not record its column count."""
    q = x.quiver
    idx = q.vertex_index
    mats = tuple(
        tuple(
            tuple(m[r][c] for r in range(x.dims[idx[arr.target]]))
            for c in range(x.dims[idx[arr.source]])
        )
        for arr, m in zip(q.arrows, x.matrices)
    )
    return Representation(q.reversed_at(q.vertices), x.field, x.dims, mats)


def reflection_functor(x: Representation, vertex: str, direction: str) -> Representation:
    """One Bernstein-Gelfand-Ponomarev reflection.

    direction "+": vertex must be a sink; the new space there is the kernel
    of the combined in-map, with the deterministic basis of `nullspace`.
    direction "-": vertex must be a source; the new space is the cokernel
    of the combined out-map, computed as the transpose dual of the "+"
    reflection of the dual representation (on the opposite quiver the
    source is a sink, and the dual of a kernel is a cokernel).  The result
    lives on the quiver with the arrows at the vertex reversed (same ids).
    """
    q = x.quiver
    f = x.field
    idx = q.vertex_index
    if vertex not in idx:
        raise UnknownVertex(f"quiver has no vertex {vertex!r}")
    if direction == "-":
        if not q.is_source(vertex):
            raise NotSource(f"vertex {vertex!r} is not a source")
        return _dual(reflection_functor(_dual(x), vertex, "+"))
    if direction != "+":
        raise BadParameter(f"direction must be '+' or '-', got {direction!r}")
    if not q.is_sink(vertex):
        raise NotSink(f"vertex {vertex!r} is not a sink")
    vi = idx[vertex]
    new_quiver = q.reversed_at([vertex])

    ins = q.arrows_into(vertex)
    blocks = [x.matrices[q.arrows.index(r)] for r in ins]
    src_dims = [x.dims[idx[r.source]] for r in ins]
    total = sum(src_dims)
    rows = []
    for r in range(x.dims[vi]):
        row: list[int] = []
        for m in blocks:
            row.extend(m[r])
        rows.append(row)
    kernel = nullspace(f, rows, total)
    new_dim = len(kernel)

    dims = list(x.dims)
    dims[vi] = new_dim
    offsets = {}
    acc = 0
    for r, d in zip(ins, src_dims):
        offsets[r.id] = acc
        acc += d

    new_mats: list[Mat] = []
    for k, old in enumerate(q.arrows):
        if old.target != vertex:
            new_mats.append(x.matrices[k])
            continue
        off = offsets[old.id]
        d_src = x.dims[idx[old.source]]
        m = tuple(
            tuple(kernel[c][off + r] for c in range(new_dim))
            for r in range(d_src)
        )
        new_mats.append(m)
    return Representation(new_quiver, f, tuple(dims), tuple(new_mats))


def s_fold_functor(
    a: Automorphism, orbit: int | Iterable[str], direction: str, x: Representation
) -> Representation:
    """Compose the reflection functors over one vertex orbit (all sinks for
    "+", all sources for "-"; orbit vertices are pairwise non-adjacent so
    the order does not matter)."""
    out = x
    for v in _orbit_members(a, orbit):
        out = reflection_functor(out, v, direction)
    return out


# --- twist-orbit sums ---


def ii_orbit_sum(a: Automorphism, z: Representation) -> tuple[Representation, int]:
    """(Z + twist(Z) + ... + twist^{r-1}(Z), r) where r is the least period
    with twist^r(Z) isomorphic to Z."""
    if a.quiver != z.quiver:
        raise FieldMismatch("automorphism and representation live on different quivers")
    total = z
    cur = twist_auto(a, z)
    r = 1
    while not (cur.dims == z.dims and is_isomorphic(cur, z)):
        total = direct_sum(total, cur)
        cur = twist_auto(a, cur)
        r += 1
        if r > a.order:
            raise TwistPeriodBroken("twist period exceeds automorphism order")
    return total, r
