"""Exhaustive isomorphism classification of representations of a fixed
dimension vector.

Every representation is packed into a single integer state: the matrix
entries in arrow order, row-major, first entry most significant, so arrow
block k of r*c entries at entry offset ``off`` holds the value
``(s // Q) % B`` with ``B = q**(r*c)`` and ``Q = q**(n_entries - off - r*c)``.
The base-change group at each vertex is generated by a scalar scaling, one
transvection, and a cycle permutation, which together generate the full
general linear group; the canonical representative of a class is its least
state.

A generator move at vertex v acts on each arrow block incident to v on its
own, so it is stored as one delta table per such block, built once by
running the move on the B block values: the move sends s to
``s + sum_k D_k[(s // Q_k) % B_k]`` with no decode or encode of the state.
Orbits are labelled in one breadth-first sweep: from the least unlabelled
state, frontier batches are pushed through every move and the neighbours
not yet labelled are claimed.  A move is a bijection, so one move maps a
frontier of distinct states to distinct states, and the label check is the
only deduplication needed; forward moves suffice because every generator
has finite order.  Classes come out in order of their least state, which
gives the class ids and the ascending representatives directly.  Labels are
held in the narrowest unsigned dtype that fits the class count (uint8 up to
255 classes), widened during the sweep as classes appear.

Indecomposability flags for a whole catalog come from a direct-sum sieve:
a class is decomposable exactly when it contains indec(beta) + class(d-beta)
for some proper sub-dimension beta, walked bottom-up through the memoised
store.  The per-representation idempotent search in rep-algebra stays
available as an independent route and is cross-checked in the tests.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    OrbitPartitionBroken,
    SpaceMismatch,
    TwistPeriodBroken,
)
from .gf import FiniteField
from .quiver import Automorphism, Quiver
from .reps import Representation, direct_sum, twist_auto, twist_frobenius

_CHUNK = 1 << 18  # block values per batch while a move table is built
_BATCH = 1 << 20  # frontier states pushed through the moves at once
_SCAN = 1 << 16  # labels inspected per step of the least-unlabelled search


class _Move:
    """One generator of the base-change group as an entry transform."""

    def __init__(self, field: FiniteField, kind: str, in_blocks, out_blocks, g: int = 0):
        self.field = field
        self.kind = kind
        self.in_blocks = in_blocks  # (offset, rows, cols) of arrows into the vertex
        self.out_blocks = out_blocks  # (offset, rows, cols) of arrows out of it
        self.g = g

    def apply(self, ents: np.ndarray) -> np.ndarray:
        f = self.field
        add, mul = f.tables()
        out = ents.copy()
        if self.kind == "scale":
            g = self.g
            ginv = f.inv(g)
            for off, rows, cols in self.in_blocks:
                blk = out[:, off : off + rows * cols].reshape(-1, rows, cols)
                blk[:, 0, :] = mul[g][blk[:, 0, :]]
            for off, rows, cols in self.out_blocks:
                blk = out[:, off : off + rows * cols].reshape(-1, rows, cols)
                blk[:, :, 0] = mul[ginv][blk[:, :, 0]]
        elif self.kind == "transvect":
            neg = f.neg_table()
            for off, rows, cols in self.in_blocks:
                blk = out[:, off : off + rows * cols].reshape(-1, rows, cols)
                blk[:, 0, :] = add[blk[:, 0, :], blk[:, 1, :]]
            for off, rows, cols in self.out_blocks:
                blk = out[:, off : off + rows * cols].reshape(-1, rows, cols)
                blk[:, :, 1] = add[blk[:, :, 1], neg[blk[:, :, 0]].astype(blk.dtype)]
        elif self.kind == "cycle":
            for off, rows, cols in self.in_blocks:
                blk = out[:, off : off + rows * cols].reshape(-1, rows, cols)
                blk[:] = np.roll(blk, 1, axis=1)
            for off, rows, cols in self.out_blocks:
                blk = out[:, off : off + rows * cols].reshape(-1, rows, cols)
                blk[:] = np.roll(blk, -1, axis=2)
        else:  # pragma: no cover
            raise ValueError(self.kind)
        return out


def _digits(values: np.ndarray, width: int, q: int, dtype) -> np.ndarray:
    """Base-q digits of each value, most significant first."""
    s = values.astype(np.int64)
    out = np.empty((len(s), width), dtype=dtype)
    for k in range(width - 1, -1, -1):
        out[:, k] = s % q
        s //= q
    return out


def _undigits(digits: np.ndarray, q: int) -> np.ndarray:
    s = np.zeros(len(digits), dtype=np.int64)
    for k in range(digits.shape[1]):
        s = s * q + digits[:, k].astype(np.int64)
    return s


class _MoveTable:
    """A move as per-block delta tables: s -> s + sum_k D_k[block_k(s)].

    A block's value is ``(s // div) % mod``; when q is a power of two, div and
    mod are stored as a shift and a mask instead."""

    def __init__(self, space: StateSpace, move: _Move):
        q = space.field.q
        self.shift = q & (q - 1) == 0
        bits = q.bit_length() - 1
        self.blocks = []
        sides = [(b, True) for b in move.in_blocks] + [(b, False) for b in move.out_blocks]
        for (off, rows, cols), inward in sides:
            width = rows * cols
            local = [(0, rows, cols)]
            ins, outs = (local, []) if inward else ([], local)
            one = _Move(move.field, move.kind, ins, outs, move.g)
            low = space.n_entries - off - width  # entries below the block
            n_vals = q**width
            delta = np.empty(n_vals, dtype=space.state_dtype)
            for start in range(0, n_vals, _CHUNK):
                vals = np.arange(start, min(start + _CHUNK, n_vals), dtype=np.int64)
                new = _undigits(one.apply(_digits(vals, width, q, space.dtype)), q)
                delta[start : start + len(vals)] = (new - vals) * q**low
            if self.shift:
                self.blocks.append((bits * low, n_vals - 1, delta))
            else:
                self.blocks.append((q**low, n_vals, delta))

    def __call__(self, states: np.ndarray) -> np.ndarray:
        out = states.copy()
        for div, mod, delta in self.blocks:
            out += delta[(states >> div) & mod if self.shift else (states // div) % mod]
        return out


class StateSpace:
    """Integer coding of all representations of one dimension vector."""

    def __init__(self, quiver: Quiver, field: FiniteField, dims: Sequence[int]):
        self.quiver = quiver
        self.field = field
        self.dims = quiver.check_vector(dims)
        idx = quiver.vertex_index
        self.shapes = []
        self.offsets = []
        off = 0
        for arr in quiver.arrows:
            rows = self.dims[idx[arr.target]]
            cols = self.dims[idx[arr.source]]
            self.shapes.append((rows, cols))
            self.offsets.append(off)
            off += rows * cols
        self.n_entries = off
        self.size = field.q**off
        self.dtype = np.uint8 if field.q <= 256 else np.uint16
        # every partial sum of a move's block deltas is itself a state
        self.state_dtype = np.int32 if self.size <= 2**31 else np.int64

    def decode_batch(self, states: np.ndarray) -> np.ndarray:
        return _digits(states, self.n_entries, self.field.q, self.dtype)

    def encode_batch(self, ents: np.ndarray) -> np.ndarray:
        return _undigits(ents, self.field.q)

    def decode(self, state: int) -> Representation:
        q = self.field.q
        ents = []
        s = int(state)
        for _ in range(self.n_entries):
            s, r = divmod(s, q)
            ents.append(r)
        ents.reverse()
        mats = []
        for (rows, cols), off in zip(self.shapes, self.offsets):
            mats.append(
                tuple(
                    tuple(ents[off + r * cols + c] for c in range(cols))
                    for r in range(rows)
                )
            )
        return Representation(self.quiver, self.field, self.dims, tuple(mats))

    def encode_rep(self, rep: Representation) -> int:
        same = rep.quiver == self.quiver and rep.dims == self.dims
        if not same or rep.field.q != self.field.q:
            raise SpaceMismatch(
                f"representation of dims {rep.dims} over GF({rep.field.q}) does not "
                f"belong to the state space of dims {self.dims} over GF({self.field.q})"
            )
        s = 0
        q = self.field.q
        for m in rep.matrices:
            for row in m:
                for x in row:
                    s = s * q + int(x)
        return s

    def moves(self) -> list[_Move]:
        """Base-change generators with any effect on the stored entries."""
        q = self.quiver
        f = self.field
        idx = q.vertex_index
        out: list[_Move] = []
        for vi, v in enumerate(q.vertices):
            d = self.dims[vi]
            if d == 0:
                continue
            in_blocks = []
            out_blocks = []
            for k, arr in enumerate(q.arrows):
                rows, cols = self.shapes[k]
                if rows * cols == 0:
                    continue
                if arr.target == v:
                    in_blocks.append((self.offsets[k], rows, cols))
                if arr.source == v:
                    out_blocks.append((self.offsets[k], rows, cols))
            if not in_blocks and not out_blocks:
                continue
            if f.q > 2:
                out.append(_Move(f, "scale", in_blocks, out_blocks, g=f.generator()))
            if d >= 2:
                out.append(_Move(f, "transvect", in_blocks, out_blocks))
                out.append(_Move(f, "cycle", in_blocks, out_blocks))
        return out

    def move_permutation(self, move: _Move) -> np.ndarray:
        """perm[s] is the state the move sends s to."""
        table = _MoveTable(self, move)
        perm = np.empty(self.size, dtype=self.state_dtype)
        for start in range(0, self.size, _BATCH):
            stop = min(start + _BATCH, self.size)
            perm[start:stop] = table(np.arange(start, stop, dtype=self.state_dtype))
        return perm


def _orbit_labels(
    space: StateSpace, tables: list[_MoveTable]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class id of every state, and the least state and size of every class,
    by one breadth-first sweep per class from its least state.

    During the sweep a label is the class id plus one, with 0 for a state not
    reached yet, in the narrowest unsigned dtype that holds it."""
    n = space.size
    labels = np.zeros(n, dtype=np.uint8)
    reps: list[int] = []
    sizes: list[int] = []
    pos = 0
    while True:
        while pos < n:
            unseen = labels[pos : pos + _SCAN] == 0
            first = int(unseen.argmax())
            if unseen[first]:
                pos += first
                break
            pos += len(unseen)
        if pos >= n:
            break
        mark = len(reps) + 1
        if mark > np.iinfo(labels.dtype).max:
            labels = labels.astype(np.min_scalar_type(mark))
        reps.append(pos)
        labels[pos] = mark
        size = 1
        frontier = np.array([pos], dtype=space.state_dtype)
        while len(frontier):
            found = []
            for start in range(0, len(frontier), _BATCH):
                batch = frontier[start : start + _BATCH]
                for table in tables:
                    nb = table(batch)
                    nb = nb[labels[nb] == 0]
                    labels[nb] = mark
                    found.append(nb)
            frontier = np.concatenate(found)
            size += len(frontier)
        sizes.append(size)
    labels -= 1
    labels = labels.astype(np.min_scalar_type(len(reps) - 1), copy=False)
    return labels, np.array(reps, dtype=np.int64), np.array(sizes, dtype=np.int64)


class IsoClassCatalog:
    """Orbit partition of a state space: canonical representatives (least
    state per class, ascending), orbit sizes, lazy indecomposability flags
    and twist annotations."""

    def __init__(
        self,
        space: StateSpace,
        class_reps: np.ndarray,
        labels: np.ndarray,
        sizes: np.ndarray,
    ):
        self.space = space
        self.class_reps = class_reps
        self.labels = labels
        self.sizes = sizes
        self._indec: np.ndarray | None = None
        self._rep_cache: dict[int, Representation] = {}

    @property
    def quiver(self) -> Quiver:
        return self.space.quiver

    @property
    def field(self) -> FiniteField:
        return self.space.field

    @property
    def dims(self) -> tuple[int, ...]:
        return self.space.dims

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)

    def representative(self, ci: int) -> Representation:
        if ci not in self._rep_cache:
            self._rep_cache[ci] = self.space.decode(int(self.class_reps[ci]))
        return self._rep_cache[ci]

    def class_of_state(self, state: int) -> int:
        return int(self.labels[state])

    def class_of(self, rep: Representation) -> int:
        return self.class_of_state(self.space.encode_rep(rep))

    @property
    def indec_flags(self) -> np.ndarray:
        if self._indec is None:
            _sieve_indec(self)
        return self._indec

    def indec_class_ids(self) -> list[int]:
        return [ci for ci in range(self.n_classes) if self.indec_flags[ci]]


_STORE: dict[tuple, IsoClassCatalog] = {}


def clear_catalog_store() -> None:
    _STORE.clear()


def _store_key(quiver: Quiver, field: FiniteField, dd: tuple[int, ...]) -> tuple:
    return (quiver, field.p, field.m, dd)


def _oversized(space: StateSpace, state_cap: int, planned: bool = False) -> BudgetExceeded:
    q = space.field.q
    note = "; refused while planning, before any catalog was built" if planned else ""
    return BudgetExceeded(
        f"state space at dims {space.dims} over GF({q}) holds {q}^{space.n_entries} "
        f"= {space.size} representations, cap is {state_cap}{note}",
        predicted=space.size,
    )


def plan_isoclasses(
    quiver: Quiver,
    vectors: Iterable[Sequence[int]],
    field: FiniteField,
    state_cap: int = 2**24,
) -> None:
    """Refuse a job of isoclasses calls before it builds anything.

    Raises the BudgetExceeded that isoclasses would raise at the first of
    the vectors, in the order given, whose catalog is neither stored nor
    within the cap.  This is arithmetic on state-space sizes only.
    """
    for dims in vectors:
        dd = quiver.check_vector(dims)
        if _store_key(quiver, field, dd) in _STORE:
            continue
        space = StateSpace(quiver, field, dd)
        if space.size > state_cap:
            raise _oversized(space, state_cap, planned=True)


def isoclasses(
    quiver: Quiver,
    dims: Sequence[int],
    field: FiniteField,
    state_cap: int = 2**24,
) -> IsoClassCatalog:
    """Classify all representations of the dimension vector, memoised."""
    dd = quiver.check_vector(dims)
    key = _store_key(quiver, field, dd)
    got = _STORE.get(key)
    if got is not None:
        return got

    space = StateSpace(quiver, field, dd)
    if space.size > state_cap:
        raise _oversized(space, state_cap)
    moves = space.moves()
    if moves:
        tables = [_MoveTable(space, mv) for mv in moves]
        labels, class_reps, sizes = _orbit_labels(space, tables)
    else:  # no generator acts, so every state is its own class
        class_reps = np.arange(space.size, dtype=np.int64)
        labels = class_reps.astype(np.min_scalar_type(space.size - 1))
        sizes = np.ones(space.size, dtype=np.int64)
    if int(sizes.sum()) != space.size:
        raise OrbitPartitionBroken(
            f"orbit sizes sum to {int(sizes.sum())}, not to the {space.size} states"
        )

    cat = IsoClassCatalog(space, class_reps, labels, sizes)
    _STORE[key] = cat
    return cat


def _sub_dimensions(dims: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All beta with 0 <= beta <= dims componentwise, excluding 0 and dims."""
    for beta in product(*(range(d + 1) for d in dims)):
        if any(beta) and beta != dims:
            yield beta


def _sieve_indec(cat: IsoClassCatalog) -> None:
    if sum(cat.dims) == 0:
        cat._indec = np.zeros(cat.n_classes, dtype=bool)
        return
    flags = np.ones(cat.n_classes, dtype=bool)
    q, f = cat.quiver, cat.field
    for beta in _sub_dimensions(cat.dims):
        gamma = tuple(a - b for a, b in zip(cat.dims, beta))
        sub = isoclasses(q, beta, f, state_cap=cat.space.size + 1)
        comp = isoclasses(q, gamma, f, state_cap=cat.space.size + 1)
        for ii in sub.indec_class_ids():
            left = sub.representative(ii)
            for cj in range(comp.n_classes):
                total = direct_sum(left, comp.representative(cj))
                flags[cat.class_of(total)] = False
    cat._indec = flags


def indecomposable_classes(
    quiver: Quiver,
    dims: Sequence[int],
    field: FiniteField,
    state_cap: int = 2**24,
) -> tuple[Representation, ...]:
    """Canonical representatives of the indecomposable classes at dims."""
    cat = isoclasses(quiver, dims, field, state_cap=state_cap)
    return tuple(cat.representative(ci) for ci in cat.indec_class_ids())


def frobenius_period(cat: IsoClassCatalog, ci: int) -> int:
    """Least s >= 1 with the class fixed by the s-fold Frobenius twist.

    Always divides the field degree.
    """
    rep = cat.representative(ci)
    cur = rep
    for s in range(1, cat.field.m + 1):
        cur = twist_frobenius(cur, 1)
        if cat.class_of(cur) == ci:
            if cat.field.m % s:
                raise TwistPeriodBroken(
                    f"Frobenius period {s} does not divide the field degree {cat.field.m}"
                )
            return s
    raise TwistPeriodBroken("Frobenius twist orbit did not close within the field degree")


def auto_period(cat: IsoClassCatalog, a: Automorphism, ci: int) -> int:
    """Least r >= 1 with the class fixed by the r-fold twist along a.

    The class may wander through catalogs at permuted dimension vectors
    before returning; the period always divides the automorphism order.
    """
    if a.quiver != cat.quiver:
        raise SpaceMismatch("the automorphism acts on another quiver than the catalog's")
    rep = cat.representative(ci)
    dd = cat.dims
    cur = rep
    for r in range(1, a.order + 1):
        cur = twist_auto(a, cur)
        if cur.dims == dd:
            here = isoclasses(cat.quiver, dd, cat.field, state_cap=cat.space.size + 1)
            if here.class_of(cur) == ci:
                if a.order % r:
                    raise TwistPeriodBroken(
                        f"twist period {r} does not divide the automorphism order {a.order}"
                    )
                return r
    raise TwistPeriodBroken("twist orbit did not close within the automorphism order")


def twist_annotations(
    cat: IsoClassCatalog, a: Automorphism | None = None
) -> list[dict[str, int | None]]:
    """Per-class twist data: Frobenius period always, a-period when an
    automorphism is supplied."""
    out: list[dict[str, int | None]] = []
    for ci in range(cat.n_classes):
        row: dict[str, int | None] = {"frobenius_period": frobenius_period(cat, ci)}
        row["auto_period"] = auto_period(cat, a, ci) if a is not None else None
        out.append(row)
    return out
