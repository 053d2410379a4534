"""Exhaustive isomorphism classification of representations of a fixed
dimension vector.

Every representation is packed into a single integer state: the matrix
entries in arrow order, row-major, first entry most significant, so arrow
block k of r*c entries at entry offset ``off`` holds the value
``(s // Q) % B`` with ``B = q**(r*c)`` and ``Q = q**(n_entries - off - r*c)``.
The base-change group G, the product of GL(d_v) over the vertices, acts on
the block of an arrow a: s -> t as M_a -> g_t M_a g_s^-1.  A move is one
such element, given by its matrices at a few vertices.  GL(d) is generated
by the scaling of row 0 by a primitive element, one transvection and the
d-cycle.  The canonical representative of a class is its least state,
which a catalog keeps as an integer and decodes on demand.

Top levels.  G maps a block to zero only from zero, and on block j of a
state whose blocks before j are zero it acts as GL(d_t) x GL(d_s) on an
r x c matrix, whose orbits are the matrices of each rank.  The least
rank-k matrix is the normal form N_k, the anti-diagonal in the bottom-right
k x k corner, and N_1 < ... < N_m with m = min(r, c).  So the top level of
block j, which labels the states whose blocks before j are zero, knows the
orbits of block j's values under G in advance: the zero value and the
orbits of least value N_1, ..., N_m.  A breadth-first tree of each, from
that least value under G's generators, labels them without the labelling
kernel.  The zero orbit's child is the top level of block j + 1; the child
of rank k labels the later blocks under H_k, the stabiliser of N_k at block
j.  The root is the top level of block 0, the last block's top level is a
last level, and the zero state is a class of its own.  H_k is generated by
G's generators at every vertex other than block j's s and t, and by the
stabiliser of [[I_k, 0], [0, 0]] carried to N_k by permuting rows and
columns: GL(k) acting jointly at s and t, GL(r-k) at t, GL(c-k) at s, one
upper transvection at t and one lower transvection at s.  Deriving H_k by
Schreier's lemma instead would carry hundreds of generators.  The orbits
come in order of their least value, and every state below an orbit is less
than every state below the next, so the classes come out in order of their
least state.

Levels.  A move is its matrices, {v: (g_v, g_v^-1)} at a few vertices,
and it acts on each arrow block on its own: ``StateSpace.value_perm``
builds its permutation of a block's q^(rc) values, M -> g_t M g_s^-1,
once per block shape and end matrices while the catalog is built, and the
space drops them after, as the levels keep their own generator rows.
G's are gathered into one array per block once per space, which every top
level reads.  Below rank k of block j the later blocks are labelled one
block at a time (``labelling``): with H = H_k, the values of block j + 1
are labelled under H; for each orbit's least value v, Schreier's lemma
over a breadth-first tree of the orbit gives generators of Stab(v),
carried only as permutations of the later blocks' values, which label the
next block the same way, down to the last.  By orbit-stabiliser a class with N_k at
block j then has size |G.N_k| * |H.v| * ... * |last orbit|, where |G.N_k|
is the number of rank-k r x c matrices, and is named by its least state.
Each level numbers its classes from 0 and records the number of classes in
the orbits before each orbit, so a level that recurs is stored once and
shared.

``class_of`` splits a state into its block values and walks the tree from
its root: each level steps the state along its tree, one stored generator
at a time, until its block holds its orbit's least value, and passes it to
that orbit's level below.  The class id is the number of classes in the
orbits before each one it passes through, plus the last level's label.

Indecomposability flags come from the end ring.  By Fitting's lemma X is
indecomposable exactly when End(X) is local (Assem, Simson and Skowroński,
Elements of the Representation Theory of Associative Algebras 1, 2006),
and then |Aut(X)| = q^e - q^(e-r), with e = dim End(X) and q^r the size of
End(X) modulo its radical; for a decomposable X, |Aut(X)| / q^e is a
product of two or more factors 1 - q^-a, never 1 - q^-r.  As |Aut(X)| is
|G| over the size of X's class, the flags need no other catalog.  End(X)
is the kernel of the intertwiner map from the sum d_v^2 entries of the
per-vertex matrices, so e is its nullity, sum d_v^2 minus its rank, and
no basis of End(X) is built.  The idempotent search in reps stays as a
second, tested route.  A space too large for its cap or for the field's
dense tables is refused before it is built, by the one check that every
plan reads, ``gf._check_states``.
"""

from __future__ import annotations

from math import prod
from operator import index
from typing import Iterable, Sequence

from .errors import OrbitPartitionBroken, SpaceMismatch
from .gf import FiniteField, _check_states
from .quiver import Automorphism, Quiver, _orbit
from .reps import Mat, Representation, _intertwiner_system, rank, transpose, twist_auto, twist_frobenius

# labelling loads numpy, after the package's own modules and with a
# one-thread BLAS pool
from .labelling import (
    _class_of_values,
    _identity_rows,
    _label_blocks,
    _Level,
    _state_dtype,
    _transversal,
    _tree_level,
    np,
)

_CHUNK = 1 << 18  # block values per batch while a value permutation is built

Pair = tuple[Mat, Mat]  # a matrix and its inverse
Move = dict[int, Pair]  # an element of G: vertex index -> (g_v, g_v^-1), the identity elsewhere


def _elementary(n: int, i: int, j: int, x: int) -> Mat:
    """The n x n identity with x at (i, j)."""
    return tuple(tuple(x if (a, b) == (i, j) else int(a == b) for b in range(n)) for a in range(n))


def _transvection(f: FiniteField, n: int, i: int, j: int) -> Pair:
    """Adding row j to row i, as an n x n matrix with its inverse."""
    return _elementary(n, i, j, 1), _elementary(n, i, j, f.neg(1))


def _gl_generators(f: FiniteField, d: int) -> list[Pair]:
    """Generators of GL(d, q), each with its inverse: the scaling of row 0 by
    a primitive element (q > 2), the transvection adding row 1 to row 0 and
    the d-cycle sending row i - 1 to row i (d >= 2)."""
    out: list[Pair] = []
    if d >= 1 and f.q > 2:
        g, g_inv = f.generator(), f.generator_inverse()
        out.append((_elementary(d, 0, 0, g), _elementary(d, 0, 0, g_inv)))
    if d >= 2:
        out.append(_transvection(f, d, 0, 1))
        cycle = tuple(tuple(int(b == (a - 1) % d) for b in range(d)) for a in range(d))
        out.append((cycle, transpose(cycle)))
    return out


def _normal_order(r: int, c: int, k: int) -> tuple[list[int], list[int]]:
    """Row and column permutations carrying [[I_k, 0], [0, 0]] to N_k: the
    first k rows go to the bottom k and the first k columns to the last k
    in reverse, the other rows and columns move up and left in order."""
    rows = [r - k + i for i in range(k)] + list(range(r - k))
    cols = [c - 1 - i for i in range(k)] + list(range(c - k))
    return rows, cols


def _conjugate(g: Mat, lo: int, n: int, perm: list[int]) -> Mat:
    """g put on the diagonal of the n x n identity from index lo, with its
    rows and columns then renamed by i -> perm[i]."""
    out = [[int(a == b) for b in range(n)] for a in range(n)]
    for a, row in enumerate(g):
        for b, x in enumerate(row):
            out[perm[lo + a]][perm[lo + b]] = x
    return tuple(map(tuple, out))


def _rank_count(q: int, r: int, c: int, k: int) -> int:
    """The number of rank-k r x c matrices over F_q, the size of G.N_k."""
    num = den = 1
    for i in range(k):
        num *= (q**r - q**i) * (q**c - q**i)
        den *= q**k - q**i
    return num // den


def _left(f: FiniteField, g: Mat, blk: np.ndarray) -> np.ndarray:
    """g times each matrix of a batch of shape (N, rows, cols)."""
    add, mul = f.tables()
    out = np.empty_like(blk)
    for i, row in enumerate(g):
        acc = None
        for k, x in enumerate(row):
            if x:
                term = blk[:, k] if x == 1 else mul[x][blk[:, k]]
                acc = term if acc is None else add[acc, term]
        out[:, i] = 0 if acc is None else acc
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


class StateSpace:
    """Integer coding of all representations of one dimension vector."""

    def __init__(self, quiver: Quiver, field: FiniteField, dims: Sequence[int]):
        self.quiver = quiver
        self.field = field
        self.dims = quiver.check_dims(dims)
        idx = quiver.vertex_index
        self.shapes = []
        self.offsets = []
        self.blocks = []  # (offset, rows, cols, target, source) of the non-empty blocks
        off = 0
        for arr in quiver.arrows:
            t, s = idx[arr.target], idx[arr.source]
            rows, cols = self.dims[t], self.dims[s]
            self.shapes.append((rows, cols))
            self.offsets.append(off)
            if rows * cols:
                self.blocks.append((off, rows, cols, t, s))
            off += rows * cols
        self.n_entries = quiver.entry_count(self.dims)
        self.size = field.q**self.n_entries
        self.dtype = np.uint8 if field.q <= 256 else np.uint16  # of matrix entries
        # the values of each block, and the value of each N_k there, k >= 1
        self.values = [field.q ** (r * c) for _, r, c, _, _ in self.blocks]
        self.normal_forms = []
        for _, r, c, _, _ in self.blocks:
            forms = []
            for k in range(1, min(r, c) + 1):
                rows, cols = _normal_order(r, c, k)
                forms.append(sum(field.q ** (r * c - 1 - rows[i] * c - cols[i]) for i in range(k)))
            self.normal_forms.append(forms)
        # value permutations by block shape and end matrices, kept during a build
        self._perms: dict[tuple, np.ndarray | None] = {}

    def decode_batch(self, states: np.ndarray) -> np.ndarray:
        """Row i is the matrix entries of states[i], most significant first."""
        return _digits(states, self.n_entries, self.field.q, self.dtype)

    def encode_batch(self, ents: np.ndarray) -> np.ndarray:
        """The state of each row of matrix entries; decode_batch undone."""
        return _undigits(ents, self.field.q)

    def entries(self, state: int) -> list[int]:
        """The state's matrix entries, most significant first."""
        q = self.field.q
        ents = []
        s = int(state)
        for _ in range(self.n_entries):
            s, r = divmod(s, q)
            ents.append(r)
        ents.reverse()
        return ents

    def decode(self, state: int) -> Representation:
        ents = self.entries(state)
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

    def moves(self) -> list[Move]:
        """G's generators at every vertex that a non-empty block touches,
        each a move {v: (g_v, g_v^-1)}."""
        touched = sorted({v for *_, t, s in self.blocks for v in (t, s)})
        return [{v: pair} for v in touched for pair in _gl_generators(self.field, self.dims[v])]

    def stabiliser(self, j: int, k: int) -> list[Move]:
        """Generators of H_k, the stabiliser of N_k at block j in G."""
        f = self.field
        _, r, c, t, s = self.blocks[j]
        rows, cols = _normal_order(r, c, k)

        def at_t(lo: int, pair: Pair) -> Move:
            return {t: tuple(_conjugate(g, lo, r, rows) for g in pair)}

        def at_s(lo: int, pair: Pair) -> Move:
            return {s: tuple(_conjugate(g, lo, c, cols) for g in pair)}

        mats = [at_t(0, pair) | at_s(0, pair) for pair in _gl_generators(f, k)]
        mats += [at_t(k, pair) for pair in _gl_generators(f, r - k)]
        mats += [at_s(k, pair) for pair in _gl_generators(f, c - k)]
        if 0 < k < r:  # the upper transvection at t
            mats.append(at_t(0, _transvection(f, r, 0, k)))
        if 0 < k < c:  # the lower transvection at s
            mats.append(at_s(0, _transvection(f, c, k, 0)))
        return [mv for mv in self.moves() if t not in mv and s not in mv] + mats

    def value_perm(self, move: Move, b: int) -> np.ndarray | None:
        """perm[x] is the value that the move sends value x of block b to,
        M -> g_t M g_s^-1; None if it fixes every one.  Built once per block
        shape and end matrices, so blocks that moves act on alike share it."""
        _, rows, cols, t, s = self.blocks[b]
        left = move[t][0] if t in move else None
        right = move[s][1] if s in move else None
        key = rows, cols, left, right
        if key not in self._perms:
            f, width = self.field, rows * cols
            n = f.q**width
            perm = None
            if left is not None or right is not None:
                perm = np.empty(n, dtype=np.min_scalar_type(n - 1))
                for start in range(0, n, _CHUNK):
                    vals = np.arange(start, min(start + _CHUNK, n))
                    blk = _digits(vals, width, f.q, self.dtype).reshape(-1, rows, cols)
                    if left is not None:
                        blk = _left(f, left, blk)
                    if right is not None:
                        blk = _left(f, transpose(right), blk.transpose(0, 2, 1)).transpose(0, 2, 1)
                    perm[start : start + len(vals)] = _undigits(blk.reshape(-1, width), f.q)
                if np.array_equal(perm, np.arange(n)):
                    perm = None
            self._perms[key] = perm
        return self._perms[key]

    def move_permutation(self, move: Move) -> np.ndarray:
        """perm[s] is the state the move sends s to, assembled from its
        value permutations of the blocks."""
        q, dtype = self.field.q, _state_dtype(self.size)
        states = np.arange(self.size, dtype=dtype)
        out = states.copy()
        for b, (off, rows, cols, _, _) in enumerate(self.blocks):
            perm = self.value_perm(move, b)
            if perm is not None:
                low = q ** (self.n_entries - off - rows * cols)  # states per block value
                vals = states // low % q ** (rows * cols)
                out += (perm[vals].astype(dtype) - vals) * low
        return out


class IsoClassCatalog:
    """Orbit partition of a state space: canonical representatives (least
    state per class, ascending), orbit sizes and the class id of every state
    of the space.  A representative is decoded from its state on demand; the
    lazy indecomposability flags are the one derived value kept."""

    def __init__(self, space: StateSpace, class_reps: np.ndarray, sizes: np.ndarray, level: _Level):
        self.space = space
        self.class_reps = class_reps
        self.sizes = sizes
        self.level = level  # the top level of block 0, the root of the labels
        self._indec: np.ndarray | None = None

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

    def _class_id(self, ci: int) -> int:
        """ci itself, refused unless it names a class of the catalog."""
        if not 0 <= ci < self.n_classes:
            raise SpaceMismatch(f"class id {ci} is outside range({self.n_classes})")
        return ci

    def representative(self, ci: int) -> Representation:
        """Class ci's least state, decoded anew on each call."""
        return self.space.decode(int(self.class_reps[self._class_id(ci)]))

    def class_of_state(self, state: int) -> int:
        if not 0 <= state < self.space.size:
            raise SpaceMismatch(f"state {state} is outside range({self.space.size})")
        values = self.space.values
        rest, vals = int(state), []
        for n in reversed(values):
            rest, x = divmod(rest, n)
            vals.append(x)
        vals.reverse()
        return _class_of_values(self.level, vals, values)

    def class_of(self, rep: Representation) -> int:
        return self.class_of_state(self.space.encode_rep(rep))

    @property
    def indec_flags(self) -> np.ndarray:
        if self._indec is None:
            self._indec = _end_ring_flags(self)
        return self._indec

    def indec_class_ids(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.indec_flags).tolist())


_STORE: dict[tuple, IsoClassCatalog] = {}


def clear_catalog_store() -> None:
    _STORE.clear()


def _store_key(quiver: Quiver, field: FiniteField, dd: tuple[int, ...]) -> tuple:
    return (quiver, field.p, field.m, dd)


def plan_isoclasses(
    quiver: Quiver,
    vectors: Iterable[Sequence[int]],
    field: FiniteField,
    state_cap: int = 2**24,
) -> None:
    """Refuse a ``multiset_crosscheck`` job before it builds anything; its
    counts of all classes do not survive reflection, so no engine plans it.

    Raises the BudgetExceeded that isoclasses would raise at the first of
    the vectors, in the order given, whose catalog is neither stored nor
    within ``gf._check_states``, marked as refused while planning.
    """
    for dims in vectors:
        dd = quiver.check_dims(dims)
        if _store_key(quiver, field, dd) not in _STORE:
            _check_states(quiver, dd, field, state_cap, planned=True)


def isoclasses(
    quiver: Quiver,
    dims: Sequence[int],
    field: FiniteField,
    state_cap: int = 2**24,
) -> IsoClassCatalog:
    """Classify all representations of the dimension vector, memoised."""
    # an invalid or oversized vector is never stored, so only a miss needs the checks
    try:
        dd = tuple(map(index, dims))
    except TypeError:  # check_dims refuses it by name
        dd = quiver.check_dims(dims)
    key = _store_key(quiver, field, dd)
    got = _STORE.get(key)
    if got is not None:
        return got
    dd = quiver.check_dims(dd)
    _check_states(quiver, dd, field, state_cap)
    space = StateSpace(quiver, field, dd)
    level, class_reps, sizes = _top_level(space, _value_perms(space, space.moves(), 0), 0, {})
    space._perms.clear()  # the levels keep their own generator rows
    if int(sizes.sum()) != space.size:
        raise OrbitPartitionBroken(
            f"orbit sizes sum to {int(sizes.sum())}, not to the {space.size} states"
        )
    cat = IsoClassCatalog(space, class_reps, sizes, level)
    _STORE[key] = cat
    return cat


def _value_perms(space: StateSpace, moves: list[Move], first: int) -> list[np.ndarray]:
    """One array per block from block ``first`` on, whose row g is the g-th
    move's permutation of the block's values, leaving out the moves that fix
    every value of every one of those blocks."""
    perms = [[space.value_perm(mv, b) for b in range(first, len(space.blocks))] for mv in moves]
    perms = [g for g in perms if any(p is not None for p in g)]
    gens = []
    for b, n in enumerate(space.values[first:]):
        rows = [np.arange(n) if g[b] is None else g[b] for g in perms]
        gens.append(np.array(rows, dtype=np.min_scalar_type(n - 1)).reshape(len(perms), n))
    return gens


def _top_level(
    space: StateSpace, gens: list[np.ndarray], j: int, memo: dict
) -> tuple[_Level, np.ndarray, np.ndarray]:
    """The level of the states whose blocks before j are zero under G, from
    block j on, with the least state and size of each of their classes,
    ascending; ``gens`` holds G's permutations of every block's values."""
    values = space.values[j:]
    if not values:  # a space with no block holds one state
        return _label_blocks([], [], memo)
    n, first = values[0], gens[j]
    least = np.array([0, *space.normal_forms[j]])
    labels, parent, gen, _ = _transversal(n, least, [first], ~_identity_rows(first, [0, n]))
    sizes = np.bincount(labels)
    if len(values) == 1:
        return _Level(labels), least, sizes
    children = [_top_level(space, gens, j + 1, memo)]
    for k in range(1, len(least)):
        stab = _value_perms(space, space.stabiliser(j, k), j + 1)
        children.append(_label_blocks(values[1:], stab, memo))
    return _tree_level(labels, parent, gen, gens[j + 1 :], least, sizes, children, values)


def _end_ring_flags(cat: IsoClassCatalog) -> np.ndarray:
    q = cat.field.q
    group = prod(_rank_count(q, d, d, d) for d in cat.dims)  # GL(d) is the rank-d d x d matrices
    flags = np.zeros(cat.n_classes, dtype=bool)
    for ci, size in enumerate(cat.sizes.tolist()):
        aut, rem = divmod(group, size)
        if rem:
            raise OrbitPartitionBroken(f"size {size} of class {ci} does not divide |G| = {group}")
        rep = cat.representative(ci)
        rows, total, _ = _intertwiner_system(rep, rep)
        e = total - rank(cat.field, rows)
        flags[ci] = any(aut == q**e - q ** (e - r) for r in range(1, e + 1))
    return flags


def indecomposable_classes(
    quiver: Quiver,
    dims: Sequence[int],
    field: FiniteField,
    state_cap: int = 2**24,
) -> tuple[Representation, ...]:
    """Canonical representatives of the indecomposable classes at dims."""
    cat = isoclasses(quiver, dims, field, state_cap=state_cap)
    return tuple(cat.representative(ci) for ci in cat.indec_class_ids())


def twisted_class(
    cat: IsoClassCatalog, ci: int, b: Automorphism, s: int
) -> tuple[tuple[int, ...], int]:
    """The dimension vector and class id of the twist of class ci: the s-th
    Frobenius power of its representative, then the automorphism b.  The
    class is looked up in the catalog at the twisted dimension vector, which
    has exactly cat's state count: b permutes the matrix entries and
    Frobenius keeps the dims, so that count is its cap."""
    if b.is_identity and s % cat.field.m == 0:
        return cat.dims, cat._class_id(ci)
    rep = cat.representative(ci)
    if s % cat.field.m:
        rep = twist_frobenius(rep, s)
    rep = twist_auto(b, rep)
    got = isoclasses(cat.quiver, rep.dims, cat.field, state_cap=cat.space.size)
    return rep.dims, got.class_of(rep)


def _period(cat: IsoClassCatalog, ci: int, b: Automorphism, s: int, order: int) -> int:
    """Length of the orbit of class ci under the twist (s, b), which must
    divide `order`.  The class may wander through catalogs at permuted
    dimension vectors, each the size of cat's, before returning."""
    cap = cat.space.size

    def step(h):
        dims, cj = h
        return twisted_class(isoclasses(cat.quiver, dims, cat.field, state_cap=cap), cj, b, s)

    return len(_orbit((cat.dims, ci), step, order))


def frobenius_period(cat: IsoClassCatalog, ci: int) -> int:
    """Least s >= 1 with the class fixed by the s-fold Frobenius twist.

    Always divides the field degree.
    """
    return _period(cat, ci, Automorphism.identity(cat.quiver), 1, cat.field.m)


def auto_period(cat: IsoClassCatalog, a: Automorphism, ci: int) -> int:
    """Least r >= 1 with the class fixed by the r-fold twist along a.

    The period always divides the automorphism order.
    """
    if a.quiver != cat.quiver:
        raise SpaceMismatch("the automorphism acts on another quiver than the catalog's")
    return _period(cat, ci, a, 0, a.order)


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
