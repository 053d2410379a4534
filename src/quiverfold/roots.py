"""Root systems of symmetrisable Kac-Moody lattices, by exact descent.

The lattices are ``cartan.CartanLattice``s (vertex names, the symmetric
form B and the symmetriser D), which this module re-exports together with
``quiver_lattice``; ``folded_lattice`` is the lattice of a fold or of a
valued quiver.  Simple reflections act by r_i(v) = v - ((Bv)_i / d_i) e_i,
which is always integral here.  Classification walks a vector down by
height: reflecting at the least vertex with positive pairing either reaches
a simple root (real), a vector in the fundamental region with connected
support (imaginary), or leaves the positive cone (not a root).  Heights are
always the plain coordinate sum.
"""

from __future__ import annotations

import operator
from functools import cached_property, partial
from math import comb, gcd, lcm
from types import SimpleNamespace
from typing import Iterable, Literal, Sequence

from .cartan import (
    CartanLattice,
    FoldData,
    ValuedQuiver,
    euler_form,
    f_map,
    fold,
    quiver_lattice,
    sigma,
)
from .errors import (
    BadParameter,
    BudgetExceeded,
    LatticeMismatch,
    NoNullRoot,
    UnknownVertex,
    ZeroVector,
)
from .quiver import Automorphism, Quiver, act_on_dimension_vector, _integer, _orbit, _orbit_members, _record, _vector

RootKind = Literal["real", "imaginary", "nonroot"]


def folded_lattice(carrier: FoldData | ValuedQuiver) -> CartanLattice:
    return carrier.lattice


def _resolve_vertex(lat: CartanLattice, i: int | str) -> int:
    if isinstance(i, str):
        if i not in lat.index:
            raise UnknownVertex(f"lattice has no vertex {i!r}")
        return lat.index[i]
    if not 0 <= i < len(lat.names):
        raise UnknownVertex(f"vertex index {i} out of range")
    return i


def reflect(lat: CartanLattice, i: int | str, v: Sequence[int]) -> tuple[int, ...]:
    """Simple reflection r_i(v) = v - ((Bv)_i / d_i) e_i."""
    k = _resolve_vertex(lat, i)
    vec = lat.check_vector(v)
    coef = lat.pairing(vec, k)
    step, rem = divmod(coef, lat.d[k])
    if rem:
        raise LatticeMismatch("symmetriser does not divide the pairing")
    out = list(vec)
    out[k] -= step
    return tuple(out)


def apply_reflections(
    lat: CartanLattice, word: Sequence[int | str], v: Sequence[int]
) -> tuple[int, ...]:
    """Apply r_{word[0]} after r_{word[1]} after ... to v (innermost last)."""
    out = lat.check_vector(v)
    for i in reversed(word):
        out = reflect(lat, i, out)
    return out


def s_fold(a: Automorphism, orbit: int | Iterable[str], v: Sequence[int]) -> tuple[int, ...]:
    """Product of the simple reflections over one vertex orbit (they commute
    because admissibility keeps orbit vertices non-adjacent)."""
    return apply_reflections(quiver_lattice(a.quiver), _orbit_members(a, orbit), v)


# --- classification ---


@_record
class Classification:
    """Outcome of root classification with a replayable witness.

    For a real root: `sign * v = r_{word[0]} ... r_{word[-1]} (e_simple)`.
    For an imaginary root the same word sends `fundamental` to `sign * v`,
    where `fundamental` has connected support and no positive pairing.
    """

    kind: RootKind
    sign: int | None
    word: tuple[str, ...]
    simple: str | None
    fundamental: tuple[int, ...] | None
    reason: str | None


def _support_connected(lat: CartanLattice, v: Sequence[int]) -> bool:
    supp = [i for i, x in enumerate(v) if x != 0]
    if not supp:
        return False
    todo = [supp[0]]
    seen = {supp[0]}
    sset = set(supp)
    while todo:
        i = todo.pop()
        for j in lat.neighbours[i]:
            if j in sset and j not in seen:
                seen.add(j)
                todo.append(j)
    return len(seen) == len(supp)


def classify(lat: CartanLattice, v: Sequence[int]) -> Classification:
    vec = lat.check_vector(v)
    if all(x == 0 for x in vec):
        raise ZeroVector("the zero vector has no root classification")
    if all(x <= 0 for x in vec):
        sign = -1
        w = tuple(-x for x in vec)
    elif all(x >= 0 for x in vec):
        sign = 1
        w = vec
    else:
        return Classification(
            "nonroot", None, (), None, None, "mixed signs"
        )

    n = len(lat.names)
    word: list[str] = []
    while True:
        nonzero = [i for i, x in enumerate(w) if x != 0]
        if len(nonzero) == 1 and w[nonzero[0]] == 1:
            return Classification("real", sign, tuple(word), lat.names[nonzero[0]], None, None)
        target = None
        for i in range(n):
            if w[i] > 0 and lat.pairing(w, i) > 0:
                target = i
                break
        if target is None:
            # also try vertices outside the support, where reflection could
            # only grow the vector; a positive pairing there is impossible
            # for w >= 0, so the fundamental region has been reached
            if _support_connected(lat, w):
                return Classification("imaginary", sign, tuple(word), None, tuple(w), None)
            return Classification(
                "nonroot", sign, tuple(word), None, tuple(w),
                "fundamental-region vector with disconnected support",
            )
        w2 = reflect(lat, target, w)
        if any(x < 0 for x in w2):
            return Classification(
                "nonroot", sign, tuple(word), None, None,
                f"reflection at {lat.names[target]!r} leaves the positive cone",
            )
        word.append(lat.names[target])
        w = w2


# --- bounded enumeration ---


@_record
class RootRecord:
    vector: tuple[int, ...]
    kind: RootKind


@_record
class RootSet:
    lattice: CartanLattice
    height: int
    records: tuple[RootRecord, ...]

    @cached_property
    def vectors(self) -> frozenset:
        return frozenset(r.vector for r in self.records)

    def reals(self) -> tuple[tuple[int, ...], ...]:
        return tuple(r.vector for r in self.records if r.kind == "real")


# the most vectors a height sweep walks: the grid of _nonneg_vectors
_GRID_CAP = 10**6


def _nonneg_vectors(n: int, h_max: int):
    """An iterator over the nonzero vectors in N^n of coordinate sum <=
    h_max, refused at once when h_max is not an integer >= 0 or there are
    more than _GRID_CAP of them.

    Every height sweep walks this grid, so this is its one budget check."""
    if (h_max := _integer(h_max, "height")) < 0:
        raise BadParameter(f"height {h_max} is negative")
    count = comb(n + h_max, n) - 1 if h_max > 0 else 0
    if count > _GRID_CAP:
        raise BudgetExceeded(
            f"{count} vectors up to height {h_max} exceed the sweep cap of {_GRID_CAP}",
            predicted=count,
        )
    vec = [0] * n

    def rec(pos: int, left: int):
        if pos == n - 1:
            for x in range(left + 1):
                vec[pos] = x
                yield tuple(vec)
            vec[pos] = 0
            return
        for x in range(left + 1):
            vec[pos] = x
            yield from rec(pos + 1, left - x)
        vec[pos] = 0

    return (v for v in rec(0, h_max) if any(v)) if count else iter(())


def positive_roots_up_to(lat: CartanLattice, height: int) -> RootSet:
    """All positive roots of coordinate-sum height at most `height`.

    Real roots are the reflection closure of the simples; imaginary roots
    are the reflection closure of the fundamental-region vectors.  Both
    closures stay under the height ceiling, which loses nothing because
    descent to a simple (or to the fundamental region) is strictly
    height-decreasing.
    """
    n = len(lat.names)
    grid = _nonneg_vectors(n, height)  # refused here, before any closure, when too large
    found: dict[tuple[int, ...], RootKind] = {}

    def push_closure(seeds, kind: RootKind):
        todo = list(seeds)
        while todo:
            w = todo.pop()
            if w in found:
                continue
            found[w] = kind
            for i in range(n):
                w2 = reflect(lat, i, w)
                if w2 not in found and min(w2) >= 0 and 0 < sum(w2) <= height:
                    todo.append(w2)

    simples = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        if 1 <= height:
            simples.append(e)
    push_closure(simples, "real")

    fundamentals = []
    for w in grid:
        if any(lat.pairing(w, i) > 0 for i in range(n)):
            continue
        if _support_connected(lat, w):
            fundamentals.append(w)
    push_closure(fundamentals, "imaginary")

    records = tuple(
        RootRecord(v, k)
        for v, k in sorted(found.items(), key=lambda it: (sum(it[0]), it[0]))
    )
    return RootSet(lat, height, records)


# --- folding the root system ---


@_record
class SigmaImageReport:
    """Comparison of {f(sigma(beta))} with the folded positive roots up to a
    height bound, with the contributing orbit count per folded root."""

    height: int
    folded_roots: tuple[tuple[int, ...], ...]
    image: tuple[tuple[int, ...], ...]
    matches: bool
    orbit_counts: dict[tuple[int, ...], int]
    real_single_orbit: bool


def sigma_root_image(a: Automorphism, height: int) -> SigmaImageReport:
    q = a.quiver
    n = a.order
    folded = positive_roots_up_to(fold(a).lattice, height)

    lat = quiver_lattice(q)
    unfolded = positive_roots_up_to(lat, n * height)

    move = partial(act_on_dimension_vector, a)
    image: set[tuple[int, ...]] = set()
    orbit_seen: dict[tuple[int, ...], set] = {}
    for rec in unfolded.records:
        beta = rec.vector
        w = f_map(a, sigma(a, beta))
        if sum(w) > height:
            continue
        image.add(w)
        orbit_seen.setdefault(w, set()).add(min(_orbit(beta, move)))

    counts = {w: len(s) for w, s in orbit_seen.items()}
    reals = set(folded.reals())
    ok_single = all(counts.get(w, 0) == 1 for w in reals)
    return SigmaImageReport(
        height=height,
        folded_roots=tuple(sorted(folded.vectors)),
        image=tuple(sorted(image)),
        matches=image == set(folded.vectors),
        orbit_counts=counts,
        real_single_orbit=ok_single,
    )


# --- radical of the form ---


def null_root(lat: CartanLattice) -> tuple[int, ...] | None:
    """Primitive positive generator of the radical of B, if the radical is a
    line spanned by a positive vector; None otherwise."""
    from fractions import Fraction

    from .reps import nullspace

    # the field operations that reps.rref and reps.nullspace call, done exactly
    rationals = SimpleNamespace(
        inv=lambda a: 1 / Fraction(a), mul=operator.mul, sub=operator.sub, neg=operator.neg
    )
    space = nullspace(rationals, lat.b_matrix, len(lat.names))
    if len(space) != 1:
        return None
    col = space[0]
    scale = lcm(*(x.denominator for x in col))
    ints = [int(x * scale) for x in col]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if any(x <= 0 for x in ints):
        return None
    return tuple(ints)


def defect(quiver: Quiver, x: Sequence[int]) -> int:
    """Euler pairing of the null root against x; the step of one full
    reflection-functor sweep on dimension vectors."""
    delta = null_root(quiver_lattice(quiver))
    if delta is None:
        raise NoNullRoot("the form on this quiver has no null root")
    return euler_form(quiver, delta, x)


# --- collapsing a skew quiver's lattice ---


def h_map(skq, beta: Sequence[int]) -> tuple[int, ...]:
    """Sum skew-quiver coordinates over each label class (𝐢, *) to land in
    the folded lattice."""
    group = skq.group_of_vertex
    out = [0] * len(skq.orbit_names)
    for k, x in enumerate(_vector(beta, len(group), "skew quiver")):
        out[group[k]] += x
    return tuple(out)
