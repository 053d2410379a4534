"""Finite quivers, their automorphisms, and orbit data.

A quiver here is a finite directed graph with string-labelled vertices and
arrows.  Vertex loops are forbidden throughout (an arrow never starts and
ends at the same vertex); parallel arrows are allowed and kept apart by
their ids.  The vertex tuple fixes the coordinate order used by every
dimension vector and lattice built on the quiver.

An automorphism is a pair of compatible permutations (one of the vertices,
one of the arrows).  Only admissible automorphisms are accepted: no arrow
may join two vertices lying in a single vertex orbit.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import lcm
from operator import attrgetter, index
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DanglingEndpoint,
    DuplicateId,
    Incompatible,
    LatticeMismatch,
    NotAdmissible,
    NotPermutation,
    TwistPeriodBroken,
    UnknownVertex,
    VertexLoop,
)


def _record(cls):
    """Make a class body's annotated names, in order, the fields of a value
    record; a name also assigned in the body takes that value as default.

    Adds ``__init__`` (positional or keyword arguments; a missing or unknown
    one raises TypeError), ``__repr__`` (``Name(field=value, ...)``, leaving
    out fields whose name starts with ``_``) and ``__eq__`` (records of the
    same class with equal fields).  Every record is a frozen value: it
    refuses assignment and deletion with AttributeError and hashes its
    fields.  The methods are closures over the field names, so defining a
    record generates no code and a cold start does not import
    ``dataclasses``.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    shown = [n for n in names if not n.startswith("_")]
    fields = attrgetter(*names)
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            if len(args) > len(names) or given.keys() & kwargs or kwargs.keys() - names:
                raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
            given = {**defaults, **given, **kwargs}
            missing = [n for n in names if n not in given]
            if missing:
                raise TypeError(f"{cls.__name__}() missing {', '.join(missing)}")
            args = [given[n] for n in names]
        # set one by one, as a plain class does, so the values stay inline;
        # a filled __dict__ makes every later field read slower
        for name, value in zip(names, args):
            set_field(self, name, value)

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or fields(self) == fields(other)

    def refuse(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {cls.__name__}")

    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
    cls.__setattr__ = cls.__delattr__ = refuse
    cls.__hash__ = lambda self: hash(fields(self))
    return cls


@_record
class Arrow:
    id: str
    source: str
    target: str


@_record
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def arrow_by_id(self) -> dict[str, Arrow]:
        return {r.id: r for r in self.arrows}

    @cached_property
    def _arrows_in(self) -> dict[str, tuple[Arrow, ...]]:
        acc: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for r in self.arrows:
            acc[r.target].append(r)
        return {v: tuple(rs) for v, rs in acc.items()}

    @cached_property
    def _arrows_out(self) -> dict[str, tuple[Arrow, ...]]:
        acc: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for r in self.arrows:
            acc[r.source].append(r)
        return {v: tuple(rs) for v, rs in acc.items()}

    def arrows_into(self, v: str) -> tuple[Arrow, ...]:
        return self._arrows_in[v]

    def is_sink(self, v: str) -> bool:
        return not self._arrows_out[v]

    def is_source(self, v: str) -> bool:
        return not self._arrows_in[v]

    def reversed_at(self, vertices: Iterable[str]) -> "Quiver":
        """The quiver with every arrow touching one of `vertices` reversed.

        Arrow ids are preserved, so representations can be transported
        between the two orientations arrow by arrow.
        """
        flip = frozenset(vertices)
        new = tuple(
            Arrow(r.id, r.target, r.source)
            if (r.source in flip or r.target in flip)
            else r
            for r in self.arrows
        )
        return Quiver(self.vertices, new)

    def check_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        return _vector(v, len(self.vertices), "quiver")

    def check_dims(self, v: Sequence[int]) -> tuple[int, ...]:
        """check_vector, also requiring every entry to be non-negative."""
        dd = self.check_vector(v)
        if any(x < 0 for x in dd):
            raise LatticeMismatch("dimensions must be non-negative")
        return dd

    def entry_count(self, dims: Sequence[int]) -> int:
        """Matrix entries of a representation at dims: the sum over the
        arrows of d_target * d_source."""
        idx = self.vertex_index
        return sum(dims[idx[a.target]] * dims[idx[a.source]] for a in self.arrows)


def _box(d: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All nonzero beta with beta <= d componentwise (d itself included)."""
    for beta in product(*(range(x + 1) for x in d)):
        if any(beta):
            yield beta


def _integer(x, what: str) -> int:
    """x as an int; a float, a string or other non-integer is refused, not truncated."""
    try:
        return index(x)
    except TypeError:
        raise LatticeMismatch(f"{what} is {x!r}, not an integer") from None


def _vector(v, n: int, owner: str) -> tuple[int, ...]:
    """v as a tuple of n ints, for an ``owner`` of n vertices; a value that
    is not a sequence, a wrong length or a non-integer entry is refused."""
    try:
        size = len(v)
    except TypeError:
        raise LatticeMismatch(f"vector is {v!r}, not a sequence") from None
    if size != n:
        raise LatticeMismatch(f"vector has length {size}, {owner} has {n} vertices")
    return tuple(_integer(x, "vector entry") for x in v)


def _triple(item, keys: tuple[str, str, str], what: str) -> tuple:
    """The three fields of a document's arrow or edge, given as a mapping
    with ``keys`` or as a triple; refused, naming a missing key, otherwise."""
    try:
        a, b, c = (item[k] for k in keys) if isinstance(item, Mapping) else item
    except KeyError as exc:
        raise Incompatible(f"{what} {item!r} needs {exc.args[0]!r}") from None
    except (TypeError, ValueError):
        raise Incompatible(f"{what} {item!r} is not a triple ({', '.join(keys)})") from None
    return a, b, c


def validate_quiver(vertices: Sequence[str], arrows: Iterable) -> Quiver:
    """Build a :class:`Quiver` after checking the usual sanity conditions.

    `arrows` may contain :class:`Arrow` objects, `(id, source, target)`
    triples, or mappings with keys ``id``/``from``/``to``.
    """
    verts = tuple(str(v) for v in vertices)
    seen: set[str] = set()
    for v in verts:
        if v in seen:
            raise DuplicateId(f"duplicate vertex id {v!r}")
        seen.add(v)

    norm: list[Arrow] = []
    for item in arrows:
        if isinstance(item, Arrow):
            r = item
        else:
            rid, src, tgt = _triple(item, ("id", "from", "to"), "arrow")
            r = Arrow(str(rid), str(src), str(tgt))
        norm.append(r)

    ids: set[str] = set()
    vset = set(verts)
    for r in norm:
        if r.id in ids:
            raise DuplicateId(f"duplicate arrow id {r.id!r}")
        ids.add(r.id)
        if r.source not in vset:
            raise DanglingEndpoint(f"arrow {r.id!r} starts at unknown vertex {r.source!r}")
        if r.target not in vset:
            raise DanglingEndpoint(f"arrow {r.id!r} ends at unknown vertex {r.target!r}")
        if r.source == r.target:
            raise VertexLoop(f"arrow {r.id!r} is a loop at vertex {r.source!r}")
    return Quiver(verts, tuple(norm))


# --- automorphisms ---


@_record
class Automorphism:
    """An admissible automorphism, stored as image tuples aligned with the
    quiver's vertex and arrow order."""

    quiver: Quiver
    vertex_image: tuple[str, ...]
    arrow_image: tuple[str, ...]

    @cached_property
    def vertex_map(self) -> dict[str, str]:
        return dict(zip(self.quiver.vertices, self.vertex_image))

    @cached_property
    def arrow_map(self) -> dict[str, str]:
        return {r.id: img for r, img in zip(self.quiver.arrows, self.arrow_image)}

    @cached_property
    def inverse_arrow_map(self) -> dict[str, str]:
        return {img: r for r, img in self.arrow_map.items()}

    def apply_vertex(self, v: str) -> str:
        return self.vertex_map[v]

    def apply_arrow(self, rid: str) -> str:
        return self.arrow_map[rid]

    @cached_property
    def vertex_orbits(self) -> tuple[tuple[str, ...], ...]:
        """The vertex cycles, found once per automorphism (see _cycles)."""
        return _cycles(self.quiver.vertices, self.vertex_map.__getitem__)

    @cached_property
    def arrow_orbits(self) -> tuple[tuple[str, ...], ...]:
        return _cycles([r.id for r in self.quiver.arrows], self.arrow_map.__getitem__)

    @cached_property
    def arrow_orbit_ends(self) -> tuple[tuple[int, int], ...]:
        """(source, target) vertex-orbit indices of each arrow orbit's first
        arrow."""
        orbit_of = {v: k for k, orb in enumerate(self.vertex_orbits) for v in orb}
        firsts = (self.quiver.arrow_by_id[orb[0]] for orb in self.arrow_orbits)
        return tuple((orbit_of[r.source], orbit_of[r.target]) for r in firsts)

    @cached_property
    def order(self) -> int:
        return lcm(*map(len, self.vertex_orbits + self.arrow_orbits))

    @property
    def is_identity(self) -> bool:
        return self == self.identity(self.quiver)  # no cycle walked

    def inverse(self) -> "Automorphism":
        return self.power(-1)

    def power(self, k: int) -> "Automorphism":
        """a^k: each vertex and each arrow moves k steps along its orbit."""
        def moved(orbits):
            return {x: orb[(i + k) % len(orb)] for orb in orbits for i, x in enumerate(orb)}

        vmap, amap = moved(self.vertex_orbits), moved(self.arrow_orbits)
        return Automorphism(
            self.quiver,
            tuple(vmap[v] for v in self.quiver.vertices),
            tuple(amap[r.id] for r in self.quiver.arrows),
        )

    @classmethod
    def identity(cls, quiver: Quiver) -> "Automorphism":
        return cls(quiver, quiver.vertices, tuple(r.id for r in quiver.arrows))


def _orbit(start: Hashable, step: Callable, order: int | None = None) -> tuple:
    """start, step(start), step(step(start)), ... up to the first return to
    start.  Given an order, the walk must return within it and its length
    must divide it; otherwise TwistPeriodBroken is raised."""
    out = [start]
    cur = step(start)
    while cur != start:
        if len(out) == order:
            raise TwistPeriodBroken(f"orbit did not close within its order {order}")
        out.append(cur)
        cur = step(cur)
    if order is not None and order % len(out):
        raise TwistPeriodBroken(f"period {len(out)} does not divide its order {order}")
    return tuple(out)


def _cycles(items: Iterable, step: Callable, order: int | None = None) -> tuple[tuple, ...]:
    """Cycles of `step`, a permutation of `items`, each walked by _orbit
    (with `order`) from its earliest item, listed in order of that item's
    position in `items`."""
    seen: set = set()
    out: list[tuple] = []
    for start in items:
        if start not in seen:
            out.append(_orbit(start, step, order))
            seen.update(out[-1])
    return tuple(out)


def validate_automorphism(
    quiver: Quiver,
    vertex_map: Mapping[str, str],
    arrow_map: Mapping[str, str] | None = None,
) -> Automorphism:
    """Check a vertex permutation (and arrow permutation) and build the
    automorphism.

    Vertices missing from `vertex_map` are taken as fixed points.  When
    `arrow_map` is omitted it is inferred, which is unambiguous exactly when
    no two parallel arrows share their endpoint pair.
    """
    for name, m in (("vertex", vertex_map), ("arrow", arrow_map or {})):
        if not isinstance(m, Mapping):
            raise NotPermutation(f"{name} map {m!r} is not a mapping of ids to ids")
    vset = set(quiver.vertices)
    for v in vertex_map:
        if v not in vset:
            raise NotPermutation(f"vertex map mentions unknown vertex {v!r}")
    vmap = {v: str(vertex_map.get(v, v)) for v in quiver.vertices}
    if set(vmap.values()) != vset:
        raise NotPermutation("vertex map is not a bijection of the vertex set")

    if arrow_map is None:
        amap = _infer_arrow_map(quiver, vmap)
    else:
        ids = {r.id for r in quiver.arrows}
        for r in arrow_map:
            if r not in ids:
                raise NotPermutation(f"arrow map mentions unknown arrow {r!r}")
        amap = {r.id: str(arrow_map.get(r.id, r.id)) for r in quiver.arrows}
        if set(amap.values()) != ids:
            raise NotPermutation("arrow map is not a bijection of the arrow set")
        for r in quiver.arrows:
            img = quiver.arrow_by_id[amap[r.id]]
            if img.source != vmap[r.source] or img.target != vmap[r.target]:
                raise Incompatible(
                    f"arrow {r.id!r} maps to {img.id!r}, whose endpoints do not "
                    f"match the vertex images"
                )

    a = Automorphism(
        quiver,
        tuple(vmap[v] for v in quiver.vertices),
        tuple(amap[r.id] for r in quiver.arrows),
    )

    # an orbit's arrows all break the rule or none does, so the earliest
    # arrow of the first orbit that breaks it is the first in quiver order
    for (si, ti), orb in zip(a.arrow_orbit_ends, a.arrow_orbits):
        if si == ti:
            r = quiver.arrow_by_id[orb[0]]
            raise NotAdmissible(
                f"arrow {r.id!r} joins vertices {r.source!r} and {r.target!r} "
                f"of a single vertex orbit"
            )
    return a


def _infer_arrow_map(quiver: Quiver, vmap: Mapping[str, str]) -> dict[str, str]:
    by_ends: dict[tuple[str, str], list[Arrow]] = {}
    for r in quiver.arrows:
        by_ends.setdefault((r.source, r.target), []).append(r)
    amap: dict[str, str] = {}
    for r in quiver.arrows:
        cands = by_ends.get((vmap[r.source], vmap[r.target]), [])
        if not cands:
            raise Incompatible(
                f"no compatible arrow map exists: arrow {r.id!r} has no image "
                f"from {vmap[r.source]!r} to {vmap[r.target]!r}"
            )
        if len(cands) > 1:
            raise Incompatible(
                f"arrow map is ambiguous at {r.id!r} (parallel arrows); "
                f"pass it explicitly"
            )
        amap[r.id] = cands[0].id
    if len(set(amap.values())) != len(amap):
        raise Incompatible("inferred arrow map is not a bijection")
    return amap


# --- orbit data ---


def _orbit_members(a: Automorphism, orbit: int | Iterable[str]) -> tuple[str, ...]:
    """The vertices of one orbit, given as an index into ``a.vertex_orbits``
    or as the vertices themselves."""
    if not isinstance(orbit, int):
        return tuple(orbit)
    if not 0 <= orbit < len(a.vertex_orbits):
        raise UnknownVertex(f"automorphism has no vertex orbit {orbit}")
    return a.vertex_orbits[orbit]


def act_on_dimension_vector(a: Automorphism, d: Sequence[int]) -> tuple[int, ...]:
    """Push a dimension vector forward: the value at vertex v moves to a(v)."""
    q = a.quiver
    vec = q.check_vector(d)
    out = [0] * len(vec)
    idx = q.vertex_index
    for k, v in enumerate(q.vertices):
        out[idx[a.apply_vertex(v)]] = vec[k]
    return tuple(out)
