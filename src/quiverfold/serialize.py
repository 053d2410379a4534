"""JSON documents for quivers, valued quivers, representations, catalogs
and reports.

The emitted JSON is deterministic (sorted keys, two-space indent, trailing
newline) so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .errors import Incompatible, UnknownVertex
from .quiver import Automorphism, Quiver, validate_automorphism, validate_quiver

if TYPE_CHECKING:
    from .cartan import FoldData, ValuedQuiver
    from .catalog import IsoClassCatalog
    from .reps import Representation
    from .skew import SkewQuiver


def json_dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- quivers with optional automorphism ---


def quiver_to_dict(q: Quiver, a: Automorphism | None = None) -> dict:
    doc: dict[str, Any] = {
        "vertices": list(q.vertices),
        "arrows": [{"id": r.id, "from": r.source, "to": r.target} for r in q.arrows],
    }
    if a is not None:
        doc["automorphism"] = {
            "vertices": {v: w for v, w in a.vertex_map.items() if v != w},
            "arrows": {r: s for r, s in a.arrow_map.items() if r != s},
        }
    return doc


def _arrays(doc: dict, what: str, keys: tuple[str, ...]) -> list:
    """The document's values at keys, each a JSON array ("d" may be an object)."""
    for key in keys:
        if key not in doc:
            raise Incompatible(f"{what} document needs {key!r}")
        if not isinstance(doc[key], (list, dict) if key == "d" else list):
            shape = "a JSON array or object" if key == "d" else "a JSON array"
            raise Incompatible(f"{what} document's {key!r} must be {shape}")
    return [doc[key] for key in keys]


def quiver_from_dict(doc: dict) -> tuple[Quiver, Automorphism | None]:
    q = validate_quiver(*_arrays(doc, "quiver", ("vertices", "arrows")))
    auto = None
    spec = doc.get("automorphism")
    if spec is not None:
        if not isinstance(spec, dict):
            raise Incompatible("'automorphism' must map 'vertices' and 'arrows'")
        auto = validate_automorphism(q, spec.get("vertices", {}), spec.get("arrows"))
    return q, auto


# --- valued quivers ---


def valued_to_dict(vq: ValuedQuiver) -> dict:
    return {
        "vertices": list(vq.vertices),
        "d": {v: w for v, w in zip(vq.vertices, vq.d)},
        "edges": [{"from": e.source, "to": e.target, "b": e.b} for e in vq.edges],
    }


def valued_from_dict(doc: dict) -> ValuedQuiver:
    from .cartan import make_valued_quiver

    verts, d, edges = _arrays(doc, "valued quiver", ("vertices", "d", "edges"))
    verts = [str(v) for v in verts]
    d = [d.get(v) for v in verts] if isinstance(d, dict) else d
    return make_valued_quiver(verts, d, edges)


def is_valued_document(doc: dict) -> bool:
    return "d" in doc and "edges" in doc


def fold_to_dict(fd: FoldData) -> dict:
    vq = fd.valued_quiver
    return {
        "orbits": {
            name: list(members)
            for name, members in zip(fd.orbit_names, fd.auto.vertex_orbits)
        },
        "b_matrix": [list(row) for row in fd.b_matrix],
        "c_matrix": [list(row) for row in fd.c_matrix],
        "d": list(fd.d),
        "valued": valued_to_dict(vq),
        "edge_pairs": [list(vq.edge_pair(e)) for e in vq.edges],
    }


def skew_to_dict(skq: SkewQuiver) -> dict:
    doc = quiver_to_dict(skq.quiver, skq.auto)
    doc["origins"] = {
        rid: {"arrow_orbit": o.arrow_orbit, "residue": o.residue}
        for rid, o in skq.origin_of_arrow.items()
    }
    return doc


# --- representations ---


def rep_to_dict(rep: Representation) -> dict:
    return {
        "field": rep.field.spec,
        "dims": {v: d for v, d in zip(rep.quiver.vertices, rep.dims)},
        "matrices": {
            r.id: [list(row) for row in m]
            for r, m in zip(rep.quiver.arrows, rep.matrices)
        },
    }


def rep_from_dict(doc: dict, quiver: Quiver) -> Representation:
    from .gf import field_from_spec
    from .reps import make_representation

    for key in ("field", "dims"):
        if key not in doc:
            raise Incompatible(f"representation document needs {key!r}")
    fld = field_from_spec(doc["field"])
    dims = doc["dims"]
    if isinstance(dims, dict):
        for v in dims:
            if v not in quiver.vertex_index:
                raise UnknownVertex(f"'dims' names vertex {v!r}, which the quiver does not have")
        dims = [dims.get(v, 0) for v in quiver.vertices]
    # make_representation refuses a dim that is not an integer
    return make_representation(quiver, fld, dims, doc.get("matrices"))


# --- catalogs ---


def catalog_to_dict(cat: IsoClassCatalog, a: Automorphism | None = None) -> dict:
    from .catalog import twist_annotations

    notes = twist_annotations(cat, a)
    classes = []
    for ci in range(cat.n_classes):
        entry: dict[str, Any] = {
            "state": int(cat.class_reps[ci]),
            "orbit_size": int(cat.sizes[ci]),
            "indecomposable": bool(cat.indec_flags[ci]),
            "frobenius_period": notes[ci]["frobenius_period"],
        }
        if a is not None:
            entry["auto_period"] = notes[ci]["auto_period"]
        classes.append(entry)
    return {
        "field": cat.field.spec,
        "dims": {v: d for v, d in zip(cat.quiver.vertices, cat.dims)},
        "state_count": int(cat.space.size),
        "classes": classes,
    }
