"""Command-line front end.

Exit codes: 0 on success, 1 when a theorem check ran and failed (witnesses
are printed), 2 on usage, validation or budget errors and on a failed
internal cross-check.  JSON output is deterministic for identical inputs.

Only the commands that enumerate classes (``indecs``, ``ii-indecs``,
``species-count`` and ``verify``) import ``catalog`` and ``theorems``, so
the others run without loading numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .cartan import fold
from .errors import CrossCheckFailed, QuiverFoldError
from .fixtures import build_a3_flip, build_counterexample, build_dtilde4
from .gf import field_from_spec
from .quiver import Automorphism, Quiver
from .reps import is_indecomposable
from .roots import classify, folded_lattice, positive_roots_up_to, quiver_lattice
from .serialize import (
    catalog_to_dict,
    fold_to_dict,
    is_valued_document,
    json_dumps,
    quiver_from_dict,
    quiver_to_dict,
    rep_to_dict,
    skew_to_dict,
    valued_from_dict,
)
from .skew import skew, unfold


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: one command plus the knobs it may consult."""

    command: str
    input_path: str | None = None
    field_spec: str | None = None
    max_height: int | None = None
    dims: tuple[int, ...] | None = None
    as_json: bool = False
    cap_states: int = 2**24
    cap_end: int | None = None
    which: str | None = None
    name: str | None = None


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer vector, got {text!r}"
        )


def _load_document(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _need_quiver(doc: dict) -> tuple[Quiver, Automorphism | None]:
    if is_valued_document(doc):
        raise QuiverFoldError(
            "this command needs a plain quiver document, not a valued one"
        )
    return quiver_from_dict(doc)


def _need_auto(doc: dict) -> Automorphism:
    q, a = _need_quiver(doc)
    if a is None:
        raise QuiverFoldError("this command needs an 'automorphism' entry")
    return a


def _lattice_for(doc: dict):
    if is_valued_document(doc):
        return folded_lattice(valued_from_dict(doc))
    q, a = quiver_from_dict(doc)
    if a is not None and not a.is_identity:
        return folded_lattice(fold(a))
    return quiver_lattice(q)


FIXTURES = {
    "a3-flip": lambda: build_a3_flip(),
    "dtilde4-4cycle": lambda: build_dtilde4()[:2],
    "dtilde4-3cycle": lambda: (build_dtilde4()[0], build_dtilde4()[2]),
    "counterexample": lambda: build_counterexample(),
}


def _emit(cfg: RunConfig, doc: dict, text_lines: list[str]) -> None:
    if cfg.as_json:
        sys.stdout.write(json_dumps(doc))
    else:
        for line in text_lines:
            print(line)


def _cmd_fold(cfg: RunConfig) -> int:
    a = _need_auto(_load_document(cfg.input_path))
    fd = fold(a)
    doc = fold_to_dict(fd)
    lines = [f"orbits: {doc['orbits']}"]
    lines.append("C = " + "; ".join(" ".join(f"{x:3d}" for x in row) for row in fd.c_matrix))
    lines.append(f"d = {list(fd.d)}")
    lines.append(f"edge pairs: {doc['edge_pairs']}")
    _emit(cfg, doc, lines)
    return 0


def _cmd_unfold(cfg: RunConfig) -> int:
    vq = valued_from_dict(_load_document(cfg.input_path))
    a = unfold(vq)
    doc = quiver_to_dict(a.quiver, a)
    lines = [
        f"vertices: {list(a.quiver.vertices)}",
        f"arrows: {[(r.id, r.source, r.target) for r in a.quiver.arrows]}",
        f"automorphism order: {a.order}",
    ]
    _emit(cfg, doc, lines)
    return 0


def _cmd_skew(cfg: RunConfig) -> int:
    a = _need_auto(_load_document(cfg.input_path))
    skq = skew(a)
    doc = skew_to_dict(skq)
    lines = [
        f"vertices: {list(skq.quiver.vertices)}",
        f"arrows: {[(r.id, r.source, r.target) for r in skq.quiver.arrows]}",
        f"shift order: {skq.auto.order}",
    ]
    _emit(cfg, doc, lines)
    return 0


def _cmd_roots(cfg: RunConfig) -> int:
    if cfg.max_height is None:
        raise QuiverFoldError("roots needs --max-height")
    lat = _lattice_for(_load_document(cfg.input_path))
    rs = positive_roots_up_to(lat, cfg.max_height)
    doc = {
        "height": cfg.max_height,
        "roots": [{"vector": list(r.vector), "kind": r.kind} for r in rs.records],
    }
    lines = [f"{r.vector}  {r.kind}" for r in rs.records]
    lines.append(f"{len(rs.records)} roots up to height {cfg.max_height}")
    _emit(cfg, doc, lines)
    return 0


def _cmd_classify(cfg: RunConfig) -> int:
    if cfg.dims is None:
        raise QuiverFoldError("classify needs --dim (alias --vector)")
    lat = _lattice_for(_load_document(cfg.input_path))
    c = classify(lat, cfg.dims)
    doc = {
        "vector": list(cfg.dims),
        "kind": c.kind,
        "sign": c.sign,
        "word": list(c.word),
        "simple": c.simple,
        "fundamental": list(c.fundamental) if c.fundamental else None,
        "reason": c.reason,
    }
    lines = [f"{cfg.dims}: {c.kind}"]
    if c.kind == "real":
        lines.append(f"  word {list(c.word)} applied to simple {c.simple}")
    elif c.kind == "imaginary":
        lines.append(f"  word {list(c.word)} applied to fundamental {c.fundamental}")
    elif c.reason:
        lines.append(f"  {c.reason}")
    _emit(cfg, doc, lines)
    return 0


def _cmd_indecs(cfg: RunConfig) -> int:
    from .catalog import indecomposable_classes, isoclasses

    if cfg.field_spec is None or cfg.dims is None:
        raise QuiverFoldError("indecs needs --field and --dim")
    q, _ = _need_quiver(_load_document(cfg.input_path))
    fld = field_from_spec(cfg.field_spec)
    cat = isoclasses(q, cfg.dims, fld, state_cap=cfg.cap_states)
    reps = indecomposable_classes(q, cfg.dims, fld, state_cap=cfg.cap_states)
    if cfg.cap_end is not None:
        for rep in reps:
            if not is_indecomposable(rep, end_cap=cfg.cap_end):
                raise CrossCheckFailed("sieve and endomorphism search disagree")
    doc = {
        "catalog": catalog_to_dict(cat),
        "indecomposables": [rep_to_dict(r) for r in reps],
        "endomorphism_crosscheck": cfg.cap_end is not None,
    }
    lines = [
        f"{cat.n_classes} classes at dims {list(cfg.dims)} over {fld.spec}, "
        f"{len(reps)} indecomposable"
    ]
    for r in reps:
        lines.append(f"  {rep_to_dict(r)['matrices']}")
    _emit(cfg, doc, lines)
    return 0


def _cmd_ii_indecs(cfg: RunConfig) -> int:
    from .theorems import ii_classes

    if cfg.field_spec is None or cfg.dims is None:
        raise QuiverFoldError("ii-indecs needs --field and --dim")
    a = _need_auto(_load_document(cfg.input_path))
    fld = field_from_spec(cfg.field_spec)
    classes = ii_classes(a, cfg.dims, fld, state_cap=cfg.cap_states)
    doc = {
        "dims": list(cfg.dims),
        "field": fld.spec,
        "classes": [
            {
                "period": c.period,
                "member_dims": [list(m) for m in c.member_dims],
                "base_dims": list(c.base_dims),
                "direct": c.direct,
            }
            for c in classes
        ],
    }
    lines = [f"{len(classes)} twist-orbit-sum classes at dims {list(cfg.dims)}"]
    for c in classes:
        lines.append(f"  period {c.period}: members {[list(m) for m in c.member_dims]}")
    _emit(cfg, doc, lines)
    return 0


def _cmd_species_count(cfg: RunConfig) -> int:
    from .theorems import species_count

    if cfg.field_spec is None or cfg.dims is None:
        raise QuiverFoldError("species-count needs --field and --dim")
    vq = valued_from_dict(_load_document(cfg.input_path))
    n = species_count(vq, cfg.dims, cfg.field_spec, state_cap=cfg.cap_states)
    doc = {"alpha": list(cfg.dims), "field": cfg.field_spec, "count": n}
    _emit(cfg, doc, [f"species count at {list(cfg.dims)} over {cfg.field_spec}: {n}"])
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    from .theorems import (
        multiset_crosscheck,
        verify_kac,
        verify_main_theorem,
        verify_species_theorem,
    )

    if cfg.field_spec is None or cfg.max_height is None:
        raise QuiverFoldError("verify needs --field and --max-height")
    doc_in = _load_document(cfg.input_path)
    if cfg.which == "kac":
        q, _ = _need_quiver(doc_in)
        report = verify_kac(
            q, field_from_spec(cfg.field_spec), cfg.max_height, state_cap=cfg.cap_states
        )
    elif cfg.which == "main":
        a = _need_auto(doc_in)
        report = verify_main_theorem(
            a, field_from_spec(cfg.field_spec), cfg.max_height, state_cap=cfg.cap_states
        )
    elif cfg.which == "species":
        vq = valued_from_dict(doc_in)
        report = verify_species_theorem(
            vq, cfg.field_spec, cfg.max_height, state_cap=cfg.cap_states
        )
    else:  # crosscheck of catalog counts against direct-sum multisets
        q, _ = _need_quiver(doc_in)
        report = multiset_crosscheck(
            q, field_from_spec(cfg.field_spec), cfg.max_height, state_cap=cfg.cap_states
        )
    _emit(cfg, report.to_dict(), report.lines())
    return 0 if report.passed else 1


def _cmd_fixtures(cfg: RunConfig) -> int:
    if cfg.name is None:
        for name in sorted(FIXTURES):
            print(name)
        return 0
    if cfg.name not in FIXTURES:
        raise QuiverFoldError(
            f"unknown fixture {cfg.name!r}; available: {sorted(FIXTURES)}"
        )
    q, a = FIXTURES[cfg.name]()
    doc = quiver_to_dict(q, a)
    sys.stdout.write(json_dumps(doc))
    return 0


_COMMANDS = {
    "fold": _cmd_fold,
    "unfold": _cmd_unfold,
    "skew": _cmd_skew,
    "roots": _cmd_roots,
    "classify": _cmd_classify,
    "indecs": _cmd_indecs,
    "ii-indecs": _cmd_ii_indecs,
    "species-count": _cmd_species_count,
    "verify": _cmd_verify,
    "fixtures": _cmd_fixtures,
}


def _add_common(p: argparse.ArgumentParser, *, with_input: bool = True) -> None:
    if with_input:
        p.add_argument("input", help="path to a JSON document ('-' for stdin)")
    p.add_argument("--field", help="finite field, e.g. 5 or 2^3")
    p.add_argument("--max-height", type=int, help="height bound for sweeps")
    p.add_argument(
        "--dim",
        "--vector",
        dest="dim",
        type=_parse_dims,
        help="comma-separated dimension vector, e.g. 1,2,1",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument(
        "--cap-states",
        type=int,
        default=2**24,
        help="largest state space that will be enumerated directly",
    )
    p.add_argument(
        "--cap-end",
        type=int,
        default=None,
        help="when set, cross-check indecomposability flags by endomorphism "
        "search up to this ring size",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quiverfold",
        description="fold quivers into Cartan data and verify the "
        "dimension-vector theorems at desk scale",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("fold", "unfold", "skew", "roots", "classify", "indecs",
                 "ii-indecs", "species-count"):
        _add_common(sub.add_parser(name))
    p_verify = sub.add_parser("verify")
    p_verify.add_argument(
        "which", choices=["kac", "main", "species", "multisets"],
        help="which counting statement to check",
    )
    _add_common(p_verify)
    p_fix = sub.add_parser("fixtures")
    p_fix.add_argument("name", nargs="?", help="fixture to print (omit to list)")
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    cfg = RunConfig(
        command=ns.command,
        input_path=getattr(ns, "input", None),
        field_spec=getattr(ns, "field", None),
        max_height=getattr(ns, "max_height", None),
        dims=getattr(ns, "dim", None),
        as_json=getattr(ns, "json", False),
        cap_states=getattr(ns, "cap_states", 2**24),
        cap_end=getattr(ns, "cap_end", None),
        which=getattr(ns, "which", None),
        name=getattr(ns, "name", None),
    )
    try:
        return _COMMANDS[cfg.command](cfg)
    except QuiverFoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
