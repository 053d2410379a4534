"""Command-line front end.

Exit codes: 0 on success, 1 when a theorem check ran and failed (witnesses
are printed), 2 on usage, validation or budget errors and on a failed
internal cross-check.  A folded non-root that carries twist-orbit sums is a
failed check of ``verify main``, so it exits 1 with its witness, not 2.  JSON
output is deterministic for identical inputs.

Each command imports the submodules it uses when it runs, so a cold call
loads only those: listing the fixtures loads nothing past ``errors``, and
only the commands that enumerate classes load ``catalog`` and numpy:
``indecs`` always, and ``ii-indecs``, ``species-count`` and ``verify`` only
where a reflection chain ends at a catalog.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import CrossCheckFailed, QuiverFoldError

if TYPE_CHECKING:
    from .quiver import Automorphism, Quiver


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer vector, got {text!r}"
        )


def _load_document(path: str) -> dict:
    if path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise QuiverFoldError("the input does not hold a JSON object")
    return doc


def _need_quiver(doc: dict) -> tuple[Quiver, Automorphism | None]:
    from .serialize import is_valued_document, quiver_from_dict

    if is_valued_document(doc):
        raise QuiverFoldError(
            "this command needs a plain quiver document, not a valued one"
        )
    return quiver_from_dict(doc)


def _need_auto(doc: dict) -> Automorphism:
    _, a = _need_quiver(doc)
    if a is None:
        raise QuiverFoldError("this command needs an 'automorphism' entry")
    return a


def _need_valued(doc: dict):
    from .serialize import valued_from_dict

    return valued_from_dict(doc)


def _lattice_for(doc: dict):
    from .cartan import fold, quiver_lattice
    from .serialize import is_valued_document, quiver_from_dict, valued_from_dict

    if is_valued_document(doc):
        return valued_from_dict(doc).lattice
    q, a = quiver_from_dict(doc)
    return quiver_lattice(q) if a is None else fold(a).lattice


# fixture name -> its (quiver, automorphism), built from the fixtures module
FIXTURES = {
    "a3-flip": lambda fx: fx.build_a3_flip(),
    "dtilde4-4cycle": lambda fx: fx.build_dtilde4()[:2],
    "dtilde4-3cycle": lambda fx: (fx.build_dtilde4()[0], fx.build_dtilde4()[2]),
    "counterexample": lambda fx: fx.build_counterexample(),
}


def _emit(ns: argparse.Namespace, doc: dict, text_lines: list[str]) -> None:
    if ns.json:
        from .serialize import json_dumps

        sys.stdout.write(json_dumps(doc))
    else:
        for line in text_lines:
            print(line)


def _cmd_fold(ns: argparse.Namespace) -> int:
    from .cartan import fold
    from .serialize import fold_to_dict

    a = _need_auto(_load_document(ns.input))
    fd = fold(a)
    doc = fold_to_dict(fd)
    lines = [f"orbits: {doc['orbits']}"]
    lines.append("C = " + "; ".join(" ".join(f"{x:3d}" for x in row) for row in fd.c_matrix))
    lines.append(f"d = {list(fd.d)}")
    lines.append(f"edge pairs: {doc['edge_pairs']}")
    _emit(ns, doc, lines)
    return 0


def _quiver_lines(quiver: Quiver, order_name: str, order: int) -> list[str]:
    """The text of ``unfold`` and ``skew``: the quiver and its map's order."""
    return [
        f"vertices: {list(quiver.vertices)}",
        f"arrows: {[(r.id, r.source, r.target) for r in quiver.arrows]}",
        f"{order_name} order: {order}",
    ]


def _cmd_unfold(ns: argparse.Namespace) -> int:
    from .serialize import quiver_to_dict
    from .skew import unfold

    a = unfold(_need_valued(_load_document(ns.input)))
    _emit(ns, quiver_to_dict(a.quiver, a), _quiver_lines(a.quiver, "automorphism", a.order))
    return 0


def _cmd_skew(ns: argparse.Namespace) -> int:
    from .serialize import skew_to_dict
    from .skew import skew

    skq = skew(_need_auto(_load_document(ns.input)))
    _emit(ns, skew_to_dict(skq), _quiver_lines(skq.quiver, "shift", skq.auto.order))
    return 0


def _cmd_roots(ns: argparse.Namespace) -> int:
    from .roots import positive_roots_up_to

    if ns.max_height is None or ns.max_height < 0:
        raise QuiverFoldError("roots needs a --max-height of 0 or more")
    lat = _lattice_for(_load_document(ns.input))
    rs = positive_roots_up_to(lat, ns.max_height)
    doc = {
        "height": ns.max_height,
        "roots": [{"vector": list(r.vector), "kind": r.kind} for r in rs.records],
    }
    lines = [f"{r.vector}  {r.kind}" for r in rs.records]
    lines.append(f"{len(rs.records)} roots up to height {ns.max_height}")
    _emit(ns, doc, lines)
    return 0


def _cmd_classify(ns: argparse.Namespace) -> int:
    from .roots import classify

    if ns.dim is None:
        raise QuiverFoldError("classify needs --dim (alias --vector)")
    lat = _lattice_for(_load_document(ns.input))
    c = classify(lat, ns.dim)
    doc = {
        "vector": list(ns.dim),
        "kind": c.kind,
        "sign": c.sign,
        "word": list(c.word),
        "simple": c.simple,
        "fundamental": list(c.fundamental) if c.fundamental else None,
        "reason": c.reason,
    }
    lines = [f"{ns.dim}: {c.kind}"]
    if c.kind == "real":
        lines.append(f"  word {list(c.word)} applied to simple {c.simple}")
    elif c.kind == "imaginary":
        lines.append(f"  word {list(c.word)} applied to fundamental {c.fundamental}")
    elif c.reason:
        lines.append(f"  {c.reason}")
    _emit(ns, doc, lines)
    return 0


def _cmd_indecs(ns: argparse.Namespace) -> int:
    from .gf import field_from_spec
    from .reps import is_indecomposable
    from .serialize import catalog_to_dict, rep_to_dict
    # catalog loads numpy, so it comes last (see the note in catalog)
    from .catalog import isoclasses

    if ns.field is None or ns.dim is None:
        raise QuiverFoldError("indecs needs --field and --dim")
    q, _ = _need_quiver(_load_document(ns.input))
    fld = field_from_spec(ns.field)
    cat = isoclasses(q, ns.dim, fld, state_cap=ns.cap_states)
    reps = [cat.representative(ci) for ci in cat.indec_class_ids()]
    if ns.cap_end is not None:
        for ci, flag in enumerate(cat.indec_flags.tolist()):
            if is_indecomposable(cat.representative(ci), end_cap=ns.cap_end) != flag:
                raise CrossCheckFailed("end-ring test and endomorphism search disagree")
    doc = {
        "catalog": catalog_to_dict(cat),
        "indecomposables": [rep_to_dict(r) for r in reps],
        "endomorphism_crosscheck": ns.cap_end is not None,
    }
    lines = [
        f"{cat.n_classes} classes at dims {list(ns.dim)} over {fld.spec}, "
        f"{len(reps)} indecomposable"
    ]
    for r in reps:
        lines.append(f"  {rep_to_dict(r)['matrices']}")
    _emit(ns, doc, lines)
    return 0


def _cmd_ii_indecs(ns: argparse.Namespace) -> int:
    from .gf import field_from_spec
    from .theorems import ii_classes

    if ns.field is None or ns.dim is None:
        raise QuiverFoldError("ii-indecs needs --field and --dim")
    a = _need_auto(_load_document(ns.input))
    fld = field_from_spec(ns.field)
    classes = ii_classes(a, ns.dim, fld, state_cap=ns.cap_states)
    doc = {
        "dims": list(ns.dim),
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
    lines = [f"{len(classes)} twist-orbit-sum classes at dims {list(ns.dim)}"]
    for c in classes:
        lines.append(f"  period {c.period}: members {[list(m) for m in c.member_dims]}")
    _emit(ns, doc, lines)
    return 0


def _cmd_species_count(ns: argparse.Namespace) -> int:
    from .gf import field_from_spec
    from .serialize import valued_from_dict
    from .theorems import species_count

    if ns.field is None or ns.dim is None:
        raise QuiverFoldError("species-count needs --field and --dim")
    vq = valued_from_dict(_load_document(ns.input))
    n = species_count(vq, ns.dim, ns.field, state_cap=ns.cap_states)
    spec = field_from_spec(ns.field).spec
    doc = {"alpha": list(ns.dim), "field": spec, "count": n}
    _emit(ns, doc, [f"species count at {list(ns.dim)} over {spec}: {n}"])
    return 0


# verify's statement -> the reader of its subject, its check in theorems and
# whether that check takes the field spec as given rather than the field
_VERIFY = {
    "kac": (lambda doc: _need_quiver(doc)[0], "verify_kac", False),
    "main": (_need_auto, "verify_main_theorem", False),
    "species": (_need_valued, "verify_species_theorem", True),
    "multisets": (lambda doc: _need_quiver(doc)[0], "multiset_crosscheck", False),
}


def _cmd_verify(ns: argparse.Namespace) -> int:
    from . import theorems
    from .gf import field_from_spec

    if ns.field is None or ns.max_height is None or ns.max_height < 0:
        raise QuiverFoldError("verify needs --field and a --max-height of 0 or more")
    read, check, by_spec = _VERIFY[ns.which]
    subject = read(_load_document(ns.input))
    fld = ns.field if by_spec else field_from_spec(ns.field)
    report = getattr(theorems, check)(subject, fld, ns.max_height, state_cap=ns.cap_states)
    _emit(ns, report.to_dict(), report.lines())
    return 0 if report.passed else 1


def _cmd_fixtures(ns: argparse.Namespace) -> int:
    if ns.name is None:
        for name in sorted(FIXTURES):
            print(name)
        return 0
    if ns.name not in FIXTURES:
        raise QuiverFoldError(
            f"unknown fixture {ns.name!r}; available: {sorted(FIXTURES)}"
        )
    from . import fixtures
    from .serialize import json_dumps, quiver_to_dict

    q, a = FIXTURES[ns.name](fixtures)
    sys.stdout.write(json_dumps(quiver_to_dict(q, a)))
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


def _add_command(sub, name: str) -> None:
    """The subparser of one command, with only the options it reads."""
    p = sub.add_parser(name)
    if name == "fixtures":
        p.add_argument("name", nargs="?", help="fixture to print (omit to list)")
        return
    if name == "verify":
        p.add_argument(
            "which", choices=list(_VERIFY),
            help="which counting statement to check",
        )
    p.add_argument("input", help="path to a JSON document ('-' for stdin)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if name in ("indecs", "ii-indecs", "species-count", "verify"):
        p.add_argument("--field", help="finite field by its size, e.g. 5, 4 or 2^2")
        p.add_argument(
            "--cap-states",
            type=int,
            default=2**24,
            help="largest state space that will be enumerated directly",
        )
    if name in ("roots", "verify"):
        p.add_argument("--max-height", type=int, help="height bound for sweeps")
    if name in ("classify", "indecs", "ii-indecs", "species-count"):
        p.add_argument(
            "--dim",
            "--vector",
            dest="dim",
            type=_parse_dims,
            help="comma-separated dimension vector, e.g. 1,2,1",
        )
    if name == "indecs":
        p.add_argument(
            "--cap-end",
            type=int,
            default=None,
            help="when set, cross-check indecomposability flags by endomorphism "
            "search up to this ring size",
        )


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone: a request that
    names a known command reads no other subparser."""
    ap = argparse.ArgumentParser(
        prog="quiverfold",
        description="fold quivers into Cartan data and verify the "
        "dimension-vector theorems at desk scale",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    if command:
        # the usage still lists every command; only the full parser, which
        # names this argument by its dest, reports a missing or unknown one
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name in [command] if command else _COMMANDS:
        _add_command(sub, name)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    ns = build_parser(args[0] if args and args[0] in _COMMANDS else None).parse_args(args)
    try:
        if getattr(ns, "cap_states", 1) < 1:
            raise QuiverFoldError(f"{ns.command} needs a --cap-states of 1 or more")
        return _COMMANDS[ns.command](ns)
    except (QuiverFoldError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
