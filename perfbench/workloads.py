"""The two workloads: what each one runs, the choice its seed makes, and the
frozen answer every op is checked against.

Nothing here imports quiverfold at module level.  The orchestrator
(``run.py``) imports this file only for the CLI request mix; the ops that
call the library are built inside a worker process, which passes the
imported package in as ``qf``.

Each workload has a full size, which the benchmark reports, and a small size
with its own frozen answers, which only ``selfcheck.py`` uses to test the
harness.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("catalog-cap", "cli-cold")

# The four corner-swapped vectors of the star are equivalent under its
# symmetry; each gives 16**6 states over GF(16).  Their build cost is not
# the same: with the empty arm at an end of the arm order (first or last
# vector) a build takes about 15 % longer than with it in the middle.  The
# seed picks one of that slower pair, so that every run does the same work.
CAP_VECTORS = ((0, 1, 1, 1, 2), (1, 0, 1, 1, 2), (1, 1, 0, 1, 2), (1, 1, 1, 0, 2))
TIMED_VECTORS = (CAP_VECTORS[0], CAP_VECTORS[3])

# field spec, states, classes, largest orbit, indecomposables
CAP_EXPECT = {
    "full": ("2^4", 16**6, 15, 13_770_000, 1),
    "small": ("2", 2**6, 15, 6, 1),
}


class WrongAnswer(Exception):
    """An op returned a result that differs from its frozen answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


@dataclass
class Op:
    """One timed call.  ``check`` gets the return value and raises
    WrongAnswer on a wrong result.  Ops named ``refuse-*`` are the ones whose
    expected outcome is a refusal; the trace reports their builds apart."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


# --- catalog-cap ---


def cap_vector(seed: int) -> tuple[int, ...]:
    return random.Random(seed).choice(TIMED_VECTORS)


def catalog_cap_ops(qf, seed: int, size: str = "full") -> list[Op]:
    spec, states, classes, largest, indecs = CAP_EXPECT[size]
    star, _, _ = qf.build_dtilde4()
    fld = qf.field_from_spec(spec)
    dims = cap_vector(seed)
    got: dict[str, Any] = {}

    def build():
        got["cat"] = qf.isoclasses(star, dims, fld)
        return got["cat"]

    def check_catalog(cat) -> None:
        expect(cat.n_classes == classes, f"{cat.n_classes} classes, not {classes}")
        expect(int(cat.sizes.sum()) == states, "orbit sizes do not sum to the state count")
        expect(int(cat.sizes.max()) == largest, f"largest orbit {int(cat.sizes.max())}, not {largest}")

    def check_flags(flags) -> None:
        expect(int(flags.sum()) == indecs, f"{int(flags.sum())} indecomposables, not {indecs}")

    return [
        Op("isoclasses", build, check_catalog),
        Op("indec_flags", lambda: got["cat"].indec_flags, check_flags),
    ]


# --- cli-cold ---

DOCS = ("flip", "a3", "star", "cx", "pair21", "pair41")


def write_documents(qf, docs_dir: str) -> None:
    """The CLI input documents, written with the package's own serialisers."""
    star, _, _ = qf.build_dtilde4()
    q3, flip = qf.build_a3_flip()
    cq, rot = qf.build_counterexample()
    content = {
        "flip": qf.quiver_to_dict(q3, flip),
        "a3": qf.quiver_to_dict(q3),
        "star": qf.quiver_to_dict(star),
        "cx": qf.quiver_to_dict(cq, rot),
        "pair21": qf.valued_to_dict(qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 2)])),
        "pair41": qf.valued_to_dict(qf.make_valued_quiver(["u", "v"], [4, 1], [("u", "v", 4)])),
    }
    for name in DOCS:
        with open(f"{docs_dir}/{name}.json", "w", encoding="utf-8") as fh:
            fh.write(qf.json_dumps(content[name]))


@dataclass
class Request:
    """One cold CLI call.  ``check`` gets (exit code, stdout, stderr)."""

    name: str
    argv: list[str]
    check: Callable[[int, str, str], None] = field(repr=False)


def _json_gate(test: Callable[[dict], bool], what: str) -> Callable[[int, str, str], None]:
    def check(code: int, out: str, err: str) -> None:
        expect(code == 0, f"exit code {code}: {err.strip()[:200]}")
        try:
            ok = test(json.loads(out))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise WrongAnswer(f"{what}: malformed output ({type(exc).__name__}: {exc})") from None
        expect(ok, what)

    return check


def _listing_gate(code: int, out: str, err: str) -> None:
    expect(code == 0, f"exit code {code}: {err.strip()[:200]}")
    names = ["a3-flip", "counterexample", "dtilde4-3cycle", "dtilde4-4cycle"]
    expect(out.split() == names, f"fixture listing {out.split()}")


def _refusal_gate(code: int, out: str, err: str) -> None:
    expect(code == 2, f"exit code {code}, not 2")
    expect(err.startswith("error:"), f"stderr {err.strip()[:200]!r}")


def cli_requests(docs_dir: str, size: str = "full") -> list[Request]:
    """The request mix in its canonical order."""
    d = {name: f"{docs_dir}/{name}.json" for name in DOCS}
    # the small refusal trips a lowered cap over GF(16) in well under a second
    refuse_args = ["--field", "3"] if size == "full" else ["--field", "2", "--cap-states", "65536"]
    roots = {(1, 0), (0, 1), (1, 1), (1, 2)}
    return [
        Request("fixtures", ["fixtures"], _listing_gate),
        Request(
            "fixtures-a3-flip",
            ["fixtures", "a3-flip"],
            _json_gate(lambda doc: doc["vertices"] == ["1", "2", "3"], "a3-flip vertices"),
        ),
        Request(
            "fold",
            ["fold", d["flip"], "--json"],
            _json_gate(
                lambda doc: doc["d"] == [2, 1] and doc["c_matrix"] == [[2, -1], [-2, 2]],
                "fold of the flip",
            ),
        ),
        Request(
            "skew",
            ["skew", d["flip"], "--json"],
            _json_gate(
                lambda doc: doc["vertices"] == ["1:0", "2:0", "2:1"] and len(doc["arrows"]) == 2,
                "skew quiver of the flip",
            ),
        ),
        Request(
            "roots",
            ["roots", d["pair21"], "--max-height", "4", "--json"],
            _json_gate(
                lambda doc: {tuple(r["vector"]) for r in doc["roots"]} == roots
                and len(doc["roots"]) == 4
                and all(r["kind"] == "real" for r in doc["roots"]),
                "roots of (2,1) to height 4",
            ),
        ),
        Request(
            "classify",
            ["classify", d["pair21"], "--vector", "1,2", "--json"],
            _json_gate(
                lambda doc: doc["kind"] == "real" and doc["word"] == ["v"] and doc["simple"] == "u",
                "classification of (1,2)",
            ),
        ),
        Request(
            "indecs",
            ["indecs", d["star"], "--dim", "1,1,1,1,2", "--field", "3", "--json"],
            _json_gate(
                lambda doc: doc["catalog"]["state_count"] == 3**8
                and len(doc["catalog"]["classes"]) == 52
                and len(doc["indecomposables"]) == 7,
                "star catalog at the null root over GF(3)",
            ),
        ),
        Request(
            "ii-indecs",
            ["ii-indecs", d["cx"], "--dim", "1,1,1,1,1", "--field", "5", "--json"],
            _json_gate(
                lambda doc: [c["period"] for c in doc["classes"]] == [1],
                "one period-1 class on the counterexample",
            ),
        ),
        Request(
            "verify-kac",
            ["verify", "kac", d["a3"], "--field", "2", "--max-height", "4", "--json"],
            _json_gate(
                lambda doc: doc["passed"] is True and len(doc["records"]) == 6,
                "kac report on a3",
            ),
        ),
        Request(
            "species-21",
            ["species-count", d["pair21"], "--field", "3", "--dim", "1,2", "--json"],
            _json_gate(lambda doc: doc["count"] == 1, "species count of (2,1) at (1,2)"),
        ),
        Request(
            "refuse-41",
            ["species-count", d["pair41"], "--dim", "1,2", *refuse_args],
            _refusal_gate,
        ),
    ]


def cli_order(seed: int, pass_index: int, requests: list[Request]) -> list[Request]:
    """The seeded request order of one pass over the mix."""
    out = list(requests)
    random.Random(f"{seed}:{pass_index}").shuffle(out)
    return out


def cli_request_ops(docs_dir: str, name: str, size: str = "full") -> list[Op]:
    """One request of the mix as an in-process ``cli.main(argv)`` op, for
    the traced run."""
    import contextlib
    import io

    from quiverfold import cli

    [req] = [r for r in cli_requests(docs_dir, size) if r.name == name]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req.argv)
        return code, out.getvalue(), err.getvalue()

    return [Op(req.name, call, lambda res: req.check(*res))]
