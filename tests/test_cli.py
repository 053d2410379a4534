"""Command-line behaviour: exit codes, text output, JSON determinism."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverfold as qf
from quiverfold import cli, reps, theorems
from quiverfold.theorems import TheoremReport


@pytest.fixture
def flip_doc(tmp_path):
    q, flip = qf.build_a3_flip()
    path = tmp_path / "flip.json"
    path.write_text(qf.json_dumps(qf.quiver_to_dict(q, flip)))
    return str(path)


@pytest.fixture
def pair_doc(tmp_path):
    vq = qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 2)])
    path = tmp_path / "pair.json"
    path.write_text(qf.json_dumps(qf.valued_to_dict(vq)))
    return str(path)


def test_fold_text(flip_doc, capsys):
    assert cli.main(["fold", flip_doc]) == 0
    out = capsys.readouterr().out
    assert "orbits: {'1': ['1', '3'], '2': ['2']}" in out
    assert "d = [2, 1]" in out
    assert "edge pairs: [[2, 1]]" in out


def test_fold_json_deterministic(flip_doc, capsys):
    assert cli.main(["fold", flip_doc, "--json"]) == 0
    one = capsys.readouterr().out
    assert cli.main(["fold", flip_doc, "--json"]) == 0
    two = capsys.readouterr().out
    assert one == two
    doc = json.loads(one)
    assert doc["d"] == [2, 1]
    assert doc["c_matrix"] == [[2, -1], [-2, 2]]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fold", "DOC", "--json", "--seed", "7"], "--seed"),
        (["fold", "DOC", "--cap-end", "4"], "--cap-end"),
        (["verify", "kac", "DOC", "--field", "2", "--max-height", "2", "--dim", "1,1"], "--dim"),
    ],
    ids=["seed", "fold-cap-end", "verify-dim"],
)
def test_seed_is_usage_error(flip_doc, capsys, argv, flag):
    # a flag the subcommand would not read is refused, not ignored
    with pytest.raises(SystemExit) as ei:
        cli.main([flip_doc if x == "DOC" else x for x in argv])
    assert ei.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


_TOP_HELP = """\
usage: quiverfold [-h]
                  {fold,unfold,skew,roots,classify,indecs,ii-indecs,species-count,verify,fixtures}
                  ...

fold quivers into Cartan data and verify the dimension-vector theorems at desk
scale

positional arguments:
  {fold,unfold,skew,roots,classify,indecs,ii-indecs,species-count,verify,fixtures}

options:
  -h, --help            show this help message and exit
"""

_II_INDECS_HELP = """\
usage: quiverfold ii-indecs [-h] [--json] [--field FIELD]
                            [--cap-states CAP_STATES] [--dim DIM]
                            input

positional arguments:
  input                 path to a JSON document ('-' for stdin)

options:
  -h, --help            show this help message and exit
  --json                emit JSON instead of text
  --field FIELD         finite field by its size, e.g. 5, 4 or 2^2
  --cap-states CAP_STATES
                        largest state space that will be enumerated directly
  --dim DIM, --vector DIM
                        comma-separated dimension vector, e.g. 1,2,1
"""


@pytest.mark.parametrize(
    "argv, text",
    [(["--help"], _TOP_HELP), (["ii-indecs", "--help"], _II_INDECS_HELP)],
    ids=["top", "ii-indecs"],
)
def test_help_text(monkeypatch, capsys, argv, text):
    # the usage lists every command also where only one subparser is built
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as ei:
        cli.main(argv)
    assert ei.value.code == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize(
    "argv, built, error",
    [
        (["fixtures"], ["fixtures"], None),
        (["verify", "--json"], ["verify"], "required: which, input"),
        ([], list(cli._COMMANDS), "the following arguments are required: command"),
        (["bogus"], list(cli._COMMANDS), "argument command: invalid choice: 'bogus'"),
        (["--json", "fold"], list(cli._COMMANDS), "quiverfold fold: error: the following"),
    ],
    ids=["named", "named-missing-input", "none", "unknown", "option-first"],
)
def test_parser_builds_the_named_command_alone(monkeypatch, capsys, argv, built, error):
    # a request that names a known command builds that subparser alone;
    # only a missing or unknown command needs them all, for its message
    seen = []
    add = cli._add_command
    monkeypatch.setattr(cli, "_add_command", lambda sub, name: (seen.append(name), add(sub, name)))
    if error is None:
        assert cli.main(argv) == 0
    else:
        with pytest.raises(SystemExit) as ei:
            cli.main(argv)
        assert ei.value.code == 2
        assert error in capsys.readouterr().err
    assert seen == built


def test_roots_on_valued_input(pair_doc, capsys):
    assert cli.main(["roots", pair_doc, "--max-height", "4"]) == 0
    out = capsys.readouterr().out
    assert "(1, 2)  real" in out
    assert "4 roots up to height 4" in out


def test_huge_height_refused(pair_doc, capsys):
    # 5.0e9 vectors up to the height: refused before the sweep walks one
    assert cli.main(["roots", pair_doc, "--max-height", "100000"]) == 2
    assert capsys.readouterr() == (
        "", "error: 5000150000 vectors up to height 100000 exceed the sweep cap of 1000000\n"
    )


def test_roots_requires_height(pair_doc, capsys):
    assert cli.main(["roots", pair_doc]) == 2
    assert "max-height" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "PAIR", "--max-height", "-3"],
        ["verify", "kac", "FLIP", "--field", "2", "--max-height", "-1"],
        ["verify", "main", "FLIP", "--field", "3", "--max-height", "-1"],
        ["verify", "species", "PAIR", "--field", "3", "--max-height", "-2"],
        ["verify", "multisets", "FLIP", "--field", "2", "--max-height", "-1"],
    ],
    ids=["roots", "kac", "main", "species", "multisets"],
)
def test_negative_height_refused(flip_doc, pair_doc, capsys, argv):
    docs = {"FLIP": flip_doc, "PAIR": pair_doc}
    assert cli.main([docs.get(x, x) for x in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "--max-height of 0 or more" in err


def test_height_zero_still_runs(flip_doc, pair_doc, capsys):
    assert cli.main(["roots", pair_doc, "--max-height", "0"]) == 0
    assert capsys.readouterr().out == "0 roots up to height 0\n"
    assert cli.main(["verify", "kac", flip_doc, "--field", "2", "--max-height", "0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True and doc["height"] == 0 and doc["records"] == []


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "kac", "A3", "--field", "2", "--max-height", "2"],
        ["indecs", "A3", "--field", "2", "--dim", "1,1,1"],
        ["ii-indecs", "FLIP", "--field", "2", "--dim", "1,1,1"],
        ["species-count", "PAIR", "--field", "3", "--dim", "1,2"],
    ],
    ids=["verify", "indecs", "ii-indecs", "species-count"],
)
def test_cap_below_one_refused(tmp_path, flip_doc, pair_doc, capsys, argv, cap):
    # a cap of 0 fits no state space, though a reflection chain may end at
    # one that needs no catalog; every command refuses it alike
    a3 = tmp_path / "a3.json"
    a3.write_text(qf.json_dumps(qf.quiver_to_dict(qf.build_a3_flip()[0])))
    docs = {"A3": str(a3), "FLIP": flip_doc, "PAIR": pair_doc}
    assert cli.main([docs.get(x, x) for x in argv] + ["--cap-states", cap]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {argv[0]} needs a --cap-states of 1 or more\n"


def test_classify_vector_alias(pair_doc, capsys):
    assert cli.main(["classify", pair_doc, "--dim", "1,2"]) == 0
    via_dim = capsys.readouterr().out
    assert cli.main(["classify", pair_doc, "--vector", "1,2"]) == 0
    via_vector = capsys.readouterr().out
    assert via_dim == via_vector
    assert "(1, 2): real" in via_dim
    assert "word ['v'] applied to simple u" in via_dim


def test_classify_imaginary_text(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(qf.json_dumps(qf.quiver_to_dict(qf.build_dtilde4()[0])))
    assert cli.main(["classify", str(path), "--vector", "1,1,1,1,2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "(1, 1, 1, 1, 2): imaginary",
        "  word [] applied to fundamental (1, 1, 1, 1, 2)",
    ]


def test_classify_bad_vector_length(pair_doc, capsys):
    assert cli.main(["classify", pair_doc, "--dim", "1,2,0,0"]) == 2
    assert "length 4" in capsys.readouterr().err


@pytest.fixture
def a3_doc(tmp_path):
    q, _ = qf.build_a3_flip()
    path = tmp_path / "a3.json"
    path.write_text(qf.json_dumps(qf.quiver_to_dict(q)))
    return str(path)


def _real(vector, simple, word):
    return {"fundamental": None, "kind": "real", "reason": None, "sign": 1,
            "simple": simple, "vector": vector, "word": word}


def _roots(height, vectors):
    return {"height": height, "roots": [{"kind": "real", "vector": v} for v in vectors]}


@pytest.mark.parametrize(
    "doc, argv, want",
    [
        ("a3", ["classify", "--dim", "1,1,0"], _real([1, 1, 0], "2", ["1"])),
        (
            "a3",
            ["classify", "--dim", "1,2,1"],
            {"fundamental": None, "kind": "nonroot",
             "reason": "reflection at '1' leaves the positive cone", "sign": 1,
             "simple": None, "vector": [1, 2, 1], "word": ["2"]},
        ),
        (
            "a3",
            ["roots", "--max-height", "3"],
            _roots(3, [[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 1, 1], [1, 1, 0], [1, 1, 1]]),
        ),
        ("flip", ["classify", "--dim", "1,2"], _real([1, 2], "1", ["2"])),
        ("flip", ["roots", "--max-height", "3"], _roots(3, [[0, 1], [1, 0], [1, 1], [1, 2]])),
    ],
    ids=["a3-classify-real", "a3-classify-nonroot", "a3-roots", "flip-classify", "flip-roots"],
)
def test_lattice_of_plain_documents(a3_doc, flip_doc, capsys, doc, argv, want):
    # a plain quiver classifies on its own lattice, a quiver with an
    # automorphism on its fold's
    path = {"a3": a3_doc, "flip": flip_doc}[doc]
    assert cli.main([argv[0], path, *argv[1:], "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == want


def test_indecs_with_end_crosscheck(flip_doc, capsys):
    code = cli.main(
        ["indecs", flip_doc, "--field", "2", "--dim", "1,1,1", "--cap-end", "4096"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "4 classes at dims [1, 1, 1] over 2, 1 indecomposable" in out


def test_indecs_crosscheck_disagreement_exits_two(flip_doc, capsys, monkeypatch):
    monkeypatch.setattr(reps, "is_indecomposable", lambda *a, **k: False)
    code = cli.main(
        ["indecs", flip_doc, "--field", "2", "--dim", "1,1,1", "--cap-end", "4096"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "error: end-ring test and endomorphism search disagree" in captured.err
    assert captured.out == ""


def test_indecs_crosscheck_checks_decomposable_classes(flip_doc, capsys, monkeypatch):
    # a search that calls every class indecomposable disagrees on the three
    # decomposable classes, which the flags do not list
    monkeypatch.setattr(reps, "is_indecomposable", lambda *a, **k: True)
    code = cli.main(
        ["indecs", flip_doc, "--field", "2", "--dim", "1,1,1", "--cap-end", "4096"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "error: end-ring test and endomorphism search disagree" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["x", "2^", "^2", "2^x"])
def test_malformed_field_exits_two(flip_doc, capsys, spec):
    code = cli.main(["indecs", flip_doc, "--field", spec, "--dim", "1,1,1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_one_integer_field_size(flip_doc, capsys):
    # "4" names GF(4), as "2^2" does
    outs = []
    for spec in ("4", "2^2"):
        argv = ["indecs", flip_doc, "--field", spec, "--dim", "1,1,1", "--json"]
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "command, doc, field, dims",
    [
        ("indecs", "star", "2", "1,1,1,1,-1"),
        ("ii-indecs", "cx", "5", "1,1,1,-1,-1"),
        ("species-count", "pair", "3", "1,-1"),
    ],
)
def test_negative_dims_exit_two(tmp_path, pair_doc, capsys, command, doc, field, dims):
    # a refused input exits 2; exit 1 is kept for a failed theorem check
    docs = {"star": qf.build_dtilde4()[:2], "cx": qf.build_counterexample()}
    path = pair_doc
    if doc in docs:
        path = tmp_path / f"{doc}.json"
        path.write_text(qf.json_dumps(qf.quiver_to_dict(*docs[doc])))
    assert cli.main([command, str(path), "--field", field, "--dim", dims]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: dimensions must be non-negative\n"
    assert captured.out == ""


_A3 = {"vertices": ["1", "2", "3"], "arrows": [["a", "1", "2"], ["b", "3", "2"]]}
_PAIR = {"vertices": ["u", "v"], "d": {"u": 2, "v": 1}, "edges": [{"from": "u", "to": "v", "b": 2}]}
_NOT_OBJECT = "error: the input does not hold a JSON object\n"


@pytest.mark.parametrize(
    "command, doc, error",
    [
        ("fold", {"vertices": ["1", "2"], "arrows": [{"id": "a", "from": "1"}]},
         "error: arrow {'id': 'a', 'from': '1'} needs 'to'\n"),
        ("fold", {"vertices": ["1", "2"], "arrows": [["a", "1"]]},
         "error: arrow ['a', '1'] is not a triple (id, from, to)\n"),
        ("fold", {**_A3, "automorphism": {"vertices": ["1"]}},
         "error: vertex map ['1'] is not a mapping of ids to ids\n"),
        ("fold", {**_A3, "automorphism": ["1", "3"]},
         "error: 'automorphism' must map 'vertices' and 'arrows'\n"),
        ("roots", {**_PAIR, "d": {"u": 2}},
         "error: weight d of vertex 'v' is None, not an integer\n"),
        ("roots", {**_PAIR, "d": {"u": 2, "v": "one"}},
         "error: weight d of vertex 'v' is 'one', not an integer\n"),
        ("roots", {**_PAIR, "edges": [{"from": "u", "to": "v"}]},
         "error: edge {'from': 'u', 'to': 'v'} needs 'b'\n"),
        ("roots", {**_PAIR, "d": 5},
         "error: valued quiver document's 'd' must be a JSON array or object\n"),
        ("roots", {**_PAIR, "edges": 7},
         "error: valued quiver document's 'edges' must be a JSON array\n"),
        ("roots", {**_PAIR, "vertices": 12},
         "error: valued quiver document's 'vertices' must be a JSON array\n"),
        ("fold", {**_A3, "arrows": 5},
         "error: quiver document's 'arrows' must be a JSON array\n"),
        # a string would be read as one vertex per character
        ("roots", {"vertices": "ab", "arrows": []},
         "error: quiver document's 'vertices' must be a JSON array\n"),
        ("fold", 5, _NOT_OBJECT),
        ("indecs", None, _NOT_OBJECT),
        ("roots", [1, 2], _NOT_OBJECT),
        ("fold", "x", _NOT_OBJECT),
    ],
    ids=["arrow-without-to", "arrow-pair", "vertex-map-list", "automorphism-list", "d-misses-vertex",
         "d-not-integer", "edge-without-b", "d-number", "edges-number", "vertices-number",
         "arrows-number", "vertices-string", "number", "null", "array", "string"],
)
def test_malformed_document_exits_two(tmp_path, capsys, command, doc, error):
    # a malformed document is refused, naming the bad field, not a traceback
    # with exit 1, which is kept for a failed theorem check
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    extra = {"roots": ["--max-height", "2"], "indecs": ["--field", "2", "--dim", "1,1"]}
    argv = [command, str(path), *extra.get(command, [])]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize(
    "command, last",
    [
        (["roots"], "0 roots up to height 2"),
        (["verify", "kac", "--field", "2"], "PASS"),
        (["verify", "multisets", "--field", "2"], "PASS"),
    ],
    ids=["roots", "verify-kac", "verify-multisets"],
)
def test_vertexless_quiver(tmp_path, capsys, command, last):
    # a quiver with no vertex has no root and no nonzero dimension vector
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "arrows": []}))
    assert cli.main([*command, str(path), "--max-height", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == last


def test_ii_indecs_text(tmp_path, capsys):
    q, rot = qf.build_counterexample()
    path = tmp_path / "cx.json"
    path.write_text(qf.json_dumps(qf.quiver_to_dict(q, rot)))
    code = cli.main(["ii-indecs", str(path), "--field", "5", "--dim", "1,1,1,1,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 twist-orbit-sum classes at dims [1, 1, 1, 1, 1]" in out
    assert "period 1: members [[1, 1, 1, 1, 1]]" in out


def test_species_count_text(pair_doc, capsys):
    assert cli.main(["species-count", pair_doc, "--field", "2", "--dim", "1,2"]) == 0
    assert "species count at [1, 2] over 2: 1" in capsys.readouterr().out


def test_species_count_prints_canonical_field(pair_doc, capsys):
    # "4" and "2^2" name one field, reported as "verify species" reports it
    for spec in ("4", "2^2"):
        argv = ["species-count", pair_doc, "--field", spec, "--dim", "1,2"]
        assert cli.main([*argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"alpha": [1, 2], "field": "2^2", "count": 1}
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "species count at [1, 2] over 2^2: 1\n"


def test_verify_kac_passes(tmp_path, capsys):
    path = tmp_path / "a2.json"
    q = qf.validate_quiver(["u", "v"], [("r", "u", "v")])
    path.write_text(qf.json_dumps(qf.quiver_to_dict(q)))
    code = cli.main(["verify", "kac", str(path), "--field", "2", "--max-height", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")


def test_verify_multisets_choice(tmp_path, capsys):
    path = tmp_path / "a2.json"
    q = qf.validate_quiver(["u", "v"], [("r", "u", "v")])
    path.write_text(qf.json_dumps(qf.quiver_to_dict(q)))
    code = cli.main(
        ["verify", "multisets", str(path), "--field", "2", "--max-height", "3"]
    )
    assert code == 0
    assert "direct-sum multiset crosscheck" in capsys.readouterr().out


def test_verify_failure_exits_one(flip_doc, capsys, monkeypatch):
    broken = TheoremReport(
        title="kac dimension-vector check",
        field_spec="2",
        height=2,
        records=(),
        witnesses=("made-up witness",),
    )
    monkeypatch.setattr(theorems, "verify_kac", lambda *a, **k: broken)
    code = cli.main(["verify", "kac", flip_doc, "--field", "2", "--max-height", "2"])
    assert code == 1
    assert "FAIL made-up witness" in capsys.readouterr().out


def test_verify_main_nonroot_failure_exits_one(flip_doc, capsys, monkeypatch):
    classify = theorems.classify

    class NonRoot:
        kind = "nonroot"

    monkeypatch.setattr(
        theorems,
        "classify",
        lambda lat, v: NonRoot if tuple(v) == (1, 1) else classify(lat, v),
    )
    code = cli.main(["verify", "main", flip_doc, "--field", "3", "--max-height", "2"])
    assert code == 1
    assert "FAIL (1, 1) is not a folded root but has 1 class(es)" in capsys.readouterr().out


def test_verify_needs_plain_quiver(pair_doc, capsys):
    code = cli.main(["verify", "kac", pair_doc, "--field", "2", "--max-height", "2"])
    assert code == 2
    assert "plain quiver document" in capsys.readouterr().err


def test_missing_file_exits_two(capsys):
    assert cli.main(["fold", "/nonexistent/nope.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_fixtures_listing_and_documents(capsys):
    assert cli.main(["fixtures"]) == 0
    listed = capsys.readouterr().out.split()
    assert "a3-flip" in listed and "counterexample" in listed
    for name in listed:
        assert cli.main(["fixtures", name]) == 0
        doc = json.loads(capsys.readouterr().out)
        q, a = qf.quiver_from_dict(doc)
        assert a is not None and not a.is_identity
    assert cli.main(["fixtures", "bogus"]) == 2
    assert "unknown fixture" in capsys.readouterr().err


def test_unfold_and_skew_commands(pair_doc, flip_doc, capsys):
    assert cli.main(["unfold", pair_doc]) == 0
    out = capsys.readouterr().out
    assert "automorphism order: 2" in out
    assert cli.main(["skew", flip_doc]) == 0
    out = capsys.readouterr().out
    assert "shift order: 2" in out


_PINNED_TEXT = {
    "unfold": """\
vertices: ['u:0', 'u:1', 'v:0']
arrows: [('u>v:0:0:0', 'u:0', 'v:0'), ('u>v:1:0:0', 'u:1', 'v:0')]
automorphism order: 2
""",
    "skew": """\
vertices: ['1:0', '2:0', '2:1']
arrows: [('a:0:0', '1:0', '2:0'), ('a:0:1', '1:0', '2:1')]
shift order: 2
""",
    "verify-main": """\
folded dimension-vector check: field 3, height 3
  (0, 1)  real      classes=1 periods=[1] expected_length=1
  (1, 0)  real      classes=1 periods=[2] expected_length=2
  (1, 1)  real      classes=1 periods=[1] expected_length=1
  (1, 2)  real      classes=1 periods=[2] expected_length=2
PASS
""",
    "verify-species": """\
species counting check: field 3, height 3
  (0, 1)  real      classes=1
  (1, 0)  real      classes=1
  (1, 1)  real      classes=1
  (1, 2)  real      classes=1
PASS
""",
    "verify-multisets": """\
direct-sum multiset crosscheck: field 2, height 2
  (0, 0, 0)  any       classes=1 multisets=1
  (0, 0, 1)  any       classes=1 multisets=1
  (0, 1, 0)  any       classes=1 multisets=1
  (1, 0, 0)  any       classes=1 multisets=1
  (0, 0, 2)  any       classes=1 multisets=1
  (0, 1, 1)  any       classes=2 multisets=2
  (0, 2, 0)  any       classes=1 multisets=1
  (1, 0, 1)  any       classes=1 multisets=1
  (1, 1, 0)  any       classes=2 multisets=2
  (2, 0, 0)  any       classes=1 multisets=1
PASS
""",
}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("unfold", ["unfold", "PAIR"]),
        ("skew", ["skew", "FLIP"]),
        ("verify-main", ["verify", "main", "FLIP", "--field", "3", "--max-height", "3"]),
        ("verify-species", ["verify", "species", "PAIR", "--field", "3", "--max-height", "3"]),
        ("verify-multisets", ["verify", "multisets", "A3", "--field", "2", "--max-height", "2"]),
    ],
    ids=list(_PINNED_TEXT),
)
def test_text_output_pinned(flip_doc, pair_doc, a3_doc, capsys, name, argv):
    """The whole text output of the commands that share a text or a check
    table, one line per record."""
    docs = {"FLIP": flip_doc, "PAIR": pair_doc, "A3": a3_doc}
    assert cli.main([docs.get(x, x) for x in argv]) == 0
    assert capsys.readouterr() == (_PINNED_TEXT[name], "")


def test_stdin_input(monkeypatch, capsys):
    import io

    q, flip = qf.build_a3_flip()
    payload = qf.json_dumps(qf.quiver_to_dict(q, flip))
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert cli.main(["fold", "-"]) == 0
    assert "d = [2, 1]" in capsys.readouterr().out


def test_console_script_runs(tmp_path):
    """The `quiverfold` script declared in pyproject.toml runs as its own process.

    The child does what an installer's wrapper script does: load the declared
    entry point and exit with its return value. It imports quiverfold from the
    same place this process did, so the test needs no installed package and
    no script on PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["quiverfold"]
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint('quiverfold', {target!r}, 'console_scripts').load()\n"
        "sys.argv = ['quiverfold', 'fixtures', 'a3-flip']\n"
        "sys.exit(main())\n"
    )
    res = _run_child(wrapper, tmp_path)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["vertices"] == ["1", "2", "3"]


def test_import_leaves_out_sympy(tmp_path):
    """Every cold CLI call imports the package; sympy is a test oracle only."""
    res = _run_child("import sys, quiverfold; print('sympy' in sys.modules)", tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_python_m_quiverfold(tmp_path):
    """`python -m quiverfold` runs the command line without an installed script."""
    res = _run_python(["-m", "quiverfold", "fixtures"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [
        "a3-flip",
        "counterexample",
        "dtilde4-3cycle",
        "dtilde4-4cycle",
    ]


def test_catalog_free_commands_leave_numpy_unloaded(tmp_path):
    """Commands that enumerate no classes never import catalog, theorems or
    numpy.  A species count or Kac check whose reflection chains all end
    without a catalog, or that is refused while planning, imports neither
    catalog nor reps.
    Each command, run in a fresh interpreter, loads only the submodules it
    uses, and none of the stdlib modules that only a generated record or
    the exact null root needs."""
    line, flip = qf.build_a3_flip()
    pair = qf.make_valued_quiver(["u", "v"], [2, 1], [("u", "v", 2)])
    pair41 = qf.make_valued_quiver(["u", "v"], [4, 1], [("u", "v", 4)])
    (tmp_path / "flip.json").write_text(qf.json_dumps(qf.quiver_to_dict(line, flip)))
    (tmp_path / "pair.json").write_text(qf.json_dumps(qf.valued_to_dict(pair)))
    (tmp_path / "pair41.json").write_text(qf.json_dumps(qf.valued_to_dict(pair41)))
    (tmp_path / "star.json").write_text(qf.json_dumps(qf.quiver_to_dict(qf.build_dtilde4()[0])))
    (tmp_path / "a3.json").write_text(qf.json_dumps(qf.quiver_to_dict(line)))
    kron = qf.validate_quiver(["u", "v"], [("a", "u", "v"), ("b", "u", "v")])
    (tmp_path / "kron.json").write_text(qf.json_dumps(qf.quiver_to_dict(kron)))
    # each command, and the quiverfold submodules that a cold call of it loads
    runs = {
        "fixtures": (["fixtures"], "cli errors"),
        "fixtures-a3-flip": (
            ["fixtures", "a3-flip"],
            "cli errors fixtures gf quiver reps serialize",
        ),
        "fold": (["fold", "flip.json"], "cartan cli errors quiver serialize"),
        "skew": (["skew", "flip.json"], "cartan cli errors quiver serialize skew"),
        "roots": (
            ["roots", "pair.json", "--max-height", "4"],
            "cartan cli errors quiver roots serialize",
        ),
        "classify": (
            ["classify", "pair.json", "--dim", "1,2"],
            "cartan cli errors quiver roots serialize",
        ),
        "kac": (
            ["verify", "kac", "a3.json", "--field", "2", "--max-height", "4"],
            "cartan cli errors gf quiver roots serialize theorems",
        ),
        "species-count": (
            ["species-count", "pair.json", "--dim", "1,2", "--field", "3"],
            "cartan cli errors gf quiver roots serialize skew theorems",
        ),
        "refused": (
            ["species-count", "pair41.json", "--dim", "1,2", "--field", "3"],
            "cartan cli errors gf quiver roots serialize skew theorems",
        ),
        # no reflection lowers the null root (1,1,1,1,2), 3^8 states
        "refused-kac": (
            ["verify", "kac", "star.json", "--field", "3", "--max-height", "6",
             "--cap-states", "2187"],
            "cartan cli errors gf quiver roots serialize theorems",
        ),
        # (1,1) holds 2048^2 states, under the cap, over a field past the tables
        "refused-tables": (
            ["verify", "kac", "kron.json", "--field", "2^11", "--max-height", "2"],
            "cartan cli errors gf quiver roots serialize theorems",
        ),
    }
    code = (
        "import contextlib, io, json, sys\n"
        "from quiverfold import cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps({'code': code, 'error': err.getvalue(), 'numpy': 'numpy' in sys.modules,\n"
        "                  'stdlib': [m for m in ('dataclasses', 'inspect', 'fractions', 'decimal')\n"
        "                             if m in sys.modules],\n"
        "                  'loaded': sorted(m.partition('.')[2] for m in sys.modules\n"
        "                                   if m.startswith('quiverfold.'))}))\n"
    )
    docs = {}
    for name, (argv, loads) in runs.items():
        res = _run_python(["-c", code, *argv], tmp_path)
        assert res.returncode == 0, res.stderr
        docs[name] = doc = json.loads(res.stdout)
        assert not doc["numpy"], name
        assert doc["stdlib"] == [], name
        assert doc["loaded"] == loads.split(), name
    refused = [docs.pop("refused"), docs.pop("refused-kac"), docs.pop("refused-tables")]
    assert [doc["code"] for doc in docs.values()] == [0] * 8
    for doc in refused:
        assert doc["code"] == 2 and doc["error"].startswith("error:")
        assert "refused while planning" in doc["error"]
    assert "dims (1, 1) over GF(2048)" in refused[2]["error"]


def test_lazy_exports_resolve_to_submodule_objects():
    assert qf._EXPORTS
    for name, module in qf._EXPORTS.items():
        owner = importlib.import_module(f"quiverfold.{module}")
        assert getattr(qf, name) is getattr(owner, name), name
        assert name in dir(qf)
    from quiverfold import catalog, isoclasses, verify_kac

    assert isoclasses is catalog.isoclasses
    assert verify_kac is theorems.verify_kac
    assert qf.catalog is catalog and qf.theorems is theorems
    assert {"fold", "__version__", "catalog", "theorems"} <= set(dir(qf))
    with pytest.raises(AttributeError, match="no_such_name"):
        qf.no_such_name


def test_benchmark_trace_targets_resolve():
    """Every callable the benchmark's tracer wraps is defined where it
    looks, so a traced run records none of them as absent."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, (module, attr_path) in tracing.TARGETS.items():
        owner = importlib.import_module(module)
        *cls_path, attr = attr_path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), name


def test_skew_stays_the_function_after_its_module_loads(tmp_path):
    """``quiverfold.skew`` names a submodule and the function it defines;
    loading the submodule must not rebind the package's name."""
    code = (
        "import sys\n"
        "import quiverfold as qf\n"
        "import quiverfold.skew\n"
        "from quiverfold import skew\n"
        "mod = sys.modules['quiverfold.skew']\n"
        "a = qf.build_a3_flip()[1]\n"
        "print(qf.skew is skew is mod.skew, qf.skew(a).auto.order)\n"
    )
    res = _run_child(code, tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "2"]


def test_package_binds_each_name_it_resolves(monkeypatch, tmp_path):
    """A re-exported name goes through its submodule on the first access
    only; later reads find it bound on the package."""
    from quiverfold import catalog

    calls = []
    real = importlib.import_module
    monkeypatch.setattr(importlib, "import_module", lambda *a: calls.append(a) or real(*a))
    monkeypatch.delitem(vars(qf), "isoclasses", raising=False)
    assert qf.isoclasses is catalog.isoclasses
    assert qf.isoclasses is catalog.isoclasses
    assert calls == [(".catalog", "quiverfold")]
    # the bound function is not replaced when its submodule loads after it
    res = _run_child(
        "import quiverfold as qf\n"
        "f = qf.skew\n"
        "import quiverfold.skew\n"
        "print(qf.skew is f, callable(qf.skew), qf.skew(qf.build_a3_flip()[1]).auto.order)\n",
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["True", "True", "2"]


def test_import_loads_no_submodule(tmp_path):
    """A fresh import loads no submodule; the catalog-cap set-up (the star
    and GF(16)) loads only the five it uses."""
    code = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m.partition('.')[2] for m in sys.modules if m.startswith('quiverfold.'))\n"
        "import quiverfold as qf\n"
        "bare = loaded()\n"
        "qf.build_dtilde4()\n"
        "qf.field_from_spec('2^4')\n"
        "print(json.dumps([bare, loaded()]))\n"
    )
    res = _run_child(code, tmp_path)
    assert res.returncode == 0, res.stderr
    bare, setup = json.loads(res.stdout)
    assert bare == []
    assert setup == ["errors", "fixtures", "gf", "quiver", "reps"]


def test_catalog_loads_numpy_with_one_blas_thread(tmp_path, monkeypatch):
    """Loading the catalog starts no OpenBLAS worker thread and leaves the
    environment as it was; a thread count the caller chose is kept."""
    code = (
        "import json, os\n"
        "import quiverfold.catalog\n"
        "task = '/proc/self/task'\n"
        "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n"
    )
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    res = _run_child(code, tmp_path)
    assert res.returncode == 0, res.stderr
    env, threads = json.loads(res.stdout)
    assert env is None and threads in (1, None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    res = _run_child(code, tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)[0] == "2"


def test_field_tables_load_numpy_with_one_blas_thread(tmp_path, monkeypatch):
    """Dense field tables built before any catalog load numpy the way the
    catalog does: no OpenBLAS worker thread, and the environment as it was."""
    code = (
        "import json, os\n"
        "from quiverfold.gf import make_field\n"
        "make_field(2, 2).tables()\n"
        "task = '/proc/self/task'\n"
        "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n"
    )
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    res = _run_child(code, tmp_path)
    assert res.returncode == 0, res.stderr
    env, threads = json.loads(res.stdout)
    assert env is None and threads in (1, None)


def _run_child(code: str, cwd) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports quiverfold from the same
    place this process did."""
    return _run_python(["-c", code], cwd)


def _run_python(args: list[str], cwd) -> subprocess.CompletedProcess:
    """Run the interpreter with args, importing quiverfold from the same
    place this process did."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(qf.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd
    )
