import json
import random
import re
import subprocess
import sys

import jsonschema
import pytest

from pathgroupoids import cli, groupoid
from pathgroupoids.catalog import catalog_names
from pathgroupoids.cli import build_parser, main
from pathgroupoids.schema import ELEMENT_SCHEMA, REPORT_SCHEMA, VERDICT_SCHEMA
from test_kgraph import TG_DOC, _mutate
from test_oracles import gen_document

BAD_SQUARES = """
vertices: t u v w
edges:
  lambda 1 w -> v
  mu     2 t -> v
  beta[n]  1 u -> t
  alpha[n] 2 u -> w
squares:
  mu.beta[n] = lambda.alpha[n]
  mu.beta[n] = lambda.alpha[n]
"""


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "pathgroupoids.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def test_validate_catalog_ok(capsys):
    assert main(["validate", "--graph", "tg"]) == 0
    out = capsys.readouterr().out
    assert "valid: true" in out


def test_validate_bad_squares(tmp_path, capsys):
    doc = tmp_path / "bad.kg"
    doc.write_text(BAD_SQUARES)
    code = main(["validate", "--graph", str(doc)])
    assert code == 1
    assert "factorisation property violated" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["align", "paths", "groupoid"])
def test_bad_document_is_an_input_error_outside_validate(command, tmp_path, capsys):
    """Only validate reports a document that fails to load; the other
    commands print its line as an input error and nothing on stdout."""
    doc = tmp_path / "bad_squares.kg"
    doc.write_text("vertices: a b c d\nedges:\n  e 1 b -> a\n  f 2 c -> b\n")
    assert main([command, "--graph", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: line 3: factorisation property violated")


@pytest.mark.parametrize(
    "doc, line, name",
    [
        ("vertices: a b\nedges:\n  e[n] 1 a -> b[n]\n", 3, "b[n]"),
        ("vertices: a[x] b\n", 1, "a[x]"),
    ],
)
def test_validate_non_integer_name_index(tmp_path, capsys, doc, line, name):
    path = tmp_path / "bad.kg"
    path.write_text(doc)
    assert main(["validate", "--graph", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)["results"]
    assert report["valid"] is False
    assert report["diagnostic"].startswith(f"line {line}: malformed name {name!r}")


def test_missing_file_is_an_input_error(capsys):
    assert main(["validate", "--graph", "/no/such/file"]) == 2
    assert "input error" in capsys.readouterr().err


def test_directory_as_graph_is_an_input_error(tmp_path, capsys):
    assert main(["validate", "--graph", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("graph", ["tg-infinity", "tg", "yee", "file"])
def test_cutoff_below_one_is_an_input_error(graph, tmp_path, capsys):
    if graph == "file":
        doc = tmp_path / "family.kg"
        doc.write_text("vertices: v\nedges:\n  e[n] 1 v -> v\n")
        graph = str(doc)
    assert main(["paths", "--graph", graph, "--cutoff", "0"]) == 2
    assert "input error: cutoff must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("graph", catalog_names() + ["document"])
@pytest.mark.parametrize("option", ["--cutoff", "--blocks"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_catalog_rejects_cutoff_and_blocks_below_one(graph, option, value, tmp_path, capsys):
    """Also on the graphs that do not use the value: the report would
    echo it in its config."""
    if graph == "document":
        doc = tmp_path / "l.kg"
        doc.write_text("vertices: a b\nedges:\n  e 1 b -> a\n")
        graph = str(doc)
    assert main(["validate", "--graph", graph, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: {option[2:]} must be >= 1" in captured.err


def test_bad_bound_is_an_input_error(capsys):
    """Each way a bound can be wrong gets its own diagnostic."""
    for graph, bound, message in (
        ("tg", "1,2,3", "bound '1,2,3' does not match the graph rank 2"),
        ("grid", "-1,0", "negative coordinate in degree (-1, 0)"),
        ("grid", "a,b", "bound 'a,b' has a coordinate that is not an integer"),
        ("grid", "2,", "bound '2,' has a coordinate that is not an integer"),
    ):
        assert main(["align", "--graph", graph, f"--bound={bound}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"


def test_unknown_element_is_an_input_error(capsys):
    assert main(["align", "--graph", "tg", "--element", "zeta"]) == 2


def test_align_element(capsys):
    assert main(["align", "--graph", "tg", "--element", "lambda", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    (verdict,) = report["results"]["verdicts"]
    jsonschema.validate(verdict, VERDICT_SCHEMA)
    assert verdict["value"] == "False" and verdict["witness"] == ["lambda", "mu"]


def test_align_all_with_structure(capsys):
    code = main(
        ["align", "--graph", "tg", "--all", "--structure", "--bound", "2,2", "--format", "json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    false_elements = sorted(
        v["element"] for v in report["results"]["verdicts"] if v["value"] == "False"
    )
    assert false_elements == ["lambda", "mu", "v"]
    assert report["results"]["fa_structure"]["ok"]


def test_align_finite_graph_all_true(capsys):
    assert main(["align", "--graph", "grid", "--all", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(v["value"] == "True" for v in report["results"]["verdicts"])


def test_paths_report(capsys):
    code = main(["paths", "--graph", "tg", "--cutoff", "2", "--probe", "lambda", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    res = report["results"]
    # filters serialize as sorted lists of normal forms
    assert res["path_space_excluded"] == [["lambda", "v"], ["mu", "v"], ["v"]]
    assert res["probe"]["kind"] == "NonCompact"
    assert sorted(res["probe"]["limit"]) == ["lambda", "mu", "v"]
    assert len(res["filters"]) == 12
    assert ["beta[1]", "t"] in res["filters"]


def test_paths_report_does_not_depend_on_the_seed(capsys):
    reports = []
    for seed in ("0", "5"):
        argv = ["paths", "--graph", "tg", "--bound", "1,1", "--seed", seed, "--format", "json"]
        assert main(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert [r["config"].pop("seed") for r in reports] == [0, 5]
    assert reports[0] == reports[1]


def test_paths_cycle_principal_only(capsys):
    assert main(["paths", "--graph", "cycle", "--bound", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    res = report["results"]
    assert not res["filters_exact"]
    assert len(res["filters"]) == 12  # path prefixes only, at the bound
    assert not res["boundary_exact"]


def test_groupoid_report(capsys):
    code = main(["groupoid", "--graph", "tg", "--cutoff", "2", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    res = report["results"]
    assert res["axiom_suite"]["ok"] and res["invariance"]["ok"] and res["unit_space"]["ok"]
    for el in res["element_list"]:
        jsonschema.validate(el, ELEMENT_SCHEMA)


def test_groupoid_spielberg_grid(capsys):
    code = main(["groupoid", "--graph", "grid", "--spielberg", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    iso = report["results"]["spielberg_isomorphism"]
    assert iso["ok"] and iso["bijection_count_match"]


def test_violations_count_the_failed_suites(monkeypatch, capsys):
    def failed(graph, bound, **kwargs):
        return {"ok": False}

    monkeypatch.setattr(groupoid, "axiom_suite", failed)
    monkeypatch.setattr(groupoid, "unit_space_check", failed)
    assert main(["groupoid", "--graph", "grid", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["violations"] == 2


def test_groupoid_spielberg_gate(capsys):
    assert main(["groupoid", "--graph", "tg", "--spielberg"]) == 2
    assert "unsupported domain" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["tg", "yee", "tg-infinity"])
def test_groupoid_spielberg_gate_runs_no_suite(name, monkeypatch, capsys):
    """Without an FA certificate the gate fails before the groupoid is
    enumerated: empty stdout, exit 2, one diagnostic line."""

    def enumerate_pg(graph, bound):
        raise AssertionError("enumerate_pg ran before the gate")

    monkeypatch.setattr(groupoid, "enumerate_pg", enumerate_pg)
    assert main(["groupoid", "--graph", name, "--spielberg"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"unsupported domain: {name} carries no FA(Lambda) = Lambda certificate; "
        "Spielberg groupoid operations are not defined here\n"
    )


def test_groupoid_compare_relative(capsys):
    code = main(["groupoid", "--graph", "tg", "--compare-relative", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["relative_comparison"]["counts"] == [3, 2]


def test_compare_relative_refuses_a_file_named_tg(tmp_path, capsys):
    """The diagnostic reads the catalog annotations of tg; a presentation
    file that is merely named tg has none."""
    doc = tmp_path / "tg"
    doc.write_text("vertices: v w\nedges:\n  e 1 w -> v\n")
    assert main(["groupoid", "--graph", str(doc), "--compare-relative"]) == 2
    err = capsys.readouterr().err
    assert "unsupported domain" in err and "Traceback" not in err


def test_user_presentation_file_runs_every_command(tmp_path, capsys):
    doc = tmp_path / "user_tg.kg"
    doc.write_text(BAD_SQUARES.replace("  mu.beta[n] = lambda.alpha[n]\n  mu", "  mu"))
    for argv in (
        ["validate", "--graph", str(doc)],
        ["align", "--graph", str(doc), "--element", "lambda", "--format", "json"],
        ["paths", "--graph", str(doc), "--format", "json"],
    ):
        assert main(argv) == 0
        capsys.readouterr()
    # no annotations: verdicts stay honestly unknown
    main(["align", "--graph", str(doc), "--element", "lambda", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["verdicts"][0]["value"] == "UnknownAtBound"


def test_text_and_json_agree_on_verdicts(capsys):
    main(["align", "--graph", "tg", "--element", "mu", "--format", "json"])
    as_json = json.loads(capsys.readouterr().out)
    main(["align", "--graph", "tg", "--element", "mu", "--format", "text"])
    as_text = capsys.readouterr().out
    assert as_json["results"]["verdicts"][0]["value"] == "False"
    assert 'value: "False"' in as_text


@pytest.mark.parametrize(
    "argv",
    [
        ("align", "--graph", "tg", "--all", "--structure", "--format", "json"),
        ("paths", "--graph", "tg", "--cutoff", "2", "--format", "json"),
        ("groupoid", "--graph", "tg", "--cutoff", "2", "--format", "json"),
        ("validate", "--graph", "yee", "--format", "json"),
        ("groupoid", "--graph", "grid", "--spielberg", "--format", "json"),
        ("align", "--graph", "yee", "--cutoff", "6", "--all", "--structure", "--format", "json"),
    ],
)
def test_byte_identical_reports_across_processes(argv):
    """Two fresh interpreter runs (fresh hash seeds) must emit identical
    bytes."""
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    jsonschema.validate(json.loads(first.stdout), REPORT_SCHEMA)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    """Repeated calls reuse one parser, and --help still prints what a
    freshly built parser prints."""
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["validate", "--graph", "line"]) == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        assert len(built) == 1
        assert capsys.readouterr().out.endswith(build_parser().format_help())
    finally:
        cli._parser.cache_clear()


# -- metamorphic invariance -----------------------------------------------------

# the vertex and edge names of a generated document, and of its renaming
GEN_NAME = re.compile(r"\b[ghk](?:_\d+)+\b")
NEW_NAME = re.compile(r"\bz\d+\b")
METAMORPHIC_COMMANDS = (
    ("groupoid", "--spielberg"),
    ("paths",),
    ("align", "--all", "--structure"),
)


def _renamed(document: str, seed: int) -> str:
    """Every vertex and edge renamed by a seeded permutation, so that the
    names sort in a different order."""
    names = sorted(set(GEN_NAME.findall(document)))
    targets = [f"z{i}" for i in range(len(names))]
    random.Random(seed).shuffle(targets)
    table = dict(zip(names, targets))
    return GEN_NAME.sub(lambda m: table[m.group()], document)


def _colours_swapped(document: str) -> str:
    """The document with colours 1 and 2 exchanged on every edge."""
    swap = {"1": "2", "2": "1"}
    return re.sub(
        r"^(  \S+) ([12]) ", lambda m: f"{m.group(1)} {swap[m.group(2)]} ", document, flags=re.M
    )


def _shape(obj, flip: bool = False):
    """A report with every name replaced by N and every list but a list
    of integers read as a multiset; with `flip`, each pair of integers
    (a degree or a q) is read in the other colour order.  Element
    certificates are left out: the report gives the degrees of an
    element's first span, and span order follows the names."""
    if isinstance(obj, str):
        return NEW_NAME.sub("N", GEN_NAME.sub("N", obj))
    if isinstance(obj, dict):
        return sorted(
            json.dumps([_shape(k), _shape(v, flip)]) for k, v in obj.items() if k != "cert"
        )
    if isinstance(obj, list):
        if obj and all(type(c) is int for c in obj):  # a degree, a q or a count vector
            return obj[::-1] if flip and len(obj) == 2 else obj
        return sorted(json.dumps(_shape(v, flip)) for v in obj)
    return obj


def _reports(path, bound, capsys):
    out = []
    for command, *options in METAMORPHIC_COMMANDS:
        code = main([command, "--graph", str(path), "--bound", bound, *options, "--format", "json"])
        results = json.loads(capsys.readouterr().out)["results"]
        results.pop("bound")
        out.append((command, code, results))
    return out


def test_reports_do_not_depend_on_names_or_colour_order(tmp_path, capsys):
    """Renaming every vertex and edge of a generated presentation leaves
    each command's exit code, counts and verdict tallies unchanged, and
    so does exchanging the two colours with the bound permuted: no scan
    order may depend on how things are named."""
    document = gen_document((2, 1, 2, 1), seed=3)
    variants = {
        "original": (document, "2,1"),
        "renamed": (_renamed(document, seed=5), "2,1"),
        "swapped": (_colours_swapped(_renamed(document, seed=6)), "1,2"),
    }
    reports = {}
    for name, (text, bound) in variants.items():
        path = tmp_path / f"{name}.kg"
        path.write_text(text, encoding="utf-8")
        reports[name] = _reports(path, bound, capsys)
    assert [code for _, code, _ in reports["original"]] == [0, 0, 0]
    for name, flip in (("renamed", False), ("swapped", True)):
        for (command, code, results), (_, code2, results2) in zip(
            reports["original"], reports[name]
        ):
            assert code2 == code, (name, command)
            assert _shape(results2, flip) == _shape(results), (name, command)


# -- mutated documents ------------------------------------------------------


@pytest.mark.parametrize("source", ["tg", "gen_1_2_1_1_seed7", "gen_1_1_2_2_seed11"])
def test_commands_on_mutated_documents_that_load(source, tmp_path, capsys):
    """Seeded mutations of a valid document that still load: every
    command ends with exit code 0, 1 or 2, and no exception escapes
    main."""
    doc = {
        "tg": TG_DOC,
        "gen_1_2_1_1_seed7": gen_document((1, 2, 1, 1), 7),
        "gen_1_1_2_2_seed11": gen_document((1, 1, 2, 2), 11),
    }[source]
    rng = random.Random(0)
    loaded = 0
    for _ in range(400):
        text = doc
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        path = tmp_path / f"mutant{loaded}.kg"
        path.write_text(text, encoding="utf-8")
        if main(["validate", "--graph", str(path), "--cutoff", "2"]) != 0:
            continue
        for command, *options in METAMORPHIC_COMMANDS:
            argv = [command, "--graph", str(path), *options, "--bound", "1,1", "--cutoff", "2"]
            assert main(argv) in (0, 1, 2), (argv, text)
        loaded += 1
        if loaded == 10:
            break
    capsys.readouterr()
    assert loaded == 10
