"""Golden report digests: the sha256 of stdout and the exit code of a
fixed matrix of CLI runs, pinned in ``golden.json``.

A change that keeps every report leaves the table as it is.  A
deliberate report change regenerates it, from the root of a checkout:

    PYTHONPATH=src python tests/test_golden.py

and names the changed keys in CHANGES.md.  The matrix holds the fast
runs only; ``paths`` on grid, yee and tg-infinity take over a second
each and are left out.  Besides the catalog graphs and three malformed
documents, it runs ``groupoid --spielberg`` on two generated
presentations (``test_oracles.gen_document``) and on grid at bound
(1, 1), and ``validate`` on a file that does not exist.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from pathgroupoids import cli
from pathgroupoids.catalog import catalog_names
from test_oracles import gen_document

GOLDEN = Path(__file__).with_name("golden.json")

# Documents are written to the working directory of the run so that the
# report names them the same way on every machine.
BAD_DOCS = {
    "bad_family_index.kg": "vertices: a b\nedges:\n  e[n] 1 a -> b[n]\n",
    "bad_vertex_index.kg": "vertices: a[x] b\n",
    "bad_squares.kg": "vertices: a b c d\nedges:\n  e 1 b -> a\n  f 2 c -> b\n",
}
# Generated presentations: seeded twisted products of two lines.
GEN_DOCS = {
    f"gen_{'_'.join(map(str, size))}_seed{seed}.kg": gen_document(size, seed)
    for size, seed in (((2, 2, 2, 1), 7), ((1, 2, 1, 2), 11))
}


def _matrix() -> list[list[str]]:
    runs = []
    for graph in catalog_names():
        runs.append(["validate", "--graph", graph])
        runs.append(["align", "--graph", graph, "--all", "--structure"])
        runs.append(["groupoid", "--graph", graph, "--spielberg"])
    for graph in ("tg", "squares", "line", "cycle"):
        runs.append(["paths", "--graph", graph])
    runs.append(["paths", "--graph", "tg", "--probe", "lambda"])
    runs.append(["paths", "--graph", "tg", "--probe", "beta[1]"])
    runs.append(["groupoid", "--graph", "tg"])
    runs.append(["groupoid", "--graph", "tg", "--compare-relative", "--cutoff", "5"])
    runs.extend(["validate", "--graph", name] for name in BAD_DOCS)
    out = []
    for i, argv in enumerate(runs):
        out.append([*argv, "--format", "json"])
        if i % 3 == 0:
            out.append([*argv, "--format", "text"])
    for name in GEN_DOCS:
        out.append(["groupoid", "--graph", name, "--spielberg", "--format", "json"])
    # a fragment whose span elements are not closed under composition
    out.append(["groupoid", "--graph", "grid", "--bound", "1,1", "--spielberg", "--format", "json"])
    # a --graph that is neither a catalog name nor a readable file
    out.append(["validate", "--graph", "missing.kg", "--format", "json"])
    return out


MATRIX = {" ".join(argv): argv for argv in _matrix()}


def write_docs(directory: Path) -> None:
    for name, text in {**BAD_DOCS, **GEN_DOCS}.items():
        (directory / name).write_text(text, encoding="utf-8")


def run(argv: list[str]) -> dict:
    """The exit code and the sha256 of stdout of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    write_docs(directory)
    return directory


def test_table_covers_the_matrix(golden):
    assert sorted(golden) == sorted(MATRIX)


@pytest.mark.parametrize("key", sorted(MATRIX))
def test_report_matches_golden(key, golden, docs_dir, monkeypatch):
    monkeypatch.chdir(docs_dir)
    assert run(MATRIX[key]) == golden[key]


def main() -> int:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_docs(Path(directory))
        os.chdir(directory)
        try:
            table = {key: run(argv) for key, argv in MATRIX.items()}
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} digests written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
