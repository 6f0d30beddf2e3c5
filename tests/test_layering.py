"""The package's public surface and its import layering."""

import ast
import copy
from pathlib import Path

import pathgroupoids
from pathgroupoids import action, cli
from pathgroupoids.catalog import grid, lambda_tg
from pathgroupoids.degree import Degree

PACKAGE_DIR = Path(pathgroupoids.__file__).parent


def test_public_names_resolve_once():
    names = pathgroupoids.__all__
    assert len(names) == len(set(names)), "a name appears twice in __all__"
    missing = [n for n in names if not hasattr(pathgroupoids, n)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_no_function_level_relative_imports():
    """Modules import each other at the top; an import inside a function
    would hide a layering cycle instead of fixing it."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    found.append(f"{path.name}:{node.lineno} in {func.name}")
    assert not found, f"function-level relative imports: {found}"


def test_graph_caches_are_declared_in_init():
    """The graph's only cache is the memo table that KGraph.__init__
    declares: the paths, groupoid and Spielberg suites change no other
    attribute of the graph, and no module but kgraph names the table."""
    graph = lambda_tg(3)
    square = grid(2)
    before = {
        id(g): {k: copy.copy(v) for k, v in vars(g).items() if k != "_memo"}
        for g in (graph, square)
    }
    bound = Degree((2, 2))
    parser = cli.build_parser()
    cli.cmd_paths(parser.parse_args(["paths", "--graph", "tg", "--probe", "lambda"]), graph, bound)
    cli.cmd_groupoid(
        parser.parse_args(["groupoid", "--graph", "tg", "--compare-relative"]), graph, bound
    )
    for name in sorted(vars(action)):
        if name.startswith("check_"):
            getattr(action, name)(graph, bound)
    cli.cmd_groupoid(
        parser.parse_args(["groupoid", "--graph", "grid", "--spielberg"]), square, bound
    )
    for g in (graph, square):
        after = dict(vars(g))
        assert after.pop("_memo")
        assert after == before[id(g)]
    readers = [p.name for p in PACKAGE_DIR.glob("*.py") if "_memo" in p.read_text(encoding="utf-8")]
    assert readers == ["kgraph.py"]


# per_graph finds the graph through the first argument's own ``graph``
MEMO_KEY_TYPES = {"KGraph", "Morphism", "Filter"}


def _per_graph_functions():
    """(file, owning class or None, function) for every module-level
    function and method in the package decorated with per_graph."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]:
            owner = node.name if isinstance(node, ast.ClassDef) else None
            for func in node.body:
                if isinstance(func, ast.FunctionDef) and any(
                    ast.unparse(d).split(".")[-1] == "per_graph" for d in func.decorator_list
                ):
                    yield path.name, owner, func


def test_per_graph_keys_start_with_a_graph_object():
    """per_graph reads the graph from its first argument, so that argument
    must be a KGraph (``self`` in a KGraph method), a Morphism or a
    Filter.  Any other first argument, a Degree say, would fail only at
    the first call."""
    found, bad = [], []
    for filename, owner, func in _per_graph_functions():
        first = func.args.args[0]
        kind = owner if owner is not None else first.annotation and ast.unparse(first.annotation)
        found.append(func.name)
        if kind not in MEMO_KEY_TYPES:
            bad.append(f"{filename}:{func.lineno} {func.name}({first.arg}: {kind})")
    assert {
        "shift_off", "act_flagged", "_directed_witness", "unit", "compose", "fiber",
        "prefixes", "_factorization", "spans", "_fa_row",
    } <= set(found)
    assert not bad, f"per_graph functions keyed by a non-graph object: {bad}"
