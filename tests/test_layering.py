"""The package's public surface and its import layering."""

import ast
from pathlib import Path

import pathgroupoids
from pathgroupoids import action, cli
from pathgroupoids.catalog import lambda_tg
from pathgroupoids.degree import Degree
from pathgroupoids.kgraph import KGraph

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
    """Every cache lives in a table that KGraph.__init__ declares: the
    paths and groupoid suites add no attribute to the graph besides the
    annotations that the catalog sets."""
    graph = lambda_tg(3)
    bound = Degree((2, 2))
    parser = cli.build_parser()
    cli.cmd_paths(parser.parse_args(["paths", "--graph", "tg", "--probe", "lambda"]), graph, bound)
    cli.cmd_groupoid(
        parser.parse_args(["groupoid", "--graph", "tg", "--compare-relative"]), graph, bound
    )
    for name in sorted(vars(action)):
        if name.startswith("check_"):
            getattr(action, name)(graph, bound)
    declared = set(vars(KGraph("empty", 1, [], [])))
    assert set(vars(graph)) == declared | {"annotations"}
