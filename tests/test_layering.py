"""The package's public surface and its import layering."""

import ast
from pathlib import Path

import pathgroupoids

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
