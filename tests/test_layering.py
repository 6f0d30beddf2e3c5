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


def test_no_module_imports_random():
    """Every report depends only on the command line and its input file."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "random" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"imports of random: {found}"


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


def _calls_outside(callee: str, owner: str) -> list[str]:
    """file:line of every call to `callee` in the package that is not
    inside a function named `owner`."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == owner
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] == callee
                and id(node) not in allowed
            ):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_every_filter_is_built_by_canonical_filter():
    """A Filter is constructed only inside pspace.canonical_filter, so a
    graph never holds two equal filters as different objects."""
    found = _calls_outside("Filter", "canonical_filter")
    assert not found, f"Filter built outside canonical_filter: {found}"


def test_only_the_fragment_composes_elements():
    """compose_elements is called only inside groupoid.fragment, so the
    decision about a composite outside the span elements is made in one
    place and every suite reads composites from the fragment's table."""
    found = _calls_outside("compose_elements", "fragment")
    assert not found, f"compose_elements called outside fragment: {found}"


def test_only_factorization_decides_a_factorisation():
    """_factor_by_pulling is called only inside KGraph._factorization, so
    factorize, tail, prefix_leq and prefixes all read one memoised
    answer, and no other search decides whether a prefix exists."""
    found = _calls_outside("_factor_by_pulling", "_factorization")
    assert not found, f"_factor_by_pulling called outside _factorization: {found}"


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
        "shift_off", "act", "directed_witness", "unit", "compose", "fiber",
        "prefixes", "_factorization", "fragment", "_fa_row",
    } <= set(found)
    assert not bad, f"per_graph functions keyed by a non-graph object: {bad}"


# Public names that only the tests call: the property suites no CLI
# command runs yet, and the finite fixtures of the brute-force oracles.
TEST_ONLY = {
    "action.check_roundtrips",
    "action.check_cocycle",
    "action.check_ultrafilter_preservation",
    "action.check_ps_preservation",
    "action.check_action_axioms",
    "action.check_codomain_open",
    "action.check_local_homeo_witness",
    "action.check_shift_continuity",
    "spielberg.check_e_hat_equals_cylinders",
    "spielberg.check_topology_coincides",
    "catalog.finite_examples",
}


def _trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }


def _referenced(name: str, trees: dict, skip: ast.AST | None = None) -> bool:
    """Is `name` read somewhere in the package, outside `skip` and outside
    the re-exports of ``__init__``?"""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Name) and node.id == name:
                return True
            if isinstance(node, ast.Attribute) and node.attr == name:
                return True
    return False


def test_every_public_name_has_a_caller_in_the_package():
    """Each public top-level function and class is used in the package
    besides its own definition, unless it is a test-only suite or
    fixture; dead code fails here instead of lingering."""
    trees = _trees()
    public = {
        f"{module}.{node.name}": node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert TEST_ONLY <= set(public), f"stale TEST_ONLY entries: {TEST_ONLY - set(public)}"
    dead = sorted(
        qualified
        for qualified, node in public.items()
        if qualified not in TEST_ONLY and not _referenced(node.name, trees, skip=node)
    )
    assert not dead, f"public names without a caller in the package: {dead}"


def test_every_exported_name_has_a_caller_in_the_package():
    trees = _trees()
    dead = [name for name in pathgroupoids.__all__ if not _referenced(name, trees)]
    assert not dead, f"__all__ names without a caller in the package: {dead}"


# Stored data and parameters that the package does not read, each kept
# for a reason.
UNREAD_ALLOWED = {
    # every command handler takes (args, graph, bound); validate reads only
    # the graph, since main reports a document that fails to parse
    "cli.cmd_validate(args)",
    "cli.cmd_validate(bound)",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass" for d in node.decorator_list
    )


def _unread(module: str, node: ast.AST, owner: str, read_attrs: set[str]):
    """Dataclass fields never read as an attribute, and parameters never
    read in their function's body, below `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            qualified = f"{owner}{child.name}"
            if _is_dataclass(child):
                for stmt in child.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in read_attrs
                    ):
                        yield f"{module}.{qualified}.{stmt.target.id}"
            yield from _unread(module, child, f"{qualified}.", read_attrs)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualified = f"{owner}{child.name}"
            args = child.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                n.id
                for stmt in child.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for p in params:
                if p is not None and p.arg not in ("self", "cls") and p.arg not in read:
                    yield f"{module}.{qualified}({p.arg})"
            yield from _unread(module, child, f"{qualified}.", read_attrs)
        else:
            yield from _unread(module, child, owner, read_attrs)


def test_every_field_and_parameter_is_read():
    """Every dataclass field is read as an attribute somewhere in the
    package, and every function parameter is read in its function's
    body: stored data that nothing reads fails here."""
    trees = _trees()
    read_attrs = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = {q for module, tree in trees.items() for q in _unread(module, tree, "", read_attrs)}
    assert UNREAD_ALLOWED <= found, f"stale UNREAD_ALLOWED entries: {UNREAD_ALLOWED - found}"
    unread = sorted(found - UNREAD_ALLOWED)
    assert not unread, f"fields or parameters that nothing reads: {unread}"
