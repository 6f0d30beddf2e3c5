"""Command-line front end.

Exit codes: 0 success, 1 when an analysis found violations where none
were expected, 2 on input errors.  The report's ``violations`` field
counts the failed suites (1 for an invalid presentation).  JSON output
is canonical (sorted keys, sorted lists), so identical configurations
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import alignment as al
from . import catalog
from . import groupoid as gp
from . import pspace as ps
from . import spielberg as sp
from .degree import Degree
from .kgraph import KGraph, KGraphError, PresentationError, load_presentation

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathgroupoids",
        description="finite alignment, path spaces and path groupoids of higher-rank graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "parse and validate a presentation or catalog entry"),
        ("align", "finite-alignment verdicts and FA structure suites"),
        ("paths", "filters, path/boundary-path spaces, limits and probes"),
        ("groupoid", "path groupoid enumeration, axioms and comparisons"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, help="catalog name or presentation file path")
        p.add_argument("--bound", default=None, help="degree bound, e.g. 2,2")
        p.add_argument("--cutoff", type=int, default=3, help="family index cutoff")
        p.add_argument("--blocks", type=int, default=2, help="blocks for tg-infinity")
        p.add_argument("--seed", type=int, default=0, help="offset of the sampled groupoid suites")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if name == "align":
            p.add_argument("--element", help="morphism name, e.g. lambda or mu.beta[1]")
            p.add_argument(
                "--all", action="store_true", help="ignored: every verdict is listed unless --element"
            )
            p.add_argument("--structure", action="store_true", help="run the FA structure suites")
        if name == "paths":
            p.add_argument("--probe", help="compactness probe at this morphism")
        if name == "groupoid":
            p.add_argument("--spielberg", action="store_true", help="run the isomorphism check")
            p.add_argument(
                "--compare-relative",
                action="store_true",
                help="the relative filter-space diagnostic (tg only)",
            )
    return parser


def resolve_graph(args) -> KGraph:
    # checked for every graph, also one that does not use the value: the
    # report echoes it in its config
    for option in ("cutoff", "blocks"):
        if getattr(args, option) < 1:
            raise ValueError(f"{option} must be >= 1")
    if args.graph in catalog.catalog_names():
        return catalog.by_name(args.graph, cutoff=args.cutoff, blocks=args.blocks)
    if os.path.exists(args.graph):
        with open(args.graph, encoding="utf-8") as fh:
            return load_presentation(fh.read(), name=os.path.basename(args.graph), cutoff=args.cutoff)
    raise FileNotFoundError(f"{args.graph!r} is neither a catalog name nor a readable file")


def resolve_bound(args, graph: KGraph) -> Degree:
    if args.bound is None:
        return Degree((2,) * graph.rank if graph.rank > 1 else (3,))
    try:
        coords = tuple(int(p) for p in args.bound.split(","))
    except ValueError:
        raise ValueError(f"bound {args.bound!r} has a coordinate that is not an integer") from None
    if len(coords) != graph.rank:
        raise ValueError(f"bound {args.bound!r} does not match the graph rank {graph.rank}")
    return Degree(coords)  # a DegreeError names a negative coordinate


def _verdict_json(m, v: al.FaVerdict) -> dict:
    return {
        "element": str(m),
        "value": v.value.value,
        "witness": [str(w) for w in v.witness] if v.witness else None,
        "record": {k: _plain(x) for k, x in sorted(v.record.items())},
    }


def _plain(x):
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return str(x)


def _filters_json(filters) -> list[list[str]]:
    return [sorted(str(m) for m in x.elements) for x in filters]


def _element_json(g: gp.GroupoidElement) -> dict:
    m, n = g.cert
    return {
        "x": sorted(str(e) for e in g.x.elements),
        "q": list(g.q),
        "y": sorted(str(e) for e in g.y.elements),
        "cert": {"m": list(m.coords), "n": list(n.coords)},
    }


def cmd_validate(args, graph: KGraph, bound) -> tuple[dict, int]:
    return (
        {
            "valid": True,
            "name": graph.name,
            "rank": graph.rank,
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
            "squares": len(graph.squares),
            "finite": graph.is_finite,
        },
        0,
    )


def cmd_align(args, graph: KGraph, bound: Degree) -> tuple[dict, int]:
    results: dict = {"bound": list(bound.coords)}
    violations = 0
    if args.element:
        m = graph.morphism(args.element)
        results["verdicts"] = [_verdict_json(m, al.fa_at(m, bound))]
    else:
        results["verdicts"] = [_verdict_json(m, v) for m, v in al.fa_set(graph, bound)]
    if args.structure:
        structure = al.check_fa_structure(graph, bound)
        constellation = al.constellation(structure)
        relative = al.validate_relative_cop(graph, bound)
        results["fa_structure"] = _plain(structure)
        results["constellation"] = _plain(constellation)
        results["relative_category_of_paths"] = _plain(relative)
        violations += sum(not r["ok"] for r in (structure, constellation, relative))
    return results, violations


def cmd_paths(args, graph: KGraph, bound: Degree) -> tuple[dict, int]:
    filters = ps.enumerate_filters(graph, bound)
    psf = ps.ps_filters(graph, bound)
    ultra = ps.ultrafilters(graph, bound)
    bps = ps.bps_enumerate(graph, bound)
    path_space = set(psf.filters)
    excluded = [x for x in filters.filters if x not in path_space]
    families = []
    for seq in ps.declared_sequences(graph):
        res = ps.pointwise_limit(seq, bound)
        families.append(
            {
                "family": seq.description,
                "converges": res.outcome is ps.LimitOutcome.CONVERGES,
                "complete": res.complete,
                "limit": sorted(str(m) for m in res.limit) if res.limit is not None else None,
                "limit_is_filter": res.reason is None,
                "reason": res.reason,
            }
        )
    results = {
        "bound": list(bound.coords),
        "filters": _filters_json(filters.filters),
        "filters_exact": filters.exact,
        "path_space": _filters_json(psf.filters),
        "path_space_excluded": _filters_json(excluded),
        "ultrafilters": _filters_json(ultra.filters),
        "boundary_path_space": _filters_json(bps.filters),
        "boundary_exact": bps.exact,
        "declared_families": families,
        "basis_property": _plain(ps.check_basis_property(graph, bound)),
        "ps_open": _plain(ps.check_ps_open(graph, bound)),
        "ps_characterisations": _plain(ps.check_ps_characterisations_agree(graph, bound)),
        "convergence": _plain(ps.check_convergence_decisions(graph, bound)),
    }
    violations = sum(
        not results[k]["ok"]
        for k in ("basis_property", "ps_open", "ps_characterisations", "convergence")
    )
    if args.probe:
        m = graph.morphism(args.probe)
        ev = ps.compactness_probe(m, bound)
        results["probe"] = {
            "element": str(m),
            "kind": ev.kind,
            "family": ev.family,
            "limit": ev.limit,
            "reason": ev.reason,
        }
    return results, violations


def cmd_groupoid(args, graph: KGraph, bound: Degree) -> tuple[dict, int]:
    if args.spielberg:
        sp.require_fa_certificate(graph)  # before any suite runs
    violations = 0
    elements = gp.enumerate_pg(graph, bound)
    axioms = gp.axiom_suite(graph, bound)
    invariance = gp.invariance_check(graph, bound)
    units = gp.unit_space_check(graph, bound)
    basis = gp.refinement_check(graph, bound, sample=12 + args.seed % 7)
    hausdorff = gp.hausdorff_ample_evidence(graph, bound, sample=24 + args.seed % 7)
    results = {
        "bound": list(bound.coords),
        "elements": len(elements),
        "element_list": [_element_json(g) for g in elements],
        "axiom_suite": _plain(axioms),
        "invariance": _plain(invariance),
        "unit_space": _plain(units),
        "basis_refinement": _plain(basis),
        "hausdorff_ample": _plain(hausdorff),
    }
    violations += sum(not r["ok"] for r in (axioms, invariance, units, basis, hausdorff))
    if args.spielberg:
        iso = sp.iso_check(graph, bound)
        results["spielberg_isomorphism"] = _plain(iso)
        violations += not iso["ok"]
    if getattr(args, "compare_relative", False):
        rel = sp.relative_filter_space(graph, bound)
        results["relative_comparison"] = _plain(rel)
    return results, violations


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"# {report['command']} on {report['config']['graph']}"]
    lines.append(f"config: {json.dumps(report['config'], sort_keys=True)}")
    lines.extend(_render_block(report["results"], indent=""))
    lines.append(f"violations: {report['violations']}")
    return "\n".join(lines) + "\n"


def _render_block(obj, indent: str) -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v and not _short(v):
                lines.append(f"{indent}{k}:")
                lines.extend(_render_block(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {json.dumps(v, sort_keys=True)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)) and v and not _short(v):
                lines.append(f"{indent}-")
                lines.extend(_render_block(v, indent + "  "))
            else:
                lines.append(f"{indent}- {json.dumps(v, sort_keys=True)}")
    return lines


def _short(v) -> bool:
    return len(json.dumps(v)) < 100


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config = {
        "graph": args.graph,
        "cutoff": args.cutoff,
        "blocks": args.blocks,
        "seed": args.seed,
        "format": args.format,
    }
    handler = {
        "validate": cmd_validate,
        "align": cmd_align,
        "paths": cmd_paths,
        "groupoid": cmd_groupoid,
    }[args.command]
    try:
        try:
            graph = resolve_graph(args)
        except PresentationError as exc:
            if args.command != "validate":
                raise  # validate reports this itself; others treat it as input
            config["bound"] = []
            results, violations = {"valid": False, "diagnostic": str(exc)}, 1
        else:
            bound = resolve_bound(args, graph)
            config["bound"] = list(bound.coords)
            results, violations = handler(args, graph, bound)
    except sp.UnsupportedDomainError as exc:
        print(f"unsupported domain: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, KGraphError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {
        "command": args.command,
        "config": config,
        "results": results,
        "violations": violations,
    }
    sys.stdout.write(render(report, args.format))
    return EXIT_VIOLATIONS if violations else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
