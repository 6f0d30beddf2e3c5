"""Minimal common extensions and the finitely aligned part FA(Lambda).

Verdicts are three-valued: finite alignment quantifies over infinite
sets, so bounded searches answer True/False only when an exhaustive
check or a re-verified catalog annotation backs the answer, and
UnknownAtBound otherwise.

Minimal common extensions are computed at degree exactly
lub(d(mu), d(nu)); by unique factorisation these generate the
intersection of the principal right ideals, which the finite-graph
brute-force oracle re-verifies in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .degree import Degree
from .kgraph import KGraph, KGraphError, Morphism, per_graph


class AnnotationError(KGraphError):
    """A catalog annotation failed its bounded cross-validation."""


class Verdict(enum.Enum):
    TRUE = "True"
    FALSE = "False"
    UNKNOWN_AT_BOUND = "UnknownAtBound"


class MceKind(enum.Enum):
    EXACT_FINITE = "ExactFinite"
    DECLARED_INFINITE = "DeclaredInfinite"
    TRUNCATED_UNKNOWN = "TruncatedUnknown"


@dataclass
class MceResult:
    kind: MceKind
    elements: tuple[Morphism, ...]
    family: Optional[str] = None

    def is_finite(self) -> bool:
        return self.kind is MceKind.EXACT_FINITE


@dataclass
class FaVerdict:
    value: Verdict
    witness: Optional[tuple[Morphism, Morphism]] = None
    record: dict = field(default_factory=dict)


def _mce_from_side(graph: KGraph, mu: Morphism, nu: Morphism, l: Degree):
    """Common extensions of degree l found from mu's side, plus the
    exactness flag of the fiber that was searched."""
    fib = graph.fiber(mu.source, l.sub(mu.degree))
    found = []
    for kappa in fib.elements:
        ext = graph.compose(mu, kappa)
        if graph.prefix_leq(nu, ext):
            found.append(ext)
    return found, fib.exact


def mce(mu: Morphism, nu: Morphism) -> MceResult:
    """Common extensions of mu and nu of degree lub(d(mu), d(nu)).

    Disjoint ranges give the empty exact result rather than an error.
    """
    graph = mu.graph
    if graph is not nu.graph:
        raise KGraphError("mce arguments belong to different graphs")
    if mu.range != nu.range:
        return MceResult(MceKind.EXACT_FINITE, ())
    l = mu.degree.lub(nu.degree)
    mu_side, mu_exact = _mce_from_side(graph, mu, nu, l)
    if mu_exact:
        return MceResult(MceKind.EXACT_FINITE, tuple(sorted(set(mu_side), key=Morphism.sort_key)))
    nu_side, nu_exact = _mce_from_side(graph, nu, mu, l)
    if nu_exact:
        return MceResult(MceKind.EXACT_FINITE, tuple(sorted(set(nu_side), key=Morphism.sort_key)))
    elements = tuple(sorted(set(mu_side) | set(nu_side), key=Morphism.sort_key))
    ann = graph.annotations
    if ann is not None:
        family = ann.declared_mce(mu, nu)
        if family is not None:
            declared = tuple(sorted(set(family.members()), key=Morphism.sort_key))
            if declared != elements:
                raise AnnotationError(
                    f"declared MCE family {family.description} disagrees with the "
                    f"enumerated common extensions of ({mu}, {nu})"
                )
            return MceResult(MceKind.DECLARED_INFINITE, elements, family.description)
    return MceResult(MceKind.TRUNCATED_UNKNOWN, elements)


def fa_at_pair(mu: Morphism, nu: Morphism) -> FaVerdict:
    """Is the graph finitely aligned at the pair (mu, nu)?"""
    res = mce(mu, nu)
    if res.kind is MceKind.EXACT_FINITE:
        return FaVerdict(Verdict.TRUE, record={"mce_size": len(res.elements)})
    if res.kind is MceKind.DECLARED_INFINITE:
        return FaVerdict(Verdict.FALSE, witness=(mu, nu), record={"family": res.family})
    return FaVerdict(Verdict.UNKNOWN_AT_BOUND, record={"enumerated": len(res.elements)})


def is_fa(m: Morphism) -> Verdict:
    """Membership of FA(Lambda): exact for finite graphs, annotation-backed
    for catalog graphs, unknown otherwise."""
    graph = m.graph
    if graph.is_finite:
        return Verdict.TRUE
    ann = graph.annotations
    if ann is None:
        return Verdict.UNKNOWN_AT_BOUND
    if ann.fa_certified_all:
        return Verdict.TRUE
    return Verdict.FALSE if ann.fa_excluded(m) else Verdict.TRUE


def fa_at(lam: Morphism, bound: Degree) -> FaVerdict:
    """Is the graph finitely aligned at lam?

    Quantifies mce over mu in lam.Lambda and nu in Lambda; nu is pruned
    to r(nu) = r(lam) since other pairs have empty intersections.  The
    pairs are summed row by row (:func:`_fa_row`), so a pair shared by
    several prefixes lam of mu is checked once per graph.
    """
    graph = lam.graph
    if graph.is_finite:
        top = _max_degree(graph)
        pairs = 0
        for mu in graph.right_ideal(lam, top):
            false_nu, unknown, row_pairs = _fa_row(mu, top)
            if false_nu is not None or unknown:
                nu = next(
                    n for n in _same_range(mu, top) if fa_at_pair(mu, n).value is not Verdict.TRUE
                )
                raise KGraphError(
                    f"finite graph {graph.name}: pair ({mu}, {nu}) is not exactly finite"
                )
            pairs += row_pairs
        return FaVerdict(Verdict.TRUE, record={"mode": "exhaustive", "pairs": pairs})

    ann = graph.annotations
    if ann is not None and not ann.fa_certified_all and ann.fa_excluded(lam):
        witness = ann.fa_false_witness(lam)
        if witness is None:
            raise AnnotationError(f"no witness pair declared for {lam}")
        wmu, wnu = witness
        if not graph.prefix_leq(lam, wmu):
            raise AnnotationError(f"witness {wmu} for {lam} does not extend it")
        res = mce(wmu, wnu)
        if res.kind is not MceKind.DECLARED_INFINITE:
            raise AnnotationError(
                f"witness pair ({wmu}, {wnu}) for {lam} did not re-verify as infinite"
            )
        return FaVerdict(
            Verdict.FALSE,
            witness=witness,
            record={"mode": "annotation", "family": res.family},
        )

    # fa_at_pair is False only for a declared infinite family, which
    # needs annotations: a False pair always raises here.
    pairs = unknown = 0
    for mu in graph.right_ideal(lam, bound):
        false_nu, row_unknown, row_pairs = _fa_row(mu, bound)
        if false_nu is not None:
            raise AnnotationError(
                f"{lam} is annotated finitely aligned but ({mu}, {false_nu}) is not"
            )
        pairs += row_pairs
        unknown += row_unknown
    if ann is not None:
        return FaVerdict(
            Verdict.TRUE,
            record={"mode": "annotation+bounded", "pairs": pairs, "unknown": unknown},
        )
    return FaVerdict(Verdict.UNKNOWN_AT_BOUND, record={"mode": "search", "pairs": pairs})


def _same_range(mu: Morphism, bound: Degree) -> list[Morphism]:
    """The nu of degree <= bound with r(nu) = r(mu), in enumeration order."""
    return [n for n in mu.graph.enumerate_morphisms(bound).morphisms if n.range == mu.range]


@per_graph
def _fa_row(mu: Morphism, bound: Degree) -> tuple[Optional[Morphism], int, int]:
    """mu's row of pairs (mu, nu) for nu in :func:`_same_range`:
    ``(first nu whose pair is False or None, unknown pairs, pairs)``.

    The row is shared by every prefix of mu.  It stops at the first
    False pair, where :func:`fa_at` raises, so a later pair cannot raise
    a different error first.
    """
    pairs = unknown = 0
    for nu in _same_range(mu, bound):
        v = fa_at_pair(mu, nu).value
        pairs += 1
        if v is Verdict.FALSE:
            return nu, unknown, pairs
        if v is Verdict.UNKNOWN_AT_BOUND:
            unknown += 1
    return None, unknown, pairs


@per_graph
def _max_degree(graph: KGraph) -> Degree:
    """A degree bound that exhausts a finite graph."""
    coords = [0] * graph.rank
    for m in graph.all_morphisms():
        for i, c in enumerate(m.degree.coords):
            coords[i] = max(coords[i], c)
    return Degree(tuple(coords))


def fa_set(graph: KGraph, bound: Degree) -> list[tuple[Morphism, FaVerdict]]:
    """fa_at mapped over the bounded enumeration."""
    return [(m, fa_at(m, bound)) for m in graph.enumerate_morphisms(bound).morphisms]


# -- structure of FA(Lambda) ----------------------------------------------


def check_fa_structure(graph: KGraph, bound: Degree) -> dict:
    """The six structural properties of the finitely aligned part, checked
    over the bounded enumeration.  Failures are reported as
    counterexamples, not raised."""
    enum_res = graph.enumerate_morphisms(bound)
    universe = enum_res.morphisms
    fa = [m for m in universe if is_fa(m) is Verdict.TRUE]
    fa_set_ = set(fa)
    report: dict = {"bound": bound.coords, "fa_size": len(fa), "universe": len(universe)}

    right_ideal_bad = []
    for lam in fa:
        for ext in graph.right_ideal(lam, bound):
            if is_fa(ext) is not Verdict.TRUE:
                right_ideal_bad.append((lam, ext))
    report["right_ideal"] = _ok(right_ideal_bad)

    final_segment_bad = []
    for m in universe:
        for nu in universe:
            if m.source != nu.range:
                continue
            if is_fa(graph.compose(m, nu)) is Verdict.TRUE and is_fa(nu) is not Verdict.TRUE:
                final_segment_bad.append((m, nu))
    report["final_segments"] = _ok(final_segment_bad)

    source_bad = [m for m in fa if is_fa(graph.unit(m.source)) is not Verdict.TRUE]
    report["closed_under_source"] = _ok(source_bad)

    range_counterexamples = [
        m for m in fa if is_fa(graph.unit(m.range)) is not Verdict.TRUE
    ]
    report["range_counterexamples"] = sorted(str(m) for m in range_counterexamples)

    propagate_bad = []
    for m in fa:
        for p in bound.downset():
            for kappa in graph.fiber(m.source, p).elements:
                if is_fa(kappa) is not Verdict.TRUE:
                    propagate_bad.append((m, kappa))
    report["source_propagation"] = _ok(propagate_bad)

    mce_bad, mce_pairs = [], 0
    for mu in fa:
        for nu in fa:
            if mu.range != nu.range:
                continue
            res = mce(mu, nu)
            mce_pairs += 1
            if res.kind is MceKind.DECLARED_INFINITE:
                mce_bad.append((mu, nu, "infinite"))
            elif res.kind is MceKind.EXACT_FINITE:
                if any(j not in fa_set_ and is_fa(j) is not Verdict.TRUE for j in res.elements):
                    mce_bad.append((mu, nu, "J leaves FA"))
    report["mce_inside_fa"] = _ok(mce_bad)
    report["mce_inside_fa"]["pairs"] = mce_pairs
    report["ok"] = all(
        report[k]["ok"]
        for k in ("right_ideal", "final_segments", "closed_under_source",
                  "source_propagation", "mce_inside_fa")
    )
    return report


def _ok(bad: list) -> dict:
    return {"ok": not bad, "counterexamples": [tuple(str(x) for x in b) for b in bad[:5]]}


def validate_constellation(graph: KGraph, bound: Degree) -> dict:
    """FA(Lambda) as a right constellation: closed under composition and
    source (the category laws are already covered by the kgraph suite)."""
    return _constellation(check_fa_structure(graph, bound))


def _constellation(structure: dict) -> dict:
    """The constellation report read off a :func:`check_fa_structure` report."""
    report = {
        "bound": structure["bound"],
        "closed_under_composition": structure["right_ideal"],
        "closed_under_source": structure["closed_under_source"],
        "fa_size": structure["fa_size"],
    }
    report["ok"] = report["closed_under_composition"]["ok"] and report["closed_under_source"]["ok"]
    report["vacuous"] = structure["fa_size"] == 0
    return report


# -- the relative category of paths (FAr, Lambda) -------------------------


def far_predicate(graph: KGraph, bound: Degree):
    """Membership test for FAr = FA union r(FA), with the ranges collected
    from the bounded enumeration."""
    ranges = {
        m.range for m in graph.enumerate_morphisms(bound).morphisms if is_fa(m) is Verdict.TRUE
    }

    def member(m: Morphism) -> bool:
        if is_fa(m) is Verdict.TRUE:
            return True
        return m.is_unit() and m.range in ranges

    return member


def validate_relative_cop(graph: KGraph, bound: Degree) -> dict:
    """(FAr, Lambda) as a finitely aligned relative category of paths."""
    in_far = far_predicate(graph, bound)
    universe = graph.enumerate_morphisms(bound).morphisms
    far = [m for m in universe if in_far(m)]

    compose_bad = []
    for mu in far:
        for nu in far:
            if mu.source == nu.range and not in_far(graph.compose(mu, nu)):
                compose_bad.append((mu, nu))
    source_bad = [m for m in far if not in_far(graph.unit(m.source))]
    range_bad = [m for m in far if not in_far(graph.unit(m.range))]

    mce_bad = []
    for mu in far:
        for nu in far:
            if mu.range != nu.range:
                continue
            res = mce(mu, nu)
            if res.kind is MceKind.DECLARED_INFINITE:
                mce_bad.append((mu, nu, "infinite"))
            elif res.kind is MceKind.EXACT_FINITE and any(
                not in_far(j) for j in res.elements
            ):
                mce_bad.append((mu, nu, "J leaves FAr"))

    # mu.Lambda intersect FAr = mu.FAr, elementwise over bounded tails
    intersection_bad = []
    for mu in far:
        for p in bound.downset():
            for kappa in graph.fiber(mu.source, p).elements:
                if in_far(graph.compose(mu, kappa)) != in_far(kappa):
                    intersection_bad.append((mu, kappa))

    report = {
        "bound": bound.coords,
        "far_size": len(far),
        "subcategory": _ok(compose_bad + source_bad + range_bad),
        "finite_alignment": _ok(mce_bad),
        "relative_intersection": _ok(intersection_bad),
    }
    report["ok"] = all(report[k]["ok"] for k in ("subcategory", "finite_alignment", "relative_intersection"))

    # where FAr fails to be a k-graph: an element whose degree-p prefix
    # escapes FAr (the factorisation gap of the finitely aligned part)
    gap = []
    for m in far:
        if m.is_unit():
            continue
        for p in m.degree.downset():
            if p.is_zero() or p == m.degree:
                continue
            try:
                prefix, _ = graph.factorize(m, p)
            except KGraphError:
                continue
            if not in_far(prefix):
                gap.append((m, p.coords, prefix))
    report["factorisation_gaps"] = [
        {"element": str(m), "degree": list(p), "prefix": str(pre)} for m, p, pre in gap[:5]
    ]
    report["is_k_graph"] = not gap
    return report
