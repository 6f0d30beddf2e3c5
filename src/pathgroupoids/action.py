"""Shift maps and the partial semigroup action of the degree monoid on
the path space.

The left shift removes a prefix from a filter, the right shift glues one
on; acting by a degree m shifts off the unique degree-m element of the
filter.  The action is only applied to certified path-space points: a
point whose path-space verdict is unknown is refused like one outside,
never answered silently.
"""

from __future__ import annotations

from typing import Optional

from .degree import Degree
from .kgraph import FactorizationError, KGraph, KGraphError, Morphism, per_graph
from .pspace import (
    Filter,
    LimitOutcome,
    canonical_filter,
    declared_sequences,
    disjoint_limit,
    enumerate_filters,
    fa_extension,
    in_ps,
    pointwise_limit,
    ps_filters,
    ultrafilters,
    upper_bound_in,
)


class ShiftDomainError(KGraphError):
    pass


class NotInPathSpaceError(KGraphError):
    pass


@per_graph
def shift_off(lam: Morphism, x: Filter) -> Filter:
    """The left shift: {mu : lam.mu in x}.  Requires lam in x."""
    graph = x.graph
    if not x.contains(lam):
        raise ShiftDomainError(f"{lam} is not in the filter {x}")
    tails = (graph.tail(lam, kappa) for kappa in x.elements)
    return canonical_filter(graph, frozenset(t for t in tails if t is not None))


@per_graph
def shift_on(lam: Morphism, x: Filter) -> Filter:
    """The right shift: everything below lam.mu for mu in x.  Requires
    s(lam) = r(x); need not preserve the path space."""
    graph = x.graph
    if lam.source != x.range:
        raise ShiftDomainError(f"s({lam}) = {lam.source} but r(x) = {x.range}")
    out: set[Morphism] = set()
    for mu in x.elements:
        out.update(graph.prefixes(graph.compose(lam, mu)))
    return canonical_filter(graph, frozenset(out))


@per_graph
def degree_witness(x: Filter, m: Degree) -> Optional[Morphism]:
    """The unique element of x of degree m, if any (d is injective on
    filters)."""
    hits = [k for k in x.elements if k.degree == m]
    if len(hits) > 1:
        raise KGraphError(f"degree map not injective on {x}")
    return hits[0] if hits else None


@per_graph
def act(x: Filter, m: Degree) -> Filter:
    """T(x, m) for certified path-space points; a point whose path-space
    verdict is not True raises NotInPathSpaceError."""
    if not in_ps(x):
        raise NotInPathSpaceError(f"{x} is not a certified path-space point")
    w = degree_witness(x, m)
    if w is None:
        raise ShiftDomainError(f"{x} has no element of degree {m}")
    return shift_off(w, x)


@per_graph
def directed_witness(x: Filter, m: Degree, n: Degree) -> tuple[Degree, Morphism]:
    """For x in D_m and D_n, produce l = lub(m, n) and the element of x
    showing x in D_l (directedness of the filter supplies it)."""
    wm, wn = degree_witness(x, m), degree_witness(x, n)
    if wm is None or wn is None:
        raise ShiftDomainError(f"{x} is not in both domains D{m}, D{n}")
    l = m.lub(n)
    kappa = upper_bound_in(x, (wm, wn))
    if kappa is None:
        raise ShiftDomainError(f"no directedness witness for {wm}, {wn} in {x}")
    prefix, _ = x.graph.factorize(kappa, l)
    if not x.contains(prefix):
        raise KGraphError(f"filter {x} is not hereditary at {prefix}")
    return l, prefix


# -- exhaustive checks -------------------------------------------------------


def check_roundtrips(graph: KGraph, bound: Degree) -> dict:
    """shift_on(lam, shift_off(lam, x)) = x for lam in x, and the other
    way around when s(lam) = r(x)."""
    filters = enumerate_filters(graph, bound).filters
    morphs = graph.enumerate_morphisms(bound).morphisms
    bad, checked = [], 0
    for x in filters:
        for lam in x.ordered:
            checked += 1
            if shift_on(lam, shift_off(lam, x)) != x:
                bad.append(("on.off", str(lam), str(x)))
        for lam in morphs:
            if lam.source != x.range:
                continue
            checked += 1
            if shift_off(lam, shift_on(lam, x)) != x:
                bad.append(("off.on", str(lam), str(x)))
    return {"ok": not bad, "checked": checked, "counterexamples": bad[:5]}


def check_cocycle(graph: KGraph, bound: Degree) -> dict:
    """shift_off(mu, shift_off(lam, x)) = shift_off(lam.mu, x) when
    lam.mu in x, and dually for right shifts."""
    filters = enumerate_filters(graph, bound).filters
    morphs = graph.enumerate_morphisms(bound).morphisms
    bad, checked = [], 0
    for lam in morphs:
        for mu in morphs:
            if lam.source != mu.range:
                continue
            comp = graph.compose(lam, mu)
            for x in filters:
                if x.contains(comp):
                    checked += 1
                    if shift_off(mu, shift_off(lam, x)) != shift_off(comp, x):
                        bad.append(("left", str(lam), str(mu), str(x)))
                if mu.source == x.range:
                    checked += 1
                    if shift_on(lam, shift_on(mu, x)) != shift_on(comp, x):
                        bad.append(("right", str(lam), str(mu), str(x)))
    return {"ok": not bad, "checked": checked, "counterexamples": bad[:5]}


def check_ultrafilter_preservation(graph: KGraph, bound: Degree) -> dict:
    """Shifts of enumerated ultrafilters stay maximal, re-verified by an
    inclusion scan against the full enumeration."""
    ultra = set(ultrafilters(graph, bound).filters)
    filters = enumerate_filters(graph, bound).filters
    morphs = graph.enumerate_morphisms(bound).morphisms

    def still_maximal(y: Filter) -> bool:
        return not any(y.elements < z.elements for z in filters)

    bad, checked = [], 0
    for x in ultra:
        for lam in x.ordered:
            checked += 1
            if not still_maximal(shift_off(lam, x)):
                bad.append(("off", str(lam), str(x)))
        for lam in morphs:
            if lam.source == x.range:
                checked += 1
                if not still_maximal(shift_on(lam, x)):
                    bad.append(("on", str(lam), str(x)))
    return {"ok": not bad, "checked": checked, "counterexamples": bad[:5]}


def check_ps_preservation(graph: KGraph, bound: Degree) -> dict:
    """Left shifts preserve the path space; right shifts are only checked
    for the counterexamples they produce."""
    ps = ps_filters(graph, bound).filters
    bad, checked = [], 0
    right_escapes = []
    morphs = graph.enumerate_morphisms(bound).morphisms
    for x in ps:
        for lam in x.ordered:
            checked += 1
            if not in_ps(shift_off(lam, x)):
                bad.append((str(lam), str(x)))
        for lam in morphs:
            if lam.source == x.range and not in_ps(shift_on(lam, x)):
                right_escapes.append((str(lam), str(x), str(shift_on(lam, x))))
    return {
        "ok": not bad,
        "checked": checked,
        "counterexamples": bad[:5],
        "right_shift_escapes": sorted(right_escapes)[:10],
    }


def check_action_axioms(graph: KGraph, bound: Degree) -> dict:
    """(S1), (S2) and directedness witnesses over every enumerated action
    point."""
    ps = ps_filters(graph, bound).filters
    degrees = bound.downset()
    bad, checked = [], 0
    for x in ps:
        checked += 1
        if act(x, Degree.zero(graph.rank)) != x:
            bad.append(("S1", str(x)))
    for x in ps:
        for m in degrees:
            for n in degrees:
                total = m.add(n)
                in_total = degree_witness(x, total) is not None
                in_m = degree_witness(x, m) is not None
                in_step = in_m and degree_witness(act(x, m), n) is not None
                checked += 1
                if in_total != in_step:
                    bad.append(("S2-domain", str(x), str(m), str(n)))
                    continue
                if in_total and act(act(x, m), n) != act(x, total):
                    bad.append(("S2-value", str(x), str(m), str(n)))
    for x in ps:
        for m in degrees:
            for n in degrees:
                if degree_witness(x, m) is not None and degree_witness(x, n) is not None:
                    checked += 1
                    l, witness = directed_witness(x, m, n)
                    if l != m.lub(n) or witness.degree != l or not x.contains(witness):
                        bad.append(("directed", str(x), str(m), str(n)))
    return {"ok": not bad, "checked": checked, "counterexamples": bad[:5]}


def check_codomain_open(graph: KGraph, bound: Degree) -> dict:
    """For each acted point T(x, m), a witness mu' in FA with
    Z(mu') inside C_m, verified over the enumerated path space."""
    ps = ps_filters(graph, bound).filters
    degrees = [p for p in bound.downset() if not p.is_zero()]
    bad, checked = [], 0
    for x in ps:
        for m in degrees:
            mu = degree_witness(x, m)
            if mu is None:
                continue
            checked += 1
            ext = fa_extension(x, mu)
            if ext is None:
                bad.append((str(x), str(m), "no FA extension of the witness"))
                continue
            try:
                mu_prime = graph.factorize(ext, mu.degree)[1]
            except FactorizationError:
                bad.append((str(x), str(m), "witness does not factor"))
                continue
            for y in ps:
                if not y.contains(mu_prime):
                    continue
                back = shift_on(mu, y)
                if not in_ps(back) or act(back, m) != y:
                    bad.append((str(x), str(m), f"Z({mu_prime}) escapes C_{m}"))
                    break
    return {"ok": not bad, "checked": checked, "counterexamples": bad[:5]}


def check_local_homeo_witness(graph: KGraph, bound: Degree) -> dict:
    """For each x in D_m, the pair Z(mu.mu'), Z(mu') on which the action
    restricts to a certified bijection (the shift by mu)."""
    ps = ps_filters(graph, bound).filters
    degrees = [p for p in bound.downset() if not p.is_zero()]
    bad, checked = [], 0
    for x in ps:
        for m in degrees:
            mu = degree_witness(x, m)
            if mu is None:
                continue
            mumu = fa_extension(x, mu)
            if mumu is None:
                bad.append((str(x), str(m), "no FA extension"))
                continue
            mu_prime = graph.factorize(mumu, mu.degree)[1]
            checked += 1
            dom = [y for y in ps if y.contains(mumu)]
            images = [shift_off(mu, y) for y in dom]
            if len(set(images)) != len(dom):
                bad.append((str(x), str(m), "shift not injective on Z"))
            if any(not img.contains(mu_prime) or not in_ps(img) for img in images):
                bad.append((str(x), str(m), "image leaves Z(mu')"))
            for img in images:
                if shift_on(mu, img) not in dom:
                    bad.append((str(x), str(m), "inverse leaves the chart"))
                    break
    return {"ok": not bad, "checked": checked, "counterexamples": bad[:5]}


def check_shift_continuity(graph: KGraph, bound: Degree) -> dict:
    """Left shifts commute with limits of the declared families whose
    limits are filters; right shifts along lam record the comparison
    between the shifted limit and the limit of the shifted family."""
    results: dict = {"left": [], "right": [], "ok": True}
    for seq in declared_sequences(graph):
        res = pointwise_limit(seq, bound)
        if res.outcome is not LimitOutcome.CONVERGES or not res.complete:
            continue
        terms = seq.terms()
        if res.reason is None:
            lim = res.limit
            common = disjoint_limit(terms) & lim.elements
            for lam in sorted(common, key=Morphism.sort_key):
                shifted = [shift_off(lam, t) for t in terms]
                agrees = disjoint_limit(shifted) == shift_off(lam, lim).elements
                results["left"].append(
                    {"family": seq.description, "prefix": str(lam), "commutes": agrees}
                )
                results["ok"] = results["ok"] and agrees
            # right shifts along every composable lam: compare, no claim
            for lam in graph.enumerate_morphisms(bound).morphisms:
                if lam.source != lim.range or lam.is_unit():
                    continue
                shifted = [shift_on(lam, t) for t in terms]
                fam_lim = disjoint_limit(shifted)
                image = shift_on(lam, lim).elements
                results["right"].append(
                    {
                        "family": seq.description,
                        "prefix": str(lam),
                        "limit_of_images": sorted(str(m) for m in fam_lim),
                        "image_of_limit": sorted(str(m) for m in image),
                        "continuous_here": fam_lim == image,
                    }
                )
    return results
