"""Spielberg's groupoid over finitely aligned graphs, its E-hat basis,
and the explicit isomorphism with the path groupoid.

Triples [alpha, beta, x] are the path groupoid's spans (`groupoid.Span`,
with x as z); two are identified when both arise by shifting a common
filter, and the isomorphism sends a class to the element
(shift_on(alpha, x), d(alpha) - d(beta), shift_on(beta, x)).  The
groupoid operations are gated to graphs carrying an everywhere-finitely-
aligned certificate (finite graphs pass automatically); the E-hat basis
comparison itself needs no gate and runs on any graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .alignment import MceKind, far_predicate, mce
from .degree import Degree
from .kgraph import KGraph, KGraphError, Morphism
from .pspace import (
    Cylinder,
    Filter,
    canonical_filter,
    cylinder_membership,
    declared_sequences,
    disjoint_limit,
    enumerate_filters,
    pointwise_limit,
    ps_filters,
)
from .action import shift_off, shift_on
from .groupoid import (
    BasicGroupoidSet,
    Fragment,
    GroupoidElement,
    Span,
    basic_set_membership,
    fragment,
    invert,
    make_element,
)


# exclusion sets K inside mu.Lambda are drawn from the first this many
# elements of the ideal
MAX_EXCLUSIONS = 12


class UnsupportedDomainError(KGraphError):
    """Raised when a Spielberg operation is applied without an
    everywhere-finitely-aligned certificate."""


def require_fa_certificate(graph: KGraph) -> None:
    if graph.is_finite:
        return
    ann = graph.annotations
    if ann is not None and ann.fa_certified_all:
        return
    raise UnsupportedDomainError(
        f"{graph.name} carries no FA(Lambda) = Lambda certificate; "
        "Spielberg groupoid operations are not defined here"
    )


# -- E-hat sets ---------------------------------------------------------------


@dataclass(frozen=True)
class EHatSet:
    """E = alpha.Lambda minus the union of the exclusions' ideals; the
    hat adds the filter-level condition below."""

    alpha: Morphism
    exclusions: tuple[Morphism, ...] = ()

    def in_e(self, m: Morphism) -> bool:
        graph = self.alpha.graph
        if not graph.prefix_leq(self.alpha, m):
            return False
        return not any(graph.prefix_leq(b, m) for b in self.exclusions)


def e_hat_membership(x: Filter, e: EHatSet) -> bool:
    """x in E-hat iff some gamma in x has x intersect gamma.Lambda inside E."""
    graph = x.graph
    for gamma in x.ordered:
        tail = [m for m in x.elements if graph.prefix_leq(gamma, m)]
        if all(e.in_e(m) for m in tail):
            return True
    return False


def check_e_hat_equals_cylinders(graph: KGraph, bound: Degree) -> dict:
    """Z_F(mu \\ K) = E-hat pointwise on every enumerated filter, for all
    mu and all K inside mu.Lambda within the bound (with mu in K giving
    the empty set on both sides)."""
    filters = enumerate_filters(graph, bound).filters
    morphs = graph.enumerate_morphisms(bound).morphisms
    bad, checked = [], 0
    for mu in morphs:
        ideal = [m for m in morphs if graph.prefix_leq(mu, m)][:MAX_EXCLUSIONS]
        for r in range(len(ideal) + 1):
            for K in itertools.combinations(ideal, r):
                cyl = Cylinder((mu,), K)
                e = EHatSet(mu, K)
                for x in filters:
                    checked += 1
                    if cylinder_membership(x, cyl) != e_hat_membership(x, e):
                        bad.append((str(mu), [str(k) for k in K], str(x)))
    return {"ok": not bad, "checked": checked, "counterexamples": bad[:5]}


def reduce_exclusions(graph: KGraph, mu: Morphism, K_prime: Iterable[Morphism]) -> list[Morphism]:
    """Replace arbitrary finite exclusions by ones inside mu.Lambda using
    minimal common extensions (finitely aligned graphs)."""
    require_fa_certificate(graph)
    K: set[Morphism] = set()
    for zeta in K_prime:
        res = mce(mu, zeta)
        if res.kind is not MceKind.EXACT_FINITE:
            raise UnsupportedDomainError(
                f"mce({mu}, {zeta}) is not exact; cannot reduce exclusions"
            )
        K.update(res.elements)
    return sorted(K, key=Morphism.sort_key)


def check_topology_coincides(graph: KGraph, bound: Degree) -> dict:
    """Mutual refinement of the cylinder basis and the E-hat basis on a
    finitely aligned graph: an exclusion zeta reduces to K inside
    mu.Lambda, and Z(mu \\ zeta) = Z(mu \\ K) = E-hat(mu \\ K) pointwise
    over the enumerated filters (up to the empty set)."""
    require_fa_certificate(graph)
    filters = enumerate_filters(graph, bound).filters
    morphs = graph.enumerate_morphisms(bound).morphisms
    bad, checked = [], 0
    for mu in morphs:
        for zeta in morphs:
            K = tuple(reduce_exclusions(graph, mu, [zeta]))
            cyl = Cylinder((mu,), (zeta,))
            reduced = Cylinder((mu,), K)
            e = EHatSet(mu, K)
            for x in filters:
                checked += 1
                inside = cylinder_membership(x, cyl)
                if inside != cylinder_membership(x, reduced) or inside != e_hat_membership(x, e):
                    bad.append((str(mu), str(zeta), str(x)))
    return {"ok": not bad, "checked": checked, "counterexamples": bad[:5]}


# -- triples ------------------------------------------------------------------


def sp_invert(t: Span) -> Span:
    return Span(t.nu, t.mu, t.z)


def triple_equiv(t1: Span, t2: Span) -> tuple[bool, Optional[tuple[Filter, Morphism, Morphism]]]:
    """Search for a common filter y and tails gamma, gamma' witnessing
    [a,b,x] ~ [a',b',x']."""
    graph = t1.z.graph
    require_fa_certificate(graph)
    for gamma in t1.z.ordered:
        y = shift_off(gamma, t1.z)
        ag = graph.compose(t1.mu, gamma)
        bg = graph.compose(t1.nu, gamma)
        for gamma2 in t2.z.ordered:
            if shift_off(gamma2, t2.z) != y:
                continue
            if ag == graph.compose(t2.mu, gamma2) and bg == graph.compose(t2.nu, gamma2):
                return True, (y, gamma, gamma2)
    return False, None


def canonical_triple(t: Span) -> Span:
    """Push the whole (finite) filter into the legs: the representative
    [alpha.gamma, beta.gamma, {s(gamma)}] for the maximum gamma of x."""
    graph = t.z.graph
    gamma = t.z.top()
    y = shift_off(gamma, t.z)
    if len(y.elements) != 1:
        raise KGraphError(f"filter {t.z} has no maximum; canonical form undefined")
    return Span(graph.compose(t.mu, gamma), graph.compose(t.nu, gamma), y)


def sp_compose(t1: Span, t2: Span) -> Span:
    """[a, b, x][c, d, y] = [a.xi, d.eta, z] for a common refinement z of
    x and y with b.xi = c.eta; composability means the glued middles
    agree."""
    graph = t1.z.graph
    require_fa_certificate(graph)
    if shift_on(t1.nu, t1.z) != shift_on(t2.mu, t2.z):
        raise KGraphError(f"triples not composable: {t1} then {t2}")
    for xi in t1.z.ordered:
        b_xi = graph.compose(t1.nu, xi)
        for eta in t2.z.ordered:
            if b_xi != graph.compose(t2.mu, eta):
                continue
            z1, z2 = shift_off(xi, t1.z), shift_off(eta, t2.z)
            if z1 != z2:
                continue
            return Span(graph.compose(t1.mu, xi), graph.compose(t2.nu, eta), z1)
    raise KGraphError(f"no composition witness found for {t1}, {t2}")


def phi(t: Span) -> GroupoidElement:
    """The isomorphism: [a, b, x] -> (sigma^a x, d(a) - d(b), sigma^b x)."""
    require_fa_certificate(t.z.graph)
    return make_element(t)


def iso_check(graph: KGraph, bound: Degree) -> dict:
    """The isomorphism as an exhaustive check at the bound: well-defined
    on equivalence classes, bijective onto the enumerated path-groupoid
    elements, compatible with composition and inversion, and carrying
    basic sets onto basic sets.

    The triples are the fragment's spans, so phi of the k-th triple is
    the k-th element the fragment built, read from `built` rather than
    rebuilt.  A class is keyed by its canonical span, in first-seen
    order.  Composition is compared entrywise over composable class
    pairs: the triple side composes by witness search and maps through
    phi; the element side reads the composite from the fragment's closed
    composition table, shared with `axiom_suite`.
    """
    require_fa_certificate(graph)
    frag = fragment(graph, bound)
    spans, built = frag.spans, frag.built
    classes: dict[Span, list[int]] = {}  # canonical span -> span positions
    for k, t in enumerate(spans):
        classes.setdefault(canonical_triple(t), []).append(k)
    canon = list(classes)

    report: dict = {"triples": len(spans), "classes": len(classes)}
    bad: list = []

    # class structure re-verified by explicit witness search
    for members in classes.values():
        rep = spans[members[0]]
        for k in members[1:]:
            ok, _ = triple_equiv(rep, spans[k])
            if not ok:
                bad.append(("class glue", str(rep), str(spans[k])))

    # well-defined and injective
    images: dict[Span, GroupoidElement] = {}
    for c, members in classes.items():
        imgs = {built[k] for k in members}
        if len(imgs) != 1:
            bad.append(("not well-defined", str(spans[members[0]])))
        images[c] = imgs.pop()
    if len(set(images.values())) != len(images):
        bad.append(("not injective",))

    # surjective onto the enumerated path groupoid
    elements = frag.elements
    missing = set(elements) - set(images.values())
    if missing:
        bad.append(("not surjective", len(missing)))
    report["pg_elements"] = len(elements)
    report["bijection_count_match"] = len(classes) == len(elements)

    # composition and inversion, entrywise over composable class pairs
    ids, rows = frag.ids, frag.rows
    phi_of = {t: phi(t) for t in canon}
    middles: dict[Filter, list[Span]] = {}
    for t in canon:
        middles.setdefault(shift_on(t.mu, t.z), []).append(t)
    pairs = [(t1, t2) for t1 in canon for t2 in middles.get(shift_on(t1.nu, t1.z), [])]
    for t1, t2 in pairs:
        lhs = phi(sp_compose(t1, t2))
        i, j = ids.get(phi_of[t1]), ids.get(phi_of[t2])
        rhs = None if i is None or j is None else frag.closure[rows[i][j]]
        if lhs != rhs:
            bad.append(("composition", str(t1), str(t2)))
    for t in canon:
        if phi(sp_invert(t)) != invert(phi_of[t]):
            bad.append(("inversion", str(t)))
    report["composition_pairs"] = len(pairs)

    bad.extend(_check_basic_set_image(graph, bound, frag))

    report["ok"] = not bad
    report["failures"] = [str(b) for b in bad[:5]]
    return report


def _check_basic_set_image(graph: KGraph, bound: Degree, frag: Fragment) -> list:
    """Basic sets map to basic sets: for every leg (alpha, beta) of the
    fragment and every non-unit zeta with r(zeta) = s(alpha) at the
    bound, the triples [alpha, beta, z] with z in the unit cylinder
    Z(s(alpha) \\ zeta) are exactly the spans of that leg whose element
    lies in Z(alpha \\ alpha.zeta; beta \\ beta.zeta).

    Unit cylinders suffice: [alpha, beta, x] with x in Z(mu \\ K) is
    equivalent to [alpha.mu, beta.mu, shift_off(mu, x)], so the image of
    [alpha, beta, Z(mu \\ K)] is that of a unit cylinder on the leg
    (alpha.mu, beta.mu), and every leg within the bound is enumerated.
    Each element is read from `frag.built`; on a graph with an FA
    certificate every leg is in FA, so every basic set exists.
    """
    morphs = graph.enumerate_morphisms(bound).morphisms
    by_leg: dict[tuple[Morphism, Morphism], list[int]] = {}
    for k, t in enumerate(frag.spans):
        by_leg.setdefault((t.mu, t.nu), []).append(k)
    bad = []
    for (alpha, beta), members in by_leg.items():
        for zeta in morphs:
            if zeta.range != alpha.source or zeta.is_unit():
                continue
            image = BasicGroupoidSet(
                alpha, beta, (graph.compose(alpha, zeta),), (graph.compose(beta, zeta),)
            )
            for k in members:
                t = frag.spans[k]
                # r(z) = s(alpha), so z lies in Z(s(alpha) \ zeta) iff it misses zeta
                if (not t.z.contains(zeta)) != basic_set_membership(frag.built[k], image):
                    bad.append(("basic set image", str(t), str(image)))
    return bad


# -- the relative-category comparison diagnostic ------------------------------


def relative_filter_space(graph: KGraph, bound: Degree) -> dict:
    """Contrast the filter space of the relative category FAr with the
    path space: the relative space has one extra nondiscrete point.

    Only the catalog graph `tg` is supported: the argument is specific to
    it and reads its annotations.
    """
    ann = graph.annotations
    if ann is None or graph.name != "tg":
        raise UnsupportedDomainError("the relative filter-space diagnostic runs on tg only")
    in_far = far_predicate(graph, bound)
    morphs = graph.enumerate_morphisms(bound).morphisms
    far_elements = [m for m in morphs if in_far(m)]

    def far_down(m: Morphism) -> Filter:
        down = [
            mu
            for mu in graph.prefixes(m)
            if in_far(mu) and in_far(graph.tail(mu, m))
        ]
        return canonical_filter(graph, frozenset(down))

    far_filters = sorted({far_down(m) for m in far_elements}, key=Filter.sort_key)

    fam_limits_far: dict[str, Filter] = {}
    for fam in ann.filter_families:
        terms = [far_down(m) for m in fam.members()]
        lim_f = canonical_filter(graph, disjoint_limit(terms))
        if lim_f in set(far_filters) and len({t for t in terms}) == len(terms):
            fam_limits_far[fam.description] = lim_f

    ps = ps_filters(graph, bound).filters
    fam_limits_ps: dict[str, Filter] = {}
    for seq in declared_sequences(graph):
        res = pointwise_limit(seq, bound)
        if res.reason is None and res.limit in set(ps):
            fam_limits_ps[seq.family.description] = res.limit

    def points(space: list[Filter], limits: dict[str, Filter]) -> tuple[list[str], list[str]]:
        """The nondiscrete points (the family limits) and the points with
        an isolation witness: the cylinder of the filter's maximum meets
        the space in that filter alone."""
        nondiscrete = sorted({str(x) for x in limits.values()})
        isolated = sorted(
            str(x)
            for x in space
            if str(x) not in nondiscrete and [y for y in space if y.contains(x.top())] == [x]
        )
        return nondiscrete, isolated

    nondiscrete_far, isolated_far = points(far_filters, fam_limits_far)
    nondiscrete_ps, isolated_ps = points(ps, fam_limits_ps)
    counts = [len(nondiscrete_far), len(nondiscrete_ps)]
    return {
        "far_size": len(far_elements),
        "far_filters": [str(x) for x in far_filters],
        "nondiscrete_far": nondiscrete_far,
        "nondiscrete_ps": nondiscrete_ps,
        "limits_far": {k: str(v) for k, v in sorted(fam_limits_far.items())},
        "limits_ps": {k: str(v) for k, v in sorted(fam_limits_ps.items())},
        "nondiscrete_points": {
            "relative_filter_space": nondiscrete_far,
            "path_space": nondiscrete_ps,
        },
        "counts": counts,
        "homeomorphic": counts[0] == counts[1],
        "isolated_far": isolated_far,
        "isolated_ps": isolated_ps,
        "isolation_complete": len(isolated_far) + counts[0] == len(far_filters)
        and len(isolated_ps) + counts[1] == len(ps),
    }
