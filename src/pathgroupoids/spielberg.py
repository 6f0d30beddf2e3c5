"""Spielberg's groupoid over finitely aligned graphs, its E-hat basis,
and the explicit isomorphism with the path groupoid.

Triples [alpha, beta, x] are identified when both arise by shifting a
common filter; the isomorphism sends a class to the element
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
    GroupoidElement,
    basic_set_membership,
    BasicGroupoidSet,
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

    def __str__(self) -> str:
        exc = ",".join(str(b) for b in self.exclusions)
        return f"Ehat({self.alpha}\\{{{exc}}})"


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


# -- triples -----------------------------------------------------------------


@dataclass(frozen=True)
class SpielbergTriple:
    alpha: Morphism
    beta: Morphism
    x: Filter

    def __post_init__(self):
        if self.alpha.source != self.beta.source or self.alpha.source != self.x.range:
            raise KGraphError(
                f"triple endpoints disagree: s({self.alpha}), s({self.beta}), r({self.x})"
            )

    def __str__(self) -> str:
        return f"[{self.alpha}, {self.beta}, {self.x}]"

    def sort_key(self):
        return (str(self.alpha), str(self.beta), self.x.sort_key())


def sp_invert(t: SpielbergTriple) -> SpielbergTriple:
    return SpielbergTriple(t.beta, t.alpha, t.x)


def triple_equiv(
    t1: SpielbergTriple, t2: SpielbergTriple
) -> tuple[bool, Optional[tuple[Filter, Morphism, Morphism]]]:
    """Search for a common filter y and tails gamma, gamma' witnessing
    [a,b,x] ~ [a',b',x']."""
    graph = t1.x.graph
    require_fa_certificate(graph)
    for gamma in t1.x.ordered:
        y = shift_off(gamma, t1.x)
        ag = graph.compose(t1.alpha, gamma)
        bg = graph.compose(t1.beta, gamma)
        for gamma2 in t2.x.ordered:
            if shift_off(gamma2, t2.x) != y:
                continue
            if ag == graph.compose(t2.alpha, gamma2) and bg == graph.compose(t2.beta, gamma2):
                return True, (y, gamma, gamma2)
    return False, None


def canonical_triple(t: SpielbergTriple) -> SpielbergTriple:
    """Push the whole (finite) filter into the legs: the representative
    [alpha.gamma, beta.gamma, {s(gamma)}] for the maximum gamma of x."""
    graph = t.x.graph
    gamma = t.x.top()
    y = shift_off(gamma, t.x)
    if len(y.elements) != 1:
        raise KGraphError(f"filter {t.x} has no maximum; canonical form undefined")
    return SpielbergTriple(
        graph.compose(t.alpha, gamma), graph.compose(t.beta, gamma), y
    )


def sp_compose(t1: SpielbergTriple, t2: SpielbergTriple) -> SpielbergTriple:
    """[a, b, x][c, d, y] = [a.xi, d.eta, z] for a common refinement z of
    x and y with b.xi = c.eta; composability means the glued middles
    agree."""
    graph = t1.x.graph
    require_fa_certificate(graph)
    if shift_on(t1.beta, t1.x) != shift_on(t2.alpha, t2.x):
        raise KGraphError(f"triples not composable: {t1} then {t2}")
    for xi in t1.x.ordered:
        b_xi = graph.compose(t1.beta, xi)
        for eta in t2.x.ordered:
            if b_xi != graph.compose(t2.alpha, eta):
                continue
            z1, z2 = shift_off(xi, t1.x), shift_off(eta, t2.x)
            if z1 != z2:
                continue
            return SpielbergTriple(
                graph.compose(t1.alpha, xi), graph.compose(t2.beta, eta), z1
            )
    raise KGraphError(f"no composition witness found for {t1}, {t2}")


def phi(t: SpielbergTriple) -> GroupoidElement:
    """The isomorphism: [a, b, x] -> (sigma^a x, d(a) - d(b), sigma^b x)."""
    require_fa_certificate(t.x.graph)
    return make_element(t.alpha, t.beta, t.x)


def enumerate_triples(graph: KGraph, bound: Degree) -> list[SpielbergTriple]:
    """One triple per path-groupoid span, in span order, so the two sides
    of the isomorphism see the same fragment: phi of the k-th triple is
    the fragment's k-th built element."""
    return [SpielbergTriple(alpha, beta, x) for alpha, beta, x in fragment(graph, bound).spans]


def iso_check(graph: KGraph, bound: Degree) -> dict:
    """The isomorphism as an exhaustive check at the bound: well-defined
    on equivalence classes, bijective onto the enumerated path-groupoid
    elements, compatible with composition and inversion, and carrying
    basic sets onto basic sets.

    The triples are the path-groupoid spans, so phi of the k-th triple is
    the k-th element the fragment built.  Composition is compared
    entrywise over composable class pairs: the triple side composes by
    witness search and maps through phi; the element side reads the
    composite from the fragment's closed composition table, shared with
    `axiom_suite`.
    """
    require_fa_certificate(graph)
    frag = fragment(graph, bound)
    triples = enumerate_triples(graph, bound)
    built = frag.built
    classes: dict[tuple, list[int]] = {}  # canonical key -> triple positions
    canon: list[SpielbergTriple] = []  # canonical_triple of each class's first member
    for k, t in enumerate(triples):
        c = canonical_triple(t)
        members = classes.setdefault(c.sort_key(), [])
        if not members:
            canon.append(c)
        members.append(k)

    report: dict = {"triples": len(triples), "classes": len(classes)}
    bad: list = []

    # class structure re-verified by explicit witness search
    for members in classes.values():
        rep = triples[members[0]]
        for k in members[1:]:
            ok, _ = triple_equiv(rep, triples[k])
            if not ok:
                bad.append(("class glue", str(rep), str(triples[k])))

    # well-defined and injective
    images: dict[tuple, GroupoidElement] = {}
    for key, members in classes.items():
        imgs = {built[k] for k in members}
        if len(imgs) != 1:
            bad.append(("not well-defined", str(triples[members[0]])))
        images[key] = imgs.pop()
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
    middles: dict[Filter, list[SpielbergTriple]] = {}
    for t in canon:
        middles.setdefault(shift_on(t.alpha, t.x), []).append(t)
    comp_checked = 0
    pairs = [
        (t1, t2) for t1 in canon for t2 in middles.get(shift_on(t1.beta, t1.x), [])
    ]
    for t1, t2 in pairs:
        comp_checked += 1
        lhs = phi(sp_compose(t1, t2))
        i, j = ids.get(phi_of[t1]), ids.get(phi_of[t2])
        rhs = None if i is None or j is None else frag.closure[rows[i][j]]
        if lhs != rhs:
            bad.append(("composition", str(t1), str(t2)))
    for t in canon:
        if phi(sp_invert(t)) != invert(phi_of[t]):
            bad.append(("inversion", str(t)))
    report["composition_pairs"] = comp_checked

    # basic sets map to basic sets: [a, b, Z(mu\K)] onto Z(a.mu\a.K; b.mu\b.K)
    basic_bad = _check_basic_set_image(graph, bound, triples)
    bad.extend(basic_bad)

    report["ok"] = not bad
    report["failures"] = [str(b) for b in bad[:5]]
    return report


def _check_basic_set_image(graph, bound, triples) -> list:
    bad = []
    morphs = graph.enumerate_morphisms(bound).morphisms
    legs = sorted({(t.alpha, t.beta) for t in triples}, key=lambda p: (str(p[0]), str(p[1])))
    step = max(1, len(legs) // 12)
    for alpha, beta in legs[::step]:
        mu = graph.unit(alpha.source)
        for zeta in [m for m in morphs if m.range == mu.range][:3]:
            if zeta.is_unit():
                continue
            K = (zeta,)
            try:
                image_set = BasicGroupoidSet(
                    graph.compose(alpha, mu),
                    graph.compose(beta, mu),
                    tuple(graph.compose(alpha, k) for k in K),
                    tuple(graph.compose(beta, k) for k in K),
                )
            except KGraphError:
                continue
            source_cyl = Cylinder((mu,), K)
            for t in triples:
                if t.alpha != alpha or t.beta != beta:
                    continue
                in_source = cylinder_membership(t.x, source_cyl)
                in_image = basic_set_membership(phi(t), image_set)
                if in_source != in_image:
                    bad.append(("basic set image", str(t), str(image_set)))
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
            if in_far(mu) and any(in_far(nu) for nu in graph.tails(mu, m))
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
