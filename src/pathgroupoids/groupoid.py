"""The path groupoid: the semidirect product of the shift action on the
path space, with certificate-carrying elements.

An element is a triple (x, q, y) with q in Z^k; its certificate is a
pair (m, n) of degrees with q = m - n, x in D_m, y in D_n and
T(x, m) = T(y, n).  Certificates re-verify on demand, and every element
round-trips through its `Span` (mu, nu, z) with x = sigma^mu z and
y = sigma^nu z.  Element equality ignores certificates.

A (graph, bound) fragment is enumerated and composed once, by
`fragment`: its spans, the element of each, the distinct elements with
their ids, and a composition table closed under composition, every
composable pair composed once through `compose_elements`.  A composite
outside the span elements is decided there alone; `axiom_suite` and
`spielberg.iso_check` read composites only from the table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .alignment import Verdict, is_fa
from .degree import Degree
from .kgraph import KGraph, KGraphError, Morphism, per_graph
from .pspace import (
    Filter,
    bps_enumerate,
    compactness_probe,
    declared_sequences,
    in_ps,
    pointwise_limit,
    LimitOutcome,
    ps_filters,
    upper_bound_in,
)
from .action import (
    act,
    degree_witness,
    directed_witness,
    shift_on,
)


class GroupoidError(KGraphError):
    pass


class SpanRejectedError(GroupoidError):
    """The span would leave the path space (right shifts need not stay)."""


class GroupoidElement:
    """A triple (x, q, y) with a re-verifiable certificate."""

    __slots__ = ("x", "q", "y", "cert", "_hash")

    def __init__(self, x: Filter, q: tuple[int, ...], y: Filter, cert):
        self.x = x
        self.q = q
        self.y = y
        self.cert = cert  # (m, n) with q = m - n
        self._hash = hash((x, q, y))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GroupoidElement)
            and self.x == other.x
            and self.q == other.q
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return self._hash

    def is_unit(self) -> bool:
        return self.x == self.y and all(c == 0 for c in self.q)

    def sort_key(self):
        return (self.x.sort_key(), self.q, self.y.sort_key())

    def __str__(self) -> str:
        return f"({self.x}, {list(self.q)}, {self.y})"


def unit_element(x: Filter) -> GroupoidElement:
    zero = Degree.zero(x.graph.rank)
    return GroupoidElement(x, zero.minus(zero), x, (zero, zero))


@dataclass(frozen=True)
class Span:
    """(mu, nu, z) with s(mu) = s(nu) = r(z): the span of the element
    (shift_on(mu, z), d(mu) - d(nu), shift_on(nu, z)) and Spielberg's
    triple [mu, nu, z].  Its constructor is the one endpoint check."""

    mu: Morphism
    nu: Morphism
    z: Filter

    def __post_init__(self):
        mu, nu, z = self.mu, self.nu, self.z
        if mu.source != nu.source or mu.source != z.range:
            raise GroupoidError(
                f"span mismatch: s({mu}) = {mu.source}, s({nu}) = {nu.source}, r(z) = {z.range}"
            )

    def __str__(self) -> str:
        return f"[{self.mu}, {self.nu}, {self.z}]"


def make_element(span: Span) -> GroupoidElement:
    """Build the element of a span; rejects spans whose shifted filters
    leave the path space."""
    mu, nu, z = span.mu, span.nu, span.z
    if not in_ps(z):
        raise SpanRejectedError(f"base filter {z} is not a certified path-space point")
    x, y = shift_on(mu, z), shift_on(nu, z)
    for lam, shifted in ((mu, x), (nu, y)):
        if not in_ps(shifted):
            raise SpanRejectedError(
                f"shift_on({lam}, {z}) = {shifted} leaves the path space; "
                "right shifts need not preserve it"
            )
    g = GroupoidElement(x, mu.degree.minus(nu.degree), y, (mu.degree, nu.degree))
    verify_certificate(g)
    return g


def verify_certificate(g: GroupoidElement) -> None:
    m, n = g.cert
    if m.minus(n) != g.q:
        raise GroupoidError(f"certificate degrees {m}, {n} do not give q = {g.q}")
    if degree_witness(g.x, m) is None or degree_witness(g.y, n) is None:
        raise GroupoidError("certificate witnesses are missing from the filters")
    if act(g.x, m) != act(g.y, n):
        raise GroupoidError(f"T(x, {m}) != T(y, {n}) for {g}")


def span_of(g: GroupoidElement) -> Span:
    """Derive the span (mu, nu, z) from the certificate and re-verify it."""
    m, n = g.cert
    mu = degree_witness(g.x, m)
    nu = degree_witness(g.y, n)
    z = act(g.x, m)
    if shift_on(mu, z) != g.x or shift_on(nu, z) != g.y:
        raise GroupoidError(f"span of {g} does not reproduce its sides")
    return Span(mu, nu, z)


def invert(g: GroupoidElement) -> GroupoidElement:
    m, n = g.cert
    return GroupoidElement(g.y, tuple(-c for c in g.q), g.x, (n, m))


def compose_elements(g: GroupoidElement, h: GroupoidElement) -> GroupoidElement:
    """(x, q, y)(y, r, z) = (x, q + r, z), with a fresh certificate found
    through the directedness of the shared filter."""
    if g.y != h.x:
        raise GroupoidError(f"elements not composable: {g} then {h}")
    m1, n1 = g.cert
    m2, n2 = h.cert
    l, _ = directed_witness(g.y, n1, m2)
    a, b = l.sub(n1), l.sub(m2)
    cert = (m1.add(a), n2.add(b))
    q = tuple(qa + qb for qa, qb in zip(g.q, h.q))
    out = GroupoidElement(g.x, q, h.y, cert)
    verify_certificate(out)
    return out


# -- the fragment -------------------------------------------------------------


@dataclass(frozen=True)
class Fragment:
    """The bounded piece of the path groupoid at (graph, bound), built
    once by `fragment` and shared by every suite; nothing may mutate it.

    `spans` are the `Span`s (mu, nu, z) over the bounded enumeration, and
    the triples of `spielberg.iso_check`, whose sides shift_on(mu, z) and
    shift_on(nu, z) stay in the enumerated path space, in the order of z
    and then of the legs; `built[k]` is the element of `spans[k]`, equal
    elements being one object.  `elements`,
    the distinct ones in `GroupoidElement.sort_key` order, have ids 0..n-1.

    The table is closed under composition: a composite that is no span
    element gets the next id, and its own pairs are composed in turn.  This
    terminates: on finite filters q = d(x) - d(y), so there are at most
    |PS|^2 elements.  Span elements are closed under inversion (span
    (nu, mu, z) inverts (mu, nu, z)) and hold every unit, so the closure is
    the subgroupoid the spans generate; on grid(2) at (1, 1) it has 196
    elements from 144.  `closure[c]` is the element with id c, `ids`
    inverts it, and `rows[i][j]` is the id of g_i g_j for each j
    composable after i, in increasing order of j, each pair composed once
    by `compose_elements`, which re-verifies the certificate.
    """

    spans: list[Span]
    built: list[GroupoidElement]
    elements: list[GroupoidElement]
    closure: list[GroupoidElement]
    ids: dict[GroupoidElement, int]
    rows: list[dict[int, int]]


@per_graph
def fragment(graph: KGraph, bound: Degree) -> Fragment:
    morphs = graph.enumerate_morphisms(bound).morphisms
    ps = ps_filters(graph, bound).filters
    known = set(ps)
    spans = []
    for z in ps:
        legs = [m for m in morphs if m.source == z.range and shift_on(m, z) in known]
        spans.extend(Span(mu, nu, z) for mu, nu in itertools.product(legs, legs))
    seen: dict[GroupoidElement, GroupoidElement] = {}
    built = [seen.setdefault(g, g) for g in map(make_element, spans)]
    elements = sorted(seen, key=GroupoidElement.sort_key)

    closure = list(elements)
    ids = {g: i for i, g in enumerate(closure)}
    by_x: dict[Filter, list[int]] = {}
    for i, g in enumerate(closure):
        by_x.setdefault(g.x, []).append(i)
    rows: list[dict[int, int]] = []
    grown = True
    while grown:  # a new element may extend a row already passed
        grown = False
        for i, g in enumerate(closure):  # sees the elements appended below
            if i == len(rows):
                rows.append({})
            row = rows[i]
            for j in by_x.get(g.y, ()):
                if j in row:
                    continue
                gh = compose_elements(g, closure[j])
                c = ids.setdefault(gh, len(closure))
                if c == len(closure):
                    closure.append(gh)
                    by_x.setdefault(gh.x, []).append(c)
                    grown = True
                row[j] = c
    return Fragment(spans, built, elements, closure, ids, rows)


def enumerate_pg(graph: KGraph, bound: Degree) -> list[GroupoidElement]:
    """The distinct span elements in sort order; an element's position is
    its id in the fragment."""
    return fragment(graph, bound).elements


# -- basic sets --------------------------------------------------------------


@dataclass(frozen=True)
class BasicGroupoidSet:
    """Z(mu \\ J; nu \\ K) with mu, nu carrying FA verdicts True."""

    mu: Morphism
    nu: Morphism
    J: tuple[Morphism, ...] = ()
    K: tuple[Morphism, ...] = ()

    def __post_init__(self):
        for m in (self.mu, self.nu):
            if is_fa(m) is not Verdict.TRUE:
                raise GroupoidError(f"basic set parameter {m} lacks an FA certificate")

    def __str__(self) -> str:
        j = ",".join(str(m) for m in self.J)
        k = ",".join(str(m) for m in self.K)
        return f"Z({self.mu}\\{{{j}}}; {self.nu}\\{{{k}}})"


def basic_set_membership(g: GroupoidElement, b: BasicGroupoidSet) -> bool:
    if not (g.x.contains(b.mu) and not any(g.x.contains(j) for j in b.J)):
        return False
    if not (g.y.contains(b.nu) and not any(g.y.contains(k) for k in b.K)):
        return False
    if g.q != b.mu.degree.minus(b.nu.degree):
        return False
    return act(g.x, b.mu.degree) == act(g.y, b.nu.degree)


def paired_fa_witnesses(
    g: GroupoidElement,
    above_x: Iterable[Morphism] = (),
    above_y: Iterable[Morphism] = (),
) -> tuple[Morphism, Morphism]:
    """A pair mu in g.x, nu in g.y with both in FA, d(mu) - d(nu) = q and
    matching shifts, with mu above `above_x` and nu above `above_y`.

    Both sides are the certificate witnesses extended by one common tail
    inside the shared shifted filter, as in the basis-refinement proof.
    """
    graph = g.x.graph
    m, n = g.cert
    wx, wy = degree_witness(g.x, m), degree_witness(g.y, n)
    w = act(g.x, m)

    # tails forced by the "above" constraints; each lies in w, the shift
    # of either side by its witness
    needed: list[Morphism] = []
    for flt, base, targets in ((g.x, wx, above_x), (g.y, wy, above_y)):
        for t in targets:
            ext = upper_bound_in(flt, (base, t))
            if ext is None:
                raise GroupoidError(f"{t} has no common extension with the witness in {flt}")
            needed.append(graph.tail(base, ext))

    for tau in w.ordered:
        if not all(graph.prefix_leq(t, tau) for t in needed):
            continue
        mu = graph.compose(wx, tau)
        nu = graph.compose(wy, tau)
        if is_fa(mu) is Verdict.TRUE and is_fa(nu) is Verdict.TRUE:
            return mu, nu
    raise GroupoidError(f"no paired FA witnesses found for {g}")


def enclosing_basic(
    g: GroupoidElement,
    above_x: Iterable[Morphism] = (),
    above_y: Iterable[Morphism] = (),
    J: Iterable[Morphism] = (),
    K: Iterable[Morphism] = (),
) -> BasicGroupoidSet:
    mu, nu = paired_fa_witnesses(g, above_x, above_y)
    b = BasicGroupoidSet(mu, nu, tuple(J), tuple(K))
    if not basic_set_membership(g, b):
        raise GroupoidError(f"constructed basic set {b} misses {g}")
    return b


# -- boundary-path groupoid ---------------------------------------------------


def invariance_check(graph: KGraph, bound: Degree) -> dict:
    """BPS as an invariant unit-space subset: sources in BPS force ranges
    in BPS over all enumerated elements; closedness against the declared
    limit families.

    When the boundary enumeration is not exact, raw mismatches at the
    bound are reported as boundary cases rather than definite
    violations (the truncated scan can certify points that the true
    boundary does not contain)."""
    bps_res = bps_enumerate(graph, bound)
    bps = set(bps_res.filters)
    bad = [
        g
        for g in enumerate_pg(graph, bound)
        if g.y in bps and g.x not in bps
    ]
    closed_bad = []
    for seq in declared_sequences(graph):
        if not all(t in bps for t in seq.terms()):
            continue
        res = pointwise_limit(seq, bound)
        if res.outcome is not LimitOutcome.CONVERGES or not res.complete:
            continue
        if res.reason is None and in_ps(res.limit) and res.limit not in bps:
            closed_bad.append(seq.description)
    raw = [str(g) for g in bad[:5]] + closed_bad[:5]
    if not raw:
        verdict = "pass"
    elif bps_res.exact:
        verdict = "violations"
    else:
        verdict = "unknown_at_bound"
    return {
        "ok": verdict != "violations",
        "verdict": verdict,
        "bps_exact": bps_res.exact,
        "bps_size": len(bps),
        "invariance_violations": [str(g) for g in bad[:5]] if verdict == "violations" else [],
        "boundary_cases": raw if verdict == "unknown_at_bound" else [],
        "closure_violations": closed_bad[:5] if verdict == "violations" else [],
    }


# -- axiom suite --------------------------------------------------------------


def axiom_suite(graph: KGraph, bound: Degree) -> dict:
    """Groupoid axioms over every enumerated element: associativity,
    inverse and unit laws, plus span round-trips and certificate
    re-verification.  Coherence of composability needs no check: the
    range and source units of g are unit_element(g.x) and
    unit_element(g.y) by construction.

    Every law is read off the fragment's ids and closed composition
    table.  The inverse and unit laws look up the ids of invert(g) and of
    g's units; associativity compares rows[rows[i][j]][k] with
    rows[i][rows[j][k]].  Pairs and triples run over span-element ids in
    increasing order, so counterexamples come out in enumeration order."""
    frag = fragment(graph, bound)
    elements, ids, rows = frag.elements, frag.ids, frag.rows
    n = len(elements)
    bad: list = []
    for i, g in enumerate(elements):
        verify_certificate(g)
        if make_element(span_of(g)) != g:
            bad.append(("span-roundtrip", str(g)))
        gi = invert(g)
        verify_certificate(gi)
        if invert(gi) != g:
            bad.append(("involution", str(g)))
        r, s, ii = ids.get(unit_element(g.x)), ids.get(unit_element(g.y)), ids.get(gi)
        if None in (r, s, ii):
            bad.append(("inverse or unit outside the fragment", str(g)))
        else:
            if rows[i][ii] != r:
                bad.append(("g.g^-1", str(g)))
            if rows[ii][i] != s:
                bad.append(("g^-1.g", str(g)))
            if rows[r][i] != i or rows[i][s] != i:
                bad.append(("unit law", str(g)))

    pairs = assoc_checked = 0
    for i, g in enumerate(elements):
        for j, ij in rows[i].items():
            if j >= n:
                break
            pairs += 1
            for k, jk in rows[j].items():
                if k >= n:
                    break
                assoc_checked += 1
                if rows[ij][k] != rows[i][jk]:
                    bad.append(("associativity", str(g), str(elements[j]), str(elements[k])))
    return {
        "ok": not bad,
        "elements": len(elements),
        "composable_pairs": pairs,
        "associativity_triples": assoc_checked,
        "counterexamples": [str(b) for b in bad[:5]],
    }


# -- topology evidence ---------------------------------------------------------


def separating_sets(
    g: GroupoidElement, h: GroupoidElement
) -> tuple[BasicGroupoidSet, BasicGroupoidSet]:
    """Disjoint basic sets around two distinct elements.

    Distinct q's separate through the degree data of any enclosing sets;
    otherwise some morphism lies in one side's filter and not the other's
    and becomes an include/exclude pair.
    """
    if g == h:
        raise GroupoidError("cannot separate an element from itself")
    if g.q != h.q:
        return enclosing_basic(g), enclosing_basic(h)
    for attr in ("x", "y"):
        fg, fh = getattr(g, attr), getattr(h, attr)
        if fg == fh:
            continue
        diff = sorted(fg.elements ^ fh.elements, key=Morphism.sort_key)
        kappa = diff[0]
        inner, outer, swapped = (g, h, False) if fg.contains(kappa) else (h, g, True)
        # kappa sits in inner's side and not in outer's
        if attr == "x":
            pair = (enclosing_basic(inner, above_x=[kappa]), enclosing_basic(outer, J=[kappa]))
        else:
            pair = (enclosing_basic(inner, above_y=[kappa]), enclosing_basic(outer, K=[kappa]))
        return (pair[1], pair[0]) if swapped else pair
    raise GroupoidError(f"{g} and {h} are equal as triples")


def hausdorff_ample_evidence(graph: KGraph, bound: Degree, sample: int = 60) -> dict:
    """Separation of distinct enumerated elements by provably disjoint
    basic sets (q-mismatch or an include/exclude pair), plus compactness
    flags on the basic unit sets from the escape-family prober."""
    elements = enumerate_pg(graph, bound)
    n = len(elements)
    step = max(1, n * (n - 1) // 2 // sample)
    bad, checked = [], 0
    for g, h in itertools.islice(itertools.combinations(elements, 2), 0, None, step):
        checked += 1
        bg, bh = separating_sets(g, h)
        if basic_set_membership(g, bh) or basic_set_membership(h, bg):
            bad.append((str(g), str(h)))
            continue
        for e in elements:
            if basic_set_membership(e, bg) and basic_set_membership(e, bh):
                bad.append((str(g), str(h), f"intersect at {e}"))
                break
    unit_flags = {}
    for m in graph.enumerate_morphisms(bound).morphisms:
        if is_fa(m) is Verdict.TRUE:
            unit_flags[str(m)] = compactness_probe(m, bound).kind
    return {
        "ok": not bad,
        "separations_checked": checked,
        "counterexamples": [str(b) for b in bad[:5]],
        "unit_basic_set_compactness": unit_flags,
    }


def refinement_check(graph: KGraph, bound: Degree, sample: int = 40) -> dict:
    """Basis property: an element inside two basic sets owns a third
    basic set inside the intersection, built by extending both witness
    pairs through directedness."""
    elements = enumerate_pg(graph, bound)
    small = graph.enumerate_morphisms(Degree((1,) * graph.rank)).morphisms
    bad, checked = [], 0
    step = max(1, len(elements) // sample)
    for g in elements[::step]:
        b1 = enclosing_basic(g)
        # the second set excludes the first small morphism absent from g.x
        b2 = enclosing_basic(g, J=[m for m in small if not g.x.contains(m)][:1])
        checked += 1
        try:
            b3 = enclosing_basic(
                g,
                above_x=[b1.mu, b2.mu],
                above_y=[b1.nu, b2.nu],
                J=b1.J + b2.J,
                K=b1.K + b2.K,
            )
        except GroupoidError as exc:
            bad.append((str(g), str(exc)))
            continue
        for e in elements:
            if basic_set_membership(e, b3) and not (
                basic_set_membership(e, b1) and basic_set_membership(e, b2)
            ):
                bad.append((str(g), f"refinement leaks at {e}"))
                break
    return {"ok": not bad, "checked": checked, "counterexamples": [str(b) for b in bad[:3]]}


def unit_space_check(graph: KGraph, bound: Degree) -> dict:
    """x -> (x, 0, x) is a bijection onto the enumerated units and
    respects basic-set membership."""
    elements = enumerate_pg(graph, bound)
    units = [g for g in elements if g.is_unit()]
    ps = ps_filters(graph, bound).filters
    images = [unit_element(x) for x in ps]
    ok = sorted(map(str, units)) == sorted(map(str, images))
    mismatches = []
    for x in ps:
        u = unit_element(x)
        for m in x.ordered:
            if is_fa(m) is not Verdict.TRUE:
                continue
            b = BasicGroupoidSet(m, m)
            if basic_set_membership(u, b) != (x.contains(m)):
                mismatches.append((str(x), str(m)))
    return {
        "ok": ok and not mismatches,
        "units": len(units),
        "ps_points": len(ps),
        "counterexamples": [str(t) for t in mismatches[:3]],
    }
