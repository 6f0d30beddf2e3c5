"""Filters, cylinder sets, pointwise limits, and the path spaces.

Filters play the role of paths.  Everything here is computed on explicit
finite filters: all catalog phenomena live on finite filters and
N-indexed families of them.

Limits are taken in one place.  :func:`pointwise_limit` decides the
eventual membership of every morphism up to the bound and every element
of the family's terms, runs :func:`is_filter` once on a convergent
limit, and returns the limit as a :class:`Filter` when it is one and the
reason when it is not.  The boundary-path space, the compactness probes,
the closure checks of the action and the groupoid, and the path-space
side of ``spielberg.relative_filter_space`` all read that result.

Filters are canonical per graph: every filter the package builds comes
from :func:`canonical_filter`, which keeps one :class:`Filter` per set
of morphisms in the graph's memo table.  Equal filters of one graph are
then one object, so memo keys and element comparisons settle on the
identity check.  A subset's hash and its elements in sort order
(``ordered``) are computed once, when it is built.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .alignment import Verdict, is_fa
from .catalog import MorphismFamily
from .degree import Degree
from .kgraph import KGraph, Morphism, per_graph


class SubsetError(ValueError):
    pass


class ExplicitSubset:
    """A finite subset of Lambda, the workhorse view."""

    __slots__ = ("graph", "elements", "ordered", "_hash")

    def __init__(self, graph: KGraph, elements: Iterable[Morphism]):
        self.graph = graph
        self.elements = frozenset(elements)
        self.ordered = tuple(sorted(self.elements, key=Morphism.sort_key))
        self._hash = hash((id(graph), self.elements))

    def contains(self, m: Morphism) -> bool:
        return m in self.elements

    def __iter__(self):
        return iter(self.ordered)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, ExplicitSubset)
            and self.graph is other.graph
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self) + "}"


class Filter(ExplicitSubset):
    """An explicit finite filter; :func:`is_filter` validates one."""

    @property
    def range(self):
        for m in self.elements:
            if m.is_unit():
                return m.range
        raise SubsetError("filter has no vertex")

    def sort_key(self):
        return (str(self.range), tuple(sorted(str(m) for m in self.elements)))

    def top(self) -> Morphism:
        """The element of largest total degree, ties broken by sort order:
        the maximum of a finite filter."""
        return max(self.elements, key=lambda m: (m.degree.total, m.sort_key()))


def is_filter(view: ExplicitSubset) -> tuple[bool, Optional[str]]:
    """Filter axioms, exactly, with a counterexample message on failure."""
    graph = view.graph
    elements = view.ordered
    if not elements:
        return False, "empty"
    units = [m for m in elements if m.is_unit()]
    if len(units) != 1:
        return False, f"contains {len(units)} vertices, expected exactly one"
    for m in elements:
        for p in graph.prefixes(m):
            if p not in view.elements:
                return False, f"not hereditary: {p} below {m} is missing"
    for a, b in itertools.combinations(elements, 2):
        if not any(
            graph.prefix_leq(a, c) and graph.prefix_leq(b, c) for c in elements
        ):
            return False, f"not directed: no common extension of {a} and {b}"
    degrees = [m.degree.coords for m in elements]
    if len(set(degrees)) != len(degrees):
        return False, "degree map is not injective"
    return True, None


@per_graph
def canonical_filter(graph: KGraph, elements: frozenset[Morphism]) -> Filter:
    """The one Filter of `graph` on `elements`: every filter of the
    package is built here, so equal filters are the same object."""
    return Filter(graph, elements)


@per_graph
def principal(lam: Morphism) -> Filter:
    """The principal filter of all prefixes of lam (finite: degrees below
    d(lam) are finitely many and factorisation is unique per degree)."""
    return canonical_filter(lam.graph, frozenset(lam.graph.prefixes(lam)))


@dataclass
class FilterList:
    filters: list[Filter]
    exact: bool


@per_graph
def enumerate_filters(graph: KGraph, bound: Degree) -> FilterList:
    """All filters over the bounded enumeration.

    Finite graphs are exact: a finite directed hereditary set has a
    maximum, so every filter is principal.  Infinite graphs yield the
    principal filters of enumerated morphisms plus declared non-principal
    families (none of the catalog graphs has any), flagged Truncated.
    """
    if graph.is_finite:
        seen = {principal(m) for m in graph.all_morphisms()}
        return FilterList(sorted(seen, key=Filter.sort_key), True)
    seen = {principal(m) for m in graph.enumerate_morphisms(bound).morphisms}
    return FilterList(sorted(seen, key=Filter.sort_key), False)


def ultrafilters(graph: KGraph, bound: Degree) -> FilterList:
    """Filters maximal among the enumerated ones; exact on finite graphs."""
    all_f = enumerate_filters(graph, bound)
    out = [
        x
        for x in all_f.filters
        if not any(y is not x and x.elements < y.elements for y in all_f.filters)
    ]
    return FilterList(sorted(out, key=Filter.sort_key), all_f.exact)


# -- cylinders -------------------------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    """Z(K1 \\ K2): subsets containing K1 and avoiding K2."""

    include: tuple[Morphism, ...]
    exclude: tuple[Morphism, ...] = ()


def cylinder_membership(view, cyl: Cylinder) -> bool:
    return all(view.contains(m) for m in cyl.include) and not any(
        view.contains(m) for m in cyl.exclude
    )


# -- described sequences and pointwise limits ------------------------------


@dataclass(frozen=True)
class DescribedSequence:
    """The sequence of principal filters of a morphism family."""

    graph: KGraph
    family: MorphismFamily

    @property
    def description(self) -> str:
        return f"principal({self.family.description})"

    def terms(self) -> list[Filter]:
        return [principal(m) for m in self.family.members()]


class LimitOutcome(enum.Enum):
    CONVERGES = "converges"
    DIVERGENT = "divergent"


@dataclass
class LimitResult:
    outcome: LimitOutcome
    limit: Optional[ExplicitSubset]  # a Filter when the limit is one
    complete: bool
    decisions: dict
    probe: list[Morphism]
    reason: Optional[str]  # why there is no filter limit; None when there is


def disjoint_limit(terms: Iterable[ExplicitSubset]) -> frozenset[Morphism]:
    """The pointwise limit of a disjoint family: the elements that every
    term shares."""
    return frozenset.intersection(*(t.elements for t in terms))


def pointwise_limit(seq: DescribedSequence, bound: Degree) -> LimitResult:
    """Decide eventual membership under the tail rule for every morphism
    of degree <= bound and everything named by the sequence: enough to
    decide filterhood of the limit at the bound.

    For a disjoint principal family the terms share exactly their common
    part, so the limit is the intersection of the materialised terms and
    the computation is complete.  For an increasing family the limit is
    the union, reported as its bounded fragment with complete=False.
    """
    fam = seq.family
    terms = seq.terms()
    probe = set(seq.graph.enumerate_morphisms(bound).morphisms)
    for t in terms:
        probe.update(t.elements)
    probe = sorted(probe, key=Morphism.sort_key)
    n_terms = len(terms)
    decisions: dict[str, str] = {}
    divergent = False
    complete = True

    if fam.flavor == "disjoint":
        limit_elems = disjoint_limit(terms)
        for m in probe:
            support = sum(1 for t in terms if t.contains(m))
            if support == n_terms:
                decisions[str(m)] = "in"
            elif support <= 1:
                decisions[str(m)] = "out"
            else:
                decisions[str(m)] = "oscillating"
                divergent = True
        for m in limit_elems:
            decisions.setdefault(str(m), "in")
    elif fam.flavor == "increasing":
        last = terms[-1]
        limit_elems = last.elements
        complete = False
        for m in probe:
            if last.contains(m):
                decisions[str(m)] = "in"
            elif m.degree.leq(fam.member(fam.indices[-1]).degree):
                decisions[str(m)] = "out"
            else:
                decisions[str(m)] = "undecided"
    else:
        raise SubsetError(f"unknown family flavor {fam.flavor!r}")

    if divergent:
        return LimitResult(LimitOutcome.DIVERGENT, None, complete, decisions, probe, "no limit")
    limit = ExplicitSubset(seq.graph, limit_elems)
    ok, reason = is_filter(limit)
    if ok:
        limit = canonical_filter(seq.graph, limit_elems)
    return LimitResult(LimitOutcome.CONVERGES, limit, complete, decisions, probe, reason)


# -- path space and boundary-path space ------------------------------------


def fa_extension(x: Filter, lam: Morphism) -> Optional[Morphism]:
    """The first element of x, in sort order, above lam and in FA; None
    when x holds none."""
    for m in x:
        if is_fa(m) is Verdict.TRUE and x.graph.prefix_leq(lam, m):
            return m
    return None


@per_graph
def ps_membership(x: Filter) -> tuple[Verdict, dict]:
    """Does x meet FA(Lambda)?  Certified through the stronger form: every
    element of x should admit an FA extension inside x."""
    verdicts = {m: is_fa(m) for m in x.elements}
    record: dict = {}
    if any(v is Verdict.TRUE for v in verdicts.values()):
        witnesses = {}
        for lam in x.elements:
            ext = fa_extension(x, lam)
            if ext is None:
                # contradicts the strengthened characterisation; surface it
                return Verdict.FALSE, {"inconsistent_at": str(lam)}
            witnesses[str(lam)] = str(ext)
        record["witnesses"] = witnesses
        return Verdict.TRUE, record
    if all(v is Verdict.FALSE for v in verdicts.values()):
        return Verdict.FALSE, record
    return Verdict.UNKNOWN_AT_BOUND, record


def in_ps(x: Filter) -> bool:
    return ps_membership(x)[0] is Verdict.TRUE


@per_graph
def ps_filters(graph: KGraph, bound: Degree) -> FilterList:
    all_f = enumerate_filters(graph, bound)
    return FilterList([x for x in all_f.filters if in_ps(x)], all_f.exact)


def declared_sequences(graph: KGraph) -> list[DescribedSequence]:
    ann = graph.annotations
    if ann is None:
        return []
    return [DescribedSequence(graph, fam) for fam in ann.filter_families]


def bps_enumerate(graph: KGraph, bound: Degree) -> FilterList:
    """Ultrafilters meeting PS plus the declared-family limits that land
    in PS.  Exact for finite graphs, where the filter space is discrete
    and the closure adds nothing."""
    ultra = ultrafilters(graph, bound)
    out = {x for x in ultra.filters if in_ps(x)}
    exact = ultra.exact
    for seq in declared_sequences(graph):
        if not all(in_ps(t) for t in seq.terms()):
            # sequence does not live in PS; its limit is irrelevant here
            continue
        res = pointwise_limit(seq, bound)
        if res.outcome is not LimitOutcome.CONVERGES:
            continue
        if not res.complete:
            exact = False
            continue
        if res.reason is None and in_ps(res.limit):
            out.add(res.limit)
    return FilterList(sorted(out, key=Filter.sort_key), exact)


# -- compactness probes -----------------------------------------------------


@dataclass
class CompactEvidence:
    kind: str  # Compact | NonCompact | ConsistentWithCompact | UnknownAtBound
    family: Optional[str] = None
    limit: Optional[list[str]] = None
    reason: str = ""


def compactness_probe(lam: Morphism, bound: Degree) -> CompactEvidence:
    """Executable evidence for the compactness characterisation of Z(lam).

    Finite graphs: exact (finite subspaces are compact).  For lam outside
    FA, an escape certificate: the declared infinite mce family of lam's
    witness pair, a described sequence inside Z(lam) whose pointwise
    limit (shared by every subsequence, the tails being principal
    families) is not a filter, so no subsequence converges in the space.
    For annotated lam in FA, every declared family inside Z(lam) must
    have a convergent subsequence with a filter limit.
    """
    graph = lam.graph
    if graph.is_finite:
        return CompactEvidence("Compact", reason="finite subspace")
    verdict = is_fa(lam)
    ann = graph.annotations
    if verdict is Verdict.FALSE:
        witness = ann.fa_false_witness(lam) if ann is not None else None
        fam = ann.declared_mce(*witness) if witness is not None else None
        if fam is None:
            return CompactEvidence("UnknownAtBound", reason="no escape family declared")
        seq = DescribedSequence(graph, fam)
        for t in seq.terms():
            if not t.contains(lam):
                raise SubsetError(f"escape family {fam.description} leaves Z({lam})")
        res = pointwise_limit(seq, bound)
        if res.outcome is LimitOutcome.CONVERGES and res.reason is not None:
            return CompactEvidence(
                "NonCompact",
                family=seq.description,
                limit=[str(m) for m in res.limit],
                reason=f"limit is not a filter: {res.reason}",
            )
        return CompactEvidence("UnknownAtBound", reason="escape family did not certify")
    if verdict is Verdict.TRUE:
        used, limits = [], []
        for seq in declared_sequences(graph):
            if not all(t.contains(lam) for t in seq.terms()):
                continue
            res = pointwise_limit(seq, bound)
            if res.reason is not None or not res.limit.contains(lam):
                return CompactEvidence(
                    "UnknownAtBound",
                    family=seq.description,
                    reason=f"family in Z({lam}) has no filter limit in Z({lam}): {res.reason}",
                )
            used.append(seq.description)
            limits.append(str(res.limit))
        return CompactEvidence(
            "ConsistentWithCompact",
            family="; ".join(used) or None,
            limit=limits or None,
            reason="every declared family in the cylinder converges inside it",
        )
    return CompactEvidence("UnknownAtBound", reason="FA membership unknown at bound")


# -- property suites --------------------------------------------------------


def check_ps_characterisations_agree(graph: KGraph, bound: Degree) -> dict:
    """The defining predicate (x meets FA) and the strengthened one
    (every element of x extends into x cap FA) agree on every enumerated
    filter."""
    bad, checked = [], 0
    for x in enumerate_filters(graph, bound).filters:
        checked += 1
        # sorted, so the calls made before a short-circuit do not depend
        # on the hash order of x.elements
        elements = list(x)
        meets_fa = any(is_fa(m) is Verdict.TRUE for m in elements)
        strengthened = all(
            any(is_fa(k) is Verdict.TRUE and graph.prefix_leq(m, k) for k in elements)
            for m in elements
        )
        if meets_fa != strengthened:
            bad.append(str(x))
        if (ps_membership(x)[0] is Verdict.TRUE) != meets_fa:
            bad.append(f"verdict disagrees at {x}")
    return {"ok": not bad, "checked": checked, "counterexamples": bad[:3]}


def check_basis_property(graph: KGraph, bound: Degree) -> dict:
    """Basis check on the filter space: every filter inside Z(K1\\K2)
    with K1 nonempty sits inside some Z(mu\\K2) contained in it.  The
    containment Z(mu\\K2) inside Z(K1\\K2) is checked on every
    enumerated filter: for each K1, the filters through mu that miss part
    of K1 (none, on genuine filters) are found once per mu, and each
    triple reports those that avoid K2."""
    filters = enumerate_filters(graph, bound).filters
    morphs = graph.enumerate_morphisms(bound).morphisms
    singles = [(m,) for m in morphs]
    pairs = list(itertools.combinations(morphs, 2))
    k1s = singles + pairs
    k2s = [()] + singles
    containing: dict[Morphism, list[Filter]] = {}
    for y in filters:
        for m in y.elements:
            containing.setdefault(m, []).append(y)
    bad, checked = [], 0
    for K1 in k1s:
        leaks: dict[Morphism, list[Filter]] = {}
        for K2 in k2s:
            for x in filters:
                if not all(x.contains(m) for m in K1) or any(x.contains(m) for m in K2):
                    continue
                checked += 1
                mu = upper_bound_in(x, K1)
                if mu is None:
                    bad.append((K1, K2, x, "no directed upper bound"))
                    continue
                if any(q not in set(graph.prefixes(mu)) for q in K1):
                    bad.append((K1, K2, x, "K1 not below mu"))
                if mu not in leaks:
                    leaks[mu] = [
                        y for y in containing[mu] if not all(y.contains(m) for m in K1)
                    ]
                for y in leaks[mu]:
                    if not any(y.contains(m) for m in K2):
                        bad.append((K1, K2, y, "containment fails"))
    shown = [f"K1 = {_words(K1)}, K2 = {_words(K2)}, at {y}: {why}" for K1, K2, y, why in bad[:3]]
    return {"ok": not bad, "checked": checked, "counterexamples": shown}


def _words(ms) -> str:
    return "{" + ", ".join(map(str, ms)) + "}"


def upper_bound_in(x: Filter, K) -> Optional[Morphism]:
    """The first element of x, in sort order, above every element of K."""
    for mu in x.ordered:
        if all(x.graph.prefix_leq(q, mu) for q in K):
            return mu
    return None


def check_ps_open(graph: KGraph, bound: Degree) -> dict:
    """PS is open in F(Lambda): each x in PS owns a basic set Z(mu) with
    mu in FA that stays inside PS, verified over the enumeration."""
    all_f = enumerate_filters(graph, bound).filters
    ps = ps_filters(graph, bound).filters
    bad = []
    for x in ps:
        mu = fa_extension(x, graph.unit(x.range))
        if mu is None:
            bad.append(f"{x}: no FA witness")
            continue
        for y in all_f:
            if y.contains(mu) and not in_ps(y):
                bad.append(f"{x}: Z({mu}) leaves PS at {y}")
    return {"ok": not bad, "ps_size": len(ps), "counterexamples": bad[:3]}


def check_convergence_decisions(graph: KGraph, bound: Degree) -> dict:
    """Limit decisions match raw eventual membership on every declared
    family: in iff eventually inside, out iff eventually outside.

    The oracle recomputes per-term membership from scratch and reads the
    support pattern.  An element appearing only in the very last
    materialised term is undecidable at the bound and skipped.
    """
    bad, checked, skipped = [], 0, 0
    for seq in declared_sequences(graph):
        res = pointwise_limit(seq, bound)
        if res.outcome is not LimitOutcome.CONVERGES:
            bad.append((seq.description, "did not converge"))
            continue
        terms = seq.terms()
        n = len(terms)
        for m in res.probe:
            support = [i for i, t in enumerate(terms) if t.contains(m)]
            decision = res.decisions.get(str(m), "out")
            is_suffix = bool(support) and support == list(range(support[0], n))
            checked += 1
            if support == [n - 1]:
                skipped += 1  # boundary of the materialisation
            elif support and is_suffix:
                if decision != "in":
                    bad.append((seq.description, str(m), "eventually inside, not claimed in"))
            elif not support:
                if decision not in ("out", "undecided"):
                    bad.append((seq.description, str(m), "eventually outside, not claimed out"))
            elif support[-1] < n - 1:
                if decision != "out":
                    bad.append((seq.description, str(m), "eventually outside, not claimed out"))
            else:
                bad.append((seq.description, str(m), "oscillating support"))
    return {
        "ok": not bad,
        "checked": checked,
        "boundary_skipped": skipped,
        "counterexamples": [str(b) for b in bad[:3]],
    }
