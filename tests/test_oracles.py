"""Independent whole-structure oracles: re-derive the groupoid element
set and the triple class partition from first principles and compare
them with the library's enumerations."""

import itertools

from pathgroupoids import alignment as al
from pathgroupoids import groupoid as gp
from pathgroupoids import pspace as ps
from pathgroupoids import spielberg as sp
from pathgroupoids.catalog import finite_examples, grid, lambda_tg, squares_graph
from pathgroupoids.degree import Degree
from pathgroupoids.kgraph import Morphism

B22 = Degree((2, 2))


def brute_ideal_intersection(graph, mu, nu):
    """mu.Lambda intersect nu.Lambda by exhaustive scan (finite graphs)."""
    out = [
        m
        for m in graph.all_morphisms()
        if graph.prefix_leq(mu, m) and graph.prefix_leq(nu, m)
    ]
    return sorted(out, key=Morphism.sort_key)


def brute_union_of_ideals(graph, gens):
    """The union of the ideals g.Lambda, g in gens, by exhaustive scan."""
    out = {
        m
        for m in graph.all_morphisms()
        if any(graph.prefix_leq(g, m) for g in gens)
    }
    return sorted(out, key=Morphism.sort_key)


def pair_oracle_elements(graph, bound):
    """Over principal filters, an element is exactly a source-matched
    pair (A, B) of path-space principal filters: the unit at the shared
    source is always a common refinement, and q is forced to
    d(A) - d(B).  Computed here without touching the groupoid module."""
    morphs = graph.enumerate_morphisms(bound).morphisms
    allowed = [m for m in morphs if ps.in_ps(ps.principal(m))]
    out = set()
    for a, b in itertools.product(allowed, allowed):
        if a.source != b.source:
            continue
        out.add(
            (
                ps.principal(a).elements,
                a.degree.minus(b.degree),
                ps.principal(b).elements,
            )
        )
    return out


def test_pg_elements_match_pair_oracle_on_grid_and_tg():
    for graph, expected_count in ((grid(2), 196), (lambda_tg(3), 102)):
        oracle = pair_oracle_elements(graph, B22)
        got = {
            (g.x.elements, g.q, g.y.elements) for g in gp.enumerate_pg(graph, B22)
        }
        assert got == oracle
        assert len(got) == expected_count


def test_pg_elements_match_pair_oracle_on_squares():
    graph = squares_graph()
    oracle = pair_oracle_elements(graph, B22)
    got = {(g.x.elements, g.q, g.y.elements) for g in gp.enumerate_pg(graph, B22)}
    assert got == oracle
    assert len(got) == 100


def test_triple_classes_match_full_pairwise_partition():
    """The canonical-form partition of triples agrees with the partition
    computed by exhaustive pairwise equivalence searches."""
    graph = squares_graph()
    triples = sp.enumerate_triples(graph, Degree((1, 1)))
    # union-find over explicit pairwise searches
    parent = list(range(len(triples)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(triples)), 2):
        if find(i) != find(j) and sp.triple_equiv(triples[i], triples[j])[0]:
            parent[find(i)] = find(j)

    brute = {}
    for i, t in enumerate(triples):
        brute.setdefault(find(i), set()).add(i)
    canonical = {}
    for i, t in enumerate(triples):
        canonical.setdefault(sp.canonical_triple(t).sort_key(), set()).add(i)
    assert set(map(frozenset, brute.values())) == set(map(frozenset, canonical.values()))
    assert len(brute) == 100


def test_phi_respects_the_brute_partition():
    graph = squares_graph()
    triples = sp.enumerate_triples(graph, Degree((1, 1)))
    images = {}
    for t in triples:
        images.setdefault(sp.canonical_triple(t).sort_key(), set()).add(sp.phi(t))
    # one image per class, all images distinct
    assert all(len(v) == 1 for v in images.values())
    flat = [next(iter(v)) for v in images.values()]
    assert len(set(flat)) == len(flat)


def growth_oracle_fa(graph_maker, element_name, small, large, bound):
    """Annotation-free oracle for membership of the finitely aligned
    part: compare the common-extension counts of every pair rooted at
    the element across two materialisation cutoffs.  A pair whose count
    grows with the cutoff witnesses failure; stable counts everywhere
    are consistent with membership."""
    counts = {}
    for cutoff in (small, large):
        g = graph_maker(cutoff)
        lam = g.morphism(element_name)
        pairs = {}
        for mu in g.right_ideal(lam, bound):
            for nu in g.enumerate_morphisms(bound).morphisms:
                if nu.range != lam.range:
                    continue
                l = mu.degree.lub(nu.degree)
                exts = {
                    g.compose(mu, k)
                    for k in g.fiber(mu.source, l.sub(mu.degree)).elements
                    if g.prefix_leq(nu, g.compose(mu, k))
                } | {
                    g.compose(nu, k)
                    for k in g.fiber(nu.source, l.sub(nu.degree)).elements
                    if g.prefix_leq(mu, g.compose(nu, k))
                }
                pairs[(str(mu), str(nu))] = len(exts)
        counts[cutoff] = pairs
    grew = [
        pair
        for pair, n in counts[large].items()
        if pair in counts[small] and n > counts[small][pair]
    ]
    return grew


def test_fa_verdicts_agree_with_cutoff_growth_oracle():
    """The annotation-backed verdicts match an annotation-free oracle:
    pairs rooted at non-members keep acquiring common extensions as the
    materialisation grows; pairs rooted at members do not."""
    for name in ("lambda", "mu", "v"):
        assert growth_oracle_fa(lambda_tg, name, 3, 6, B22), name
    for name in ("t", "u", "w", "alpha[1]", "beta[1]", "mu.beta[1]"):
        assert not growth_oracle_fa(lambda_tg, name, 3, 6, B22), name
    # and the library's verdicts line up
    g = lambda_tg(3)
    for name in ("lambda", "mu", "v"):
        assert al.fa_at(g.morphism(name), B22).value is al.Verdict.FALSE
    for name in ("t", "u", "w", "alpha[1]", "beta[1]", "mu.beta[1]"):
        assert al.fa_at(g.morphism(name), B22).value is al.Verdict.TRUE


def test_fa_growth_oracle_on_yee():
    from pathgroupoids.catalog import lambda_yee

    b11 = Degree((1, 1))
    for name in ("lambda", "mu[1]", "v"):
        assert growth_oracle_fa(lambda_yee, name, 2, 4, b11), name
    for name in ("w", "t[1]", "u[1,1]", "alpha[1,1]", "lambda.alpha[1,1]"):
        assert not growth_oracle_fa(lambda_yee, name, 2, 4, b11), name


def test_factorize_pull_and_search_agree():
    """Dual-route check on the two factorisation algorithms: the square
    rewriting pull and the enumeration search must agree on every
    (morphism, degree) pair of the finite graphs."""
    for graph in (grid(2), squares_graph()):
        for lam in graph.all_morphisms():
            for p in lam.degree.downset():
                if p.is_zero() or p == lam.degree:
                    continue  # trivial splits are handled before dispatch
                by_pull = graph._factor_by_pulling(lam, p)
                by_search = graph._factor_by_search(lam, p)
                assert by_search == [by_pull]


def by_range(graph, bound):
    """The bounded enumeration split into the sets vLambda."""
    out = {}
    for m in graph.enumerate_morphisms(bound).morphisms:
        out.setdefault(m.range, []).append(m)
    return out


def brute_filters_by_range(graph, bound):
    """Powerset oracle for filters over the bounded enumeration.  A filter
    is directed, so its elements share one range vertex; the powerset is
    therefore taken over each vLambda separately."""
    out = set()
    for morphs in by_range(graph, bound).values():
        for r in range(1, len(morphs) + 1):
            for combo in itertools.combinations(morphs, r):
                candidate = set(combo)
                if not all(set(graph.prefixes(m)) <= candidate for m in candidate):
                    continue
                if not all(
                    any(graph.prefix_leq(a, c) and graph.prefix_leq(b, c) for c in candidate)
                    for a in candidate
                    for b in candidate
                ):
                    continue
                out.add(frozenset(candidate))
    return out


def exhaustive_sets(graph, bound, judge):
    """For each vertex v, every subset E of vLambda (over the bounded
    enumeration of `graph`) that is exhaustive: each gamma in vLambda
    has a common extension with some member of E.  Exhaustiveness is
    judged in `judge`, a materialisation of the same graph carrying at
    least the names of `graph`, so a larger cutoff keeps a finite family
    of edges from passing as exhaustive.  A minimal common extension
    has degree d(gamma) v d(lambda), so searching below the bound is
    exact."""
    judged = by_range(judge, bound)
    out = {}
    for v, morphs in by_range(graph, bound).items():
        targets = judged[judge.vertex(str(v))]
        meets = {}
        for lam in morphs:
            big = judge.morphism(str(lam))
            meets[lam] = frozenset(
                gamma
                for gamma in targets
                if any(
                    judge.prefix_leq(gamma, rho) and judge.prefix_leq(big, rho)
                    for rho in targets
                )
            )
        out[v] = [
            combo
            for r in range(1, len(morphs) + 1)
            for combo in itertools.combinations(morphs, r)
            if frozenset().union(*(meets[lam] for lam in combo)) == frozenset(targets)
        ]
    return out


def tight_filter_oracle(graph, bound, in_fa, judge=None):
    """Annotation-free boundary-path space: the tight filters that meet
    FA (Exel, Bull. Braz. Math. Soc. 2008).  A filter x is tight when for
    every mu in x and every finite exhaustive E in s(mu)Lambda some
    lambda in E has mu.lambda in x.  Built from the powerset filters,
    prefixes, the prefix order, composition and the FA predicate
    `in_fa`; exhaustiveness is judged in `judge` (default: `graph`)."""
    exhaustive = exhaustive_sets(graph, bound, graph if judge is None else judge)
    tight = set()
    for x in brute_filters_by_range(graph, bound):
        if all(
            any(graph.compose(mu, lam) in x for lam in e)
            for mu in x
            for e in exhaustive[mu.source]
        ):
            tight.add(x)
    return {x for x in tight if any(in_fa(m) for m in x)}


def _names(x):
    return frozenset(str(m) for m in x)


def tg_fa_by_growth(m):
    return not growth_oracle_fa(lambda_tg, str(m), 3, 6, B22)


def test_bps_tg_agrees_with_tight_filter_oracle():
    """Tight filters of tg at cutoff 3, with exhaustiveness judged at
    cutoff 6: the vertex limits {t} and {w} are tight (every exhaustive
    subset of tLambda or wLambda holds the vertex), {v} and its one-edge
    extensions are not ({lambda} and {mu} are exhaustive at v)."""
    g = lambda_tg(3)
    oracle = tight_filter_oracle(g, B22, tg_fa_by_growth, judge=lambda_tg(6))
    got = {x.elements for x in ps.bps_enumerate(g, B22).filters}
    assert oracle == got
    assert len(oracle) == 12
    assert {"t"} in map(_names, oracle) and {"w"} in map(_names, oracle)
    assert not any(_names(x) <= {"v", "mu", "lambda"} for x in oracle)


def test_bps_finite_graphs_agree_with_tight_filter_oracle():
    """On a finite graph the tight filters are exactly the ultrafilters."""
    for g in finite_examples():
        bound = B22 if g.rank == 2 else Degree((3,))
        assert set(g.enumerate_morphisms(bound).morphisms) == set(g.all_morphisms())
        oracle = tight_filter_oracle(
            g, bound, lambda m: al.fa_at(m, bound).value is al.Verdict.TRUE
        )
        filters = brute_filters_by_range(g, bound)
        assert oracle == {x for x in filters if not any(x < y for y in filters)}, g.name
        assert oracle == {x.elements for x in ps.bps_enumerate(g, bound).filters}, g.name


def test_tight_filter_oracle_is_invariant_and_old_identity_is_not():
    """Invariance checked directly over enumerate_pg: a source in the
    oracle's set forces the range into it.  The formerly asserted
    identity {{u}} u {principal(mu.beta[n])} fails this, for instance
    at ({t, beta[1]}, (1,0), {u})."""
    g = lambda_tg(3)
    oracle = tight_filter_oracle(g, B22, tg_fa_by_growth, judge=lambda_tg(6))
    elements = gp.enumerate_pg(g, B22)
    assert not [e for e in elements if e.y.elements in oracle and e.x.elements not in oracle]
    old = {frozenset({g.morphism("u")})} | {
        ps.principal(g.morphism(f"mu.beta[{n}]")).elements for n in (1, 2, 3)
    }
    escapes = {
        (str(e.x), e.q, str(e.y))
        for e in elements
        if e.y.elements in old and e.x.elements not in old
    }
    assert ("{t, beta[1]}", (1, 0), "{u}") in escapes
    assert len(escapes) == 24 and len(elements) == 102
