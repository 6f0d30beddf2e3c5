"""Independent whole-structure oracles: re-derive the groupoid element
set and the triple class partition from first principles and compare
them with the library's enumerations."""

import importlib.util
import itertools
import pathlib
import random

import pytest

from pathgroupoids import alignment as al
from pathgroupoids import groupoid as gp
from pathgroupoids import pspace as ps
from pathgroupoids import spielberg as sp
from pathgroupoids.alignment import MceKind, MceResult
from pathgroupoids.catalog import (
    cycle,
    finite_examples,
    grid,
    lambda_tg,
    lambda_tg_infinity,
    lambda_yee,
    line,
    squares_graph,
)
from pathgroupoids.degree import Degree
from pathgroupoids.kgraph import Edge, KGraph, Morphism, Name, load_presentation
from test_kgraph import word_graph

B22 = Degree((2, 2))


def gen_document(size=(2, 2, 2, 1), seed=7) -> str:
    """The presentation document of a seeded twisted product from the
    benchmark's generator."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.twisted_product(*size, random.Random(seed))


def gen_product(size=(2, 2, 2, 1), seed=7):
    """A seeded twisted product from the benchmark's generator."""
    return load_presentation(gen_document(size, seed))


TABLE_GRAPHS = {
    "line": lambda: line(3),
    "grid": grid,
    "squares": squares_graph,
    "cycle": lambda: cycle(3),
    "product": gen_product,
    "tg": lambda: lambda_tg(2),
}


@pytest.mark.parametrize("name", sorted(TABLE_GRAPHS))
def test_composition_table_matches_compose_elements(name):
    """Every composable pair of the fragment's elements has a cell, and
    the cell is the composite that `compose_elements` gives for the pair.
    On graphs with an FA certificate, iso_check's composable class pairs
    are exactly axiom_suite's composable pairs of span elements."""
    graph = TABLE_GRAPHS[name]()
    bound = B22 if graph.rank == 2 else Degree((3,))
    frag = gp.fragment(graph, bound)
    elements, closure, rows = frag.elements, frag.closure, frag.rows
    assert gp.enumerate_pg(graph, bound) is elements
    assert closure[: len(elements)] == elements
    composable = [
        (i, j) for i, g in enumerate(closure) for j, h in enumerate(closure) if g.y == h.x
    ]
    assert len(rows) == len(closure)
    cells = {(i, j): c for i, row in enumerate(rows) for j, c in row.items()}
    assert sorted(cells) == composable
    for (i, j), c in cells.items():
        assert closure[c] == gp.compose_elements(closure[i], closure[j]), (i, j)
    pairs = gp.axiom_suite(graph, bound)["composable_pairs"]
    assert pairs == sum(i < len(elements) and j < len(elements) for i, j in composable)
    if name == "tg":  # no FA certificate
        with pytest.raises(sp.UnsupportedDomainError):
            sp.iso_check(graph, bound)
    else:
        assert sp.iso_check(graph, bound)["composition_pairs"] == pairs


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
    triples = gp.fragment(graph, Degree((1, 1))).spans
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
        canonical.setdefault(sp.canonical_triple(t), set()).add(i)
    assert set(map(frozenset, brute.values())) == set(map(frozenset, canonical.values()))
    assert len(brute) == 100


def test_phi_respects_the_brute_partition():
    graph = squares_graph()
    triples = gp.fragment(graph, Degree((1, 1))).spans
    images = {}
    for t in triples:
        images.setdefault(sp.canonical_triple(t), set()).add(sp.phi(t))
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


# -- factorisation against the brute-force search ---------------------------


def census_presentations():
    """(edges, squares) for every rank-2 graph on two vertices with at
    most two edges of each colour and every partial square bijection,
    one per isomorphism class.  An edge is (colour, source, range) over
    the vertices 0 and 1; a square pairs a descending and an ascending
    path, each given by its two edge indices.  Rank 2 needs no
    associativity check, so every such table presents a word category."""
    ends = [(s, r) for s in (0, 1) for r in (0, 1)]
    per_colour = [c for k in range(3) for c in itertools.combinations_with_replacement(ends, k)]
    classes = {}
    for ones, twos in itertools.product(per_colour, repeat=2):
        edges = [(1, s, r) for s, r in ones] + [(2, s, r) for s, r in twos]
        paths = [
            (i, j)
            for i, j in itertools.permutations(range(len(edges)), 2)
            if edges[i][1] == edges[j][2] and edges[i][0] != edges[j][0]
        ]
        for squares in _square_tables(edges, paths):
            classes.setdefault(_census_key(edges, squares), (edges, squares))
    return list(classes.values())


def _square_tables(edges, paths):
    """Every partial bijection between the descending and the ascending
    paths that pairs paths with the same range and source."""
    ends = {(i, j): (edges[i][2], edges[j][1]) for i, j in paths}
    descending = [p for p in paths if edges[p[0]][0] == 2]
    ascending = [p for p in paths if edges[p[0]][0] == 1]

    def tables(k, free):
        if k == len(descending):
            yield ()
            return
        d = descending[k]
        yield from tables(k + 1, free)
        for a in free:
            if ends[a] == ends[d]:
                for rest in tables(k + 1, free - {a}):
                    yield ((d, a),) + rest

    return tables(0, frozenset(ascending))


def _census_key(edges, squares):
    """The least relabelling of a census presentation over the vertex
    swaps and the orders of the edges that keep colour 1 first."""
    keys = []
    for vertex in itertools.permutations((0, 1)):
        for order in itertools.permutations(range(len(edges))):
            if [edges[i][0] for i in order] != sorted(e[0] for e in edges):
                continue
            at = {old: new for new, old in enumerate(order)}
            relabelled = tuple((c, vertex[s], vertex[r]) for c, s, r in (edges[i] for i in order))
            table = sorted(tuple(tuple(at[i] for i in path) for path in sq) for sq in squares)
            keys.append((relabelled, tuple(table)))
    return min(keys)


def census_graph(edges, squares):
    names = [Name(f"e{i}") for i in range(len(edges))]
    x, y = Name("x"), Name("y")
    return KGraph(
        "census",
        2,
        [x, y],
        [Edge(names[i], c, (x, y)[s], (x, y)[r]) for i, (c, s, r) in enumerate(edges)],
        [tuple(tuple(names[i] for i in path) for path in sq) for sq in squares],
        expect_complete=False,
    )


def searched_factorisations(graph, bound):
    """(lam, p) -> every (mu, nu) with mu.nu = lam and d(mu) = p, by a
    search over the fibers and compose: the factorisation algorithm that
    the engine does not use."""
    found = {}
    for mu in graph.enumerate_morphisms(bound).morphisms:
        for q in bound.sub(mu.degree).downset():
            for nu in graph.fiber(mu.source, q).elements:
                found.setdefault((graph.compose(mu, nu), mu.degree), []).append((mu, nu))
    return found


def assert_factorisation_matches_the_search(graph, bound):
    """Every (lam, p) with p <= d(lam) <= bound: the search finds exactly
    the engine's factorisation, or nothing when the engine has none.
    Returns the number of pairs checked and of pairs without one."""
    searched = searched_factorisations(graph, bound)
    pairs = missing = 0
    for lam in graph.enumerate_morphisms(bound).morphisms:
        for p in lam.degree.downset():
            found = graph._factorization(lam, p)
            want = [] if found is None else [found]
            assert searched.get((lam, p), []) == want, (str(lam), p.coords)
            pairs += 1
            missing += found is None
    return pairs, missing


def test_census_factorisations_match_the_search():
    """Pulling through the squares finds every factorisation that exists,
    on every 2-vertex census graph at (2, 2): complete and incomplete
    square tables alike."""
    presentations = census_presentations()
    assert len(presentations) == 260
    pairs = missing = 0
    for edges, squares in presentations:
        checked = assert_factorisation_matches_the_search(census_graph(edges, squares), B22)
        pairs, missing = pairs + checked[0], missing + checked[1]
    assert (pairs, missing) == (63877, 16884)


@pytest.mark.parametrize(
    "blocks, cutoff, bound", [(2, 3, (2, 2)), (3, 2, (3, 3))], ids=["2-3-b22", "3-2-b33"]
)
def test_tg_infinity_factorisations_match_the_search(blocks, cutoff, bound):
    graph = lambda_tg_infinity(blocks, cutoff)
    pairs, missing = assert_factorisation_matches_the_search(graph, Degree(bound))
    assert missing > 0


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


# -- the row kernel against the per-pair mce ---------------------------------


def per_pair_mce(mu, nu):
    """mce one pair at a time, with a prefix test per extension: mu's
    fiber at lub(d(mu), d(nu)), then nu's if mu's is inexact, then the
    annotations."""
    graph = mu.graph
    if mu.range != nu.range:
        return MceResult(MceKind.EXACT_FINITE, ())
    l = mu.degree.lub(nu.degree)

    def side(a, b):
        fib = graph.fiber(a.source, l.sub(a.degree))
        exts = (graph.compose(a, kappa) for kappa in fib.elements)
        return {ext for ext in exts if graph.prefix_leq(b, ext)}, fib.exact

    mu_side, mu_exact = side(mu, nu)
    if mu_exact:
        return MceResult(MceKind.EXACT_FINITE, tuple(sorted(mu_side, key=Morphism.sort_key)))
    nu_side, nu_exact = side(nu, mu)
    if nu_exact:
        return MceResult(MceKind.EXACT_FINITE, tuple(sorted(nu_side, key=Morphism.sort_key)))
    elements = tuple(sorted(mu_side | nu_side, key=Morphism.sort_key))
    family = graph.annotations and graph.annotations.declared_mce(mu, nu)
    if family:
        assert tuple(sorted(set(family.members()), key=Morphism.sort_key)) == elements
        return MceResult(MceKind.DECLARED_INFINITE, elements, family.description)
    return MceResult(MceKind.TRUNCATED_UNKNOWN, elements)


MCE_GRAPHS = {
    **{g.name: (lambda g=g: g) for g in finite_examples()},
    "product": gen_product,
    "yee": lambda: lambda_yee(3),
    "tg": lambda: lambda_tg(3),
    "tg-infinity": lambda: lambda_tg_infinity(2, 3),
    "word": word_graph,
}


@pytest.mark.parametrize("name", sorted(MCE_GRAPHS))
def test_row_kernel_matches_the_per_pair_mce(name, monkeypatch):
    """Kind, elements and family agree pair by pair, for whole rows and
    for single pairs.  The kernel never tests a prefix: an extension
    without a degree-p prefix, which only the word categories have, lies
    above no nu of degree p."""
    graph = MCE_GRAPHS[name]()
    morphs = graph.enumerate_morphisms(B22 if graph.rank == 2 else Degree((3,))).morphisms
    prefix_tests = []
    prefix_leq = KGraph.prefix_leq
    monkeypatch.setattr(
        KGraph, "prefix_leq", lambda *args: prefix_tests.append(1) or prefix_leq(*args)
    )
    for mu in morphs:
        row = al._mce_row(mu, morphs)
        for nu in morphs:
            before = len(prefix_tests)
            got = next(row)
            assert len(prefix_tests) == before, (str(mu), str(nu))
            want = per_pair_mce(mu, nu)
            assert got == want, (str(mu), str(nu))
            assert al.mce(mu, nu) == want, (str(mu), str(nu))


FA_EXTENSION_GRAPHS = [*finite_examples(), lambda_tg(3), lambda_yee(3)]


def _bound(graph):
    return B22 if graph.rank == 2 else Degree((3,))


@pytest.mark.parametrize("graph", FA_EXTENSION_GRAPHS, ids=lambda g: g.name)
def test_fa_extension_is_the_first_fa_element_above(graph):
    """fa_extension(x, lam) is the first, in sort order, of the brute-force
    set {m in x : lam <= m, m in FA}, and None when that set is empty."""
    empty = 0
    for x in ps.enumerate_filters(graph, _bound(graph)).filters:
        for lam in x.elements:
            above = [
                m
                for m in x.elements
                if lam in graph.prefixes(m) and al.is_fa(m) is al.Verdict.TRUE
            ]
            expected = min(above, key=Morphism.sort_key) if above else None
            empty += expected is None
            assert ps.fa_extension(x, lam) == expected, (str(x), str(lam))
    assert graph.is_finite or empty


@pytest.mark.parametrize("graph", FA_EXTENSION_GRAPHS, ids=lambda g: g.name)
def test_principal_filter_top_is_its_generator(graph):
    for m in graph.enumerate_morphisms(_bound(graph)).morphisms:
        assert ps.principal(m).top() == m
