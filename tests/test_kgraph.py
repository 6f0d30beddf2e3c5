import collections
import random
import re

import pytest

from pathgroupoids.catalog import (
    finite_examples,
    grid,
    lambda_tg,
    lambda_tg_infinity,
    line,
    squares_graph,
)
from pathgroupoids.degree import Degree
from pathgroupoids.kgraph import (
    ComposabilityError,
    Edge,
    FactorizationError,
    KGraph,
    KGraphError,
    Morphism,
    Name,
    PresentationError,
    load_presentation,
    parse_name,
)

TG_DOC = """
vertices: t u v w
edges:
  lambda 1 w -> v
  mu     2 t -> v
  beta[n]  1 u -> t
  alpha[n] 2 u -> w
squares:
  mu.beta[n] = lambda.alpha[n]
"""


def test_parse_name():
    assert parse_name("alpha[1,2]") == Name("alpha", (1, 2))
    assert str(Name("alpha", (1, 2))) == "alpha[1,2]"
    with pytest.raises(PresentationError):
        parse_name("bad[")


def test_load_tg_presentation_matches_catalog():
    user = load_presentation(TG_DOC, cutoff=3)
    cat = lambda_tg(3)
    for g in (user, cat):
        assert len(g.vertices) == 4
        assert len(g.edges) == 8
        assert len(g.squares) == 3
    b = Degree((2, 2))
    assert [str(m) for m in user.enumerate_morphisms(b).morphisms] == [
        str(m) for m in cat.enumerate_morphisms(b).morphisms
    ]


def test_single_vertex_presentation():
    g = load_presentation("vertices: v")
    assert g.is_finite
    assert [str(m) for m in g.all_morphisms()] == ["v"]


def test_rank1_bouquet_presentation():
    # one vertex, an N-indexed family of loops: infinite, no squares
    g = load_presentation("vertices: v\nedges:\n  e[n] 1 v -> v\n", cutoff=2)
    assert g.rank == 1 and not g.is_finite
    res = g.fiber(g.vertex("v"), Degree((1,)))
    assert [str(m) for m in res.elements] == ["e[1]", "e[2]"] and not res.exact
    two = g.compose(g.morphism("e[1]"), g.morphism("e[2]"))
    assert str(two) == "e[1].e[2]" and two.degree == Degree((2,))
    assert g.factorize(two, Degree((1,)))[0] == g.morphism("e[1]")


@pytest.mark.parametrize("doc", ["vertices: v", "vertices: v\nedges:\n  e[n] 1 v -> v\n"])
def test_presentation_cutoff_below_one_is_rejected(doc):
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        load_presentation(doc, cutoff=0)


def test_ambiguous_square_rejected():
    doc = TG_DOC + "\n  mu.beta[n] = lambda.alpha[n]\n"
    with pytest.raises(PresentationError, match="factorisation property violated"):
        load_presentation(doc)


def test_incomplete_squares_rejected():
    doc = """
vertices: a b c d
edges:
  e 1 b -> a
  f 2 c -> b
"""
    # e.f is a composable bicolored path with no square
    with pytest.raises(PresentationError, match="factorisation property violated") as exc:
        load_presentation(doc)
    assert str(exc.value).endswith("bicolored path not in any square (witness: e.f)")


def test_square_witness_is_spelled_as_in_the_document():
    doc = """
vertices: a b c x y
edges:
  e 1 b -> a
  f 2 c -> b
  h 2 x -> a
  k 1 y -> x
squares:
  h.k = e.f
"""
    with pytest.raises(PresentationError) as exc:
        load_presentation(doc)
    assert str(exc.value) == (
        "line 9: square sides do not share range and source (witness: h.k = e.f)"
    )


def test_dangling_vertex_rejected():
    doc = "vertices: a\nedges:\n  e 1 a -> nowhere\n"
    with pytest.raises(PresentationError):
        load_presentation(doc)


def test_duplicate_edge_rejected():
    doc = "vertices: a b\nedges:\n  e 1 b -> a\n  e 1 b -> a\n"
    with pytest.raises(PresentationError, match="duplicate"):
        load_presentation(doc)


# names in a document: vertices, edges, families and section words
_DOC_NAME = re.compile(r"[A-Za-z_]\w*(?:\[[^\]]*\])?")


def _mutate(doc: str, rng: random.Random) -> str:
    """One seeded edit of a document: a name replaced by another name of
    the document, a colour replaced by a digit from 0 to 3, or a line
    deleted, duplicated or moved."""
    lines = doc.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        spots = list(_DOC_NAME.finditer(lines[i]))
        if spots:
            m = rng.choice(spots)
            name = rng.choice(_DOC_NAME.findall(doc))
            lines[i] = lines[i][: m.start()] + name + lines[i][m.end() :]
    elif kind == 1:
        lines[i] = re.sub(r"\b\d\b", str(rng.randrange(4)), lines[i], count=1)
    elif kind == 2:
        del lines[i]
    elif kind == 3:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    else:
        lines.insert(rng.randrange(len(lines)), lines.pop(i))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", ["tg", "gen_2_2_2_1_seed7", "gen_1_2_1_2_seed11"])
def test_every_malformed_document_names_its_line(source):
    """Seeded mutations of a valid document: whatever load_presentation
    refuses, it refuses with a PresentationError that carries the line at
    fault, the errors of the graph built from the document included."""
    from test_oracles import gen_document  # test_oracles imports this module

    doc = {
        "tg": TG_DOC,
        "gen_2_2_2_1_seed7": gen_document((2, 2, 2, 1), 7),
        "gen_1_2_1_2_seed11": gen_document((1, 2, 1, 2), 11),
    }[source]
    rng = random.Random(0)
    kinds = collections.Counter()
    for _ in range(400):
        text = doc
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        try:
            load_presentation(text, cutoff=2)
        except PresentationError as exc:
            assert exc.line is not None, (str(exc), text)
            kinds[exc.at is not None] += 1
    # both the parser and the graph's construction refuse some
    assert kinds[True] > 50 and kinds[False] > 50, kinds


# -- composition and factorisation -----------------------------------------


def test_compose_square_relation():
    g = lambda_tg(2)
    mu, lam = g.morphism("mu"), g.morphism("lambda")
    b1, a1 = g.morphism("beta[1]"), g.morphism("alpha[1]")
    assert g.compose(mu, b1) == g.compose(lam, a1)
    assert str(g.compose(mu, b1)) == "lambda.alpha[1]"


def test_compose_unit_laws():
    g = lambda_tg(2)
    lam = g.morphism("lambda")
    assert g.compose(g.unit(lam.range), lam) == lam
    assert g.compose(lam, g.unit(lam.source)) == lam


def test_compose_two_color1_edges_in_grid_is_plain_concatenation():
    gr = grid(2)
    h00, h10 = gr.morphism("h[0,0]"), gr.morphism("h[1,0]")
    two = gr.compose(h00, h10)
    assert two.word == (Name("h", (0, 0)), Name("h", (1, 0)))
    assert two.degree == Degree((2, 0))


def test_compose_rejects_mismatched_endpoints():
    g = lambda_tg(2)
    with pytest.raises(ComposabilityError):
        g.compose(g.morphism("lambda"), g.morphism("beta[1]"))


def test_factorize_examples():
    g = lambda_tg(2)
    mb1 = g.morphism("mu.beta[1]")
    mu_part, b_part = g.factorize(mb1, Degree((0, 1)))
    assert (str(mu_part), str(b_part)) == ("mu", "beta[1]")
    lam_part, a_part = g.factorize(mb1, Degree((1, 0)))
    assert (str(lam_part), str(a_part)) == ("lambda", "alpha[1]")
    unit_part, whole = g.factorize(mb1, Degree((0, 0)))
    assert unit_part == g.unit(mb1.range) and whole == mb1


def test_factorize_out_of_range_degree():
    g = lambda_tg(2)
    with pytest.raises(FactorizationError):
        g.factorize(g.morphism("lambda"), Degree((0, 1)))


def test_prefix_order_examples():
    g = lambda_tg(2)
    lam, mb1 = g.morphism("lambda"), g.morphism("mu.beta[1]")
    assert g.prefix_leq(lam, mb1)
    assert g.prefix_leq(lam, lam)
    # alpha[1] is a final segment of lambda.alpha[1], not a prefix
    assert not g.prefix_leq(g.morphism("alpha[1]"), mb1)


@pytest.mark.parametrize(
    "graph",
    finite_examples() + [lambda_tg(3), lambda_tg_infinity(2, 2)],
    ids=lambda g: g.name,
)
def test_tail_matches_brute_force_over_the_fiber(graph):
    """tail(mu, lam) is the one nu in the fiber below s(mu) with
    mu.nu = lam, or None when the fiber has none, and prefix_leq is its
    existence."""
    morphs = _bounded(graph)
    failures = 0
    for mu in morphs:
        for lam in morphs:
            tail = graph.tail(mu, lam)
            assert graph.prefix_leq(mu, lam) == (tail is not None)
            if not mu.degree.leq(lam.degree):
                assert tail is None
                continue
            try:
                graph.factorize(lam, mu.degree)
            except FactorizationError:
                failures += 1
            fiber = graph.fiber(mu.source, lam.degree.sub(mu.degree)).elements
            brute = [nu for nu in fiber if graph.compose(mu, nu) == lam]
            assert brute == ([] if tail is None else [tail]), (str(mu), str(lam))
    # only the word category has morphisms without a prefix at some degree
    assert (failures > 0) == (graph.name == "tg-infinity")


def _no_call(*args):
    raise AssertionError(f"unexpected call with {args}")


def test_factorize_failures_are_cached(monkeypatch):
    """A failed factorisation is remembered: a second pass over the
    failing pairs of the word category neither pulls again, nor composes,
    nor scans a fiber."""
    graph = lambda_tg_infinity(2, 2)
    morphs = _bounded(graph)
    failing = []
    for mu in morphs:
        for lam in morphs:
            if mu.degree.leq(lam.degree):
                try:
                    graph.factorize(lam, mu.degree)
                except FactorizationError:
                    failing.append((mu, lam))
    assert len(failing) == 96
    for name in ("_factor_by_pulling", "compose", "fiber"):
        monkeypatch.setattr(graph, name, _no_call)
    for mu, lam in failing:
        with pytest.raises(FactorizationError, match="no factorisation"):
            graph.factorize(lam, mu.degree)
        assert graph.tail(mu, lam) is None


def word_graph():
    """A word category with the bicolored paths a.b and c.d in no square."""
    n = {s: Name(s) for s in ("x", "y", "z", "p", "q", "a", "b", "c", "d")}
    edges = [
        Edge(n["a"], 2, n["y"], n["x"]),
        Edge(n["b"], 1, n["z"], n["y"]),
        Edge(n["c"], 1, n["p"], n["x"]),
        Edge(n["d"], 2, n["q"], n["p"]),
    ]
    return KGraph("word", 2, [n[v] for v in "xyzpq"], edges, expect_complete=False)


def test_prefix_leq_reads_a_failed_factorisation(monkeypatch):
    """In the word category, c of color 1 shares the range of a.b but is
    no prefix of it: b cannot be pulled across a, and that failed pull
    alone decides it, without composing or scanning a fiber."""
    graph = word_graph()
    ab, c = graph.morphism("a.b"), graph.morphism("c")
    with pytest.raises(FactorizationError, match="no factorisation"):
        graph.factorize(ab, c.degree)
    monkeypatch.setattr(graph, "compose", _no_call)
    monkeypatch.setattr(graph, "fiber", _no_call)
    assert graph.tail(c, ab) is None
    assert not graph.prefix_leq(c, ab)


def _word_calls(graph, bound, foreign):
    """(memoised KGraph method, arguments) over the bounded enumeration,
    with the domain errors: pairs that do not compose, a morphism of
    another graph, and an unknown vertex."""
    morphs = graph.enumerate_morphisms(bound).morphisms
    for lam in morphs:
        yield KGraph.prefixes, (graph, lam)
        for p in lam.degree.downset():
            yield KGraph._factorization, (graph, lam, p)
        for nu in morphs:
            yield KGraph.compose, (graph, lam, nu)
        yield KGraph.compose, (graph, lam, foreign)
    for v in graph.vertices:
        for p in bound.downset():
            yield KGraph.fiber, (graph, v, p)
    yield KGraph.fiber, (graph, Name("nowhere"), Degree.zero(graph.rank))


@pytest.mark.parametrize(
    "maker",
    [lambda: line(3), lambda: grid(2), squares_graph, lambda: lambda_tg(3),
     lambda: lambda_tg_infinity(2, 2)],
    ids=["line", "grid", "squares", "tg", "tg-infinity"],
)
def test_word_memo_agrees_with_the_unmemoised_methods(maker):
    """compose, fiber, prefixes and _factorization each equal a fresh
    computation and share their value on a repeat call; a domain error
    is never cached and raises every time, as does factorize on a
    remembered failed factorisation."""
    graph = maker()
    foreign = maker().edge_morphism(sorted(graph.edges)[0])
    returned, raised = collections.Counter(), collections.Counter()
    for memoised, args in _word_calls(graph, Degree((2,) * graph.rank), foreign):
        name = memoised.__name__
        try:
            want = memoised.__wrapped__(*args)
        except KGraphError as exc:
            for _ in range(2):
                with pytest.raises(type(exc)):
                    memoised(*args)
            raised[name] += 1
            continue
        got = memoised(*args)
        assert got == want, (name, [str(a) for a in args[1:]])
        assert memoised(*args) is got
        returned[name] += 1
        if got is None and name == "_factorization":
            for _ in range(2):
                with pytest.raises(FactorizationError):
                    graph.factorize(*args[1:])
            raised["factorize"] += 1
    assert set(returned) == {"compose", "fiber", "prefixes", "_factorization"}
    assert raised["compose"] and raised["fiber"]
    assert bool(raised["factorize"]) == (graph.name == "tg-infinity")


# -- fibers and enumeration --------------------------------------------------


def test_fiber_examples():
    g = lambda_tg(3)
    t, v, w = g.vertex("t"), g.vertex("v"), g.vertex("w")
    res = g.fiber(v, Degree((1, 1)))
    assert [str(m) for m in res.elements] == [
        "lambda.alpha[1]", "lambda.alpha[2]", "lambda.alpha[3]"
    ]
    assert not res.exact  # the family continues past the cutoff
    # the solid edges into t form the beta family: nonempty and truncated
    res_t = g.fiber(t, Degree((1, 0)))
    assert [str(m) for m in res_t.elements] == ["beta[1]", "beta[2]", "beta[3]"]
    assert not res_t.exact
    # no dashed edges into t at all
    res_t2 = g.fiber(t, Degree((0, 1)))
    assert res_t2.elements == [] and res_t2.exact
    res_w = g.fiber(w, Degree((0, 0)))
    assert [str(m) for m in res_w.elements] == ["w"] and res_w.exact


def test_enumerate_tg_bound_11_cutoff_2():
    g = lambda_tg(2)
    out = g.enumerate_morphisms(Degree((1, 1))).morphisms
    assert sorted(str(m) for m in out) == sorted(
        ["t", "u", "v", "w", "lambda", "mu",
         "alpha[1]", "alpha[2]", "beta[1]", "beta[2]",
         "lambda.alpha[1]", "lambda.alpha[2]"]
    )


def test_enumerate_grid_matches_product_formula():
    gr = grid(2)
    counts = {}
    for m in gr.enumerate_morphisms(Degree((1, 1))).morphisms:
        counts[m.degree.coords] = counts.get(m.degree.coords, 0) + 1
    # degree (a,b) morphisms of the truncated grid: one per fitting placement
    for (a, b), n in counts.items():
        assert n == (3 - a) * (3 - b)
    assert sum(counts.values()) == 9 + 6 + 6 + 4


def test_grid_total_count_is_36():
    assert len(grid(2).all_morphisms()) == 36


# -- the per-graph memo table -------------------------------------------------


def test_graph_facts_are_computed_once(monkeypatch):
    calls = []
    dfs = KGraph._skeleton_has_cycle

    def counted(self):
        calls.append(self)
        return dfs(self)

    monkeypatch.setattr(KGraph, "_skeleton_has_cycle", counted)
    g = grid(2)
    assert all(g.is_finite for _ in range(5))
    morphs = g.all_morphisms()
    assert g.all_morphisms() is morphs and len(morphs) == 36
    assert calls == [g]


@pytest.mark.parametrize("maker", [lambda: grid(2), lambda: lambda_tg(3)])
def test_enumerate_morphisms_repeats_equal(maker):
    g, bound = maker(), Degree((2, 2))
    first = g.enumerate_morphisms(bound)
    second = g.enumerate_morphisms(bound)
    assert second.morphisms == first.morphisms and second.exact == first.exact
    cold = maker().enumerate_morphisms(bound)
    assert [str(m) for m in first.morphisms] == [str(m) for m in cold.morphisms]
    assert first.exact == cold.exact


def test_unknown_vertices_still_raise():
    g = lambda_tg(2)
    v = g.vertex("v")
    assert g.unit(v) is g.unit(v) and g.unit(v) == Morphism(g, v, ())
    for _ in range(2):
        with pytest.raises(KGraphError):
            g.unit(Name("z"))
    with pytest.raises(KGraphError):
        g.vertex("z")
    with pytest.raises(KGraphError):
        g.morphism("z")


# -- category laws ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_graphs():
    return [lambda_tg(2), grid(2), squares_graph()]


def _bounded(graph):
    bound = Degree((2, 2)) if graph.rank == 2 else Degree((3,))
    return graph.enumerate_morphisms(bound).morphisms


def test_cancellativity(small_graphs):
    for g in small_graphs:
        morphs = _bounded(g)
        by_source = {}
        for m in morphs:
            by_source.setdefault(m.range, []).append(m)
        for mu in morphs:
            tails = by_source.get(mu.source, [])
            seen = {}
            for nu in tails:
                comp = g.compose(mu, nu)
                assert seen.setdefault(comp, nu) == nu  # left cancellative
        for nu in morphs:
            seen = {}
            for mu in morphs:
                if mu.source != nu.range:
                    continue
                comp = g.compose(mu, nu)
                assert seen.setdefault(comp, mu) == mu  # right cancellative


def test_no_inverses(small_graphs):
    for g in small_graphs:
        for mu in _bounded(g):
            for nu in _bounded(g):
                if mu.source != nu.range:
                    continue
                if g.compose(mu, nu).is_unit():
                    assert mu.is_unit() and nu.is_unit()


def test_prefix_is_a_left_invariant_partial_order(small_graphs):
    for g in small_graphs:
        morphs = _bounded(g)
        for a in morphs:
            assert g.prefix_leq(a, a)
            for b in morphs:
                if g.prefix_leq(a, b) and g.prefix_leq(b, a):
                    assert a == b
                for c in morphs:
                    if g.prefix_leq(a, b) and g.prefix_leq(b, c):
                        assert g.prefix_leq(a, c)
        for mu in morphs:
            tails = [n for n in morphs if mu.source == n.range]
            for nu in tails:
                for kappa in tails:
                    if g.prefix_leq(g.compose(mu, nu), g.compose(mu, kappa)):
                        assert g.prefix_leq(nu, kappa)


def test_factorization_roundtrip(small_graphs):
    for g in small_graphs:
        for lam in _bounded(g):
            for p in lam.degree.downset():
                mu, nu = g.factorize(lam, p)
                assert mu.degree == p
                assert g.compose(mu, nu) == lam
                # uniqueness among enumerated splittings
                others = [
                    (m2, n2)
                    for m2 in g.fiber(lam.range, p).elements
                    for n2 in g.fiber(m2.source, lam.degree.sub(p)).elements
                    if g.compose(m2, n2) == lam
                ]
                assert others == [(mu, nu)]


def test_degree_is_a_functor(small_graphs):
    for g in small_graphs:
        for mu in _bounded(g):
            for nu in _bounded(g):
                if mu.source == nu.range:
                    assert g.compose(mu, nu).degree == mu.degree.add(nu.degree)


def test_normal_form_soundness_under_rewrites():
    """Words related by a single square application normalise identically;
    exhaustive over composable words of length <= 4."""
    for g in (lambda_tg(2), squares_graph()):
        edges = [g.edge_morphism(n) for n in g.edges]
        words = [(e,) for e in edges]
        all_words = list(words)
        for _ in range(3):
            words = [
                w + (e,)
                for w in words
                for e in edges
                if w[-1].source == e.range
            ]
            all_words.extend(words)
        for word in all_words:
            names = tuple(n for m in word for n in m.word)
            base = g._from_word(names)
            for i in range(len(names) - 1):
                pair = (names[i], names[i + 1])
                for table in (g.squares, g._asc_to_desc):
                    if pair in table:
                        rewritten = names[:i] + table[pair] + names[i + 2 :]
                        assert g._from_word(rewritten) == base


def test_vertices_are_the_degree_zero_morphisms(small_graphs):
    for g in small_graphs:
        zero = Degree.zero(g.rank)
        units = [m for m in _bounded(g) if m.degree == zero]
        assert sorted(str(u) for u in units) == sorted(str(v) for v in g.vertices)
