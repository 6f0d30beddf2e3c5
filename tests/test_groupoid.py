import pytest

from pathgroupoids import groupoid as gp
from pathgroupoids import pspace as ps
from pathgroupoids import spielberg as sp
from pathgroupoids.catalog import grid, lambda_tg, squares_graph
from pathgroupoids.degree import Degree
from test_oracles import gen_product

B22 = Degree((2, 2))


@pytest.fixture(scope="module")
def tg():
    return lambda_tg(2)


@pytest.fixture(scope="module")
def u_filter(tg):
    return ps.principal(tg.unit(tg.vertex("u")))


def test_make_element_example(tg, u_filter):
    g = gp.make_element(gp.Span(tg.morphism("beta[1]"), tg.morphism("alpha[1]"), u_filter))
    assert g.q == (1, -1)
    assert {str(m) for m in g.x.elements} == {"t", "beta[1]"}
    assert {str(m) for m in g.y.elements} == {"w", "alpha[1]"}


def test_make_element_unit(tg, u_filter):
    g = gp.make_element(gp.Span(tg.unit(u_filter.range), tg.unit(u_filter.range), u_filter))
    assert g == gp.unit_element(u_filter) and g.is_unit()


def test_make_element_rejects_ps_escape(tg):
    w = ps.principal(tg.unit(tg.vertex("w")))
    lam = tg.morphism("lambda")
    with pytest.raises(gp.SpanRejectedError, match="leaves the path space"):
        gp.make_element(gp.Span(lam, lam, w))


def test_compose_examples(tg, u_filter):
    g = gp.make_element(gp.Span(tg.morphism("beta[1]"), tg.morphism("alpha[1]"), u_filter))
    h = gp.make_element(gp.Span(tg.morphism("alpha[1]"), tg.unit(tg.vertex("u")), u_filter))
    gh = gp.compose_elements(g, h)
    assert gh.q == (1, 0) and gh.y == u_filter and gh.x == g.x
    gp.verify_certificate(gh)
    # inverse and unit laws
    assert gp.compose_elements(g, gp.invert(g)) == gp.unit_element(g.x)
    assert gp.compose_elements(gp.unit_element(g.x), g) == g


def test_compose_requires_matching_middle(tg, u_filter):
    g = gp.make_element(gp.Span(tg.morphism("beta[1]"), tg.morphism("alpha[1]"), u_filter))
    with pytest.raises(gp.GroupoidError):
        gp.compose_elements(g, g)


def test_invert_examples(tg, u_filter):
    g = gp.make_element(gp.Span(tg.morphism("beta[1]"), tg.morphism("alpha[1]"), u_filter))
    gi = gp.invert(g)
    assert gi.q == (-1, 1) and gi.x == g.y and gi.y == g.x
    assert gp.invert(gi) == g
    r = gp.unit_element(g.x)
    assert r.is_unit() and gp.unit_element(r.x) == r


def test_span_roundtrip(tg, u_filter):
    g = gp.make_element(gp.Span(tg.morphism("beta[1]"), tg.morphism("alpha[1]"), u_filter))
    span = gp.span_of(g)
    assert (str(span.mu), str(span.nu)) == ("beta[1]", "alpha[1]") and span.z == u_filter
    assert gp.make_element(span) == g


def test_span_rejects_disagreeing_endpoints(tg, u_filter):
    """The one endpoint check: s(mu) = s(nu) = r(z)."""
    beta, alpha = tg.morphism("beta[1]"), tg.morphism("alpha[1]")
    with pytest.raises(gp.GroupoidError, match="span mismatch"):
        gp.Span(beta, tg.unit(tg.vertex("t")), u_filter)
    with pytest.raises(gp.GroupoidError, match="span mismatch"):
        gp.Span(beta, alpha, ps.principal(tg.unit(tg.vertex("w"))))


def test_basic_set_membership_examples(tg, u_filter):
    g = gp.make_element(gp.Span(tg.morphism("beta[1]"), tg.morphism("alpha[1]"), u_filter))
    b = gp.BasicGroupoidSet(tg.morphism("beta[1]"), tg.morphism("alpha[1]"))
    assert gp.basic_set_membership(g, b)
    b_excl = gp.BasicGroupoidSet(
        tg.morphism("beta[1]"), tg.morphism("alpha[1]"), J=(tg.morphism("beta[1]"),)
    )
    assert not gp.basic_set_membership(g, b_excl)
    mb1 = tg.morphism("mu.beta[1]")
    unit = gp.unit_element(ps.principal(mb1))
    assert gp.basic_set_membership(unit, gp.BasicGroupoidSet(mb1, mb1))


def test_basic_set_parameters_need_fa(tg):
    with pytest.raises(gp.GroupoidError, match="FA"):
        gp.BasicGroupoidSet(tg.morphism("lambda"), tg.morphism("lambda"))


def test_bpg_membership(tg, u_filter):
    """A unit (x, 0, x) lies in the boundary-path groupoid iff x lies in
    the enumerated boundary-path space."""
    bps = ps.bps_enumerate(tg, B22)
    assert not bps.exact
    boundary = set(bps.filters)
    assert u_filter in boundary
    # principal filters of the square composites sit in the boundary too
    assert ps.principal(tg.morphism("mu.beta[1]")) in boundary
    # maximality makes the one-edge filters boundary points as well: their
    # sole extensions are themselves, so the inclusion scan keeps them
    assert ps.principal(tg.morphism("beta[1]")) in boundary


def test_enumerate_pg_repeats_equal():
    g = squares_graph()
    first = gp.enumerate_pg(g, B22)
    assert gp.enumerate_pg(g, B22) == first
    cold = gp.enumerate_pg(squares_graph(), B22)
    assert [str(e) for e in first] == [str(e) for e in cold]


def test_enumerate_pg_is_deduplicated(tg):
    elements = gp.enumerate_pg(tg, B22)
    assert len(elements) == len(set(elements))
    assert all(g.is_unit() == (g.x == g.y and g.q == (0, 0)) for g in elements)
    units = [g for g in elements if g.is_unit()]
    assert len(units) == len(ps.ps_filters(tg, B22).filters)


@pytest.mark.parametrize("maker", [lambda: lambda_tg(2), lambda: squares_graph()])
def test_axiom_suite(maker):
    g = maker()
    rep = gp.axiom_suite(g, B22)
    assert rep["ok"], rep["counterexamples"]
    assert rep["composable_pairs"] > 0 and rep["associativity_triples"] > 0


def test_axiom_suite_single_unit_groupoid():
    from pathgroupoids.kgraph import load_presentation

    g = load_presentation("vertices: v")
    rep = gp.axiom_suite(g, Degree((1,)))
    assert rep["ok"] and rep["elements"] == 1


def _non_unit_pair(elements):
    """The first composable pair of non-units whose composite is no unit."""
    return next(
        (g, h)
        for g in elements
        for h in elements
        if g.y == h.x and not g.is_unit() and not h.is_unit() and h != gp.invert(g)
    )


def test_axiom_suite_reports_a_wrong_composite(monkeypatch):
    """One wrong cell of the composition table shows up as an
    associativity counterexample.  On finite filters q = d(x) - d(y), so a
    valid element with the composite's endpoints is the composite itself;
    the wrong cell keeps the endpoints and shifts q, and so does every
    composite with a wrong factor, which keeps the closure finite.  The
    fragment is memoised per graph, so the clean run and the patched run
    each get a fresh graph, and the patched `compose_elements` builds the
    second graph's fragment; the pair is found by name on the first."""
    clean = gp.axiom_suite(lambda_tg(2), B22)
    a, b = map(str, _non_unit_pair(gp.enumerate_pg(lambda_tg(2), B22)))
    real = gp.compose_elements
    genuine: dict = {}  # wrong element -> the composite it shifts

    def compose(g, h):
        g0, h0 = genuine.get(g, g), genuine.get(h, h)
        gh = real(g0, h0)
        if g is g0 and h is h0 and (str(g), str(h)) != (a, b):
            return gh
        wrong = gp.GroupoidElement(gh.x, tuple(c + 1 for c in gh.q), gh.y, gh.cert)
        genuine[wrong] = gh
        return wrong

    monkeypatch.setattr(gp, "compose_elements", compose)
    rep = gp.axiom_suite(lambda_tg(2), B22)
    assert genuine
    assert not rep["ok"]
    assert rep["counterexamples"][0].startswith(f"('associativity', '{a}', '{b}', ")
    assert all(c.startswith("('associativity', ") for c in rep["counterexamples"])
    for key in ("elements", "composable_pairs", "associativity_triples"):
        assert rep[key] == clean[key]


@pytest.mark.parametrize(
    "name, counts",
    [("grid", (144, 196, 676, 3364)), ("product", (280, 300, 2408, 22632))],
)
def test_axiom_suite_on_a_fragment_not_closed_under_composition(name, counts):
    """Span elements need not be closed under composition: on grid(2) at
    (1, 1), and on a seeded twisted product at (2, 2), composites fall
    outside them.  The fragment's closure gives those composites ids of
    their own, every composable pair of its elements has a cell, and the
    laws hold over the span elements."""
    graph, bound = {
        "grid": (grid(2), Degree((1, 1))),
        "product": (gen_product((3, 1, 1, 2), 0), B22),
    }[name]
    frag = gp.fragment(graph, bound)
    assert frag.closure[: len(frag.elements)] == frag.elements
    assert frag.ids == {g: i for i, g in enumerate(frag.closure)}
    assert sum(len(row) for row in frag.rows) == sum(
        g.y == h.x for g in frag.closure for h in frag.closure
    )
    rep = gp.axiom_suite(graph, bound)
    assert rep["ok"], rep["counterexamples"]
    got = (rep["elements"], len(frag.closure), rep["composable_pairs"], rep["associativity_triples"])
    assert got == counts
    if name == "grid":
        iso = sp.iso_check(graph, bound)
        assert iso["ok"], iso["failures"]
        assert iso["composition_pairs"] == rep["composable_pairs"]


@pytest.mark.parametrize("maker", [lambda: lambda_tg(2), lambda: grid(2)])
def test_invariance(maker):
    g = maker()
    rep = gp.invariance_check(g, B22)
    assert rep["ok"] and rep["verdict"] == "pass", rep


def test_invariance_truncation_is_flagged_not_failed():
    from pathgroupoids.catalog import cycle

    rep = gp.invariance_check(cycle(3), Degree((3,)))
    # the at-bound boundary scan is inexact; mismatches there are
    # boundary cases, not counterexamples
    assert rep["ok"] and rep["verdict"] == "unknown_at_bound"
    assert rep["boundary_cases"] and not rep["bps_exact"]


def test_unit_space(tg):
    assert gp.unit_space_check(tg, B22)["ok"]
    assert gp.unit_space_check(squares_graph(), B22)["ok"]


def test_separation(tg):
    elements = gp.enumerate_pg(tg, B22)
    g, h = elements[0], elements[-1]
    bg, bh = gp.separating_sets(g, h)
    assert gp.basic_set_membership(g, bg) and gp.basic_set_membership(h, bh)
    assert not gp.basic_set_membership(g, bh) and not gp.basic_set_membership(h, bg)
    with pytest.raises(gp.GroupoidError):
        gp.separating_sets(g, g)


def test_separation_exhaustive_on_same_q_pairs(tg):
    """The include/exclude construction, exercised in both orientations:
    the returned sets must match the argument order."""
    import itertools

    elements = gp.enumerate_pg(tg, B22)
    by_q = {}
    for e in elements:
        by_q.setdefault(e.q, []).append(e)
    for group in by_q.values():
        for a, b in itertools.combinations(group, 2):
            ba, bb = gp.separating_sets(a, b)
            assert gp.basic_set_membership(a, ba) and gp.basic_set_membership(b, bb)
            assert not gp.basic_set_membership(a, bb)
            assert not gp.basic_set_membership(b, ba)


def test_hausdorff_ample_evidence(tg):
    rep = gp.hausdorff_ample_evidence(tg, B22, sample=30)
    assert rep["ok"]
    flags = set(rep["unit_basic_set_compactness"].values())
    assert flags == {"ConsistentWithCompact"}
    rep_sq = gp.hausdorff_ample_evidence(squares_graph(), B22, sample=30)
    assert rep_sq["ok"]
    assert set(rep_sq["unit_basic_set_compactness"].values()) == {"Compact"}


def test_refinement(tg):
    assert gp.refinement_check(tg, B22)["ok"]
    assert gp.refinement_check(squares_graph(), B22, sample=20)["ok"]
