import collections
import itertools

import pytest

from pathgroupoids import groupoid as gp
from pathgroupoids import pspace as ps
from pathgroupoids import spielberg as sp
from pathgroupoids.action import shift_on
from pathgroupoids.catalog import cycle, finite_examples, grid, lambda_tg, line, squares_graph
from pathgroupoids.degree import Degree

B22 = Degree((2, 2))


@pytest.fixture(scope="module")
def tg():
    return lambda_tg(2)


@pytest.fixture(scope="module")
def gr():
    return grid(2)


# -- E-hat sets ---------------------------------------------------------------


def test_e_hat_examples(tg):
    a1 = tg.morphism("alpha[1]")
    assert sp.e_hat_membership(ps.principal(a1), sp.EHatSet(a1))
    r_only = ps.principal(tg.unit(a1.range))
    assert not sp.e_hat_membership(r_only, sp.EHatSet(a1))


def test_e_hat_equals_cylinders(tg):
    assert sp.check_e_hat_equals_cylinders(tg, B22)["ok"]
    for g in finite_examples():
        bound = Degree((2, 2)) if g.rank == 2 else Degree((3,))
        assert sp.check_e_hat_equals_cylinders(g, bound)["ok"]


def test_e_hat_with_mu_excluded_is_empty(tg):
    # when the exclusions swallow the base, both sides are empty
    lam = tg.morphism("lambda")
    e = sp.EHatSet(lam, (lam,))
    cyl = ps.Cylinder((lam,), (lam,))
    for x in ps.enumerate_filters(tg, B22).filters:
        assert not sp.e_hat_membership(x, e)
        assert not ps.cylinder_membership(x, cyl)


def test_topologies_coincide_on_finite_graphs():
    for g in finite_examples():
        bound = Degree((1, 1)) if g.rank == 2 else Degree((2,))
        assert sp.check_topology_coincides(g, bound)["ok"]


# -- gating -------------------------------------------------------------------


def test_gate_fires_on_tg(tg):
    with pytest.raises(sp.UnsupportedDomainError):
        sp.require_fa_certificate(tg)
    with pytest.raises(sp.UnsupportedDomainError):
        sp.iso_check(tg, B22)


def test_gate_admits_finite_and_certified():
    sp.require_fa_certificate(grid(2))
    sp.require_fa_certificate(cycle(3))  # annotated FA = Lambda


# -- triples ------------------------------------------------------------------


def _vertex_filter(g, name):
    return ps.principal(g.unit(g.vertex(name)))


def test_triple_equiv_glueing(gr):
    # [alpha, beta, shift_on(gamma, y)] ~ [alpha.gamma, beta.gamma, y]
    y = _vertex_filter(gr, "g[2,2]")
    gamma = gr.morphism("k[2,1]")  # g[2,2] -> g[2,1]
    alpha = gr.morphism("h[1,1]")  # g[2,1] -> g[1,1]
    beta = gr.morphism("k[2,0]")  # g[2,1] -> g[2,0]
    x = shift_on(gamma, y)
    t1 = gp.Span(alpha, beta, x)
    t2 = gp.Span(gr.compose(alpha, gamma), gr.compose(beta, gamma), y)
    ok, witness = sp.triple_equiv(t1, t2)
    assert ok
    wy, g1, g2 = witness
    assert shift_on(g1, wy) == x and shift_on(g2, wy) == y


def test_triple_equiv_reflexive_and_units_distinct(gr):
    x = ps.principal(gr.morphism("h[0,0]"))
    t = gp.Span(gr.unit(x.range), gr.unit(x.range), x)
    assert sp.triple_equiv(t, t)[0]
    x2 = ps.principal(gr.morphism("h[0,1]"))
    t2 = gp.Span(gr.unit(x2.range), gr.unit(x2.range), x2)
    assert not sp.triple_equiv(t, t2)[0]


def test_triple_equiv_is_an_equivalence_on_sampled_triples(gr):
    triples = gp.fragment(gr, Degree((1, 1))).spans[::7]
    for t in triples:
        assert sp.triple_equiv(t, t)[0]
    for t1, t2 in itertools.combinations(triples[:12], 2):
        ok12 = sp.triple_equiv(t1, t2)[0]
        ok21 = sp.triple_equiv(t2, t1)[0]
        assert ok12 == ok21
    for t1, t2, t3 in itertools.combinations(triples[:8], 3):
        if sp.triple_equiv(t1, t2)[0] and sp.triple_equiv(t2, t3)[0]:
            assert sp.triple_equiv(t1, t3)[0]


def test_canonical_triple(gr):
    y = _vertex_filter(gr, "g[2,2]")
    gamma = gr.morphism("k[2,1]")
    t = gp.Span(gr.morphism("h[1,1]"), gr.morphism("h[1,1]"), shift_on(gamma, y))
    canon = sp.canonical_triple(t)
    assert canon.z == y
    assert sp.triple_equiv(t, canon)[0]


def test_sp_compose_inverse_and_unit_laws(gr):
    x = ps.principal(gr.morphism("k[1,0]"))  # r(x) = g[1,0]
    alpha = gr.morphism("h[0,0]")  # g[1,0] -> g[0,0]
    t = gp.Span(alpha, gr.unit(gr.vertex("g[1,0]")), x)
    ti = sp.sp_invert(t)
    prod = sp.sp_compose(t, ti)
    lifted = shift_on(alpha, x)
    unit = gp.Span(gr.unit(lifted.range), gr.unit(lifted.range), lifted)
    assert sp.triple_equiv(prod, unit)[0]
    left_unit = gp.Span(gr.unit(lifted.range), gr.unit(lifted.range), lifted)
    assert sp.triple_equiv(sp.sp_compose(left_unit, t), t)[0]


def test_sp_compose_not_composable(gr):
    x = ps.principal(gr.morphism("k[1,0]"))
    t = gp.Span(gr.morphism("h[0,0]"), gr.unit(gr.vertex("g[1,0]")), x)
    with pytest.raises(Exception, match="composable"):
        sp.sp_compose(sp.sp_invert(t), sp.sp_invert(t))


def test_sampled_composition_table_matches_brute_force(gr):
    """Entrywise comparison of the two composition tables: the triple
    side composes by witness search, the image side by certificate
    arithmetic."""
    spans = gp.fragment(gr, Degree((1, 1))).spans
    canon = list(dict.fromkeys(sp.canonical_triple(t) for t in spans))
    sampled = canon[::11]
    checked = 0
    for t1 in sampled:
        for t2 in sampled:
            if shift_on(t1.nu, t1.z) != shift_on(t2.mu, t2.z):
                continue
            checked += 1
            lhs = sp.phi(sp.sp_compose(t1, t2))
            rhs = gp.compose_elements(sp.phi(t1), sp.phi(t2))
            assert lhs == rhs
    assert checked > 0


# -- the isomorphism ----------------------------------------------------------


def test_phi_examples(gr):
    x = _vertex_filter(gr, "g[2,2]")
    unit_triple = gp.Span(gr.unit(x.range), gr.unit(x.range), x)
    assert sp.phi(unit_triple) == gp.unit_element(x)

    sq = squares_graph()
    se = _vertex_filter(sq, "se")
    t = gp.Span(sq.morphism("q[1]"), sq.morphism("p[1]"), se)
    g = sp.phi(t)
    # both sides computed independently of make_element
    assert g.x == shift_on(sq.morphism("q[1]"), se)
    assert g.y == shift_on(sq.morphism("p[1]"), se)
    assert g.q == (-1, 1)


def test_phi_constant_on_equivalent_triples(gr):
    y = _vertex_filter(gr, "g[2,2]")
    gamma = gr.morphism("k[2,1]")
    alpha = beta = gr.morphism("h[1,1]")
    t1 = gp.Span(alpha, beta, shift_on(gamma, y))
    t2 = gp.Span(gr.compose(alpha, gamma), gr.compose(beta, gamma), y)
    assert sp.phi(t1) == sp.phi(t2)


def test_iso_check_grid(gr):
    rep = sp.iso_check(gr, B22)
    assert rep["ok"], rep["failures"]
    assert rep["bijection_count_match"]
    assert rep["classes"] == rep["pg_elements"] == 196


def test_suites_compose_each_pair_once(monkeypatch):
    """axiom_suite and iso_check share one fragment: run in either order
    on a fresh graph, they call compose_elements exactly once per
    composable pair of enumerated elements, and report the same."""
    real = gp.compose_elements
    calls = collections.Counter()

    def counted(g, h):
        calls[g, h] += 1
        return real(g, h)

    monkeypatch.setattr(gp, "compose_elements", counted)
    reports = []
    for suites in ((gp.axiom_suite, sp.iso_check), (sp.iso_check, gp.axiom_suite)):
        calls.clear()
        graph = grid(2)
        reports.append({suite.__name__: suite(graph, B22) for suite in suites})
        elements = gp.enumerate_pg(graph, B22)
        composable = {(g, h) for g in elements for h in elements if g.y == h.x}
        assert set(calls) == composable and set(calls.values()) == {1}
    assert reports[0] == reports[1]
    assert reports[0]["axiom_suite"]["ok"] and reports[0]["iso_check"]["ok"]


def test_iso_check_squares():
    rep = sp.iso_check(squares_graph(), B22)
    assert rep["ok"], rep["failures"]
    assert rep["classes"] == rep["pg_elements"] == 100


def test_iso_check_line_and_cycle_bounded():
    rep = sp.iso_check(line(3), Degree((3,)))
    assert rep["ok"] and rep["bijection_count_match"]
    rep_c = sp.iso_check(cycle(3), Degree((3,)))
    assert rep_c["ok"] and rep_c["bijection_count_match"]


@pytest.mark.parametrize(
    "make, bound, cases",
    [
        (lambda: grid(2), B22, 756),
        (squares_graph, B22, 180),
        (lambda: cycle(3), Degree((3,)), 270),
    ],
    ids=["grid", "squares", "cycle"],
)
def test_basic_set_image_covers_every_leg_and_exclusion(make, bound, cases, monkeypatch):
    """One membership test per (leg, non-unit zeta, span of the leg)."""
    real, calls = sp.basic_set_membership, []
    monkeypatch.setattr(sp, "basic_set_membership", lambda g, b: calls.append(b) or real(g, b))
    graph = make()
    assert sp.iso_check(graph, bound)["ok"]
    spans = gp.fragment(graph, bound).spans
    morphs = graph.enumerate_morphisms(bound).morphisms
    expected = sum(
        1
        for t in spans
        for zeta in morphs
        if zeta.range == t.mu.source and not zeta.is_unit()
    )
    assert len(calls) == expected == cases


def _first_span(graph, bound):
    return gp.fragment(graph, bound).spans[0]


@pytest.mark.parametrize(
    "corrupt, labels",
    [
        ({"triple_equiv": lambda t1, t2: (False, None)}, ["class glue"]),
        ({"canonical_triple": lambda t: t}, ["not injective"]),
        (
            # a constant class map; triple_equiv is made to agree, so the
            # glue failures do not fill the report first
            {
                "canonical_triple": lambda t: _first_span(t.z.graph, Degree((1, 1))),
                "triple_equiv": lambda t1, t2: (True, None),
            },
            ["not well-defined", "not surjective"],
        ),
        ({"sp_compose": lambda t1, t2: t1}, ["composition"]),
        ({"sp_invert": lambda t: t}, ["inversion"]),
        ({"basic_set_membership": lambda g, b: not gp.basic_set_membership(g, b)}, ["basic set image"]),
    ],
    ids=["glue", "injective", "well-defined", "composition", "inversion", "basic-set-image"],
)
def test_iso_check_failure_fires(corrupt, labels, monkeypatch):
    """Each failure label of iso_check fires under a corruption of the
    operation it checks."""
    for name, fn in corrupt.items():
        monkeypatch.setattr(sp, name, fn)
    rep = sp.iso_check(grid(2), Degree((1, 1)))
    assert not rep["ok"]
    assert set(labels) <= {f.split("'")[1] for f in rep["failures"]}, rep["failures"]


@pytest.mark.parametrize(
    "check, name, corrupt",
    [
        (sp.check_e_hat_equals_cylinders, "e_hat_membership", lambda x, e: True),
        (sp.check_topology_coincides, "reduce_exclusions", lambda graph, mu, zetas: []),
    ],
    ids=["e-hat-is-everything", "no-reduced-exclusions"],
)
def test_basis_check_failure_fires(check, name, corrupt, monkeypatch):
    """The cylinder/E-hat comparisons fail when the E-hat sets or the
    reduced exclusions are corrupted."""
    monkeypatch.setattr(sp, name, corrupt)
    rep = check(grid(2), Degree((1, 1)))
    assert not rep["ok"] and rep["counterexamples"]


def _line_element(g) -> tuple:
    return frozenset(map(str, g.x.elements)), g.q, frozenset(map(str, g.y.elements))


def _colour_part(m, c: int) -> str:
    """The colour-(c + 1) part of a grid morphism, spelled in line(n):
    h[i,j] -> g[i] and k[i,j] -> g[j], the vertex g[i,j] -> p[i] or p[j]."""
    letters = [f"g[{e.index[c]}]" for e in m.word if e.base == "hk"[c]]
    return ".".join(letters) if letters else f"p[{m.range.index[c]}]"


def _colour_projection(g, c: int) -> tuple:
    return (
        frozenset(_colour_part(m, c) for m in g.x.elements),
        (g.q[c],),
        frozenset(_colour_part(m, c) for m in g.y.elements),
    )


@pytest.mark.parametrize("n, classes, pairs", [(2, 14, 36), (3, 30, 100)])
def test_grid_is_line_times_line(n, classes, pairs):
    """grid(n) is the product 2-graph line(n) x line(n), so its path
    groupoid at (n, n) is the product of line(n)'s at (n) as a set of
    element pairs, and the counts of the suites are squares."""
    sq, ln = grid(n), line(n)
    sq_bound, ln_bound = Degree((n, n)), Degree((n,))
    sq_elements = gp.enumerate_pg(sq, sq_bound)
    projected = {(_colour_projection(g, 0), _colour_projection(g, 1)) for g in sq_elements}
    ln_elements = {_line_element(g) for g in gp.enumerate_pg(ln, ln_bound)}
    assert len(projected) == len(sq_elements)
    assert projected == set(itertools.product(ln_elements, ln_elements))
    rep_ln, rep_sq = sp.iso_check(ln, ln_bound), sp.iso_check(sq, sq_bound)
    assert (rep_ln["classes"], rep_ln["composition_pairs"]) == (classes, pairs)
    assert (rep_sq["classes"], rep_sq["composition_pairs"]) == (classes**2, pairs**2)
    assert gp.axiom_suite(ln, ln_bound)["composable_pairs"] == pairs
    assert gp.axiom_suite(sq, sq_bound)["composable_pairs"] == pairs**2


# -- relative filter space diagnostic -----------------------------------------


def test_relative_filter_space(tg):
    rep = sp.relative_filter_space(tg, B22)
    assert rep["counts"] == [3, 2]
    assert not rep["homeomorphic"]
    # every point not arising as a family limit carries an isolation witness
    assert rep["isolation_complete"]
    assert rep["nondiscrete_far"] == ["{t}", "{v}", "{w}"]
    assert rep["nondiscrete_ps"] == ["{t}", "{w}"]
    # the extra point: {v} is the limit of the relative principal filters
    # of the square composites
    assert rep["limits_far"]["lambda.alpha[n]"] == "{v}"
    # relative filters of the composites are the two-element sets
    assert "{v, lambda.alpha[1]}" in rep["far_filters"]


def test_relative_filter_space_only_runs_on_tg(gr):
    with pytest.raises(sp.UnsupportedDomainError):
        sp.relative_filter_space(gr, B22)


def test_triple_serialisation(gr):
    y = _vertex_filter(gr, "g[2,2]")
    gamma = gr.morphism("k[2,1]")
    alpha = gr.morphism("h[1,1]")
    t = gp.Span(alpha, alpha, shift_on(gamma, y))
    # equivalent triples share the canonical representative
    t2 = gp.Span(gr.compose(alpha, gamma), gr.compose(alpha, gamma), y)
    assert sp.canonical_triple(t) == sp.canonical_triple(t2) == t2
