import collections
import functools
import itertools

import pytest

from pathgroupoids import alignment, cli
from pathgroupoids import pspace as ps
from pathgroupoids.alignment import Verdict
from pathgroupoids.catalog import (
    MorphismFamily,
    cycle,
    finite_examples,
    grid,
    lambda_tg,
    lambda_tg_infinity,
    lambda_yee,
    line,
)
from pathgroupoids.degree import Degree
from pathgroupoids.kgraph import KGraph, load_presentation

B22 = Degree((2, 2))


@pytest.fixture(scope="module")
def tg():
    return lambda_tg(2)


@pytest.fixture(scope="module")
def tg3():
    return lambda_tg(3)


# -- filters -------------------------------------------------------------


def test_is_filter_examples(tg):
    bad = ps.ExplicitSubset(
        tg, [tg.unit(tg.vertex("v")), tg.morphism("lambda"), tg.morphism("mu")]
    )
    ok, reason = ps.is_filter(bad)
    assert not ok and "directed" in reason

    good = ps.principal(tg.morphism("mu.beta[1]"))
    assert ps.is_filter(good) == (True, None)
    assert ps.is_filter(ps.ExplicitSubset(tg, [tg.unit(tg.vertex("v"))]))[0]


def test_principal_examples(tg):
    pf = ps.principal(tg.morphism("mu.beta[1]"))
    assert sorted(str(m) for m in pf.elements) == ["lambda", "lambda.alpha[1]", "mu", "v"]
    assert str(pf.range) == "v"
    assert {str(m) for m in ps.principal(tg.unit(tg.vertex("v"))).elements} == {"v"}
    assert sorted(str(m) for m in ps.principal(tg.morphism("alpha[1]")).elements) == [
        "alpha[1]", "w"
    ]


def brute_filters(graph):
    """Powerset oracle: every subset tested against the filter axioms
    directly (tiny graphs only)."""
    morphs = graph.all_morphisms()
    out = []
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
            out.append(frozenset(candidate))
    return set(out)


def test_filter_enumeration_matches_powerset_oracle():
    for g in (line(2), grid(1)):
        enumerated = {x.elements for x in ps.enumerate_filters(g, Degree((2,) * g.rank)).filters}
        assert enumerated == brute_filters(g)


def test_ultrafilters_match_powerset_oracle():
    for g in (line(2), grid(1)):
        brute = brute_filters(g)
        brute_max = {x for x in brute if not any(x < y for y in brute)}
        got = {x.elements for x in ps.ultrafilters(g, Degree((2,) * g.rank)).filters}
        assert got == brute_max


def test_enumerate_filters_tg_counts():
    for cutoff in (2, 5):
        g = lambda_tg(cutoff)
        res = ps.enumerate_filters(g, B22)
        assert len(res.filters) == 6 + 3 * cutoff
        assert not res.exact


def test_filters_one_vertex_graph():
    g = load_presentation("vertices: v")
    res = ps.enumerate_filters(g, Degree((1,)))
    assert [str(x) for x in res.filters] == ["{v}"] and res.exact
    assert [str(x) for x in ps.ultrafilters(g, Degree((1,))).filters] == ["{v}"]
    assert [str(x) for x in ps.bps_enumerate(g, Degree((1,))).filters] == ["{v}"]


def test_ultrafilters_tg_inclusion_scan(tg):
    """Independent oracle: maximality re-derived by scanning all pairs of
    enumerated filters for strict inclusions."""
    all_f = ps.enumerate_filters(tg, B22).filters
    expected = {
        x.elements
        for x in all_f
        if not any(x.elements < y.elements for y in all_f)
    }
    got = {x.elements for x in ps.ultrafilters(tg, B22).filters}
    assert got == expected
    # concretely: {u} plus every maximal principal filter; {t}, {v}, {w}
    # and the one-edge filters below the square composites drop out
    names = sorted(str(ps.Filter(tg, e)) for e in got)
    assert names == [
        "{t, beta[1]}", "{t, beta[2]}", "{u}",
        "{v, mu, lambda, lambda.alpha[1]}", "{v, mu, lambda, lambda.alpha[2]}",
        "{w, alpha[1]}", "{w, alpha[2]}",
    ]


def test_grid_ultrafilters_are_the_corner_sourced_filters():
    gr = grid(2)
    ultra = ps.ultrafilters(gr, B22)
    assert ultra.exact and len(ultra.filters) == 9
    for x in ultra.filters:
        top = max(x.elements, key=lambda m: m.degree.total)
        assert str(top.source) == "g[2,2]"


# -- cylinders -----------------------------------------------------------


def test_cylinder_membership(tg):
    pf = ps.principal(tg.morphism("mu.beta[1]"))
    z_lambda = ps.Cylinder((tg.morphism("lambda"),))
    assert ps.cylinder_membership(pf, z_lambda)
    w = ps.principal(tg.unit(tg.vertex("w")))
    avoid_w = ps.Cylinder((), (tg.unit(tg.vertex("w")),))
    assert not ps.cylinder_membership(w, avoid_w)
    whole = ps.Cylinder((), ())
    assert all(ps.cylinder_membership(x, whole) for x in ps.enumerate_filters(tg, B22).filters)


# -- limits ----------------------------------------------------------------


def _family(graph, description):
    return next(
        f for f in graph.annotations.filter_families if f.description == description
    )


def test_pointwise_limit_of_alpha_family(tg3):
    seq = ps.DescribedSequence(tg3, _family(tg3, "alpha[n]"))
    res = ps.pointwise_limit(seq, B22)
    assert res.outcome is ps.LimitOutcome.CONVERGES and res.complete
    assert isinstance(res.limit, ps.Filter) and res.reason is None
    assert {str(m) for m in res.limit.elements} == {"w"}
    # the probe: every morphism up to the bound and every element of a term
    named = {m for t in seq.terms() for m in t.elements}
    assert set(res.probe) == set(tg3.enumerate_morphisms(B22).morphisms) | named
    assert res.decisions["alpha[1]"] == "out"


def test_pointwise_limit_of_square_family(tg3):
    seq = ps.DescribedSequence(tg3, _family(tg3, "lambda.alpha[n]"))
    res = ps.pointwise_limit(seq, B22)
    assert {str(m) for m in res.limit.elements} == {"v", "lambda", "mu"}
    assert not isinstance(res.limit, ps.Filter)
    assert res.reason == ps.is_filter(res.limit)[1] and "directed" in res.reason


def test_pointwise_limit_increasing_family():
    g = cycle(3)
    fam = g.annotations.filter_families[0]
    seq = ps.DescribedSequence(g, fam)
    res = ps.pointwise_limit(seq, Degree((3,)))
    assert res.outcome is ps.LimitOutcome.CONVERGES
    assert not res.complete  # the union keeps growing past the bound
    assert ps.is_filter(res.limit)[0] and res.reason is None


def test_pointwise_limit_flags_oscillation(tg3):
    # a family declared disjoint whose terms actually repeat: membership
    # support of mu.beta[1] is neither a single index nor everything
    fam = MorphismFamily(
        "oscillating",
        (1, 2, 3, 4),
        lambda n: tg3.morphism(f"mu.beta[{n}]" if n % 2 else "mu.beta[1]"),
    )
    seq = ps.DescribedSequence(tg3, fam)
    res = ps.pointwise_limit(seq, B22)
    assert res.outcome is ps.LimitOutcome.DIVERGENT
    assert res.limit is None and res.reason == "no limit"
    assert "oscillating" in res.decisions.values()


def test_convergence_decisions_match_raw_membership(tg3):
    assert ps.check_convergence_decisions(tg3, B22)["ok"]
    assert ps.check_convergence_decisions(lambda_yee(2), Degree((1, 1)))["ok"]


# -- path space -------------------------------------------------------------


def test_ps_membership_examples(tg):
    w = ps.principal(tg.unit(tg.vertex("w")))
    assert ps.ps_membership(w)[0] is Verdict.TRUE
    down_lambda = ps.principal(tg.morphism("lambda"))
    assert ps.ps_membership(down_lambda)[0] is Verdict.FALSE
    pf = ps.principal(tg.morphism("mu.beta[1]"))
    verdict, record = ps.ps_membership(pf)
    assert verdict is Verdict.TRUE
    # the strengthened form: every element owns an FA extension inside
    assert set(record["witnesses"]) == {str(m) for m in pf.elements}


def test_ps_excludes_exactly_three(tg):
    all_f = ps.enumerate_filters(tg, B22).filters
    excluded = sorted(str(x) for x in all_f if not ps.in_ps(x))
    assert excluded == ["{v, lambda}", "{v, mu}", "{v}"]


def test_bps_tg_is_ultrafilters_plus_vertex_limits(tg3):
    """Inclusion scan plus declared-family limits, re-derived here."""
    ultra = [x for x in ps.ultrafilters(tg3, B22).filters if ps.in_ps(x)]
    expected = {x.elements for x in ultra}
    for name, limit in (("beta[n]", "t"), ("alpha[n]", "w")):
        seq = ps.DescribedSequence(tg3, _family(tg3, name))
        res = ps.pointwise_limit(seq, B22)
        assert ps.is_filter(res.limit)[0]
        expected.add(res.limit.elements)
        assert {str(m) for m in res.limit.elements} == {limit}
    got = {x.elements for x in ps.bps_enumerate(tg3, B22).filters}
    assert got == expected
    # which here is the whole enumerated path space
    assert got == {x.elements for x in ps.ps_filters(tg3, B22).filters}


def test_bps_finite_graphs_are_the_ultrafilters():
    for g in finite_examples():
        bound = Degree((2, 2)) if g.rank == 2 else Degree((3,))
        bps = ps.bps_enumerate(g, bound)
        assert bps.exact
        assert {x.elements for x in bps.filters} == {
            x.elements for x in ps.ultrafilters(g, bound).filters
        }


def test_ps_equals_filters_on_finite_graphs():
    for g in finite_examples():
        bound = Degree((2, 2)) if g.rank == 2 else Degree((3,))
        assert ps.ps_filters(g, bound).filters == ps.enumerate_filters(g, bound).filters


# -- compactness probes -------------------------------------------------------


def test_probe_lambda_non_compact(tg3):
    ev = ps.compactness_probe(tg3.morphism("lambda"), B22)
    assert ev.kind == "NonCompact"
    assert sorted(ev.limit) == ["lambda", "mu", "v"]
    assert "directed" in ev.reason


def test_probe_w_consistent(tg3):
    ev = ps.compactness_probe(tg3.unit(tg3.vertex("w")), B22)
    assert ev.kind == "ConsistentWithCompact"
    assert "{w}" in ev.limit


def test_probe_finite_graphs_compact():
    for g in finite_examples():
        bound = Degree((2, 2)) if g.rank == 2 else Degree((3,))
        for m in g.all_morphisms():
            assert ps.compactness_probe(m, bound).kind == "Compact"


def test_probe_yee():
    y = lambda_yee(3)
    ev = ps.compactness_probe(y.morphism("lambda"), Degree((1, 1)))
    assert ev.kind == "NonCompact"
    assert sorted(ev.limit) == ["lambda", "mu[1]", "v"]
    ev_w = ps.compactness_probe(y.unit(y.vertex("w")), Degree((1, 1)))
    assert ev_w.kind == "ConsistentWithCompact"
    # the vertex whose neighbourhoods fail to be compact
    ev_v = ps.compactness_probe(y.unit(y.vertex("v")), Degree((1, 1)))
    assert ev_v.kind == "NonCompact"
    ev_mu = ps.compactness_probe(y.morphism("mu[2]"), Degree((1, 1)))
    assert ev_mu.kind == "NonCompact" and sorted(ev_mu.limit) == ["lambda", "mu[2]", "v"]


ESCAPE_GRAPHS = {
    "tg": lambda: lambda_tg(3),
    "yee": lambda: lambda_yee(3),
    "tg-infinity": lambda: lambda_tg_infinity(2, 3),
}


@functools.cache
def _fa_excluded(name: str) -> dict:
    """The FA-excluded morphisms at (2,2) of a catalog graph, by name."""
    g = ESCAPE_GRAPHS[name]()
    return {str(m): m for m in g.enumerate_morphisms(B22).morphisms if g.annotations.fa_excluded(m)}


@pytest.mark.parametrize(
    "name,element", [(name, e) for name in sorted(ESCAPE_GRAPHS) for e in _fa_excluded(name)]
)
def test_escape_family_is_the_mce_family_of_the_witness(name, element):
    """The escape family of lambda outside FA is the declared mce family
    of lambda's witness pair, and each of its terms lies in Z(lambda)."""
    m = _fa_excluded(name)[element]
    ann = m.graph.annotations
    fam = ann.declared_mce(*ann.fa_false_witness(m))
    ev = ps.compactness_probe(m, B22)
    assert ev.kind == "NonCompact"
    assert ev.family == f"principal({fam.description})"
    assert all(ps.principal(k).contains(m) for k in fam.members())


# -- topology suites ----------------------------------------------------------


def test_basis_property(tg):
    assert ps.check_basis_property(tg, B22)["ok"]
    assert ps.check_basis_property(grid(1), Degree((1, 1)))["ok"]


@pytest.mark.parametrize(
    "make, top, dropped",
    [
        (lambda: lambda_tg(2), "lambda.alpha[2]", "mu"),
        (lambda: grid(2), "h[1,1].k[2,1]", "k[1,1]"),
    ],
)
def test_basis_property_catches_a_non_hereditary_filter(make, top, dropped, monkeypatch):
    """A principal filter with one prefix taken out, added to the
    enumeration: the containment check sees it on every run."""
    graph, bound = make(), Degree((1, 1))
    genuine = ps.enumerate_filters(graph, bound)
    elements = set(graph.prefixes(graph.morphism(top))) | {graph.morphism(top)}
    corrupt = ps.Filter(graph, elements - {graph.morphism(dropped)})
    assert not ps.is_filter(corrupt)[0]
    monkeypatch.setattr(
        ps,
        "enumerate_filters",
        lambda g, b: ps.FilterList(genuine.filters + [corrupt], genuine.exact),
    )
    rep = ps.check_basis_property(graph, bound)
    assert not rep["ok"]
    # each failure names its sets and filter in words, and its reason
    for text in rep["counterexamples"]:
        assert text.endswith(f"at {corrupt}: containment fails")
        assert text.startswith("K1 = {") and "object at" not in text


def test_ps_open(tg3):
    rep = ps.check_ps_open(tg3, B22)
    assert rep["ok"] and rep["ps_size"] == 3 + 3 * 3
    assert ps.check_ps_open(lambda_yee(2), Degree((1, 1)))["ok"]


def test_ps_open_catches_a_point_outside_ps(monkeypatch):
    """A path-space point declared outside PS leaves Z(t), the basic set
    of every other point at t; each failure names both filters and the
    reason."""
    graph = lambda_tg(2)
    outside = ps.principal(graph.morphism("beta[1]"))
    real = ps.in_ps
    monkeypatch.setattr(ps, "in_ps", lambda x: x is not outside and real(x))
    rep = ps.check_ps_open(graph, B22)
    assert not rep["ok"]
    assert rep["counterexamples"] == [
        f"{x}: Z(t) leaves PS at {outside}" for x in ("{t, beta[2]}", "{t}")
    ]


def test_every_enumerated_filter_passes_is_filter(tg3):
    graphs = [tg3, lambda_yee(2)] + finite_examples()
    for g in graphs:
        bound = Degree((2, 2)) if g.rank == 2 else Degree((3,))
        for x in ps.enumerate_filters(g, bound).filters:
            assert ps.is_filter(x) == (True, None)
        for m in g.enumerate_morphisms(bound).morphisms:
            assert ps.is_filter(ps.principal(m)) == (True, None)


def test_ps_characterisations_agree(tg3):
    assert ps.check_ps_characterisations_agree(tg3, B22)["ok"]
    assert ps.check_ps_characterisations_agree(lambda_yee(2), Degree((1, 1)))["ok"]
    for g in finite_examples():
        bound = Degree((2, 2)) if g.rank == 2 else Degree((3,))
        assert ps.check_ps_characterisations_agree(g, bound)["ok"]


def test_paths_call_counts_repeat_on_fresh_graphs(monkeypatch):
    """Morphisms hash by the graph's id, so each fresh graph orders its
    filters' elements differently.  The paths suites scan filters in
    sorted order, so the calls made before a short-circuit are the same
    on every fresh graph."""
    counts = collections.Counter()

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    is_fa = alignment.is_fa
    for mod in (alignment, ps):
        monkeypatch.setattr(mod, "is_fa", counted("is_fa", is_fa))
    monkeypatch.setattr(KGraph, "prefix_leq", counted("prefix_leq", KGraph.prefix_leq))
    args = cli.build_parser().parse_args(["paths", "--graph", "yee"])
    seen = []
    for _ in range(3):
        graph = lambda_yee(2)
        counts.clear()
        cli.cmd_paths(args, graph, B22)
        seen.append(dict(counts))
    assert seen[0]["is_fa"] and seen[0]["prefix_leq"]
    assert seen[0] == seen[1] == seen[2]
