import pytest

from pathgroupoids import action as ac
from pathgroupoids import groupoid as gp
from pathgroupoids import pspace as ps
from pathgroupoids.alignment import Verdict
from pathgroupoids.catalog import grid, lambda_tg, squares_graph
from pathgroupoids.degree import Degree
from pathgroupoids.kgraph import KGraphError, Morphism, load_presentation
from test_oracles import gen_product

B22 = Degree((2, 2))


@pytest.fixture(scope="module")
def tg():
    return lambda_tg(2)


def test_shift_off_examples(tg):
    pf = ps.principal(tg.morphism("mu.beta[1]"))
    assert {str(m) for m in ac.shift_off(tg.morphism("mu"), pf).elements} == {"t", "beta[1]"}
    assert {str(m) for m in ac.shift_off(tg.morphism("lambda"), pf).elements} == {
        "w", "alpha[1]"
    }
    assert ac.shift_off(tg.unit(pf.range), pf) == pf


def test_shift_off_requires_membership(tg):
    w = ps.principal(tg.unit(tg.vertex("w")))
    with pytest.raises(ac.ShiftDomainError):
        ac.shift_off(tg.morphism("lambda"), w)


def test_shift_on_examples(tg):
    w = ps.principal(tg.unit(tg.vertex("w")))
    lifted = ac.shift_on(tg.morphism("lambda"), w)
    assert {str(m) for m in lifted.elements} == {"v", "lambda"}
    assert not ps.in_ps(lifted)  # the path space is not closed under right shifts
    b1 = ps.principal(tg.morphism("beta[1]"))
    assert ac.shift_on(tg.morphism("mu"), b1) == ps.principal(tg.morphism("mu.beta[1]"))
    assert ac.shift_on(tg.unit(w.range), w) == w


def test_shift_on_requires_matching_range(tg):
    u = ps.principal(tg.unit(tg.vertex("u")))
    with pytest.raises(ac.ShiftDomainError):
        ac.shift_on(tg.morphism("lambda"), u)


def test_act_examples(tg):
    pf = ps.principal(tg.morphism("mu.beta[1]"))
    assert {str(m) for m in ac.act(pf, Degree((0, 1))).elements} == {"t", "beta[1]"}
    assert ac.act(pf, Degree((0, 0))) == pf
    assert {str(m) for m in ac.act(pf, Degree((1, 1))).elements} == {"u"}


def test_act_outside_path_space_is_refused(tg):
    down_lambda = ps.principal(tg.morphism("lambda"))
    with pytest.raises(ac.NotInPathSpaceError):
        ac.act(down_lambda, Degree((1, 0)))


def test_act_refuses_unknown_verdicts():
    doc = """
vertices: t u v w
edges:
  lambda 1 w -> v
  mu     2 t -> v
  beta[n]  1 u -> t
  alpha[n] 2 u -> w
squares:
  mu.beta[n] = lambda.alpha[n]
"""
    g = load_presentation(doc, cutoff=2)  # no annotations: verdicts unknown
    x = ps.principal(g.morphism("mu.beta[1]"))
    assert ps.ps_membership(x)[0] is Verdict.UNKNOWN_AT_BOUND
    with pytest.raises(ac.NotInPathSpaceError, match="not a certified path-space point"):
        ac.act(x, Degree((1, 0)))


def test_domain_membership_examples(tg):
    """x lies in the domain D_m iff it holds an element of degree m."""
    pf = ps.principal(tg.morphism("mu.beta[1]"))
    assert str(ac.degree_witness(pf, Degree((1, 0)))) == "lambda"
    u = ps.principal(tg.unit(tg.vertex("u")))
    assert ac.degree_witness(u, Degree((1, 0))) is None
    assert ac.degree_witness(u, Degree((0, 0))).is_unit()


def test_directed_witness_examples(tg):
    pf = ps.principal(tg.morphism("mu.beta[1]"))
    l, witness = ac.directed_witness(pf, Degree((1, 0)), Degree((0, 1)))
    assert l == Degree((1, 1)) and str(witness) == "lambda.alpha[1]"
    l2, w2 = ac.directed_witness(pf, Degree((1, 0)), Degree((1, 0)))
    assert l2 == Degree((1, 0)) and str(w2) == "lambda"
    l3, w3 = ac.directed_witness(pf, Degree((0, 0)), Degree((0, 1)))
    assert l3 == Degree((0, 1)) and str(w3) == "mu"


# -- the per-graph memo -------------------------------------------------------


def _action_calls(graph, bound):
    """(memoised function, public call, arguments of the memoised one)
    over every enumerated (lam, x) and every (x, m), (x, m, n) with m, n
    below the bound."""
    filters = ps.enumerate_filters(graph, bound).filters
    morphs = graph.enumerate_morphisms(bound).morphisms
    degrees = bound.downset()
    for x in filters:
        for lam in morphs:
            yield ac.shift_off, ac.shift_off, (lam, x)
            yield ac.shift_on, ac.shift_on, (lam, x)
        for m in degrees:
            yield ac.degree_witness, ac.degree_witness, (x, m)
            yield ac.act, ac.act, (x, m)
            for n in degrees:
                yield ac.directed_witness, ac.directed_witness, (x, m, n)


@pytest.mark.parametrize(
    "maker", [lambda: grid(2), squares_graph, lambda: lambda_tg(3)], ids=["grid", "squares", "tg"]
)
def test_action_memo_agrees_with_the_unmemoised_functions(maker):
    """Each memoised value equals a fresh computation and is shared on a
    repeat call; a domain error is never cached and raises every time."""
    graph = maker()
    returned = raised = 0
    for memoised, public, args in _action_calls(graph, B22):
        try:
            want = memoised.__wrapped__(*args)
        except KGraphError as exc:
            for _ in range(2):
                with pytest.raises(type(exc)):
                    public(*args)
            raised += 1
            continue
        got = public(*args)
        assert got == want, (memoised.__name__, [str(a) for a in args])
        assert public(*args) is got
        returned += 1
    assert returned and raised


def _reached_filters(graph, bound):
    """Every filter that the enumerations, the path groupoid's elements
    and the shifts and action over the fragment hand out."""
    filters = ps.enumerate_filters(graph, bound).filters
    ps_points = ps.ps_filters(graph, bound).filters
    morphs = graph.enumerate_morphisms(bound).morphisms
    yield from filters
    yield from ps_points
    for g in gp.enumerate_pg(graph, bound):
        yield g.x
        yield g.y
    for x in filters:
        for lam in morphs:
            if x.contains(lam):
                yield ac.shift_off(lam, x)
            if lam.source == x.range:
                yield ac.shift_on(lam, x)
    for x in ps_points:
        for m in bound.downset():
            if ac.degree_witness(x, m) is not None:
                yield ac.act(x, m)


@pytest.mark.parametrize(
    "maker",
    [lambda: grid(2), squares_graph, lambda: lambda_tg(2), gen_product],
    ids=["grid", "squares", "tg", "product"],
)
def test_every_filter_is_the_canonical_one(maker):
    """A graph has one Filter object per set of morphisms, and each
    filter's `ordered` is its elements in sort order."""
    graph = maker()
    checked = 0
    for f in _reached_filters(graph, B22):
        assert ps.canonical_filter(graph, f.elements) is f, str(f)
        assert f.ordered == tuple(sorted(f.elements, key=Morphism.sort_key)), str(f)
        checked += 1
    assert checked


# -- exhaustive invariants ----------------------------------------------------


@pytest.mark.parametrize("maker", [lambda: lambda_tg(2), lambda: grid(2)])
def test_shift_calculus_suites(maker):
    g = maker()
    assert ac.check_roundtrips(g, B22)["ok"]
    assert ac.check_cocycle(g, B22)["ok"]
    assert ac.check_ultrafilter_preservation(g, B22)["ok"]
    rep = ac.check_ps_preservation(g, B22)
    assert rep["ok"]
    if g.name == "tg":
        assert ("lambda", "{w}", "{v, lambda}") in rep["right_shift_escapes"]
    else:
        assert rep["right_shift_escapes"] == []


@pytest.mark.parametrize("maker", [lambda: lambda_tg(2), lambda: grid(2)])
def test_action_axioms(maker):
    g = maker()
    rep = ac.check_action_axioms(g, B22)
    assert rep["ok"] and rep["checked"] > 0


def test_codomain_and_local_homeo_witnesses(tg):
    assert ac.check_codomain_open(tg, B22)["ok"]
    assert ac.check_local_homeo_witness(tg, B22)["ok"]
    gr = grid(2)
    assert ac.check_codomain_open(gr, B22)["ok"]
    assert ac.check_local_homeo_witness(gr, B22)["ok"]


def test_left_shift_continuity_and_right_shift_failure(tg):
    rep = ac.check_shift_continuity(tg, B22)
    assert rep["ok"]  # left shifts commute with the declared limits
    # the recorded right-shift comparison reproduces the non-openness:
    # limits of shift_on(lambda, alpha-family) and the shifted limit differ
    failures = [
        r
        for r in rep["right"]
        if r["family"] == "principal(alpha[n])" and r["prefix"] == "lambda"
    ]
    assert failures and not failures[0]["continuous_here"]
    assert failures[0]["limit_of_images"] == ["lambda", "mu", "v"]
    assert failures[0]["image_of_limit"] == ["lambda", "v"]
