import collections
import dataclasses
import importlib.util
import itertools
import pathlib
import random

import pytest

from pathgroupoids import alignment as al
from pathgroupoids.alignment import MceKind, Verdict
from pathgroupoids.catalog import (
    finite_examples,
    grid,
    lambda_tg,
    lambda_tg_infinity,
    lambda_yee,
    squares_graph,
)
from pathgroupoids.degree import Degree
from pathgroupoids.kgraph import KGraphError, load_presentation
from test_oracles import brute_ideal_intersection, brute_union_of_ideals

B22 = Degree((2, 2))

USER_DOC = """
vertices: t u v w
edges:
  lambda 1 w -> v
  mu     2 t -> v
  beta[n]  1 u -> t
  alpha[n] 2 u -> w
squares:
  mu.beta[n] = lambda.alpha[n]
"""


def _gen_product(size=(2, 2, 2, 1), seed=7):
    """A seeded twisted product from the benchmark's generator."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return load_presentation(gen.twisted_product(*size, random.Random(seed)))


@pytest.fixture(scope="module")
def tg():
    return lambda_tg(3)


def test_mce_examples(tg):
    lam, mu = tg.morphism("lambda"), tg.morphism("mu")
    res = al.mce(lam, mu)
    assert res.kind is MceKind.DECLARED_INFINITE
    assert [str(m) for m in res.elements] == [f"lambda.alpha[{n}]" for n in (1, 2, 3)]

    a1 = tg.morphism("alpha[1]")
    res = al.mce(a1, a1)
    assert res.kind is MceKind.EXACT_FINITE and list(res.elements) == [a1]

    res = al.mce(a1, tg.morphism("beta[1]"))  # different ranges
    assert res.kind is MceKind.EXACT_FINITE and res.elements == ()


def test_fa_at_pair_examples(tg):
    assert al.fa_at_pair(tg.morphism("lambda"), tg.morphism("mu")).value is Verdict.FALSE
    v = al.fa_at_pair(tg.morphism("beta[1]"), tg.morphism("beta[2]"))
    assert v.value is Verdict.TRUE and v.record["mce_size"] == 0


def test_fa_at_examples(tg):
    w = al.fa_at(tg.unit(tg.vertex("w")), B22)
    assert w.value is Verdict.TRUE and w.record["unknown"] == 0
    lam = al.fa_at(tg.morphism("lambda"), B22)
    assert lam.value is Verdict.FALSE
    assert tuple(str(m) for m in lam.witness) == ("lambda", "mu")


def test_fa_set_tg(tg):
    out = al.fa_set(tg, B22)
    excluded = sorted(str(m) for m, v in out if v.value is not Verdict.TRUE)
    assert excluded == ["lambda", "mu", "v"]
    assert all(v.value in (Verdict.TRUE, Verdict.FALSE) for _, v in out)


def test_fa_set_yee():
    y = lambda_yee(3)
    out = al.fa_set(y, Degree((1, 1)))
    excluded = sorted(str(m) for m, v in out if v.value is not Verdict.TRUE)
    assert excluded == ["lambda", "mu[1]", "mu[2]", "mu[3]", "v"]


def test_fa_set_tg_infinity_all_false_with_reverifying_witnesses():
    g = lambda_tg_infinity(2, 3)
    out = al.fa_set(g, B22)
    assert out and all(v.value is Verdict.FALSE for _, v in out)
    for m, v in out:
        wmu, wnu = v.witness
        assert g.prefix_leq(m, wmu)
        assert al.mce(wmu, wnu).kind is MceKind.DECLARED_INFINITE


def test_user_presentation_gets_honest_unknowns():
    """Without annotations no pair can be False: even lam, whose pair
    (lambda, mu) has infinitely many common extensions, is unknown after
    a search over every pair."""
    g = load_presentation(USER_DOC, cutoff=3)  # no annotations attached
    lam = g.morphism("lambda")
    v = al.fa_at(lam, B22)
    same_range = [n for n in g.enumerate_morphisms(B22).morphisms if n.range == lam.range]
    pairs = len(g.right_ideal(lam, B22)) * len(same_range)
    assert v.value is Verdict.UNKNOWN_AT_BOUND and v.witness is None
    assert v.record == {"mode": "search", "pairs": pairs}
    assert al.fa_at_pair(lam, g.morphism("mu")).value is Verdict.UNKNOWN_AT_BOUND


def test_finite_graphs_are_true_everywhere():
    for g in finite_examples():
        bound = Degree((2, 2)) if g.rank == 2 else Degree((3,))
        assert all(v.value is Verdict.TRUE for _, v in al.fa_set(g, bound))


# -- brute-force oracle for exact MCEs ---------------------------------------


def test_exact_mce_matches_ideal_intersection_on_finite_graphs():
    """mu.Lambda cap nu.Lambda equals the union of the ideals of the
    computed common extensions, by exhaustive scan."""
    for g in finite_examples():
        morphs = g.all_morphisms()
        for mu, nu in itertools.product(morphs, morphs):
            res = al.mce(mu, nu)
            assert res.kind is MceKind.EXACT_FINITE
            lhs = brute_ideal_intersection(g, mu, nu)
            rhs = brute_union_of_ideals(g, res.elements)
            assert lhs == rhs, (str(mu), str(nu))


@pytest.mark.parametrize("maker", [lambda: grid(2), squares_graph])
def test_exhaustive_fa_at_counts_every_pair(maker):
    """On a finite graph fa_at(lam) pairs every mu in lam.Lambda with
    every nu in r(lam).Lambda, counted here by exhaustive scan."""
    g = maker()
    morphs = g.all_morphisms()
    for lam in morphs:
        ideal = [m for m in morphs if g.prefix_leq(lam, m)]
        same_range = [n for n in morphs if n.range == lam.range]
        record = al.fa_at(lam, B22).record
        assert record == {"mode": "exhaustive", "pairs": len(ideal) * len(same_range)}, str(lam)


# -- fa_at sums one row of pairs per mu ---------------------------------------


def nested_fa_at(lam, bound):
    """fa_at as one nested scan over every (mu, nu) pair per lam: the
    reference for the row sums.  The annotation branch scans no pairs and
    is left to fa_at."""
    graph = lam.graph
    ann = graph.annotations
    if graph.is_finite:
        bound = al._max_degree(graph)
    elif ann is not None and not ann.fa_certified_all and ann.fa_excluded(lam):
        return al.fa_at(lam, bound)
    candidates = [n for n in graph.enumerate_morphisms(bound).morphisms if n.range == lam.range]
    pairs = unknown = 0
    for mu in graph.right_ideal(lam, bound):
        for nu in candidates:
            v = al.fa_at_pair(mu, nu).value
            pairs += 1
            assert v is not Verdict.FALSE, (str(lam), str(mu), str(nu))
            unknown += v is Verdict.UNKNOWN_AT_BOUND
    if graph.is_finite:
        assert unknown == 0
        return al.FaVerdict(Verdict.TRUE, record={"mode": "exhaustive", "pairs": pairs})
    if ann is not None:
        record = {"mode": "annotation+bounded", "pairs": pairs, "unknown": unknown}
        return al.FaVerdict(Verdict.TRUE, record=record)
    return al.FaVerdict(Verdict.UNKNOWN_AT_BOUND, record={"mode": "search", "pairs": pairs})


MAKERS = {
    "line": lambda: finite_examples()[0],
    "grid": lambda: grid(2),
    "squares": squares_graph,
    "tg": lambda: lambda_tg(3),
    "tg-infinity": lambda: lambda_tg_infinity(2, 3),
    "yee": lambda: lambda_yee(3),
    "user": lambda: load_presentation(USER_DOC, cutoff=3),
    "product": _gen_product,
}


def _bound(g):
    return B22 if g.rank == 2 else Degree((2,))


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_row_sums_match_the_nested_scan(name):
    g = MAKERS[name]()
    bound = _bound(g)
    for lam in g.enumerate_morphisms(bound).morphisms:
        assert al.fa_at(lam, bound) == nested_fa_at(lam, bound), str(lam)


@pytest.mark.parametrize("name", ["line", "grid", "squares", "user", "product"])
def test_fa_set_runs_mce_once_per_pair(name, monkeypatch):
    g = MAKERS[name]()
    calls = collections.Counter()
    mce = al.mce

    def counted(mu, nu):
        calls[mu, nu] += 1
        return mce(mu, nu)

    monkeypatch.setattr(al, "mce", counted)
    al.fa_set(g, _bound(g))
    assert calls and set(calls.values()) == {1}


def test_false_pair_under_an_fa_annotation_raises_on_every_call():
    """Rows are memoised, and the error is raised from them on each call."""
    g = lambda_tg(3)
    g.annotations = dataclasses.replace(g.annotations, fa_excluded=lambda m: False)
    v = g.unit(g.vertex("v"))
    messages = []
    for _ in range(2):
        with pytest.raises(al.AnnotationError) as err:
            al.fa_at(v, B22)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("v is annotated finitely aligned but (")


def test_finite_graph_with_an_inexact_pair_raises(monkeypatch):
    g = grid(2)
    monkeypatch.setattr(
        al, "fa_at_pair", lambda mu, nu: al.FaVerdict(Verdict.UNKNOWN_AT_BOUND)
    )
    lam = g.enumerate_morphisms(B22).morphisms[-1]
    first_nu = next(n for n in g.all_morphisms() if n.range == lam.range)
    with pytest.raises(KGraphError, match="is not exactly finite") as err:
        al.fa_at(lam, B22)
    assert f"pair ({lam}, {first_nu})" in str(err.value)


def test_mce_elements_have_lub_degree(tg):
    for a in ("lambda", "mu", "beta[1]", "alpha[2]"):
        for b in ("lambda", "mu", "beta[1]"):
            ma, mb = tg.morphism(a), tg.morphism(b)
            res = al.mce(ma, mb)
            for el in res.elements:
                assert el.degree == ma.degree.lub(mb.degree)
                assert tg.prefix_leq(ma, el) and tg.prefix_leq(mb, el)


# -- structure of the finitely aligned part ----------------------------------


def test_fa_structure_tg(tg):
    rep = al.check_fa_structure(tg, B22)
    assert rep["ok"]
    # the range map escapes FA exactly at the square composites
    assert "lambda.alpha[1]" in rep["range_counterexamples"]


def test_fa_structure_yee_and_finite():
    rep = al.check_fa_structure(lambda_yee(3), Degree((1, 1)))
    assert rep["ok"]
    for g in finite_examples():
        bound = Degree((2, 2)) if g.rank == 2 else Degree((3,))
        rep = al.check_fa_structure(g, bound)
        assert rep["ok"]
        assert rep["range_counterexamples"] == []


def test_constellation(tg):
    assert al.validate_constellation(tg, B22)["ok"]
    rep = al.validate_constellation(lambda_tg_infinity(2, 2), B22)
    assert rep["ok"] and rep["vacuous"]
    assert al.validate_constellation(grid(2), B22)["ok"]


def test_relative_category_of_paths(tg):
    rep = al.validate_relative_cop(tg, B22)
    assert rep["ok"]
    # FAr(tg) adds exactly the vertex v back
    in_far = al.far_predicate(tg, B22)
    members = {str(m) for m in tg.enumerate_morphisms(B22).morphisms if in_far(m)}
    universe = {str(m) for m in tg.enumerate_morphisms(B22).morphisms}
    assert universe - members == {"lambda", "mu"}
    # ... but is not itself a 2-graph: the degree-(1,0) prefix of the
    # square composite escapes
    assert not rep["is_k_graph"]
    gaps = {(g["element"], tuple(g["degree"])) for g in rep["factorisation_gaps"]}
    assert ("lambda.alpha[1]", (1, 0)) in gaps


def test_relative_cop_finite_graphs():
    for g in finite_examples():
        bound = Degree((2, 2)) if g.rank == 2 else Degree((3,))
        rep = al.validate_relative_cop(g, bound)
        assert rep["ok"] and rep["is_k_graph"]


def test_relative_cop_yee():
    rep = al.validate_relative_cop(lambda_yee(2), Degree((1, 1)))
    assert rep["ok"]
