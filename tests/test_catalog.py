import pytest

from pathgroupoids import alignment as al
from pathgroupoids.catalog import (
    by_name,
    catalog_names,
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
from pathgroupoids.kgraph import Name


def test_registry():
    assert set(catalog_names()) >= {"tg", "tg-infinity", "yee", "grid", "cycle", "squares", "line"}
    assert by_name("tg", cutoff=2).name == "tg"
    with pytest.raises(KeyError):
        by_name("nope")


def test_tg_skeleton():
    g = lambda_tg(3)
    assert len(g.vertices) == 4
    assert {str(v) for v in g.vertices} == {"t", "u", "v", "w"}
    assert not g.is_finite
    ann = g.annotations
    assert ann.fa_excluded(g.morphism("lambda"))
    assert ann.fa_excluded(g.unit(g.vertex("v")))
    assert not ann.fa_excluded(g.morphism("beta[2]"))


def test_tg_declared_mce_is_cross_validated_and_grows():
    """The declared infinite family agrees with the enumerated common
    extensions at every cutoff, and keeps producing new elements as the
    cutoff grows."""
    sizes = []
    for cutoff in (2, 4, 6):
        g = lambda_tg(cutoff)
        res = al.mce(g.morphism("lambda"), g.morphism("mu"))
        assert res.kind is al.MceKind.DECLARED_INFINITE
        assert res.family == "lambda.alpha[n]"
        assert [str(m) for m in res.elements] == [
            f"lambda.alpha[{n}]" for n in range(1, cutoff + 1)
        ]
        sizes.append(len(res.elements))
    assert sizes == [2, 4, 6]


@pytest.mark.parametrize(
    "build", [lambda_tg, lambda_yee, lambda c: lambda_tg_infinity(blocks=2, cutoff=c)]
)
@pytest.mark.parametrize("cutoff", [0, -1])
def test_cutoff_below_one_is_rejected(build, cutoff):
    with pytest.raises(ValueError, match="cutoff must be >= 1"):
        build(cutoff)


def test_tg_infinity_structure():
    g = lambda_tg_infinity(blocks=1, cutoff=2)
    # one user-facing block plus a bridge layer of names
    window = g.enumerate_morphisms(Degree((1, 1))).morphisms
    ranges = {m.range.base + str(m.range.index) for m in window}
    assert all(m.range.index[0] == 1 for m in window)
    sources = {m.source for m in window}
    assert Name("v", (2,)) in sources  # the junction vertex stands in for u
    # bridge edges exist even though the window hides them
    assert Name("lambda", (2,)) in g.edges
    assert not g.expect_complete


def test_tg_infinity_is_a_word_category_at_junctions():
    g = lambda_tg_infinity(2, 2)
    b = g.morphism("beta[1,1]")
    mu2 = g.morphism("mu[2]")
    junction = g.compose(b, mu2)  # composable, but with no square across it
    assert str(junction) == "beta[1,1].mu[2]"
    from pathgroupoids.kgraph import FactorizationError

    with pytest.raises(FactorizationError):
        g.factorize(junction, Degree((0, 1)))


def test_tg_infinity_witnesses():
    g = lambda_tg_infinity(2, 3)
    ann = g.annotations
    w1 = g.unit(g.vertex("w[1]"))
    mu_w, nu_w = ann.fa_false_witness(w1)
    # the witness recipe lands at the next junction vertex v[2]
    assert str(mu_w) == "alpha[1,1].lambda[2]"
    assert str(nu_w) == "alpha[1,1].mu[2]"
    res = al.mce(mu_w, nu_w)
    assert res.kind is al.MceKind.DECLARED_INFINITE
    v1 = g.unit(g.vertex("v[1]"))
    mu_v, nu_v = ann.fa_false_witness(v1)
    assert (str(mu_v), str(nu_v)) == ("lambda[1]", "mu[1]")


def test_yee_structure():
    g = lambda_yee(3)
    names = {str(v) for v in g.vertices}
    assert {"v", "w", "t[1]", "t[2]", "t[3]", "u[1,1]", "u[3,3]"} <= names
    assert len(g.vertices) == 2 + 3 + 9
    res = al.mce(g.morphism("lambda"), g.morphism("mu[2]"))
    assert res.kind is al.MceKind.DECLARED_INFINITE
    assert [str(m) for m in res.elements] == [f"lambda.alpha[2,{j}]" for j in (1, 2, 3)]


def test_finite_examples_are_finite_and_fully_aligned():
    for g in finite_examples():
        assert g.is_finite
        for m in g.all_morphisms():
            assert al.is_fa(m) is al.Verdict.TRUE
        # all fibers exact
        for v in g.vertices:
            for p in (Degree((1, 1)) if g.rank == 2 else Degree((2,))).downset():
                assert g.fiber(v, p).exact


def test_grid_morphism_count_formula():
    side = 2
    expected = sum(
        (side + 1 - a) * (side + 1 - b) for a in range(side + 1) for b in range(side + 1)
    )
    assert len(grid(side).all_morphisms()) == expected == 36


def test_squares_graph_has_a_twisted_pairing():
    g = squares_graph()
    assert len(g.all_morphisms()) == 16
    # the pairing is not a product: h[1] meets both m[1] and m[2]
    firsts = {
        desc[0].index[0]
        for desc, asc in g.squares.items()
        if asc[0] == Name("h", (1,))
    }
    assert firsts == {1, 2}


def test_cycle_is_infinite_but_row_finite():
    g = cycle(3)
    assert not g.is_finite
    for v in g.vertices:
        for n in range(1, 5):
            res = g.fiber(v, Degree((n,)))
            assert len(res.elements) == 1 and res.exact
    assert al.is_fa(g.fiber(g.vertex("c[0]"), Degree((3,))).elements[0]) is al.Verdict.TRUE


def test_line_is_the_finite_rank1_fixture():
    g = line(3)
    assert g.is_finite and g.rank == 1
    assert len(g.all_morphisms()) == 10
