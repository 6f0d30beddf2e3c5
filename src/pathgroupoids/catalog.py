"""Built-in graphs: the three infinite 2-graph examples and small finite
fixtures.

Ground truth ships as machine-checkable annotations (membership
predicates, witness constructors, declared infinite families) rather
than hard-coded test constants, so the same cross-validation harness
runs on user graphs.  Escape families for non-compact cylinders are not
annotations: the one for lambda outside FA is the declared mce family of
lambda's re-verified witness pair.

Color convention: solid edges in the skeleton drawings are color 1,
dashed edges are color 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .kgraph import Edge, EdgeFamily, KGraph, Morphism, Name


@dataclass(frozen=True)
class MorphismFamily:
    """An N-indexed family of morphisms, e.g. n -> lambda.alpha[n].

    `flavor` describes how the terms relate, which is what makes limit
    computations at a bound sound:

    - "disjoint": distinct terms share exactly their common prefixes
      (each non-shared morphism lies in at most one term's principal
      filter);
    - "increasing": each term is a prefix of the next.
    """

    description: str
    indices: tuple[int, ...]
    member: Callable[[int], Morphism]
    flavor: str = "disjoint"

    def members(self) -> list[Morphism]:
        return [self.member(i) for i in self.indices]


@dataclass
class CatalogAnnotations:
    """Declared ground truth for an infinite catalog graph.  The escape
    family of lambda outside FA is derived from it, as
    ``declared_mce(*fa_false_witness(lambda))``.  `fa_certified_all` is
    the FA(Lambda) = Lambda certificate the Spielberg operations require;
    a graph that sets it excludes nothing through `fa_excluded`."""

    fa_excluded: Callable[[Morphism], bool]
    fa_certified_all: bool = False
    declared_mce: Callable[[Morphism, Morphism], Optional[MorphismFamily]] = lambda a, b: None
    fa_false_witness: Callable[[Morphism], Optional[tuple[Morphism, Morphism]]] = lambda m: None
    filter_families: list[MorphismFamily] = field(default_factory=list)


# -- Lambda_tg ------------------------------------------------------------


def lambda_tg(cutoff: int = 3) -> KGraph:
    """The 2-graph with vertices t, u, v, w, solid edges lambda: w -> v
    and beta[n]: u -> t, dashed edges mu: t -> v and alpha[n]: u -> w,
    and squares mu.beta[n] = lambda.alpha[n].

    Finitely aligned everywhere except at v, lambda and mu.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    t, u, v, w = Name("t"), Name("u"), Name("v"), Name("w")
    lam, mu = Name("lambda"), Name("mu")
    edges = [Edge(lam, 1, w, v), Edge(mu, 2, t, v)]
    squares = []
    for n in range(1, cutoff + 1):
        edges.append(Edge(Name("beta", (n,)), 1, u, t))
        edges.append(Edge(Name("alpha", (n,)), 2, u, w))
        squares.append(((Name("mu"), Name("beta", (n,))), (Name("lambda"), Name("alpha", (n,)))))
    families = [
        EdgeFamily("beta", 1, 1, "t"),
        EdgeFamily("alpha", 2, 1, "w"),
    ]
    g = KGraph("tg", 2, [t, u, v, w], edges, squares, families=families)

    lam_m, mu_m = g.edge_morphism(lam), g.edge_morphism(mu)
    v_m = g.unit(v)
    excluded = {v_m, lam_m, mu_m}
    indices = tuple(range(1, cutoff + 1))

    def mce_family(n: int) -> Morphism:
        return g.compose(mu_m, g.edge_morphism(Name("beta", (n,))))

    infinite_pair = MorphismFamily("lambda.alpha[n]", indices, mce_family)

    def declared_mce(a: Morphism, b: Morphism) -> Optional[MorphismFamily]:
        if {a, b} == {lam_m, mu_m}:
            return infinite_pair
        return None

    def witness(m: Morphism) -> Optional[tuple[Morphism, Morphism]]:
        if m == mu_m:
            return (mu_m, lam_m)
        if m in excluded:
            return (lam_m, mu_m)
        return None

    families_decl = [
        MorphismFamily("alpha[n]", indices, lambda n: g.edge_morphism(Name("alpha", (n,)))),
        MorphismFamily("beta[n]", indices, lambda n: g.edge_morphism(Name("beta", (n,)))),
        infinite_pair,
    ]
    g.annotations = CatalogAnnotations(
        fa_excluded=lambda m: m in excluded,
        declared_mce=declared_mce,
        fa_false_witness=witness,
        filter_families=families_decl,
    )
    return g


# -- Lambda_tg^infinity ---------------------------------------------------


def lambda_tg_infinity(blocks: int = 2, cutoff: int = 3) -> KGraph:
    """Block-glued copies of tg: block m has vertices t[m], v[m], w[m]
    and the junction vertex v[m+1] in place of u.

    One extra bridge block of edges is materialised beyond `blocks` so
    that every enumerated morphism owns an in-fragment witness pair for
    the failure of finite alignment.  The square set is not complete at
    the junctions (composites like beta[1,n].mu[2] have no complementary
    factorisation), so the graph is handled as a word category.
    """
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    mat = blocks + 1  # edge blocks actually materialised
    vertices = (
        [Name("v", (m,)) for m in range(1, mat + 2)]
        + [Name("t", (m,)) for m in range(1, mat + 1)]
        + [Name("w", (m,)) for m in range(1, mat + 1)]
    )
    edges, squares = [], []
    for m in range(1, mat + 1):
        vm, tm, wm, vnext = Name("v", (m,)), Name("t", (m,)), Name("w", (m,)), Name("v", (m + 1,))
        edges.append(Edge(Name("lambda", (m,)), 1, wm, vm))
        edges.append(Edge(Name("mu", (m,)), 2, tm, vm))
        for n in range(1, cutoff + 1):
            edges.append(Edge(Name("beta", (m, n)), 1, vnext, tm))
            edges.append(Edge(Name("alpha", (m, n)), 2, vnext, wm))
            squares.append(
                (
                    (Name("mu", (m,)), Name("beta", (m, n))),
                    (Name("lambda", (m,)), Name("alpha", (m, n))),
                )
            )
    families = [
        EdgeFamily("lambda", 1, 1, "v", 1),
        EdgeFamily("mu", 2, 1, "v", 1),
        EdgeFamily("beta", 1, 2, "t", 1),
        EdgeFamily("alpha", 2, 2, "w", 1),
    ]

    def window(m: Morphism) -> bool:
        if m.range.index[0] > blocks:
            return False
        s = m.source
        limit = blocks + 1 if s.base == "v" else blocks
        return s.index[0] <= limit

    g = KGraph(
        "tg-infinity",
        2,
        vertices,
        edges,
        squares,
        families=families,
        window=window,
        expect_complete=False,
    )

    def lam_edge(n):
        return g.edge_morphism(Name("lambda", (n,)))

    def mu_edge(n):
        return g.edge_morphism(Name("mu", (n,)))

    def witness(m: Morphism) -> tuple[Morphism, Morphism]:
        s = m.source
        if s.base == "v":
            prefix, n = m, s.index[0]
        elif s.base == "t":
            j = s.index[0]
            prefix, n = g.compose(m, g.edge_morphism(Name("beta", (j, 1)))), j + 1
        else:
            j = s.index[0]
            prefix, n = g.compose(m, g.edge_morphism(Name("alpha", (j, 1)))), j + 1
        return (g.compose(prefix, lam_edge(n)), g.compose(prefix, mu_edge(n)))

    indices = tuple(range(1, cutoff + 1))

    def family_for(mu_: Morphism, n: int) -> MorphismFamily:
        return MorphismFamily(
            f"{mu_}.alpha[{n},j]",
            indices,
            lambda j, _m=mu_, _n=n: g.compose(_m, g.edge_morphism(Name("alpha", (_n, j)))),
        )

    def strip(a: Morphism, last: Morphism) -> Optional[Morphism]:
        """kappa with kappa.last = a, or None."""
        if a.source != last.source or not last.degree.leq(a.degree):
            return None
        for kappa in g.fiber(a.range, a.degree.sub(last.degree)).elements:
            if kappa.source == last.range and g.compose(kappa, last) == a:
                return kappa
        return None

    def declared_mce(a: Morphism, b: Morphism) -> Optional[MorphismFamily]:
        for first, second in ((a, b), (b, a)):
            if first.source.base != "w" or second.source.base != "t":
                continue
            n = first.source.index[0]
            if n != second.source.index[0]:
                continue
            kappa = strip(first, lam_edge(n))
            if kappa is not None and g.compose(kappa, mu_edge(n)) == second:
                return family_for(first, n)
        return None

    g.annotations = CatalogAnnotations(
        fa_excluded=lambda m: True,
        declared_mce=declared_mce,
        fa_false_witness=witness,
    )
    return g


# -- Lambda_Y (Yeend) -----------------------------------------------------


def lambda_yee(cutoff: int = 3) -> KGraph:
    """Yeend's 2-graph: vertices v, w, t[i], u[i,j]; solid lambda: w -> v
    and beta[i,j]: u[i,j] -> t[i]; dashed mu[i]: t[i] -> v and
    alpha[i,j]: u[i,j] -> w; squares mu[i].beta[i,j] = lambda.alpha[i,j].

    Finitely aligned somewhere: FA excludes exactly v, lambda and the
    mu[i].
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    v, w = Name("v"), Name("w")
    vertices = [v, w]
    edges = [Edge(Name("lambda"), 1, w, v)]
    squares = []
    for i in range(1, cutoff + 1):
        ti = Name("t", (i,))
        vertices.append(ti)
        edges.append(Edge(Name("mu", (i,)), 2, ti, v))
        for j in range(1, cutoff + 1):
            uij = Name("u", (i, j))
            vertices.append(uij)
            edges.append(Edge(Name("beta", (i, j)), 1, uij, ti))
            edges.append(Edge(Name("alpha", (i, j)), 2, uij, w))
            squares.append(
                (
                    (Name("mu", (i,)), Name("beta", (i, j))),
                    (Name("lambda"), Name("alpha", (i, j))),
                )
            )
    families = [
        EdgeFamily("mu", 2, 1, "v"),
        EdgeFamily("beta", 1, 2, "t", 1),
        EdgeFamily("alpha", 2, 2, "w"),
    ]
    g = KGraph("yee", 2, vertices, edges, squares, families=families)

    lam_m = g.edge_morphism(Name("lambda"))
    v_m = g.unit(v)
    indices = tuple(range(1, cutoff + 1))

    def mu_m(i):
        return g.edge_morphism(Name("mu", (i,)))

    def lam_alpha(i, j):
        return g.compose(lam_m, g.edge_morphism(Name("alpha", (i, j))))

    def excluded(m: Morphism) -> bool:
        return m == v_m or (len(m.word) == 1 and m.word[0].base in ("lambda", "mu"))

    def pair_family(i: int) -> MorphismFamily:
        return MorphismFamily(f"lambda.alpha[{i},j]", indices, lambda j, _i=i: lam_alpha(_i, j))

    def declared_mce(a: Morphism, b: Morphism) -> Optional[MorphismFamily]:
        for first, second in ((a, b), (b, a)):
            if first == lam_m and len(second.word) == 1 and second.word[0].base == "mu":
                return pair_family(second.word[0].index[0])
        return None

    def witness(m: Morphism) -> Optional[tuple[Morphism, Morphism]]:
        if m == v_m or m == lam_m:
            return (lam_m, mu_m(1))
        if len(m.word) == 1 and m.word[0].base == "mu":
            return (m, lam_m)
        return None

    filter_families = []
    for i in indices:
        filter_families.append(
            MorphismFamily(f"beta[{i},j]", indices, lambda j, _i=i: g.edge_morphism(Name("beta", (_i, j))))
        )
        filter_families.append(
            MorphismFamily(f"alpha[{i},j]", indices, lambda j, _i=i: g.edge_morphism(Name("alpha", (_i, j))))
        )
        filter_families.append(pair_family(i))
    filter_families.append(MorphismFamily("mu[i]", indices, mu_m))
    filter_families.append(
        MorphismFamily("alpha[i,1]", indices, lambda i: g.edge_morphism(Name("alpha", (i, 1))))
    )
    filter_families.append(MorphismFamily("lambda.alpha[i,1]", indices, lambda i: lam_alpha(i, 1)))

    g.annotations = CatalogAnnotations(
        fa_excluded=excluded,
        declared_mce=declared_mce,
        fa_false_witness=witness,
        filter_families=filter_families,
    )
    return g


# -- finite fixtures ------------------------------------------------------


def grid(side: int = 2) -> KGraph:
    """Truncated Omega_2: vertices g[i,j] for 0 <= i,j <= side, one
    commuting square per lattice cell.  Finite and finitely aligned."""
    vertices = [Name("g", (i, j)) for i in range(side + 1) for j in range(side + 1)]
    edges, squares = [], []
    for i in range(side):
        for j in range(side + 1):
            edges.append(Edge(Name("h", (i, j)), 1, Name("g", (i + 1, j)), Name("g", (i, j))))
    for i in range(side + 1):
        for j in range(side):
            edges.append(Edge(Name("k", (i, j)), 2, Name("g", (i, j + 1)), Name("g", (i, j))))
    for i in range(side):
        for j in range(side):
            squares.append(
                (
                    (Name("k", (i, j)), Name("h", (i, j + 1))),
                    (Name("h", (i, j)), Name("k", (i + 1, j))),
                )
            )
    return KGraph("grid", 2, vertices, edges, squares)


def squares_graph() -> KGraph:
    """A finite 2-graph on four vertices with two parallel edges in each
    position and a twisted (non-product) square pairing."""
    nw, ne, sw, se = Name("nw"), Name("ne"), Name("sw"), Name("se")
    edges = []
    for i in (1, 2):
        edges.append(Edge(Name("h", (i,)), 1, ne, nw))
        edges.append(Edge(Name("p", (i,)), 1, se, sw))
        edges.append(Edge(Name("m", (i,)), 2, sw, nw))
        edges.append(Edge(Name("q", (i,)), 2, se, ne))
    pairing = {(1, 1): (1, 1), (1, 2): (2, 2), (2, 1): (1, 2), (2, 2): (2, 1)}
    squares = []
    for (k, l), (i, j) in pairing.items():
        squares.append(
            (
                (Name("m", (k,)), Name("p", (l,))),
                (Name("h", (i,)), Name("q", (j,))),
            )
        )
    return KGraph("squares", 2, [nw, ne, sw, se], edges, squares)


def line(length: int = 3) -> KGraph:
    """A 1-graph whose skeleton is a directed line; the finite rank-1
    fixture (a cyclic skeleton never generates a finite category)."""
    vertices = [Name("p", (i,)) for i in range(length + 1)]
    edges = [
        Edge(Name("g", (i,)), 1, Name("p", (i + 1,)), Name("p", (i,))) for i in range(length)
    ]
    return KGraph("line", 1, vertices, edges)


def cycle(size: int = 3, depth: int = 6) -> KGraph:
    """A 1-graph cycle: infinitely many paths over a finite skeleton.
    Row-finite and deterministic, hence finitely aligned everywhere;
    annotated as such because the category is infinite."""
    vertices = [Name("c", (i,)) for i in range(size)]
    edges = [
        Edge(Name("f", (i,)), 1, Name("c", ((i + 1) % size,)), Name("c", (i,)))
        for i in range(size)
    ]
    g = KGraph("cycle", 1, vertices, edges)

    def path_from(i: int, n: int) -> Morphism:
        word = tuple(Name("f", ((i + step) % size,)) for step in range(n))
        return Morphism(g, Name("c", (i,)), word)

    g.annotations = CatalogAnnotations(
        fa_excluded=lambda m: False,
        fa_certified_all=True,
        filter_families=[
            MorphismFamily(
                f"path(c[{i}],n)",
                tuple(range(1, depth + 1)),
                lambda n, _i=i: path_from(_i, n),
                flavor="increasing",
            )
            for i in range(size)
        ],
    )
    return g


def finite_examples() -> list[KGraph]:
    """The finite fixtures used as exact brute-force oracles."""
    return [line(3), grid(2), squares_graph()]


_BUILDERS: dict[str, Callable[..., KGraph]] = {
    "tg": lambda cutoff=3, **_: lambda_tg(cutoff),
    "tg-infinity": lambda cutoff=3, blocks=2, **_: lambda_tg_infinity(blocks, cutoff),
    "yee": lambda cutoff=3, **_: lambda_yee(cutoff),
    "grid": lambda **_: grid(2),
    "cycle": lambda **_: cycle(3),
    "squares": lambda **_: squares_graph(),
    "line": lambda **_: line(3),
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def by_name(name: str, cutoff: int = 3, blocks: int = 2) -> KGraph:
    """The catalog graph `name`; graphs without families ignore `cutoff`,
    and all but tg-infinity ignore `blocks`."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown catalog graph {name!r}; known: {', '.join(catalog_names())}")
    return builder(cutoff=cutoff, blocks=blocks)
