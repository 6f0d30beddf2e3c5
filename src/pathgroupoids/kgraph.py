"""Finitely presented higher-rank graphs with computable word arithmetic.

A graph is materialised from a finite 1-skeleton whose edges may belong to
N-indexed families (``alpha[n]``, ``beta[i,j]``).  Morphisms are words of
edges in composition order: ``word[0]`` is the range-side edge, so a word
``(lambda, alpha[1])`` denotes the composite "first alpha[1], then lambda".
Words are normalised by the commuting squares into color-sorted form
(color-1 block first) wherever a square applies; with a complete square
set in rank 2 this normal form is unique and realises the unique
factorisation property.

Graphs whose square set is declared incomplete (the block-glued catalog
example) are handled as word categories: composition always succeeds, and
factorisation pulls edges through the squares as on complete graphs; a
pull that meets a missing square means that no factorisation exists.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable

from .degree import Degree


class KGraphError(ValueError):
    """Base class for graph construction and arithmetic errors."""


class PresentationError(KGraphError):
    """`line` is the document line at fault; `at` names the edge or square
    at fault when a graph is built, for `load_presentation` to find its
    line.  `witness` is a word of edge names or a pair of words, printed
    as the document writes them: ``e.f``, ``e.f = g.h``."""

    def __init__(self, message: str, witness: object = None, line: int | None = None, at=None):
        super().__init__(message)
        self.witness, self.line, self.at = witness, line, at

    def __str__(self) -> str:
        message = super().__str__()
        if self.line is not None:
            message = f"line {self.line}: {message}"
        if self.witness is not None:
            message = f"{message} (witness: {_spelled(self.witness)})"
        return message


def _spelled(witness: tuple) -> str:
    if all(isinstance(n, Name) for n in witness):
        return ".".join(map(str, witness))
    return " = ".join(map(_spelled, witness))


class ComposabilityError(KGraphError):
    """Raised when s(mu) != r(nu)."""


class FactorizationError(KGraphError):
    """Raised when a morphism has no prefix at a degree."""


@dataclass(frozen=True, order=True)
class Name:
    """Identifier with an optional integer index tuple, e.g. alpha[1,2]."""

    base: str
    index: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.index:
            return self.base
        return f"{self.base}[{','.join(str(i) for i in self.index)}]"


_NAME_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[([^\]]*)\])?$")


def parse_name(text: str) -> Name:
    m = _NAME_RE.match(text.strip())
    if not m or (m.group(2) is not None and not m.group(2).strip()):
        raise PresentationError(f"malformed name {text!r}")
    base, idx = m.group(1), m.group(2)
    if idx is None:
        return Name(base)
    try:
        return Name(base, tuple(int(p) for p in idx.split(",")))
    except ValueError:
        raise PresentationError(f"malformed name {text!r}: indices must be integers") from None


def _name_at(text: str, lineno: int) -> Name:
    """:func:`parse_name` for a document, with the line in its error."""
    try:
        return parse_name(text)
    except PresentationError as exc:
        raise PresentationError(str(exc), line=lineno) from None


@dataclass(frozen=True)
class Edge:
    name: Name
    color: int
    source: Name
    range: Name


@dataclass(frozen=True)
class EdgeFamily:
    """An N^arity-indexed edge family, materialised up to a cutoff.

    The family is the declaration that the graph continues past the
    cutoff.  Its edges end at vertices `range_base` whose `range_arity`
    indices fix the family's first indices; a fiber at such a vertex
    meets it with a free index, and is infinite, when range_arity <
    arity.
    """

    base: str
    color: int
    arity: int
    range_base: str
    range_arity: int = 0

    def contributes_infinitely(self, vertex: Name) -> bool:
        return (
            vertex.base == self.range_base and len(vertex.index) == self.range_arity < self.arity
        )


class Morphism:
    """A morphism in normal form.  Equality is (graph, range, word)."""

    __slots__ = ("graph", "range", "word", "degree", "_hash")

    def __init__(self, graph: "KGraph", range_vertex: Name, word: tuple[Name, ...]):
        self.graph = graph
        self.range = range_vertex
        self.word = word
        counts = [0] * graph.rank
        for n in word:
            counts[graph.edges[n].color - 1] += 1
        self.degree = Degree(tuple(counts))
        self._hash = hash((id(graph), range_vertex, word))

    @property
    def source(self) -> Name:
        if not self.word:
            return self.range
        return self.graph.edges[self.word[-1]].source

    def is_unit(self) -> bool:
        return not self.word

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Morphism)
            and self.graph is other.graph
            and self.range == other.range
            and self.word == other.word
        )

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self):
        return (self.degree.coords, tuple(str(n) for n in self.word), str(self.range))

    def __str__(self) -> str:
        if not self.word:
            return str(self.range)
        return ".".join(str(n) for n in self.word)

    def __repr__(self) -> str:
        return f"<{self}: {self.source}->{self.range} d={self.degree}>"


def per_graph(fn):
    """Compute ``fn(obj, *args)`` once per graph and keep the value in the
    graph's memo table.  The contract of every memoised function:

    - the key starts with a graph object: `obj` is the graph (``self`` of
      a ``KGraph`` method) or one of its morphisms or filters;
    - the value is shared between callers and never mutated;
    - only returned values are kept: an exception is raised again on
      every call;
    - a value that reads ``annotations`` is computed only after the
      catalog has set them.
    """

    @functools.wraps(fn)
    def memoized(obj, *args):
        graph = obj if isinstance(obj, KGraph) else obj.graph
        key = (fn, obj, *args)
        try:
            return graph._memo[key]
        except KeyError:
            pass
        value = graph._memo[key] = fn(obj, *args)
        return value

    return memoized


@dataclass
class FiberResult:
    elements: list[Morphism]
    exact: bool


@dataclass
class EnumerationResult:
    morphisms: list[Morphism]
    exact: bool


class KGraph:
    """A k-graph (k <= 2) materialised from a skeleton with squares.

    Not thread-safe: reads fill an unbounded memo table, and ``catalog``
    sets ``annotations`` after construction.  ``_memo`` is the graph's only
    cache: :func:`per_graph` fills it, for this module and the modules
    above it, under the contract stated there.
    """

    def __init__(
        self,
        name: str,
        rank: int,
        vertices: Iterable[Name],
        edges: Iterable[Edge],
        squares: Iterable[tuple[tuple[Name, Name], tuple[Name, Name]]] = (),
        families: Iterable[EdgeFamily] = (),
        window: Callable[[Morphism], bool] | None = None,
        expect_complete: bool = True,
    ):
        self.name = name
        self.rank = rank
        self.vertices: list[Name] = sorted(set(vertices))
        self.edges: dict[Name, Edge] = {}
        for e in edges:
            if e.name in self.edges:
                raise PresentationError(f"duplicate edge name {e.name}", at=e.name)
            self.edges[e.name] = e
        self.families: list[EdgeFamily] = list(families)
        self.annotations = None
        self.window = window
        self.expect_complete = expect_complete

        # the squares as rewrite tables: descending (c2,c1) <-> ascending (c1,c2)
        self.squares: dict[tuple[Name, Name], tuple[Name, Name]] = {}
        self._asc_to_desc: dict[tuple[Name, Name], tuple[Name, Name]] = {}
        for side_a, side_b in squares:
            self._add_square(side_a, side_b)

        self._edges_by_range: dict[tuple[Name, int], list[Edge]] = {}
        for e in self.edges.values():
            self._edges_by_range.setdefault((e.range, e.color), []).append(e)
        for lst in self._edges_by_range.values():
            lst.sort(key=lambda e: e.name)

        self._memo: dict[tuple, object] = {}
        self.validate()

    # -- construction & validation -------------------------------------

    def _word_colors(self, word: tuple[Name, Name]) -> tuple[int, int]:
        return (self.edges[word[0]].color, self.edges[word[1]].color)

    def _check_composable_word(self, word: tuple[Name, ...], at=None) -> None:
        for a, b in zip(word, word[1:]):
            if self.edges[a].source != self.edges[b].range:
                raise PresentationError(
                    f"word {'.'.join(map(str, word))} is not composable at {a}|{b}", at=at
                )

    def _add_square(self, side_a: tuple[Name, Name], side_b: tuple[Name, Name]) -> None:
        square = (side_a, side_b)
        for side in square:
            for n in side:
                if n not in self.edges:
                    raise PresentationError(f"square references unknown edge {n}", at=square)
            self._check_composable_word(side, at=square)
        ca, cb = self._word_colors(side_a), self._word_colors(side_b)
        if {ca, cb} != {(1, 2), (2, 1)}:
            raise PresentationError(
                "square sides must have complementary color orders", witness=square, at=square
            )
        desc, asc = (side_a, side_b) if ca == (2, 1) else (side_b, side_a)
        d_end = (self.edges[desc[0]].range, self.edges[desc[1]].source)
        a_end = (self.edges[asc[0]].range, self.edges[asc[1]].source)
        if d_end != a_end:
            raise PresentationError(
                "square sides do not share range and source", witness=(desc, asc), at=square
            )
        if desc in self.squares or asc in self._asc_to_desc:
            raise PresentationError(
                "factorisation property violated: bicolored path in two squares",
                witness=desc if desc in self.squares else asc,
                at=square,
            )
        self.squares[desc] = asc
        self._asc_to_desc[asc] = desc

    def validate(self) -> None:
        if self.rank > 2:
            at = max(self.edges, key=lambda n: self.edges[n].color, default=None)
            raise PresentationError("presentations are limited to rank <= 2", at=at)
        for e in self.edges.values():
            if not 1 <= e.color <= self.rank:
                raise PresentationError(f"edge {e.name} has bad color {e.color}", at=e.name)
            for v in (e.source, e.range):
                if v not in self._vertex_set():
                    raise PresentationError(
                        f"edge {e.name} references unknown vertex {v}", at=e.name
                    )
        clash = self._vertex_set() & set(self.edges)
        if clash:
            raise PresentationError("vertex and edge names must be disjoint", at=min(clash))
        if self.rank == 2 and self.expect_complete:
            self._check_square_completeness()

    def _check_square_completeness(self) -> None:
        """Every composable bicolored 2-edge word must sit in exactly one
        square; with both orientations covered this is the unique
        factorisation property for rank 2."""
        for a in self.edges.values():
            for b in self.edges.values():
                if a.source != b.range or a.color == b.color:
                    continue
                word = (a.name, b.name)
                table = self.squares if (a.color, b.color) == (2, 1) else self._asc_to_desc
                if word not in table:
                    raise PresentationError(
                        "factorisation property violated: bicolored path not in any square",
                        witness=word,
                        at=a.name,
                    )

    # -- basic morphisms ------------------------------------------------

    @per_graph
    def _vertex_set(self) -> frozenset[Name]:
        return frozenset(self.vertices)

    @per_graph
    def unit(self, vertex: Name) -> Morphism:
        if vertex not in self._vertex_set():
            raise KGraphError(f"unknown vertex {vertex}")
        return Morphism(self, vertex, ())

    def edge_morphism(self, name: Name) -> Morphism:
        e = self.edges[name]
        return Morphism(self, e.range, (name,))

    def vertex(self, text: str) -> Name:
        v = parse_name(text)
        if v not in self._vertex_set():
            raise KGraphError(f"unknown vertex {text!r}")
        return v

    def morphism(self, text: str) -> Morphism:
        """Parse a dotted word such as ``"lambda.alpha[1]"`` (or a vertex
        name) and normalise it."""
        text = text.strip()
        if "." not in text:
            n = parse_name(text)
            if n in self._vertex_set():
                return self.unit(n)
            if n in self.edges:
                return self.edge_morphism(n)
            raise KGraphError(f"unknown morphism name {text!r}")
        word = tuple(parse_name(p) for p in text.split("."))
        for n in word:
            if n not in self.edges:
                raise KGraphError(f"unknown edge {n} in word {text!r}")
        self._check_composable_word(word)
        return self._from_word(word)

    def _from_word(self, word: tuple[Name, ...]) -> Morphism:
        word = self._normalize(word)
        return Morphism(self, self.edges[word[0]].range, word)

    # -- normalisation --------------------------------------------------

    def _normalize(self, word: tuple[Name, ...]) -> tuple[Name, ...]:
        """Sort colors ascending (range side first) by applying squares to
        descents.  Descents with no square (incomplete set) stay put."""
        w = list(word)
        changed = True
        while changed:
            changed = False
            for i in range(len(w) - 1):
                pair = (w[i], w[i + 1])
                if self.edges[pair[0]].color > self.edges[pair[1]].color:
                    repl = self.squares.get(pair)
                    if repl is not None:
                        w[i], w[i + 1] = repl
                        changed = True
        return tuple(w)

    @per_graph
    def compose(self, mu: Morphism, nu: Morphism) -> Morphism:
        """Concatenate and normalise; requires s(mu) = r(nu)."""
        if mu.graph is not self or nu.graph is not self:
            raise KGraphError("morphisms belong to a different graph")
        if mu.source != nu.range:
            raise ComposabilityError(f"cannot compose {mu} with {nu}: s={mu.source}, r={nu.range}")
        if mu.is_unit():
            return nu
        if nu.is_unit():
            return mu
        return self._from_word(mu.word + nu.word)

    # -- factorisation --------------------------------------------------

    def factorize(self, lam: Morphism, p: Degree) -> tuple[Morphism, Morphism]:
        """The unique (mu, nu) with lam = mu.nu and d(mu) = p."""
        if not p.leq(lam.degree):
            raise FactorizationError(f"degree {p} is not below d({lam}) = {lam.degree}")
        found = self._factorization(lam, p)
        if found is None:
            raise FactorizationError(f"{lam} has no factorisation at degree {p}")
        return found

    @per_graph
    def _factorization(self, lam: Morphism, p: Degree) -> tuple[Morphism, Morphism] | None:
        """For p <= d(lam): the unique (mu, nu) with lam = mu.nu and
        d(mu) = p, or None when lam has no prefix of degree p.

        A failed pull means no factorisation, for every square table of
        rank 2.  Draw a word of degree (a, b) as a monotone lattice path
        in the a x b box, colour 1 across and colour 2 up.  A square
        rewrites two adjacent edges of different colours, which flips the
        path across one unit cell; edges of one colour never swap.

        1. Rewriting descents terminates, and two descents never overlap,
           so equal words (joined by rewrites either way) share one normal
           form: mu.nu = lam iff mu's word then nu's equals lam's word.
        2. Flips of two cells without a common side touch disjoint
           positions and commute.  Between the two nearest flips of one
           cell every flipped cell is of that kind, so the two flips can
           be brought together and cancelled.  Hence two equal words are
           joined by rewrites that flip each cell where their paths
           differ once, in any order the box allows: every path between
           their paths is the path of an equal word.
        3. The paths through the lattice point p form an interval, so two
           equal words through p are joined by rewrites that never
           straddle position |p|: the factorisation at p is unique.
        4. Let r be the degree still to pull and u an equal word through
           r.  Pulling the first edge of a needed colour to the front
           flips only cells that u's path has flipped too, so by 2 each
           step is a square of the table.  The median of the pulled path,
           u's path and a path through r that starts with the pulled
           colour lies between the first two; by 2 and 3 the rest of the
           word then has a prefix of degree r minus the popped edge.

        On tg-infinity every square rewrites a two-edge path from v[m+1]
        to v[m], and no square crosses a v-vertex, so the words equal to
        a given word differ only inside these blocks, and pulling fails
        exactly when the needed edge sits behind a block boundary.
        tests/test_oracles.py checks pulling against a search over fiber
        and compose on the 2-vertex census and on tg-infinity.
        """
        if p.is_zero():
            return (self.unit(lam.range), lam)
        if p == lam.degree:
            return (lam, self.unit(lam.source))
        return self._factor_by_pulling(lam, p)

    def _pull_to_front(self, w: list[Name], j: int) -> bool:
        """Move the edge at position j to position 0, rewriting each
        adjacent pair through its square; False when a square is missing."""
        while j > 0:
            pair = (w[j - 1], w[j])
            ca, cb = self.edges[pair[0]].color, self.edges[pair[1]].color
            table = self.squares if ca > cb else self._asc_to_desc
            if ca == cb or pair not in table:
                return False
            w[j - 1], w[j] = table[pair]
            j -= 1
        return True

    def _factor_by_pulling(self, lam: Morphism, p: Degree) -> tuple[Morphism, Morphism] | None:
        w = list(lam.word)
        prefix: list[Name] = []
        remaining = list(p.coords)
        while any(remaining):
            j = next(j for j, n in enumerate(w) if remaining[self.edges[n].color - 1] > 0)
            if not self._pull_to_front(w, j):
                return None
            e = w.pop(0)
            prefix.append(e)
            remaining[self.edges[e].color - 1] -= 1
        mu = self._from_word(tuple(prefix))
        nu = self._from_word(tuple(w)) if w else self.unit(mu.source)
        return (mu, nu)

    def tail(self, mu: Morphism, lam: Morphism) -> Morphism | None:
        """The nu with mu.nu = lam, or None when mu is no prefix of lam."""
        if mu.graph is not lam.graph or not mu.degree.leq(lam.degree):
            return None
        found = self._factorization(lam, mu.degree)
        return found[1] if found is not None and found[0] == mu else None

    def prefix_leq(self, mu: Morphism, lam: Morphism) -> bool:
        """mu <= lam in the prefix order: mu.nu = lam for some nu."""
        return self.tail(mu, lam) is not None

    @per_graph
    def prefixes(self, lam: Morphism) -> list[Morphism]:
        """All prefixes of lam, one per degree below d(lam) where lam
        has one."""
        found = (self._factorization(lam, p) for p in lam.degree.downset())
        return sorted((f[0] for f in found if f is not None), key=Morphism.sort_key)

    # -- fibers and enumeration -----------------------------------------

    def edge_fiber(self, vertex: Name, color: int) -> tuple[list[Edge], bool]:
        """Materialised edges of one color with range `vertex`, plus a flag
        telling whether the true fiber is infinite (from the family
        declarations)."""
        edges = self._edges_by_range.get((vertex, color), [])
        infinite = any(
            f.color == color and f.contributes_infinitely(vertex) for f in self.families
        )
        return edges, infinite

    @per_graph
    def fiber(self, vertex: Name, p: Degree) -> FiberResult:
        """vLambda^p over the materialised fragment.

        Splits off an edge of every positive color and dedupes by normal
        form, so composites whose word cannot be color-sorted (incomplete
        square sets) are still reached.
        """
        if p.is_zero():
            return FiberResult([self.unit(vertex)], True)
        seen: dict[Morphism, None] = {}
        exact = True
        for color in range(1, self.rank + 1):
            if p.coords[color - 1] == 0:
                continue
            edges, infinite = self.edge_fiber(vertex, color)
            if infinite:
                exact = False
            rest = p.sub(Degree.unit(self.rank, color))
            for e in edges:
                sub = self.fiber(e.source, rest)
                if not sub.exact:
                    exact = False
                for w in sub.elements:
                    seen.setdefault(self.compose(self.edge_morphism(e.name), w), None)
        return FiberResult(sorted(seen, key=Morphism.sort_key), exact)

    @per_graph
    def enumerate_morphisms(self, bound: Degree) -> EnumerationResult:
        """All morphisms of degree <= bound (within the enumeration window
        for block-truncated graphs)."""
        if bound.rank != self.rank:
            raise KGraphError(f"bound {bound} has wrong rank for {self.name}")
        out: list[Morphism] = []
        exact = True
        for v in self.vertices:
            for p in bound.downset():
                res = self.fiber(v, p)
                if not res.exact:
                    exact = False
                out.extend(res.elements)
        if self.window is not None:
            out = [m for m in out if self.window(m)]
        out.sort(key=Morphism.sort_key)
        return EnumerationResult(out, exact)

    @property
    @per_graph
    def is_finite(self) -> bool:
        """True when the category itself is finite: no infinite families
        and an acyclic skeleton."""
        if self.families:
            return False
        return not self._skeleton_has_cycle()

    def _skeleton_has_cycle(self) -> bool:
        succ: dict[Name, list[Name]] = {v: [] for v in self.vertices}
        for e in self.edges.values():
            succ[e.range].append(e.source)
        state: dict[Name, int] = {}

        def visit(v: Name) -> bool:
            state[v] = 1
            for w in succ[v]:
                s = state.get(w)
                if s == 1 or (s is None and visit(w)):
                    return True
            state[v] = 2
            return False

        return any(state.get(v) is None and visit(v) for v in self.vertices)

    @per_graph
    def all_morphisms(self) -> list[Morphism]:
        """Exhaustive enumeration; only valid for finite categories."""
        if not self.is_finite:
            raise KGraphError(f"{self.name} is not a finite category")
        out: list[Morphism] = []
        total = 0
        while True:
            layer: list[Morphism] = []
            for coords in _compositions(total, self.rank):
                p = Degree(coords)
                for v in self.vertices:
                    layer.extend(self.fiber(v, p).elements)
            if not layer:
                break
            out.extend(layer)
            total += 1
        out.sort(key=Morphism.sort_key)
        return out

    def right_ideal(self, mu: Morphism, bound: Degree) -> list[Morphism]:
        """mu.Lambda restricted to extensions of degree <= d(mu) + bound."""
        out = []
        for p in bound.downset():
            for kappa in self.fiber(mu.source, p).elements:
                out.append(self.compose(mu, kappa))
        return sorted(set(out), key=Morphism.sort_key)

    def __repr__(self) -> str:
        return (
            f"KGraph({self.name!r}, rank={self.rank}, vertices={len(self.vertices)}, "
            f"edges={len(self.edges)}, squares={len(self.squares)})"
        )


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


# -- presentation documents ---------------------------------------------

_EDGE_LINE = re.compile(
    r"^(?P<name>\S+)\s+(?P<color>\d+)\s+(?P<source>\S+)\s*->\s*(?P<range>\S+)$"
)


def load_presentation(text: str, name: str = "user", cutoff: int = 3) -> KGraph:
    """Parse a presentation document.

    Sections ``vertices:``, ``edges:`` and ``squares:``; edge lines read
    ``name color source -> range`` where ``name[n]`` declares an
    N-indexed family materialised up to `cutoff`; square lines read
    ``a.b = c.d`` with family index variables unifying across the sides.
    Every PresentationError names the line at fault: for an error of
    the graph built from the document, the line declaring the edge or
    square at fault (its last declaration, for a duplicate).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    vertices: list[Name] = []
    edges: list[Edge] = []
    families: list[EdgeFamily] = []
    family_vars: dict[str, list[str]] = {}
    square_lines: list[tuple[int, str]] = []
    lines: dict = {}  # edge name or square -> the line that declares it last
    section = None
    max_color = 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith(("vertices:", "edges:", "squares:")):
            section, _, rest = line.partition(":")
            section = section.lower()
            line = rest.strip()
            if not line:
                continue
        if section == "vertices":
            for tok in line.split():
                v = _name_at(tok, lineno)
                if v.index:
                    raise PresentationError("vertex families are not supported in documents", line=lineno)
                if v in vertices:
                    raise PresentationError(f"duplicate vertex {v}", line=lineno)
                vertices.append(v)
        elif section == "edges":
            m = _EDGE_LINE.match(line)
            if not m:
                raise PresentationError(f"malformed edge line {line!r}", line=lineno)
            color = int(m.group("color"))
            max_color = max(max_color, color)
            src = _name_at(m.group("source"), lineno)
            rng = _name_at(m.group("range"), lineno)
            base, idx_vars = _split_family_name(m.group("name"), lineno)
            if idx_vars is None:
                edges.append(Edge(_name_at(m.group("name"), lineno), color, src, rng))
                lines[edges[-1].name] = lineno
            else:
                if base in family_vars:
                    raise PresentationError(f"duplicate family {base}", line=lineno)
                family_vars[base] = idx_vars
                fam = EdgeFamily(base, color, len(idx_vars), rng.base, len(rng.index))
                families.append(fam)
                for assignment in itertools.product(range(1, cutoff + 1), repeat=fam.arity):
                    edges.append(
                        Edge(Name(base, assignment), color, src, rng)
                    )
                    lines[edges[-1].name] = lineno
        elif section == "squares":
            square_lines.append((lineno, line))
        else:
            raise PresentationError(f"content outside any section: {line!r}", line=lineno)

    squares = _expand_square_lines(square_lines, family_vars, cutoff)
    lines.update((square, lineno) for lineno, square in squares)
    try:
        return KGraph(
            name, max(max_color, 1), vertices, edges, [sq for _, sq in squares], families=families
        )
    except PresentationError as exc:
        exc.line = lines.get(exc.at)
        raise


def _split_family_name(text: str, lineno: int) -> tuple[str, list[str] | None]:
    m = _NAME_RE.match(text)
    if not m:
        raise PresentationError(f"malformed edge name {text!r}", line=lineno)
    if m.group(2) is None:
        return m.group(1), None
    parts = [p.strip() for p in m.group(2).split(",")]
    if not all(p.isidentifier() for p in parts):
        raise PresentationError(
            f"family indices must be variables in edge declarations: {text!r}", line=lineno
        )
    return m.group(1), parts


def _expand_square_lines(
    square_lines: list[tuple[int, str]],
    family_vars: dict[str, list[str]],
    cutoff: int,
) -> list[tuple[int, tuple[tuple[Name, Name], tuple[Name, Name]]]]:
    """(line, square) for every square the square lines declare."""
    squares = []
    for lineno, line in square_lines:
        if "=" not in line:
            raise PresentationError(f"malformed square line {line!r}", line=lineno)
        lhs, rhs = (side.strip() for side in line.split("=", 1))
        lhs_parts, rhs_parts = lhs.split("."), rhs.split(".")
        if len(lhs_parts) != 2 or len(rhs_parts) != 2:
            raise PresentationError("square sides must be 2-edge words", line=lineno)
        variables: list[str] = []
        factors = []
        for part in lhs_parts + rhs_parts:
            base, idx = _split_square_factor(part, family_vars, lineno)
            factors.append((base, idx))
            for v in idx or ():
                if v not in variables:
                    variables.append(v)
        for assignment in itertools.product(range(1, cutoff + 1), repeat=len(variables)):
            env = dict(zip(variables, assignment))
            sides = []
            for base, idx in factors:
                index = tuple(env[v] for v in idx) if idx else ()
                sides.append(Name(base, index))
            squares.append((lineno, ((sides[0], sides[1]), (sides[2], sides[3]))))
    return squares


def _split_square_factor(text, family_vars, lineno):
    m = _NAME_RE.match(text.strip())
    if not m:
        raise PresentationError(f"malformed square factor {text!r}", line=lineno)
    base = m.group(1)
    if m.group(2) is None:
        if base in family_vars:
            raise PresentationError(f"family {base} used without indices", line=lineno)
        return base, None
    parts = [p.strip() for p in m.group(2).split(",")]
    if base not in family_vars or len(parts) != len(family_vars[base]):
        raise PresentationError(f"unknown family usage {text!r}", line=lineno)
    return base, parts
