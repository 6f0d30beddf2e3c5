"""Seeded finite 2-graph presentations: twisted products of two lines.

The skeleton is the product of a line of length ``a`` whose edges have
color 1 and multiplicity ``ma`` with a line of length ``b`` whose edges
have color 2 and multiplicity ``mb``.  Every unit cell has ``ma * mb``
descending (color 2 then color 1) and as many ascending (color 1 then
color 2) two-edge paths; pairing them by any bijection gives a valid
2-graph, because rank-2 factorisation rules need no associativity check
(Kumjian-Pask, Higher rank graph C*-algebras, NYJM 2000).  The bijection
of each cell is drawn from the caller's random generator.

Names are plain identifiers (``g_i_j`` for vertices, ``h_i_j_k`` and
``k_i_j_l`` for edges) because presentation documents reject indexed
vertices and literal edge indices.
"""

from __future__ import annotations

import random


def vertex(i: int, j: int) -> str:
    return f"g_{i}_{j}"


def h_edge(i: int, j: int, k: int) -> str:
    """Color-1 edge number k from g_{i+1}_{j} to g_{i}_{j}."""
    return f"h_{i}_{j}_{k}"


def k_edge(i: int, j: int, l: int) -> str:
    """Color-2 edge number l from g_{i}_{j+1} to g_{i}_{j}."""
    return f"k_{i}_{j}_{l}"


def twisted_product(a: int, b: int, ma: int, mb: int, rng: random.Random) -> str:
    """The presentation document of one seeded twisted product."""
    if min(a, b, ma, mb) < 1:
        raise ValueError(f"sizes must be positive, got {(a, b, ma, mb)}")
    vertices = [vertex(i, j) for i in range(a + 1) for j in range(b + 1)]
    lines = ["vertices: " + " ".join(vertices), "edges:"]
    for i in range(a):
        for j in range(b + 1):
            for k in range(ma):
                lines.append(f"  {h_edge(i, j, k)} 1 {vertex(i + 1, j)} -> {vertex(i, j)}")
    for i in range(a + 1):
        for j in range(b):
            for l in range(mb):
                lines.append(f"  {k_edge(i, j, l)} 2 {vertex(i, j + 1)} -> {vertex(i, j)}")
    lines.append("squares:")
    for i in range(a):
        for j in range(b):
            # words in composition order, range-side edge first
            desc = [f"{k_edge(i, j, l)}.{h_edge(i, j + 1, k)}" for l in range(mb) for k in range(ma)]
            asc = [f"{h_edge(i, j, k)}.{k_edge(i + 1, j, l)}" for k in range(ma) for l in range(mb)]
            rng.shuffle(asc)
            lines.extend(f"  {d} = {s}" for d, s in zip(desc, asc))
    return "\n".join(lines) + "\n"


def morphism_count(a: int, b: int, ma: int, mb: int, bound: tuple[int, int]) -> int:
    """Morphisms of degree <= bound, counted from the product structure:
    a path of degree (p, q) with range g_i_j exists iff i + p <= a and
    j + q <= b, and there are ma**p * mb**q of them whatever the twist."""
    total = 0
    for i in range(a + 1):
        for j in range(b + 1):
            for p in range(min(bound[0], a - i) + 1):
                for q in range(min(bound[1], b - j) + 1):
                    total += ma**p * mb**q
    return total
