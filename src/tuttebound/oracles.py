"""Brute-force oracles for partition-function values.

One loop runs the subset expansion: it enumerates the edge subsets A once
and adds each one's weight product to the sum of its class (k(A), whether A
joins the terminals).  The full expansion and its split by terminal
connectivity both read those class sums, so each power of q is taken once
per class, not once per subset.  The coloring sum for integer q is the
other oracle.  These are reference implementations: exponential in the
input, guarded by size limits, and exact whenever q and the weights are
exact (int / Fraction).
"""

from __future__ import annotations

from itertools import product
from typing import Mapping

from .graphs import GraphError, Multigraph, TwoTerminalGraph

DEFAULT_EDGE_LIMIT = 24
DEFAULT_VERTEX_LIMIT = 10


def _weight_list(g: Multigraph, weights) -> list:
    """Normalize weights to a per-edge list; scalars broadcast."""
    if isinstance(weights, Mapping):
        try:
            return [weights[i] for i in range(g.edge_count)]
        except KeyError as exc:
            raise GraphError(f"missing weight for edge {exc}") from exc
    if isinstance(weights, (list, tuple)):
        if len(weights) != g.edge_count:
            raise GraphError("weight list length mismatch")
        return list(weights)
    return [weights] * g.edge_count


class _DSU:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _class_sums(g: Multigraph, weights, max_edges: int,
                terminals: tuple[int, int] | None = None) -> list:
    """Sums of the weight products over the edge subsets A, by class, in sorted order.

    A class is (k(A), joined): k(A) is the number of connected components of
    (V, A), and joined says whether A connects the two terminals (always
    False without them).  Loops are allowed (a loop in A contributes its
    weight but no merge).
    """
    if g.edge_count > max_edges:
        raise GraphError(f"{g.edge_count} edges exceeds brute-force limit {max_edges}")
    v = _weight_list(g, weights)
    n = g.vertex_count
    sums: dict = {}
    for mask in range(1 << g.edge_count):
        dsu = _DSU(n)
        comps = n
        w = 1
        mm = mask
        i = 0
        while mm:
            if mm & 1:
                w = w * v[i]
                a, b = g.edges[i]
                if a != b and dsu.union(a, b):
                    comps -= 1
            mm >>= 1
            i += 1
        joined = terminals is not None and dsu.find(terminals[0]) == dsu.find(terminals[1])
        sums[comps, joined] = sums.get((comps, joined), 0) + w
    return sorted(sums.items())


def tutte_brute(g: Multigraph, q, weights, max_edges: int = DEFAULT_EDGE_LIMIT):
    """Subset expansion: sum over A of q^k(A) times the product of weights in A.

    k(A) is the number of connected components of (V, A).
    """
    return sum(w * q ** k for (k, _joined), w in _class_sums(g, weights, max_edges))


def partial_tutte_brute(tt: TwoTerminalGraph, q, weights,
                        max_edges: int = DEFAULT_EDGE_LIMIT):
    """Split the subset expansion by whether the terminals are connected.

    Returns (A, B) where only components containing neither terminal
    contribute a factor q.  No division by q is ever performed, so both
    values are polynomials in q when q is symbolic or exact.
    """
    a_total = 0
    b_total = 0
    for (k, joined), w in _class_sums(tt.graph, weights, max_edges, (tt.s, tt.t)):
        if joined:
            b_total = b_total + w * q ** (k - 1)
        else:
            a_total = a_total + w * q ** (k - 2)
    return a_total, b_total


def potts_brute(g: Multigraph, q: int, weights,
                max_vertices: int = DEFAULT_VERTEX_LIMIT):
    """Coloring sum: over all q^|V| maps sigma, product of 1 + v_e * delta.

    Equals the subset expansion at the same inputs for every integer q >= 1.
    """
    if not isinstance(q, int) or q < 1:
        raise GraphError("coloring sum needs integer q >= 1")
    if g.vertex_count > max_vertices:
        raise GraphError(f"{g.vertex_count} vertices exceeds coloring limit {max_vertices}")
    v = _weight_list(g, weights)
    total = 0
    edges = g.edges
    for sigma in product(range(q), repeat=g.vertex_count):
        w = 1
        for i, (a, b) in enumerate(edges):
            if sigma[a] == sigma[b]:
                w = w * (1 + v[i])
                if w == 0:
                    break
        total = total + w
    return total
