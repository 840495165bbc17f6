"""Partition-function evaluation over decomposition trees.

Two routes up the tree:

* the pair route carries the split partial sums (A, B) per constituent and
  combines them with the parallel rule A = A1*A2, B = A1*B2 + A2*B1 + B1*B2
  and the series rule A = A1*B2 + A2*B1 + q*A1*A2, B = B1*B2, ending with
  Z = q^2*A + q*B.  It works over any commutative ring, so the same code
  evaluates numerically (complex, Fraction) and symbolically (BigPoly,
  BiPoly);

* the effective-weight route carries v_eff = B/A per constituent, combining
  with the weight algebra and collecting scalar prefactors.  It can hit a
  genuine 0/0 at a series node whose prefactor q + v1 + v2 vanishes; that
  outcome is reported as undefined, not raised.

Both routes walk the tree in one post-order and take their leaf values from
one rule: a single edge has (A, B) = (1, v_e); a Wheatstone leaf with all
weights -1 has ((q-2)*(q-3), 2*(q-2)); any other leaf falls back to the
brute-force partial oracle, which refuses leaves above brute_limit edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .graphs import GraphError, Multigraph, TwoTerminalGraph, blocks
from .oracles import partial_tutte_brute, tutte_brute
from .poly import BigPoly
from .sp import DecompNode, DecompTree, decompose_sp
from .weights import INF, UNDEF, WeightAssignment, is_finite, parallel, series


def _edge_weight_fn(weights, q):
    """Normalize the weights argument to edge_index -> v value."""
    if weights is None:
        return lambda i: -1
    if isinstance(weights, WeightAssignment):
        if not isinstance(q, (int, float, complex, Fraction)):
            raise GraphError("system-tagged weights need numeric q; "
                             "symbolic runs take raw v values")
        wa = weights.in_system("V", q)
        return wa.value
    if isinstance(weights, Mapping):
        return lambda i: weights[i]
    return lambda i: weights


@dataclass
class TreePairs:
    """Pair-route result: (A, B) per node and the total Z."""
    a: object
    b: object
    z: object
    per_node: dict[DecompNode, tuple]


def _leaf_pair(tree: DecompTree, node: DecompNode, q, wfn, brute_limit: int) -> tuple:
    """(A, B) of a leaf: closed forms for an edge and an all -1 Wheatstone leaf."""
    if node.base == "e":
        return (1, wfn(node.edges[0]))
    vals = [wfn(i) for i in node.edges]
    if node.base == "W" and all(v == -1 for v in vals):
        return ((q - 2) * (q - 3), 2 * (q - 2))
    return partial_tutte_brute(tree.constituent(node), q, vals, max_edges=brute_limit)


def _post_order(tree: DecompTree) -> list[DecompNode]:
    """Every node of the tree, children before their parent."""
    order: list[DecompNode] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    return order[::-1]


def tree_ab(tree: DecompTree, q, weights=None, brute_limit: int = 24) -> TreePairs:
    """Evaluate the split pairs bottom-up; exact whenever the inputs are."""
    wfn = _edge_weight_fn(weights, q)
    per_node: dict[DecompNode, tuple] = {}
    for node in _post_order(tree):
        if node.is_leaf():
            per_node[node] = _leaf_pair(tree, node, q, wfn, brute_limit)
            continue
        a1, b1 = per_node[node.children[0]]
        a2, b2 = per_node[node.children[1]]
        if node.kind == "p":
            per_node[node] = (a1 * a2, a1 * b2 + a2 * b1 + b1 * b2)
        else:
            per_node[node] = (a1 * b2 + a2 * b1 + q * a1 * a2, b1 * b2)
    a, b = per_node[tree.root]
    return TreePairs(a, b, q * q * a + q * b, per_node)


@dataclass
class TreeEffective:
    """Effective-weight-route result; undefined outcomes flagged, not raised."""
    veff: object                      # finite complex, INF, or UNDEF
    prefactor: object                 # product of series prefactors and leaf A values
    z: object                         # value, or UNDEF when the route failed
    defined: bool
    per_node: dict[DecompNode, object]


def _prefactor_is_zero(pref, q) -> bool:
    if isinstance(pref, (int, Fraction)):
        return pref == 0
    return abs(pref) < 1e-14 * (1.0 + abs(q))


def tree_veff(tree: DecompTree, q, weights=None,
              brute_limit: int = 24) -> TreeEffective:
    """Label nodes with v_eff, collecting series prefactors and leaf A values.

    Requires q != 0 and a nonzero A value at every leaf.  When a series
    prefactor q + v1 + v2 vanishes (exactly for exact inputs, below
    1e-14*(1+|q|) in floating point) the result is undefined; whenever the
    route completes, z agrees with the pair route.
    """
    if q == 0:
        raise GraphError("q must be nonzero")
    wfn = _edge_weight_fn(weights, q)
    per_node: dict[DecompNode, object] = {}
    prefactor = 1

    def fail(partial: dict) -> TreeEffective:
        return TreeEffective(UNDEF, prefactor, UNDEF, False, partial)

    for node in _post_order(tree):
        if node.is_leaf():
            a, b = _leaf_pair(tree, node, q, wfn, brute_limit)
            if a == 0:
                raise GraphError("leaf A value is zero; the effective-weight route needs A != 0")
            prefactor = prefactor * a
            if b is INF or b is UNDEF:
                per_node[node] = b if b is UNDEF else INF
            else:
                per_node[node] = b / a
            continue
        v1 = per_node[node.children[0]]
        v2 = per_node[node.children[1]]
        if v1 is UNDEF or v2 is UNDEF:
            return fail(per_node)
        if node.kind == "p":
            v = parallel(v1, v2, "V", q)
        else:
            if is_finite(v1) and is_finite(v2):
                pref = q + v1 + v2
                if _prefactor_is_zero(pref, q):
                    per_node[node] = UNDEF
                    return fail(per_node)
                prefactor = prefactor * pref
                v = series(v1, v2, "V", q)
            else:
                # An infinite operand leaves no usable scalar prefactor.
                per_node[node] = UNDEF
                return fail(per_node)
        if v is UNDEF:
            per_node[node] = UNDEF
            return fail(per_node)
        per_node[node] = v
    v_root = per_node[tree.root]
    if not is_finite(v_root):
        return fail(per_node)
    z = q * (q + v_root) * prefactor
    return TreeEffective(v_root, prefactor, z, True, per_node)


# ---------------------------------------------------------------------------
# Chromatic polynomials
# ---------------------------------------------------------------------------

def _chromatic_from_tree(tree: DecompTree) -> BigPoly:
    q = BigPoly.variable()
    return tree_ab(tree, q, weights=-1).z


def _divide_by_q_power(p: BigPoly, k: int) -> BigPoly:
    if any(c != 0 for c in p.coeffs[:k]):
        raise GraphError("expected divisibility by q^k")
    return BigPoly(p.coeffs[k:])


def chromatic_poly(g: Multigraph | TwoTerminalGraph | DecompTree,
                   brute_limit: int = 24) -> BigPoly:
    """Exact chromatic polynomial (all weights -1).

    Decomposition trees and decomposable 2-terminal graphs go through the
    pair route symbolically; general multigraphs factor over components and
    blocks first, and any non-series-parallel block falls back to the
    subset oracle (guarded by brute_limit).  Loops are rejected: a loop
    makes the polynomial identically zero.
    """
    if isinstance(g, DecompTree):
        return _chromatic_from_tree(g)
    if isinstance(g, TwoTerminalGraph):
        g.graph.require_loopless("chromatic_poly")
        tree = decompose_sp(g) if g.graph.is_connected() else None
        if tree is not None:
            return _chromatic_from_tree(tree)
        return chromatic_poly(g.graph, brute_limit)

    g.require_loopless("chromatic_poly")
    qpoly = BigPoly.variable()
    result = BigPoly.const(1)
    for comp in g.components():
        if len(comp) == 1:
            result = result * qpoly
            continue
        comp_set = set(comp)
        comp_blocks = [b for b in blocks(g) if set(b.vertices) <= comp_set and b.graph.edge_count]
        comp_poly = BigPoly.const(1)
        for blk in comp_blocks:
            bg = blk.graph
            if bg.edge_count == 1:
                zb = qpoly * qpoly - qpoly
            else:
                a, b = bg.edges[0]
                tree = decompose_sp(TwoTerminalGraph(bg, a, b))
                if tree is not None:
                    zb = _chromatic_from_tree(tree)
                else:
                    zb = tutte_brute(bg, qpoly, -1, max_edges=brute_limit)
            comp_poly = comp_poly * zb
        comp_poly = _divide_by_q_power(comp_poly, len(comp_blocks) - 1)
        result = result * comp_poly
    return result
