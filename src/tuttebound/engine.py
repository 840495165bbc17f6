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

Both routes walk the tree's post-order once and take their leaf values from
one rule: a single edge has (A, B) = (1, v_e); a Wheatstone leaf with all
weights -1 has ((q-2)*(q-3), 2*(q-2)); a Wheatstone leaf under any other
weights falls back to the brute-force partial oracle on its five edges.

Under a scalar weight (None, a number, a BigPoly or BiPoly) equal shapes
have equal values, so each is evaluated once, at its first node; per-edge
weights (a Mapping or a WeightAssignment) are evaluated per node.  per_node
values of nodes with equal shapes may be the same object.
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


def _weights_plan(tree: DecompTree, weights, q):
    """Edge index -> v value, and the memo key of each node in post-order."""
    if isinstance(weights, WeightAssignment):
        if not isinstance(q, (int, float, complex, Fraction)):
            raise GraphError("system-tagged weights need numeric q; "
                             "symbolic runs take raw v values")
        return weights.in_system("V", q).value, tree.order
    if isinstance(weights, Mapping):
        return (lambda i: weights[i]), tree.order
    v = -1 if weights is None else weights
    return (lambda i: v), tree.shapes


@dataclass
class TreePairs:
    """Pair-route result: (A, B) per node and the total Z."""
    a: object
    b: object
    z: object
    per_node: dict[DecompNode, tuple]


def _leaf_pair(tree: DecompTree, node: DecompNode, q, wfn) -> tuple:
    """(A, B) of a leaf: closed forms for an edge and an all -1 Wheatstone leaf."""
    if node.base == "e":
        return (1, wfn(node.edges[0]))
    vals = [wfn(i) for i in node.edges]
    for i, v in zip(node.edges, vals):
        if v is INF or v is UNDEF:
            raise GraphError(f"edge {i} has weight {v!r}; a leaf of several edges needs finite weights")
    if node.base == "W" and all(v == -1 for v in vals):
        return ((q - 2) * (q - 3), 2 * (q - 2))
    return partial_tutte_brute(tree.constituent(node), q, vals)


def tree_ab(tree: DecompTree, q, weights=None) -> TreePairs:
    """Evaluate the split pairs bottom-up; exact whenever the inputs are.

    Unlike tree_veff, this refuses INF and UNDEF weights (GraphError).
    """
    given, keys = _weights_plan(tree, weights, q)

    def wfn(i):
        if (v := given(i)) is INF or v is UNDEF:
            raise GraphError(f"edge {i} has weight {v!r}; the pair route needs finite weights")
        return v

    per_node: dict[DecompNode, tuple] = {}
    memo: dict = {}
    for node, key in zip(tree.order, keys):
        if key not in memo:
            if node.is_leaf():
                memo[key] = _leaf_pair(tree, node, q, wfn)
            else:
                left, right = per_node[node.children[0]], per_node[node.children[1]]
                (a1, b1), (a2, b2) = left, right
                if left is right:     # one shape: a1*b2 + a2*b1 is exactly ab + ab
                    ab = a1 * b1
                    cross = ab + ab
                else:
                    cross = a1 * b2 + a2 * b1
                if node.kind == "p":
                    memo[key] = (a1 * a2, cross + b1 * b2)
                else:
                    memo[key] = (cross + q * a1 * a2, b1 * b2)
        per_node[node] = memo[key]
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


def tree_veff(tree: DecompTree, q, weights=None) -> TreeEffective:
    """Label nodes with v_eff, collecting series prefactors and leaf A values.

    Requires q != 0 and a nonzero A value at every leaf.  When a series
    prefactor q + v1 + v2 vanishes (exactly for exact inputs, below
    1e-14*(1+|q|) in floating point) the result is undefined; whenever the
    route completes, z agrees with the pair route.
    """
    if q == 0:
        raise GraphError("q must be nonzero")
    wfn, keys = _weights_plan(tree, weights, q)
    per_node: dict[DecompNode, object] = {}
    memo: dict = {}                   # key -> (v_eff, factor of the prefactor or None)
    prefactor = 1

    def fail() -> TreeEffective:
        return TreeEffective(UNDEF, prefactor, UNDEF, False, per_node)

    for node, key in zip(tree.order, keys):
        if key not in memo:
            factor = None
            if node.is_leaf():
                a, b = _leaf_pair(tree, node, q, wfn)
                if a == 0:
                    raise GraphError("leaf A value is zero; the effective-weight route needs A != 0")
                factor, v = a, (b / a if is_finite(b) else b)
            else:
                v1, v2 = per_node[node.children[0]], per_node[node.children[1]]
                if v1 is UNDEF or v2 is UNDEF:
                    return fail()
                if node.kind == "p":
                    v = parallel(v1, v2, "V", q)
                elif (is_finite(v1) and is_finite(v2)
                      and not _prefactor_is_zero(pref := q + v1 + v2, q)):
                    factor, v = pref, series(v1, v2, "V", q)
                else:                 # a zero prefactor, or none (an infinite operand)
                    v = UNDEF
                if v is UNDEF:
                    per_node[node] = UNDEF
                    return fail()
            memo[key] = (v, factor)
        per_node[node], factor = memo[key]
        if factor is not None:
            prefactor = prefactor * factor
    v_root = per_node[tree.root]
    if not is_finite(v_root):
        return fail()
    z = q * (q + v_root) * prefactor
    return TreeEffective(v_root, prefactor, z, True, per_node)


# ---------------------------------------------------------------------------
# Chromatic polynomials
# ---------------------------------------------------------------------------

def _chromatic_from_tree(tree: DecompTree) -> BigPoly:
    q = BigPoly.variable()
    return tree_ab(tree, q, weights=-1).z


def chromatic_poly(g: Multigraph | TwoTerminalGraph | DecompTree) -> BigPoly:
    """Exact chromatic polynomial (all weights -1).

    A decomposition tree goes through the pair route symbolically, whatever
    its leaves.  A graph (of a 2-terminal one, its graph) factors over
    components and blocks, each block through decompose_sp and the pair
    route; only a block with a K4 minor, which no s-t series-parallel graph
    has, falls back to the subset oracle (guarded by its DEFAULT_EDGE_LIMIT).
    Loops are rejected: a loop makes the polynomial identically zero.
    """
    if isinstance(g, DecompTree):
        return _chromatic_from_tree(g)
    if isinstance(g, TwoTerminalGraph):
        g = g.graph

    g.require_loopless("chromatic_poly")
    # P(G) = q^(#components) * prod over blocks with edges of P(B)/q.
    qpoly = BigPoly.variable()
    result = BigPoly.monomial(len(g.components()))
    for blk in blocks(g):
        bg = blk.graph
        if not bg.edge_count:
            continue
        tree = decompose_sp(TwoTerminalGraph(bg, *bg.edges[0]))
        if tree is not None:
            zb = _chromatic_from_tree(tree)
        else:
            zb = tutte_brute(bg, qpoly, -1)
        result = result * BigPoly(zb.coeffs[1:])
    return result
