"""Partition-function evaluation over decomposition trees.

Two routes up the tree:

* the pair route carries the split partial sums (A, B) per constituent and
  combines them with the parallel rule A = A1*A2, B = A1*B2 + A2*B1 + B1*B2
  and the series rule A = A1*B2 + A2*B1 + q*A1*A2, B = B1*B2, ending with
  Z = q^2*A + q*B.  It works over any commutative ring, so the same code
  evaluates numerically (complex, Fraction) and symbolically (BigPoly,
  BiPoly);

* the effective-weight route carries v_eff = B/A and the prefactor A per
  constituent and joins by the paper's rules: v = (1 + v1)(1 + v2) - 1 and
  A = A1*A2 in parallel, and in series v = v1*v2/(q + v1 + v2) and
  A = A1*A2*(q + v1 + v2), the series prefactor.  It can hit a genuine 0/0
  at a series node whose prefactor vanishes; that outcome is reported as
  undefined, not raised.  A parallel join equals weights.parallel; a
  series join agrees with weights.series to rounding, since v1*v2 over the
  prefactor rounds differently from the round trip through t.

Both routes take finite weights only and refuse INF and UNDEF with a
GraphError that names the edge; the sphere algebra of weights, which
handles them, stays the reference for the joins.

Both routes take their leaf values from one rule: a single edge has
(A, B) = (1, v_e); a Wheatstone leaf with all weights -1 has
((q-2)*(q-3), 2*(q-2)); a Wheatstone leaf under any other weights is
deletion plus v_f times contraction of its bridge f, two series-parallel
networks joined by the pair rules.

Each route is one loop over the steps of one of the tree's two programs,
compiled once per tree (DecompTree.steps): a join step (kind, i, j) joins
the values of steps i and j, a leaf step (LEAF, base, edges) takes
_leaf_pair, and no step reads a tree node.  Under a scalar weight (None, a
number, a BigPoly or BiPoly) equal shapes have equal values, so the loop
runs the shape program: one step per shape, at its first node.  Per-edge
weights (a Mapping or a WeightAssignment) run the node program, one step
per node.  per_node (and with it the tree's nodes) is built from the step
values on its first read, in post-order; values of nodes with equal shapes
may be the same object.  A step's values depend only on its children's, so
both programs give the same bits.

Exact chromatic polynomials (chromatic_poly, chromatic_pair) come from the
pair route over Python ints at one point q = 2^k, not over BigPoly: each
join is then one big-int product, and the coefficients are read back as the
balanced base-2^k digits of the result (Kronecker substitution;
BigPoly.from_balanced_digits).  The width k rests on a bound M on every
coefficient, taken from one pass of the pair route at q = -1:

* under weights -1, q^2 A + q B = P(G) and q(A + B) = P(G/st), the
  chromatic polynomial of G with s and t identified (0 when an s-t edge
  becomes a loop);
* the chromatic polynomial of a loopless graph alternates in sign
  (Whitney), so the sum of its coefficients' absolute values is |P(-1)|,
  the number of acyclic orientations (Stanley);
* q(q - 1)A = P(G) - P(G/st), and dividing by q - 1 takes partial sums, so
  no coefficient of A exceeds |P(G)(-1)| + |P(G/st)(-1)| in absolute
  value; B = P(G/st)/q - A adds at most |P(G/st)(-1)| more;
* at q = -1 the pair gives P(G)(-1) = A - B and P(G/st)(-1) = -(A + B).

So M = |A - B| + 2|A + B| bounds every |coefficient| of A, B and P(G), and
k = 8 ceil((bitlen M + 2)/8) makes M < 2^(k-2), inside one balanced digit.
The ring route (tree_ab on BigPoly) gives the same polynomials, coefficient
for coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .graphs import GraphError, Multigraph, TwoTerminalGraph, blocks
from .oracles import tutte_brute
from .poly import BigPoly
from .sp import LEAF, DecompTree, decompose_sp
from .weights import INF, UNDEF, WeightAssignment


_NUMERIC = (int, float, complex, Fraction)


def _weights_plan(weights, q):
    """Edge index -> v value, refusing INF and UNDEF; and whether equal shapes share values."""
    if isinstance(weights, WeightAssignment):
        if not isinstance(q, _NUMERIC):
            raise GraphError("system-tagged weights need numeric q; "
                             "symbolic runs take raw v values")
        given, by_shape = weights.in_system("V", q).value, False
    elif isinstance(weights, Mapping):
        def given(i):
            try:
                return weights[i]
            except KeyError as exc:
                raise GraphError(f"no weight for edge {i}") from exc
        by_shape = False
    else:
        v = -1 if weights is None else weights
        given, by_shape = (lambda i: v), True

    def finite(i):
        if (v := given(i)) is INF or v is UNDEF:
            raise GraphError(f"edge {i} has weight {v!r}; both routes need finite weights")
        return v

    return finite, by_shape


def _per_node(tree: DecompTree, values: list, slots, count: int) -> dict:
    """The first count nodes of the post-order with their steps' values."""
    return dict(zip(tree.order[:count], map(values.__getitem__, slots[:count])))


@dataclass
class TreePairs:
    """Pair-route result: (A, B) per node and the total Z."""
    a: object
    b: object
    z: object
    _steps: tuple = field(repr=False, compare=False)    # _per_node's arguments
    per_node = cached_property(lambda self: _per_node(*self._steps))    # on first read


def _join(kind: str, left: tuple, right: tuple, q) -> tuple:
    """(A, B) of the parallel ("p") or series join of two (A, B) pairs."""
    (a1, b1), (a2, b2) = left, right
    if left is right:             # one shape: a1*b2 + a2*b1 is exactly ab + ab
        ab = a1 * b1
        cross = ab + ab
    else:
        cross = a1 * b2 + a2 * b1
    if kind == "p":
        return (a1 * a2, cross + b1 * b2)
    return (cross + q * a1 * a2, b1 * b2)


def _leaf_pair(base: str, edges: tuple[int, ...], q, wfn) -> tuple:
    """(A, B) of an edge ("e") or a Wheatstone ("W") leaf."""
    if base == "e":
        return (1, wfn(edges[0]))
    vals = [wfn(i) for i in edges]
    if all(v == -1 for v in vals):
        return ((q - 2) * (q - 3), 2 * (q - 2))
    # The edges in the order of _TEMPLATES["W"]; e2 is the bridge f, which
    # touches neither terminal, so Z(G) = Z(G - f) + v_f Z(G / f) keeps the
    # split into A and B.  G - f is P(S(e0, e3), S(e1, e4)) and G / f is
    # S(P(e0, e1), P(e3, e4)).
    e0, e1, _, e3, e4 = ((1, v) for v in vals)
    da, db = _join("p", _join("s", e0, e3, q), _join("s", e1, e4, q), q)
    ca, cb = _join("s", _join("p", e0, e1, q), _join("p", e3, e4, q), q)
    return (da + vals[2] * ca, db + vals[2] * cb)


def tree_ab(tree: DecompTree, q, weights=None) -> TreePairs:
    """Evaluate the split pairs bottom-up; exact whenever the inputs are.

    Refuses INF and UNDEF weights (GraphError), as tree_veff does.
    """
    wfn, by_shape = _weights_plan(weights, q)
    slots = tree.program(by_shape)[2]
    values: list[tuple] = []
    for kind, i, j in tree.steps(by_shape):       # a leaf step's i, j: base, edges
        if kind == LEAF:
            values.append(_leaf_pair(i, j, q, wfn))
        else:
            values.append(_join(kind, values[i], values[j], q))
    a, b = values[-1]
    return TreePairs(a, b, q * q * a + q * b, (tree, values, slots, len(slots)))


@dataclass
class TreeEffective:
    """Effective-weight-route result; an undefined outcome is flagged, not raised."""
    veff: object                      # finite value, or UNDEF
    prefactor: object                 # leaf A values times series prefactors, or UNDEF
    z: object                         # q(q + veff) * prefactor, or UNDEF
    defined: bool
    _steps: tuple = field(repr=False, compare=False)    # _per_node's arguments
    per_node = cached_property(lambda self: _per_node(*self._steps))    # on first read


def _prefactor_is_zero(pref, tol) -> bool:
    # float and complex first: a Fraction check is an abstract-class check.
    if not isinstance(pref, (float, complex)) and isinstance(pref, (int, Fraction)):
        return pref == 0
    return abs(pref) < tol


def tree_veff(tree: DecompTree, q, weights=None) -> TreeEffective:
    """Label nodes with v_eff; each step also carries its subtree's prefactor.

    Steps join by the paper's rules: v = (1 + v1)(1 + v2) - 1 in parallel,
    and v = v1*v2/(q + v1 + v2) in series, whose denominator is the series
    prefactor itself.  A step's prefactor is its A value at a leaf, the
    product of its children's in parallel, and that product times
    q + v1 + v2 in series; the root's gives z = q(q + v_eff) * prefactor.

    Requires a numeric q != 0, finite weights and a nonzero A value at
    every leaf (GraphError otherwise).  When a series prefactor q + v1 + v2
    vanishes (exactly for exact inputs, below 1e-14*(1+|q|) in floating
    point) the result is undefined: v_eff, prefactor and z are UNDEF, and
    per_node ends at that node, in post-order, mapped to UNDEF.  Whenever
    the route completes, z agrees with the pair route.
    """
    if not isinstance(q, _NUMERIC):
        raise GraphError("the effective-weight route needs a numeric q")
    if q == 0:
        raise GraphError("q must be nonzero")
    wfn, by_shape = _weights_plan(weights, q)
    tol = 1e-14 * (1.0 + abs(q))
    at, _, slots = tree.program(by_shape)
    values: list = []
    prefactors: list = []
    for kind, i, j in tree.steps(by_shape):
        if kind == LEAF:
            pref, b = _leaf_pair(i, j, q, wfn)
            if pref == 0:
                raise GraphError("leaf A value is zero; the effective-weight route needs A != 0")
            v = b / pref
        else:
            v1, v2 = values[i], values[j]
            pref = prefactors[i] * prefactors[j]
            if kind == "p":
                v = (1 + v1) * (1 + v2) - 1
            elif _prefactor_is_zero(join := q + v1 + v2, tol):
                cut = at[len(values)] + 1           # per_node ends at this step's node
                values.append(UNDEF)
                return TreeEffective(UNDEF, UNDEF, UNDEF, False, (tree, values, slots, cut))
            else:
                v, pref = v1 * v2 / join, pref * join
        values.append(v)
        prefactors.append(pref)
    v, pref = values[-1], prefactors[-1]
    return TreeEffective(v, pref, q * (q + v) * pref, True, (tree, values, slots, len(slots)))


# ---------------------------------------------------------------------------
# Chromatic polynomials
# ---------------------------------------------------------------------------

def _coefficient_bound(tree: DecompTree) -> int:
    """M = |A - B| + 2|A + B| at q = -1: at least |c| for each coefficient c of A, B and Z."""
    at = tree_ab(tree, -1, weights=-1)
    return abs(at.a - at.b) + 2 * abs(at.a + at.b)


def _pairs_at_power_of_two(tree: DecompTree) -> tuple[TreePairs, int]:
    """The pair route under weights -1 at q = 2^k, and k: 8 ceil((bitlen M + 2)/8)."""
    width = 8 * -(-(_coefficient_bound(tree).bit_length() + 2) // 8)
    return tree_ab(tree, 1 << width, weights=-1), width


def chromatic_pair(tree: DecompTree) -> tuple[BigPoly, BigPoly]:
    """Exact (A, B) under all weights -1, read off one integer evaluation at q = 2^k."""
    pairs, width = _pairs_at_power_of_two(tree)
    return (BigPoly.from_balanced_digits(pairs.a, width),
            BigPoly.from_balanced_digits(pairs.b, width))


def _chromatic_from_tree(tree: DecompTree) -> BigPoly:
    pairs, width = _pairs_at_power_of_two(tree)
    return BigPoly.from_balanced_digits(pairs.z, width)


def chromatic_poly(g: Multigraph | TwoTerminalGraph | DecompTree) -> BigPoly:
    """Exact chromatic polynomial (all weights -1).

    A decomposition tree goes through the pair route at one integer point,
    whatever its leaves (see the module docstring).  A graph (of a
    2-terminal one, its graph) factors over components and blocks, each
    block through decompose_sp and the pair route; only a block with a K4
    minor, which no s-t series-parallel graph has, falls back to the subset
    oracle (guarded by its DEFAULT_EDGE_LIMIT).  Loops are rejected: a loop
    makes the polynomial identically zero.
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
