"""Series-parallel structure: expression DSL, decomposition trees, recognition.

A decomposition tree is a rooted binary tree whose nodes are 2-terminal
subgraphs of a host graph: an s-node is the series composition of its
ordered children, a p-node the parallel composition, and a leaf is an
undecomposed constituent: a single edge or a Wheatstone bridge.  Every
node caches its between-terminals flow, computed from leaf flows by the
series-min / parallel-sum rule.  Nodes compare and hash by identity, and
only leaves list their host edges, so a tree takes memory linear in its
edge count at any depth.

Trees are built without recursion.  `realize` walks an expression with an
explicit stack, numbering each vertex as its first edge is emitted
(`graphs.number_vertices`, which `DecompTree.constituent` and `blocks` use
too) and building each leaf's node there; `decompose_sp` recognises a graph
by a worklist series / parallel reduction and orients the result once, from
s.  Both hand one post-order list to the same node builder, which stores
that order on the tree and interns a shape id per node (hash-consing;
Filliatre & Conchon, ML Workshop 2006): kind, leaf base and the children's
shape ids in order, not edge labels or terminals.  The same pass records
two evaluation programs: each node's children positions (the node program),
and each shape's first node and children's shape ids (the shape program, a
DAG).  The engine runs the shape program under a scalar weight and the node
program under per-edge weights.  A gadget is an expression like any other,
so the copies in a gadget cycle share their shapes.

The DSL grammar:

    expr   := atom suffix*
    atom   := "e" | "W" | ("S" | "P") "(" expr ("," expr)+ ")"
    suffix := "^||" INT      parallel repetition
            | "^><" INT      series repetition   (unicode bowtie accepted)

N-ary S(...) / P(...) fold left into binary nodes; whitespace is free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterator, Sequence

from .graphs import GraphError, Multigraph, TwoTerminalGraph, blocks, number_vertices


class ParseError(ValueError):
    """Syntax error in an SP expression, with its character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Decomposition trees
# ---------------------------------------------------------------------------

LEAF, SERIES, PARALLEL = "leaf", "s", "p"


@dataclass(frozen=True, eq=False)
class DecompNode:
    """One constituent: terminals in the host graph, children, cached flow.

    Nodes compare and hash by identity; only leaves list their host edges.
    """
    kind: str                         # 'leaf' | 's' | 'p'
    s: int
    t: int
    edges: tuple[int, ...]            # leaves only: host edge indices, sorted
    children: tuple["DecompNode", ...]
    flow: int
    base: str | None = None           # leaves only: 'e' or 'W'

    def is_leaf(self) -> bool:
        return self.kind == LEAF


def _subtree(node: DecompNode) -> Iterator[DecompNode]:
    """The nodes under node (itself included) in pre-order."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def _assemble(graph: TwoTerminalGraph, post: list) -> DecompTree:
    """Build a tree from a post-order list of leaf nodes and 's' / 'p' marks.

    A mark composes the last two nodes built: series keeps the left node's
    s and the right node's t, parallel keeps the left node's terminals.  The
    same pass records the tree's two evaluation programs (DecompTree.program).
    """
    order: list[DecompNode] = []
    kids: list[tuple[int, ...]] = []   # children positions of order[k]
    shapes: list[int] = []
    table: dict[tuple, int] = {}       # (kind, base or child shape ids) -> shape id
    shape_nodes: list[int] = []        # position of each shape's first node
    shape_kids: list[tuple[int, ...]] = []
    stack: list[int] = []              # positions of the subtrees not yet composed
    for item in post:
        if isinstance(item, DecompNode):
            node, key, pair = item, (LEAF, item.base), ()
        else:
            i, j = stack.pop(-2), stack.pop()
            left, right = order[i], order[j]
            if item == SERIES:
                node = DecompNode(SERIES, left.s, right.t, (), (left, right),
                                  min(left.flow, right.flow))
            else:
                node = DecompNode(PARALLEL, left.s, left.t, (), (left, right),
                                  left.flow + right.flow)
            key, pair = (item, shapes[i], shapes[j]), (i, j)
        shape = table.setdefault(key, len(table))
        if shape == len(shape_nodes):
            shape_nodes.append(len(order))
            shape_kids.append(key[1:] if pair else ())
        stack.append(len(order))
        order.append(node)
        kids.append(pair)
        shapes.append(shape)
    (root,) = stack
    return DecompTree(graph, order[root], tuple(order), tuple(shapes), tuple(kids),
                      tuple(shape_nodes), tuple(shape_kids))


@dataclass(frozen=True)
class DecompTree:
    graph: TwoTerminalGraph
    root: DecompNode
    order: tuple[DecompNode, ...] = field(compare=False, repr=False)  # post-order
    shapes: tuple[int, ...] = field(compare=False, repr=False)  # shape id of order[k]
    kids: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)  # children positions
    shape_nodes: tuple[int, ...] = field(compare=False, repr=False)  # first node of each shape
    shape_kids: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)  # children shapes

    def program(self, by_shape: bool) -> tuple[Sequence[int], Sequence[tuple[int, ...]],
                                               Sequence[int]]:
        """Steps (node position, children steps) in post-order, and each node's step.

        By shape there is one step per shape, at its first node; otherwise
        one step per node.  Either way a step's children come before it and
        the root's step is the last one.
        """
        if by_shape:
            return self.shape_nodes, self.shape_kids, self.shapes
        every = range(len(self.order))
        return every, self.kids, every

    def nodes(self) -> Iterator[DecompNode]:
        return _subtree(self.root)

    def leaves(self) -> Iterator[DecompNode]:
        return (n for n in self.nodes() if n.is_leaf())

    def constituent(self, node: DecompNode) -> TwoTerminalGraph:
        """Materialize a node's subgraph, relabeled by first edge appearance."""
        edges = self.graph.graph.edges
        label: dict[int, int] = {}
        pairs = number_vertices([edges[i] for i in sorted(i for n in _subtree(node)
                                                          for i in n.edges)], label)
        return TwoTerminalGraph(Multigraph(len(label), tuple(pairs)),
                                label[node.s], label[node.t])


def constituent_flows(tree: DecompTree) -> dict[DecompNode, int]:
    """Cached between-terminals flow of every constituent."""
    return {node: node.flow for node in tree.nodes()}


def check_proper_flow_bound(tree: DecompTree, lam: int) -> bool:
    """True iff every proper constituent has flow <= lam - 1 (p-node root)."""
    if tree.root.kind != PARALLEL:
        raise GraphError("flow-bound check needs a p-node root")
    return all(node.flow <= lam - 1
               for node in tree.nodes() if node is not tree.root)


# ---------------------------------------------------------------------------
# Expression AST and realization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SPLeaf:
    base: str                          # 'e' or 'W'


@dataclass(frozen=True)
class SPOp:
    kind: str                          # 's' or 'p'
    args: tuple


SPExpr = SPLeaf | SPOp

# Leaf templates: edges over template vertices (0 = s, 1 = t, 2.. inner),
# vertex count, and between-terminals flow.
_TEMPLATES = {
    "e": (((0, 1),), 2, 1),
    "W": (((0, 2), (0, 3), (2, 3), (2, 1), (3, 1)), 4, 2),
}


def realize(ast: SPExpr) -> tuple[TwoTerminalGraph, DecompTree]:
    """Build the denoted 2-terminal graph plus its decomposition tree.

    Terminals are assigned top-down and every leaf copies its template.  A
    vertex is numbered when its first edge is emitted (number_vertices), so
    each leaf's node is built with its edges.  Anything but an SPOp or an
    'e' or 'W' leaf is refused (GraphError).
    """
    edges: list[tuple[int, int]] = []
    label: dict[int, int] = {}         # abstract vertex -> its number
    post: list = []                    # leaf nodes and 's' / 'p' marks
    fresh = 2                          # abstract vertices; 0 and 1 are s and t
    work: list = [(ast, 0, 1)]
    while work:
        item = work.pop()
        if isinstance(item, str):
            post.append(item)
            continue
        expr, s, t = item
        if isinstance(expr, SPOp):
            # N-ary compositions fold left: arg, arg, mark, arg, mark, ...
            k = len(expr.args)
            if expr.kind == SERIES:
                ends = [s, *range(fresh, fresh + k - 1), t]
                fresh += k - 1
                spans = list(zip(ends, ends[1:]))
            else:
                spans = [(s, t)] * k
            todo: list = [(expr.args[0], *spans[0])]
            for arg, span in zip(expr.args[1:], spans[1:]):
                todo += [(arg, *span), expr.kind]
            work.extend(reversed(todo))
            continue
        if not isinstance(expr, SPLeaf) or expr.base not in _TEMPLATES:
            raise GraphError(f"not an SP expression: {expr!r:.60}")
        pairs, count, flow = _TEMPLATES[expr.base]
        vmap = [s, t, *range(fresh, fresh + count - 2)]
        fresh += count - 2
        first = len(edges)
        edges += number_vertices([(vmap[a], vmap[b]) for a, b in pairs], label)
        post.append(DecompNode(LEAF, label[s], label[t], tuple(range(first, len(edges))),
                               (), flow, expr.base))

    tt = TwoTerminalGraph(Multigraph(len(label), tuple(edges)), label[0], label[1])
    return tt, _assemble(tt, post)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_REPETITIONS = (("||", PARALLEL), ("><", SERIES), ("⋈", SERIES))   # unicode bowtie

def parse_sp_expression(text: str) -> SPExpr:
    """Parse DSL text to an AST (n-ary ops, repetition sugar expanded)."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def peek() -> str:
        skip_ws()
        return text[pos] if pos < n else ""

    def expect(ch: str):
        nonlocal pos
        skip_ws()
        if pos >= n or text[pos] != ch:
            raise ParseError(f"expected {ch!r}", pos)
        pos += 1

    def parse_int() -> int:
        nonlocal pos
        skip_ws()
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected an integer", start)
        return int(text[start:pos])

    def parse_expr() -> SPExpr:
        nonlocal pos
        node = parse_atom()
        while peek() == "^":
            pos += 1
            skip_ws()
            for token, kind in _REPETITIONS:
                if text.startswith(token, pos):
                    pos += len(token)
                    break
            else:
                raise ParseError("expected '||' or '><' after '^'", pos)
            count = parse_int()
            if count < 1:
                raise ParseError("repetition count must be >= 1", pos)
            if count > 1:
                node = SPOp(kind, (node,) * count)
        return node

    def parse_atom() -> SPExpr:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise ParseError("unexpected end of expression", pos)
        ch = text[pos]
        if ch in "eW":
            pos += 1
            return SPLeaf(ch)
        if ch in "SP":
            kind = SERIES if ch == "S" else PARALLEL
            pos += 1
            expect("(")
            args = [parse_expr()]
            while peek() == ",":
                pos += 1
                args.append(parse_expr())
            expect(")")
            if len(args) < 2:
                raise ParseError("composition needs at least two operands", pos)
            return SPOp(kind, tuple(args))
        raise ParseError(f"unexpected character {ch!r}", pos)

    skip_ws()
    if pos >= n:
        raise ParseError("empty expression", 0)
    ast = parse_expr()
    skip_ws()
    if pos != n:
        raise ParseError("trailing input", pos)
    return ast


def parse_sp(text: str) -> tuple[TwoTerminalGraph, DecompTree]:
    """Parse DSL text and realize the graph it denotes."""
    return realize(parse_sp_expression(text))


# ---------------------------------------------------------------------------
# Recognition by series/parallel reduction
# ---------------------------------------------------------------------------

def decompose_sp(tt: TwoTerminalGraph) -> DecompTree | None:
    """Maximal decomposition tree with single-edge leaves, or None.

    Merges parallel super-edge pairs and contracts internal degree-2
    vertices until one super-edge is left (Valdes, Tarjan & Lawler, SIAM J.
    Comput. 11, 1982).  Succeeds exactly when (G, s, t) is 2-terminal
    series-parallel.  The order fixes one canonical tree among the maximal
    ones: while some endpoint pair carries two super-edges, the group with
    the lowest id merges its two lowest ids; otherwise the lowest internal
    degree-2 vertex is contracted.  Merged super-edges get fresh ids above
    all others.  The tree is oriented once, from s, at the end.
    """
    g = tt.graph
    g.require_loopless("decompose_sp")
    if g.edge_count == 0 or not g.is_connected():
        raise GraphError("decompose_sp needs a connected graph with edges")

    # Super-edge id -> endpoints (u, v) and, once merged, (kind, first,
    # second, junction); a series super-edge runs u -> first -> w -> second -> v.
    ends: list[tuple[int, int]] = list(g.edges)
    parts: list[tuple] = [()] * len(ends)
    incident: list[set[int]] = [set() for _ in range(g.vertex_count)]
    groups: dict[tuple[int, int], deque[int]] = {}     # endpoint pair -> ids, ascending

    def pair(e: int) -> tuple[int, int]:
        a, b = ends[e]
        return (a, b) if a < b else (b, a)

    for i, (a, b) in enumerate(ends):
        incident[a].add(i)
        incident[b].add(i)
        groups.setdefault(pair(i), deque()).append(i)
    # Both heaps are checked lazily: an entry counts only while it still holds.
    pair_heap = [(ids[0], key) for key, ids in groups.items() if len(ids) > 1]
    vertex_heap = [w for w in range(g.vertex_count)
                   if w not in (tt.s, tt.t) and len(incident[w]) == 2]
    heapify(pair_heap)

    def merge(kind: str, e1: int, e2: int, u: int, v: int, w: int | None) -> None:
        """Replace super-edges e1 and e2 by a new super-edge from u to v."""
        for e in (e1, e2):
            for x in ends[e]:
                incident[x].discard(e)
        eid = len(ends)
        ends.append((u, v))
        parts.append((kind, e1, e2, w))
        incident[u].add(eid)
        incident[v].add(eid)
        key = pair(eid)
        ids = groups.setdefault(key, deque())
        ids.append(eid)
        if len(ids) > 1:
            heappush(pair_heap, (ids[0], key))

    while True:
        while pair_heap:
            low, key = heappop(pair_heap)
            ids = groups[key]
            if len(ids) < 2 or ids[0] != low:
                continue
            e1, e2 = ids.popleft(), ids.popleft()
            u, v = ends[e1]
            merge(PARALLEL, e1, e2, u, v, None)
            for x in (u, v):
                if x not in (tt.s, tt.t) and len(incident[x]) == 2:
                    heappush(vertex_heap, x)

        if len(ends) == 2 * g.edge_count - 1:       # one super-edge left
            if set(ends[-1]) != {tt.s, tt.t}:
                return None
            break

        while vertex_heap and len(incident[vertex_heap[0]]) != 2:
            heappop(vertex_heap)
        if not vertex_heap:
            return None
        w = heappop(vertex_heap)
        e1, e2 = sorted(incident[w])
        u = sum(ends[e1]) - w
        v = sum(ends[e2]) - w
        for e in (e1, e2):
            groups[pair(e)].popleft()
        merge(SERIES, e1, e2, u, v, w)

    # Orient from s: a p-node's parts share its source, an s-node starts
    # with the part that holds it.
    post: list = []
    work: list = [(len(ends) - 1, tt.s)]
    while work:
        item = work.pop()
        if isinstance(item, str):
            post.append(item)
            continue
        eid, x = item
        if not parts[eid]:
            post.append(DecompNode(LEAF, x, sum(ends[eid]) - x, (eid,), (), 1, "e"))
            continue
        kind, e1, e2, w = parts[eid]
        if kind == PARALLEL:
            work += [kind, (e2, x), (e1, x)]
        elif x == ends[eid][0]:
            work += [kind, (e2, w), (e1, x)]
        else:
            work += [kind, (e1, w), (e2, x)]
    return _assemble(tt, post)


def is_nice(tt: TwoTerminalGraph) -> bool:
    """True iff the graph is connected and gains no cut vertex from adding st."""
    g = tt.graph
    if not g.is_connected():
        return False
    return len(blocks(g.with_edge(tt.s, tt.t))) == 1


# ---------------------------------------------------------------------------
# Named generators
# ---------------------------------------------------------------------------

DEFAULT_VERTEX_LIMIT = 200_000


def gen_wheatstone() -> TwoTerminalGraph:
    """K4 minus an edge, terminals at the two degree-2 vertices."""
    tt, _tree = realize(SPLeaf("W"))
    return tt


def gen_theta(s: int, p: int) -> tuple[TwoTerminalGraph, DecompTree]:
    """p internally disjoint paths of s edges each, joined at the ends."""
    if s < 1 or p < 1:
        raise GraphError("need s >= 1 and p >= 1")
    path: SPExpr = SPLeaf("e") if s == 1 else SPOp(SERIES, (SPLeaf("e"),) * s)
    ast: SPExpr = path if p == 1 else SPOp(PARALLEL, (path,) * p)
    return realize(ast)


def leaf_joined_tree_ast(r: int, n: int) -> SPExpr:
    if r < 2 or n < 1:
        raise GraphError("need r >= 2 and n >= 1")
    ast: SPExpr = SPOp(PARALLEL, (SPLeaf("e"),) * r)
    for _ in range(n - 1):
        ast = SPOp(PARALLEL, (SPOp(SERIES, (SPLeaf("e"), ast)),) * r)
    return ast


def leaf_joined_vertex_count(r: int, n: int) -> int:
    if r < 2 or n < 1:
        raise GraphError("need r >= 2 and n >= 1")
    return (r ** n + r - 2) // (r - 1)


def gen_leaf_joined_tree(r: int, n: int,
                         max_vertices: int = DEFAULT_VERTEX_LIMIT
                         ) -> tuple[TwoTerminalGraph, DecompTree]:
    """Complete r-ary tree of height n with all leaves identified.

    Terminals are the root and the identified-leaves vertex; built from the
    recursion G_1 = r parallel edges, G_{n+1} = r parallel copies of
    (edge in series with G_n).
    """
    expected = leaf_joined_vertex_count(r, n)
    if expected > max_vertices:
        raise GraphError(f"{expected} vertices exceeds limit {max_vertices}")
    tt, tree = realize(leaf_joined_tree_ast(r, n))
    assert tt.graph.vertex_count == expected
    return tt, tree


def gen_gadget_cycle(gadget: SPExpr, copies: int
                     ) -> tuple[TwoTerminalGraph, DecompTree]:
    """copies chained gadget instances plus one plain edge, closed in a cycle.

    The gadget is an expression, so the result realizes
    P(e, S(gadget, ..., gadget)): its tree has only 'e' and 'W' leaves, and
    the copies share their shapes.  Terminals are the ends of the plain edge.
    """
    if copies < 1:
        raise GraphError("need at least one gadget copy")
    chain = gadget if copies == 1 else SPOp(SERIES, (gadget,) * copies)
    return realize(SPOp(PARALLEL, (SPLeaf("e"), chain)))
