"""Series-parallel structure: expression DSL, decomposition trees, recognition.

A decomposition tree is a rooted binary tree whose nodes are 2-terminal
subgraphs of a host graph: an s-node is the series composition of its
ordered children, a p-node the parallel composition, and a leaf is an
undecomposed constituent (a single edge, a Wheatstone bridge, or a general
gadget).  Every node caches its between-terminals flow, computed from leaf
flows by the series-min / parallel-sum rule.

The DSL grammar:

    expr   := atom suffix*
    atom   := "e" | "W" | ("S" | "P") "(" expr ("," expr)+ ")"
    suffix := "^||" INT      parallel repetition
            | "^><" INT      series repetition   (unicode bowtie accepted)

N-ary S(...) / P(...) fold left into binary nodes; whitespace is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import GraphError, Multigraph, TwoTerminalGraph, blocks, max_flow


class ParseError(ValueError):
    """Syntax error in an SP expression, with its character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Decomposition trees
# ---------------------------------------------------------------------------

LEAF, SERIES, PARALLEL = "leaf", "s", "p"


@dataclass(frozen=True)
class DecompNode:
    """One constituent: terminals in the host graph, covered edges, children."""
    kind: str                         # 'leaf' | 's' | 'p'
    s: int
    t: int
    edges: tuple[int, ...]            # host edge indices, sorted
    children: tuple["DecompNode", ...]
    flow: int
    base: str | None = None           # leaves only: 'e', 'W', or None (gadget)

    def is_leaf(self) -> bool:
        return self.kind == LEAF

    def reversed(self) -> "DecompNode":
        """Swap the terminal pair; series children flip order and reverse."""
        if self.kind == SERIES:
            kids = tuple(c.reversed() for c in reversed(self.children))
        else:
            kids = self.children
        return DecompNode(self.kind, self.t, self.s, self.edges, kids, self.flow, self.base)


def _leaf_node(s: int, t: int, edges: tuple[int, ...], base: str | None,
               flow: int) -> DecompNode:
    return DecompNode(LEAF, s, t, tuple(sorted(edges)), (), flow, base)


def _series_node(left: DecompNode, right: DecompNode) -> DecompNode:
    if left.t != right.s:
        raise GraphError("series composition: left.t must equal right.s")
    edges = tuple(sorted(left.edges + right.edges))
    return DecompNode(SERIES, left.s, right.t, edges, (left, right),
                      min(left.flow, right.flow))


def _parallel_node(left: DecompNode, right: DecompNode) -> DecompNode:
    if (left.s, left.t) != (right.s, right.t):
        raise GraphError("parallel composition: terminal pairs must coincide")
    edges = tuple(sorted(left.edges + right.edges))
    return DecompNode(PARALLEL, left.s, left.t, edges, (left, right),
                      left.flow + right.flow)


@dataclass(frozen=True)
class DecompTree:
    graph: TwoTerminalGraph
    root: DecompNode

    def nodes(self) -> Iterator[DecompNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator[DecompNode]:
        return (n for n in self.nodes() if n.is_leaf())

    def constituent(self, node: DecompNode) -> TwoTerminalGraph:
        """Materialize a node's subgraph, relabeled by first edge appearance."""
        g = self.graph.graph
        vmap: dict[int, int] = {}
        pairs = []
        for i in node.edges:
            a, b = g.edges[i]
            for v in (a, b):
                if v not in vmap:
                    vmap[v] = len(vmap)
            pairs.append((vmap[a], vmap[b]))
        return TwoTerminalGraph(Multigraph(len(vmap), tuple(pairs)),
                                vmap[node.s], vmap[node.t])


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


class _Realizer:
    """Builds a graph and tree from an AST, merging vertices by union-find."""

    def __init__(self):
        self.parent: list[int] = []
        self.edges: list[tuple[int, int]] = []

    def fresh(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, keep: int, drop: int) -> None:
        self.parent[self.find(drop)] = self.find(keep)

    def add_edge(self, a: int, b: int) -> int:
        self.edges.append((a, b))
        return len(self.edges) - 1

    def build(self, ast: SPExpr) -> tuple[int, int, "_ProtoNode"]:
        if isinstance(ast, SPLeaf):
            return self.build_leaf(ast.base)
        kids = [self.build(arg) for arg in ast.args]
        s, t, node = kids[0]
        for s2, t2, node2 in kids[1:]:
            if ast.kind == SERIES:
                self.union(t, s2)
                node = _ProtoNode(SERIES, s, t2, (node, node2))
                t = t2
            else:
                self.union(s, s2)
                self.union(t, t2)
                node = _ProtoNode(PARALLEL, s, t, (node, node2))
        return s, t, node

    def build_leaf(self, base: str) -> tuple[int, int, "_ProtoNode"]:
        if base == "e":
            s, t = self.fresh(), self.fresh()
            i = self.add_edge(s, t)
            return s, t, _ProtoNode(LEAF, s, t, (), base, (i,))
        if base == "W":
            s, a, b, t = (self.fresh() for _ in range(4))
            idx = tuple(self.add_edge(u, v)
                        for u, v in ((s, a), (s, b), (a, b), (a, t), (b, t)))
            return s, t, _ProtoNode(LEAF, s, t, (), base, idx)
        raise GraphError(f"unknown leaf base {base!r}")


@dataclass
class _ProtoNode:
    kind: str
    s: int
    t: int
    children: tuple
    base: str | None = None
    edge_idx: tuple[int, ...] = ()


_LEAF_FLOW = {"e": 1, "W": 2}


def _finalize(rz: _Realizer, s: int, t: int, proto: _ProtoNode
              ) -> tuple[TwoTerminalGraph, DecompTree]:
    # Compact union-find classes to 0..n-1 in order of first edge appearance.
    remap: dict[int, int] = {}

    def new_id(v: int) -> int:
        r = rz.find(v)
        if r not in remap:
            remap[r] = len(remap)
        return remap[r]

    edges = tuple((new_id(a), new_id(b)) for a, b in rz.edges)
    graph = Multigraph(len(remap), edges)
    tt = TwoTerminalGraph(graph, new_id(s), new_id(t))

    def freeze(p: _ProtoNode) -> DecompNode:
        if p.kind == LEAF:
            return _leaf_node(new_id(p.s), new_id(p.t), p.edge_idx, p.base,
                              _LEAF_FLOW[p.base])
        left = freeze(p.children[0])
        right = freeze(p.children[1])
        if p.kind == SERIES:
            return _series_node(left, right)
        return _parallel_node(left, right)

    return tt, DecompTree(tt, freeze(proto))


def realize(ast: SPExpr) -> tuple[TwoTerminalGraph, DecompTree]:
    """Build the denoted 2-terminal graph plus its decomposition tree."""
    rz = _Realizer()
    s, t, proto = rz.build(ast)
    return _finalize(rz, s, t, proto)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

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
            if text.startswith("||", pos):
                kind = PARALLEL
                pos += 2
            elif text.startswith("><", pos):
                kind = SERIES
                pos += 2
            elif pos < n and text[pos] == "⋈":   # bowtie
                kind = SERIES
                pos += 1
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
        if ch == "e":
            pos += 1
            return SPLeaf("e")
        if ch == "W":
            pos += 1
            return SPLeaf("W")
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

    Repeatedly merges parallel super-edge pairs and contracts internal
    degree-2 vertices, recording the tree.  Succeeds exactly when (G, s, t)
    is 2-terminal series-parallel; the reduction order (lowest indices
    first) fixes one canonical tree among the maximal ones.
    """
    g = tt.graph
    g.require_loopless("decompose_sp")
    if g.edge_count == 0 or not g.is_connected():
        raise GraphError("decompose_sp needs a connected graph with edges")

    # Super-edges: id -> (u, v, node); node terminals are (u, v).
    sedges: dict[int, tuple[int, int, DecompNode]] = {}
    incident: dict[int, set[int]] = {v: set() for v in range(g.vertex_count)}
    for i, (a, b) in enumerate(g.edges):
        sedges[i] = (a, b, _leaf_node(a, b, (i,), "e", 1))
        incident[a].add(i)
        incident[b].add(i)
    next_id = g.edge_count

    def oriented(eid: int, want_s: int) -> DecompNode:
        u, v, node = sedges[eid]
        return node if node.s == want_s else node.reversed()

    def remove(eid: int):
        u, v, _ = sedges.pop(eid)
        incident[u].discard(eid)
        incident[v].discard(eid)

    def add(u: int, v: int, node: DecompNode) -> int:
        nonlocal next_id
        eid = next_id
        next_id += 1
        sedges[eid] = (u, v, node)
        incident[u].add(eid)
        incident[v].add(eid)
        return eid

    while True:
        # Parallel merges, lowest edge ids first.
        merged = True
        while merged:
            merged = False
            by_pair: dict[frozenset, list[int]] = {}
            for eid in sorted(sedges):
                u, v, _ = sedges[eid]
                by_pair.setdefault(frozenset((u, v)), []).append(eid)
            for pair_ids in by_pair.values():
                if len(pair_ids) >= 2:
                    e1, e2 = pair_ids[0], pair_ids[1]
                    u, v, _ = sedges[e1]
                    node = _parallel_node(oriented(e1, u), oriented(e2, u))
                    remove(e1)
                    remove(e2)
                    add(u, v, node)
                    merged = True
                    break

        if len(sedges) == 1:
            (eid, (u, v, _)) = next(iter(sedges.items()))
            if {u, v} == {tt.s, tt.t}:
                return DecompTree(tt, oriented(eid, tt.s))
            return None

        # One series contraction at the lowest eligible internal vertex.
        for w in range(g.vertex_count):
            if w in (tt.s, tt.t) or len(incident[w]) != 2:
                continue
            e1, e2 = sorted(incident[w])
            u1, v1, _ = sedges[e1]
            u2, v2, _ = sedges[e2]
            u = v1 if u1 == w else u1
            v = v2 if u2 == w else u2
            # A u == v situation would be a parallel pair, already merged.
            assert u != v
            node = _series_node(oriented(e1, u), oriented(e2, w))
            remove(e1)
            remove(e2)
            add(u, v, node)
            break
        else:
            return None


def is_nice(tt: TwoTerminalGraph) -> bool:
    """True iff the graph is connected and gains no cut vertex from adding st."""
    g = tt.graph
    if not g.is_connected():
        return False
    return len(blocks(g.with_edge(tt.s, tt.t))) == 1


# ---------------------------------------------------------------------------
# Graph-level composition (general gadgets)
# ---------------------------------------------------------------------------

def _shift_node(node: DecompNode, vmap: dict[int, int], eshift: int) -> DecompNode:
    kids = tuple(_shift_node(c, vmap, eshift) for c in node.children)
    return DecompNode(node.kind, vmap[node.s], vmap[node.t],
                      tuple(e + eshift for e in node.edges), kids,
                      node.flow, node.base)


def _compose(kind: str, a: tuple[TwoTerminalGraph, DecompNode],
             b: tuple[TwoTerminalGraph, DecompNode]
             ) -> tuple[TwoTerminalGraph, DecompNode]:
    (ta, na), (tb, nb) = a, b
    ga, gb = ta.graph, tb.graph
    if kind == SERIES:
        glued = {tb.s: ta.t}
    else:
        glued = {tb.s: ta.s, tb.t: ta.t}
    vmap: dict[int, int] = {}
    fresh = ga.vertex_count
    for v in range(gb.vertex_count):
        if v in glued:
            vmap[v] = glued[v]
        else:
            vmap[v] = fresh
            fresh += 1
    edges = ga.edges + tuple((vmap[x], vmap[y]) for x, y in gb.edges)
    graph = Multigraph(fresh, edges)
    nb2 = _shift_node(nb, vmap, ga.edge_count)
    if kind == SERIES:
        node = _series_node(na, nb2)
        tt = TwoTerminalGraph(graph, ta.s, vmap[tb.t])
    else:
        node = _parallel_node(na, nb2)
        tt = TwoTerminalGraph(graph, ta.s, ta.t)
    return tt, node


def _gadget_unit(gadget: TwoTerminalGraph) -> tuple[TwoTerminalGraph, DecompNode]:
    edges = tuple(range(gadget.graph.edge_count))
    node = _leaf_node(gadget.s, gadget.t, edges, None, max_flow(gadget))
    return gadget, node


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


def gen_gadget_cycle(gadget: TwoTerminalGraph, copies: int
                     ) -> tuple[TwoTerminalGraph, DecompTree]:
    """copies chained gadget instances plus one plain edge, closed in a cycle.

    Terminals are the endpoints of the plain edge, so the result is the
    parallel composition of that edge with the gadget chain.
    """
    if copies < 1:
        raise GraphError("need at least one gadget copy")
    chain = _gadget_unit(gadget)
    for _ in range(copies - 1):
        chain = _compose(SERIES, chain, _gadget_unit(gadget))
    edge_tt, edge_tree = realize(SPLeaf("e"))
    tt, node = _compose(PARALLEL, (edge_tt, edge_tree.root), chain)
    return tt, DecompTree(tt, node)
