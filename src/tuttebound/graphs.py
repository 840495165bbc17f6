"""Multigraphs, two-terminal graphs, flows, and block decomposition.

Vertices are integers ``0..n-1``, and Multigraph refuses any other number.
Edges are an ordered tuple of endpoint pairs; the position of an edge in
that tuple is its identity, so parallel edges are distinct and weight maps
key on edge indices.  Loops are allowed in raw input, but flow and coloring
operations reject them.

A graph's one adjacency is its arc lists, shared by degree and by every
cut, component and block search.  Flows are unit-capacity augmenting-path
max flows.  maxmaxflow takes one per edge of Gusfield's equivalent-flow
tree over the vertices of high enough degree, instead of one per vertex pair.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Malformed graph, or an operation applied outside its domain."""


@dataclass(frozen=True)
class Multigraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        index = operator.index          # exact ints only: no float, str or rounding
        try:
            n = index(self.vertex_count)
            edges = tuple((index(a), index(b)) for a, b in self.edges)
        except TypeError as exc:
            raise GraphError(f"vertex_count and endpoints must be integers: {exc}") from None
        if n < 0:
            raise GraphError("vertex_count must be nonnegative")
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise GraphError(f"edge ({a},{b}) has endpoint outside 0..{n - 1}")
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_loops(self) -> bool:
        return any(a == b for a, b in self.edges)

    def require_loopless(self, what: str) -> None:
        if self.has_loops():
            raise GraphError(f"{what} requires a loopless graph")

    def degree(self, v: int) -> int:
        """Degree of v: its number of arcs, so a loop at v counts twice."""
        return len(self._arcs[1][v])

    @cached_property
    def _arcs(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The adjacency: the head of each arc and the arcs out of each vertex.

        Edge i becomes arcs 2i (a->b) and 2i+1 (b->a), so arc j runs along
        edge j >> 1 and j^1 is its reverse; a vertex's arcs come in edge
        order.  Built on first use (see the module docstring).
        """
        head = [0] * (2 * self.edge_count)
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (a, b) in enumerate(self.edges):
            head[2 * i] = b
            head[2 * i + 1] = a
            out[a].append(2 * i)
            out[b].append(2 * i + 1)
        return tuple(head), tuple(map(tuple, out))

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists."""
        seen = [False] * self.vertex_count
        head, out = self._arcs
        comps = []
        for start in range(self.vertex_count):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for j in out[v]:
                    u = head[j]
                    if not seen[u]:
                        seen[u] = True
                        comp.append(u)
                        queue.append(u)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def with_edge(self, a: int, b: int) -> "Multigraph":
        return Multigraph(self.vertex_count, self.edges + ((a, b),))

    def to_json(self, s: int | None = None, t: int | None = None) -> str:
        record: dict = {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges]}
        if s is not None:
            record["s"] = s
        if t is not None:
            record["t"] = t
        return json.dumps(record)


@dataclass(frozen=True)
class TwoTerminalGraph:
    graph: Multigraph
    s: int
    t: int

    def __post_init__(self) -> None:
        try:                            # vertex numbers by Multigraph's rule
            s, t = operator.index(self.s), operator.index(self.t)
        except TypeError as exc:
            raise GraphError(f"terminals must be integers: {exc}") from None
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        n = self.graph.vertex_count
        if not (0 <= s < n and 0 <= t < n):
            raise GraphError("terminal out of range")
        if s == t:
            raise GraphError("terminals must be distinct")


def json_source_text(source: str | Path) -> str:
    """JSON text of a path or a JSON string.

    A string whose first non-space character is ``{`` is the text itself;
    anything else is read as a path.
    """
    if isinstance(source, Path) or not source.lstrip().startswith("{"):
        return Path(source).read_text()
    return source


def load_graph(source: str | Path) -> tuple[Multigraph, int | None, int | None]:
    """Parse the JSON record {"vertices": n, "edges": [[a,b],...], "s":?, "t":?}.

    ``source`` may be a path or a JSON string (see json_source_text).
    Returns (graph, s, t): the record gives both terminals or neither (None).
    """
    text = json_source_text(source)
    try:
        record = json.loads(text)
        g = Multigraph(record["vertices"], record["edges"])
        # Terminals are vertex numbers, held to Multigraph's rule.
        s, t = (None if record.get(k) is None else operator.index(record[k]) for k in "st")
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise GraphError(f"bad graph record: {exc}") from exc
    if (s is None) != (t is None):
        raise GraphError(f"bad graph record: missing key {'s' if s is None else 't'!r}")
    return g, s, t


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------

def max_flow(g: Multigraph | TwoTerminalGraph, x: int | None = None, y: int | None = None) -> int:
    """Maximum number of edge-disjoint x-y paths (unit capacity per edge).

    Accepts either a TwoTerminalGraph (flow between its terminals) or a
    Multigraph plus an explicit vertex pair.  Parallel edges count
    separately; loops are rejected.
    """
    if isinstance(g, TwoTerminalGraph):
        x, y = g.s, g.t
        g = g.graph
    if x is None or y is None:
        raise GraphError("max_flow needs a vertex pair")
    if not (0 <= x < g.vertex_count and 0 <= y < g.vertex_count):
        raise GraphError("flow endpoints out of range")
    if x == y:
        raise GraphError("flow endpoints must be distinct")
    g.require_loopless("max_flow")
    return _min_cut(g, x, y)[0]


def _min_cut(g: Multigraph, x: int, y: int) -> tuple[int, list[bool]]:
    """Maximum x-y flow of a loopless g and the x side of a minimum cut.

    Augments along shortest residual paths; the side is the set of vertices
    the last search, which no longer reaches y, got to from x.
    """
    head, out = g._arcs                # capacity 1 on every arc
    flow = [0] * len(head)

    total = 0
    while True:
        parent_arc = [-1] * g.vertex_count
        parent_arc[x] = -2
        queue = deque([x])
        while queue and parent_arc[y] == -1:
            v = queue.popleft()
            for j in out[v]:
                u = head[j]
                if parent_arc[u] == -1 and flow[j] - flow[j ^ 1] < 1:
                    parent_arc[u] = j
                    queue.append(u)
        if parent_arc[y] == -1:
            return total, [arc != -1 for arc in parent_arc]
        v = y
        while v != x:
            j = parent_arc[v]
            if flow[j ^ 1] > 0:
                flow[j ^ 1] -= 1
            else:
                flow[j] += 1
            v = head[j ^ 1]
        total += 1


def maxmaxflow(g: Multigraph, limit: int | None = None) -> int:
    """Maximum of max_flow over all unordered vertex pairs.

    A pair that includes a vertex of degree below k has flow at most k-1,
    so only the terminals T = {v : deg v >= k} need their pairs compared,
    starting from k = the second-largest degree.  Over T this builds
    Gusfield's equivalent-flow tree (SIAM J. Comput. 19, 1990) from |T|-1
    minimum cuts, each taken in the whole graph: terminal s is cut from its
    current tree parent t, and the later terminals on s's side that hang
    from t move under s.  Every pair's flow is the lightest edge on its tree
    path, so the best pair of T is the largest cut value m.  That is the
    answer once m >= k-1; otherwise k drops to m+1 and T grows.  With limit
    set, returns early with the first value found above it (exact whenever
    the result is <= limit; callers use this to filter).
    """
    n = g.vertex_count
    if n < 2:
        raise GraphError("maxmaxflow needs at least 2 vertices")
    g.require_loopless("maxmaxflow")
    degrees = list(map(len, g._arcs[1]))
    k = sorted(degrees)[-2]
    while True:
        terminals = [v for v, d in enumerate(degrees) if d >= k]
        parent = dict.fromkeys(terminals, terminals[0])
        best = 0
        for i, s in enumerate(terminals[1:], 2):
            t = parent[s]
            f, side = _min_cut(g, s, t)
            for u in terminals[i:]:
                if side[u] and parent[u] == t:
                    parent[u] = s
            if f > best:
                best = f
                if limit is not None and best > limit:
                    return best
        if best >= k - 1:
            return best
        k = best + 1


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """A maximal nonseparable subgraph, relabeled to 0..k-1.

    vertices[i] is the original id of block vertex i; edge_indices[j] is the
    original index of block edge j.  A lone loop forms its own block, and an
    isolated vertex is a block with no edges.
    """
    graph: Multigraph
    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]


def blocks(g: Multigraph) -> list[Block]:
    """Block decomposition; the blocks partition the edge set."""
    head, arcs = g._arcs
    visited_edge = [False] * g.edge_count
    num = [0] * g.vertex_count          # DFS numbers, 1-based; 0 = unvisited
    low = [0] * g.vertex_count
    out: list[Block] = []
    loop_edges = [i for i, (a, b) in enumerate(g.edges) if a == b]
    for i in loop_edges:
        visited_edge[i] = True
        v = g.edges[i][0]
        out.append(Block(Multigraph(1, ((0, 0),)), (v,), (i,)))

    counter = 1
    for root in range(g.vertex_count):
        if num[root]:
            continue
        # Iterative DFS; an explicit stack keeps deep series chains safe.
        num[root] = low[root] = counter
        counter += 1
        edge_stack: list[int] = []
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, iter(arcs[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for arc in it:
                j = arc >> 1
                if visited_edge[j]:
                    continue
                u = head[arc]
                visited_edge[j] = True
                edge_stack.append(j)
                if num[u] == 0:
                    num[u] = low[u] = counter
                    counter += 1
                    stack.append((u, j, iter(arcs[u])))
                    advanced = True
                    break
                low[v] = min(low[v], num[u])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= num[pv]:
                    # pv is a cut vertex (or the root): pop one block.
                    members: list[int] = []
                    while True:
                        j = edge_stack.pop()
                        members.append(j)
                        if j == in_edge:
                            break
                    out.append(_make_block(g, members))
        if not arcs[root]:              # an isolated vertex; a loop has arcs
            out.append(Block(Multigraph(1, ()), (root,), ()))
        assert not edge_stack
    return out


def _make_block(g: Multigraph, edge_members: list[int]) -> Block:
    edge_members = sorted(edge_members)
    label: dict[int, int] = {}
    pairs = number_vertices([g.edges[j] for j in edge_members], label)
    return Block(Multigraph(len(label), tuple(pairs)), tuple(label), tuple(edge_members))


def number_vertices(pairs: Iterable[tuple[int, int]], label: dict) -> list[tuple[int, int]]:
    """The edges with each vertex replaced by its number in order of first
    appearance; label holds the numbers given so far and gains the new ones."""
    return [(label.setdefault(a, len(label)), label.setdefault(b, len(label)))
            for a, b in pairs]


# ---------------------------------------------------------------------------
# Gadget insertion
# ---------------------------------------------------------------------------

def insert_2term(h: Multigraph, e_star: int, g: TwoTerminalGraph) -> Multigraph:
    """Replace edge e_star of h by the 2-terminal graph g.

    The edge is deleted and g is glued in with s on the first endpoint and t
    on the second.  Edge order of the result: h's edges without e_star, in
    their original order, then g's edges.
    """
    if not (0 <= e_star < h.edge_count):
        raise GraphError("invalid edge index")
    a, b = h.edges[e_star]
    gg = g.graph
    # Nonterminal vertices of g get fresh ids after h's.
    fresh = h.vertex_count
    vmap: dict[int, int] = {g.s: a, g.t: b}
    for v in range(gg.vertex_count):
        if v not in vmap:
            vmap[v] = fresh
            fresh += 1
    new_edges = [e for i, e in enumerate(h.edges) if i != e_star]
    new_edges.extend((vmap[u], vmap[w]) for u, w in gg.edges)
    return Multigraph(fresh, tuple(new_edges))


# ---------------------------------------------------------------------------
# Small constructions (used by tests and generators)
# ---------------------------------------------------------------------------

def disjoint_union(g1: Multigraph, g2: Multigraph) -> Multigraph:
    shift = g1.vertex_count
    edges = g1.edges + tuple((a + shift, b + shift) for a, b in g2.edges)
    return Multigraph(g1.vertex_count + g2.vertex_count, edges)


def glue_at_vertex(g1: Multigraph, v1: int, g2: Multigraph, v2: int) -> Multigraph:
    """Identify v1 of g1 with v2 of g2 (cut-vertex gluing)."""
    shift = g1.vertex_count
    def remap(v: int) -> int:
        if v == v2:
            return v1
        return v + shift - (1 if v > v2 else 0)
    edges = g1.edges + tuple((remap(a), remap(b)) for a, b in g2.edges)
    return Multigraph(g1.vertex_count + g2.vertex_count - 1, edges)


def banana(r: int) -> Multigraph:
    """Two vertices joined by r parallel edges."""
    if r < 1:
        raise GraphError("need at least one edge")
    return Multigraph(2, tuple((0, 1) for _ in range(r)))


def path_graph(k: int) -> Multigraph:
    """Path with k edges on k+1 vertices."""
    if k < 1:
        raise GraphError("need at least one edge")
    return Multigraph(k + 1, tuple((i, i + 1) for i in range(k)))


def cycle_graph(k: int) -> Multigraph:
    if k < 1:
        raise GraphError("need at least one edge")
    if k == 1:
        return Multigraph(1, ((0, 0),))
    return Multigraph(k, tuple((i, (i + 1) % k) for i in range(k)))
