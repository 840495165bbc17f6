import hashlib
import json
import random
from itertools import combinations

import pytest

from conftest import min_cut_brute, random_multigraph
from tuttebound import graphs
from tuttebound.graphs import (GraphError, Multigraph, TwoTerminalGraph, banana,
                               blocks, cycle_graph, disjoint_union, glue_at_vertex,
                               insert_2term, load_graph, max_flow, maxmaxflow,
                               path_graph)
from tuttebound.oracles import tutte_brute, partial_tutte_brute
from tuttebound.sp import gen_leaf_joined_tree, gen_theta, gen_wheatstone


def test_max_flow_parallel_edges():
    assert max_flow(banana(4), 0, 1) == 4


def test_max_flow_path():
    assert max_flow(path_graph(3), 0, 3) == 1


def test_max_flow_theta_endvertices():
    theta, _ = gen_theta(2, 3)
    assert max_flow(theta) == 3


def test_max_flow_two_terminal_object():
    assert max_flow(TwoTerminalGraph(banana(2), 0, 1)) == 2


def test_max_flow_rejects_equal_endpoints():
    with pytest.raises(GraphError):
        max_flow(banana(2), 0, 0)


def test_max_flow_rejects_out_of_range():
    with pytest.raises(GraphError):
        max_flow(banana(2), 0, 5)
    with pytest.raises(GraphError, match="needs a vertex pair"):
        max_flow(banana(2), 0)
    with pytest.raises(GraphError, match="terminal out of range"):
        TwoTerminalGraph(banana(2), 0, 2)
    with pytest.raises(GraphError, match="terminals must be distinct"):
        TwoTerminalGraph(banana(2), 1, 1)


def test_two_terminal_graph_takes_integer_terminals_only():
    import numpy as np
    tt = TwoTerminalGraph(banana(2), np.int64(0), True)
    assert (tt.s, tt.t) == (0, 1) and type(tt.s) is int and type(tt.t) is int
    for s, t in ((0.5, 1), (0, 1.0), ("0", 1), (0, None)):
        with pytest.raises(GraphError, match="terminals must be integers"):
            TwoTerminalGraph(banana(2), s, t)


def test_max_flow_rejects_loops():
    with pytest.raises(GraphError):
        max_flow(Multigraph(2, ((0, 0), (0, 1))), 0, 1)


def test_maxmaxflow_leaf_joined_tree():
    g, _ = gen_leaf_joined_tree(2, 3)
    assert maxmaxflow(g.graph) == 3


def test_maxmaxflow_single_edge():
    assert maxmaxflow(banana(1)) == 1


def test_maxmaxflow_wheatstone():
    # The two degree-3 vertices carry three edge-disjoint paths.
    assert maxmaxflow(gen_wheatstone().graph) == 3


def test_maxmaxflow_needs_two_vertices():
    with pytest.raises(GraphError):
        maxmaxflow(Multigraph(1, ()))


def _all_pairs_maxmaxflow(g):
    """Reference: the definition, max_flow over every unordered pair."""
    return max(max_flow(g, x, y) for x, y in combinations(range(g.vertex_count), 2))


def test_maxmaxflow_matches_all_pairs_definition():
    rng = random.Random(31)
    kinds = {"disconnected": 0, "isolated": 0, "parallel": 0}
    for draw in range(1200):
        g = random_multigraph(rng, max_vertices=9, max_edges=16,
                              ensure_connected=draw % 2 == 0)
        if draw % 5 == 1:
            g = Multigraph(g.vertex_count + rng.randint(1, 2), g.edges)
        kinds["disconnected"] += not g.is_connected()
        kinds["isolated"] += any(g.degree(v) == 0 for v in range(g.vertex_count))
        kinds["parallel"] += len({tuple(sorted(e)) for e in g.edges}) < g.edge_count
        lam = _all_pairs_maxmaxflow(g)
        assert maxmaxflow(g) == lam
        if g.vertex_count <= 6 and g.edge_count <= 9:
            assert lam == max(min_cut_brute(g, x, y)
                              for x, y in combinations(range(g.vertex_count), 2))
        for limit in range(lam + 2):
            got = maxmaxflow(g, limit=limit)
            assert (got > limit) == (lam > limit)
            if lam <= limit:
                assert got == lam
    assert min(kinds.values()) >= 100, kinds


def test_maxmaxflow_makes_one_cut_per_tree_edge(monkeypatch):
    # Gusfield's tree over the 511 vertices of degree >= 3 needs 510 cuts
    # (the degree-2 vertex has flow <= 2); all pairs would need 130,816 flows.
    tt, _ = gen_leaf_joined_tree(2, 9)
    assert (tt.graph.vertex_count, tt.graph.edge_count) == (512, 1022)
    calls = []
    cut = graphs._min_cut

    def counting_cut(g, x, y):
        calls.append((x, y))
        return cut(g, x, y)

    monkeypatch.setattr(graphs, "_min_cut", counting_cut)
    assert maxmaxflow(tt.graph) == 3
    assert len(calls) == 510


def test_maxmaxflow_lowers_the_degree_cut_when_the_top_vertices_are_apart():
    # Two 4-stars and a double edge: the centres are the terminals at first,
    # their flow 0 < 4 - 1 lets the degree cut fall to 1, and the double
    # edge's pair wins.
    star = lambda c: [(c, c + i) for i in range(1, 5)]
    g = Multigraph(12, tuple(star(0) + star(5) + [(10, 11), (10, 11)]))
    assert maxmaxflow(g) == 2 == _all_pairs_maxmaxflow(g)
    assert maxmaxflow(g, limit=1) == 2
    assert maxmaxflow(Multigraph(3, ())) == 0


def test_degree_table_matches_the_edge_scan():
    rng = random.Random(41)
    loops = 0
    for _ in range(200):
        g = random_multigraph(rng, max_vertices=8, max_edges=12)
        extra = tuple((v, v) for v in rng.choices(range(g.vertex_count), k=rng.randint(0, 3)))
        g = Multigraph(g.vertex_count, g.edges + extra)
        loops += len(extra)
        for v in range(g.vertex_count):
            assert g.degree(v) == sum((a == v) + (b == v) for a, b in g.edges)
    assert loops >= 100


def test_built_tables_leave_equality_and_hash_alone():
    edges = ((0, 1), (1, 2), (2, 0), (0, 1))
    g, h = Multigraph(3, edges), Multigraph(3, edges)
    g.degree(0)
    assert max_flow(g, 0, 1) == 3           # builds g's flow network
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert {h: "h"}[g] == "h"
    assert g != Multigraph(3, edges[:3])


# sha256 of the components, degrees and blocks of the graphs drawn below, so
# any change of search order, block order or block relabelling shows.
ADJACENCY_DIGEST = "90e60d2d14c6c65ae4736701c85c503aa75163fde6a50c4fc4dab886bf1fbb7f"


def test_adjacency_walks_match_recorded_digest():
    rng = random.Random(38)
    digest, kinds = hashlib.sha256(), {"loop": 0, "parallel": 0, "isolated": 0, "split": 0}
    for _ in range(400):
        n = rng.randint(1, 9)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 14))]
        edges += rng.sample(edges, min(len(edges), rng.randint(0, 2)))
        g = Multigraph(n, tuple(edges))
        comps = g.components()
        degrees = [g.degree(v) for v in range(n)]
        kinds["loop"] += g.has_loops()
        kinds["parallel"] += len({tuple(sorted(e)) for e in edges}) < len(edges)
        kinds["isolated"] += 0 in degrees
        kinds["split"] += len(comps) > 1
        bl = [(b.vertices, b.edge_indices, b.graph.vertex_count, b.graph.edges) for b in blocks(g)]
        digest.update(repr((comps, degrees, bl)).encode())
    assert min(kinds.values()) >= 100, kinds
    assert digest.hexdigest() == ADJACENCY_DIGEST


def test_flow_equals_min_cut_on_small_graphs():
    rng = random.Random(11)
    for _ in range(30):
        g = random_multigraph(rng, max_vertices=5, max_edges=9)
        x, y = 0, 1
        assert max_flow(g, x, y) == min_cut_brute(g, x, y)


def test_blocks_two_triangles():
    g = glue_at_vertex(cycle_graph(3), 0, cycle_graph(3), 0)
    bl = blocks(g)
    assert len(bl) == 2
    assert sorted(b.graph.edge_count for b in bl) == [3, 3]


def test_blocks_nonseparable_is_single_block():
    bl = blocks(cycle_graph(4))
    assert len(bl) == 1
    assert bl[0].graph.edge_count == 4


def test_blocks_series_composition_is_separable():
    # Two edges sharing one vertex: always separable into two blocks.
    bl = blocks(path_graph(2))
    assert len(bl) == 2


def test_blocks_partition_edges():
    rng = random.Random(5)
    for _ in range(25):
        g = random_multigraph(rng, max_vertices=7, max_edges=12)
        seen = sorted(i for b in blocks(g) for i in b.edge_indices)
        assert seen == list(range(g.edge_count))


def test_blocks_loops_and_isolated_vertices():
    g = Multigraph(3, ((0, 0), (0, 1)))
    bl = blocks(g)
    kinds = sorted((b.graph.edge_count, len(b.vertices)) for b in bl)
    assert kinds == [(0, 1), (1, 1), (1, 2)]


def test_maxmaxflow_agrees_with_block_maximum():
    rng = random.Random(23)
    for _ in range(15):
        g1 = random_multigraph(rng, max_vertices=5, max_edges=7, ensure_connected=True)
        g2 = random_multigraph(rng, max_vertices=5, max_edges=7, ensure_connected=True)
        g = glue_at_vertex(g1, rng.randint(0, g1.vertex_count - 1),
                           g2, rng.randint(0, g2.vertex_count - 1))
        per_block = max(maxmaxflow(b.graph) for b in blocks(g)
                        if b.graph.vertex_count >= 2)
        assert maxmaxflow(g) == per_block


def test_insert_two_edge_path_into_triangle():
    tri = cycle_graph(3)
    tt = TwoTerminalGraph(path_graph(2), 0, 2)
    h = insert_2term(tri, 0, tt)
    assert h.edge_count == 4
    assert h.vertex_count == 4
    assert len(blocks(h)) == 1          # a 4-cycle


def test_insert_single_edge_is_identity_like():
    tri = cycle_graph(3)
    h = insert_2term(tri, 0, TwoTerminalGraph(banana(1), 0, 1))
    assert h.vertex_count == 3
    assert h.edge_count == 3
    assert sorted(map(sorted, h.edges)) == sorted(map(sorted, tri.edges))


def test_insert_rejects_bad_edge_index():
    with pytest.raises(GraphError):
        insert_2term(cycle_graph(3), 7, TwoTerminalGraph(banana(1), 0, 1))


def test_insertion_identity_wheatstone_in_triangle():
    # Z of the glued graph equals A_gadget * Z_host(v_star := B/A), exactly.
    from fractions import Fraction
    tri = cycle_graph(3)
    w = gen_wheatstone()
    h = insert_2term(tri, 0, w)
    assert h.edge_count == 7
    q = Fraction(5)
    a, b = partial_tutte_brute(w, q, -1)
    left = tutte_brute(h, q, {i: Fraction(-1) for i in range(7)})
    weights = {0: Fraction(b, a), 1: Fraction(-1), 2: Fraction(-1)}
    right = a * tutte_brute(tri, q, weights)
    assert left == right


def test_insertion_identity_random_gadgets():
    from fractions import Fraction
    rng = random.Random(3)
    for _ in range(10):
        host = random_multigraph(rng, max_vertices=4, max_edges=5)
        gadget = random_multigraph(rng, max_vertices=4, max_edges=4)
        tt = TwoTerminalGraph(gadget, 0, 1)
        e_star = rng.randint(0, host.edge_count - 1)
        q = Fraction(rng.randint(2, 7))
        wh = {i: Fraction(rng.randint(-2, 2)) for i in range(host.edge_count)}
        wg = [Fraction(rng.randint(-2, 2)) for _ in range(gadget.edge_count)]
        a, b = partial_tutte_brute(tt, q, wg)
        if a == 0:
            continue
        merged = insert_2term(host, e_star, tt)
        wmerged = {}
        pos = 0
        for i in range(host.edge_count):
            if i == e_star:
                continue
            wmerged[pos] = wh[i]
            pos += 1
        for v in wg:
            wmerged[pos] = v
            pos += 1
        whost = dict(wh)
        whost[e_star] = Fraction(b, a)
        assert tutte_brute(merged, q, wmerged) == a * tutte_brute(host, q, whost)


def test_components_and_union_helpers():
    g = disjoint_union(banana(2), path_graph(2))
    assert len(g.components()) == 2
    assert g.vertex_count == 5


def test_graph_json_round_trip(tmp_path):
    g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    text = g.to_json(s=0, t=2)
    g2, s, t = load_graph(text)
    assert g2 == g and (s, t) == (0, 2)
    path = tmp_path / "graph.json"
    path.write_text(text)
    g3, s3, t3 = load_graph(path)
    assert g3 == g and (s3, t3) == (0, 2)


def test_multigraph_takes_integer_vertex_numbers_only():
    import numpy as np
    g = Multigraph(np.int64(2), ((np.int64(0), True),))
    assert g == Multigraph(2, ((0, 1),))
    assert type(g.vertex_count) is int and all(type(v) is int for v in g.edges[0])
    for bad in ((2.0, ((0, 1),)), (2, ((0, 1.0),)), ("2", ()), (2, ((0, None),))):
        with pytest.raises(GraphError, match="must be integers"):
            Multigraph(*bad)


def test_load_graph_rejects_malformed():
    with pytest.raises(GraphError):
        load_graph(json.dumps({"edges": [[0, 1]]}))
    with pytest.raises(GraphError):
        load_graph(json.dumps({"vertices": 1, "edges": [[0, 1]]}))
    with pytest.raises(GraphError, match="vertex_count must be nonnegative"):
        load_graph(json.dumps({"vertices": -1, "edges": []}))
    with pytest.raises(GraphError, match="missing key 't'"):
        load_graph(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2]], "s": 0}))
    with pytest.raises(GraphError, match="missing key 's'"):
        load_graph(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2]], "t": 2}))
    # Vertex numbers are integers; none is truncated or parsed from a string.
    with pytest.raises(GraphError, match="must be integers"):
        load_graph(json.dumps({"vertices": 2.9, "edges": [[0.9, 1]], "s": 0.5, "t": 1}))
    with pytest.raises(GraphError, match="must be integers"):
        load_graph(json.dumps({"vertices": 3, "edges": [[0, "1"]]}))
    with pytest.raises(GraphError, match="bad graph record"):
        load_graph(json.dumps({"vertices": 2, "edges": [[0, 1]], "s": 0.5, "t": 1}))


def test_load_graph_long_json_string():
    # Longer than any file name the OS accepts; must be parsed, not probed.
    tt, _ = gen_leaf_joined_tree(2, 9)
    text = tt.graph.to_json(tt.s, tt.t)
    assert len(text) > 4096
    assert load_graph(text) == (tt.graph, tt.s, tt.t)
    assert load_graph("  \n" + text) == (tt.graph, tt.s, tt.t)
