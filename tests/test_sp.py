import hashlib
import random

import pytest

from conftest import is_2tsp_definitional, random_sp_ast
from tuttebound.engine import chromatic_poly
from tuttebound.graphs import (GraphError, Multigraph, TwoTerminalGraph, banana,
                               max_flow, maxmaxflow, path_graph)
from tuttebound.sp import (DecompTree, ParseError, SPLeaf, check_proper_flow_bound,
                           constituent_flows, decompose_sp, gen_gadget_cycle,
                           gen_leaf_joined_tree, gen_theta, gen_wheatstone,
                           is_nice, leaf_joined_tree_ast, leaf_joined_vertex_count,
                           parse_sp, parse_sp_expression, realize)


def test_parse_parallel_edges():
    tt, tree = parse_sp("P(e,e,e)")
    assert tt.graph.vertex_count == 2
    assert tt.graph.edge_count == 3
    # left-folded: two p-nodes over three leaves
    kinds = [n.kind for n in tree.nodes()]
    assert kinds.count("p") == 2 and kinds.count("leaf") == 3


def test_parse_diamond():
    tt, _ = parse_sp("P(S(e,e),S(e,e))")
    assert tt.graph.vertex_count == 4
    assert tt.graph.edge_count == 4


def test_parse_wheatstone_composite():
    tt, tree = parse_sp("P(S(e,W),S(e,W))")
    assert tt.graph.vertex_count == 8
    assert tt.graph.edge_count == 12
    assert sum(1 for n in tree.leaves() if n.base == "W") == 2


def test_parse_repetition_sugar():
    tt, _ = parse_sp("e^><2^||3")
    theta, _ = gen_theta(2, 3)
    assert tt.graph.vertex_count == theta.graph.vertex_count
    assert tt.graph.edge_count == theta.graph.edge_count
    tt2, _ = parse_sp("e^⋈2^||3")        # unicode bowtie synonym
    assert tt2.graph.edge_count == 6
    tt3, _ = parse_sp("e^||1")
    assert tt3.graph.edge_count == 1


def test_parse_errors_carry_position():
    for text, pos in [("", 0), ("P(e,", 4), ("P(e)", 4), ("Q(e,e)", 0), ("e e", 2),
                      ("e^||", 4), ("e^x2", 2), ("e^||0", 5)]:
        with pytest.raises(ParseError) as err:
            parse_sp(text)
        assert err.value.position == pos


def test_whitespace_insignificant():
    a, _ = parse_sp(" P( S(e , e), S( e,e ) ) ")
    b, _ = parse_sp("P(S(e,e),S(e,e))")
    assert a.graph.edges == b.graph.edges


def test_decompose_parallel_edges():
    tree = decompose_sp(TwoTerminalGraph(banana(3), 0, 1))
    assert tree is not None
    kinds = [n.kind for n in tree.nodes()]
    assert kinds.count("p") == 2 and kinds.count("leaf") == 3
    assert all(n.base == "e" for n in tree.leaves())


def test_decompose_wheatstone_absent():
    assert decompose_sp(gen_wheatstone()) is None


def test_decompose_leaf_joined_root_is_parallel():
    g22, _ = gen_leaf_joined_tree(2, 2)
    tree = decompose_sp(g22)
    assert tree is not None
    assert tree.root.kind == "p"


def test_decompose_rejects_disconnected_and_loops():
    g = Multigraph(3, ((0, 1),))
    with pytest.raises(GraphError):
        decompose_sp(TwoTerminalGraph(g, 0, 1))
    g = Multigraph(2, ((0, 1), (1, 1)))
    with pytest.raises(GraphError):
        decompose_sp(TwoTerminalGraph(g, 0, 1))


def test_decompose_agrees_with_definition():
    rng = random.Random(17)
    seen_true = seen_false = 0
    for _ in range(60):
        if rng.random() < 0.5:
            ast = random_sp_ast(rng, rng.randint(1, 6))
            tt, _ = realize(ast)
            if tt.graph.edge_count > 8:
                continue
        else:
            n = rng.randint(2, 5)
            edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 8)))
            edges = tuple((a, b) for a, b in edges if a != b)
            if not edges:
                continue
            g = Multigraph(n, edges)
            if not g.is_connected():
                continue
            tt = TwoTerminalGraph(g, *sorted(set(edges[0]))[:2])
        got = decompose_sp(tt) is not None
        want = is_2tsp_definitional(tt)
        assert got == want
        seen_true += got
        seen_false += not got
    assert seen_true > 5 and seen_false > 2


def test_decompose_leaves_cover_edges_once():
    rng = random.Random(19)
    for _ in range(40):
        tt, _ = realize(random_sp_ast(rng, rng.randint(1, 8)))
        tree = decompose_sp(tt)
        assert tree is not None
        covered = sorted(i for leaf in tree.leaves() for i in leaf.edges)
        assert covered == list(range(tt.graph.edge_count))
        # every leaf is a single edge with matching endpoints
        for leaf in tree.leaves():
            (i,) = leaf.edges
            assert set(tt.graph.edges[i]) == {leaf.s, leaf.t}


def _check_tree(tt: TwoTerminalGraph, tree: DecompTree) -> None:
    """The tree spans (s, t), its leaves cover every edge once, e-leaves span
    their edge, p-node children share the p-node's terminals, and s-node
    children chain from the s-node's s to its t."""
    assert (tree.root.s, tree.root.t) == (tt.s, tt.t)
    covered = []
    for node in tree.nodes():
        if node.is_leaf():
            covered.extend(node.edges)
            if node.base == "e":
                assert set(tt.graph.edges[node.edges[0]]) == {node.s, node.t}
            continue
        left, right = node.children
        if node.kind == "p":
            assert (left.s, left.t) == (right.s, right.t) == (node.s, node.t)
        else:
            assert (left.s, left.t, right.t) == (node.s, right.s, node.t)
    assert sorted(covered) == list(range(tt.graph.edge_count))


def _relabeled(tt: TwoTerminalGraph, rng: random.Random) -> TwoTerminalGraph:
    """The same graph with its vertices permuted and each edge reversed at random."""
    n = tt.graph.vertex_count
    perm = rng.sample(range(n), n)
    edges = tuple((perm[b], perm[a]) if rng.random() < 0.5 else (perm[a], perm[b])
                  for a, b in tt.graph.edges)
    return TwoTerminalGraph(Multigraph(n, edges), perm[tt.s], perm[tt.t])


def test_tree_reconstruction_matches_graph():
    rng = random.Random(29)
    relabel_rng = random.Random(30)
    for _ in range(30):
        tt, tree = realize(random_sp_ast(rng, rng.randint(1, 8), bases=("e", "W")))
        _check_tree(tt, tree)
        for host in (tt, _relabeled(tt, relabel_rng)):
            tree2 = decompose_sp(host)
            if tree2 is not None:
                _check_tree(host, tree2)
    # Larger e-only graphs, whose reductions flip many p-nodes.
    for _ in range(100):
        tt, _ = realize(random_sp_ast(relabel_rng, relabel_rng.randint(2, 20)))
        host = _relabeled(tt, relabel_rng)
        _check_tree(host, decompose_sp(host))
    # The p-node over the two (2, 1) edges must face from 1 to 2.
    tt = TwoTerminalGraph(Multigraph(3, ((1, 0), (2, 1), (2, 1))), 0, 2)
    _check_tree(tt, decompose_sp(tt))


def test_is_nice_examples():
    assert is_nice(TwoTerminalGraph(banana(1), 0, 1))
    assert is_nice(TwoTerminalGraph(path_graph(2), 0, 2))
    pendant = Multigraph(4, ((0, 1), (1, 2), (1, 3)))
    assert not is_nice(TwoTerminalGraph(pendant, 0, 1))
    disconnected = Multigraph(3, ((0, 1),))
    assert not is_nice(TwoTerminalGraph(disconnected, 0, 2))


def test_nice_compositions_stay_nice():
    # Compositions of nice pieces are nice, so realized expressions are nice.
    rng = random.Random(31)
    for _ in range(30):
        tt, _ = realize(random_sp_ast(rng, rng.randint(1, 7), bases=("e", "W")))
        assert is_nice(tt)


def test_flow_cache_matches_flow_oracle():
    rng = random.Random(37)
    for _ in range(20):
        tt, tree = realize(random_sp_ast(rng, rng.randint(1, 7), bases=("e", "W")))
        for node, flow in constituent_flows(tree).items():
            sub = tree.constituent(node)
            assert max_flow(sub) == flow


def test_flow_examples():
    _, tree = parse_sp("P(e,e,e)")
    flows = sorted(constituent_flows(tree).values())
    assert flows == [1, 1, 1, 2, 3]
    assert check_proper_flow_bound(tree, 3)
    _, tree = parse_sp("S(e,e)")
    assert tree.root.flow == 1
    g32, tree32 = gen_leaf_joined_tree(2, 3)
    assert tree32.root.flow == 2
    assert maxmaxflow(g32.graph) == 3


def test_flow_bound_needs_parallel_root():
    _, tree = parse_sp("S(e,e)")
    with pytest.raises(GraphError):
        check_proper_flow_bound(tree, 3)


def test_proper_constituents_bounded_by_maxmaxflow():
    # With a parallel root, no proper constituent flow reaches maxmaxflow.
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        tt, tree = realize(random_sp_ast(rng, rng.randint(2, 9)))
        if tree.root.kind != "p":
            continue
        lam = maxmaxflow(tt.graph)
        assert check_proper_flow_bound(tree, lam)
        checked += 1


def test_leaf_joined_tree_generator():
    g, _ = gen_leaf_joined_tree(2, 1)
    assert g.graph.vertex_count == 2 and g.graph.edge_count == 2
    g, _ = gen_leaf_joined_tree(2, 3)
    assert g.graph.vertex_count == 8
    g, _ = gen_leaf_joined_tree(3, 2)
    assert g.graph.vertex_count == 5
    assert max_flow(g) == 3
    assert maxmaxflow(g.graph) == 4
    assert leaf_joined_vertex_count(2, 12) == 4096 + 0
    with pytest.raises(GraphError):
        gen_leaf_joined_tree(2, 3, max_vertices=4)
    with pytest.raises(GraphError):
        gen_leaf_joined_tree(1, 3)


def test_theta_generator():
    tt, _ = gen_theta(2, 2)
    assert tt.graph.vertex_count == 4 and tt.graph.edge_count == 4
    tt, _ = gen_theta(1, 4)
    assert tt.graph.edges == banana(4).edges
    tt, _ = gen_theta(3, 1)
    assert tt.graph.edge_count == 3
    with pytest.raises(GraphError):
        gen_theta(0, 2)


def test_wheatstone_generator():
    w = gen_wheatstone()
    assert w.graph.vertex_count == 4
    assert w.graph.edge_count == 5
    assert w.graph.degree(w.s) == 2
    assert w.graph.degree(w.t) == 2
    assert max_flow(w) == 2


def test_gadget_cycle_94_vertices():
    h, tree = gen_gadget_cycle(leaf_joined_tree_ast(2, 5), 3)
    assert h.graph.vertex_count == 94
    assert maxmaxflow(h.graph) == 3
    assert chromatic_poly(tree) == chromatic_poly(h.graph)


def test_gadget_cycle_218_vertices_evaluates_by_shape():
    h, tree = gen_gadget_cycle(leaf_joined_tree_ast(2, 5), 7)
    assert h.graph.vertex_count == 218
    assert maxmaxflow(h.graph) == 3
    assert (len(tree.order), len(set(tree.shapes))) == (869, 17)
    assert chromatic_poly(tree) == chromatic_poly(h.graph)


def test_realize_refuses_what_is_not_an_expression():
    with pytest.raises(GraphError):
        realize(SPLeaf("x"))
    with pytest.raises(GraphError):
        gen_gadget_cycle(gen_wheatstone(), 2)       # a graph, not an expression


def test_long_series_repetition():
    tt, tree = parse_sp("e^><5000")
    assert (tt.graph.vertex_count, tt.graph.edge_count) == (5001, 5000)
    assert tree.root.flow == 1
    _check_tree(tt, tree)


def test_decompose_long_path_and_theta():
    tt = TwoTerminalGraph(path_graph(20_000), 0, 20_000)
    tree = decompose_sp(tt)
    assert tree is not None and tree.root.flow == 1
    _check_tree(tt, tree)
    theta, _ = gen_theta(3000, 3)
    tree = decompose_sp(theta)
    assert tree is not None and tree.root.flow == 3
    _check_tree(theta, tree)


def test_long_gadget_cycle():
    h, tree = gen_gadget_cycle(SPLeaf("W"), 2000)
    assert (h.graph.vertex_count, h.graph.edge_count) == (6001, 10_001)
    assert tree.root.flow == 3
    assert sum(1 for n in tree.leaves() if n.base == "W") == 2000
    _check_tree(h, tree)


def _tree_digest(tt: TwoTerminalGraph, tree: DecompTree) -> str:
    h = hashlib.sha256()
    h.update(repr((tt.graph.vertex_count, tt.graph.edges, tt.s, tt.t)).encode())
    for node in tree.nodes():
        h.update(repr((node.kind, node.s, node.t, node.flow, node.base,
                       node.edges if node.is_leaf() else len(node.children))).encode())
    return h.hexdigest()


def test_realize_matches_recorded_digests():
    # SHA-256 of (vertex count, edges, terminals) and the pre-order tree,
    # recorded from the union-find realizer this one replaced.
    recorded = {
        "W": "77dabb35fca2de0b82e2b9c2059fe9f84515a66c512341fd07847e91073cef7d",
        "e^||3": "ca4e9bd40b60d6f47eefb1f3db986c12f1c47f313f31fcd0cee21184041a1ad5",
        "e^><4": "698d90836e875379f2f74aa99d967541829716019ad9e9a6c91d043405241931",
        "W^><3^||2": "3a2a51818d60fb2975010b6b1b242cb78c612411e5b06ffd39f7eff5b0f51902",
        "S(e,W)^||3": "406e3ed9afcbf573eeb00d060ce6587284ca53c721806bef7e5893b39a5bd46b",
        "P(e,W^><4)": "97c9d07477fed7d5dfab692979227a958cef56c9ce4e52b57fb617ec5fe2e1e3",
        "e^><2^||3^><2": "97f5c2149b59fe664636f0e3c33d5d67a2da413b805eaaae6316216bf3ed09a4",
    }
    for text, digest in recorded.items():
        assert _tree_digest(*parse_sp(text)) == digest, text
    assert _tree_digest(*realize(leaf_joined_tree_ast(3, 3))) == \
        "aa0ac9553ae9a9f05441aaffc4b108d089707318119f69a6fbebb2651ae13143"


def _shape_of(tree: DecompTree) -> dict:
    return dict(zip(tree.order, tree.shapes))


def test_post_order_and_shapes_cover_every_node():
    for text in ("e", "P(S(e,W),S(e,W))", "e^><7^||3"):
        _, tree = parse_sp(text)
        assert len(tree.order) == len(tree.shapes) == sum(1 for _ in tree.nodes())
        assert set(tree.order) == set(tree.nodes()) and tree.order[-1] is tree.root
        seen = set()
        for node in tree.order:
            assert all(child in seen for child in node.children)
            seen.add(node)


def test_programs_follow_the_tree():
    for text in ("e", "P(S(e,W),S(e,W))", "e^><7^||3", "P(S(e,P(e,e)),S(P(e,e),e))"):
        tt, parsed = parse_sp(text)
        for tree in (parsed, decompose_sp(tt) or parsed):
            order, shapes = tree.order, tree.shapes
            at, kids, slots = tree.program(False)
            assert list(at) == list(slots) == list(range(len(order)))
            for node, pair in zip(order, kids):
                assert tuple(order[i] for i in pair) == node.children
            at, kids, slots = tree.program(True)
            assert slots == shapes and sorted(set(shapes)) == list(range(len(at)))
            for shape, (k, pair) in enumerate(zip(at, kids)):
                assert shapes[k] == shape and shapes.index(shape) == k
                assert pair == tuple(shapes[i] for i in tree.kids[k])
                assert all(child < shape for child in pair)
            assert shapes[-1] == len(at) - 1          # the root's shape is the last step


@pytest.mark.parametrize("n, nodes, shapes", [(6, 251, 12), (7, 507, 14)])
def test_leaf_joined_tree_shapes(n, nodes, shapes):
    _, tree = realize(leaf_joined_tree_ast(2, n))
    assert (len(tree.order), len(set(tree.shapes))) == (nodes, shapes)
    decomposed = decompose_sp(tree.graph)
    assert (len(decomposed.order), len(set(decomposed.shapes))) == (nodes, shapes)


def test_shapes_keep_child_order():
    _, tree = parse_sp("P(S(e,P(e,e)),S(P(e,e),e))")
    shape = _shape_of(tree)
    left, right = tree.root.children
    assert shape[left] != shape[right]
    assert shape[left.children[0]] == shape[right.children[1]]     # the two e leaves


def test_gadget_copies_share_a_shape():
    _, tree = gen_gadget_cycle(parse_sp_expression("P(e,S(e,W))"), 2)
    shape = _shape_of(tree)
    chain = tree.root.children[1]
    assert chain.kind == "s" and shape[chain.children[0]] == shape[chain.children[1]]


def test_a_tree_equals_only_itself():
    tt, tree = parse_sp("P(S(e,e),e)")
    again = parse_sp("P(S(e,e),e)")[1]
    assert tree == tree and tree != again and tree != decompose_sp(tt)
    assert len({tree, again, tree}) == 2 and hash(tree) == hash(tree)
