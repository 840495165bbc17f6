import cmath
import hashlib
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_sp_ast, random_small_fraction
from tuttebound import engine
from tuttebound.engine import chromatic_poly, tree_ab, tree_veff
from tuttebound.graphs import (GraphError, Multigraph, TwoTerminalGraph, banana,
                               cycle_graph, disjoint_union, glue_at_vertex)
from tuttebound.oracles import tutte_brute
from tuttebound.poly import BigPoly
from tuttebound.sp import (SPLeaf, SPOp, decompose_sp, gen_wheatstone, leaf_joined_tree_ast,
                           parse_sp, realize)
from tuttebound.weights import INF, UNDEF, WeightAssignment, is_finite, parallel, series

Q = BigPoly.variable()


def test_pair_route_parallel_edges_chromatic():
    _, tree = parse_sp("P(e,e)")
    out = tree_ab(tree, Q, -1)
    assert out.a == BigPoly((1,))
    assert out.b == BigPoly((-1,))
    assert out.z == Q * Q - Q


def test_pair_route_two_edge_path_chromatic():
    _, tree = parse_sp("S(e,e)")
    out = tree_ab(tree, Q, -1)
    assert out.a == Q - 2
    assert out.b == BigPoly((1,))
    assert out.z == Q * (Q - 1) ** 2


def test_wheatstone_leaf_closed_form():
    _, tree = realize(SPLeaf("W"))
    out = tree_ab(tree, Q, -1)
    assert out.a == (Q - 2) * (Q - 3)
    assert out.b == 2 * (Q - 2)


def test_wheatstone_leaf_general_weights_match_oracle():
    # Deletion plus v_f times contraction of the bridge equals the 2^5
    # subset sum in every exact ring the engine evaluates over.
    from tuttebound.oracles import partial_tutte_brute
    from tuttebound.poly import BiPoly
    tt, tree = realize(SPLeaf("W"))
    rng = random.Random(14)
    for k in range(200):
        w = {i: random_small_fraction(rng) for i in range(5)}
        q = (random_small_fraction(rng), Q, BiPoly.q())[k % 3]
        if k % 3 == 2:      # a symbolic w on some edges
            w.update({i: BiPoly.w() for i in rng.sample(range(5), rng.randint(1, 5))})
        out = tree_ab(tree, q, w)
        assert (out.a, out.b) == partial_tutte_brute(tt, q, w), (q, w)


def test_series_of_parallel_closed_form():
    rng = random.Random(3)
    _, tree = parse_sp("S(e,P(e,e))")
    for _ in range(10):
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ve, vf, vg = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3))
        out = tree_ab(tree, q, {0: ve, 1: vf, 2: vg})
        want = q * (q + ve) * (q + vf + vg + vf * vg)
        assert abs(out.z - want) < 1e-10 * (1 + abs(want))


def test_effective_route_failure_is_undefined_not_exception():
    _, tree = parse_sp("S(e,P(e,e))")
    for q in (2.5, 0.3 + 1.2j, Fraction(7, 2)):
        weights = {0: -q, 1: -0.5 if not isinstance(q, Fraction) else Fraction(-1, 2), 2: 1}
        eff = tree_veff(tree, q, weights)
        assert not eff.defined
        assert eff.z is UNDEF
        # the pair route computes the same point without trouble
        pairs = tree_ab(tree, q, weights)
        want = q * (q + weights[0]) * (q + weights[1] + weights[2] + weights[1] * weights[2])
        assert abs(complex(pairs.z) - complex(want)) < 1e-12


def test_effective_route_single_edge():
    _, tree = realize(SPLeaf("e"))
    eff = tree_veff(tree, 3.0, -1)
    assert eff.defined
    assert eff.veff == -1
    assert abs(eff.z - 6.0) < 1e-14


def test_effective_route_matches_pair_route():
    rng = random.Random(21)
    checked = 0
    while checked < 40:
        tt, tree = realize(random_sp_ast(rng, rng.randint(1, 7)))
        q = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(q) < 0.1:
            continue
        w = {i: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
             for i in range(tt.graph.edge_count)}
        eff = tree_veff(tree, q, w)
        if not eff.defined:
            continue
        z_ref = tree_ab(tree, q, w).z
        assert abs(eff.z - z_ref) <= 1e-10 * (1 + abs(z_ref))
        checked += 1
    # At bench scale, in the antiferromagnetic regime: per-edge weights in
    # [-1, 0] and one complex scalar weight.
    inputs = _bench_inputs()
    checked = 0
    for text in inputs.big_graphs_inputs(11) + inputs.sp_w_catalogue():
        tt, tree = parse_sp(text)
        tree = decompose_sp(tt) or tree
        for q in RING[::16]:
            for w in ({i: -rng.random() for i in range(tt.graph.edge_count)}, -0.5 + 0.25j):
                eff = tree_veff(tree, q, w)
                z_ref = tree_ab(tree, q, w).z
                assert eff.defined and abs(eff.z - z_ref) <= 1e-12 * abs(z_ref), (text, q, w)
                checked += 1
    assert checked == 8 * (len(inputs.big_graphs_inputs(11)) + len(inputs.sp_w_catalogue()))


def _routes_agree_exactly(tree, q, weights) -> str:
    """Check tree_veff against tree_ab's pairs node by node; return the outcome."""
    pairs = tree_ab(tree, q, weights)
    ab = pairs.per_node
    order = list(tree.order)
    # The first node in post-order whose A vanishes ends the effective-weight
    # route: a leaf is refused, a series join is undefined.
    cut = next((k for k, node in enumerate(order) if ab[node][0] == 0), None)
    if cut is not None and order[cut].is_leaf():
        with pytest.raises(GraphError, match="leaf A value is zero"):
            tree_veff(tree, q, weights)
        return "raised"
    eff = tree_veff(tree, q, weights)
    assert eff.defined == (cut is None)
    if eff.defined:
        assert (eff.prefactor, eff.z) == (pairs.a, pairs.z)
        assert list(eff.per_node) == order
    else:
        assert eff.veff is UNDEF and eff.prefactor is UNDEF and eff.z is UNDEF
        assert list(eff.per_node) == order[:cut + 1] and eff.per_node[order[cut]] is UNDEF
        order = order[:cut]
    for node in order:
        a, b = ab[node]
        assert eff.per_node[node] == b / a
    return "defined" if eff.defined else "undefined"


def test_effective_route_is_the_pair_route_over_fractions():
    # Exact inputs: v = B/A at every node, the root prefactor is A, and a
    # vanishing A is the only way to an undefined result.
    rng = random.Random(35)
    outcomes = {"defined": 0, "undefined": 0, "raised": 0}
    for _ in range(150):
        tt, tree = realize(random_sp_ast(rng, rng.randint(1, 7), bases=("e", "W")))
        q = random_small_fraction(rng)
        per_edge = {i: random_small_fraction(rng) for i in range(tt.graph.edge_count)}
        for weights in (random_small_fraction(rng), per_edge):
            outcomes[_routes_agree_exactly(tree, q, weights)] += 1
    assert outcomes["defined"] > 200 and min(outcomes.values()) > 0, outcomes
    # Constructed zeros of A: at the root, inside the tree, after a W leaf,
    # at a W leaf, and at a series node that comes before a zero W leaf.
    f = Fraction
    cases = [("S(e,e)", f(3), f(-3, 2), "undefined"),
             ("P(e,S(e,e))", f(3), {0: f(-1), 1: f(-1), 2: f(-2)}, "undefined"),
             ("S(e,W)", f(4), {0: f(-6), **{i: f(-1) for i in range(1, 6)}}, "undefined"),
             ("P(e,W)", f(2), f(-1), "raised"),
             ("P(S(e,e),W)", f(2), f(-1), "undefined")]
    for text, q, weights, outcome in cases:
        assert _routes_agree_exactly(parse_sp(text)[1], q, weights) == outcome, text


def test_effective_route_rejects_zero_leaf_a():
    _, tree = realize(SPLeaf("W"))
    with pytest.raises(GraphError):
        tree_veff(tree, 2.0, -1)      # leaf A = (q-2)(q-3) vanishes at q=2


def test_effective_route_needs_a_numeric_q():
    _, tree = parse_sp("S(e,P(e,e))")
    with pytest.raises(GraphError, match="needs a numeric q"):
        tree_veff(tree, Q)


def test_effective_route_rejects_an_infinite_weight_on_a_w_leaf():
    # Both routes refuse an INF weight, on a W leaf's edge and on an edge
    # leaf, naming the edge; a scalar INF is refused at the first leaf edge.
    _, tree = parse_sp("P(e,W)")
    weights = {i: -1 for i in range(6)}
    for route in (tree_veff, tree_ab):
        for edge in (3, 0):
            with pytest.raises(GraphError, match=f"edge {edge} has weight INF"):
                route(tree, 2.5, {**weights, edge: INF})
        with pytest.raises(GraphError, match=r"edge \d has weight INF"):
            route(tree, 2.5, INF)


def test_both_routes_name_an_edge_missing_from_the_weights():
    # A Mapping and a WeightAssignment that lack edge 2 give the same error.
    _, tree = parse_sp("P(S(e,e),e)")
    given = {0: -1, 1: -1}
    for route in (tree_veff, tree_ab):
        for weights in (given, WeightAssignment("V", given)):
            with pytest.raises(GraphError, match="no weight for edge 2"):
                route(tree, 2.5, weights)


def test_weight_assignment_input_conversion():
    _, tree = parse_sp("P(e,e)")
    q = 4.0
    wa = WeightAssignment("T", {0: -1 / 3, 1: -1 / 3})   # v = -1 at q = 4
    out = tree_ab(tree, q, wa)
    assert abs(complex(out.z) - (q * q - q)) < 1e-9
    with pytest.raises(GraphError):
        tree_ab(tree, Q, wa)              # symbolic q cannot convert systems


def test_chromatic_cycle():
    assert chromatic_poly(cycle_graph(4)) == (Q - 1) ** 4 + (Q - 1)


def test_chromatic_parallel_edges_collapse():
    assert chromatic_poly(TwoTerminalGraph(banana(3), 0, 1)) == Q * Q - Q


def test_chromatic_wheatstone():
    p = chromatic_poly(gen_wheatstone().graph)
    assert p == Q * (Q - 1) * (Q - 2) ** 2
    # q^2 A + q B with the closed-form pair agrees
    assert p == Q * Q * (Q - 2) * (Q - 3) + Q * 2 * (Q - 2)


def test_chromatic_non_sp_block_falls_back_to_oracle():
    k4 = Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert chromatic_poly(k4) == Q * (Q - 1) * (Q - 2) * (Q - 3)


def test_chromatic_components_and_blocks():
    g = disjoint_union(cycle_graph(3), banana(1))
    expected = (Q * (Q - 1) * (Q - 2)) * (Q * Q - Q)
    assert chromatic_poly(g) == expected
    glued = glue_at_vertex(cycle_graph(3), 0, cycle_graph(3), 0)
    tri = Q * (Q - 1) * (Q - 2)
    assert chromatic_poly(glued) == (tri * tri).exact_div(Q)
    lonely = Multigraph(3, ((0, 1),))
    assert chromatic_poly(lonely) == (Q * Q - Q) * Q


def test_chromatic_rejects_loops():
    with pytest.raises(GraphError):
        chromatic_poly(Multigraph(1, ((0, 0),)))


def test_chromatic_degree_is_vertex_count():
    rng = random.Random(33)
    for _ in range(15):
        tt, tree = realize(random_sp_ast(rng, rng.randint(1, 7), bases=("e", "W")))
        assert chromatic_poly(tree).degree == tt.graph.vertex_count


def test_pair_route_matches_subset_oracle_exactly():
    rng = random.Random(55)
    checked = 0
    while checked < 60:
        tt, tree = realize(random_sp_ast(rng, rng.randint(1, 5), bases=("e", "W")))
        if tt.graph.edge_count > 10:
            continue
        q = random_small_fraction(rng)
        if q == 0:
            continue
        w = {i: random_small_fraction(rng) for i in range(tt.graph.edge_count)}
        assert tree_ab(tree, q, w).z == tutte_brute(tt.graph, q, w)
        checked += 1


def test_symbolic_product_identities():
    # Series: qA+B factors; parallel: A+B factors.  Exact, uniform weight.
    rng = random.Random(77)
    for _ in range(12):
        left = random_sp_ast(rng, rng.randint(1, 4))
        right = random_sp_ast(rng, rng.randint(1, 4))
        w = random_small_fraction(rng)
        for kind in ("s", "p"):
            _, tree = realize(SPOp(kind, (left, right)))
            out = tree_ab(tree, Q, w)
            l_out = tree_ab(realize(left)[1], Q, w)
            r_out = tree_ab(realize(right)[1], Q, w)
            if kind == "s":
                assert Q * out.a + out.b == (Q * l_out.a + l_out.b) * (Q * r_out.a + r_out.b)
            else:
                assert out.a + out.b == (l_out.a + l_out.b) * (r_out.a + r_out.b)


def test_bivariate_symbolic_mode():
    # One uniform symbolic weight alongside q, checked against the oracle.
    from tuttebound.poly import BiPoly
    tt, tree = parse_sp("P(S(e,e),S(e,P(e,e)))")
    z = tree_ab(tree, BiPoly.q(), BiPoly.w()).z
    assert z.degrees() == (tt.graph.vertex_count, tt.graph.edge_count)
    for q0, w0 in ((Fraction(3), Fraction(-1)), (Fraction(5), Fraction(2)),
                   (Fraction(-2), Fraction(1, 2))):
        assert z(q0, w0) == tutte_brute(tt.graph, q0, w0)


def test_series_order_is_irrelevant_for_z():
    rng = random.Random(99)
    for _ in range(10):
        left = random_sp_ast(rng, rng.randint(1, 4))
        right = random_sp_ast(rng, rng.randint(1, 4))
        w = random_small_fraction(rng)
        _, t1 = realize(SPOp("s", (left, right)))
        _, t2 = realize(SPOp("s", (right, left)))
        assert tree_ab(t1, Q, w).z == tree_ab(t2, Q, w).z


# The benchmark's evaluation ring around q = 1, copied from bench/inputs.py.
RING = [1.0 + 2.5 * cmath.exp(2j * math.pi * (k + 0.5) / 64) for k in range(64)]


def _bench_inputs():
    """bench/inputs.py, the seeded DSL texts the benchmark feeds the library."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _route_reprs(route, tree, q, weights):
    """repr of each output of one route call, per_node node by node, or of its error."""
    try:
        out = route(tree, q, weights)
    except GraphError as exc:
        return repr(exc)
    head = ((out.a, out.b, out.z) if route is tree_ab
            else (out.veff, out.prefactor, out.z, out.defined))
    return repr(head), [(node, repr(value)) for node, value in out.per_node.items()]


def test_shape_route_matches_node_route():
    # A scalar weight evaluates each shape once, a per-edge map each node:
    # both must give the same values, partial per_node and errors, to the bit.
    inputs = _bench_inputs()
    texts = inputs.big_graphs_inputs(7) + inputs.big_graphs_inputs(11) + inputs.sp_w_catalogue()
    points = RING + [2.0, 3 + 0j, 0.5, Fraction(1, 3), Fraction(5, 2)]
    undefined = raised = 0
    for text in texts:
        tt, tree = parse_sp(text)
        tree = decompose_sp(tt) or tree
        per_edge = {i: -1 for i in range(tt.graph.edge_count)}
        for q in points:
            for route in (tree_ab, tree_veff):
                shared = _route_reprs(route, tree, q, -1)
                assert shared == _route_reprs(route, tree, q, per_edge), (text, q)
                if isinstance(shared, str):
                    raised += 1
                elif shared[0].endswith(", False)"):
                    undefined += 1
    assert undefined > 0 and raised > 0


# tree_ab's heads and per_node; tree_veff's structure (defined flag, error,
# per_node keys, INF/UNDEF positions); tree_veff's values.  Only the last
# depends on how tree_veff rounds its joins and multiplies its prefactor.
ROUTE_PINS = {
    "pairs": "bbebda87465db2d57d89ca74f166fcedbdd86a6322e8e976d896964528c0e3bf",
    "effective_structure": "936213aaa90a15bdba8e023a4927139fbb33971914af54fa13839522d574c504",
    "effective_values": "35a9e7c92216482bef896e364b3df1a593054cada916e362b27a4feaf4fcf5e8",
}


def _marker(value):
    """INF or UNDEF itself, None for any finite value."""
    return value if value is INF or value is UNDEF else None


def _route_pins() -> dict:
    """One sha256 per pin over the repr of each route output (per_node in its
    order, keyed by post-order position) or error, on the recorded cases."""
    inputs = _bench_inputs()
    cases = [(text, RING) for text in inputs.big_graphs_inputs(7)]
    cases += [(text, [2.0, 3 + 0j, 0.5, Fraction(1, 3), Fraction(5, 2)])
              for text in inputs.sp_w_catalogue()]
    digests = {name: hashlib.sha256() for name in ROUTE_PINS}
    pairs, structure, values = digests.values()
    for text, points in cases:
        tt, tree = parse_sp(text)
        tree = decompose_sp(tt) or tree
        position = {node: k for k, node in enumerate(tree.order)}
        per_edge = {i: -1 for i in range(tt.graph.edge_count)}
        for q in points:
            for weights in (-1, per_edge):
                for route, digest in ((tree_ab, pairs), (tree_veff, structure)):
                    try:
                        out = route(tree, q, weights)
                    except GraphError as exc:
                        digest.update(repr(exc).encode())
                        continue
                    per_node = [(position[node], value) for node, value in out.per_node.items()]
                    if route is tree_ab:
                        pairs.update(repr((out.a, out.b, out.z)).encode())
                        pairs.update(repr(per_node).encode())
                        continue
                    head = (_marker(out.veff), _marker(out.z), out.defined)
                    structure.update(repr(head).encode())
                    structure.update(repr([(k, _marker(v)) for k, v in per_node]).encode())
                    values.update(repr((out.veff, out.prefactor, out.z)).encode())
                    values.update(repr(per_node).encode())
    return {name: digest.hexdigest() for name, digest in digests.items()}


def test_routes_match_recorded_bits():
    assert _route_pins() == ROUTE_PINS


def test_joins_follow_the_weight_algebra():
    # tree_veff joins finite operands by the paper's two rules; the sphere
    # algebra in weights stays the reference for each join in per_node.
    inputs = _bench_inputs()
    joins = {"p": 0, "s": 0}
    for text in inputs.sp_w_catalogue() + inputs.big_graphs_inputs(7):
        tt, tree = parse_sp(text)
        tree = decompose_sp(tt) or tree
        for q in RING:
            try:
                per_node = tree_veff(tree, q, -1).per_node
            except GraphError:
                continue
            for node, v in per_node.items():
                if node.is_leaf() or v is UNDEF:
                    continue
                v1, v2 = (per_node[child] for child in node.children)
                if not (is_finite(v1) and is_finite(v2)):
                    continue
                if node.kind == "p":      # equal values; a zero's sign may differ
                    assert v == parallel(v1, v2, "V", q), (text, q)
                else:
                    want = series(v1, v2, "V", q)
                    assert abs(v - want) <= 2e-15 * abs(want), (text, q)
                joins[node.kind] += 1
    assert joins["p"] > 0 and joins["s"] > 0


def test_scalar_weights_share_values_per_shape():
    _, tree = realize(leaf_joined_tree_ast(2, 7))
    per_edge = {i: -1 for i in range(tree.graph.graph.edge_count)}
    for route in (tree_ab, tree_veff):
        shared = route(tree, 1.5 + 0.5j, -1).per_node
        assert len(shared) == 507 and len({id(v) for v in shared.values()}) == 14
        assert len({id(v) for v in route(tree, 1.5 + 0.5j, per_edge).per_node.values()}) == 507


def _counted_per_node(monkeypatch) -> list:
    builds = []
    build = engine._per_node
    monkeypatch.setattr(engine, "_per_node", lambda *args: builds.append(args) or build(*args))
    return builds


def test_per_node_is_built_on_first_read_only(monkeypatch):
    builds = _counted_per_node(monkeypatch)
    _, tree = realize(leaf_joined_tree_ast(2, 7))
    for route in (tree_ab, tree_veff):
        out = route(tree, 1.5 + 0.5j, -1)
        assert builds == []
        first = out.per_node
        assert out.per_node is first and len(builds) == 1
        assert list(first) == list(tree.order)
        builds.clear()


def test_undefined_route_builds_its_partial_per_node_on_read(monkeypatch):
    # S(e,P(e,e)) in post-order: e0, e1, e2, the p-node, the root.
    builds = _counted_per_node(monkeypatch)
    _, tree = parse_sp("S(e,P(e,e))")
    q = 2.5
    # The root's prefactor q + v0 + v_p vanishes: the root is mapped to UNDEF.
    eff = tree_veff(tree, q, {0: -q, 1: -0.5, 2: 1})
    assert not eff.defined and builds == []
    assert list(eff.per_node) == list(tree.order)
    assert (repr(list(eff.per_node.values()))
            == repr([-q, -0.5, 1.0, parallel(-0.5, 1, "V", q), UNDEF]))
    # An UNDEF weight is refused before any step, naming the edge.
    for weights in ({0: UNDEF, 1: -0.5, 2: 1}, UNDEF):
        with pytest.raises(GraphError, match="edge 0 has weight UNDEF"):
            tree_veff(tree, q, weights)
    assert len(builds) == 1


def _random_chromatic_trees(seed: int, count: int) -> list:
    """Seeded trees over e and W leaves: single leaves, some under an s-t edge (P(G/st) = 0)."""
    rng = random.Random(seed)
    trees = [realize(SPLeaf(base))[1] for base in ("e", "W")]
    trees += [parse_sp(text)[1] for text in ("P(e,W)", "S(e,W)", "P(e,e,e)")]
    while len(trees) < count:
        ast = random_sp_ast(rng, rng.randint(1, 9), bases=("e", "W"))
        if rng.random() < 0.3:
            ast = SPOp("p", (SPLeaf("e"), ast))
        trees.append(realize(ast)[1])
    return trees


def test_integer_route_matches_the_ring_route():
    # chromatic_poly and chromatic_pair read one evaluation at q = 2^k; the
    # BigPoly ring route through tree_ab must give the same coefficients.
    for tree in _random_chromatic_trees(320, 80):
        ring = tree_ab(tree, Q, -1)
        a, b = engine.chromatic_pair(tree)
        z = chromatic_poly(tree)
        assert (a, b, z) == (ring.a, ring.b, ring.z)
        assert all(type(c) is int for p in (a, b, z) for c in p.coeffs)


def test_coefficient_bound_holds_with_two_bits_to_spare():
    inputs = _bench_inputs()
    trees = _random_chromatic_trees(321, 60)
    for text in inputs.big_graphs_inputs(7)[:4]:
        tt, tree = parse_sp(text)
        trees.append(decompose_sp(tt) or tree)
    for tree in trees:
        bound = engine._coefficient_bound(tree)
        ring = tree_ab(tree, Q, -1)
        # A single edge's pair is the plain ints (1, -1).
        largest = max(abs(c) for p in (ring.a, ring.b, ring.z) for c in (BigPoly() + p).coeffs)
        assert largest <= bound
        _, width = engine._pairs_at_power_of_two(tree)
        assert width % 8 == 0 and bound < 1 << (width - 2)


def test_a_reader_one_byte_narrower_is_wrong():
    # The width is tight to within a byte or two: read one byte narrower, a
    # seed-7 big_graphs polynomial comes out wrong.
    wrong = 0
    for text in _bench_inputs().big_graphs_inputs(7):
        tt, tree = parse_sp(text)
        tree = decompose_sp(tt) or tree
        pairs, width = engine._pairs_at_power_of_two(tree)
        assert BigPoly.from_balanced_digits(pairs.z, width) == chromatic_poly(tree)
        narrow = tree_ab(tree, 1 << (width - 8), -1)
        wrong += BigPoly.from_balanced_digits(narrow.z, width - 8) != chromatic_poly(tree)
    assert wrong > 0
