import random
from fractions import Fraction

import pytest

from conftest import random_multigraph
from tuttebound.graphs import (GraphError, Multigraph, TwoTerminalGraph, banana,
                               cycle_graph, disjoint_union, glue_at_vertex)
from tuttebound.oracles import partial_tutte_brute, potts_brute, tutte_brute
from tuttebound.poly import BigPoly


def test_single_edge():
    q, v = Fraction(7), Fraction(3, 2)
    assert tutte_brute(banana(1), q, v) == q * (q + v)


def test_single_vertex_no_edges():
    assert tutte_brute(Multigraph(1, ()), 5, -1) == 5


def test_cycle_formula():
    # Sum over subsets of a cycle: product(q + v_e) + (q-1) product(v_e).
    q, v = Fraction(3), Fraction(2)
    assert tutte_brute(cycle_graph(4), q, v) == (q + v) ** 4 + (q - 1) * v ** 4


def test_partial_single_edge():
    a, b = partial_tutte_brute(TwoTerminalGraph(banana(1), 0, 1), Fraction(9), Fraction(5))
    assert (a, b) == (1, 5)


def test_partial_stays_polynomial_in_q():
    # No division happens: with symbolic q the split values are polynomials.
    q = BigPoly.variable()
    tt = TwoTerminalGraph(cycle_graph(3), 0, 1)
    a, b = partial_tutte_brute(tt, q, -1)
    assert q * q * a + q * b == tutte_brute(cycle_graph(3), q, -1)
    assert isinstance(a, BigPoly) and isinstance(b, BigPoly)


def test_partial_wheatstone_values():
    g = Multigraph(4, ((0, 2), (0, 3), (2, 3), (2, 1), (3, 1)))
    a, b = partial_tutte_brute(TwoTerminalGraph(g, 0, 1), Fraction(10), -1)
    assert a == (10 - 2) * (10 - 3)
    assert b == 2 * (10 - 2)


def test_potts_edge_three_colors():
    assert potts_brute(banana(1), 3, -1) == 6


def test_potts_odd_cycle_two_colors():
    assert potts_brute(cycle_graph(3), 2, -1) == 0


def test_potts_triangle_three_colors():
    assert potts_brute(cycle_graph(3), 3, -1) == 6
    # against the cycle formula at q=3, v=-1
    assert (3 - 1) ** 3 + (3 - 1) * (-1) ** 3 == 6


def test_potts_matches_subset_expansion():
    rng = random.Random(7)
    for _ in range(25):
        g = random_multigraph(rng, max_vertices=5, max_edges=8)
        v = [rng.randint(-2, 2) for _ in range(g.edge_count)]
        for q in (1, 2, 3, 4):
            assert potts_brute(g, q, v) == tutte_brute(g, q, v)


def test_disjoint_union_multiplies():
    rng = random.Random(9)
    for _ in range(10):
        g1 = random_multigraph(rng, max_vertices=4, max_edges=5)
        g2 = random_multigraph(rng, max_vertices=4, max_edges=5)
        g = disjoint_union(g1, g2)
        q = Fraction(rng.randint(2, 6))
        v1 = [Fraction(rng.randint(-2, 2)) for _ in range(g1.edge_count)]
        v2 = [Fraction(rng.randint(-2, 2)) for _ in range(g2.edge_count)]
        assert tutte_brute(g, q, v1 + v2) == tutte_brute(g1, q, v1) * tutte_brute(g2, q, v2)


def test_cut_vertex_gluing_divides_by_q():
    rng = random.Random(13)
    for _ in range(10):
        g1 = random_multigraph(rng, max_vertices=4, max_edges=5, ensure_connected=True)
        g2 = random_multigraph(rng, max_vertices=4, max_edges=5, ensure_connected=True)
        g = glue_at_vertex(g1, 0, g2, 0)
        q = Fraction(rng.randint(2, 6))
        v1 = [Fraction(rng.randint(-2, 2)) for _ in range(g1.edge_count)]
        v2 = [Fraction(rng.randint(-2, 2)) for _ in range(g2.edge_count)]
        assert tutte_brute(g, q, v1 + v2) * q == \
            tutte_brute(g1, q, v1) * tutte_brute(g2, q, v2)


def test_loops_contribute_their_weight():
    # A loop multiplies the expansion by (1 + v_e).
    g = Multigraph(2, ((0, 1), (0, 0)))
    q, v = Fraction(4), Fraction(2)
    assert tutte_brute(g, q, v) == (1 + v) * tutte_brute(banana(1), q, v)


def test_edge_limit_guard():
    g = banana(25)
    with pytest.raises(GraphError):
        tutte_brute(g, 2, -1)
    with pytest.raises(GraphError):
        partial_tutte_brute(TwoTerminalGraph(g, 0, 1), 2, -1)
    with pytest.raises(GraphError, match="missing weight for edge 2"):
        tutte_brute(banana(3), 2, {0: -1, 1: -1})
    with pytest.raises(GraphError, match="weight list length mismatch"):
        partial_tutte_brute(TwoTerminalGraph(banana(3), 0, 1), 2, [-1, -1])


def test_vertex_limit_guard_and_q_validation():
    with pytest.raises(GraphError):
        potts_brute(Multigraph(11, ()), 2, -1)
    with pytest.raises(GraphError):
        potts_brute(banana(1), 0, -1)
    with pytest.raises(GraphError):
        potts_brute(banana(1), 2.5, -1)
