"""Multivariate Tutte polynomials of series-parallel graphs, maxmaxflow,
and zero-free-disc certification for chromatic roots."""

__version__ = "0.1.0"

from .graphs import (Block, GraphError, Multigraph, TwoTerminalGraph, blocks,
                     insert_2term, load_graph, max_flow, maxmaxflow)
from .oracles import partial_tutte_brute, potts_brute, tutte_brute
from .weights import (INF, UNDEF, WeightAssignment, convert, is_finite,
                      load_weights, parallel, save_weights, series)
from .poly import BigPoly, BiPoly
from .sp import (DecompNode, DecompTree, ParseError, check_proper_flow_bound,
                 constituent_flows, decompose_sp, gen_gadget_cycle,
                 gen_leaf_joined_tree, gen_theta, gen_wheatstone, is_nice, parse_sp)
from .engine import TreeEffective, TreePairs, chromatic_poly, tree_ab, tree_veff
from .rootfind import RootSet, find_roots, solve_complex_coeffs
from .leaftree import (LeafTreeState, LocusCurve, ScanReport, chromatic_leaf_tree,
                       conjecture_scan, iterate_effective_y, leaf_tree_ab,
                       multiplier_loci, t_eff_at, t_eff_exact, tree_chromatic_roots)
from .regions import (CertifyResult, CycleCounterexample, GridFamily,
                      PointDiscFamily, RadiiBlowup, StalkDiscFamily, boundary_rho,
                      certify, cycle_counterexample, disc_radii, exact_parallel_max,
                      grid_closure, log2_disc_radius, parallel_bound,
                      radii_by_iteration, radii_feasible, sp_bound_margin,
                      sp_rho_threshold, transmissivity_circle_max, verify_family,
                      wheatstone_bound_margin, wheatstone_rho_threshold)
