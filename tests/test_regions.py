import cmath
import hashlib
import math
import random

import numpy as np
import pytest

from tuttebound.graphs import GraphError
from tuttebound.regions import (CHROMATIC, ANTIFERRO, WHEATSTONE, MAXIMAL, MINIMAL,
                                PointDiscFamily, RadiiBlowup,
                                boundary_rho, certify, cycle_counterexample,
                                disc_radii, exact_parallel_max, grid_closure,
                                log2_disc_radius, parallel_bound,
                                radii_by_iteration, radii_feasible,
                                sp_bound_margin, sp_rho_threshold,
                                transmissivity_circle_max, verify_family,
                                wheatstone_bound_margin, wheatstone_rho_threshold,
                                _t_parallel)

LOG2 = math.log(2.0)

PUBLISHED = {
    2: (1.0, 1.0),
    3: (0.376086, 0.333333),
    4: (0.240380, 0.219471),
    5: (0.177591, 0.165204),
    6: (0.141038, 0.132841),
    7: (0.117041, 0.111213),
    8: (0.100054, 0.095697),
    9: (0.087388, 0.084008),
    10: (0.077577, 0.074877),
}


def test_thresholds_match_published_values():
    for lam, (rho_sp, rho_w) in PUBLISHED.items():
        assert abs(sp_rho_threshold(lam) - rho_sp) < 1e-6
        assert abs(wheatstone_rho_threshold(lam) - rho_w) < 1e-6


def test_threshold_defining_equations():
    for lam in range(3, 11):
        rho = sp_rho_threshold(lam)
        assert abs((1 + rho) ** lam - 2 * (1 + rho * rho) ** (lam - 1)) < 1e-9
        rho = wheatstone_rho_threshold(lam)
        assert abs((1 + rho) ** (lam + 1) - 4 * (1 - rho + 2 * rho * rho) ** (lam - 1)) < 1e-9


def test_threshold_analytic_lower_bounds():
    for lam in range(3, 11):
        assert sp_rho_threshold(lam) > LOG2 / (lam - 1.5 * LOG2)
        assert wheatstone_rho_threshold(lam) > LOG2 / (lam - LOG2)
        assert wheatstone_rho_threshold(lam) < sp_rho_threshold(lam)


def test_headline_constants():
    assert abs(1 / sp_rho_threshold(3) - 2.6589670819) < 1e-9
    assert abs(log2_disc_radius(3) - 2.8853900818) < 1e-9


def test_margin_functions_positive_inside():
    for i in range(1, 2000):
        rho = i / 2000
        assert sp_bound_margin(rho) > 0
        assert wheatstone_bound_margin(rho) > 0
    assert abs(sp_bound_margin(1e-9)) < 1e-12
    assert abs(wheatstone_bound_margin(1e-9)) < 1e-12


def test_parallel_bound_additive_identity():
    assert parallel_bound(0.0, 0.2, 0.3) == 0.2


def test_parallel_bound_is_associative():
    rng = random.Random(42)
    F = parallel_bound
    checked = 0
    while checked < 200:
        rho = rng.uniform(0.2, 0.9)
        a, b, c = (rng.uniform(0, rho * 0.4) for _ in range(3))
        if F(b, c, rho) >= rho or F(a, b, rho) >= rho:
            continue
        lhs = F(a, F(b, c, rho), rho)
        rhs = F(c, F(a, b, rho), rho)
        assert abs(lhs - rhs) < 1e-14 * (1 + abs(lhs))
        checked += 1


def test_parallel_bound_preconditions():
    with pytest.raises(GraphError):
        parallel_bound(0.3, 0.1, 0.3)
    with pytest.raises(GraphError):
        parallel_bound(0.1, 0.1, 1.2)


def test_radii_collapse_identity():
    # bound(r_k, r_l) equals bound(r_1, r_{k+l-1}) along the sequence
    rho = sp_rho_threshold(6) * 0.95
    rs = disc_radii(rho, 6, MINIMAL)
    for k in range(1, 6):
        for ell in range(1, 6):
            if k + ell > 6:
                continue
            lhs = parallel_bound(rs[k - 1], rs[ell - 1], rho)
            rhs = parallel_bound(rs[0], rs[k + ell - 2], rho)
            assert abs(lhs - rhs) < 1e-12


def test_radii_choices():
    lam = 5
    rho = 0.9 * sp_rho_threshold(lam)
    rmin = disc_radii(rho, lam, MINIMAL)
    assert abs(rmin[0] - rho * rho) < 1e-16
    rmax = disc_radii(rho, lam, MAXIMAL)
    assert abs(rmax[-1] - rho) < 1e-12
    assert all(x <= y + 1e-15 for x, y in zip(rmin, rmax))


def test_radii_agree_with_iteration():
    for lam in (3, 5, 8):
        rho = sp_rho_threshold(lam) * 0.9
        for choice in (MINIMAL, MAXIMAL):
            closed = disc_radii(rho, lam, choice)
            iterated = radii_by_iteration(rho, closed[0], lam)
            assert max(abs(a - b) for a, b in zip(closed, iterated)) < 1e-13


def test_radii_coincide_exactly_at_threshold():
    rho = sp_rho_threshold(3)
    a = disc_radii(rho, 3, MINIMAL)
    b = disc_radii(rho, 3, MAXIMAL)
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9
    assert abs(a[0] - rho * rho) < 1e-9 and abs(a[1] - rho) < 1e-9


def test_radii_blow_up_beyond_threshold():
    lam = 4
    rho = min(0.99, sp_rho_threshold(lam) * 2.5)
    with pytest.raises(RadiiBlowup):
        radii_by_iteration(rho, rho * rho, 12)
    assert not radii_feasible(rho, lam, MINIMAL)


def test_feasibility_equivalences_on_rho_grid():
    # minimal feasible <=> maximal feasible <=> defining inequality <=> rho <= rho#
    for lam in (3, 4, 6):
        star = sp_rho_threshold(lam)
        for i in range(1, 40):
            rho = i / 40
            if abs(rho - star) < 1e-9:
                continue
            want = rho <= star
            ineq = (1 + rho) ** lam <= 2 * (1 + rho * rho) ** (lam - 1)
            assert radii_feasible(rho, lam, MINIMAL) == want
            assert radii_feasible(rho, lam, MAXIMAL) == want
            assert ineq == want


def test_certify_examples():
    assert certify(4.2, 3).certified
    q = 1 + 2 * cmath.exp(1j * math.pi / 3)
    out = certify(q, 3)
    assert not out.certified and "fails" in out.reason
    out = certify(4.9, 3, WHEATSTONE)
    assert out.certified and abs(out.wheatstone_cut - 2.0) < 1e-12
    out = certify(3.9, 3, WHEATSTONE)
    assert not out.certified                  # |q-2| = 1.9 < 2
    assert certify(3.9, 3).certified          # plain mode passes


def test_certify_strictness_at_two():
    assert not certify(2.0, 2).certified      # |q-1| = 1 needs strict
    out = certify(2.5, 2)
    assert out.certified
    assert abs(out.family.radii[0] - 1.0 / 1.5) < 1e-12


def test_certify_validation():
    with pytest.raises(GraphError):
        certify(0.0, 3)
    with pytest.raises(GraphError):
        certify(1.0, 3)
    with pytest.raises(GraphError):
        certify(3.0, 1)
    assert not certify(9.0, 2, WHEATSTONE).certified


def test_certify_s1_radius_beats_rho_squared():
    # Under certification the admissible weight radius is at least rho^2.
    for lam in (3, 4, 5):
        for scale in (1.0, 1.3, 2.0):
            q = 1 + scale / sp_rho_threshold(lam)
            out = certify(q, lam)
            rho = 1 / abs(q - 1)
            assert out.certified
            assert out.s1_radius >= rho * rho - 1e-12


def test_verify_family_accepts_certified():
    for mode in (CHROMATIC, ANTIFERRO):
        for q in (4.2, -1.5 + 2.8j, 1 + 3.1 * cmath.exp(2j)):
            out = certify(q, 3, mode)
            assert out.certified
            assert verify_family(out.family, samples=3000)
    out = certify(5.2, 4, CHROMATIC)
    assert verify_family(out.family, samples=3000)


def test_verify_family_rejects_bad_families():
    q = 1.5 + 0.2j
    rho = 1 / abs(q - 1)
    assert not verify_family(PointDiscFamily(3, q, (rho, rho)))
    # a family whose top set reaches t = 1
    assert not verify_family(PointDiscFamily(3, 4.2, (0.1, 1.0)))
    # non-nested radii
    assert not verify_family(PointDiscFamily(3, 4.2, (0.3, 0.2)))


def test_arc_absorbs_disc_in_both_directions():
    # Forward: every arc point maps the rho-disc into itself under the
    # parallel rule; converse: points off the arc push some disc point out.
    rng = random.Random(5)
    count = 0
    while count < 20:
        q = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(q - 1) < 1.2:
            continue
        rho = 1 / abs(q - 1)
        boundary = rho * np.exp(2j * np.pi * np.arange(512) / 512)
        for v in np.linspace(-1.0, 0.0, 21):
            t = v / (q + v)
            combo = _t_parallel(t, boundary, q)
            assert np.all(np.abs(combo) <= rho * (1 + 1e-9))
        misses = 0
        for _ in range(20):
            y = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if abs(y.imag) < 0.05 or not (0 <= y.real <= 1):
                if abs(y - 1) < 0.05:
                    continue
                t = (y - 1) / (y + q - 1)
                combo = _t_parallel(t, boundary, q)
                if np.max(np.abs(combo)) <= rho * (1 + 1e-9):
                    misses += 1
        assert misses == 0
        count += 1


def test_exact_parallel_max_zero():
    assert exact_parallel_max(0.0, 0.0, 2.5 + 1j) == 0.0


def test_exact_parallel_max_below_naive_bound():
    rng = random.Random(2)
    count = 0
    while count < 60:
        q = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(q - 1) < 1.05:
            continue
        rho = 1 / abs(q - 1)
        x = rng.uniform(0, 0.92 * rho)
        y = rng.uniform(0, 0.92 * rho)
        f = exact_parallel_max(x, y, q, 512)
        assert f <= parallel_bound(x, y, rho) + 1e-7
        count += 1


def test_exact_parallel_max_diagonal_consistency():
    # The polydisc maximum coincides with the diagonal, so the dedicated
    # diagonal path must agree with the generic torus scan.
    rng = random.Random(9)
    count = 0
    while count < 8:
        q = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(q - 1) < 1.3:
            continue
        x = rng.uniform(0.05, 0.9) / abs(q - 1)
        diag = exact_parallel_max(x, x, q, 2048)
        torus = exact_parallel_max(x, x * (1 + 1e-13), q, 2048)
        assert abs(diag - torus) < 1e-5
        count += 1


def test_boundary_rho_at_least_uniform_threshold():
    got = boundary_rho(3, 0.0, 1e-6)
    assert got >= sp_rho_threshold(3) - 1e-6
    up = boundary_rho(3, math.pi, 1e-6)
    assert up > sp_rho_threshold(3) + 1e-3
    # mirror symmetry
    a = boundary_rho(3, 1.0, 1e-6)
    b = boundary_rho(3, -1.0, 1e-6)
    assert abs(a - b) < 1e-5


def test_boundary_rho_pairwise_reduction_above_three():
    got = boundary_rho(4, math.pi, 1e-4, 1024)
    assert got >= sp_rho_threshold(4) - 1e-4


def test_certified_weight_bound_beats_rho_squared_on_grid():
    # Inside certification the admissible radius never drops below rho^2.
    for lam in (3, 4, 6):
        star = sp_rho_threshold(lam)
        for i in range(1, 30):
            rho = star * i / 30
            radii = disc_radii(rho, lam, MAXIMAL)
            assert radii[0] >= rho * rho - 1e-12


def test_transmissivity_circle_scan_small_depths():
    v, _ = transmissivity_circle_max(2, 1, samples=512)
    assert abs(v - 0.5) < 1e-9                  # |1/(1-q)| on |q-1|=2
    v, _ = transmissivity_circle_max(2, 3, samples=512)
    assert v < 1.0


def test_grid_closure_escapes_inside():
    fam = grid_closure(1.1, 3, 128)
    assert fam.escaped


def test_grid_closure_fig_style_point():
    q = 1 + 2.2 * cmath.exp(1j * math.pi / 6)
    fam = grid_closure(q, 3, 128)
    assert not fam.escaped and fam.converged
    # the seed point and its square are marked in the level-1 raster
    t0 = 1 / (1 - q)
    h = 2.0 / fam.resolution
    for point in (t0, t0 * t0):
        ix = int((point.real + 1) / h)
        iy = int((point.imag + 1) / h)
        assert fam.levels[0][iy, ix]
    assert verify_family(fam, samples=2000)


def test_grid_closure_contained_in_certified_discs():
    q = 4.2
    fam = grid_closure(q, 3, 128)
    assert not fam.escaped
    out = certify(q, 3)
    cell = 2.0 * math.sqrt(2.0) / fam.resolution
    t0 = 1 / (1 - q)
    for k in (1, 2):
        for ix, iy in fam.cells(k):
            c = fam.center(ix, iy)
            assert abs(c) <= out.family.radii[k - 1] + cell or abs(c - t0) <= cell


def test_grid_closure_level_four():
    q = 1 + 3.4 * cmath.exp(1j * math.pi / 5)
    fam = grid_closure(q, 4, 128)
    assert not fam.escaped and fam.converged
    sizes = [int(level.sum()) for level in fam.levels]
    assert sizes[0] <= sizes[1] <= sizes[2]       # cumulative nesting
    assert verify_family(fam, samples=2000)


@pytest.mark.parametrize("q, lam, counts, digest", [
    (1 + 1.6 * cmath.exp(1j * math.pi / 6), 3, [176, 646],
     "3e56b43547b78963d6b7751ef27ff9bfa4c2962cca924735e0e30be49704b966"),
    (2.3, 4, [548, 1816, 1838],
     "964ea44ba229f85cf3ed36a954e1a926172133bfb99a66afdf815e93b397ce68"),
])
def test_grid_closure_mid_sweep_escape_state(q, lam, counts, digest):
    # An escape in sweep 4 keeps every chunk marked before the escaping one.
    fam = grid_closure(q, lam, 64)
    assert fam.escaped and fam.converged
    assert fam.reason == "a combination reached |t| >= 1"
    assert fam.sweeps == 4
    assert [int(level.sum()) for level in fam.levels] == counts
    raw = b"".join(np.ascontiguousarray(level).tobytes() for level in fam.levels)
    assert hashlib.sha256(raw).hexdigest() == digest


def test_grid_closure_zero_parallel_denominator():
    # t0 = 1/(1-q) = i/2048 lies in the cell centred at c = (1+i)/64, and
    # 1 + (q-1) c^2 is exactly 0, so the first parallel pair is undefined.
    fam = grid_closure(1 + 2048j, 3, 64)
    assert fam.escaped and fam.converged and fam.sweeps == 1
    assert fam.reason == "undefined parallel combination inside the rules"
    assert [int(level.sum()) for level in fam.levels] == [1, 1]


def test_grid_closure_validation():
    with pytest.raises(GraphError):
        grid_closure(4.2, 3, 100)          # not a power of two
    with pytest.raises(GraphError):
        grid_closure(4.2, 5, 128)
    with pytest.raises(GraphError):
        grid_closure(0.0, 3, 128)


def test_certified_points_are_zero_free_in_practice():
    # Direct meaning of certification: at a certified q, no admissible
    # weighting of a graph with maxmaxflow <= lam makes Z vanish.
    import random as pyrandom
    from conftest import random_sp_ast
    from tuttebound.engine import tree_ab
    from tuttebound.graphs import maxmaxflow
    from tuttebound.sp import realize

    rng = pyrandom.Random(424242)
    lam = 3
    for q in (4.2, 1 + 2.8j, -1.4 - 2.6j):
        out = certify(q, lam, ANTIFERRO)
        assert out.certified
        checked = 0
        while checked < 40:
            tt, tree = realize(random_sp_ast(rng, rng.randint(2, 9)))
            if maxmaxflow(tt.graph, limit=lam) > lam:
                continue
            m = tt.graph.edge_count
            if rng.random() < 0.5:
                weights = {i: -rng.random() for i in range(m)}          # arc weights
            else:
                weights = {}
                for i in range(m):                                       # disc weights
                    t = out.s1_radius * rng.random() * cmath.exp(2j * math.pi * rng.random())
                    weights[i] = q * t / (1 - t)
            z = tree_ab(tree, complex(q), weights).z
            assert abs(z) > 1e-9 * (1 + abs(z))
            checked += 1


def test_cycle_counterexample_values():
    ce = cycle_counterexample()
    assert ce.count == 31
    assert abs(ce.witness.real - (-0.144883)) < 1e-4
    assert abs(ce.witness.imag - (-1.651418)) < 1e-4
    assert 2.00945 <= ce.witness_offset <= 2.00948
    assert ce.cycle_poly_degree == 94
    assert ce.verified and ce.residual < 1e-6
