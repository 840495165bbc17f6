import hashlib
import random

import mpmath as mp
import numpy as np
import pytest

from tuttebound.engine import chromatic_poly, tree_ab
from tuttebound.graphs import GraphError
from tuttebound.leaftree import (_newton_ratio, cardioid_cusp, chromatic_leaf_tree,
                                 conjecture_scan, iterate_effective_y,
                                 iterate_step, is_partition_zero, leaf_tree_ab,
                                 multiplier_loci, ratio_at, t_eff_at,
                                 t_eff_exact, tree_chromatic_roots)
from tuttebound.poly import BigPoly, BiPoly
from tuttebound.rootfind import find_roots
from tuttebound.sp import gen_leaf_joined_tree, leaf_joined_vertex_count
from tuttebound.weights import INF, UNDEF, is_finite

Q = BigPoly.variable()


def test_depth_one_pair():
    st = leaf_tree_ab(2, 1)
    assert st.a == BigPoly((1,))
    assert st.b == BigPoly((-1,))
    assert st.partition_poly() == Q * Q - Q


def test_depth_two_matches_brute_force():
    g22, _ = gen_leaf_joined_tree(2, 2)
    assert chromatic_leaf_tree(2, 2) == chromatic_poly(g22.graph)


def test_recursion_matches_tree_engine():
    for r, n_max in ((2, 4), (3, 3), (4, 3)):
        for n in range(1, n_max + 1):
            _, tree = gen_leaf_joined_tree(r, n)
            assert chromatic_leaf_tree(r, n) == tree_ab(tree, Q, -1).z
    for r, n_max in ((2, 3), (3, 2)):
        for n in range(1, n_max + 1):
            _, tree = gen_leaf_joined_tree(r, n)
            z = tree_ab(tree, BiPoly.q(), BiPoly.w()).z
            assert leaf_tree_ab(r, n, symbolic_weight=True).partition_poly() == z


# SHA-256 (first 16 hex digits) of "A|B", each written as its coefficient
# list: exact coefficients recorded from separate univariate (w = -1) and
# bivariate recursions, which the shared pair step must reproduce.
PAIR_DIGESTS = {
    "2,1": "8d93f0f2aeb0f78c", "2,2": "26b428dd78447d9d",
    "2,3": "28882abfd096f0b7", "2,4": "1fc7040e0b393e17",
    "2,5": "fdb0a39f69fdd930", "2,6": "01695351e106af31",
    "2,7": "543a5955c6b9b4e9", "2,8": "670f6abbba82021c",
    "2,9": "de277a96d22671b1", "3,1": "8d93f0f2aeb0f78c",
    "3,2": "e9802b407d02c0d8", "3,3": "b01d8748a69541b1",
    "3,4": "2fa56ed019230937", "3,5": "2b0fb9939158bb56",
    "4,1": "8d93f0f2aeb0f78c", "4,2": "5b9141e83b193cec",
    "4,3": "7bef50027ff54f20", "4,4": "4c32ef6ec0eaf225",
    "w2,1": "a906f0f10efe5d1a", "w2,2": "5818945a3db05929",
    "w2,3": "33e3d09c573290ac", "w2,4": "08af8041acf6bd7b",
    "w2,5": "e039c5b58056d911", "w3,1": "9a6e1da6bde0f7ef",
    "w3,2": "a6f714b39dc3f91c", "w3,3": "fe433f9f3191bf35",
}


def _pair_digest(state) -> str:
    def text(p) -> str:
        if isinstance(p, BiPoly):
            return ",".join(f"{i}:{j}:{c}" for (i, j), c in sorted(p.terms.items()))
        return ",".join(str(c) for c in p.coeffs)
    return hashlib.sha256(f"{text(state.a)}|{text(state.b)}".encode()).hexdigest()[:16]


def test_pair_coefficients_match_recorded_digests():
    for key, want in PAIR_DIGESTS.items():
        symbolic = key.startswith("w")
        r, n = map(int, key.lstrip("w").split(","))
        assert _pair_digest(leaf_tree_ab(r, n, symbolic_weight=symbolic)) == want, key


def test_degree_equals_vertex_count():
    for r, n in ((2, 3), (2, 6), (3, 2), (3, 4), (4, 2)):
        assert chromatic_leaf_tree(r, n).degree == leaf_joined_vertex_count(r, n)


def test_bivariate_specializes_to_chromatic():
    st = leaf_tree_ab(2, 3, symbolic_weight=True)
    assert st.partition_poly().subs_w(-1) == chromatic_leaf_tree(2, 3)


def test_size_guard():
    with pytest.raises(GraphError):
        leaf_tree_ab(2, 17)


def test_iteration_orbit():
    q = 3.7 + 0.4j
    assert iterate_effective_y(q, 2, 1) == 0.0
    y2 = iterate_effective_y(q, 2, 2)
    assert abs(y2 - ((q - 1) / (q - 2)) ** 2) < 1e-14
    # critical orbit: 2-q maps to infinity, then to 0
    assert iterate_step(2 - q, q, 2) is INF
    assert iterate_step(INF, q, 2) == 0.0


def test_fixed_point_at_one():
    for q in (3.0 + 1j, -2.0, 0.5 + 0.5j):
        assert abs(iterate_step(1.0, q, 2) - 1.0) < 1e-14


def test_attraction_outside_radius_r_circle():
    q = 1 + 3.0                      # |q-1| = 3 > r = 2: multiplier 2/3
    y = iterate_effective_y(q, 2, 80)
    assert abs(y - 1.0) < 1e-10


def test_iteration_rejects_zero_and_one():
    for q in (0, 1):
        with pytest.raises(GraphError):
            iterate_effective_y(q, 2, 3)


def test_exact_and_iterated_values_agree():
    rng = random.Random(61)
    combos = [(r, n) for r in (2, 3) for n in range(1, 7)]
    checked = 0
    for r, n in combos:
        st = leaf_tree_ab(r, n)
        digits = max(60, 2 * st.a.degree)
        for _ in range(5):
            q = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(q) < 0.2 or abs(q - 1) < 0.2:
                continue
            y_iter = iterate_effective_y(q, r, n)
            with mp.workdps(digits):
                zq = mp.mpc(q)
                av = st.a(zq)
                bv = st.b(zq)
                if av == 0:
                    assert y_iter is INF or abs(y_iter) > 1e12
                    continue
                y_exact = complex(1 + bv / av)
            assert is_finite(y_iter)
            assert abs(y_iter - y_exact) <= 1e-9 * (1 + abs(y_exact))
            checked += 1
    assert checked >= 45


def test_zero_test_matches_roots():
    for n in range(1, 7):
        rs = tree_chromatic_roots(2, n, tol=1e-10)
        for z in rs.roots:
            if z in (0, 1) or abs(z) < 1e-9 or abs(z - 1) < 1e-9:
                continue
            assert is_partition_zero(z, 2, n, tol=1e-6)
    # points that are not roots fail the test
    rng = random.Random(3)
    for _ in range(25):
        q = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(q) < 0.3 or abs(q - 1) < 0.3:
            continue
        p = chromatic_leaf_tree(2, 4)
        if abs(p(q)) > 1e-3:
            assert not is_partition_zero(q, 2, 4, tol=1e-6)


def test_pair_gcd_is_trivial():
    # The reference check of the coprimality that t_eff_exact relies on.
    for r, n_max in ((2, 5), (3, 3), (4, 2)):
        for n in range(1, n_max + 1):
            st = leaf_tree_ab(r, n)
            assert BigPoly.gcd(st.a, st.b).degree == 0


def test_transmissivity_exact_needs_no_gcd(monkeypatch):
    def refuse(a, b):
        raise AssertionError("t_eff_exact must not run a gcd")

    monkeypatch.setattr(BigPoly, "gcd", staticmethod(refuse))
    for r, n_max in ((2, 6), (3, 4), (4, 3)):
        for n in range(1, n_max + 1):
            st = leaf_tree_ab(r, n)
            assert t_eff_exact(r, n) == (st.b, Q * st.a + st.b)


def test_fixed_point_multiplier_derivative():
    # Central differences with one Richardson step: error ~ h^4.
    rng = random.Random(71)
    count = 0
    while count < 100:
        q = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        r = rng.choice((2, 3))
        if abs(q - 1) < 0.5 or abs(q - 2) < 0.5:
            continue

        def central(h: float) -> complex:
            return (iterate_step(1.0 + h, q, r) - iterate_step(1.0 - h, q, r)) / (2 * h)

        d = (4 * central(5e-4) - central(1e-3)) / 3
        want = -r / (q - 1)
        assert abs(d - want) < 1e-10 * (1 + abs(want))
        count += 1


def test_transmissivity_exact_depth_one():
    num, den = t_eff_exact(2, 1)
    assert num == BigPoly((-1,))
    assert den == Q - 1


def test_transmissivity_exact_matches_iteration():
    # The expanded polynomials need working precision near their zeros;
    # the iteration stays accurate in doubles.
    rng = random.Random(81)
    for r, n in ((2, 3), (2, 5), (3, 2)):
        num, den = t_eff_exact(r, n)
        with mp.workdps(40 + 2 * den.degree):
            for _ in range(8):
                q = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if abs(q) < 0.3 or abs(q - 1) < 0.3:
                    continue
                lhs = ratio_at(num, den, mp.mpc(q))
                rhs = t_eff_at(q, r, n)
                if is_finite(rhs) and is_finite(lhs):
                    assert abs(complex(lhs) - rhs) < 1e-7 * (1 + abs(complex(lhs)))


def test_ratio_at_reports_zero_over_zero():
    num = Q - 2
    den = (Q - 2) * (Q - 3)
    assert ratio_at(num, den, 2) is UNDEF
    assert ratio_at(num, den, 3) is INF
    assert ratio_at(num, den, 4) == 1.0


def test_locus_circle():
    curve = multiplier_loci(2, "fixed-point-circle", 8)
    assert curve.points[0] == (0.0, 3 + 0j)
    for phi, z in curve.points:
        assert abs(abs(z - 1) - 2) < 1e-12


def test_locus_cardioid_cusp():
    curve = multiplier_loci(2, "cardioid", 8)
    at0 = [z for phi, z in curve.points if phi == 0.0]
    assert any(abs(z - 1.25) < 1e-12 for z in at0)
    assert any(abs(z + 1.0) < 1e-12 for z in at0)
    assert cardioid_cusp() == 1.25


def test_locus_period2_degeneracy():
    # At multiplier 1 the period-2 locus meets the multiplier -1 fixed
    # point: q = (13 +- i sqrt(7))/8, plus the circle point q = 3.
    curve = multiplier_loci(2, "period2-egg", 8)
    at0 = [z for phi, z in curve.points if phi == 0.0]
    target = (13 + 1j * 7 ** 0.5) / 8
    assert min(abs(z - target) for z in at0) < 1e-9
    assert min(abs(z - target.conjugate()) for z in at0) < 1e-9
    assert min(abs(z - 3) for z in at0) < 1e-9


def test_locus_validation():
    with pytest.raises(GraphError):
        multiplier_loci(2, "nonsense", 8)
    with pytest.raises(GraphError):
        multiplier_loci(3, "cardioid", 8)


def test_scan_small():
    report = conjecture_scan(2, 3)
    assert [row.n for row in report.rows] == [1, 2, 3]
    assert [row.degree for row in report.rows] == [2, 4, 8]
    assert report.total_violations == 0
    assert all(row.max_residual < 1e-8 for row in report.rows)
    assert report.offsets_nondecreasing


def test_scan_reports_unconverged_roots():
    assert conjecture_scan(2, 3).converged
    assert not conjecture_scan(2, 3, tol=-1).converged


def test_scan_validation():
    with pytest.raises(GraphError):
        conjecture_scan(3, 4)
    with pytest.raises(GraphError):
        conjecture_scan(2, 9)


def test_fast_roots_agree_with_generic_solver():
    for r, n in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 4)):
        fast = tree_chromatic_roots(r, n, tol=1e-10)
        ref = find_roots(chromatic_leaf_tree(r, n), tol=1e-10)
        a = sorted(fast.roots, key=lambda z: (z.real, z.imag))
        b = sorted(ref.roots, key=lambda z: (z.real, z.imag))
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_jet_newton_ratio_matches_multiprecision():
    # Away from the roots the pair step on jets gives P/P' to near double
    # precision, although the monomial form loses hundreds of digits there.
    for r, n in ((2, 8), (3, 5), (4, 4)):
        poly = chromatic_leaf_tree(r, n)
        dpoly = poly.derivative()
        points = [1 + rad * np.exp(2j * np.pi * (k + 0.29) / 8)
                  for rad in (0.5, 2.5, 4.0) for k in range(8)]
        got = _newton_ratio(np.array(points), r, n)
        with mp.workdps(400):
            for z, ratio in zip(points, got):
                want = complex(poly(mp.mpc(z)) / dpoly(mp.mpc(z)))
                assert abs(ratio - want) <= 1e-9 * abs(want), (r, n, z)
