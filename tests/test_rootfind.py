import cmath
import hashlib
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from tuttebound import rootfind
from tuttebound.engine import chromatic_poly
from tuttebound.graphs import cycle_graph
from tuttebound.leaftree import chromatic_leaf_tree, t_eff_exact, tree_chromatic_roots
from tuttebound.poly import BigPoly
from tuttebound.regions import _cleared
from tuttebound.rootfind import (RootFindingError, find_roots, newton_residuals,
                                 solve_complex_coeffs, squarefree_factors)
from tuttebound.sp import gen_wheatstone, parse_sp

Q = BigPoly.variable()


def test_exact_deflation_only():
    rs = find_roots(Q * Q - Q)
    assert sorted(z.real for z in rs.roots) == [0.0, 1.0]
    assert rs.residuals == [0.0, 0.0]
    assert rs.converged


def test_cycle_chromatic_roots():
    # P factors as (q-1)((q-1)^3 + 1): roots 0, 1, and 3/2 +- i sqrt(3)/2.
    rs = find_roots(chromatic_poly(cycle_graph(4)), tol=1e-10)
    want = [0.0, 1.0, complex(1.5, -math.sqrt(3) / 2), complex(1.5, math.sqrt(3) / 2)]
    got = sorted(rs.roots, key=lambda z: (z.real, z.imag))
    for g, w in zip(got, sorted(want, key=lambda z: (z.real, z.imag))):
        assert abs(g - w) < 1e-9
    assert max(rs.residuals) <= 1e-10


def test_double_root_cluster():
    rs = find_roots(chromatic_poly(gen_wheatstone().graph), tol=1e-10)
    assert rs.degree == 4
    near2 = [z for z in rs.roots if abs(z - 2) < 1e-4]
    assert len(near2) == 2
    idx = [i for i, z in enumerate(rs.roots) if abs(z - 2) < 1e-4]
    assert all(rs.multiplicities[i] == 2 for i in idx)


def test_close_distinct_roots_are_simple():
    # 20000 and 20001 lie within sqrt(tol) of each other relatively.
    rs = find_roots((Q - 20000) * (Q - 20001) * (Q - 3), tol=1e-8)
    assert rs.multiplicities == [1, 1, 1]
    assert [round(z.real) for z in rs.roots] == [3, 20000, 20001]
    assert rs.converged


def test_exact_multiplicities_of_series_wheatstones():
    _tt, tree = parse_sp("S(W,W,W)")
    p = chromatic_poly(tree)
    assert p == Q * (Q - 1) ** 3 * (Q - 2) ** 6
    rs = find_roots(p, tol=1e-10)
    assert len(rs.roots) == 10 and rs.converged
    got = {(round(z.real), m) for z, m in zip(rs.roots, rs.multiplicities)}
    assert got == {(0, 1), (1, 3), (2, 6)}
    assert rs.multiplicities.count(6) == 6 and rs.multiplicities.count(3) == 3
    assert all(abs(z - 2) < 1e-12 for z in rs.roots[4:])


def test_squarefree_factors_yun_fallback():
    # q (q - p) is q^2 modulo p = 2^61 - 1, so the certificate fails and
    # Yun's algorithm over the integers must find it squarefree.
    f = Q * (Q - (2 ** 61 - 1))
    assert squarefree_factors(f) == [(f, 1)]


def test_squarefree_factors_recompose():
    rng = random.Random(17)
    for _ in range(25):
        f = BigPoly((rng.choice([1, -2, 3]),))
        for _ in range(rng.randint(1, 4)):
            g = BigPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
                        + [rng.randint(1, 3)])
            f = f * g ** rng.randint(1, 4)
        factors = squarefree_factors(f)
        prod = BigPoly((1,))
        for g, i in factors:
            assert BigPoly.gcd(g, g.derivative()).degree == 0
            prod = prod * g ** i
        assert prod.degree == f.degree and f.exact_div(prod).degree == 0
        assert [i for _, i in factors] == sorted({i for _, i in factors})


def test_newton_verification_stops_at_tolerance(monkeypatch):
    calls = []
    evaluate = rootfind._exact_horner

    def counted(re, im, x, y, s):
        calls.append((x, y, s))
        return evaluate(re, im, x, y, s)

    monkeypatch.setattr(rootfind, "_exact_horner", counted)
    for n, inner in ((5, 30), (7, 126)):
        calls.clear()
        rs = tree_chromatic_roots(2, n)
        assert rs.degree - 2 == inner
        assert inner <= len(calls) <= 3 * inner
        assert rs.converged and max(rs.residuals) <= rs.tol


def _newton_levels(monkeypatch) -> list[int]:
    """Record the working precision of every _newton_once call."""
    levels = []
    once = rootfind._newton_once

    def logged(coeffs, z0, dps, tol=None):
        levels.append(dps)
        return once(coeffs, z0, dps, tol)

    monkeypatch.setattr(rootfind, "_newton_once", logged)
    return levels


def test_newton_near_clustered_roots_takes_one_pass_at_the_given_digits(monkeypatch):
    # Horner-sweep starts for the counterexample's cleared polynomial sit
    # near clustered roots: Newton approaches them slowly and needs more
    # steps, which each point takes in one pass at the given digits.
    cleared = _cleared(*t_eff_exact(2, 5))
    c = rootfind._float_parts(*rootfind._gaussian(cleared))
    c = c / np.max(np.abs(c))
    raw, _ = rootfind.aberth_sweeps(lambda z: rootfind._horner_ratio(c, z),
                                    _hull_points(c))
    levels = _newton_levels(monkeypatch)
    _roots, residuals = newton_residuals(cleared, raw, dps=rootfind._auto_dps(31), tol=1e-10)
    assert max(residuals) <= 1e-10
    assert len(levels) == 31 and len(set(levels)) == 1


def test_newton_far_from_the_roots_takes_one_pass_at_the_given_digits(monkeypatch):
    # From a start far outside the roots of (q-2)(q-3)(q+1), 30 Newton steps
    # leave a residual above tol.  The values are exact, so more digits
    # cannot help: the point gets one pass at the given digits.
    levels = _newton_levels(monkeypatch)
    _roots, residuals = newton_residuals([6, 1, -4, 1], [1e12 + 1e12j], dps=40, tol=1e-10)
    assert residuals[0] > 1e-10
    assert levels == [40]


def test_newton_residuals_match_400_digits_to_one_ulp(monkeypatch):
    # Each residual is |g/g'|/(1+|z|) at the point Newton last measured,
    # evaluated exactly: it equals the 400-digit Horner value to 1 ulp,
    # where Horner at the working precision loses digits to cancellation.
    captured = []
    verify = rootfind.newton_residuals

    def capture(coeffs, roots, dps=40, tol=None):
        captured.append((coeffs, list(roots), dps, tol))
        return verify(coeffs, roots, dps, tol)

    monkeypatch.setattr(rootfind, "newton_residuals", capture)
    tree_chromatic_roots(2, 6)
    [(coeffs, starts, dps, tol)] = captured
    assert len(starts) == 62
    points = []
    evaluate = rootfind._exact_horner

    def recorded(re, im, x, y, s):
        points.append((x, y, s))
        return evaluate(re, im, x, y, s)

    monkeypatch.setattr(rootfind, "_exact_horner", recorded)
    for z0 in starts:
        points.clear()
        _, [eta] = verify(coeffs, [z0], dps, tol)
        x, y, s = points[-1]
        with mp.workdps(400):
            z = mp.mpc(x, y) / mp.mpf(2) ** s
            p, dp = rootfind._horner(coeffs, z)
            want = float(abs(p / dp) / (1 + abs(z)))
        assert abs(eta - want) <= math.ulp(want), z0


def test_newton_step_at_a_root_returns_it_with_zero_eta():
    # -(q - 7): g(7) = 0 ends the pass before any step, eta exactly 0.
    z, eta = rootfind._newton_once(([7, -1], [0, 0]), 7 + 0j, 40, 1e-10)
    assert z == 7 + 0j and eta == 0.0 and type(eta) is float


def test_newton_step_at_a_critical_point_is_not_converged():
    # q^2 + 1 at 0: g' = 0, so no step is taken and eta is inf.
    z, eta = rootfind._newton_once(([1, 0, 1], [0, 0, 0]), 0j, 40, 1e-10)
    assert z == 0j and eta == math.inf
    _, residuals = newton_residuals([1, 0, 1], [0j], 40, 1e-10)
    assert residuals == [math.inf]


def test_newton_eta_beyond_the_float_range_is_inf():
    # g = (q - w)^2 + w^2 with w = a(1 + i), a = 1.5e308: from 0 the step
    # lands on w, where g' = 0, and its eta |w| exceeds the float range.
    a = int(1.5e308)
    re, im = [0, -2 * a, 1], [4 * a * a, -2 * a, 0]
    z, eta = rootfind._newton_once((re, im), 0j, 40, 1e-10)
    assert z == complex(1.5e308, 1.5e308) and eta == math.inf


def test_exact_ratio_beyond_the_double_range_is_not_finite():
    # q^2 + 10^400 at 2^-600: g/g' is about 10^400 * 2^599, past any double.
    ratio = rootfind._exact_ratio(rootfind._gaussian([10 ** 400, 0, 1]),
                                  np.array([2.0 ** -600 + 0j]))
    assert not np.isfinite(ratio).any()


def test_residual_beyond_the_double_range_is_inf():
    # At 0, g' = 0 and |g| = 10^400 is past any double.
    assert rootfind.residual_at([10 ** 400, 0, 1], 0j) == math.inf


def test_newton_iterate_beyond_the_double_range_is_rejected():
    # Newton from 2^-600 on q^2 + 10^400 jumps to about -10^400 * 2^599 and
    # halves toward the roots +-10^200 i too slowly to come back in 30 steps.
    with pytest.raises(RootFindingError):
        solve_complex_coeffs([10 ** 400, 0, 1], starts=[2.0 ** -600 + 0j, 1 + 1j])


def _reference_exact_horner(re, im, x, y, s):
    """_exact_horner as it was written, complex Horner on the homogenised
    polynomial, kept as the oracle of the division by the real quadratic."""
    d = len(re) - 1
    pr, pi, dr, di = re[d], im[d], 0, 0
    for k in range(d - 1, -1, -1):
        shift = s * (d - k)
        dr, di = dr * x - di * y + pr, dr * y + di * x + pi
        pr, pi = pr * x - pi * y + (re[k] << shift), pr * y + pi * x + (im[k] << shift)
    return pr, pi, dr, di


def _exact_horner_cases():
    """Seeded (re, im, x, y, s): real and Gaussian coefficients of degree 0 to
    80 with parts up to 2^300 of either sign, s from 0 to 1079, each at a
    general point, on the real axis, on the imaginary axis and at 0."""
    rng = random.Random(33)
    cases = []
    for d in range(81):
        for gaussian in (False, True):
            top = 2 ** rng.choice((1, 30, 300))
            s = 1000 + d if d % 8 == 7 else rng.choice((0, 1, 53))
            re = [rng.randint(-top, top) for _ in range(d + 1)]
            im = [rng.randint(-top, top) if gaussian else 0 for _ in range(d + 1)]
            x, y = (rng.randint(-2 ** (s + 3), 2 ** (s + 3)) for _ in range(2))
            cases += [(re, im, x, y, s), (re, im, x, 0, s), (re, im, 0, y, s), (re, im, 0, 0, s)]
    return cases


def test_exact_horner_equals_complex_horner():
    cases = _exact_horner_cases()
    assert any(s >= 1000 for *_, s in cases) and any(c < 0 for re, *_ in cases for c in re)
    for case in cases:
        assert rootfind._exact_horner(*case) == _reference_exact_horner(*case), case


def test_newton_iterate_beyond_two_to_the_bits_is_a_rounded_integer():
    # An iterate with |z| >= 2^bits lies on a grid coarser than 1: it comes
    # back with s = 0 as exact integers, within half a grid unit.
    bits = rootfind._bits(40)
    c = 3 * 2 ** 200 + 1
    x, y, s = rootfind._round_to_bits(c, -(2 ** 150 + 7), 1, bits)
    unit = 2 ** (202 - bits)
    assert s == 0 and x == 3 * 2 ** 200 and y % unit == 0
    assert abs(y + 2 ** 150 + 7) <= unit // 2
    z, eta = rootfind._newton_once(([-c, 1], [0, 0]), 0j, 40, 1e-10)
    assert z == complex(3 * 2 ** 200) and eta == 1 / (1 + 3 * 2 ** 200)


def _top(m: Fraction) -> int:
    """The t with 2^(t-1) <= m < 2^t, for m > 0."""
    t = m.numerator.bit_length() - m.denominator.bit_length()
    return t + 1 if m >= Fraction(2) ** t else t


def test_each_newton_iterate_is_the_exact_step_rounded_to_the_bits(monkeypatch):
    # From far outside the roots of (q-2)(q-3)(q+1), 30 steps: each iterate
    # that g is evaluated at is within half a grid unit 2^(t - bits) of the
    # exact z - g/g' (the point returned after the last step is a double).
    points = []
    evaluate = rootfind._exact_horner

    def recorded(re, im, x, y, s):
        points.append((Fraction(x, 2 ** s), Fraction(y, 2 ** s)))
        return evaluate(re, im, x, y, s)

    monkeypatch.setattr(rootfind, "_exact_horner", recorded)
    coeffs = [6, 1, -4, 1]
    rootfind._newton_once(rootfind._gaussian(coeffs), 1e12 + 1e12j, 40, 1e-10)
    assert len(points) == 30
    bits = rootfind._bits(40)
    for (x, y), (nx, ny) in zip(points, points[1:]):
        p = dp = (Fraction(0), Fraction(0))
        for c in reversed(coeffs):
            dp = (dp[0] * x - dp[1] * y + p[0], dp[0] * y + dp[1] * x + p[1])
            p = (p[0] * x - p[1] * y + c, p[0] * y + p[1] * x)
        norm = dp[0] ** 2 + dp[1] ** 2
        wx = x - (p[0] * dp[0] + p[1] * dp[1]) / norm
        wy = y - (p[1] * dp[0] - p[0] * dp[1]) / norm
        half = Fraction(2) ** (_top(max(abs(wx), abs(wy))) - bits - 1)
        assert abs(nx - wx) <= half and abs(ny - wy) <= half


def test_tree_root_residuals_have_no_rounding_floor():
    # Working-precision Horner left (2,7) residuals up to 4.7e-10.
    rs = tree_chromatic_roots(2, 7)
    assert rs.converged and max(rs.residuals) <= 1e-12


def test_collided_starts_are_separated():
    # (q-2)(q-3)(q+1) with two starts on the root 2: Newton polishes both
    # to it, and only a nudge lets the simultaneous iteration find 3.
    coeffs = [6, 1, -4, 1]
    rs = solve_complex_coeffs(coeffs, tol=1e-12, starts=[2.1, 2.1, -0.9])
    assert rs.converged
    assert [round(z.real, 9) for z in rs.roots] == [-1, 2, 3]
    assert max(abs(z.imag) for z in rs.roots) < 1e-9


def test_collision_that_persists_is_not_converged(monkeypatch):
    monkeypatch.setattr(rootfind, "aberth_sweeps", lambda ratio, z, step_tol: (z, False))
    monkeypatch.setattr(rootfind, "_NUDGE", 0.0)
    rs = solve_complex_coeffs([6, 1, -4, 1], tol=1e-12, starts=[2.1, 2.1, -0.9])
    assert max(rs.residuals) <= 1e-12 and not rs.converged


def _count_sweeps(monkeypatch) -> list[list]:
    """Record (dtype, sweeps) of every aberth_sweeps call; a sweep is one ratio call."""
    calls = []
    sweeps = rootfind.aberth_sweeps

    def counted(ratio, z, step_tol=1e-14):
        record = [np.asarray(z).dtype.name, 0]
        calls.append(record)

        def counted_ratio(points):
            record[1] += 1
            return ratio(points)

        return sweeps(counted_ratio, z, step_tol=step_tol)

    monkeypatch.setattr(rootfind, "aberth_sweeps", counted)
    return calls


def test_double_sweeps_stop_at_their_rounding_floor(monkeypatch):
    # q(q-1) times a degree-7 factor: the double corrections reach about
    # 1e-14 and then bounce just above step_tol, which used to run 400 sweeps.
    calls = _count_sweeps(monkeypatch)
    rs = find_roots(BigPoly([0, 30, -135, 280, -350, 286, -155, 54, -11, 1]))
    assert rs.converged and calls
    assert all(sweeps < 50 for _, sweeps in calls)


def test_horner_started_sweeps_continue_on_exact_values(monkeypatch):
    # Horner starts do not resolve the degree-32 (2,5) polynomial: the double
    # sweeps stop unconverged, and the same loop continues from their points
    # on exact values of g/g', still in complex128, and soon stops.
    calls = _count_sweeps(monkeypatch)
    rs = find_roots(chromatic_leaf_tree(2, 5), tol=1e-10)
    assert [dtype for dtype, _ in calls] == ["complex128", "complex128"]
    assert calls[1][1] <= 20
    ref = tree_chromatic_roots(2, 5, tol=1e-10)
    assert rs.roots == ref.roots and rs.multiplicities == ref.multiplicities


def test_unconverged_double_sweeps_are_followed_by_exact_sweeps(monkeypatch):
    # The double call's flag is read: Newton sees no point of a call that
    # stopped unconverged before the exact sweeps have moved it.
    events = []
    sweeps, exact_ratio, once = rootfind.aberth_sweeps, rootfind._exact_ratio, rootfind._newton_once

    def logged_sweeps(ratio, z, step_tol=1e-14):
        z, done = sweeps(ratio, z, step_tol=step_tol)
        events.append(("sweeps", done))
        return z, done

    def logged_ratio(exact, z):
        events.append("exact")
        return exact_ratio(exact, z)

    def logged_once(coeffs, z0, dps, tol):
        events.append("newton")
        return once(coeffs, z0, dps, tol)

    monkeypatch.setattr(rootfind, "aberth_sweeps", logged_sweeps)
    monkeypatch.setattr(rootfind, "_exact_ratio", logged_ratio)
    monkeypatch.setattr(rootfind, "_newton_once", logged_once)
    rs = find_roots(chromatic_leaf_tree(2, 5), tol=1e-10)
    assert rs.converged
    assert events[0] == ("sweeps", False) and events[1] == "exact"


def test_linear_factor_starts_at_its_exact_root(monkeypatch):
    # A degree-1 factor starts at -a0/a1, each part rounded once from the
    # integers, and runs no Aberth sweep; Newton still verifies it exactly.
    calls = _count_sweeps(monkeypatch)
    rs = find_roots(BigPoly([-25, 7]))
    assert calls == []
    assert rs.roots == [complex(25 / 7)] and rs.converged
    x = Fraction(rs.roots[0].real)
    assert rs.residuals == [float(abs(x - Fraction(25, 7)) / (1 + abs(x)))]


def test_repeated_integer_root_has_zero_residual():
    # -(q-7)^2 (5q+9): the factor q - 7 starts at 7 itself, where g vanishes.
    rs = find_roots(-(Q - 7) ** 2 * (5 * Q + 9))
    assert rs.roots == [complex(-9 / 5), 7 + 0j, 7 + 0j] and rs.converged
    assert rs.multiplicities == [1, 2, 2]
    assert rs.residuals[1:] == [0.0, 0.0]


def test_linear_root_beyond_double_range_is_rejected():
    with pytest.raises(RootFindingError):
        find_roots(BigPoly([10 ** 400, 3]))


@pytest.mark.parametrize("coeffs", [[5, -4, 1], [-2, 0, 1], [7, 1, 2 ** 60], [1, -2 ** 1000, 1],
                                    [3 + 1j, 2 - 5j, 1 + 1j]])
def test_quadratic_starts_in_closed_form_and_takes_one_sweep(monkeypatch, coeffs):
    # A quadratic's companion eigenvalues come from the quadratic formula,
    # so LAPACK is never called, and they are so close to the roots that
    # the double sweeps stop converged after one sweep.
    def refuse(matrix):
        raise AssertionError("a quadratic called np.linalg.eigvals")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    calls = _count_sweeps(monkeypatch)
    rs = solve_complex_coeffs(coeffs)
    assert rs.converged and calls == [["complex128", 1]]


def test_companion_starts_take_fewer_double_sweeps_than_hull_circles():
    # The same double sweeps from the retired hull circles and from the
    # companion eigenvalues, on seeded polynomials of degree 2-12.
    counts = [0, 0]

    def counted(ratio, k):
        def f(z):
            counts[k] += 1
            return ratio(z)
        return f

    for cs in _seeded_integer_polys(12)[1:]:
        c = _double_coeffs(cs)
        for k, starts in enumerate((_hull_points(c), rootfind._companion_starts(cs))):
            rootfind.aberth_sweeps(counted(lambda z: rootfind._horner_ratio(c, z), k), starts)
    assert counts[1] < counts[0]


def test_companion_of_coefficients_beyond_the_double_range_is_scaled():
    # The naive companion -c[:-1]/c[-1] overflows on both: q = 2**k u keeps
    # its entries finite, with the end coefficients of one size in the
    # first and the entry 2**1070 below 2**1000 in the second.
    rs = solve_complex_coeffs([2 ** 1060, 0, 0, 1])
    assert rs.converged
    assert all(abs((z / 2.0 ** 353) ** 3 + 2) < 1e-12 for z in rs.roots)     # z^3 = -2**1060
    rs = solve_complex_coeffs([1, 2 ** 1070, 0, 0, 1])
    assert rs.converged and len(rs.roots) == 4
    assert rs.roots[1] == -(2.0 ** -1070)      # the nearest double to the small root


def test_coefficients_whose_roots_leave_the_double_range_are_rejected(monkeypatch):
    calls = _count_sweeps(monkeypatch)
    with pytest.raises(RootFindingError):        # the constant term underflows
        solve_complex_coeffs([1, 0, 0, 10 ** 400])
    with pytest.raises(RootFindingError):        # a root near -2**1050 overflows
        solve_complex_coeffs([1, 2 ** 1050, 1])
    assert calls == []                           # rejected before any sweep

    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(RootFindingError):
        solve_complex_coeffs([1, 2, 3, 4])


def test_equal_companion_eigenvalues_are_nudged_apart():
    # Next to the root 2**200 the companion's eigenvalues for -5, 2 and 3
    # all come out 0.  Equal starts would stay equal under Aberth, so all
    # but one are nudged apart first.
    cs = list(((Q - 2) * (Q - 3) * (Q + 5) * (Q - 2 ** 200)).coeffs)
    starts = rootfind._companion_starts(cs)
    assert len(set(starts.tolist())) == 4 and 0 in starts.tolist()
    rs = solve_complex_coeffs(cs)
    assert rs.converged and rs.roots == [-5 + 0j, 2 + 0j, 3 + 0j, complex(2 ** 200)]


def test_start_on_a_critical_point_is_nudged_before_the_exact_rerun():
    # g' = 0 at the start 0 of q^2 - 4: Aberth's correction there is 0 and
    # Newton stops at once with eta inf, so only a nudge moves the point.
    rs = solve_complex_coeffs([-4, 0, 1], starts=[0, 3 + 1j])
    assert rs.converged and rs.roots == [-2 + 0j, 2 + 0j]


def _mpmath_scaled(coeffs):
    """The scaling that _float_parts replaced: 30-digit mpc values."""
    with mp.workdps(30):
        top = max(abs(mp.mpc(c)) for c in coeffs)
        shift = mp.power(2, int(mp.log(top, 2))) if top > 0 else mp.mpf(1)
        return np.array([complex(mp.mpc(c) / shift) for c in coeffs], dtype=np.complex128)


@pytest.mark.parametrize("kind", ["int", "complex", "mpf"])
def test_scaled_float_coeffs_match_the_mpmath_formula(kind):
    # Coefficients of at most 103 bits whose scaled values stay normal: one
    # rounding from the integers gives the old formula's bits exactly.
    rng = random.Random(kind)

    def coeff():
        if kind == "int":
            return rng.randint(-2 ** rng.randint(1, 100), 2 ** 100)
        if kind == "complex":
            return complex(rng.uniform(-1, 1) * 10 ** rng.randint(-20, 20),
                           rng.uniform(-1, 1) * 10 ** rng.randint(-20, 20))
        with mp.workdps(30):
            return mp.mpf(rng.uniform(-1, 1)) ** 3 * mp.mpf(10) ** rng.randint(-20, 20)

    for _ in range(50):
        cs = [coeff() for _ in range(rng.randint(1, 12))] + [coeff() or 1]
        got, want = rootfind._float_parts(*rootfind._gaussian(cs)), _mpmath_scaled(cs)
        got, want = got / np.max(np.abs(got)), want / np.max(np.abs(want))
        assert got.tobytes() == want.tobytes(), cs
    with pytest.raises(RootFindingError):
        rootfind._float_parts(*rootfind._gaussian([Fraction(1, 3), 1]))


@pytest.mark.parametrize("arithmetic", [complex, mp.mpc])
def test_equal_start_points_stay_finite(arithmetic):
    # Coincident points add no repulsion to each other, so two equal starts
    # on (q-2)(q-3)(q+1) neither raise nor leave the finite plane.
    coeffs = [6, 1, -4, 1]
    starts = np.array([arithmetic(2.1), arithmetic(2.1), arithmetic(-0.9)])
    z, _ = rootfind.aberth_sweeps(lambda p: rootfind._horner_ratio(coeffs, p), starts)
    assert all(isinstance(x, arithmetic) and math.isfinite(abs(complex(x))) for x in z)


def _hull_points(coeffs: np.ndarray) -> np.ndarray:
    """The retired start rule of the double sweeps, kept so that tests which
    compare Aberth trajectories keep their start points: perturbed circles
    whose radii come from the upper convex hull of (k, log|a_k|)."""
    d = len(coeffs) - 1
    logs = np.full(d + 1, -np.inf)
    nz = np.abs(coeffs) > 0
    logs[nz] = np.log(np.abs(coeffs[nz]))
    logs = logs.tolist()
    hull: list[int] = []
    for k in range(d + 1):
        if not math.isfinite(logs[k]):
            continue
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (logs[j] - logs[i]) * (k - j) <= (logs[k] - logs[j]) * (j - i):
                hull.pop()
            else:
                break
        hull.append(k)
    points = np.empty(d, dtype=np.complex128)
    pos = 0
    for a, b in zip(hull, hull[1:]):
        n_seg = b - a
        radius = math.exp((logs[a] - logs[b]) / n_seg)
        offset = 0.376 + 0.5 * pos / max(d, 1)
        ang = 2.0 * np.pi * (np.arange(n_seg) + offset) / n_seg
        points[pos:pos + n_seg] = radius * np.exp(1j * ang)
        pos += n_seg
    assert pos == d
    return points


def _reference_horner_ratio(coeffs, z):
    """_horner_ratio as it was written with nested np.where, kept to pin bits."""
    p, dp = rootfind._horner(coeffs, z)
    return np.where(dp != 0, p / np.where(dp != 0, dp, 1.0), 0.0)


def _reference_aberth_sweeps(ratio, z, step_tol=1e-14):
    """aberth_sweeps as it was written with nested np.where, kept to pin bits."""
    z = np.asarray(z)
    last = np.inf
    for _sweep in range(rootfind.MAX_SWEEPS):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = ratio(z)
            diff = z[:, None] - z[None, :]
            apart = diff != 0
            repulse = np.where(apart, 1 / np.where(apart, diff, 1), 0).sum(axis=1)
            den = 1 - w * repulse
            corr = np.where(den != 0, w / np.where(den != 0, den, 1), w)
        corr = np.where(np.abs(corr) < np.inf, corr, 0.2 * z)
        z = z - corr
        if np.all(np.abs(corr) <= step_tol * (1.0 + np.abs(z))):
            return z, True
        size = np.max(np.abs(corr) / (1.0 + np.abs(z)))
        if last <= rootfind._LOCAL and 2 * size > last:
            return z, False
        last = size
    return z, False


def _seeded_integer_polys(top: int) -> list[list[int]]:
    """One integer polynomial of each degree 1..top, nonzero at both ends."""
    rng = random.Random(28)
    return [[rng.choice([-3, -2, -1, 1, 2, 3])] + [rng.randint(-9, 9) for _ in range(d - 1)]
            + [rng.randint(1, 5)] for d in range(1, top + 1)]


def _double_coeffs(cs: list[int]) -> np.ndarray:
    c = rootfind._float_parts(*rootfind._gaussian(cs))
    return c / np.max(np.abs(c))


def _sweep_cases():
    """(coefficients for _horner_ratio or None, exact coefficients or None,
    start points), one case per evaluator and branch of a sweep."""
    param = pytest.param
    cases = []
    for cs in _seeded_integer_polys(12):
        c = _double_coeffs(cs)
        cases.append(param(c, None, _hull_points(c), id=f"degree {len(cs) - 1}"))
    for cs in _seeded_integer_polys(8):
        c = _double_coeffs(cs)
        cases.append(param(None, cs, _hull_points(c), id=f"exact {len(cs) - 1}"))
    cubic, twice = [6, 1, -4, 1], np.array([2.1, 2.1, -0.9], dtype=complex)
    cases.append(param(cubic, None, twice, id="coincident"))
    cases.append(param(None, cubic, twice, id="coincident exact"))
    # p' = 0 at the start 0 of q^2 - 4, so its ratio is the fallback 0.
    cases.append(param([-4, 0, 1], None, np.array([0, 3 + 1j]), id="critical point"))
    cases.append(param(None, [-4, 0, 1], np.array([0, 3 + 1j]), id="critical point exact"))
    # Horner overflows at 1e156 on a quadratic: that point drifts by 0.2 z.
    cases.append(param([2, -3, 1], None, np.array([1e156 + 1e155j, 0.5 - 1j]), id="overflow"))
    with mp.workdps(30):
        ring = _hull_points(_double_coeffs(cubic))

        def mpc_points(points):
            return np.array([mp.mpc(x) for x in points], dtype=object)

        cases.append(param([mp.mpc(c) for c in cubic], None, mpc_points(ring), id="mpc"))
        cases.append(param(cubic, None, mpc_points(twice), id="mpc coincident"))
        cases.append(param([-4, 0, 1], None, mpc_points([0, 3 + 1j]), id="mpc critical point"))
    return cases


@pytest.mark.parametrize("coeffs, exact, starts", _sweep_cases())
def test_aberth_sweeps_match_the_nested_where_loop_bit_for_bit(coeffs, exact, starts):
    # The masked divisions in one errstate give the bits, flag and sweep
    # count of the loop they replaced, on every evaluator and branch.
    if exact is None:
        new, old = (lambda z: rootfind._horner_ratio(coeffs, z),
                    lambda z: _reference_horner_ratio(coeffs, z))
    else:
        parts = rootfind._gaussian(exact)
        new = old = lambda z: rootfind._exact_ratio(parts, z)
    counts = [0, 0]

    def counted(ratio, k):
        def f(z):
            counts[k] += 1
            return ratio(z)
        return f

    with mp.workdps(30):
        got = rootfind.aberth_sweeps(counted(new, 0), starts.copy())
        want = _reference_aberth_sweeps(counted(old, 1), starts.copy())
    assert repr(got) == repr(want)
    assert counts[0] == counts[1]


def test_aberth_sweeps_with_a_zero_denominator_match_the_nested_where_loop():
    # w * repulse = 1 exactly at both points, so every correction is w
    # itself; the points swap each sweep until the cap.
    def ratio(z):
        return z - z[::-1]

    start = np.array([0, 1], dtype=complex)
    got = rootfind.aberth_sweeps(ratio, start)
    assert repr(got) == repr(_reference_aberth_sweeps(ratio, start))
    assert not got[1]


@pytest.mark.parametrize("coeffs, zeros", [([0, 1, 1], 1), ([0, 0, 1, 2], 2), ([0, 1.5, 2.5], 1)])
def test_zero_constant_term_splits_off_exact_zero_roots(coeffs, zeros):
    # q^m splits off exactly, as in find_roots: m roots at 0 with residual 0,
    # and the rest solved as its own polynomial.
    rs = solve_complex_coeffs(coeffs)
    rest = solve_complex_coeffs(coeffs[zeros:])
    assert rs.converged and rs.degree == len(coeffs) - 1
    at_zero = [k for k, z in enumerate(rs.roots) if z == 0]
    assert len(at_zero) == zeros
    assert all(rs.residuals[k] == 0.0 and rs.multiplicities[k] == zeros for k in at_zero)
    others = [k for k in range(len(rs.roots)) if k not in at_zero]
    assert [rs.roots[k] for k in others] == rest.roots
    assert [rs.residuals[k] for k in others] == rest.residuals


def test_zero_constant_term_with_a_constant_rest():
    rs = solve_complex_coeffs([0, 0, 3])
    assert rs.roots == [0j, 0j] and rs.residuals == [0.0, 0.0] and rs.converged
    with pytest.raises(RootFindingError):
        solve_complex_coeffs([0, 0, 3], starts=[1.0])


def test_root_count_always_equals_degree():
    rng = random.Random(14)
    for _ in range(10):
        p = BigPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 12))] + [1])
        rs = find_roots(p, tol=1e-9)
        assert len(rs.roots) == p.degree


def test_coefficient_symmetric_functions():
    rng = random.Random(15)
    for _ in range(8):
        deg = rng.randint(3, 20)
        p = BigPoly([rng.randint(-50, 50) for _ in range(deg)] + [rng.randint(1, 5)])
        if p.coeffs[0] == 0:
            continue
        rs = find_roots(p, tol=1e-10)
        total = sum(rs.roots)
        prod = 1
        for z in rs.roots:
            prod *= z
        want_sum = -p.coeffs[-2] / p.coeffs[-1]
        want_prod = (-1) ** deg * p.coeffs[0] / p.coeffs[-1]
        assert abs(total - want_sum) <= 1e-8 * (1 + abs(want_sum))
        assert abs(prod - want_prod) <= 1e-8 * (1 + abs(want_prod))


def test_conjugate_symmetry_for_real_coefficients():
    rng = random.Random(16)
    p = BigPoly([rng.randint(-9, 9) for _ in range(15)] + [3])
    rs = find_roots(p, tol=1e-10)
    pool = list(rs.roots)
    for z in rs.roots:
        assert min(abs(z.conjugate() - w) for w in pool) < 1e-7


def test_residuals_reevaluated_in_extended_precision():
    p = chromatic_poly(cycle_graph(6))
    rs = find_roots(p, tol=1e-12)
    _, res = newton_residuals(list(p.coeffs), rs.roots, dps=50, tol=1e-12)
    assert max(res) <= 1e-12


def test_wilkinson_style_separation():
    p = BigPoly((1,))
    for k in range(1, 16):
        p = p * (Q - k)
    rs = find_roots(p, tol=1e-8)
    assert sorted(round(z.real) for z in rs.roots) == list(range(1, 16))
    assert rs.converged


def test_complex_coefficients():
    # (q - (1+2i)) (q - 3) given by its expanded complex coefficients
    r1, r2 = 1 + 2j, 3 + 0j
    coeffs = [r1 * r2, -(r1 + r2), 1]
    rs = solve_complex_coeffs(coeffs, tol=1e-12)
    got = sorted(rs.roots, key=lambda z: z.real)
    assert abs(got[0] - r1) < 1e-10
    assert abs(got[1] - r2) < 1e-10


def test_high_cancellation_polynomial_is_recovered():
    # Roots on a circle make the monomial basis ill-conditioned; the
    # escalation ladder must still nail every root.
    n = 24
    p = (Q - 1) ** n - BigPoly.const(2 ** n)   # roots: 1 + 2 exp(2 pi i k/n)
    rs = find_roots(p, tol=1e-10)
    assert rs.converged
    for z in rs.roots:
        assert abs(abs(z - 1) - 2.0) < 1e-8


def test_rejects_degenerate_inputs():
    # Zero, constant, and non-integer coefficients.
    for coeffs in [(), (5,), (Fraction(1, 2), 1), (Fraction(-1, 4), 0, 1),
                   (Fraction(1, 3), Fraction(-4, 3), 1)]:
        with pytest.raises(RootFindingError):
            find_roots(BigPoly(coeffs))
    with pytest.raises(RootFindingError, match="one point per root"):
        find_roots(BigPoly((-2, 0, 1)), starts=[1.0])


def test_accepts_integral_fraction_coefficients():
    rs = find_roots(BigPoly((Fraction(-4, 2), 0, Fraction(1))))
    assert rs.converged and rs.multiplicities == [1, 1]
    assert sorted(z.real for z in rs.roots) == pytest.approx([-math.sqrt(2), math.sqrt(2)])


def test_deterministic_output():
    p = chromatic_poly(cycle_graph(5))
    a = find_roots(p, tol=1e-10)
    b = find_roots(p, tol=1e-10)
    assert a.roots == b.roots
    assert a.residuals == b.residuals


def _random_expression(rng: random.Random, leaves: int, w_share: float) -> str:
    """A random binary SP expression with `leaves` leaves, each W with odds w_share."""
    if leaves == 1:
        return "W" if rng.random() < w_share else "e"
    cut = rng.randint(1, leaves - 1)
    return "%s(%s,%s)" % (rng.choice("SP"), _random_expression(rng, cut, w_share),
                          _random_expression(rng, leaves - cut, w_share))


def _pinned_root_sets() -> list[rootfind.RootSet]:
    """find_roots at tol 1e-8 on e-only and W expressions of 2-12 leaves and
    on leaf-joined trees up to (2,6) and (3,4)."""
    rng = random.Random(26)
    polys = [chromatic_poly(parse_sp(_random_expression(rng, leaves, w_share))[1])
             for leaves in range(2, 13) for w_share in (0.0, 0.0, 0.4, 0.4)]
    polys += [chromatic_leaf_tree(r, n) for r, top in ((2, 6), (3, 4)) for n in range(2, top + 1)]
    return [find_roots(p, tol=1e-8) for p in polys]


def test_find_roots_bits_are_pinned():
    # Roots, residuals, multiplicities and flags, hashed by repr: a change in
    # how Newton rounds its iterates or forms eta, or in where it starts,
    # moves this digest.
    digest = hashlib.sha256()
    for rs in _pinned_root_sets():
        digest.update(repr((rs.roots, rs.residuals, rs.multiplicities, rs.converged)).encode())
    assert digest.hexdigest() == "c6492cd3db463897db264082726f1442b488b439f906ce44f68ee9f5ed47f735"


def test_find_roots_roots_and_multiplicities_are_pinned():
    # The same inputs without the residuals, recorded before the double
    # sweeps moved from hull circles to companion eigenvalues: other start
    # points may move a residual's bits, never a root's.
    digest = hashlib.sha256()
    for rs in _pinned_root_sets():
        digest.update(repr((rs.roots, rs.multiplicities, rs.converged)).encode())
    assert digest.hexdigest() == "5bf604714546ac1b95f5b0a67b150026c8d7cc8c6e0c43abc86bed0702634327"


def _pinned_solve_outcomes() -> list[str]:
    """repr of each solve_complex_coeffs result, or of each error's message:
    integer, complex-float, dyadic Fraction and mpc input, q^m splits,
    supplied starts, and every refusal."""
    lam = cmath.exp(0.6j * math.pi)
    c = 4.0 / lam                        # a period-2 locus cubic (leaftree)
    cases = [
        ([6, 1, -4, 1], None), (list(range(1, 11)), None),
        ([-8 * c - 1, 12 * c + 2, -6 * c - 1, c], None),
        ([Fraction(3, 8), Fraction(-5, 4), Fraction(1, 2), 1], None),
        (_cleared(*t_eff_exact(2, 5)), None),
        ([0, 0, 1, 2], None), ([0, 1, 1], None), ([0, 1.5, 2.5], None), ([0, 0, 3], None),
        ([6, 1, -4, 1], [2.1, 2.1, -0.9]), ([-4, 0, 1], [0, 3 + 1j]),
        ([5], None), ([Fraction(1, 3), 1], None),
        ([6, 1, -4, 1], [1.0]), ([0, 0, 3], [1.0]), ([0, 6, 1, -4, 1], [1.0]),
    ]
    out = []
    for coeffs, starts in cases:
        try:
            rs = solve_complex_coeffs(coeffs, tol=1e-10, starts=starts)
        except RootFindingError as exc:
            out.append(repr(str(exc)))
        else:
            out.append(repr((rs.roots, rs.residuals, rs.multiplicities, rs.degree, rs.converged)))
    return out


def test_solve_complex_coeffs_outputs_are_pinned():
    # Roots, residuals, multiplicities, degree and flag, or the message of
    # the error raised, hashed by repr: the q^m split, the starts checks and
    # the assembly of every RootSet must not move a bit.
    digest = hashlib.sha256()
    for line in _pinned_solve_outcomes():
        digest.update(line.encode())
    assert digest.hexdigest() == "d3a20016204d1a19e43fe4be363f4ca4b09746c491b7c0aff691b1440548137f"
