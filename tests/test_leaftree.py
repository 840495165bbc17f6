import cmath
import hashlib
import math
import random

import mpmath as mp
import numpy as np
import pytest

from tuttebound.engine import chromatic_poly, tree_ab
from tuttebound.graphs import GraphError
from tuttebound.leaftree import (_newton_ratio, _pair_step, _scaled_pair, cardioid_cusp,
                                 chromatic_leaf_tree, conjecture_scan, leaf_tree_ab,
                                 multiplier_loci, t_eff_at, t_eff_exact,
                                 tree_chromatic_roots)
from tuttebound.oracles import tutte_brute
from tuttebound.poly import BigPoly, BiPoly
from tuttebound.rootfind import find_roots
from tuttebound.sp import (gen_gadget_cycle, gen_leaf_joined_tree, leaf_joined_tree_ast,
                           leaf_joined_vertex_count)

Q = BigPoly.variable()


def _pair(r: int, n: int, symbolic_weight: bool = False) -> tuple:
    """(A_n, B_n) of the depth-n tree: leaf_tree_ab's at w = -1, or over BiPoly in (q, w).

    The bivariate pair is the engine's pair route on the same realized tree.
    """
    if not symbolic_weight:
        state = leaf_tree_ab(r, n)
        return state.a, state.b
    pairs = tree_ab(gen_leaf_joined_tree(r, n)[1], BiPoly.q(), weights=BiPoly.w())
    one = BiPoly.const(1)   # at n = 1 no series rule brings in q, so A is a plain int
    return one * pairs.a, one * pairs.b


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
            tt, _ = gen_leaf_joined_tree(r, n)
            a, b = _pair(r, n, True)
            qb = BiPoly.q()
            assert qb * qb * a + qb * b == tutte_brute(tt.graph, qb, BiPoly.w())
    # leaf_tree_ab is tree_ab on the same realized tree, so the univariate
    # checks above hold by construction.  The pair recursion from A_1 = 1 and
    # B_1 = (1 + w)^r - 1, in closed-form powers instead of binary joins, is
    # an independent route to each (A_n, B_n).
    w = BiPoly.w()
    for one, qw, one_w, runs in ((BigPoly.const(1), Q - 1, 0, ((2, 5), (3, 4), (4, 3))),
                                 (BiPoly.const(1), BiPoly.q() + w, 1 + w, ((2, 5), (3, 4)))):
        for r, n_max in runs:
            a, b = one, one * one_w ** r - one
            for n in range(1, n_max + 1):
                if n > 1:
                    a, b = _pair_step(a, b, qw, one_w, r)
                assert _pair(r, n, isinstance(one, BiPoly)) == (a, b), (r, n, one_w)


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


def _pair_digest(a, b) -> str:
    def text(p) -> str:
        if isinstance(p, BiPoly):
            return ",".join(f"{i}:{j}:{c}" for (i, j), c in sorted(p.terms.items()))
        return ",".join(str(c) for c in p.coeffs)
    return hashlib.sha256(f"{text(a)}|{text(b)}".encode()).hexdigest()[:16]


def test_pair_coefficients_match_recorded_digests():
    for key, want in PAIR_DIGESTS.items():
        symbolic = key.startswith("w")
        r, n = map(int, key.lstrip("w").split(","))
        assert _pair_digest(*_pair(r, n, symbolic)) == want, key


# SHA-256 of each polynomial's comma-joined coefficients, recorded from the
# BigPoly ring route: sizes past every benchmark input, where the largest
# coefficients reach hundreds of digits.
LARGE_POLY_DIGESTS = {
    "leaf tree 2,10": "625ad618333d75a9de602d53b85455e7e61161586f16d8af22ac5daabc8dc792",
    "leaf tree 3,6": "2da11fa5cbcb4a492f3bae83ff7750c36fa075d03c2045a447f0eda4e6993da8",
    "leaf tree 4,5": "1ef15ff9b7650fade6dec938d2a47cb2988b64ecd4825d5f9af98393fc2631f7",
    "218-vertex cycle": "248df6df1835784dae82a743026765cbbeed7c431a8965b266131acdb39437e6",
}


def test_large_exact_polynomials_are_pinned():
    polys = {f"leaf tree {r},{n}": chromatic_leaf_tree(r, n) for r, n in ((2, 10), (3, 6), (4, 5))}
    polys["218-vertex cycle"] = chromatic_poly(gen_gadget_cycle(leaf_joined_tree_ast(2, 5), 7)[1])
    assert polys["218-vertex cycle"].degree == 218
    for key, want in LARGE_POLY_DIGESTS.items():
        text = ",".join(str(c) for c in polys[key].coeffs)
        assert hashlib.sha256(text.encode()).hexdigest() == want, key


def test_degree_equals_vertex_count():
    for r, n in ((2, 3), (2, 6), (3, 2), (3, 4), (4, 2)):
        assert chromatic_leaf_tree(r, n).degree == leaf_joined_vertex_count(r, n)


def test_bivariate_specializes_to_chromatic():
    a, b = _pair(2, 3, True)
    qb = BiPoly.q()
    assert (qb * qb * a + qb * b).subs_w(-1) == chromatic_leaf_tree(2, 3)


def test_size_guard():
    with pytest.raises(GraphError):
        leaf_tree_ab(2, 17)


def test_iteration_orbit():
    q = 3.7 + 0.4j
    assert abs(t_eff_at(q, 2, 1) - 1 / (1 - q)) < 1e-15
    y2 = ((q - 1) / (q - 2)) ** 2              # the effective weight y = 1 + B/A
    assert abs(t_eff_at(q, 2, 2) - (y2 - 1) / (q + y2 - 1)) < 1e-14
    # At q = 2 the orbit runs through A = 0 (y = inf) and back, exactly.
    assert t_eff_at(2, 2, 2) == 1
    assert t_eff_at(2, 2, 3) == -1


def test_t_eff_at_keeps_the_shape():
    q = 1 + 2 * np.exp(1j * np.linspace(0.1, 3.0, 6)).reshape(2, 3)
    t = t_eff_at(q, 2, 4)
    assert t.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert abs(t[i, j] - t_eff_at(q[i, j], 2, 4)) <= 1e-14 * abs(t[i, j])
    assert isinstance(t_eff_at(2.5, 2, 4), complex)


def test_attraction_outside_radius_r_circle():
    # |q-1| = 3 > r = 2: y -> 1 with multiplier 2/3, so t -> 0.
    assert abs(t_eff_at(4.0, 2, 80)) < 1e-10


def test_iteration_rejects_zero_and_one():
    for q in (0, 1, np.array([2.5, 1.0])):
        with pytest.raises(GraphError):
            t_eff_at(q, 2, 3)
    # The step overflows doubles once |q - 1|^r does: refused, not a pole.
    assert abs(t_eff_at(1e150, 2, 4)) < 1e-100
    for q, r in ((1e200, 2), (1e20, 16)):
        with pytest.raises(GraphError, match="overflows"):
            t_eff_at(np.array([3.0, q]), r, 3)
    for r, n in ((1, 3), (2, 0)):
        with pytest.raises(GraphError):
            t_eff_at(2.5, r, n)


def test_exact_and_iterated_values_agree():
    # The pair step in doubles against exact B/(qA + B) at 60 + 2 deg digits.
    rng = random.Random(61)
    combos = ([(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
              + [(4, n) for n in range(1, 5)])
    checked = 0
    for r, n in combos:
        st = leaf_tree_ab(r, n)
        qs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(5)]
        qs = [q for q in qs if abs(q) >= 0.2 and abs(q - 1) >= 0.2]
        got = t_eff_at(np.array(qs), r, n)
        with mp.workdps(60 + 2 * st.a.degree):
            for q, t in zip(qs, got):
                zq = mp.mpc(q)
                bv = st.b(zq)
                want = complex(bv / (zq * st.a(zq) + bv))
                assert abs(t - want) <= 1e-12 * abs(want), (r, n, q)
                checked += 1
    assert checked >= 45


def test_zero_test_matches_roots():
    # The roots of P other than 0 and 1 are the poles of t.
    for n in range(1, 7):
        rs = tree_chromatic_roots(2, n, tol=1e-10)
        roots = np.array([z for z in rs.roots if abs(z) > 1e-9 and abs(z - 1) > 1e-9])
        t = t_eff_at(roots, 2, n)
        assert np.all(~np.isfinite(t) | (np.abs(t) > 1e6))
    # points that are not roots are not poles
    rng = random.Random(3)
    p = chromatic_leaf_tree(2, 4)
    for _ in range(25):
        q = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(q) < 0.3 or abs(q - 1) < 0.3:
            continue
        if abs(p(q)) > 1e-3:
            assert abs(t_eff_at(q, 2, 4)) <= 1e6


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


def test_transmissivity_exact_depth_one():
    num, den = t_eff_exact(2, 1)
    assert num == BigPoly((-1,))
    assert den == Q - 1


def test_transmissivity_exact_matches_iteration():
    # The expanded polynomials need working precision near their zeros;
    # the pair step stays accurate in doubles.
    rng = random.Random(81)
    for r, n in ((2, 3), (2, 5), (3, 2)):
        num, den = t_eff_exact(r, n)
        with mp.workdps(40 + 2 * den.degree):
            for _ in range(8):
                q = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if abs(q) < 0.3 or abs(q - 1) < 0.3:
                    continue
                want = complex(num(mp.mpc(q)) / den(mp.mpc(q)))
                assert abs(t_eff_at(q, r, n) - want) <= 1e-12 * abs(want)


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
    # Each input is F/F' with F = num - omega*den: P itself (den = 0), and the
    # cleared F = B - omega(qA + B) at (2, 5), formed on the jets as
    # regions.cycle_counterexample forms it for its ring starts.
    points = np.array([1 + rad * np.exp(2j * np.pi * (k + 0.29) / 8)
                       for rad in (0.5, 2.5, 4.0) for k in range(8)])
    inputs = [((r, n), _newton_ratio(points, r, n), chromatic_leaf_tree(r, n), BigPoly())
              for r, n in ((2, 8), (3, 5), (4, 4))]
    qj, a, b = _scaled_pair(points, 2, 5)
    f = b - cmath.exp(2j * math.pi / 3) * (qj * a + b)
    inputs.append(("cleared (2, 5)", f.v / f.d, *t_eff_exact(2, 5)))
    with mp.workdps(400):
        omega = mp.expjpi(mp.mpf(2) / 3)
        for label, got, num, den in inputs:
            dnum, dden = num.derivative(), den.derivative()
            for z, ratio in zip(points, got):
                q = mp.mpc(z)
                want = complex((num(q) - omega * den(q)) / (dnum(q) - omega * dden(q)))
                assert abs(ratio - want) <= 1e-9 * abs(want), (label, z)


class _ReferenceJet:
    """leaftree._Jet as it was written, subtracting by adding (-1) * other,
    kept to pin the bits of the lighter jets."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, other):
        if isinstance(other, _ReferenceJet):
            return _ReferenceJet(self.v + other.v, self.d + other.d)
        return _ReferenceJet(self.v + other, self.d)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, _ReferenceJet):
            return _ReferenceJet(self.v * other.v, self.d * other.v + self.v * other.d)
        return _ReferenceJet(self.v * other, self.d * other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _ReferenceJet(self.v ** k, k * self.v ** (k - 1) * self.d)


def _reference_scaled_pair(q, r: int, n: int):
    """leaftree._scaled_pair as it was written: q - 1 formed at every level,
    and the term (1 + w) B kept at w = -1."""
    q = np.asarray(q, dtype=np.complex128)
    one = _ReferenceJet(np.ones_like(q), np.zeros_like(q))
    qj = _ReferenceJet(q, np.ones_like(q))
    a, b = one, -1 * one
    for _ in range(n - 1):
        y = (qj - 1) * a
        a_next = (y + b) ** r
        a, b = a_next, (y + 0 * b) ** r - a_next
        scale = np.maximum(np.abs(a.v), np.abs(b.v))
        scale = 1.0 / np.where(scale == 0, 1.0, scale)
        a, b = a * scale, b * scale
    return qj, a, b


def test_scaled_pair_matches_the_reference_jets():
    # Equal under == wherever the reference is finite: only the sign of an
    # exactly-zero imaginary part may differ, as it does at real q for r = 3.
    # Where the reference overflows, the lighter jets overflow too.
    ring = [1 + rad * cmath.exp(2j * math.pi * (k + 0.37) / 16)
            for rad in (0.5, 2.0, 3.0) for k in range(16)]
    real = [-3.0, -0.5, 0.25, 0.5, 1.5, 2.0, 3.7, 10.0]
    huge = [1e100, -1e150j, 1e200 * (1 + 1j), -1e300]
    points = np.array(ring + real + huge, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in (2, 3, 4):
            for n in range(1, 10):
                got, want = _scaled_pair(points, r, n), _reference_scaled_pair(points, r, n)
                for new, old in zip(got, want):
                    for x, y in ((new.v, old.v), (new.d, old.d)):
                        finite = np.isfinite(y)
                        assert (x[finite] == y[finite]).all(), (r, n)
                        assert not np.isfinite(x[~finite]).any(), (r, n)
