import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from tuttebound.poly import BigPoly, BiPoly

Q = BigPoly.variable()


def test_construction_strips_trailing_zeros():
    assert BigPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert BigPoly(()).degree == -1
    assert not BigPoly((0, 0))


def test_arithmetic_against_evaluation():
    rng = random.Random(2)
    for _ in range(30):
        a = BigPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        b = BigPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert (a + b)(x) == a(x) + b(x)
        assert (a - b)(x) == a(x) - b(x)
        assert (a * b)(x) == a(x) * b(x)
        assert (a ** 3)(x) == a(x) ** 3


def test_scalar_mixing():
    p = 2 * Q + 1 - Q * Q
    assert p.coeffs == (1, 2, -1)
    assert (3 - Q).coeffs == (3, -1)


def test_evaluation_generic_types():
    p = (Q - 1) ** 4 + (Q - 1)
    assert p(3) == 18
    assert abs(p(1.5 + 0.5j) - ((0.5 + 0.5j) ** 4 + 0.5 + 0.5j)) < 1e-12
    with mp.workdps(30):
        assert mp.almosteq(p(mp.mpf(3)), 18)


def test_derivative():
    p = 5 * Q ** 3 - 2 * Q + 7
    assert p.derivative().coeffs == (-2, 0, 15)


def test_divmod_and_exact_division():
    p = (Q - 2) * (Q - 3) * (Q + 1)
    quot, rem = p.divmod(Q - 3)
    assert not rem
    assert quot.to_int() == (Q - 2) * (Q + 1)
    assert p.exact_div(Q - 2) == (Q - 3) * (Q + 1)
    with pytest.raises(ValueError):
        p.exact_div(Q - 5)


def _random_poly(rng, degree, coeff):
    return BigPoly([coeff() for _ in range(degree)] + [coeff() or 1])


@pytest.mark.parametrize("kind", ["primitive", "non-primitive", "fraction"])
def test_exact_division_agrees_with_divmod(kind):
    # exact_div is integer long division; its quotients equal divmod's over
    # the rationals, ints where integral and normalised Fractions otherwise.
    rng = random.Random(kind)
    ints = lambda: rng.randint(-30, 30)  # noqa: E731
    fracs = lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12))  # noqa: E731
    types = set()
    for _ in range(60):
        coeff = fracs if kind == "fraction" else ints
        b = _random_poly(rng, rng.randint(0, 4), coeff)
        if kind != "fraction":
            b = b.primitive()
        p = b * _random_poly(rng, rng.randint(0, 5), coeff)
        if kind == "non-primitive":
            b = b * rng.randint(2, 9)
        got = p.exact_div(b)
        quot, rem = p.divmod(b)
        assert not rem and got == quot
        for c in got.coeffs:
            assert type(c) is (Fraction if Fraction(c).denominator > 1 else int), c
            types.add(type(c))
    assert types == ({int} if kind == "primitive" else {int, Fraction})


def test_exact_division_rejects_a_remainder():
    rng = random.Random(3)
    for _ in range(40):
        b = _random_poly(rng, rng.randint(1, 4), lambda: rng.randint(-9, 9))
        p = b * _random_poly(rng, rng.randint(0, 4), lambda: rng.randint(-9, 9))
        extra = _random_poly(rng, rng.randint(0, b.degree - 1), lambda: rng.randint(-9, 9))
        with pytest.raises(ValueError, match="division is not exact"):
            (p + extra).exact_div(b)
    with pytest.raises(ValueError, match="division is not exact"):
        (Q + 1).exact_div(Q * Q)


def test_divmod_remainder():
    _, rem = ((Q - 2) * (Q - 2)).divmod(Q - 1)
    assert rem.coeffs == (1,)


def test_gcd_examples():
    a = (Q - 2) ** 2 * (Q - 3)
    b = (Q - 2) * (Q - 5)
    assert BigPoly.gcd(a, b) == Q - 2
    assert BigPoly.gcd(a, (Q + 7)).degree == 0
    # sign and content normalization
    assert BigPoly.gcd(-2 * (Q - 2), 4 * (Q - 2) * Q) == Q - 2


def test_gcd_random_products():
    rng = random.Random(6)
    for _ in range(20):
        g = BigPoly([rng.randint(-3, 3) for _ in range(3)] + [1])
        a = g * BigPoly([rng.randint(-3, 3), 1])
        b = g * BigPoly([rng.randint(-3, 3), rng.randint(1, 3)])
        got = BigPoly.gcd(a, b)
        assert got.divmod(g)[1] == BigPoly() or g.divmod(got)[1] == BigPoly()


def _fraction_euclid_gcd(a, b):
    """Reference: Euclid over the rationals, then the primitive part."""
    a = BigPoly(tuple(Fraction(c) for c in a.coeffs))
    b = BigPoly(tuple(Fraction(c) for c in b.coeffs))
    while b:
        a, b = b, a.divmod(b)[1]
    if not a:
        return BigPoly()
    den = 1
    for c in a.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return BigPoly(tuple(int(c * den) for c in a.coeffs)).primitive()


def test_gcd_matches_fraction_euclid():
    rng = random.Random(21)
    for _ in range(60):
        def rand_poly(lo, hi):
            return BigPoly([rng.randint(-6, 6) for _ in range(rng.randint(lo, hi))]
                           + [rng.choice([-3, -2, -1, 1, 2, 5])])
        g = rand_poly(0, 3) ** rng.randint(1, 3)
        a = g * rand_poly(0, 5) * rng.choice([1, -2, 3])
        b = g * rand_poly(0, 5)
        if rng.random() < 0.3:
            b = a.derivative()
        assert BigPoly.gcd(a, b) == _fraction_euclid_gcd(a, b)
        assert BigPoly.gcd(b, a) == _fraction_euclid_gcd(a, b)
    assert BigPoly.gcd(BigPoly(), BigPoly()) == BigPoly()
    assert BigPoly.gcd(BigPoly(), -6 * (Q - 2)) == Q - 2


def test_primitive_and_content():
    p = BigPoly((-6, -9, -12))
    assert p.content() == 3
    assert p.primitive().coeffs == (2, 3, 4)


def test_pretty():
    assert ((Q - 1) ** 2).pretty() == "q^2 - 2*q + 1"
    assert BigPoly().pretty() == "0"
    assert (Q * Q).pretty("x") == "x^2"


def test_bipoly_arithmetic_and_substitution():
    q, w = BiPoly.q(), BiPoly.w()
    z = (q + w) ** 2
    assert z.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert z(2, 3) == 25
    assert z.subs_w(-1) == (Q - 1) ** 2
    assert z.degrees() == (2, 2)
    assert ((q - q)).terms == {}
    assert (1 + w) ** 3 - 1 == 3 * w + 3 * w * w + w * w * w


def test_bipoly_matches_bigpoly_specialization():
    rng = random.Random(12)
    q, w = BiPoly.q(), BiPoly.w()
    p = (q + w) * (q - 2 * w) + 3
    for _ in range(10):
        qs = Fraction(rng.randint(-3, 3))
        ws = Fraction(rng.randint(-3, 3))
        assert p(qs, ws) == p.subs_w(ws)(qs)


@pytest.mark.parametrize("x, one", [
    (BigPoly((2, -1, 3)), BigPoly.const(1)),
    (BiPoly.q() - 2 * BiPoly.w() + 1, BiPoly.const(1)),
], ids=["BigPoly", "BiPoly"])
def test_power_is_the_repeated_product(x, one):
    product = one
    for n in range(6):
        assert x ** n == product, n
        product = product * x
    with pytest.raises(ValueError):
        x ** -1


def _at_power_of_two(coeffs, width: int) -> int:
    return sum(c << (width * i) for i, c in enumerate(coeffs))


def test_balanced_digits_hand_cases():
    read = BigPoly.from_balanced_digits
    assert read(0, 8) == BigPoly() and read(0, 64).coeffs == ()
    # A negative leading digit under non-negative lower ones, and the reverse.
    assert read(-3 * 256 * 256 + 5 * 256 + 7, 8).coeffs == (7, 5, -3)
    assert read(3 * 256 * 256 - 5 * 256 - 7, 8).coeffs == (-7, -5, 3)
    assert read(-1, 16).coeffs == (-1,)
    # The last case, (-2^(width-1), -2^(width-1), 1), has three digits in a
    # value of bit length 2 width - 1.
    for width in (8, 16, 192):
        top = (1 << (width - 1)) - 1        # the largest |digit| a coefficient bound admits
        for coeffs in ((top,), (-top,), (top, -top, top), (-top, top, -top), (0, 0, top),
                       (-top - 1, 1), (top, -top - 1), (-top - 1, -top - 1, 1)):
            assert read(_at_power_of_two(coeffs, width), width).coeffs == coeffs, (width, coeffs)
    # 2^(width-1) is one past the top digit: it reads as 2^width - 2^(width-1).
    assert read(128, 8).coeffs == (-128, 1)
    for width in (0, -8, 12):
        with pytest.raises(ValueError):
            read(5, width)


def test_balanced_digits_invert_evaluation_at_a_power_of_two():
    rng = random.Random(32)
    for _ in range(300):
        width = 8 * rng.randint(1, 6)
        half = 1 << (width - 1)
        p = BigPoly([rng.choice((-half, half - 1, 0, 1, -1, rng.randint(-half, half - 1)))
                     for _ in range(rng.randint(0, 9))])
        value = p(1 << width)
        assert value == _at_power_of_two(p.coeffs, width)
        assert BigPoly.from_balanced_digits(value, width) == p
