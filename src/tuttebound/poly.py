"""Dense exact polynomials with arbitrary-precision coefficients.

BigPoly is univariate with int (or Fraction) coefficients stored ascending;
BiPoly is a small companion for polynomials in two variables, used when a
single uniform symbolic edge weight is carried alongside q.  Coefficient
growth is unbounded by design: chromatic polynomials of the graph families
handled here reach hundreds of digits.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Sequence


class BigPoly:
    """Exact dense polynomial in one variable, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, c) -> "BigPoly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "BigPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int) -> "BigPoly":
        return cls((0,) * k + (1,))

    @classmethod
    def from_balanced_digits(cls, value: int, width: int) -> "BigPoly":
        """The p with p(2**width) == value and every coefficient in [-2**(width-1), 2**(width-1)).

        Kronecker substitution read backwards: the coefficients are the
        balanced base-2**width digits of value, which every integer has
        exactly once.  width is a positive multiple of 8, so a digit is a
        whole number of bytes.  Adding 2**(width-1) to every digit at once
        makes them all non-negative; each is then read off the little-endian
        bytes and shifted back.  The count of digits read covers value's
        bit length with one digit to spare; the spare reads as zero.
        """
        if width <= 0 or width % 8:
            raise ValueError(f"digit width must be a positive multiple of 8, not {width}")
        size, half = width // 8, 1 << (width - 1)
        count = value.bit_length() // width + 2
        offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
        data = (value + offset).to_bytes(size * count, "little")
        return cls([int.from_bytes(data[i:i + size], "little") - half
                    for i in range(0, len(data), size)])

    # -- basics -------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"BigPoly({list(self.coeffs)!r})"

    def pretty(self, var: str = "q") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = f"{c}"
            else:
                mag = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                term = f"{mag}{var}" + (f"^{k}" if k > 1 else "")
            parts.append(term)
        out = " + ".join(parts).replace("+ -", "- ")
        return out

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "BigPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BigPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "BigPoly":
        return BigPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "BigPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BigPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "BigPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return BigPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return BigPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BigPoly":
        return _power(self, n, BigPoly((1,)))

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction, complex, mpmath types."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "BigPoly":
        return BigPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    # -- exact division and gcd ---------------------------------------------

    def divmod(self, other: "BigPoly") -> tuple["BigPoly", "BigPoly"]:
        """Polynomial division over the rationals."""
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        den = [Fraction(c) for c in other.coeffs]
        qn = len(rem) - len(den) + 1
        if qn <= 0:
            return BigPoly(), BigPoly(rem)
        quot = [Fraction(0)] * qn
        lead = den[-1]
        for k in range(qn - 1, -1, -1):
            c = rem[k + len(den) - 1] / lead
            quot[k] = c
            if c:
                for j, d in enumerate(den):
                    rem[k + j] -= c * d
        return BigPoly(quot), BigPoly(rem)

    def exact_div(self, other: "BigPoly") -> "BigPoly":
        """The quotient of a division known to leave no remainder.

        Long division in the coefficients' own arithmetic: a quotient
        coefficient is divmod(x, lead), and becomes a Fraction only when
        that step leaves a remainder.  By Gauss's lemma a primitive integer
        divisor of an integer polynomial leaves integer quotients, so Yun's
        divisions never build a Fraction.
        """
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        m = len(den) - 1
        lead = den[-1]
        quot = [0] * max(0, len(rem) - m)
        for k in range(len(quot) - 1, -1, -1):
            x = rem[k + m]
            if not x:
                continue
            c, r = divmod(x, lead)
            if r:
                c = Fraction(x) / lead
            quot[k] = c
            for j in range(m):
                rem[k + j] -= c * den[j]
        if any(rem[:m]):
            raise ValueError("division is not exact")
        return BigPoly(quot)

    def content(self):
        g = 0
        for c in self.coeffs:
            if isinstance(c, Fraction):
                raise ValueError("content needs integer coefficients")
            g = _int_gcd(g, abs(c))
        return g

    def primitive(self) -> "BigPoly":
        """Divide out the integer content; normalize the leading sign to +."""
        if not self.coeffs:
            return self
        g = self.content()
        sign = -1 if self.lead < 0 else 1
        g *= sign
        return BigPoly(tuple(c // g for c in self.coeffs))

    @staticmethod
    def gcd(a: "BigPoly", b: "BigPoly") -> "BigPoly":
        """Primitive gcd of two integer-coefficient polynomials.

        Primitive pseudo-remainder sequence: each remainder is computed in
        integers and cut to its primitive part, which avoids the rational
        arithmetic and coefficient swell of Euclid over the rationals.
        """
        if a.degree < b.degree:
            a, b = b, a
        if not a:
            return BigPoly()
        a = a.primitive()
        while b:
            b = b.primitive()
            a, b = b, _pseudo_rem(a.coeffs, b.coeffs)
        return a

    def to_int(self) -> "BigPoly":
        """Cast Fraction coefficients with unit denominators back to int."""
        return BigPoly(tuple(_normalize_fraction(c) for c in self.coeffs))


def _power(base, n: int, one):
    """base ** n by square-and-multiply from the unit one, for any ring here."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _coerce(x):
    if isinstance(x, BigPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return BigPoly((x,))
    return None


def _pseudo_rem(a: tuple, b: tuple) -> "BigPoly":
    """A nonzero integer times the remainder of a by b (deg a >= deg b).

    Each elimination step scales by lc(b)/g and the eliminated coefficient
    by c/g with g = gcd(lc(b), c), which keeps the multiple small.
    """
    rem = list(a)
    lead = b[-1]
    m = len(b) - 1
    for k in range(len(rem) - len(b), -1, -1):
        c = rem.pop()
        if c == 0:
            continue
        g = _int_gcd(lead, c)
        s, t = lead // g, c // g
        if s != 1:
            rem = [s * x for x in rem]
        for j in range(m):
            rem[k + j] -= t * b[j]
    return BigPoly(rem)


def _normalize_fraction(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class BiPoly:
    """Exact polynomial in two variables (q, w), sparse dict of (i, j) -> coeff."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def q(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def w(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        other = _coerce_bi(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"BiPoly({self.terms!r})"

    def __add__(self, other) -> "BiPoly":
        other = _coerce_bi(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "BiPoly":
        other = _coerce_bi(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        other = _coerce_bi(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "BiPoly":
        other = _coerce_bi(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        return _power(self, n, BiPoly.const(1))

    def __call__(self, qv, wv):
        acc = 0
        for (i, j), c in self.terms.items():
            acc = acc + c * qv ** i * wv ** j
        return acc

    def subs_w(self, value) -> BigPoly:
        """Specialize the second variable, leaving a polynomial in q."""
        deg = max((i for (i, _j) in self.terms), default=-1)
        out = [0] * (deg + 1)
        for (i, j), c in self.terms.items():
            out[i] += c * value ** j
        return BigPoly(out)

    def degrees(self) -> tuple[int, int]:
        if not self.terms:
            return (-1, -1)
        return (max(i for i, _ in self.terms), max(j for _, j in self.terms))


def _coerce_bi(x):
    if isinstance(x, BiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return BiPoly({(0, 0): x})
    return None
