"""Exact arithmetic with rational combinations of roots of unity.

Values live in Q(zeta_n) and are stored as polynomials in zeta_n reduced
modulo the n-th cyclotomic polynomial; comparisons lift both operands to
the lcm conductor.  This is all the character and trace bookkeeping in
this package ever needs: no floating point, exact equality, and exact
detection of rational values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Tuple


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by the product of Phi_d for proper divisors d
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            div = [Fraction(c) for c in cyclotomic_polynomial(d)]
            poly = _polydiv_exact(poly, div)
    out = []
    for c in poly:
        if c.denominator != 1:
            raise AssertionError("cyclotomic polynomial must be integral")
        out.append(int(c))
    return tuple(out)


def _polydiv_exact(num, den):
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        out[k] = c
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(x != 0 for x in num):
        raise AssertionError("inexact polynomial division")
    return out


class Cyclo:
    """An element of Q(zeta_n), canonically reduced.

    >>> Cyclo.root_of_unity(Fraction(1, 2))
    Cyclo(-1)
    >>> (Cyclo.root_of_unity(Fraction(1, 3)) + Cyclo.root_of_unity(Fraction(2, 3))).as_rational()
    Fraction(-1, 1)
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        deg = len(cyclotomic_polynomial(n)) - 1
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > deg:
            cs = _reduce_mod_cyclotomic(cs, n)
        cs += [Fraction(0)] * (deg - len(cs))
        self.n = n
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Cyclo":
        return cls(1, [Fraction(q)])

    @classmethod
    def zero(cls) -> "Cyclo":
        return cls.from_rational(0)

    @classmethod
    def one(cls) -> "Cyclo":
        return cls.from_rational(1)

    @classmethod
    def root_of_unity(cls, exponent) -> "Cyclo":
        """e^{2 pi i exponent} for a rational exponent."""
        q = Fraction(exponent)
        num = q.numerator % q.denominator
        den = q.denominator
        g = gcd(num, den) if num else den
        num //= g
        den //= g
        if den == 1:
            return cls.from_rational(1)
        # a primitive den-th root of unity has conductor den, except for
        # den = 2 (mod 4): zeta_den^num = -zeta_{den/2}^{(num + den/2)/2}
        sign = 1
        if den % 4 == 2:
            num, den, sign = (num + den // 2) // 2 % (den // 2), den // 2, -1
        coeffs = [Fraction(0)] * den
        coeffs[num] = Fraction(sign)
        return cls(den, coeffs)

    # -- ring structure ------------------------------------------------------

    def _lift(self, n: int) -> "Cyclo":
        if n == self.n:
            return self
        if n % self.n:
            raise ValueError("can only lift to a multiple conductor")
        k = n // self.n
        # zeta_{self.n} = zeta_n^k: re-express with stride k, then reduce
        out = [Fraction(0)] * (k * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] += c
        return Cyclo(n, out)

    def _promote(self, n: int) -> "Cyclo":
        return Cyclo(n, self.coeffs) if n == self.n else self._lift(n)

    def scale(self, c) -> "Cyclo":
        return Cyclo(self.n, [Fraction(c) * x for x in self.coeffs])

    def __add__(self, other) -> "Cyclo":
        other = _coerce(other)
        n = _lcm(self.n, other.n)
        a, b = self._promote(n), other._promote(n)
        return Cyclo(n, [x + y for x, y in zip(a.coeffs, b.coeffs)])._canonical()

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return self.scale(-1)

    def __sub__(self, other) -> "Cyclo":
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other) -> "Cyclo":
        other = _coerce(other)
        n = _lcm(self.n, other.n)
        a, b = self._promote(n), other._promote(n)
        prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] += x * y
        return Cyclo(n, prod)._canonical()

    __rmul__ = __mul__

    # -- structure queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is irrational: %r" % (self,))
        return self.coeffs[0]

    def _canonical(self) -> "Cyclo":
        """Reduce the conductor to the smallest divisor that carries the value."""
        if self.n == 1:
            return self
        for d in sorted(_divisors(self.n)):
            if d == self.n:
                return self
            cand = _try_express(self, d)
            if cand is not None:
                return cand
        return self

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        n = _lcm(self.n, other.n)
        return self._promote(n).coeffs == other._promote(n).coeffs

    def __hash__(self):
        c = self._canonical()
        return hash((c.n, c.coeffs))

    def __repr__(self):
        if self.is_rational():
            q = self.coeffs[0]
            return "Cyclo(%s)" % (q if q.denominator != 1 else q.numerator)
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append("%s*z%d^%d" % (c, self.n, i))
        return "Cyclo(%s)" % " + ".join(terms)

    def pretty(self) -> str:
        r = self._canonical()
        if r.is_rational():
            q = r.as_rational()
            return str(q.numerator) if q.denominator == 1 else str(q)
        return repr(r)


def _coerce(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.from_rational(x)
    raise TypeError("cannot coerce %r into a cyclotomic value" % (x,))


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def _reduce_mod_cyclotomic(coeffs, n):
    phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
    cs = list(coeffs)
    deg = len(phi) - 1
    # first reduce zeta^n = 1
    if len(cs) > n:
        for i in range(len(cs) - 1, n - 1, -1):
            cs[i - n] += cs[i]
            cs[i] = 0
        cs = cs[:n]
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            for j, p in enumerate(phi):
                cs[i - deg + j] -= c * p
    return cs[:deg]


def _try_express(value: Cyclo, d: int):
    """Express `value` in Q(zeta_d) if possible (d | value.n), else None."""
    n = value.n
    k = n // d
    # columns: zeta_d^j = zeta_n^{jk} reduced, for j < deg(Phi_d)
    deg_d = len(cyclotomic_polynomial(d)) - 1
    deg_n = len(cyclotomic_polynomial(n)) - 1
    cols = []
    for j in range(deg_d):
        e = [Fraction(0)] * (j * k + 1)
        e[j * k] = Fraction(1)
        cols.append(tuple(_pad(_reduce_mod_cyclotomic(e, n), deg_n)))
    from .lattice import solve_rational
    sol = solve_rational(cols, value.coeffs)
    if sol is None:
        return None
    return Cyclo(d, list(sol))


def _pad(cs, length):
    return list(cs) + [Fraction(0)] * (length - len(cs))
