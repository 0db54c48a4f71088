"""Exact arithmetic with rational combinations of roots of unity.

Values live in Q(zeta_n) and are stored as polynomials in zeta_n reduced
modulo the n-th cyclotomic polynomial, as integer numerators over one
common denominator; comparisons lift both operands to the lcm conductor.
Sums, products and hashes shrink a value to its minimal conductor by
relative traces, one prime at a time: x lies in Q(zeta_{n/p}) exactly
when it equals its trace down to that field divided by the degree, and
that trace has a closed form on each power of zeta_n.  This is all the character and trace bookkeeping in this package ever
needs: no floating point, no linear algebra, exact equality, and exact
detection of rational values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import List, Optional, Tuple


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    # x^n - 1 divided by the monic Phi_d of each proper divisor d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        den = cyclotomic_polynomial(d)
        deg = len(den) - 1
        quot = [0] * (len(poly) - deg)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = poly[k + deg]
            for i, a in enumerate(den):
                poly[k + i] -= c * a
        if any(poly):
            raise AssertionError("inexact polynomial division")
        poly = quot
    return tuple(poly)


def prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Cyclo:
    """An element of Q(zeta_n), canonically reduced.

    A value is stored as integer numerators `nums` over one positive
    denominator `den` with gcd(den, *nums) = 1, a unique form, so equal
    values at one conductor have equal (nums, den).

    >>> Cyclo.root_of_unity(Fraction(1, 2))
    Cyclo(-1)
    >>> (Cyclo.root_of_unity(Fraction(1, 3)) + Cyclo.root_of_unity(Fraction(2, 3))).as_rational()
    Fraction(-1, 1)
    """

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, coeffs):
        qs = [Fraction(c) for c in coeffs]
        den = lcm(*(q.denominator for q in qs))
        _fill(self, n, [q.numerator * (den // q.denominator) for q in qs],
              den)

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "Cyclo":
        if not isinstance(q, (int, Fraction)):
            q = Fraction(q)
        return _make(1, [q.numerator], q.denominator)

    @classmethod
    def zero(cls) -> "Cyclo":
        return _make(1, [0], 1)

    @classmethod
    def one(cls) -> "Cyclo":
        return _make(1, [1], 1)

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
            return cls.one()
        # a primitive den-th root of unity has conductor den, except for
        # den = 2 (mod 4): zeta_den^num = -zeta_{den/2}^{(num + den/2)/2}
        sign = 1
        if den % 4 == 2:
            num, den, sign = (num + den // 2) // 2 % (den // 2), den // 2, -1
        nums = [0] * den
        nums[num] = sign
        return _make(den, nums, 1)

    # -- ring structure ------------------------------------------------------

    def _lift(self, n: int) -> "Cyclo":
        if n == self.n:
            return self
        if n % self.n:
            raise ValueError("can only lift to a multiple conductor")
        k = n // self.n
        # zeta_{self.n} = zeta_n^k: re-express with stride k, then reduce
        out = [0] * (k * (len(self.nums) - 1) + 1)
        out[::k] = self.nums
        return _make(n, out, self.den)

    def scale(self, c) -> "Cyclo":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        a = c.numerator
        return _make(self.n, [a * x for x in self.nums],
                     self.den * c.denominator)

    def __add__(self, other) -> "Cyclo":
        other = _coerce(other)
        n = lcm(self.n, other.n)
        a, b = self._lift(n), other._lift(n)
        da, db = a.den, b.den
        return _make(n, [x * db + y * da for x, y in zip(a.nums, b.nums)],
                     da * db)._canonical()

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        return self.scale(-1)

    def __sub__(self, other) -> "Cyclo":
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other) -> "Cyclo":
        other = _coerce(other)
        n = lcm(self.n, other.n)
        a, b = self._lift(n), other._lift(n)
        prod = [0] * (len(a.nums) + len(b.nums) - 1)
        for i, x in enumerate(a.nums):
            if x == 0:
                continue
            for j, y in enumerate(b.nums):
                if y:
                    prod[i + j] += x * y
        return _make(n, prod, a.den * b.den)._canonical()

    __rmul__ = __mul__

    # -- structure queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is irrational: %r" % (self,))
        return Fraction(self.nums[0], self.den)

    def _canonical(self) -> "Cyclo":
        """Reduce the conductor to the smallest divisor that carries the value."""
        if self.n == 1:
            return self
        # Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a,b)): a prime that does
        # not descend now does not descend from any divisor either
        x = self
        for p in prime_factors(self.n):
            while x.n % p == 0:
                y = x._descend(p)
                if y is None:
                    break
                x = y
        return x

    def _descend(self, p: int) -> Optional["Cyclo"]:
        """This value in Q(zeta_m), m = n/p for a prime p | n, or None."""
        n, m, cs = self.n, self.n // p, self.nums
        if m % p == 0:
            # zeta_n^r (r < p) is a basis over Q(zeta_m), zeta_m = zeta_n^p
            if any(c for i, c in enumerate(cs) if i % p):
                return None
            return _make(m, cs[::p], self.den)
        # zeta_n = zeta_m^c * zeta_p^(1/m mod p) with c = 1/p mod m, and the
        # trace of zeta_p^k down to Q is p - 1 when p | k, else -1; so the
        # trace of zeta_n^i over the degree p - 1 is zeta_m^(ic) when p | i
        # and -zeta_m^(ic)/(p - 1) otherwise: scaled by p - 1, integers
        c = pow(p, -1, m)
        q = p - 1
        t = [0] * m
        for i, x in enumerate(cs):
            if x:
                t[i * c % m] += x * q if i % p == 0 else -x
        y = _make(m, t, self.den * q)
        z = y._lift(n)
        return y if z.den == self.den and z.nums == cs else None

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        n = lcm(self.n, other.n)
        a, b = self._lift(n), other._lift(n)
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        c = self._canonical()
        return hash((c.n, c.coeffs))

    def __repr__(self):
        if self.is_rational():
            return "Cyclo(%s)" % _qstr(self.nums[0], self.den)
        terms = []
        for i, a in enumerate(self.nums):
            if a == 0:
                continue
            if i == 0:
                terms.append(_qstr(a, self.den))
            else:
                terms.append("%s*z%d^%d" % (_qstr(a, self.den), self.n, i))
        return "Cyclo(%s)" % " + ".join(terms)

    def pretty(self) -> str:
        r = self._canonical()
        if r.is_rational():
            return _qstr(r.nums[0], r.den)
        return repr(r)


def _fill(x: Cyclo, n: int, nums, den: int) -> None:
    """Set x to sum(nums[i] * zeta_n^i) / den (ints, den > 0), reduced
    modulo Phi_n and by the gcd of den and the numerators."""
    deg = len(cyclotomic_polynomial(n)) - 1
    if len(nums) > deg:
        nums = _reduce_mod_cyclotomic(nums, n)
    elif len(nums) < deg:
        nums = list(nums) + [0] * (deg - len(nums))
    g = gcd(den, *nums)
    if g != 1:
        nums = [a // g for a in nums]
        den //= g
    x.n = n
    x.nums = tuple(nums)
    x.den = den


def _make(n: int, nums, den: int) -> Cyclo:
    x = object.__new__(Cyclo)
    _fill(x, n, nums, den)
    return x


def _qstr(a: int, den: int) -> str:
    """str(Fraction(a, den)) without forming the Fraction."""
    g = gcd(a, den)
    if g == den:
        return str(a // g)
    return "%d/%d" % (a // g, den // g)


def _coerce(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.from_rational(x)
    raise TypeError("cannot coerce %r into a cyclotomic value" % (x,))


def _reduce_mod_cyclotomic(coeffs, n):
    phi = cyclotomic_polynomial(n)
    cs = list(coeffs)
    deg = len(phi) - 1
    # first reduce zeta^n = 1
    if len(cs) > n:
        for i in range(len(cs) - 1, n - 1, -1):
            cs[i - n] += cs[i]
            cs[i] = 0
        cs = cs[:n]
    # then subtract c*x^(i-deg)*Phi_n for each leading term c*x^i, over the
    # nonzero terms of Phi_n only
    terms = [(j - deg, p) for j, p in enumerate(phi) if p]
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            for j, p in terms:
                cs[i + j] -= c * p
    return cs[:deg]
