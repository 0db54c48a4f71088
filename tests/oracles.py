"""Reference implementations the oracle tests compare the library with.

They are the code paths the library replaced, kept here unchanged:
minimal cyclotomic conductors found by one dense rational solve per
divisor of the conductor, and cyclotomic polynomials by division over
the rationals.
"""

from fractions import Fraction
from functools import lru_cache

from rk.cyclotomic import Cyclo, _reduce_mod_cyclotomic, cyclotomic_polynomial
from rk.lattice import solve_rational


def canonical_by_solve(value: Cyclo) -> Cyclo:
    """Reduce the conductor to the smallest divisor that carries the value."""
    if value.n == 1:
        return value
    for d in sorted(_divisors(value.n)):
        if d == value.n:
            return value
        cand = _try_express(value, d)
        if cand is not None:
            return cand
    return value


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


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
    sol = solve_rational(cols, value.coeffs)
    if sol is None:
        return None
    return Cyclo(d, list(sol))


def _pad(cs, length):
    return list(cs) + [Fraction(0)] * (length - len(cs))


@lru_cache(maxsize=None)
def cyclotomic_polynomial_by_fractions(n: int):
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    # x^n - 1 divided by the product of Phi_d for proper divisors d
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            div = [Fraction(c) for c in cyclotomic_polynomial_by_fractions(d)]
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
