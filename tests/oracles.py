"""Reference implementations the oracle tests compare the library with.

They are the code paths the library replaced, kept here unchanged:
minimal cyclotomic conductors found by one dense rational solve per
divisor of the conductor, cyclotomic polynomials by division over the
rationals, the Weyl coset loops of the endoscopy and parameter layers by
matrix products (`WeylGroup.mul`) instead of Cayley rows on element ids,
and the realization of centralizer reflections by one scan of the
embedded normalizer per root.
"""

from fractions import Fraction
from functools import lru_cache

from rk.cyclotomic import Cyclo, _reduce_mod_cyclotomic, cyclotomic_polynomial
from rk.lattice import mat_vec, solve_rational, vneg, vsub
from rk.params import ParameterError, _is_reflection


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


# ---------------------------------------------------------------------------
# Weyl coset loops by matrix products

def left_coset_rep_by_mul(group, levi, w):
    """min of W^rel_L . w."""
    mul = group.relative.mul
    return min(mul(lw, w) for lw in group.levi_weyl_elements(levi))


def phi_tag_by_mul(param_h, w):
    """min of w . W_phi."""
    mul = param_h.group.relative.mul
    return min(mul(w, f) for f in param_h.wphi_elements)


def pairing_reps_by_mul(param, cut):
    """The W_phi representatives `regular_pairing` sums over."""
    sub = set(cut.weyl_elements)
    mul = param.group.relative.mul
    reps = []
    covered = set()
    for g in param.wphi_elements:
        if g in covered:
            continue
        reps.append(g)
        covered |= {mul(s, g) for s in sub}
    return reps


def phi_cosets_by_mul(param, levi, w):
    """The right W_phi cosets in W^rel_L . w . W_phi, as frozensets of
    matrices: what the coset counting certificate counts."""
    mul = param.group.relative.mul
    orbit = {mul(mul(lw, w), f) for lw in param.group.levi_weyl_elements(levi)
             for f in param.wphi_elements}
    return {frozenset(mul(x, f) for f in param.wphi_elements) for x in orbit}


def cut_weyl_elements_by_mul(param, levi, w):
    """The g of W_phi with w . g . w^-1 in W^rel_L."""
    rel = param.group.relative
    levi_weyl = set(param.group.levi_weyl_elements(levi))
    return tuple(g for g in param.wphi_elements
                 if rel.mul(rel.mul(w, g), rel.inverse[w]) in levi_weyl)


def r_component_by_mul(param, g):
    """The R_phi part of an element of W_phi."""
    o = set(param.wphi_o_elements)
    rel = param.group.relative
    for r in param.r_elements:
        if rel.mul(g, rel.inverse[r]) in o:
            return r
    raise ParameterError("element is not in W_phi")


def realize_reflection_by_scan(param, alpha):
    """(m, coroot) for a positive centralizer root, by one scan of the
    embedded normalizer for this root."""
    found = []
    for m, d in param._embedded.items():
        if not _is_reflection(d):
            continue
        if mat_vec(d, alpha) != vneg(alpha):
            continue
        if {mat_vec(d, r) for r in param.roots} != set(param.roots):
            continue
        found.append((m, d))
    if not found:
        raise ParameterError("reflection of root %r is not realized in "
                             "the relative Weyl group" % (alpha,))
    if len({d for _m, d in found}) > 1:
        raise ParameterError("reflection of root %r is ambiguous" % (alpha,))
    m, d = min(found)
    k = next(i for i, a in enumerate(alpha) if a)
    cor = []
    for j in range(param.dim):
        e = tuple(1 if i == j else 0 for i in range(param.dim))
        diff = vsub(e, mat_vec(d, e))
        c = diff[k] // alpha[k]
        if tuple(c * a for a in alpha) != diff:
            raise ParameterError("coroot of %r is not integral" % (alpha,))
        cor.append(c)
    return m, tuple(cor)
