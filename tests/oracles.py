"""Reference implementations the oracle tests compare the library with.

They are the code paths the library replaced, kept here unchanged:
cyclotomic values with Fraction coefficients, minimal cyclotomic
conductors found by one dense rational solve per
divisor of the conductor, cyclotomic polynomials by division over the
rationals, the Weyl coset loops of the endoscopy and parameter layers by
matrix products (`WeylGroup.mul`) instead of Cayley rows on element ids,
the realization of centralizer reflections by one scan of the embedded
normalizer per root, the packet forward map and its fiber weights
with every step run on every call, the descent certificate reading a
coroot per cut root and the component actions per call, the fiber
enumeration with its dominant weights formed and its elements compared
by `encode` on every call, the central-character square solved on every
call, the parabolic double coset
W^rel_L . w . W_phi with every product formed, a Levi cut's component
elements by one `mat_vec` per positive root and its connected Weyl group
closed for every cut, the coset counting certificate with the double
coset built for every transporter element, the three routines that
formed the transporter cosets that `params.TransporterCosets` replaced (the
double coset representatives with their right-stability check, the
double coset counts with their four checks, and the least element of a
left coset by one Cayley row per element of W^rel_L), and the endoscopy
layer's right W_phi cosets as sets, indexing map, orbit traces, geometric-lemma
step and Levi-token expansion, likewise on every call, the embedded class
of a backward twist found by building its double coset and scanning the
classes, the finitely
generated abelian group with a slot kind per Smith slot and its
coinvariants, as they were before the group had one construction path,
the inverse of a unimodular matrix by a second Smith form and as
the checked rational inverse, as it was before each of the two later
forms, and the characters of an abelian group through the Smith form of
its Schreier relations on a greedily chosen generating set.
With them are the routines that only the tests call: the coordinate
sign flips generating (Z/2)^k, the rational span test, the Levi data as one tuple, the full Weyl group of a disconnected
group with its semidirect splitting, a Levi cut as a disconnected group,
the descent certificate of a highest-weight module, the membership of
s in a Levi with its coordinate sample, a gl3 parameter
whose transporter sets split into several double cosets, and the
description-file writers that the round-trip tests compare the loaders
of `rk.files` with.  The group and disconnected-group preset tables as they were when
every matrix was made by `lattice.mat` at import stand beside them.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import gcd
from math import lcm as _lcm
from typing import Dict, Optional, Sequence

from rk import presets
from rk.cyclotomic import (Cyclo, _reduce_mod_cyclotomic,
                           cyclotomic_polynomial, prime_factors)
from rk.disconnected import (DisconnectedGroupDatum, HighestWeightPair,
                             _form_value, _invariant_form,
                             stabilizer_A_lambda)
from rk.endoscopy import (EndoscopyError, Term, _check_s_in_levi,
                          _forward_table, _weight_exponent,
                          enumerate_embedded, jacquet_geometric_terms,
                          parameter_on_h, regular_part)
from rk.finite_reps import FiniteGroup
from rk.kottwitz import basic_plus_lift, encode, kappa_push
from rk.lattice import (FgaElement, Matrix, Vector, _check_lengths, dot,
                        from_columns, mat, mat_identity, mat_inverse,
                        mat_mul, mat_transpose, mat_vec, orbit,
                        smith_normal_form, solve_rational, vadd, vneg,
                        vscale, vsub)
from rk.packets import (DescentError, PacketMember, _canonical_double_coset,
                        _center_coords, _certify_descent, canonical_rho,
                        dominantize, transporter_double_cosets)
from rk.params import (Parameter, ParameterError, _is_reflection,
                       _simple_positions)
from rk.rootdata import (BasedRootDatum, DatumError, GaloisAction,
                         ReductiveGroup, reflection_matrix, weyl_group)
from rk.weyl import chamber_locate, transporter_set


def in_span(basis, v) -> bool:
    return solve_rational(basis, v) is not None


def levi_data(group, subset):
    """(fraktur-A_L basis, X_*(A_L^) basis, X*(Z(L^)^Gamma), alpha_L matrix).

    alpha_L is returned as the rational matrix sending the functional
    coordinates on X_*(A_L^) to the point of fraktur-A_L subset X_*(T)_Q.
    """
    ctx = group.levi_context(subset)
    n = group.datum.rank
    cols = [ctx.alpha(tuple(1 if i == j else 0 for i in range(ctx.dim)))
            for j in range(ctx.dim)]
    alpha_matrix = mat_transpose(mat(cols)) if cols else tuple(() for _ in range(n))
    return (ctx.split_center_basis, ctx.dual_split_center_basis,
            ctx.dual_center_characters, alpha_matrix)


# ---------------------------------------------------------------------------
# the Weyl group of a disconnected group

def full_weyl(datum):
    """The group generated by the simple reflections of the identity
    component and the component group, on the character lattice."""
    d = datum.component
    gens = [reflection_matrix(d.roots[i], d.coroots[i])
            for i in d.simple_indices]
    gens += [g for g in datum.pi0.elements if g != datum.pi0.identity]
    return FiniteGroup.from_matrices(gens or [mat_identity(d.rank)])


def pi0_weyl_split(datum):
    """(connected Weyl group, component image, verification report).

    Certifies the semidirect decomposition of the full Weyl group: trivial
    intersection and generation.
    """
    wc = weyl_group(datum.component)
    pi0_mats = tuple(datum.pi0.elements)
    wf = full_weyl(datum)
    inter = set(wc.elements) & set(pi0_mats)
    report = {
        "connected_order": len(wc),
        "component_order": len(pi0_mats),
        "full_order": len(wf),
        "trivial_intersection": inter == {wc.identity},
        "generates": len(wf) == len(wc) * len(pi0_mats),
    }
    if not (report["trivial_intersection"] and report["generates"]):
        raise DatumError("component action is inconsistent with a semidirect "
                         "Weyl decomposition: %r" % (report,))
    return wc, pi0_mats, report


# ---------------------------------------------------------------------------
# cyclotomic values with Fraction coefficients

class FractionCyclo:
    """An element of Q(zeta_n), canonically reduced, with Fraction
    coefficients: the class `rk.cyclotomic.Cyclo` replaced, unchanged but
    for its name (its reprs still read `Cyclo(...)`).

    >>> FractionCyclo.root_of_unity(Fraction(1, 2))
    Cyclo(-1)
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
    def from_rational(cls, q) -> "FractionCyclo":
        return cls(1, [Fraction(q)])

    @classmethod
    def zero(cls) -> "FractionCyclo":
        return cls.from_rational(0)

    @classmethod
    def one(cls) -> "FractionCyclo":
        return cls.from_rational(1)

    @classmethod
    def root_of_unity(cls, exponent) -> "FractionCyclo":
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

    def _lift(self, n: int) -> "FractionCyclo":
        if n == self.n:
            return self
        if n % self.n:
            raise ValueError("can only lift to a multiple conductor")
        k = n // self.n
        # zeta_{self.n} = zeta_n^k: re-express with stride k, then reduce
        out = [Fraction(0)] * (k * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] += c
        return FractionCyclo(n, out)

    def scale(self, c) -> "FractionCyclo":
        return FractionCyclo(self.n, [Fraction(c) * x for x in self.coeffs])

    def __add__(self, other) -> "FractionCyclo":
        other = _coerce_fraction(other)
        n = _lcm(self.n, other.n)
        a, b = self._lift(n), other._lift(n)
        return FractionCyclo(n, [x + y for x, y in zip(a.coeffs, b.coeffs)])._canonical()

    __radd__ = __add__

    def __neg__(self) -> "FractionCyclo":
        return self.scale(-1)

    def __sub__(self, other) -> "FractionCyclo":
        return self + (-_coerce_fraction(other))

    def __rsub__(self, other):
        return _coerce_fraction(other) - self

    def __mul__(self, other) -> "FractionCyclo":
        other = _coerce_fraction(other)
        n = _lcm(self.n, other.n)
        a, b = self._lift(n), other._lift(n)
        prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] += x * y
        return FractionCyclo(n, prod)._canonical()

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

    def _canonical(self) -> "FractionCyclo":
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

    def _descend(self, p: int) -> Optional["FractionCyclo"]:
        """This value in Q(zeta_m), m = n/p for a prime p | n, or None."""
        n, m, cs = self.n, self.n // p, self.coeffs
        if m % p == 0:
            # zeta_n^r (r < p) is a basis over Q(zeta_m), zeta_m = zeta_n^p
            if any(c for i, c in enumerate(cs) if i % p):
                return None
            return FractionCyclo(m, cs[::p])
        # zeta_n = zeta_m^c * zeta_p^(1/m mod p) with c = 1/p mod m, and the
        # trace of zeta_p^k down to Q is p - 1 when p | k, else -1; so the
        # trace of zeta_n^i over the degree p - 1 is zeta_m^(ic) when p | i
        # and -zeta_m^(ic)/(p - 1) otherwise
        c = pow(p, -1, m)
        w = Fraction(-1, p - 1)
        t = [Fraction(0)] * m
        for i, x in enumerate(cs):
            if x:
                t[i * c % m] += x if i % p == 0 else x * w
        y = FractionCyclo(m, t)
        return y if y._lift(n).coeffs == cs else None

    def __eq__(self, other):
        try:
            other = _coerce_fraction(other)
        except TypeError:
            return NotImplemented
        n = _lcm(self.n, other.n)
        return self._lift(n).coeffs == other._lift(n).coeffs

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


def _coerce_fraction(x) -> FractionCyclo:
    if isinstance(x, FractionCyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionCyclo.from_rational(x)
    raise TypeError("cannot coerce %r into a cyclotomic value" % (x,))


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


def cut_component_elements_by_mat_vec(cut):
    """The g of the cut's Weyl group whose action on the center characters
    sends the cut's positive roots onto themselves, one `mat_vec` per
    positive root."""
    param = cut.param
    pos_set = set(cut.positives)
    comp = []
    for g in cut.weyl_elements:
        d = param.char_action(g)
        if {mat_vec(d, p) for p in cut.positives} == pos_set:
            comp.append(g)
    return tuple(sorted(comp))


def cut_connected_weyl_by_closure(cut):
    """The group the realized reflections of the cut's positive roots
    generate, closed anew for this cut."""
    param = cut.param
    return param.group.relative.generated(
        [param.reflection_realization[p] for p in cut.positives])


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


# ---------------------------------------------------------------------------
# the packet forward map without its per-weight memo

def build_packet_member_unmemoized(param, rho):
    """The chamber witness, the Levi cut, the descent certificate, the
    Kottwitz lift and the Newton check, all on every call."""
    group = param.group
    rho = canonical_rho(param, rho)
    lam = rho.weight
    x = param.ctx_M.alpha(lam)
    witness = chamber_locate(group, x)
    levi = witness.levi
    w = witness.matrix

    cut = param.levi_cut(levi, w)
    _certify_descent(param, cut, lam)

    # kappa from the restriction of the transported weight to the Levi center
    functional = tuple(dot(lam, c) for c in cut.levi_center_coords)
    ctx_L = group.levi_context(levi)
    kappa = ctx_L.kappa_from_functional(functional)
    b = basic_plus_lift(group, levi, kappa)
    if ctx_L.newton_point(kappa) != witness.image:
        raise AssertionError("Newton point disagrees with the chamber image")

    w_class = _canonical_double_coset(param, levi, w)
    return PacketMember(
        b=b, levi=levi, w_class=w_class, rho_weight=lam,
        rho_module_label=rho.module.label(),
        witness_word=witness.word, levi_weight=lam,
        param_label=param.label)


def fiber_weight_unmemoized(param, b, w):
    """The weight alpha_M^{-1}(w^{-1} . nu(b)) when it is integral, else
    None, computed on every call."""
    nu, den = param.group.levi_context(b.levi).newton_scaled(b.kappa)
    moved = mat_vec(mat_transpose(w), nu)  # cochar action of w^{-1}
    image = param.ctx_M.alpha_inv(moved)
    if image is None or any(x % den for x in image):
        return None
    return tuple(x // den for x in image)


def certify_descent_per_call(param, cut, lam):
    """The descent certificate with a coroot looked up per cut root and two
    `char_action`s per component element, on every call."""
    for beta in cut.roots:
        if dot(lam, param.coroots[beta]) != 0:
            raise DescentError("weight pairs nontrivially with a Levi-cut "
                               "root; the Levi representation is not a "
                               "character")
    for sol in cut.descent_coords:
        if dot(lam, sol) != 0:
            raise DescentError("weight does not kill the derived-intersection "
                               "sublattice")
    # stabilizer comparison (the cut component group equals the ambient one)
    amb = set(stabilizer_A_lambda(param.centralizer, lam).elements)
    cut_stab = set()
    for g in cut.component_elements:
        d = param.char_action(g)
        if mat_vec(d, lam) == lam:
            cut_stab.add(param.char_action(param.r_component(g)))
    if amb != cut_stab:
        raise DescentError("Levi-cut stabilizer does not match the ambient "
                           "stabilizer of the weight")


def enumerate_fiber_per_call(param, b):
    """All packet members over b, each weight made dominant on every call
    and each member's element compared with b by its `encode` dict."""
    members = {}
    bkey = encode(param.group, b)
    for w in transporter_double_cosets(param, b.levi):
        lam_raw = fiber_weight_unmemoized(param, b, w)
        if lam_raw is None:
            continue
        lam = dominantize(param, lam_raw)
        for module in param.centralizer.stabilizer_modules(lam):
            member = build_packet_member_unmemoized(
                param, HighestWeightPair(lam, module))
            if encode(param.group, member.b) != bkey:
                raise AssertionError("fiber candidate landed on a different "
                                     "element of the Kottwitz set")
            if member.w_class != _canonical_double_coset(param, b.levi, w):
                raise AssertionError("fiber candidate landed in a different "
                                     "transporter coset")
            if member.key() in members:
                raise AssertionError("fiber enumeration produced a duplicate")
            members[member.key()] = member
    return tuple(sorted(members.values(), key=lambda m: m.key()))


def central_character_square_per_call(param, rho):
    """Both sides of the compatibility square, each pushed, solved and
    compared on every call."""
    group = param.group
    member = build_packet_member_unmemoized(param, rho)
    pushed = kappa_push(group, member.b)
    ctx_G = group.levi_context(group.full_subset())
    coords = _center_coords(param, ctx_G)
    functional = tuple(dot(member.rho_weight, c) for c in coords)
    omega = ctx_G.kappa_from_functional(functional)
    torsion_undetermined = bool(ctx_G.dual_center_characters.torsion)
    equal = omega.free == pushed.free and (
        torsion_undetermined or omega.torsion == pushed.torsion)
    return {
        "omega": omega,
        "kappa_push": pushed,
        "equal": equal,
        "torsion_undetermined": torsion_undetermined,
    }


def gl3_one_root():
    """A gl3 parameter whose centralizer has one root pair: W_phi has order
    2, so the transporter set of the torus splits into up to three double
    cosets, of different sizes at the Levis {0} and {1}."""
    return Parameter(presets.group("gl3"), frozenset(),
                     ((1, -1, 0), (-1, 1, 0)), ((1, -1, 0),),
                     label="gl3: 2+1")


def double_coset_ids_by_comprehension(param, levi, w):
    """W^rel_L . w . W_phi with one product per (l, f) in W^rel_L x W_phi;
    w and the result are ids of W^rel."""
    row = param.group.relative.row
    phi = param.wphi_ids
    return {x for lw in param.group.levi_context(levi).weyl_ids
            for x in map(row(row(lw)[w]).__getitem__, phi)}


# ---------------------------------------------------------------------------
# the endoscopy layer without its per-input memos

def phi_cosets(param, levi, w):
    """The right W_phi cosets x . W_phi in W^rel_L . w . W_phi; w and the
    coset elements are ids of W^rel."""
    row = param.group.relative.row
    return {frozenset(map(row(x).__getitem__, param.wphi_ids))
            for x in double_coset_ids_by_comprehension(param, levi, w)}


def verify_counting_per_element(param, levi):
    """The coset counting certificate with the double coset built for every
    transporter element w; returns (w, number of right W_phi cosets in
    W^rel_L . w . W_phi) for each w, in transporter-set order."""
    group = param.group
    levi = frozenset(levi)
    index = group.relative.index
    left = group.levi_weyl_elements(levi)
    counts = []
    for w in transporter_set(group, param.minimal_levi, levi):
        cosets, rest = divmod(
            len(double_coset_ids_by_comprehension(param, levi, index[w])),
            len(param.wphi_ids))
        if rest:
            raise AssertionError("double coset is not a union of W_phi "
                                 "cosets")
        cut = param.levi_cut(levi, w)
        if cosets * len(cut.weyl_elements) != len(left):
            raise AssertionError("coset counting identity fails")
        counts.append((w, cosets))
    return counts


def transporter_double_cosets_by_rows(param, levi):
    """(the sorted canonical representatives of W^rel_L \\ T / W_phi,
    each transporter element -> its representative), with T checked to be
    right-stable under W_phi element by element."""
    rel = param.group.relative
    trans = [rel.index[t] for t in
             transporter_set(param.group, param.minimal_levi, levi)]
    tset = set(trans)
    for t in trans:
        if not tset.issuperset(map(rel.row(t).__getitem__, param.wphi_ids)):
            raise AssertionError("transporter set is not right-stable "
                                 "under W_phi")
    rep_of = {}
    for coset in rel.double_cosets(param.group.levi_context(levi).weyl_ids,
                                   trans, param.wphi_ids):
        rep = rel.elements[min(coset)]
        rep_of.update((rel.elements[i], rep) for i in coset)
    return tuple(sorted(set(rep_of.values()))), rep_of


def coset_counts_by_double_cosets(param, levi):
    """(w, number of right W_phi cosets in W^rel_L . w . W_phi) for each
    transporter element w, in transporter-set order, building each double
    coset once and checking containment, overlap, remainder and cover."""
    rel = param.group.relative
    trans = transporter_set(param.group, param.minimal_levi, levi)
    ids = [rel.index[w] for w in trans]
    inside = set(ids)
    count_of = {}
    for coset in rel.double_cosets(param.group.levi_context(levi).weyl_ids,
                                   ids, param.wphi_ids):
        if not inside.issuperset(coset):
            raise AssertionError("double coset leaves the transporter set")
        if not coset.isdisjoint(count_of):
            raise AssertionError("double cosets overlap")
        cosets, rest = divmod(len(coset), len(param.wphi_ids))
        if rest:
            raise AssertionError("double coset is not a union of W_phi "
                                 "cosets")
        count_of.update(dict.fromkeys(coset, cosets))
    if len(count_of) != len(inside):
        raise AssertionError("double cosets do not cover the transporter set")
    return list(zip(trans, map(count_of.__getitem__, ids)))


def left_coset_rep_by_rows(group, levi, w):
    """min of W^rel_L . w, one Cayley row per element of W^rel_L."""
    rel = group.relative
    w = rel.index[w]
    return rel.elements[min(rel.row(l)[w]
                            for l in group.levi_context(levi).weyl_ids)]


def indexing_forward_unmemoized(param, levi, endo, emb, v):
    """The group-side coset of (embedded class, endoscopic coset): the
    composite element and its images of the dual-center basis looked up in
    the forward table, on every call."""
    group = param.group
    levi = frozenset(levi)
    h = parameter_on_h(param, endo)[1]
    h_inverse = endo.H.relative.inverse
    weyl = group.weyl
    row, index = weyl.row, weyl.index
    left = row(index[h_inverse[h]])[index[h_inverse[v]]]
    right = row(index[emb.h_std])[index[weyl.inverse[emb.w_rep]]]
    composite = weyl.elements[row(left)[right]]
    basis = group.levi_context(levi).dual_split_center_basis
    reps = _forward_table(param, levi).get(
        tuple(mat_vec(composite, u) for u in basis))
    if not reps:
        raise AssertionError("indexing construction missed the transporter "
                             "set")
    if len(reps) != 1:
        raise AssertionError("indexing construction produced an ambiguous "
                             "coset")
    return next(iter(reps))


def embedded_classes_by_double_coset(param, levi, endo, twists):
    """For each twist u, the embedded class whose representative lies in
    W_L . u . W_H: the double coset built for u and the classes scanned in
    order; None when none does.  The ids of W_L and W_H are formed once."""
    weyl = param.group.weyl
    index = weyl.index
    wl = [index[x] for x in weyl.generated(
        [weyl.generators[pos] for pos in sorted(levi)])]
    wh = [index[x] for x in endo.H.weyl.elements]
    embedded = enumerate_embedded(param, levi, endo)
    out = []
    for u in twists:
        u_orbit = weyl.double_coset(wl, index[u], wh)
        out.append(next((e for e in embedded if index[e.w_rep] in u_orbit),
                        None))
    return out


def s_in_levi_check(param, endo, levi) -> Dict:
    """Certify that the torus element lies in the centralizer cut to the
    Levi, returning its coordinates as an evaluation rule on the center."""
    levi = frozenset(levi)
    _check_s_in_levi(param, endo, levi)
    den, q = endo.s_den, endo.s_num
    solver = param.ctx_M.dual_center_solver
    sample = {}
    for j in range(param.dim):
        e = tuple(1 if i == j else 0 for i in range(param.dim))
        sample[e] = _weight_exponent(solver, q, den, e)
    return {
        "levi": sorted(levi),
        "component": "identity",
        "coordinate_exponents": sample,
    }


def trace_on_levi_module_unmemoized(param, levi, w, lam_w, module_dim, g,
                                    endo):
    """The trace of w . g . s on the induced Levi module, the orbit sum
    formed on every call."""
    cut = param.levi_cut(levi, w)
    solver = param.ctx_M.dual_center_solver
    den = endo.s_den
    q_g = tuple(x % den for x in mat_vec(g, endo.s_num))
    for z in solver.kernel:
        if dot(z, q_g) % den != 0:
            raise EndoscopyError("conjugated torus element left the twisted "
                                 "parameter center")
    orbit = {mat_vec(param.char_action(c), lam_w)
             for c in cut.component_elements}
    total = Cyclo.zero()
    for mu in orbit:
        total = total + Cyclo.root_of_unity(
            _weight_exponent(solver, q_g, den, mu))
    return total * module_dim if module_dim != 1 else total


def geometric_step_unmemoized(endo, emb, param_h):
    """The geometric-lemma step of `eci_both_sides` for one embedded
    class: the terms, their regular part and its count with
    multiplicity."""
    terms = jacquet_geometric_terms(endo, emb, param_h)
    reg = regular_part(terms)
    expected = sum(1 for term, c in reg.items()
                   for _ in range(int(c.as_rational())))
    return terms, reg, expected


def expand_levi_token_unmemoized(param, b, w, endo, dist, sign_token):
    """The Levi token at the transporter coset w expanded into member atoms
    on every call: the fiber weight, its dominant translate, the forward
    map of each stabilizer module and the identity-twist trace."""
    lam_raw = fiber_weight_unmemoized(param, b, w)
    if lam_raw is None:
        return
    lam = dominantize(param, lam_raw)
    identity = param.group.relative.identity
    for module in param.centralizer.stabilizer_modules(lam):
        member = build_packet_member_unmemoized(
            param, HighestWeightPair(lam, module))
        coeff = trace_on_levi_module_unmemoized(
            param, member.levi, w, lam_raw, module.dim, identity, endo)
        dist.add(Term("member", tuple(sorted(member.levi)), member.key(),
                      endo.label, Fraction(1, 2), sign_token), coeff)


# ---------------------------------------------------------------------------
# the unimodular inverse by a second Smith form, then by a rational inverse

def mat_inverse_int_by_smith_form(a: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, as an integer matrix: with
    U*A*V = 1 in Smith form, A^-1 = V*U."""
    D, U, V = smith_normal_form(a, len(a))
    diag = {D[i][i] for i in range(len(D))}
    if diag - {1}:
        raise ValueError("matrix is singular" if 0 in diag
                         else "matrix is not unimodular")
    return mat_mul(V, U)


def mat_inverse_int_by_rational_inverse(a: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix, as an integer matrix: the
    rational inverse, integral exactly when det A = +/-1, checked exactly."""
    _check_lengths(a, len(a))
    inverse = mat_inverse(a)
    if any(x.denominator != 1 for row in inverse for x in row):
        raise ValueError("matrix is not unimodular")
    inverse = tuple(tuple([int(x) for x in row]) for row in inverse)
    if mat_mul(a, inverse) != mat_identity(len(a)):
        raise AssertionError("inverse verification failed: A*A^-1 != 1")
    return inverse


# ---------------------------------------------------------------------------
# finitely generated abelian groups with a slot kind per Smith slot

class FgAbelianGroupBySlotKinds:
    """Z^rank / (column span of a relation matrix), built on one of three
    paths (ambient rank 0, relation columns, none) with a slot kind per
    Smith slot: the finitely generated abelian group of the library
    before it had one construction path.

    Elements are carried in coordinates read off from the Smith normal
    form of the presentation: a free part in Z^free_rank and a torsion
    part reduced modulo the invariant factors d_1 | d_2 | ... (each >= 2).

    >>> G = FgAbelianGroupBySlotKinds(2, [(1, -1)])
    >>> G.free_rank, G.torsion
    (1, ())
    >>> G.element_from_ambient((1, 0)).free
    (1,)
    """

    def __init__(self, ambient_rank: int, relation_columns: Sequence[Vector]):
        self.ambient_rank = ambient_rank
        cols = [tuple(c) for c in relation_columns]
        for c in cols:
            if len(c) != ambient_rank:
                raise ValueError("relation column of wrong length")
        if cols:
            pres = mat_transpose(mat(cols))  # ambient_rank x m
        else:
            pres = tuple(() for _ in range(ambient_rank))
        self.presentation = pres
        self._shape = (ambient_rank, len(cols))
        if ambient_rank == 0:
            self._U = ()
            self._Uinv = ()
            self._diag = ()
        elif cols:
            D, U, _V = smith_normal_form(pres, len(cols))
            self._U = U
            self._Uinv = mat_inverse_int_by_smith_form(U)
            self._diag = tuple(D[i][i] for i in range(min(ambient_rank, len(cols))))
        else:
            self._U = mat_identity(ambient_rank)
            self._Uinv = mat_identity(ambient_rank)
            self._diag = ()
        full = list(self._diag) + [0] * (ambient_rank - len(self._diag))
        self._slot_kind = []  # 'drop' (d=1), 'torsion' (d>=2), 'free' (d=0)
        torsion = []
        for d in full:
            if d == 1:
                self._slot_kind.append("drop")
            elif d == 0:
                self._slot_kind.append("free")
            else:
                self._slot_kind.append("torsion")
                torsion.append(d)
        self.torsion: Vector = tuple(torsion)
        self.free_rank: int = sum(1 for k in self._slot_kind if k == "free")

    @classmethod
    def from_presentation(cls, ambient_rank: int,
                          relation_columns: Sequence[Vector]
                          ) -> "FgAbelianGroupBySlotKinds":
        return cls(ambient_rank, relation_columns)

    def __repr__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % d for d in self.torsion]
        return "FgAbelianGroup(%s)" % (" + ".join(parts) if parts else "0")

    def __eq__(self, other):
        return (isinstance(other, FgAbelianGroupBySlotKinds)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion
                and self._shape == other._shape
                and self.presentation == other.presentation)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def element_from_ambient(self, v: Sequence[int]) -> FgaElement:
        if len(v) != self.ambient_rank:
            raise ValueError("ambient vector of wrong length")
        y = mat_vec(self._U, v) if self.ambient_rank else ()
        free = []
        tors = []
        for yi, kind, d in zip(y, self._slot_kind,
                               list(self._diag) + [0] * self.ambient_rank):
            if kind == "free":
                free.append(yi)
            elif kind == "torsion":
                tors.append(yi % d)
        return FgaElement(tuple(free), tuple(tors))

    def element(self, free: Sequence[int] = (), torsion: Sequence[int] = ()) -> FgaElement:
        if len(free) != self.free_rank or len(torsion) != len(self.torsion):
            raise ValueError("coordinate counts do not match the group shape")
        tors = tuple(t % d for t, d in zip(torsion, self.torsion))
        return FgaElement(tuple(int(x) for x in free), tors)

    def zero(self) -> FgaElement:
        return FgaElement((0,) * self.free_rank, (0,) * len(self.torsion))

    def section(self, e: FgaElement) -> Vector:
        """An ambient representative of `e` (a set-theoretic section)."""
        y = []
        fi = ti = 0
        for kind in self._slot_kind:
            if kind == "drop":
                y.append(0)
            elif kind == "free":
                y.append(e.free[fi])
                fi += 1
            else:
                y.append(e.torsion[ti])
                ti += 1
        return mat_vec(self._Uinv, y) if self.ambient_rank else ()

    def add(self, a: FgaElement, b: FgaElement) -> FgaElement:
        return FgaElement(vadd(a.free, b.free),
                          tuple((x + y) % d for x, y, d
                                in zip(a.torsion, b.torsion, self.torsion)))

    def neg(self, a: FgaElement) -> FgaElement:
        return FgaElement(vneg(a.free),
                          tuple((-x) % d for x, d in zip(a.torsion, self.torsion)))

    def scale(self, c: int, a: FgaElement) -> FgaElement:
        return FgaElement(vscale(c, a.free),
                          tuple((c * x) % d for x, d in zip(a.torsion, self.torsion)))

    def elements_in_box(self, radius: int):
        """All elements with free coordinates in [-radius, radius] (exhaustive
        over torsion).  Only sensible for small groups; used by tests."""
        free_ranges = [range(-radius, radius + 1)] * self.free_rank
        tor_ranges = [range(d) for d in self.torsion]
        for free in product(*free_ranges):
            for tors in product(*tor_ranges):
                yield FgaElement(tuple(free), tuple(tors))


def coinvariants_by_slot_kinds(
        lattice_rank: int, generators: Sequence[Matrix],
        extra_relations: Sequence[Vector] = ()) -> FgAbelianGroupBySlotKinds:
    """L / <x - g.x>, optionally after further quotienting by extra columns."""
    cols = [tuple(c) for c in extra_relations]
    ident = mat_identity(lattice_rank)
    for g in generators:
        if len(g) != lattice_rank:
            raise ValueError("action rank mismatch")
        diff = [vsub(col_g, col_i) for col_g, col_i
                in zip(mat_transpose(g), mat_transpose(ident))]
        cols.extend(diff)
    return FgAbelianGroupBySlotKinds.from_presentation(lattice_rank, cols)


# ---------------------------------------------------------------------------
# abelian character tables through the Smith form of the Schreier relations

def abelian_characters_by_smith_form(group: FiniteGroup):
    gens = small_generating_set(group)
    if not gens:
        return ({group.identity: Cyclo.one()},)
    # word map Z^g -> group and Schreier generators of the relation lattice:
    # one relation per edge a -> a.g_i off the breadth-first tree, in the
    # order the tree was grown
    maps = [lambda a, g=g: group.mul(a, g) for g in gens]
    tree = orbit((group.identity,), maps)
    words = {group.identity: (0,) * len(gens)}
    relations = []
    for a in tree:
        for i, f in enumerate(maps):
            b = f(a)
            w = tuple(x + (1 if j == i else 0) for j, x in enumerate(words[a]))
            if tree[b] == (a, i):
                words[b] = w
            else:
                relations.append(tuple(x - y for x, y in zip(w, words[b])))
    D, U, _V = smith_normal_form(from_columns(relations, len(gens)),
                                 len(relations))
    diag = [D[i][i] if i < len(relations) else 0 for i in range(len(gens))]
    if any(d == 0 for d in diag):
        raise AssertionError("finite abelian group with a free factor?")
    chars = []
    ranges = [range(d) for d in diag]
    for t in product(*ranges):
        table = {}
        for a in group.elements:
            y = [sum(U[i][j] * words[a][j] for j in range(len(gens)))
                 for i in range(len(gens))]
            expo = sum(Fraction(ti * yi, d) for ti, yi, d in zip(t, y, diag)
                       if d > 1)
            table[a] = Cyclo.root_of_unity(expo)
        chars.append(table)
    if len(chars) != len(group):
        raise AssertionError("abelian character count mismatch")
    return tuple(chars)


def small_generating_set(group: FiniteGroup):
    gens = []
    generated = {group.identity}
    for a in sorted(group.elements, key=group._sort_key):
        if a in generated:
            continue
        gens.append(a)
        generated = set(group.generated(gens))
        if len(generated) == len(group):
            break
    return gens


# ---------------------------------------------------------------------------
# routines only the tests call

def sign_flips(rank: int):
    """The coordinate sign flips of Z^rank, generating (Z/2)^rank: the
    component group of O(2)^rank acting on its identity component's
    torus."""
    return [tuple(tuple(-1 if i == j == k else int(i == j)
                        for j in range(rank)) for i in range(rank))
            for k in range(rank)]


def cut_disconnected_datum(cut):
    """The Levi cut as a disconnected group: its roots and their coroots,
    with the component elements other than the identity acting through
    `char_action`."""
    param = cut.param
    ordered = cut.roots
    datum = BasedRootDatum(
        param.dim, ordered,
        tuple(param.coroots[r] for r in ordered),
        _simple_positions(ordered, cut.positives),
        "%s|levi%s" % (param.label or "sphi", sorted(cut.levi)))
    gens = tuple(param.char_action(g) for g in cut.component_elements
                 if g != param.group.relative.identity)
    return DisconnectedGroupDatum(datum, gens)


def natural_quotient_rep(datum, pair, kill_lattice_basis):
    """Certify that the highest-weight module is a character of the identity
    component that kills the given sublattice, and return the descended
    label.  Raises on failure (which signals a caller bug, not bad input).
    """
    lam = pair.weight
    d = datum.component
    bform = _invariant_form(d)
    for i in d.positive_root_indices():
        if _form_value(bform, lam, d.roots[i]) != 0:
            raise AssertionError(
                "descent certificate failed: weight pairs nontrivially with "
                "a root, so the module is not one-dimensional")
    for v in kill_lattice_basis:
        if dot(lam, v) != 0:
            raise AssertionError(
                "descent certificate failed: weight does not kill the "
                "derived-intersection sublattice")
    return {"weight": lam, "module": pair.module.label(), "descends": True}


# ---------------------------------------------------------------------------
# description-file writers: parse -> serialize -> parse is the identity on
# the data each loader of `rk.files` carries

def dump_tree(tree: Dict, path: Optional[str] = None) -> str:
    import yaml
    text = yaml.safe_dump(tree, sort_keys=True, default_flow_style=None)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _datum_to_tree(kind: str, name: str, datum: BasedRootDatum) -> Dict:
    return {
        "kind": kind,
        "name": name,
        "rank": datum.rank,
        "roots": [list(r) for r in datum.roots],
        "coroots": [list(c) for c in datum.coroots],
        "simple": list(datum.simple_indices),
    }


def group_to_tree(group: ReductiveGroup) -> Dict:
    tree = _datum_to_tree("group", group.name, group.datum)
    if not group.galois.is_trivial():
        tree["galois"] = [[list(row) for row in g]
                          for g in group.galois.char_generators]
    return tree


def parameter_to_tree(param, group_ref: str) -> Dict:
    amb = []
    pos = []
    for r in param.roots:
        for a in param.ambient_of_root[r]:
            amb.append(list(a))
            if r in set(param.positives):
                pos.append(list(a))
    return {
        "kind": "parameter",
        "group": group_ref,
        "label": param.label,
        "minimal_levi": sorted(param.minimal_levi),
        "sphi_roots": amb,
        "sphi_positive": pos,
        "r_phi_words": [list(param.group.relative.word(r))
                        for r in param.r_generators],
    }


def endoscopy_to_tree(endo, group_ref: str) -> Dict:
    return {
        "kind": "endoscopy",
        "group": group_ref,
        "label": endo.label,
        "s": [str(x) for x in endo.s],
    }


def disconnected_to_tree(holder: DisconnectedGroupDatum) -> Dict:
    tree = _datum_to_tree("disconnected", holder.name, holder.component)
    gens = holder.declared_generators
    tree["component_generators"] = [[list(row) for row in g] for g in gens]
    if holder.cocycle:
        # pi0's breadth-first words: pi0 is generated by `gens`, then the
        # identity, so each is a shortest word in `gens`
        word = holder.pi0.word
        tree["cocycle"] = sorted([list(word(a)), list(word(b)), str(v)]
                                 for (a, b), v in holder.cocycle.items())
    return tree


# ---------------------------------------------------------------------------
# the group and disconnected-group preset tables, built at import with
# `lattice.mat` and `BasedRootDatum` itself

def _preset_gl_datum(n: int) -> BasedRootDatum:
    roots = []
    coroots = []
    simple = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = tuple(1 if k == i else (-1 if k == j else 0) for k in range(n))
            roots.append(v)
            coroots.append(v)
            if j == i + 1:
                simple.append(len(roots) - 1)
    return BasedRootDatum(n, tuple(roots), tuple(coroots), tuple(simple),
                          "gl%d" % n)


def _preset_sl_datum(n: int) -> BasedRootDatum:
    rank = n - 1
    cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
               for j in range(rank)] for i in range(rank)]
    simple_roots = [tuple(row) for row in cartan]
    simple_coroots = [tuple(1 if k == i else 0 for k in range(rank))
                      for i in range(rank)]
    return _preset_from_simples(rank, simple_roots, simple_coroots,
                                "sl%d" % n)


def _preset_from_simples(rank, simple_roots, simple_coroots, name):
    def reflect(i, pair):
        (r, c), sr, sc = pair, simple_roots[i], simple_coroots[i]
        return vsub(r, vscale(dot(r, sc), sr)), vsub(c, vscale(dot(sr, c), sc))

    coroot = dict(orbit(
        zip(map(tuple, simple_roots), map(tuple, simple_coroots)),
        [partial(reflect, i) for i in range(len(simple_roots))]).keys())
    roots = sorted(coroot)
    coroots = [coroot[r] for r in roots]
    simple = [roots.index(tuple(r)) for r in simple_roots]
    return BasedRootDatum(rank, tuple(roots), tuple(coroots), tuple(simple),
                          name)


def _preset_torus(rank: int, name: str) -> BasedRootDatum:
    return BasedRootDatum(rank, (), (), (), name)


def _preset_gl2x2_datum() -> BasedRootDatum:
    roots = [(1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1)]
    return BasedRootDatum(4, tuple(roots), tuple(roots), (0, 2), "gl2x2")


_SWAP4 = mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
_U3_FLIP = mat([[0, 0, -1], [0, -1, 0], [-1, 0, 0]])
_SWAP2 = mat([[0, 1], [1, 0]])
_SO6_SIMPLE = [(1, -1, 0), (0, 1, -1), (0, 1, 1)]

# name -> (datum builder, Galois generators on characters)
PRESET_GROUPS = {
    **{"gl%d" % n: (partial(_preset_gl_datum, n), ()) for n in range(1, 7)},
    **{"sl%d" % n: (partial(_preset_sl_datum, n), ()) for n in range(2, 5)},
    "pgl2": (partial(BasedRootDatum, 1, ((1,), (-1,)), ((2,), (-2,)), (0,),
                     "pgl2"), ()),
    "sp4": (partial(_preset_from_simples, 2, [(1, -1), (0, 2)],
                    [(1, -1), (0, 1)], "sp4"), ()),
    "so4": (partial(_preset_from_simples, 2, [(1, -1), (1, 1)],
                    [(1, -1), (1, 1)], "so4"), ()),
    "so6": (partial(_preset_from_simples, 3, _SO6_SIMPLE, _SO6_SIMPLE,
                    "so6"), ()),
    "gl2x2": (_preset_gl2x2_datum, ()),
    "gl2x2-swap": (_preset_gl2x2_datum, (_SWAP4,)),
    "u3": (partial(_preset_gl_datum, 3), (_U3_FLIP,)),
    "res-quad-torus": (partial(_preset_torus, 2, "res-quad-torus"),
                       (_SWAP2,)),
}

# name -> (identity-component datum builder, component generators)
PRESET_DISCONNECTED = {
    "o2": (partial(_preset_torus, 1, "so2"), (mat([[-1]]),)),
    "gl1x1-swap": (partial(_preset_torus, 2, "gl1x1"), (_SWAP2,)),
    "gl2-conn": (partial(_preset_gl_datum, 2), ()),
    "sl2-conn": (partial(_preset_sl_datum, 2), ()),
    "sl3-conn": (partial(_preset_sl_datum, 3), ()),
}


def preset_group_by_table(name: str) -> ReductiveGroup:
    build, galois = PRESET_GROUPS[name]
    datum = build()
    return ReductiveGroup(datum, GaloisAction(datum, galois), name=name)


def preset_disconnected_by_table(name: str) -> DisconnectedGroupDatum:
    build, gens = PRESET_DISCONNECTED[name]
    return DisconnectedGroupDatum(build(), gens, name=name)
