"""Algebraic representation theory of disconnected reductive groups.

A disconnected group is modeled by a based root datum for its identity
component together with a finite component group acting faithfully on
the character lattice while preserving the base, plus an optional
2-cocycle (root-of-unity exponents) twisting the stabilizer algebras.
Irreducible representations are classified by pairs (lambda, E): a
dominant weight up to the component action and a simple module of the
twisted stabilizer algebra.  Characters are evaluated exactly, with
values in cyclotomic fields.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Dict, Optional, Sequence, Tuple

from .cyclotomic import Cyclo
from .finite_reps import FiniteGroup, Module, simple_modules
from .lattice import (
    Matrix,
    SmithSolver,
    Value,
    Vector,
    cached,
    dot,
    from_columns,
    mat_identity,
    mat_vec,
    vadd,
    vsub,
)
from .rootdata import BasedRootDatum, GaloisAction


class UnsupportedTraceError(NotImplementedError):
    """Raised instead of ever returning a wrong number: the requested
    twisted trace needs explicit data that was not supplied."""


class HighestWeightPair(Value):
    """(dominant weight, simple module of the twisted stabilizer algebra)."""

    def __init__(self, weight: Vector, module: Module):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "module", module)

    def label(self) -> Tuple:
        return (self.weight, self.module.label())


class DisconnectedGroupDatum:
    """Identity-component datum plus a base-preserving component action,
    whose generators `rootdata.GaloisAction` checks."""

    def __init__(self, identity_component: BasedRootDatum,
                 component_generators: Sequence[Matrix] = (),
                 cocycle: Optional[Dict] = None, name: str = ""):
        self.component = identity_component
        self.name = name
        gens = tuple(component_generators)
        self.declared_generators = gens
        GaloisAction(identity_component, gens)
        self.pi0 = FiniteGroup.from_matrices(
            gens + (mat_identity(identity_component.rank),))
        self.cocycle = dict(cocycle) if cocycle else {}
        if self.cocycle:
            from .finite_reps import validate_cocycle
            validate_cocycle(self.pi0, self.cocycle)
        #: ("modules", elements): simple modules of that stabilizer in pi0
        self.memo: Dict = {}

    # -- weights -------------------------------------------------------------

    def is_dominant(self, weight: Sequence[int]) -> bool:
        d = self.component
        return all(dot(weight, d.coroots[i]) >= 0 for i in d.simple_indices)

    def orbit_of_weight(self, weight: Vector) -> Tuple[Vector, ...]:
        return tuple(sorted({mat_vec(g, weight) for g in self.pi0.elements}))

    def canonical_weight(self, weight: Vector) -> Vector:
        """Lexicographically greatest member of the component orbit (all
        members are dominant together, since the action preserves the base)."""
        return max(self.orbit_of_weight(weight))

    def stabilizer_modules(self, weight: Sequence[int]) -> Tuple[Module, ...]:
        """Simple modules of the twisted algebra of the stabilizer of a
        dominant weight, computed once per stabilizer subgroup."""
        a_lam = stabilizer_A_lambda(self, weight)
        return cached(self.memo, ("modules", a_lam.elements),
                      self._simple_modules, a_lam)

    def _simple_modules(self, a_lam: FiniteGroup) -> Tuple[Module, ...]:
        keep = set(a_lam.elements)
        return simple_modules(a_lam, {(a, b): v for (a, b), v in
                                      self.cocycle.items()
                                      if a in keep and b in keep})


def stabilizer_A_lambda(datum: DisconnectedGroupDatum,
                        weight: Sequence[int]) -> FiniteGroup:
    """The stabilizer of a dominant weight inside the component group."""
    if not datum.is_dominant(weight):
        raise ValueError("stabilizer_A_lambda needs a dominant weight")
    w = tuple(weight)
    fixed = [g for g in datum.pi0.elements if mat_vec(g, w) == w]
    # a weight that every component fixes is stabilized by all of pi0
    return datum.pi0 if len(fixed) == len(datum.pi0) else \
        datum.pi0.subgroup(fixed)


# ---------------------------------------------------------------------------
# weight multiplicities (Freudenthal recursion)

class WeightMultiplicityTable:
    """Exact weight multiplicities of the irreducible highest-weight module."""

    def __init__(self, weight: Vector, table: Dict[Vector, int], dimension: int):
        self.highest = weight
        self.table = dict(table)
        self.dimension = dimension

    def multiplicity(self, mu: Sequence[int]) -> int:
        return self.table.get(tuple(mu), 0)

    def items(self):
        return sorted(self.table.items())


def _invariant_form(datum: BasedRootDatum):
    """Weyl-invariant symmetric form on the character side: the Gram
    matrix of coroot evaluations, (u, v) = sum over coroots of
    <u, beta^vee><v, beta^vee>."""
    n = datum.rank
    b = [[Fraction(0)] * n for _ in range(n)]
    for c in datum.coroots:
        for i in range(n):
            for j in range(n):
                b[i][j] += Fraction(c[i] * c[j])
    return tuple(tuple(row) for row in b)


def _form_value(bform, u, v) -> Fraction:
    return sum(bform[i][j] * u[i] * v[j]
               for i in range(len(u)) for j in range(len(v)))


def weyl_dimension(datum: BasedRootDatum, weight: Sequence[int]) -> int:
    """Product formula for the dimension of the highest-weight module."""
    pos = [datum.roots[i] for i in datum.positive_root_indices()]
    if not pos:
        return 1
    bform = _invariant_form(datum)
    rho = tuple(sum(Fraction(r[i]) for r in pos) / 2 for i in range(datum.rank))
    num = Fraction(1)
    den = Fraction(1)
    lam = tuple(Fraction(x) for x in weight)
    for a in pos:
        num *= _form_value(bform, vadd(lam, rho), a)
        den *= _form_value(bform, rho, a)
    d = num / den
    if d.denominator != 1 or d <= 0:
        raise AssertionError("Weyl dimension came out non-integral")
    return int(d)


def weight_multiplicities(datum: BasedRootDatum,
                          weight: Sequence[int]) -> WeightMultiplicityTable:
    """Freudenthal recursion; the total is checked against the Weyl
    dimension formula on every call."""
    lam = tuple(int(x) for x in weight)
    for i in datum.simple_indices:
        if dot(lam, datum.coroots[i]) < 0:
            raise ValueError("weight_multiplicities needs a dominant weight")
    pos = [datum.roots[i] for i in datum.positive_root_indices()]
    if not pos:
        return WeightMultiplicityTable(lam, {lam: 1}, 1)
    bform = _invariant_form(datum)
    rho = tuple(sum(Fraction(r[i]) for r in pos) / 2
                for i in range(datum.rank))
    simples = list(datum.simple_roots)
    solve = SmithSolver(from_columns(simples, datum.rank), len(simples)).solve
    table: Dict[Vector, int] = {lam: 1}
    lam_rho = vadd(tuple(Fraction(x) for x in lam), rho)
    norm_top = _form_value(bform, lam_rho, lam_rho)
    level = [lam]
    while level:
        candidates = set()
        for mu in level:
            for s in simples:
                candidates.add(vsub(mu, s))
        nxt = []
        for mu in sorted(candidates):
            if mu in table:
                continue
            acc = Fraction(0)
            for a in pos:
                j = 1
                while True:
                    up = vadd(mu, tuple(j * x for x in a))
                    m_up = table.get(up)
                    if m_up is None:
                        # either outside the computed cone (multiplicity 0)
                        # or not yet reached; both contribute nothing
                        if not _dominates(lam, up, solve):
                            break
                        m_up = 0
                    if m_up:
                        acc += 2 * m_up * _form_value(bform, up, a)
                    j += 1
                    if j > 4 * (sum(abs(x) for x in lam) + len(pos) + 4):
                        break
            mu_rho = vadd(tuple(Fraction(x) for x in mu), rho)
            denom = norm_top - _form_value(bform, mu_rho, mu_rho)
            if denom == 0:
                m = 0
            else:
                m_frac = acc / denom
                if m_frac.denominator != 1 or m_frac < 0:
                    raise AssertionError("Freudenthal produced a non-integer")
                m = int(m_frac)
            if m > 0:
                table[mu] = m
                nxt.append(mu)
        level = nxt
    dim = sum(table.values())
    expected = weyl_dimension(datum, lam)
    if dim != expected:
        raise AssertionError("weight multiplicity total %d != Weyl dimension %d"
                             % (dim, expected))
    return WeightMultiplicityTable(lam, table, dim)


def _dominates(lam, mu, solve):
    """mu <= lam in the root order: lam - mu a nonnegative combination of
    the simple roots, by `solve`, a kept integer factorization of them.
    Every weight the Freudenthal recursion meets lies in lam minus the root
    lattice, and the simple roots are independent, so the combination is
    the unique integer one."""
    sol = solve(vsub(lam, mu))
    return sol is not None and all(c >= 0 for c in sol)


# ---------------------------------------------------------------------------
# classification

#: most weights `classify_irr` walks in its box of (height_bound+1)^rank
MAX_WEIGHT_BOX = 10**6


def classify_irr(datum: DisconnectedGroupDatum, height_bound: int):
    """Representatives (lambda, E) of the irreducible classes whose weight
    has all coordinates in [0, height_bound].

    The weight representative is the lexicographically greatest member of
    its component orbit; modules come from the (possibly twisted)
    stabilizer algebra.
    """
    if height_bound < 0:
        raise ValueError("height bound must be >= 0")
    n = datum.component.rank
    if (height_bound + 1) ** n > MAX_WEIGHT_BOX:
        raise ValueError(
            "height bound %d gives a box of (%d+1)^%d weights, over the "
            "limit of %d" % (height_bound, height_bound, n, MAX_WEIGHT_BOX))
    seen = set()
    out = []
    for coords in iproduct(range(height_bound + 1), repeat=n):
        lam = tuple(coords)
        if not datum.is_dominant(lam):
            continue
        rep = datum.canonical_weight(lam)
        if rep in seen:
            continue
        seen.add(rep)
        for m in datum.stabilizer_modules(rep):
            out.append(HighestWeightPair(rep, m))
    return sorted(out, key=lambda p: (p.weight, p.label()))


# ---------------------------------------------------------------------------
# character evaluation

def char_eval(datum: DisconnectedGroupDatum, pair: HighestWeightPair,
              torus_functional: Callable[[Vector], object],
              component: Optional[Matrix] = None,
              twist_provider: Optional[Callable] = None):
    """Trace of a semisimple element on the induced irreducible module.

    `torus_functional` evaluates the torus part on a weight (any ring the
    caller likes: Cyclo for exact roots of unity, Fraction for numeric
    specializations).  With `component` None or the identity, only
    identity-component cosets contribute and the value is

        dim(E) * sum over component cosets x of sum_mu m_mu t(x . mu).

    For a nontrivial component the twisted traces on the highest-weight
    module are not computed symbolically; a `twist_provider(weight,
    functional, component)` must supply them, otherwise
    UnsupportedTraceError is raised (never a wrong number).
    """
    lam = pair.weight
    a_lam = stabilizer_A_lambda(datum, lam)
    stab = set(a_lam.elements)
    cosets = _coset_reps(datum.pi0, stab)
    wtab = weight_multiplicities(datum.component, lam)
    if component is None or component == datum.pi0.identity:
        total = None
        for x in cosets:
            for mu, m in wtab.items():
                v = torus_functional(mat_vec(x, mu))
                term = v * m if m != 1 else v
                total = term if total is None else total + term
        if total is None:
            total = Cyclo.zero()
        return total * pair.module.dim if pair.module.dim != 1 else total
    # nontrivial component
    if twist_provider is None:
        raise UnsupportedTraceError(
            "twisted trace along a nontrivial component needs explicit data")
    total = None
    pi0 = datum.pi0
    # x^-1.c.x lies in pi0, and so in the stabilizer, only if c does
    for x in (cosets if component in pi0 else ()):
        conj = pi0.mul(pi0.mul(pi0.inverse[x], component), x)
        if conj not in stab:
            continue
        chi_e = pair.module.chi(conj)
        def conj_functional(muvec, _x=x):
            return torus_functional(mat_vec(_x, muvec))
        tw = twist_provider(lam, conj_functional, conj)
        term = chi_e * tw
        total = term if total is None else total + term
    return total if total is not None else Cyclo.zero()


def _coset_reps(group: FiniteGroup, subgroup_elements: set):
    """The least element of each left coset g . H of a subgroup H."""
    index = group.index
    return [group.elements[min(coset)] for coset in group.double_cosets(
        (index[group.identity],), range(len(group)),
        [index[h] for h in subgroup_elements])]
