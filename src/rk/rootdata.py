"""Based root data with Galois action.

A datum realizes characters and cocharacters in the same Z^rank with the
standard dot-product pairing; non-self-paired groups (SL_n and friends)
are encoded by explicit root/coroot vectors rather than type labels.
On top of a validated datum this module builds the absolute Weyl group,
the relative (restricted) Weyl group of a finite Galois image, the
lattice of rational standard parabolics, and per-Levi data: the split
center on both sides of the duality, the character group of the
Galois-fixed dual center as a finitely generated abelian group, and the
exact rational isomorphism between it and the split-center cocharacter
space.

Matrix conventions, used consistently everywhere:

* group elements and Galois generators are stored as matrices acting on
  the character lattice X*(T) (column vectors);
* the induced action on the cocharacter lattice X_*(T) is the
  transpose-inverse;
* the dual datum identifies X*(T^) = X_*(T) and X_*(T^) = X*(T), so the
  X*(T)-matrix of an element acts directly on X_*(T^)-objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .lattice import (
    DEFAULT_CLOSURE_CAP,
    FgAbelianGroup,
    FgaElement,
    LatticeAction,
    Matrix,
    Vector,
    closure,
    coinvariants,
    dot,
    in_span,
    invariants_saturated,
    is_saturated,
    kernel_basis,
    mat,
    mat_contragredient,
    mat_identity,
    mat_inverse,
    mat_inverse_int,
    mat_mul,
    mat_transpose,
    mat_vec,
    solve_integer,
    solve_rational,
    vadd,
    vneg,
    vsub,
)


class DatumError(ValueError):
    """Raised when a based root datum or Galois action fails validation."""


def reflection_matrix(root: Vector, coroot: Vector) -> Matrix:
    """Matrix of x -> x - <x, coroot> root on the character lattice."""
    n = len(root)
    cols = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        cols.append(vsub(e, tuple(coroot[j] * r for r in root)))
    return mat_transpose(mat(cols))


@dataclass(frozen=True)
class BasedRootDatum:
    """A based root datum realized in Z^rank with the dot-product pairing."""

    rank: int
    roots: Tuple[Vector, ...]
    coroots: Tuple[Vector, ...]
    simple_indices: Tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.roots) != len(self.coroots):
            raise DatumError("roots and coroots must be parallel lists")
        for a, av in zip(self.roots, self.coroots):
            if len(a) != self.rank or len(av) != self.rank:
                raise DatumError("root vector of wrong length")
            if dot(a, av) != 2:
                raise DatumError("<alpha, alpha^vee> must equal 2")
        if len(set(self.roots)) != len(self.roots):
            raise DatumError("duplicate roots")
        idx = {r: i for i, r in enumerate(self.roots)}
        for i in self.simple_indices:
            if not 0 <= i < len(self.roots):
                raise DatumError("simple index out of range")
        # generalized Cartan matrix of finite type on the simples
        simples = [self.roots[i] for i in self.simple_indices]
        scoroots = [self.coroots[i] for i in self.simple_indices]
        for i, a in enumerate(simples):
            for j, bv in enumerate(scoroots):
                c = dot(a, bv)
                if i == j and c != 2:
                    raise DatumError("Cartan diagonal must be 2")
                if i != j and c > 0:
                    raise DatumError("Cartan off-diagonal must be <= 0")
        for i in range(len(simples)):
            for j in range(len(simples)):
                ci = dot(simples[i], scoroots[j])
                cj = dot(simples[j], scoroots[i])
                if (ci == 0) != (cj == 0):
                    raise DatumError("Cartan zero pattern must be symmetric")
        # every root must be a Weyl image of a simple root (also certifies
        # finite type: the closure is capped)
        gens = [reflection_matrix(self.roots[i], self.coroots[i])
                for i in self.simple_indices]
        if gens:
            orbit = set()
            frontier = list(simples)
            orbit.update(frontier)
            while frontier:
                new = []
                for r in frontier:
                    for g in gens:
                        img = mat_vec(g, r)
                        if img not in orbit:
                            orbit.add(img)
                            new.append(img)
                            if len(orbit) > 10000:
                                raise DatumError("root closure exploded; datum "
                                                 "is not of finite type")
                frontier = new
            if orbit != set(self.roots):
                raise DatumError("roots are not exactly the Weyl orbit of the "
                                 "simple roots")
        elif self.roots:
            raise DatumError("roots present but no simple roots given")
        # signs: every root is a +/- N-combination of simples
        positives = []
        for i, r in enumerate(self.roots):
            sol = solve_rational([self.roots[s] for s in self.simple_indices], r)
            if sol is None:
                raise DatumError("root outside the simple-root span")
            pos = all(c >= 0 for c in sol)
            neg = all(c <= 0 for c in sol)
            if not (pos or neg):
                raise DatumError("root has mixed signs in the simple basis")
            if pos:
                positives.append(i)
        object.__setattr__(self, "_root_index", idx)
        object.__setattr__(self, "_positive_indices", tuple(positives))
        object.__setattr__(self, "_positive_set", frozenset(positives))

    # -- basic queries ----------------------------------------------------

    def root_index(self, r: Vector) -> int:
        return self._root_index[tuple(r)]

    def is_root(self, r: Vector) -> bool:
        return tuple(r) in self._root_index

    @property
    def simple_roots(self) -> Tuple[Vector, ...]:
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self) -> Tuple[Vector, ...]:
        return tuple(self.coroots[i] for i in self.simple_indices)

    def positive_root_indices(self) -> Tuple[int, ...]:
        return self._positive_indices

    @property
    def positive_root_set(self) -> FrozenSet[int]:
        return self._positive_set

    def cartan_matrix(self) -> Matrix:
        return mat([[dot(self.roots[i], self.coroots[j])
                     for j in self.simple_indices] for i in self.simple_indices])

    def dual(self) -> "BasedRootDatum":
        """Swap roots with coroots (and the two lattice roles)."""
        return BasedRootDatum(self.rank, self.coroots, self.roots,
                              self.simple_indices,
                              self.name + "^" if self.name else "")


@dataclass(frozen=True)
class GaloisAction:
    """Finite Galois image acting on the character lattice.

    Each generator must preserve the based datum: it permutes the roots,
    permutes the simple roots, and transports coroots compatibly.
    """

    datum: BasedRootDatum
    generators: Tuple[Matrix, ...] = ()
    cap: int = DEFAULT_CLOSURE_CAP

    def __post_init__(self):
        n = self.datum.rank
        gens = self.generators or ()
        for g in gens:
            if len(g) != n or any(len(row) != n for row in g):
                raise DatumError("Galois matrix of wrong size")
        action = LatticeAction(gens or (mat_identity(n),), self.cap)
        object.__setattr__(self, "_action", action)
        object.__setattr__(self, "_dual_gens",
                           tuple(mat_contragredient(g) for g in action.generators))
        simple_set = set(self.datum.simple_indices)
        for g, gd in zip(action.generators, self._dual_gens):
            for i, r in enumerate(self.datum.roots):
                img = mat_vec(g, r)
                if not self.datum.is_root(img):
                    raise DatumError("Galois generator does not permute roots")
                j = self.datum.root_index(img)
                if mat_vec(gd, self.datum.coroots[i]) != self.datum.coroots[j]:
                    raise DatumError("Galois generator breaks root/coroot pairing")
            for i in self.datum.simple_indices:
                img = mat_vec(g, self.datum.roots[i])
                if self.datum.root_index(img) not in simple_set:
                    raise DatumError("Galois generator does not permute simples")

    @property
    def char_generators(self) -> Tuple[Matrix, ...]:
        return self._action.generators

    @property
    def cochar_generators(self) -> Tuple[Matrix, ...]:
        return self._dual_gens

    def char_elements(self) -> Tuple[Matrix, ...]:
        return self._action.elements()

    def is_trivial(self) -> bool:
        return all(g == mat_identity(self.datum.rank) for g in self.char_generators)

    def simple_permutation(self, g: Matrix) -> Dict[int, int]:
        """Permutation induced on positions within simple_indices."""
        out = {}
        for pos, i in enumerate(self.datum.simple_indices):
            img = self.datum.root_index(mat_vec(g, self.datum.roots[i]))
            out[pos] = self.datum.simple_indices.index(img)
        return out

    def dual(self, dual_datum: BasedRootDatum) -> "GaloisAction":
        """Transport to the dual datum (contragredient matrices)."""
        return GaloisAction(dual_datum, self._dual_gens, self.cap)


def dual_datum(datum: BasedRootDatum, action: GaloisAction):
    """The dual based root datum with its transported Galois action."""
    dd = datum.dual()
    return dd, action.dual(dd)


class WeylGroup:
    """A finite matrix group with one reduced word per element.

    `inverse[m]` and `contragredient[m]` (the action on the dual lattice)
    are tabulated for every element at construction.
    """

    def __init__(self, generators: Sequence[Matrix], rank: int,
                 cap: int = DEFAULT_CLOSURE_CAP):
        self.rank = rank
        self.generators = tuple(generators)
        if self.generators:
            order, words = closure(self.generators, cap)
        else:
            order, words = [mat_identity(rank)], {mat_identity(rank): ()}
        self.elements: Tuple[Matrix, ...] = tuple(sorted(order))
        self.words: Dict[Matrix, Tuple[int, ...]] = words
        self.identity: Matrix = mat_identity(rank)
        # inv(g.s) = s^-1.inv(g) along the closure order, which lists every
        # element after the prefix of its word; tabulated matrices that are
        # elements share the element's object
        gen_inv = [mat_inverse_int(s) for s in self.generators]
        by_word = {w: m for m, w in words.items()}
        canonical = {m: m for m in order}
        self.inverse: Dict[Matrix, Matrix] = {}
        for m in order:
            w = words[m]
            self.inverse[m] = canonical[mat_mul(
                gen_inv[w[-1]], self.inverse[by_word[w[:-1]]])] if w else m
        self.contragredient: Dict[Matrix, Matrix] = {}
        for m, inv in self.inverse.items():
            dual = mat_transpose(inv)
            self.contragredient[m] = canonical.get(dual, dual)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, m: Matrix):
        return m in self.words

    def word(self, m: Matrix) -> Tuple[int, ...]:
        return self.words[m]

    def from_word(self, word: Sequence[int]) -> Matrix:
        m = self.identity
        for i in word:
            m = mat_mul(m, self.generators[i])
        return m

    def subgroup(self, predicate) -> Tuple[Matrix, ...]:
        return tuple(m for m in self.elements if predicate(m))


class LeviContext:
    """All per-Levi data derived from a Gamma-stable simple subset.

    Attributes
    ----------
    split_center_basis : basis of X_*(A_L), the rational points of the
        split center of the Levi on the group side.
    dual_split_center_basis : basis of X_*(A_L^), the cocharacters of the
        identity component of the Gamma-fixed dual center.
    dual_center_characters : X*(Z(L^)^Gamma) as an FgAbelianGroup presented
        on X_*(T) = X*(T^).
    """

    def __init__(self, group: "ReductiveGroup", subset: FrozenSet[int]):
        self.group = group
        self.subset = frozenset(subset)
        datum = group.datum
        n = datum.rank
        orbit_union = set()
        for pos in self.subset:
            orbit_union.update(group.simple_orbit_of(pos))
        if orbit_union != set(self.subset):
            raise DatumError("Levi subset is not Galois stable")

        char_gens = group.galois.char_generators
        cochar_gens = group.galois.cochar_generators
        simple_roots = [datum.simple_roots[pos] for pos in sorted(self.subset)]
        simple_coroots = [datum.simple_coroots[pos] for pos in sorted(self.subset)]

        # X_*(A_L): Gamma-fixed (cocharacter action), killed by Levi roots
        rows = list(simple_roots)
        ident = mat_identity(n)
        for g in cochar_gens:
            for row_g, row_i in zip(g, ident):
                rows.append(vsub(row_g, row_i))
        self.split_center_basis = kernel_basis(mat(rows))

        # X_*(A_L^): Gamma-fixed (character action), killed by Levi coroots
        rows = list(simple_coroots)
        for g in char_gens:
            for row_g, row_i in zip(g, ident):
                rows.append(vsub(row_g, row_i))
        self.dual_split_center_basis = kernel_basis(mat(rows))

        if len(self.split_center_basis) != len(self.dual_split_center_basis):
            raise AssertionError("split center ranks disagree across duality")
        self.dim = len(self.split_center_basis)

        # X*(Z(L^)^Gamma) = (X_*(T) / Levi coroot lattice)_Gamma
        action = LatticeAction(cochar_gens)
        self.dual_center_characters: FgAbelianGroup = coinvariants(
            n, action, extra_relations=simple_coroots)

        # pairing matrix P[i][j] = <y_j, u_i> and its inverse
        Y = self.split_center_basis
        U = self.dual_split_center_basis
        self._P = mat([[dot(y, u) for y in Y] for u in U])
        self._Pinv = mat_inverse(self._P) if self.dim else ()

    # -- coordinate maps ---------------------------------------------------

    def restrict_ambient(self, v: Sequence) -> Tuple:
        """Functional coordinates of an X*(T^)-vector on X_*(A_L^)."""
        return tuple(dot(v, u) for u in self.dual_split_center_basis)

    def functional_of_kappa(self, kappa: FgaElement) -> Tuple:
        """The free functional on X_*(A_L^) attached to a dual-center character."""
        return self.restrict_ambient(self.dual_center_characters.section(kappa))

    def alpha(self, c: Sequence) -> Tuple:
        """X*(A_L^)_Q -> fraktur-A_L: the inverse of the restriction map."""
        if len(c) != self.dim:
            raise ValueError("functional of wrong length")
        if self.dim == 0:
            return (Fraction(0),) * self.group.datum.rank
        coeffs = mat_vec(self._Pinv, tuple(Fraction(x) for x in c))
        out = (Fraction(0),) * self.group.datum.rank
        for cf, y in zip(coeffs, self.split_center_basis):
            out = vadd(out, tuple(cf * yy for yy in y))
        return out

    def alpha_inv(self, point: Sequence) -> Tuple:
        """fraktur-A_L -> X*(A_L^)_Q, exact; raises if point not in the space."""
        sol = solve_rational(self.split_center_basis, point)
        if sol is None:
            raise ValueError("point does not lie in the split-center space")
        return mat_vec(self._P, sol)

    def kappa_from_functional(self, f: Sequence[int]) -> FgaElement:
        """The dual-center character with given free functional (torsion 0).

        The free part of X*(Z(L^)^Gamma) is canonically the character
        group of its identity component; a functional pins it exactly.
        Torsion coordinates are normalized to zero (they are not
        determined by a functional).
        """
        cols = mat_transpose(mat(self.dual_split_center_basis)) \
            if self.dim else mat([[ ] for _ in range(0)])
        if self.dim:
            v = solve_integer(mat(self.dual_split_center_basis), tuple(f))
        else:
            v = (0,) * self.group.datum.rank
        if v is None:
            raise ValueError("functional is not integral on X_*(A_L^)")
        e = self.dual_center_characters.element_from_ambient(v)
        return FgaElement(e.free, (0,) * len(e.torsion))

    def newton_point(self, kappa: FgaElement) -> Tuple:
        """alpha_L of (the rational restriction of) a dual-center character."""
        return self.alpha(self.functional_of_kappa(kappa))

    def root_indices(self) -> Tuple[int, ...]:
        """Indices of the ambient roots belonging to this Levi."""
        datum = self.group.datum
        simples = [datum.simple_roots[pos] for pos in sorted(self.subset)]
        out = []
        for i, r in enumerate(datum.roots):
            if simples and in_span(simples, r):
                out.append(i)
        return tuple(out)


class ReductiveGroup:
    """A based root datum bundled with a Galois action and derived machinery."""

    def __init__(self, datum: BasedRootDatum, galois: Optional[GaloisAction] = None,
                 name: str = ""):
        self.datum = datum
        self.galois = galois if galois is not None else GaloisAction(datum)
        self.name = name or datum.name
        self._levi_cache: Dict[FrozenSet[int], LeviContext] = {}
        self._levi_weyl: Dict[FrozenSet[int], Tuple[Matrix, ...]] = {}
        # filled by weyl.transporter_set, keyed by (levi1, levi2)
        self._transporters: Dict[Tuple[FrozenSet[int], FrozenSet[int]],
                                 Tuple[Matrix, ...]] = {}
        self._weyl: Optional[WeylGroup] = None
        self._restricted: Optional[Tuple[Matrix, ...]] = None
        self._relative: Optional[WeylGroup] = None
        self._orbits: Optional[Tuple[Tuple[int, ...], ...]] = None

    # -- absolute Weyl group ------------------------------------------------

    @property
    def weyl(self) -> WeylGroup:
        if self._weyl is None:
            gens = [reflection_matrix(self.datum.roots[i], self.datum.coroots[i])
                    for i in self.datum.simple_indices]
            self._weyl = WeylGroup(gens, self.datum.rank)
        return self._weyl

    # -- Galois orbit structure on simple positions -------------------------

    @property
    def simple_orbits(self) -> Tuple[Tuple[int, ...], ...]:
        """Galois orbits on positions 0..(#simples-1), sorted by least member."""
        if self._orbits is None:
            k = len(self.datum.simple_indices)
            seen = set()
            orbits = []
            for pos in range(k):
                if pos in seen:
                    continue
                orbit = {pos}
                frontier = [pos]
                while frontier:
                    new = []
                    for p in frontier:
                        for g in self.galois.char_generators:
                            perm = self.galois.simple_permutation(g)
                            q = perm[p]
                            if q not in orbit:
                                orbit.add(q)
                                new.append(q)
                    frontier = new
                seen |= orbit
                orbits.append(tuple(sorted(orbit)))
            self._orbits = tuple(sorted(orbits))
        return self._orbits

    def simple_orbit_of(self, pos: int) -> Tuple[int, ...]:
        for orb in self.simple_orbits:
            if pos in orb:
                return orb
        raise KeyError(pos)

    # -- relative Weyl group -------------------------------------------------

    @property
    def restricted_reflections(self) -> Tuple[Matrix, ...]:
        """One generator per Galois orbit of simples: the longest element of
        the parabolic subgroup the orbit generates."""
        if self._restricted is None:
            out = []
            for orb in self.simple_orbits:
                gens = [reflection_matrix(self.datum.simple_roots[p],
                                          self.datum.simple_coroots[p])
                        for p in orb]
                sub = WeylGroup(gens, self.datum.rank)
                longest = max(sub.elements, key=lambda m: (len(sub.word(m)), m))
                if mat_mul(longest, longest) != sub.identity:
                    raise AssertionError("longest element of an orbit "
                                         "parabolic must be an involution")
                out.append(longest)
            self._restricted = tuple(out)
        return self._restricted

    @property
    def relative(self) -> WeylGroup:
        """W^rel = Gamma-fixed Weyl elements, generated by the restricted
        simple reflections (verified against the brute-force fixed set)."""
        if self._relative is None:
            rel = WeylGroup(self.restricted_reflections, self.datum.rank)
            fixed = set(self.weyl.subgroup(self._commutes_with_galois))
            if set(rel.elements) != fixed:
                raise AssertionError("restricted reflections do not generate "
                                     "the Galois-fixed Weyl subgroup")
            self._relative = rel
        return self._relative

    def _commutes_with_galois(self, m: Matrix) -> bool:
        return all(mat_mul(g, m) == mat_mul(m, g)
                   for g in self.galois.char_generators)

    def cochar_matrix(self, m: Matrix) -> Matrix:
        """Action of a Weyl element on the cocharacter lattice."""
        return self.weyl.contragredient[m]

    # -- fixed subspace and chambers ------------------------------------------

    @property
    def fixed_cochar_basis(self) -> Tuple[Vector, ...]:
        """Basis of X_*(A_T) = Gamma-fixed cocharacters (all of X_* if split)."""
        action = LatticeAction(self.galois.cochar_generators)
        return invariants_saturated(self.datum.rank, action)

    def is_relative_point(self, x: Sequence) -> bool:
        return all(mat_vec(g, x) == tuple(x)
                   for g in self.galois.cochar_generators)

    def simple_pairing(self, x: Sequence) -> Tuple:
        """<alpha_i, x> for each simple position (constant on Galois orbits
        when x is a relative point)."""
        return tuple(dot(self.datum.simple_roots[pos], x)
                     for pos in range(len(self.datum.simple_indices)))

    def dominant(self, x: Sequence) -> bool:
        return all(p >= 0 for p in self.simple_pairing(x))

    def facet_levi(self, x: Sequence) -> FrozenSet[int]:
        """For dominant x: the simple positions pairing to zero (the Levi of
        the unique open facet containing x)."""
        pairing = self.simple_pairing(x)
        if any(p < 0 for p in pairing):
            raise ValueError("facet_levi needs a dominant point")
        return frozenset(pos for pos, p in enumerate(pairing) if p == 0)

    # -- Levis and parabolics ---------------------------------------------------

    def levi_context(self, subset) -> LeviContext:
        key = frozenset(subset)
        if key not in self._levi_cache:
            self._levi_cache[key] = LeviContext(self, key)
        return self._levi_cache[key]

    def standard_levi_subsets(self) -> Tuple[FrozenSet[int], ...]:
        """All Gamma-stable simple subsets (unions of orbits), ordered by
        size then lexicographically; contains the minimal Levi and G."""
        orbits = self.simple_orbits
        subsets = []
        for k in range(len(orbits) + 1):
            for combo in combinations(range(len(orbits)), k):
                s = frozenset().union(*[set(orbits[i]) for i in combo]) \
                    if combo else frozenset()
                subsets.append(s)
        return tuple(sorted(set(subsets), key=lambda s: (len(s), sorted(s))))

    def levi_weyl_elements(self, subset) -> Tuple[Matrix, ...]:
        """W^rel_L: relative Weyl elements fixing fraktur-A_L pointwise."""
        key = frozenset(subset)
        if key not in self._levi_weyl:
            basis = self.levi_context(key).split_center_basis
            rel = self.relative
            self._levi_weyl[key] = tuple(
                m for m in rel.elements
                if all(mat_vec(rel.contragredient[m], y) == y for y in basis))
        return self._levi_weyl[key]

    def full_subset(self) -> FrozenSet[int]:
        return frozenset(range(len(self.datum.simple_indices)))

    def dual(self) -> "ReductiveGroup":
        dd, da = dual_datum(self.datum, self.galois)
        return ReductiveGroup(dd, da, (self.name + "^") if self.name else "")


# ---------------------------------------------------------------------------
# module-level operation surface

def weyl_group(datum: BasedRootDatum) -> WeylGroup:
    """All Weyl elements as matrices on the character lattice, one reduced
    word each."""
    gens = [reflection_matrix(datum.roots[i], datum.coroots[i])
            for i in datum.simple_indices]
    return WeylGroup(gens, datum.rank)


def relative_weyl(group: ReductiveGroup) -> WeylGroup:
    return group.relative


def levi_data(group: ReductiveGroup, subset):
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


def standard_parabolics(group: ReductiveGroup) -> Tuple[FrozenSet[int], ...]:
    return group.standard_levi_subsets()
