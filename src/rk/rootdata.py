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

from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations
from math import lcm
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from .lattice import (
    FgAbelianGroup,
    FgaElement,
    Matrix,
    MatrixGroup,
    SmithSolver,
    Value,
    Vector,
    basis_orbits,
    cached,
    coinvariants,
    dot,
    fixed_point_rows,
    from_columns,
    invariants_saturated,
    kernel_basis,
    mat,
    mat_contragredient,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    orbit,
    row_rank,
)


class DatumError(ValueError):
    """Raised when a based root datum or a finite action on it fails
    validation."""


def reflection_matrix(root: Vector, coroot: Vector) -> Matrix:
    """Matrix of x -> x - <x, coroot> root on the character lattice."""
    n = len(root)
    return tuple(tuple(int(i == j) - coroot[j] * root[i] for j in range(n))
                 for i in range(n))


class BasedRootDatum(Value):
    """A based root datum realized in Z^rank with the dot-product pairing."""

    def __init__(self, rank: int, roots: Tuple[Vector, ...],
                 coroots: Tuple[Vector, ...], simple_indices: Tuple[int, ...],
                 name: str = ""):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "coroots", coroots)
        object.__setattr__(self, "simple_indices", simple_indices)
        object.__setattr__(self, "name", name)
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
        tree: Dict[Vector, Optional[tuple]] = {}
        if gens:
            try:
                tree = orbit(simples, [partial(mat_vec, g) for g in gens],
                             10000)
            except ValueError:
                raise DatumError("root closure exploded; datum "
                                 "is not of finite type") from None
            if tree.keys() != set(self.roots):
                raise DatumError("roots are not exactly the Weyl orbit of the "
                                 "simple roots")
        elif self.roots:
            raise DatumError("roots present but no simple roots given")
        if mat_det(mat([[dot(a, b) for b in simples] for a in simples])) == 0:
            raise DatumError("simple roots are linearly dependent")
        # simple-root coordinates, unique since the simples are independent,
        # read off the orbit tree: s_i.b = b - <b, alpha_i^vee> alpha_i
        coords = {a: tuple(int(p == q) for q in range(len(simples)))
                  for p, a in enumerate(simples)}
        for b, parent in tree.items():
            if parent is not None:
                q, i = parent
                c = list(coords[q])
                c[i] -= dot(q, scoroots[i])
                coords[b] = tuple(c)
        # signs: every root is a +/- N-combination of simples
        positives = []
        supports = []
        for i, r in enumerate(self.roots):
            sol = coords[r]
            pos = all(c >= 0 for c in sol)
            neg = all(c <= 0 for c in sol)
            if not (pos or neg):
                raise DatumError("root has mixed signs in the simple basis")
            if pos:
                positives.append(i)
            supports.append(frozenset(p for p, c in enumerate(sol) if c != 0))
        object.__setattr__(self, "_root_index", idx)
        object.__setattr__(self, "_simple_roots", tuple(simples))
        object.__setattr__(self, "_simple_coroots", tuple(scoroots))
        object.__setattr__(self, "_supports", tuple(supports))
        object.__setattr__(self, "_positive_indices", tuple(positives))
        object.__setattr__(self, "_positive_set", frozenset(positives))

    # -- basic queries ----------------------------------------------------

    def root_index(self, r: Vector) -> int:
        return self._root_index[tuple(r)]

    def is_root(self, r: Vector) -> bool:
        return tuple(r) in self._root_index

    @property
    def simple_roots(self) -> Tuple[Vector, ...]:
        return self._simple_roots

    @property
    def simple_coroots(self) -> Tuple[Vector, ...]:
        return self._simple_coroots

    def support(self, i: int) -> FrozenSet[int]:
        """Simple positions with a nonzero coefficient in root i."""
        return self._supports[i]

    def positive_root_indices(self) -> Tuple[int, ...]:
        return self._positive_indices

    @property
    def positive_root_set(self) -> FrozenSet[int]:
        return self._positive_set

    def dual(self) -> "BasedRootDatum":
        """Swap roots with coroots (and the two lattice roles)."""
        return BasedRootDatum(self.rank, self.coroots, self.roots,
                              self.simple_indices,
                              self.name + "^" if self.name else "")


def check_action_shapes(rank: int, generators: Sequence[Matrix]) -> None:
    """Raise DatumError unless every generator is a rank x rank matrix."""
    if any(len(g) != rank or any(len(row) != rank for row in g)
           for g in generators):
        raise DatumError("action matrix of wrong size")


class GaloisAction(Value):
    """A finite group of automorphisms of a based datum, given by matrices
    on the character lattice: the Galois image of a group, the component
    action of a disconnected group, or R_phi on a centralizer datum.

    This is the one check that some matrices generate such a group.  Each
    generator must be unimodular and preserve the based datum: it permutes
    the roots, permutes the simple roots, and transports coroots
    compatibly.  Finiteness is certified once, here, by the capped orbits
    of the basis vectors (`lattice.basis_orbits`); the contragredient
    generators then generate a group of the same order.
    """

    def __init__(self, datum: BasedRootDatum,
                 generators: Tuple[Matrix, ...] = ()):
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "generators", generators)
        n = self.datum.rank
        check_action_shapes(n, self.generators)
        gens = self.generators or (mat_identity(n),)
        if any(abs(mat_det(g)) != 1 for g in gens):
            raise ValueError("action matrices must have determinant +/-1")
        basis_orbits(gens)
        object.__setattr__(self, "_char_gens", gens)
        simple_set = set(self.datum.simple_indices)
        perms = []
        for g in gens:
            # g^-T sends coroot i to coroot j exactly when g^T sends j to i
            gt = mat_transpose(g)
            perm = []
            for i, r in enumerate(self.datum.roots):
                img = mat_vec(g, r)
                if not self.datum.is_root(img):
                    raise DatumError("action generator does not permute roots")
                j = self.datum.root_index(img)
                if mat_vec(gt, self.datum.coroots[j]) != self.datum.coroots[i]:
                    raise DatumError("action generator breaks root/coroot "
                                     "pairing")
                perm.append(j)
            if any(perm[i] not in simple_set for i in self.datum.simple_indices):
                raise DatumError("action generator does not permute simples")
            perms.append(tuple(perm))
        object.__setattr__(self, "_root_perms", tuple(perms))

    @property
    def char_generators(self) -> Tuple[Matrix, ...]:
        return self._char_gens

    @cached_property
    def cochar_generators(self) -> Tuple[Matrix, ...]:
        """The contragredient generators."""
        return tuple(map(mat_contragredient, self._char_gens))

    def is_trivial(self) -> bool:
        return all(g == mat_identity(self.datum.rank) for g in self.char_generators)

    @property
    def root_permutations(self) -> Tuple[Tuple[int, ...], ...]:
        """Per character generator: root index i -> index of g(roots[i])."""
        return self._root_perms

    def dual(self, dual_datum: BasedRootDatum) -> "GaloisAction":
        """Transport to the dual datum (contragredient matrices)."""
        return GaloisAction(dual_datum, self.cochar_generators)


def dual_datum(datum: BasedRootDatum, action: GaloisAction):
    """The dual based root datum with its transported Galois action."""
    dd = datum.dual()
    return dd, action.dual(dd)


class WeylGroup(MatrixGroup):
    """A group of Weyl elements of a datum, interned by its permutation of
    the roots, with the action of each element on the dual lattice.

    Every such group acts faithfully on the roots: an element fixing every
    root also fixes the annihilator of the coroots, and the two span the
    lattice.  `contragredient[m]` is m's transpose-inverse; a tabulated
    matrix that is an element is the element's own object.
    """

    def __init__(self, generators: Sequence[Matrix], rank: int,
                 roots: Sequence[Vector]):
        try:
            super().__init__(generators, rank, roots)
        except KeyError:
            raise DatumError("Weyl generator does not permute the roots") \
                from None
        self.contragredient: Dict[Matrix, Matrix] = {}
        for m, inv in self.inverse.items():
            dual = mat_transpose(inv)
            self.contragredient[m] = self._by_perm[self.perm[dual]] \
                if dual in self.perm else dual


class LeviContext:
    """One standard Levi L, given by a Gamma-stable simple subset.

    Building it checks the subset and lists L's roots (`root_indices`,
    those supported in the subset) and the positive ones.  The rest is
    computed on first read and kept: W^rel_L for the Weyl layer; for the
    Kottwitz layer the split centers X_*(A_L) and X_*(A_L^) (the identity
    component of the Gamma-fixed dual center), X*(Z(L^)^Gamma) presented
    on X_*(T) = X*(T^), and alpha_L: X*(A_L^)_Q -> fraktur-A_L, the inverse
    of the restriction `alpha_inv` (Kottwitz, Isocrystals with additional
    structure II, 4), over one denominator.
    """

    def __init__(self, group: "ReductiveGroup", subset: FrozenSet[int]):
        self.group = group
        self.subset = frozenset(subset)
        if not all(self.subset.issuperset(group.simple_orbit_of(pos))
                   for pos in self.subset):
            raise DatumError("Levi subset is not Galois stable")
        datum = group.datum
        self.root_indices = tuple(i for i in range(len(datum.roots))
                                  if datum.support(i) <= self.subset)
        self.positive_root_indices = tuple(
            i for i in self.root_indices if i in datum.positive_root_set)

    @cached_property
    def weyl_elements(self) -> Tuple[Matrix, ...]:
        """W^rel_L: relative Weyl elements fixing fraktur-A_L pointwise,
        generated by the restricted reflections of the orbits inside L."""
        group = self.group
        return group.relative.generated(
            [r for r, orb in zip(group.restricted_reflections,
                                 group.simple_orbits)
             if self.subset.issuperset(orb)])

    @cached_property
    def weyl_ids(self) -> Tuple[int, ...]:
        """`weyl_elements` as ids of W^rel, in the same order."""
        index = self.group.relative.index
        return tuple(index[m] for m in self.weyl_elements)

    def _simple(self, vectors) -> list:
        return [vectors[pos] for pos in sorted(self.subset)]

    @cached_property
    def _split_rows(self) -> Matrix:
        """X_*(A_L) is Gamma-fixed (cocharacter action) and killed by the
        Levi roots; its rational span is the common kernel of these rows."""
        group = self.group
        return mat(self._simple(group.datum.simple_roots) + fixed_point_rows(
            group.datum.rank, group.galois.cochar_generators))

    @cached_property
    def _dual_split_rows(self) -> Matrix:
        """The same for X_*(A_L^): the character action, the coroots."""
        group = self.group
        return mat(self._simple(group.datum.simple_coroots) + fixed_point_rows(
            group.datum.rank, group.galois.char_generators))

    @cached_property
    def dim(self) -> int:
        """dim A_L = rank - rank_Q(`_split_rows`), read without a basis."""
        n = self.group.datum.rank
        return n - row_rank(self._split_rows, n)

    @cached_property
    def _center_bases(self) -> Tuple[Tuple[Vector, ...], Tuple[Vector, ...]]:
        """(X_*(A_L), X_*(A_L^)), both of rank `dim`."""
        n = self.group.datum.rank
        split = kernel_basis(self._split_rows, n)
        dual = kernel_basis(self._dual_split_rows, n)
        if len(split) != len(dual):
            raise AssertionError("split center ranks disagree across duality")
        if len(split) != self.dim:
            raise AssertionError("split center basis disagrees with dim")
        return split, dual

    split_center_basis = cached_property(lambda self: self._center_bases[0])
    dual_split_center_basis = cached_property(
        lambda self: self._center_bases[1])

    @cached_property
    def dual_center_characters(self) -> FgAbelianGroup:
        """X*(Z(L^)^Gamma) = (X_*(T) / Levi coroot lattice)_Gamma."""
        group = self.group
        return coinvariants(
            group.datum.rank, group.galois.cochar_generators,
            extra_relations=self._simple(group.datum.simple_coroots))

    @cached_property
    def _P(self) -> Matrix:
        """The pairing matrix P[i][j] = <y_j, u_i>."""
        return mat([[dot(y, u) for y in self.split_center_basis]
                    for u in self.dual_split_center_basis])

    @cached_property
    def _alpha(self) -> Tuple[Matrix, int]:
        """alpha_L = Y^T P^-1 as (integer numerators, one denominator)."""
        alpha_q = mat_mul(from_columns(self.split_center_basis,
                                       self.group.datum.rank),
                          mat_inverse(self._P))
        den = lcm(*(x.denominator for row in alpha_q for x in row))
        return tuple(tuple(int(x * den) for x in row) for row in alpha_q), den

    def restrict_ambient(self, v: Sequence) -> Tuple:
        """Functional coordinates of an X*(T^)-vector on X_*(A_L^)."""
        return tuple(dot(v, u) for u in self.dual_split_center_basis)

    def in_dual_split_span(self, v: Sequence[int]) -> bool:
        """Whether an X*(T^)-vector lies in the span of X_*(A_L^) over Q."""
        return not any(dot(row, v) for row in self._dual_split_rows)

    def functional_of_kappa(self, kappa: FgaElement) -> Tuple:
        """The free functional on X_*(A_L^) attached to a dual-center character."""
        return self.restrict_ambient(self.dual_center_characters.section(kappa))

    def alpha(self, c: Sequence) -> Tuple:
        """X*(A_L^)_Q -> fraktur-A_L: the inverse of the restriction map."""
        if len(c) != self.dim:
            raise ValueError("functional of wrong length")
        num, den = self._alpha
        return tuple(Fraction(dot(row, c), den) for row in num)

    def alpha_inv(self, point: Sequence) -> Optional[Tuple]:
        """fraktur-A_L -> X*(A_L^)_Q: the restriction of a point of the
        split-center space (ints for an integer point, Fractions for a
        Fraction point), or None for a point off that space, which is the
        common kernel of `_split_rows`."""
        if any(dot(row, point) for row in self._split_rows):
            return None
        return self.restrict_ambient(point)

    @cached_property
    def dual_center_solver(self) -> SmithSolver:
        """The Smith factorization of the dual split-center basis (as rows),
        made on first use: integer extensions of functionals and the
        basis's annihilator."""
        return SmithSolver(mat(self.dual_split_center_basis),
                           self.group.datum.rank)

    def kappa_from_functional(self, f: Sequence[int]) -> FgaElement:
        """The dual-center character with given free functional (torsion 0).

        The free part of X*(Z(L^)^Gamma) is canonically the character
        group of its identity component; a functional pins it exactly.
        Torsion coordinates are normalized to zero (they are not
        determined by a functional).
        """
        v = self.dual_center_solver.solve(tuple(f))
        if v is None:
            raise ValueError("functional is not integral on X_*(A_L^)")
        e = self.dual_center_characters.element_from_ambient(v)
        return FgaElement(e.free, (0,) * len(e.torsion))

    def newton_scaled(self, kappa: FgaElement) -> Tuple[Vector, int]:
        """newton_point(kappa) as integer numerators over alpha_L's one
        denominator."""
        num, den = self._alpha
        return mat_vec(num, self.functional_of_kappa(kappa)), den

    def newton_point(self, kappa: FgaElement) -> Tuple:
        """alpha_L of (the rational restriction of) a dual-center character."""
        return self.alpha(self.functional_of_kappa(kappa))


class ScaledPoint(tuple):
    """A rational point carrying the integer chamber kernel of the group
    that made it.

    The tuple holds the point's Fractions, so it compares, hashes, prints
    and JSON-encodes as the plain tuple.  For some scale d > 0,
    `numerators` is the integer point d.x and `pairings` the table
    <root_i, d.x> over every root of `group`'s datum; a tuple subclass
    takes no slots, so the three live in the instance dict.
    `weyl.chamber_locate` returns its image as one, and `group` reads the
    table back (`pairing_table`, `simple_pairing`) instead of rebuilding
    it; any other group recomputes.
    """


class ReductiveGroup:
    """A based root datum bundled with a Galois action and derived machinery."""

    def __init__(self, datum: BasedRootDatum, galois: Optional[GaloisAction] = None,
                 name: str = ""):
        self.datum = datum
        self.galois = galois if galois is not None else GaloisAction(datum)
        self.name = name or datum.name
        #: ("restricted",), ("relative",): the two properties; ("levi", L):
        #: `levi_context`; ("transporters", L1, L2): `weyl.transporter_set`.
        self.memo: Dict = {}

    # -- absolute Weyl group ------------------------------------------------

    @cached_property
    def weyl(self) -> WeylGroup:
        return weyl_group(self.datum)

    # -- Galois orbit structure on simple positions -------------------------

    @cached_property
    def simple_orbits(self) -> Tuple[Tuple[int, ...], ...]:
        """Galois orbits on positions 0..(#simples-1), sorted by least member."""
        simple = self.datum.simple_indices
        # each Galois generator's permutation of the simple positions
        maps = [[simple.index(p[i]) for i in simple].__getitem__
                for p in self.galois.root_permutations]
        return tuple(sorted({tuple(sorted(orbit((pos,), maps)))
                             for pos in range(len(simple))}))

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
        return cached(self.memo, ("restricted",), self._restricted)

    def _restricted(self) -> Tuple[Matrix, ...]:
        weyl = self.weyl
        out = []
        for orb in self.simple_orbits:
            sub = weyl.generated([weyl.generators[p] for p in orb])
            longest = max(sub, key=lambda m: len(weyl.word(m)))
            if weyl.mul(longest, longest) != weyl.identity:
                raise AssertionError("longest element of an orbit "
                                     "parabolic must be an involution")
            out.append(longest)
        return tuple(out)

    @property
    def relative(self) -> WeylGroup:
        """W^rel = Gamma-fixed Weyl elements, generated by the restricted
        simple reflections (verified against the brute-force fixed set).
        When every simple Galois orbit is a singleton these are the simple
        reflections in order, and the group is `weyl` itself."""
        return cached(self.memo, ("relative",), self._relative)

    def _relative(self) -> WeylGroup:
        gens = self.restricted_reflections
        rel = self.weyl if gens == self.weyl.generators else \
            WeylGroup(gens, self.datum.rank, self.datum.roots)
        # g.m.g^-1 lies in W, which acts faithfully on the roots, so m
        # commutes with g iff their root permutations commute
        gperms = self.galois.root_permutations
        perm = self.weyl.perm

        def commutes_with_galois(m: Matrix) -> bool:
            pm = perm[m]
            return all(pg[pm[i]] == pm[pg[i]]
                       for pg in gperms for i in range(len(pm)))

        if rel.elements != tuple(filter(commutes_with_galois,
                                        self.weyl.elements)):
            raise AssertionError("restricted reflections do not generate "
                                 "the Galois-fixed Weyl subgroup")
        return rel

    # -- root-permutation tables of the chamber kernel -------------------------
    #
    # Elements of W^rel act on a point's root-pairing table by permuting it
    # (Casselman, "Machine calculations in Weyl groups", Invent. Math. 116
    # (1994)); each table is built on first use and kept.

    @cached_property
    def ascent_table(self) -> Tuple[Tuple[int, ...], Tuple, int]:
        """(head root of each simple Galois orbit, (perm[r], perm[r^-1]) for
        its restricted reflection r, the step bound 4.|W^rel|): what
        `weyl.chamber_locate` reads."""
        rel = self.relative
        simple = self.datum.simple_indices
        return (tuple(simple[orb[0]] for orb in self.simple_orbits),
                tuple((rel.perm[r], rel.perm[rel.inverse[r]])
                      for r in self.restricted_reflections),
                4 * len(rel.elements))

    @cached_property
    def stabilizer_table(self) -> Tuple[object, Tuple]:
        """(getter of a root table's entries at the simple roots, (m, getter
        of its entries at m's images of the simple roots) for each m of
        W^rel in order): what `weyl.stabilizer` reads."""
        rel = self.relative
        simple = self.datum.simple_indices

        def getter(indices):
            # itemgetter needs an index; with one it returns the bare entry
            return itemgetter(*indices) if indices else lambda p: ()

        return getter(simple), tuple(
            (m, getter([rel.perm[m][i] for i in simple])) for m in rel.elements)

    # -- fixed subspace and chambers ------------------------------------------

    @property
    def fixed_cochar_basis(self) -> Tuple[Vector, ...]:
        """Basis of X_*(A_T) = Gamma-fixed cocharacters (all of X_* if split)."""
        return invariants_saturated(self.datum.rank,
                                    self.galois.cochar_generators)

    @cached_property
    def _moving_cochar_generators(self) -> Tuple[Matrix, ...]:
        """The cocharacter Galois generators other than the identity (none
        for a split group)."""
        ident = mat_identity(self.datum.rank)
        return tuple(g for g in self.galois.cochar_generators if g != ident)

    def is_relative_point(self, x: Sequence) -> bool:
        x = tuple(x)
        return all(mat_vec(g, x) == x for g in self._moving_cochar_generators)

    # -- the integer chamber kernel -------------------------------------------
    #
    # Scaling a rational point by d > 0 keeps the sign of every pairing and
    # every equality between pairings, so chambers, facets and stabilizers
    # are read from d.x and its integer pairings with the roots.

    @staticmethod
    def integer_point(x: Sequence) -> Tuple[int, Vector]:
        """(d, d.x) for d the lcm of the denominators of a rational point."""
        x = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in x]
        d = lcm(*(v.denominator for v in x))
        return d, tuple(v.numerator * (d // v.denominator) for v in x)

    def _carries(self, x: Sequence) -> bool:
        """Whether x is a ScaledPoint of this group: another group's table
        pairs x with other roots."""
        return isinstance(x, ScaledPoint) and x.group is self

    def simple_pairing(self, x: Sequence) -> Tuple:
        """<alpha_i, x> for each simple position (constant on Galois orbits
        when x is a relative point): ints for an integer point, Fractions
        otherwise, read from the integer pairings of d.x."""
        if self._carries(x):
            # the carried table is scaled by the ascent's d, not by the lcm
            # d' of x's denominators (d' divides d): Fraction(p, d) is the
            # exact pairing all the same
            d, p = x.scale, x.pairings
            return tuple(Fraction(p[i], d) for i in self.datum.simple_indices)
        d, xi = self.integer_point(x)
        pairings = mat_vec(self.datum.simple_roots, xi)
        if all(isinstance(v, int) for v in x):
            return pairings
        return tuple(Fraction(p, d) for p in pairings)

    def root_pairings(self, xi: Vector) -> Vector:
        """<root_i, xi> for every root i of the datum."""
        return mat_vec(self.datum.roots, xi)

    def pairing_table(self, x: Sequence) -> Vector:
        """<root_i, d.x> for every root i, for some d > 0: the table a
        ScaledPoint of this group carries, else computed with d the lcm of
        x's denominators.  Signs, zeros and equalities between entries do
        not depend on d."""
        if self._carries(x):
            return x.pairings
        return self.root_pairings(self.integer_point(x)[1])

    def scaled_simple_pairing(self, x: Sequence) -> Vector:
        """simple_pairing(x) scaled by integer_point's d: the same signs and
        zeros, in integers."""
        return mat_vec(self.datum.simple_roots, self.integer_point(x)[1])

    @staticmethod
    def facet_of_pairings(simple: Sequence[int]) -> Optional[FrozenSet[int]]:
        """The facet Levi (positions pairing to zero) from the simple
        pairings of a point, or None when the point is not dominant."""
        if any(p < 0 for p in simple):
            return None
        return frozenset(pos for pos, p in enumerate(simple) if p == 0)

    def dominant(self, x: Sequence) -> bool:
        return self.facet_of_pairings(self.scaled_simple_pairing(x)) is not None

    def facet_levi(self, x: Sequence) -> FrozenSet[int]:
        """For dominant x: the simple positions pairing to zero (the Levi of
        the unique open facet containing x)."""
        levi = self.facet_of_pairings(self.scaled_simple_pairing(x))
        if levi is None:
            raise ValueError("facet_levi needs a dominant point")
        return levi

    # -- Levis and parabolics ---------------------------------------------------

    def levi_context(self, subset) -> LeviContext:
        key = frozenset(subset)
        return cached(self.memo, ("levi", key), LeviContext, self, key)

    def standard_levi_subsets(self) -> Tuple[FrozenSet[int], ...]:
        """All Gamma-stable simple subsets (unions of orbits), ordered by
        size then lexicographically; contains the minimal Levi and G."""
        return self._standard_levis

    @cached_property
    def _standard_levis(self) -> Tuple[FrozenSet[int], ...]:
        orbits = self.simple_orbits
        subsets = {frozenset().union(*combo) for k in range(len(orbits) + 1)
                   for combo in combinations(orbits, k)}
        return tuple(sorted(subsets, key=lambda s: (len(s), sorted(s))))

    def levi_weyl_elements(self, subset) -> Tuple[Matrix, ...]:
        return self.levi_context(subset).weyl_elements

    def full_subset(self) -> FrozenSet[int]:
        return frozenset(range(len(self.datum.simple_indices)))

    def checked_levi(self, positions: Iterable[int],
                     field: str) -> FrozenSet[int]:
        """The Levi subset of simple positions given from outside the
        program, checked to be in range and Galois stable; a failed check
        raises ValueError led by `field`."""
        subset = frozenset(positions)
        full = self.full_subset()
        valid = ("valid positions are 0..%d" % (len(full) - 1) if full
                 else "%s has no simple positions" % self.name)
        outside = sorted(subset - full)
        if outside:
            raise ValueError("%s: simple position %d is out of range; %s"
                             % (field, outside[0], valid))
        for pos in sorted(subset):
            orbit = self.simple_orbit_of(pos)
            if not subset.issuperset(orbit):
                raise ValueError("%s: the subset is not Galois stable: "
                                 "position %d lies in the orbit %s"
                                 % (field, pos, list(orbit)))
        return subset


# ---------------------------------------------------------------------------
# module-level operation surface

def weyl_group(datum: BasedRootDatum) -> WeylGroup:
    """All Weyl elements as matrices on the character lattice, one reduced
    word each."""
    gens = [reflection_matrix(datum.roots[i], datum.coroots[i])
            for i in datum.simple_indices]
    return WeylGroup(gens, datum.rank, datum.roots)

