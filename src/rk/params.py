"""Abstract tempered parameter data.

A parameter is carried by its finite combinatorial shadow: the minimal
standard Levi M it factors through, the roots of the connected
centralizer on the split center of the dual Levi (with a chosen positive
system), and the component group realized inside the relative Weyl group.
Construction derives everything else and validates it: coroots of the
centralizer root system are pinned down by realizing each reflection as
an ambient relative Weyl element that stabilizes the center and repairs
the dual Borel pair of the Levi, and the component generators are given
as words in the restricted simple reflections.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .disconnected import DisconnectedGroupDatum
from .finite_reps import FiniteGroup
from .lattice import (
    Matrix,
    Vector,
    closure,
    dot,
    in_span,
    mat,
    mat_contragredient,
    mat_identity,
    mat_mul,
    mat_transpose,
    mat_vec,
    solve_rational,
    vneg,
    vsub,
)
from .rootdata import BasedRootDatum, ReductiveGroup


class ParameterError(ValueError):
    """A parameter datum failed validation."""


def _is_reflection(d: Matrix) -> bool:
    n = len(d)
    if mat_mul(d, d) != mat_identity(n):
        return False
    diff = [vsub(row, ident) for row, ident in zip(d, mat_identity(n))]
    from .lattice import kernel_basis
    return len(kernel_basis(mat_transpose(mat(diff)))) == n - 1


class Parameter:
    """Validated parameter datum with its centralizer machinery."""

    def __init__(self, group: ReductiveGroup, minimal_levi,
                 sphi_ambient: Sequence[Vector],
                 positive_ambient: Sequence[Vector],
                 r_phi_words: Sequence[Sequence[int]] = (),
                 label: str = "", tempered: bool = True):
        self.group = group
        self.minimal_levi = frozenset(minimal_levi)
        self.label = label
        self.tempered = tempered
        self.ctx_M = group.levi_context(self.minimal_levi)
        self.center_basis = self.ctx_M.dual_split_center_basis
        self.dim = len(self.center_basis)

        # restricted roots on the split center of the dual Levi
        restricted = {}
        for v in sphi_ambient:
            r = self.ctx_M.restrict_ambient(v)
            if all(x == 0 for x in r):
                raise ParameterError("a centralizer root restricts to zero; "
                                     "the minimal Levi is not minimal")
            restricted.setdefault(r, []).append(tuple(v))
        self.roots: Tuple[Vector, ...] = tuple(sorted(restricted))
        self.ambient_of_root: Dict[Vector, Tuple[Vector, ...]] = {
            r: tuple(vs) for r, vs in restricted.items()}
        pos = {self.ctx_M.restrict_ambient(v) for v in positive_ambient}
        neg = {vneg(r) for r in pos}
        if pos & neg or pos | neg != set(self.roots):
            raise ParameterError("positive system must split the roots into "
                                 "opposite halves")
        for p in pos:
            for q in pos:
                s = tuple(a + b for a, b in zip(p, q))
                if s in restricted and s not in pos:
                    raise ParameterError("positive system is not closed")
        self.positives: Tuple[Vector, ...] = tuple(sorted(pos))

        self._embedded = self._embedded_center_weyl()

        # realize each reflection in the relative Weyl group and derive coroots
        self.reflection_realization: Dict[Vector, Matrix] = {}
        self.coroots: Dict[Vector, Vector] = {}
        for alpha in self.positives:
            w, cor = self._realize_reflection(alpha)
            self.reflection_realization[alpha] = w
            self.coroots[alpha] = cor
            self.coroots[vneg(alpha)] = vneg(cor)
            self.reflection_realization[vneg(alpha)] = w

        # centralizer identity-component datum on Z^dim
        ordered = self.roots
        self.s_datum = BasedRootDatum(
            self.dim, ordered, tuple(self.coroots[r] for r in ordered),
            self._simple_positions(), (label or "sphi") + ":S")

        # component group from relative-Weyl words
        rel = group.relative
        r_elems = []
        for word in r_phi_words:
            m = rel.from_word(tuple(word))
            if m not in self._embedded:
                raise ParameterError("component word does not normalize the "
                                     "dual split center compatibly")
            r_elems.append(m)
        self.r_generators = tuple(r_elems)
        for m in self.r_generators:
            d = self.char_action(m)
            if {mat_vec(d, r) for r in self.roots} != set(self.roots):
                raise ParameterError("component generator does not permute "
                                     "the centralizer roots")
            if {mat_vec(d, p) for p in self.positives} != set(self.positives):
                raise ParameterError("component generator does not preserve "
                                     "the positive system")

        # the full W_phi inside the relative Weyl group
        refl = [self.reflection_realization[a] for a in self.positives]
        gens = tuple(refl) + self.r_generators
        if gens:
            order, _ = closure(gens, 10**6)
        else:
            order = [rel.identity]
        self.wphi_elements: Tuple[Matrix, ...] = tuple(sorted(order))
        for m in self.wphi_elements:
            if m not in self._embedded:
                raise ParameterError("centralizer Weyl group escapes the "
                                     "embedded normalizer image")
        if refl:
            order_o, _ = closure(tuple(refl), 10**6)
        else:
            order_o = [rel.identity]
        self.wphi_o_elements: Tuple[Matrix, ...] = tuple(sorted(order_o))
        if self.r_generators:
            order_r, _ = closure(self.r_generators, 10**6)
        else:
            order_r = [rel.identity]
        self.r_elements: Tuple[Matrix, ...] = tuple(sorted(order_r))
        if len(self.wphi_elements) != \
                len(self.wphi_o_elements) * len(self.r_elements):
            raise ParameterError("W_phi does not decompose as a semidirect "
                                 "product of its connected part and R_phi")
        if set(self.wphi_o_elements) & set(self.r_elements) != {rel.identity}:
            raise ParameterError("connected part meets R_phi nontrivially")
        self._soft_minimality_check()

    # -- ambient embedding ---------------------------------------------------

    def _embedded_center_weyl(self) -> Dict[Matrix, Matrix]:
        """Image of the center-normalizer Weyl group inside W^rel: elements
        stabilizing the center lattice and permuting the Levi positives;
        values are the induced actions on the center character lattice."""
        group = self.group
        datum = group.datum
        span = self.center_basis
        mpos = [datum.roots[i]
                for i in group.levi_context(self.minimal_levi).root_indices()
                if i in datum.positive_root_set]
        out = {}
        for m in group.relative.elements:
            if not all(in_span(span, mat_vec(m, u)) for u in span):
                continue
            if {mat_vec(m, r) for r in mpos} != set(mpos):
                continue
            out[m] = self._char_action_raw(m)
        return out

    def _char_action_raw(self, m: Matrix) -> Matrix:
        cols = []
        for u in self.center_basis:
            sol = solve_rational(self.center_basis, mat_vec(m, u))
            col = []
            for x in sol:
                if Fraction(x).denominator != 1:
                    raise ParameterError("center lattice not stabilized "
                                         "integrally")
                col.append(int(x))
            cols.append(tuple(col))
        c = mat_transpose(mat(cols))
        return mat_contragredient(c)

    def char_action(self, m: Matrix) -> Matrix:
        """Action of an embedded element on the center character lattice."""
        return self._embedded[m]

    def _realize_reflection(self, alpha: Vector):
        found = []
        for m, d in self._embedded.items():
            if not _is_reflection(d):
                continue
            if mat_vec(d, alpha) != vneg(alpha):
                continue
            if {mat_vec(d, r) for r in self.roots} != set(self.roots):
                continue
            found.append((m, d))
        if not found:
            raise ParameterError("reflection of root %r is not realized in "
                                 "the relative Weyl group" % (alpha,))
        ds = {d for _m, d in found}
        if len(ds) > 1:
            raise ParameterError("reflection of root %r is ambiguous" % (alpha,))
        m, d = min(found)
        # derive the coroot: x - d(x) = <x, coroot> alpha
        cor = []
        for j in range(self.dim):
            e = tuple(1 if i == j else 0 for i in range(self.dim))
            diff = vsub(e, mat_vec(d, e))
            sol = solve_rational([alpha], diff)
            if sol is None:
                raise ParameterError("realized map is not a reflection "
                                     "along %r" % (alpha,))
            c = Fraction(sol[0])
            if c.denominator != 1:
                raise ParameterError("coroot of %r is not integral" % (alpha,))
            cor.append(int(c))
        return m, tuple(cor)

    def _simple_positions(self) -> Tuple[int, ...]:
        """Indices (into self.roots) of the indecomposable positives."""
        pos = set(self.positives)
        simple = []
        for p in self.positives:
            decomposable = any(
                tuple(a - b for a, b in zip(p, q)) in pos
                for q in pos if q != p)
            if not decomposable:
                simple.append(self.roots.index(p))
        return tuple(simple)

    def _soft_minimality_check(self) -> None:
        k = self.dim
        for subset in self.group.standard_levi_subsets():
            if subset < self.minimal_levi:
                sub_dim = self.group.levi_context(subset).dim
                if sub_dim <= k:
                    raise ParameterError("a proper Levi of the minimal Levi "
                                         "has a split center no bigger")

    # -- component-group structure --------------------------------------------

    def r_component(self, g: Matrix) -> Matrix:
        """The R_phi part of an element of W_phi (unique decomposition)."""
        o = set(self.wphi_o_elements)
        inverse = self.group.relative.inverse
        for r in self.r_elements:
            if mat_mul(g, inverse[r]) in o:
                return r
        raise ParameterError("element is not in W_phi")

    def component_group(self) -> FiniteGroup:
        """pi0 of the centralizer as a matrix group on the center characters."""
        mats = tuple(sorted({self.char_action(r) for r in self.r_elements}))
        return FiniteGroup(mats, mat_mul, mat_identity(self.dim))

    def s_group_datum(self) -> DisconnectedGroupDatum:
        """The full centralizer as a disconnected group datum."""
        gens = tuple(self.char_action(r) for r in self.r_generators)
        return DisconnectedGroupDatum(self.s_datum, gens,
                                      name=(self.label or "sphi"))

    def is_dominant(self, lam: Sequence[int]) -> bool:
        return all(dot(lam, self.coroots[p]) >= 0 for p in self.positives)

    # -- Levi cuts ---------------------------------------------------------------

    def levi_cut(self, levi, w: Optional[Matrix] = None):
        """Data of the centralizer inside a Levi, after conjugating the
        parameter by w (default identity): the surviving roots, the
        Weyl elements of the cut, and its component structure.

        Returns a LeviCut; requires the Levi to contain w(M).
        """
        return LeviCut(self, frozenset(levi), w)

    def s_group_levi(self, levi) -> DisconnectedGroupDatum:
        """The centralizer cut to a Levi, as a disconnected group datum."""
        return self.levi_cut(levi).disconnected_datum()


class LeviCut:
    """The centralizer cut down to a standard Levi (possibly after a
    Weyl twist of the parameter)."""

    def __init__(self, param: Parameter, levi: FrozenSet[int],
                 w: Optional[Matrix] = None):
        self.param = param
        self.levi = levi
        group = param.group
        self.w = w if w is not None else group.relative.identity
        self.twisted_center_basis = tuple(
            mat_vec(self.w, u) for u in param.center_basis)
        ctx_L = group.levi_context(levi)
        coords = []
        for u in ctx_L.dual_split_center_basis:
            sol = solve_rational(self.twisted_center_basis, u)
            if sol is None:
                raise ParameterError("Levi split center does not sit inside "
                                     "the twisted parameter center; is w in "
                                     "the transporter set?")
            for x in sol:
                if Fraction(x).denominator != 1:
                    raise ParameterError("Levi center has non-integral "
                                         "coordinates")
            coords.append(tuple(int(x) for x in sol))
        self.levi_center_coords = tuple(coords)
        self.roots = tuple(r for r in param.roots
                           if all(dot(r, c) == 0 for c in coords))
        self.positives = tuple(p for p in param.positives if p in set(self.roots))
        rel_levi = set(group.levi_weyl_elements(levi))
        self.w_inv = group.relative.inverse[self.w]
        self.weyl_elements = tuple(
            g for g in param.wphi_elements
            if mat_mul(mat_mul(self.w, g), self.w_inv) in rel_levi)
        pos_set = set(self.positives)
        comp = []
        for g in self.weyl_elements:
            d = param.char_action(g)
            if {mat_vec(d, p) for p in self.positives} == pos_set:
                comp.append(g)
        self.component_elements = tuple(sorted(comp))
        refl = [param.reflection_realization[p] for p in self.positives]
        if refl:
            order, _ = closure(tuple(refl), 10**6)
        else:
            order = [group.relative.identity]
        self.connected_weyl_elements = tuple(sorted(order))
        if set(self.connected_weyl_elements) - set(self.weyl_elements):
            raise ParameterError("Levi-cut reflections escape the Levi")
        if len(self.weyl_elements) != \
                len(self.connected_weyl_elements) * len(self.component_elements):
            raise ParameterError("Levi cut does not decompose as a semidirect "
                                 "product")

    def disconnected_datum(self) -> DisconnectedGroupDatum:
        param = self.param
        ordered = self.roots
        datum = BasedRootDatum(
            param.dim, ordered,
            tuple(param.coroots[r] for r in ordered),
            self._simple_positions(),
            "%s|levi%s" % (param.label or "sphi", sorted(self.levi)))
        gens = tuple(param.char_action(g) for g in self.component_elements
                     if g != param.group.relative.identity)
        return DisconnectedGroupDatum(datum, gens)

    def _simple_positions(self) -> Tuple[int, ...]:
        pos = set(self.positives)
        simple = []
        for p in self.positives:
            if not any(tuple(a - b for a, b in zip(p, q)) in pos
                       for q in pos if q != p):
                simple.append(self.roots.index(p))
        return tuple(simple)

    def component_projection(self, g: Matrix) -> Matrix:
        """Project an element of the cut's Weyl group to its component part
        inside the ambient component group R_phi."""
        return self.param.r_component(g)
