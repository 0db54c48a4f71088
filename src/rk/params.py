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

from functools import cached_property
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .disconnected import DisconnectedGroupDatum
from .finite_reps import FiniteGroup
from .lattice import (
    Matrix,
    SmithSolver,
    Vector,
    cached,
    dot,
    from_columns,
    kernel_basis,
    mat,
    mat_identity,
    mat_mul,
    mat_vec,
    vneg,
    vsub,
)
from .rootdata import BasedRootDatum, ReductiveGroup
from .weyl import transporter_set


class ParameterError(ValueError):
    """A parameter datum failed validation."""


def _is_reflection(d: Matrix) -> bool:
    """An involution is a reflection exactly when its -1 eigenspace is a
    line, i.e. when its trace is n - 2."""
    n = len(d)
    return mat_mul(d, d) == mat_identity(n) and \
        sum(d[i][i] for i in range(n)) == n - 2


def _simple_positions(roots: Sequence[Vector],
                      positives: Sequence[Vector]) -> Tuple[int, ...]:
    """Indices (into roots) of the indecomposable positives."""
    pos = set(positives)
    simple = []
    for p in positives:
        if not any(tuple(a - b for a, b in zip(p, q)) in pos
                   for q in pos if q != p):
            simple.append(roots.index(p))
    return tuple(simple)


class Parameter:
    """Validated parameter datum with its centralizer machinery."""

    def __init__(self, group: ReductiveGroup, minimal_levi,
                 sphi_ambient: Sequence[Vector],
                 positive_ambient: Sequence[Vector],
                 r_phi_words: Sequence[Sequence[int]] = (),
                 label: str = ""):
        self.group = group
        self.minimal_levi = frozenset(minimal_levi)
        self.label = label
        #: ("cut", L, w): `levi_cut`; ("cosets", L): `transporter_cosets`;
        #: ("connected", positives): the connected Weyl group of every cut
        #: with those positives (`wphi_o_elements` for all); rk.packets: ("center",), ("fiber_weight",
        #: b, w)* (the weight and its dominant translate, or None),
        #: ("member", lambda)* (cut, b, coset class, word), ("square",
        #: lambda)* (kappa pushed to G, the central character, whether
        #: torsion is undetermined); rk.endoscopy: ("forward", L) (the
        #: indexing restriction table), and per datum E ("h", E),
        #: ("admissible", E), ("embedded", E, L) (the classes, and the id
        #: of each element of their double cosets -> its class),
        #: ("backward", E, L, u), ("indexing", E, L, emb.key(), v),
        #: ("trace", E, L, w, lambda_w, g)*, ("jacquet", E, emb.key()),
        #: ("token", E, b, w, sign)*.
        #: *: keyed by a caller's weight or b, so unbounded in a library; the
        #: CLI runs one command per process, on <= MAX_WEIGHT_BOX weights.
        self.memo: Dict = {}
        self.ctx_M = group.levi_context(self.minimal_levi)
        self.center_basis = self.ctx_M.dual_split_center_basis
        self.dim = len(self.center_basis)
        # B as the columns of an n x dim matrix: solve(v) is v's integer
        # coordinates in B, or None off its span.  B is a saturated kernel
        # basis, so a lattice vector in the span has integer coordinates.
        self.center_solver = SmithSolver(
            from_columns(self.center_basis, group.datum.rank), self.dim)

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
        for alpha, (w, cor) in self._realize_reflections().items():
            self.reflection_realization[alpha] = w
            self.coroots[alpha] = cor
            self.coroots[vneg(alpha)] = vneg(cor)
            self.reflection_realization[vneg(alpha)] = w

        # centralizer identity-component datum on Z^dim
        ordered = self.roots
        self.s_datum = BasedRootDatum(
            self.dim, ordered, tuple(self.coroots[r] for r in ordered),
            _simple_positions(ordered, self.positives),
            (label or "sphi") + ":S")

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
        # S_phi; its GaloisAction checks that R_phi acts on the centralizer
        # datum by automorphisms permuting the simple roots (and so the
        # positive system)
        self.centralizer = DisconnectedGroupDatum(self.s_datum, tuple(
            self.char_action(m) for m in self.r_generators))

        # the full W_phi inside the relative Weyl group
        refl = [self.reflection_realization[a] for a in self.positives]
        self.wphi_elements: Tuple[Matrix, ...] = rel.generated(
            refl + list(self.r_generators))
        for m in self.wphi_elements:
            if m not in self._embedded:
                raise ParameterError("centralizer Weyl group escapes the "
                                     "embedded normalizer image")
        self.wphi_o_elements: Tuple[Matrix, ...] = cached(
            self.memo, ("connected", self.positives), self._reflection_group,
            self.positives)
        self.r_elements: Tuple[Matrix, ...] = rel.generated(
            self.r_generators)
        if len(self.wphi_elements) != \
                len(self.wphi_o_elements) * len(self.r_elements):
            raise ParameterError("W_phi does not decompose as a semidirect "
                                 "product of its connected part and R_phi")
        if set(self.wphi_o_elements) & set(self.r_elements) != {rel.identity}:
            raise ParameterError("connected part meets R_phi nontrivially")

    # -- ambient embedding ---------------------------------------------------

    def _embedded_center_weyl(self) -> Dict[Matrix, Matrix]:
        """Image of the center-normalizer Weyl group inside W^rel: elements
        permuting the positive roots of M; values are the induced actions on
        the center character lattice.

        Such an element also stabilizes the center span: it commutes with
        Gamma and permutes M's coroots, so it preserves the Gamma-fixed
        annihilator of those coroots (`_char_action_raw` asserts this)."""
        rel = self.group.relative
        mpos = set(self.ctx_M.positive_root_indices)
        return {m: self._char_action_raw(m) for m in rel.elements
                if {rel.perm[m][i] for i in mpos} == mpos}

    def _char_action_raw(self, m: Matrix) -> Matrix:
        """The contragredient of m on the center span: the transpose of
        m^-1's matrix in B, whose rows are the coordinates of m^-1 . u."""
        m_inv = self.group.relative.inverse[m]
        rows = []
        for u in self.center_basis:
            row = self.center_solver.solve(mat_vec(m_inv, u))
            if row is None:
                raise AssertionError("an element permuting the positive roots "
                                     "of M moved the center span")
            rows.append(row)
        return mat(rows)

    def char_action(self, m: Matrix) -> Matrix:
        """Action of an embedded element on the center character lattice."""
        return self._embedded[m]

    def _realize_reflections(self) -> Dict[Vector, Tuple[Matrix, Vector]]:
        """Positive root -> (m, coroot), with m the least embedded element
        acting as a reflection that negates the root and permutes the roots.
        One pass over the embedded elements keys each such reflection by
        the positive roots it negates."""
        roots = set(self.roots)
        found: Dict[Vector, list] = {}
        for m, d in self._embedded.items():
            if not _is_reflection(d):
                continue
            image = {r: mat_vec(d, r) for r in self.roots}
            if set(image.values()) != roots:
                continue
            for alpha in self.positives:
                if image[alpha] == vneg(alpha):
                    found.setdefault(alpha, []).append((m, d))
        out = {}
        for alpha in self.positives:
            if alpha not in found:
                raise ParameterError("reflection of root %r is not realized "
                                     "in the relative Weyl group" % (alpha,))
            if len({d for _m, d in found[alpha]}) > 1:
                raise ParameterError("reflection of root %r is ambiguous"
                                     % (alpha,))
            m, d = min(found[alpha])
            # derive the coroot: x - d(x) = <x, coroot> alpha; d is a
            # reflection negating alpha, so x - d(x) is a rational multiple
            # of alpha
            k = next(i for i, a in enumerate(alpha) if a)
            cor = []
            for j in range(self.dim):
                e = tuple(1 if i == j else 0 for i in range(self.dim))
                diff = vsub(e, mat_vec(d, e))
                c = diff[k] // alpha[k]
                if tuple(c * a for a in alpha) != diff:
                    raise ParameterError("coroot of %r is not integral"
                                         % (alpha,))
                cor.append(c)
            out[alpha] = (m, tuple(cor))
        return out

    # -- component-group structure --------------------------------------------

    @cached_property
    def wphi_ids(self) -> Tuple[int, ...]:
        """`wphi_elements` as ids of W^rel, in the same order."""
        index = self.group.relative.index
        return tuple(index[m] for m in self.wphi_elements)

    @cached_property
    def _r_part(self) -> Dict[int, Matrix]:
        """The id of o . r -> r, for o in W_phi^o and r in R_phi: W_phi is
        the disjoint union of the cosets W_phi^o . r."""
        rel = self.group.relative
        index = rel.index
        o_ids = [index[m] for m in self.wphi_o_elements]
        identity = (index[rel.identity],)
        return {i: r for r in self.r_elements
                for i in rel.double_coset(o_ids, index[r], identity)}

    def r_component(self, g: Matrix) -> Matrix:
        """The R_phi part of an element of W_phi (unique decomposition)."""
        r = self._r_part.get(self.group.relative.index.get(g))
        if r is None:
            raise ParameterError("element is not in W_phi")
        return r

    def component_group(self) -> FiniteGroup:
        """pi0 of the centralizer as a matrix group on the center characters."""
        return self.centralizer.pi0

    # -- Levi cuts ---------------------------------------------------------------

    @cached_property
    def _root_perms(self) -> Dict[Matrix, Tuple[int, ...]]:
        """Each element g of W_phi -> the permutation of positions in
        `roots` that char_action(g) makes: i goes to the position of
        g . roots[i]."""
        position = {r: i for i, r in enumerate(self.roots)}
        table = {}
        for g in self.wphi_elements:
            d = self.char_action(g)
            image = tuple(position.get(mat_vec(d, r)) for r in self.roots)
            if None in image:
                raise ParameterError("an element of W_phi does not permute "
                                     "the centralizer roots")
            table[g] = image
        return table

    def _reflection_group(self, positives: Tuple[Vector, ...]
                          ) -> Tuple[Matrix, ...]:
        """The subgroup of W^rel generated by the realized reflections of
        some positive roots: the connected Weyl group of every Levi cut
        with those positives."""
        return self.group.relative.generated(
            [self.reflection_realization[p] for p in positives])

    def levi_cut(self, levi, w: Optional[Matrix] = None):
        """Data of the centralizer inside a Levi, after conjugating the
        parameter by w (default identity): the surviving roots, the
        Weyl elements of the cut, and its component structure.

        Returns a LeviCut, built once per (Levi, w) and shared, so not to be
        mutated; requires the Levi to contain w(M).
        """
        levi = frozenset(levi)
        w = w if w is not None else self.group.relative.identity
        return cached(self.memo, ("cut", levi, w), LeviCut, self, levi, w)

    def transporter_cosets(self, levi) -> "TransporterCosets":
        """The `TransporterCosets` of a standard Levi containing M, built
        once per Levi and shared, so not to be mutated."""
        levi = frozenset(levi)
        return cached(self.memo, ("cosets", levi), TransporterCosets, self,
                      levi)


class TransporterCosets:
    """The transporter set T = W^rel(M, L) (`elements`) cut into the left
    cosets W^rel_L . t, which index the endoscopic indexing bijection, and
    the double cosets W^rel_L . t . W_phi, which index the fiber over
    (L, kappa), both certified when built (Bjorner-Brenti, Combinatorics
    of Coxeter Groups, 2.4): `left_rep[t]` is min(W^rel_L . t), `rep[t]`
    min(W^rel_L . t . W_phi), `left_reps` and `reps` their sorted values,
    and `count[t]` the number of right W_phi cosets in the double coset."""

    def __init__(self, param: Parameter, levi: FrozenSet[int]):
        group = param.group
        rel = group.relative
        self.elements = transporter_set(group, param.minimal_levi, levi)
        levi_ids = group.levi_context(levi).weyl_ids
        self.left_rep = _coset_partition(
            rel, self.elements, levi_ids, (rel.index[rel.identity],))[0]
        self.rep, self.count = _coset_partition(
            rel, self.elements, levi_ids, param.wphi_ids)
        self.left_reps = tuple(sorted(set(self.left_rep.values())))
        self.reps = tuple(sorted(set(self.rep.values())))


def _coset_partition(rel, elements: Sequence[Matrix], left: Sequence[int],
                     right: Sequence[int]):
    """(t -> min of left . t . right, t -> |left . t . right| / |right|) on
    a union T of such double cosets, each built once on ids.  Certified:
    each lies in T, meets no set built before it and has remainder 0 by
    |right|, and together they cover T."""
    ids = [rel.index[t] for t in elements]
    inside = set(ids)
    built = rel.double_cosets(left, ids, right)
    count_of: Dict[int, int] = {}
    for coset in built:
        if not inside.issuperset(coset):
            raise AssertionError("double coset leaves the transporter set")
        if not coset.isdisjoint(count_of):
            raise AssertionError("double cosets overlap")
        cosets, rest = divmod(len(coset), len(right))
        if rest:
            raise AssertionError("double coset is not a union of W_phi "
                                 "cosets")
        count_of.update(dict.fromkeys(coset, cosets))
    if len(count_of) != len(inside):
        raise AssertionError("double cosets do not cover the transporter set")
    rep_of: Dict[int, Matrix] = {}
    for coset in built:
        rep_of.update(dict.fromkeys(coset, rel.elements[min(coset)]))
    return ({t: rep_of[i] for t, i in zip(elements, ids)},
            {t: count_of[i] for t, i in zip(elements, ids)})


class LeviCut:
    """The centralizer cut down to a standard Levi (possibly after a
    Weyl twist of the parameter)."""

    def __init__(self, param: Parameter, levi: FrozenSet[int],
                 w: Optional[Matrix] = None):
        self.param = param
        self.levi = levi
        group = param.group
        self.w = w if w is not None else group.relative.identity
        self.w_inv = group.relative.inverse[self.w]
        # coordinates in the twisted basis w.B are those of w^-1 . u in B
        ctx_L = group.levi_context(levi)
        coords = []
        for u in ctx_L.dual_split_center_basis:
            sol = param.center_solver.solve(mat_vec(self.w_inv, u))
            if sol is None:
                raise ParameterError("Levi split center does not sit inside "
                                     "the twisted parameter center; is w in "
                                     "the transporter set?")
            coords.append(sol)
        self.levi_center_coords = tuple(coords)
        self.roots = tuple(r for r in param.roots
                           if all(dot(r, c) == 0 for c in coords))
        self.positives = tuple(p for p in param.positives if p in set(self.roots))
        # g lies in the cut when w.g.w^-1 lies in W^rel_L
        rel = group.relative
        rel_levi = set(group.levi_context(levi).weyl_ids)
        w_row, w_inv = rel.row(rel.index[self.w]), rel.index[self.w_inv]
        self.weyl_elements = tuple(
            g for g, i in zip(param.wphi_elements, param.wphi_ids)
            if rel.row(w_row[i])[w_inv] in rel_levi)
        # g lies in the component part when it permutes the cut's positives
        positions = [param.roots.index(p) for p in self.positives]
        keep = set(positions)
        perms = param._root_perms
        self.component_elements = tuple(sorted(
            g for g in self.weyl_elements
            if keep.issuperset(map(perms[g].__getitem__, positions))))
        self.connected_weyl_elements = cached(
            param.memo, ("connected", self.positives),
            param._reflection_group, self.positives)
        if set(self.connected_weyl_elements) - set(self.weyl_elements):
            raise ParameterError("Levi-cut reflections escape the Levi")
        if len(self.weyl_elements) != \
                len(self.connected_weyl_elements) * len(self.component_elements):
            raise ParameterError("Levi cut does not decompose as a semidirect "
                                 "product")
        # the tables the descent certificate reads on every forward-map
        # call: a row per cut root (its coroot), and a pair per component
        # element g (its action, the action of its R_phi part)
        self.root_coroots = mat(param.coroots[r] for r in self.roots)
        self.component_actions = tuple(
            (param.char_action(g), param.char_action(param.r_component(g)))
            for g in self.component_elements)

    @cached_property
    def descent_coords(self) -> Tuple[Vector, ...]:
        """Coordinates, in the twisted center basis, of a basis of (twisted
        parameter center) cap (saturated span of the Levi's coroot lattice
        on the dual side), i.e. of the cocharacters of the part of the
        center meeting the derived subgroup of the dual Levi.  A weight
        descends to a character of the Levi iff it pairs to zero with each.
        Computed once per cut."""
        param = self.param
        group = param.group
        n = group.datum.rank
        levi_roots = [group.datum.roots[i] for i in
                      group.levi_context(self.levi).root_indices]
        # the annihilator of w.B is w^-T applied to that of B
        w_dual = group.relative.contragredient[self.w]
        perp_center = [mat_vec(w_dual, z) for z in
                       param.ctx_M.dual_center_solver.kernel]
        perp_levi = kernel_basis(mat(levi_roots), n)
        kill = kernel_basis(mat(perp_center + list(perp_levi)), n)
        coords = tuple(param.center_solver.solve(mat_vec(self.w_inv, v))
                       for v in kill)
        if None in coords:
            raise AssertionError("intersection vector escaped the center")
        return coords
