"""Endoscopic data at the root-datum level and the formal two-sided
verification of the regular character identity.

An endoscopic datum is cut out of the ambient group by a finite-order
Galois-fixed torus element: the coroots pairing integrally with its
exponent vector select a sub-root-datum, the group of the datum.  All
analytic content (transfer factors, orbital integrals, stability) enters
only as formal rewrite rules on distribution labels; what is actually
computed and compared is the combinatorial skeleton: embedded data and
their inner classes, the indexing bijection between Levi double cosets
on the two sides, the geometric-lemma expansion with its regular part,
and coset-averaged trace pairings with exact cyclotomic values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .cyclotomic import Cyclo
from .disconnected import HighestWeightPair
from .finite_reps import simple_modules
from .kottwitz import BElement
from .lattice import (
    Matrix,
    Vector,
    closure,
    dot,
    in_span,
    kernel_basis,
    mat,
    mat_identity,
    mat_mul,
    mat_vec,
    solve_integer,
    solve_rational,
)
from .packets import (
    PacketMember,
    _component_stabilizer,
    build_packet_member,
    canonical_rho,
    dominantize,
    enumerate_fiber,
    fiber_weight,
)
from .params import Parameter
from .rootdata import BasedRootDatum, GaloisAction, ReductiveGroup
from .weyl import geometric_lemma_index, transporter_set


class EndoscopyError(ValueError):
    """Invalid endoscopic datum or an unsupported configuration."""


class EndoscopicDatum:
    """(H, s, eta) with eta the inclusion of a sub-root-datum sharing the
    maximal torus; s is a rational exponent vector modulo 1."""

    def __init__(self, group: ReductiveGroup, s_exponents: Sequence,
                 label: str = ""):
        self.group = group
        n = group.datum.rank
        q = tuple(Fraction(x) % 1 for x in s_exponents)
        if len(q) != n:
            raise EndoscopyError("exponent vector of wrong length")
        self.s = q
        self.label = label or ("s=" + ",".join(str(x) for x in q))
        for g in group.galois.char_generators:
            moved = mat_vec(g, q)
            if any((a - b) % 1 != 0 for a, b in zip(moved, q)):
                raise EndoscopyError("s is not Galois fixed")
        datum = group.datum
        keep = [i for i, c in enumerate(datum.coroots)
                if (dot(c, q)) % 1 == 0]
        keep_roots = tuple(datum.roots[i] for i in keep)
        keep_coroots = tuple(datum.coroots[i] for i in keep)
        positives = datum.positive_root_set
        pos_kept = [i for i in keep if i in positives]
        simple = []
        pos_set = {datum.roots[i] for i in pos_kept}
        for i in pos_kept:
            r = datum.roots[i]
            if not any(tuple(a - b for a, b in zip(r, s)) in pos_set
                       for s in pos_set if s != r):
                simple.append(keep.index(i))
        h_datum = BasedRootDatum(n, keep_roots, keep_coroots, tuple(simple),
                                 "H(%s)" % self.label)
        h_galois = GaloisAction(h_datum, group.galois.char_generators)
        self.H = ReductiveGroup(h_datum, h_galois, name=h_datum.name)
        self.h_root_set = set(keep_roots)

    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.s)

    def s_conjugate(self, w: Matrix) -> Tuple[Fraction, ...]:
        """Exponents of the w-conjugate of s (action on dual cocharacters)."""
        return tuple(Fraction(x) % 1 for x in mat_vec(w, self.s))

    def weyl_h_elements(self) -> Tuple[Matrix, ...]:
        return self.H.weyl.elements


def endoscopic_group_from_s(group: ReductiveGroup, s_exponents,
                            label: str = "") -> EndoscopicDatum:
    """Build the datum cut out by the integral-pairing sub-system."""
    return EndoscopicDatum(group, s_exponents, label)


# ---------------------------------------------------------------------------
# membership of s in Levi centralizers

def weight_exponent(center_basis: Sequence[Vector], q: Sequence[Fraction],
                    weight: Sequence[int]) -> Fraction:
    """Exponent of the evaluation of a center-lattice weight at the torus
    point with exponents q: extend the weight to the full character
    lattice and pair."""
    ext = solve_integer(mat(list(center_basis)), tuple(weight))
    if ext is None:
        raise EndoscopyError("weight does not extend integrally")
    return sum(Fraction(e) * x for e, x in zip(ext, q)) % 1


def s_in_levi_check(param: Parameter, endo: EndoscopicDatum, levi) -> Dict:
    """Certify that the torus element lies in the centralizer cut to the
    Levi, returning its coordinates as an evaluation rule on the center."""
    levi = frozenset(levi)
    if not param.minimal_levi <= levi:
        raise EndoscopyError("the parameter does not factor through the Levi")
    q = endo.s
    ann = kernel_basis(mat(list(param.center_basis)))
    for z in ann:
        if dot(z, q) % 1 != 0:
            raise EndoscopyError("the torus element does not lie in the "
                                 "split center of the minimal dual Levi")
    sample = {}
    for j in range(param.dim):
        e = tuple(1 if i == j else 0 for i in range(param.dim))
        sample[e] = weight_exponent(param.center_basis, q, e)
    return {
        "levi": sorted(levi),
        "component": "identity",
        "coordinate_exponents": sample,
    }


# ---------------------------------------------------------------------------
# embedded endoscopic data

@dataclass(frozen=True)
class EmbeddedDatum:
    """An inner class of embedded data: a Weyl twist of the inclusion
    together with the standard Levi of the endoscopic group it selects."""

    w_rep: Matrix            # representative in the full Weyl group
    h_std: Matrix            # conjugator standardizing the cut Levi (in W_H)
    levi_h: FrozenSet[int]   # standard Levi subset of H

    def key(self):
        return (tuple(sorted(self.levi_h)), self.w_rep)


def _full_levi_weyl(group: ReductiveGroup, levi) -> Tuple[Matrix, ...]:
    from .rootdata import reflection_matrix
    datum = group.datum
    gens = [reflection_matrix(datum.simple_roots[pos], datum.simple_coroots[pos])
            for pos in sorted(levi)]
    if not gens:
        return (mat_identity(datum.rank),)
    order, _ = closure(tuple(gens), 10**6)
    return tuple(sorted(order))


def transporter_condition(group: ReductiveGroup, endo: EndoscopicDatum,
                          param: Parameter, w: Matrix) -> bool:
    """The Galois condition cutting out W(L, H): for every Galois element
    some element of the endoscopic Weyl group corrects it to centralize
    the pulled-back parameter center."""
    winv = group.weyl.inverse[w]
    basis = tuple(mat_vec(winv, u) for u in param.center_basis)
    wh = endo.weyl_h_elements()
    for g in group.galois.char_elements():
        ok = False
        for h in wh:
            hg = mat_mul(h, g)
            if all(mat_vec(hg, v) == v for v in basis):
                ok = True
                break
        if not ok:
            return False
    return True


def enumerate_embedded(param: Parameter, levi,
                       endo: EndoscopicDatum) -> Tuple[EmbeddedDatum, ...]:
    """Inner-class representatives of embedded data for the given Levi:
    double cosets of the condition set by the Levi and endoscopic Weyl
    groups, each standardized inside the endoscopic group."""
    group = param.group
    levi = frozenset(levi)
    wl = _full_levi_weyl(group, levi)
    wh = endo.weyl_h_elements()
    admissible = [w for w in group.weyl.elements
                  if transporter_condition(group, endo, param, w)]
    seen = set()
    out = []
    levi_root_set = {group.datum.roots[i]
                     for i in group.levi_context(levi).root_indices()}
    for w in sorted(admissible):
        if w in seen:
            continue
        orbit = {mat_mul(mat_mul(l, w), h) for l in wl for h in wh}
        seen |= orbit
        rep = min(orbit)
        emb = _standardize_embedded(param, endo, levi, levi_root_set, rep)
        if emb is not None:
            out.append(emb)
    return tuple(sorted(out, key=lambda e: e.key()))


def _standardize_embedded(param: Parameter, endo: EndoscopicDatum,
                          levi: FrozenSet[int], levi_root_set,
                          w: Matrix) -> Optional[EmbeddedDatum]:
    """Cut the endoscopic group by the twisted Levi and conjugate the cut
    to a standard Levi of H; None when the cut cannot be an endoscopic
    datum of the Levi (never happens for admissible twists, asserted)."""
    H = endo.H
    cut_roots = {r for r in endo.h_root_set
                 if mat_vec(w, r) in levi_root_set}
    for h in H.weyl.elements:
        image = {mat_vec(h, r) for r in cut_roots}
        subset = _standard_levi_with_roots(H, image)
        if subset is None:
            continue
        _assert_endoscopic_cut(param.group, endo, levi, w, cut_roots)
        return EmbeddedDatum(w, h, subset)
    raise AssertionError("endoscopic Levi cut is not conjugate to a "
                         "standard Levi")


def _standard_levi_with_roots(H: ReductiveGroup, root_set) -> Optional[FrozenSet[int]]:
    for subset in H.standard_levi_subsets():
        idx = H.levi_context(subset).root_indices()
        if {H.datum.roots[i] for i in idx} == root_set:
            return subset
    return None


def _assert_endoscopic_cut(group, endo, levi, w, cut_roots) -> None:
    """The twisted cut must equal the integral-pairing sub-system of the
    Levi at the twisted torus element."""
    q_w = endo.s_conjugate(w)
    datum = group.datum
    levi_indices = group.levi_context(levi).root_indices()
    expected = {datum.roots[i] for i in levi_indices
                if dot(datum.coroots[i], q_w) % 1 == 0}
    image = {mat_vec(w, r) for r in cut_roots}
    if image != expected:
        raise AssertionError("twisted endoscopic cut does not match the "
                             "Levi centralizer of the twisted element")


# ---------------------------------------------------------------------------
# the endoscopic side parameter

def parameter_on_h(param: Parameter, endo: EndoscopicDatum):
    """Transport the parameter to the endoscopic group: the minimal Levi
    goes to a standard Levi of H by an endoscopic Weyl element, and the
    surviving centralizer roots come along.

    Returns (param_H, h) with h the standardizing element.  Raises when
    the parameter does not factor through the endoscopic group at this
    combinatorial level."""
    H = endo.H
    center_span = param.center_basis
    for subset in H.standard_levi_subsets():
        target = H.levi_context(subset).dual_split_center_basis
        if len(target) != len(center_span):
            continue
        for h in H.relative.elements:
            image = tuple(mat_vec(h, u) for u in center_span)
            if all(in_span(target, v) for v in image) and \
               all(in_span(image, v) for v in target):
                return _build_param_h(param, endo, subset, h), h
    raise EndoscopyError("the parameter center is not conjugate to the "
                         "split center of a standard Levi of the endoscopic "
                         "group; the parameter does not factor through it")


def _build_param_h(param: Parameter, endo: EndoscopicDatum,
                   subset: FrozenSet[int], h: Matrix) -> Parameter:
    H = endo.H
    bh = H.relative.contragredient[h]   # action on the dual side
    sphi_h = []
    pos_h = []
    for r in param.roots:
        ambients = param.ambient_of_root[r]
        integral = [a for a in ambients if dot(a, endo.s) % 1 == 0]
        if integral and len(integral) != len(ambients):
            raise EndoscopyError("mixed integrality among ambient roots of a "
                                 "restricted root; unsupported configuration")
        if integral:
            moved = [mat_vec(bh, a) for a in integral]
            sphi_h.extend(moved)
            if r in set(param.positives):
                pos_h.extend(moved)
    r_words = []
    for relt in param.r_generators:
        moved = mat_mul(mat_mul(h, relt), H.relative.inverse[h])
        if moved not in H.relative.words:
            raise EndoscopyError("component generator does not descend to "
                                 "the endoscopic group")
        r_words.append(H.relative.word(moved))
    return Parameter(H, subset, tuple(sphi_h), tuple(pos_h),
                     tuple(r_words),
                     label="%s|%s" % (param.label, endo.label),
                     tempered=param.tempered)


# ---------------------------------------------------------------------------
# formal distributions

@dataclass(frozen=True)
class Term:
    """One record of a formal distribution."""

    kind: str                 # "member" | "stable" | "nonregular"
    levi: Tuple[int, ...]
    param_tag: Tuple
    s_tag: str
    delta_twist: Fraction
    sign_token: str


class FormalDistribution:
    """Finite formal sum of terms with exact cyclotomic coefficients.

    Terms merge on (kind, levi, param_tag, s_tag, delta_twist, sign_token);
    zero coefficients are dropped."""

    def __init__(self):
        self._terms: Dict[Term, Cyclo] = {}

    def add(self, term: Term, coefficient) -> None:
        c = coefficient if isinstance(coefficient, Cyclo) \
            else Cyclo.from_rational(coefficient)
        cur = self._terms.get(term, Cyclo.zero())
        new = cur + c
        if new.is_zero():
            self._terms.pop(term, None)
        else:
            self._terms[term] = new

    def items(self) -> Tuple[Tuple[Term, Cyclo], ...]:
        return tuple(sorted(self._terms.items(),
                            key=lambda kv: (kv[0].kind, kv[0].levi,
                                            repr(kv[0].param_tag),
                                            kv[0].s_tag, kv[0].delta_twist)))

    def __eq__(self, other):
        if not isinstance(other, FormalDistribution):
            return NotImplemented
        if set(self._terms) != set(other._terms):
            return False
        return all(self._terms[t] == other._terms[t] for t in self._terms)

    def __len__(self):
        return len(self._terms)

    def describe(self) -> List[Dict]:
        out = []
        for term, coeff in self.items():
            out.append({
                "kind": term.kind,
                "levi": list(term.levi),
                "param_tag": _jsonable(term.param_tag),
                "s_tag": term.s_tag,
                "delta_twist": str(term.delta_twist),
                "sign_token": term.sign_token,
                "coefficient": coeff.pretty(),
            })
        return out


def _jsonable(x):
    if isinstance(x, (tuple, list)):
        return [_jsonable(y) for y in x]
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, Fraction):
        return str(x)
    return x


# ---------------------------------------------------------------------------
# geometric-lemma terms on the endoscopic side

def _phi_tag(param_h: Parameter, w: Matrix) -> Tuple:
    """Canonical label of the twisted parameter: twists agree exactly when
    they differ by the centralizer Weyl group on the right."""
    return min(mat_mul(w, f) for f in param_h.wphi_elements)


def jacquet_geometric_terms(endo: EndoscopicDatum, emb: EmbeddedDatum,
                            param_h: Parameter) -> FormalDistribution:
    """One term per geometric-lemma index element for the restriction of
    the stable label from the endoscopic group to the embedded Levi:
    transporter elements give regular stable labels, the others give
    tagged nonregular terms carrying their intersection Levis."""
    H = endo.H
    h_m = param_h.minimal_levi
    h_l = emb.levi_h
    dist = FormalDistribution()
    trans = set(transporter_set(H, h_m, h_l))
    for w, left, right in geometric_lemma_index(H, h_m, h_l):
        if w in trans:
            dist.add(Term("stable", tuple(sorted(h_l)),
                          ("phi_H", _phi_tag(param_h, w)),
                          endo.label, Fraction(0), "1"), 1)
        else:
            dist.add(Term("nonregular", tuple(sorted(h_l)),
                          ("jacquet", H.relative.word(w), left, right),
                          endo.label, Fraction(0), "1"), 1)
    return dist


def regular_part(dist: FormalDistribution) -> FormalDistribution:
    """Keep exactly the stable (transporter-indexed) terms."""
    out = FormalDistribution()
    for term, coeff in dist.items():
        if term.kind == "stable":
            out.add(term, coeff)
    return out


# ---------------------------------------------------------------------------
# regular pairing

def _twisted_center_basis(param: Parameter, w: Matrix) -> Tuple[Vector, ...]:
    return tuple(mat_vec(w, u) for u in param.center_basis)


def _trace_on_levi_module(param: Parameter, levi, w: Matrix, lam_w: Vector,
                          module_dim: int, conj: Matrix,
                          q: Sequence[Fraction]) -> Cyclo:
    """Trace of the torus element with exponents (conj . q) on the induced
    Levi module with one-dimensional highest-weight part lam_w."""
    cut = param.levi_cut(levi, w)
    basis = cut.twisted_center_basis
    q_c = tuple(Fraction(x) % 1 for x in mat_vec(conj, q))
    # the element must lie in the twisted parameter center
    for z in kernel_basis(mat(list(basis))):
        if dot(z, q_c) % 1 != 0:
            raise EndoscopyError("conjugated torus element left the twisted "
                                 "parameter center")
    comp = cut.component_elements
    stab = [g for g in comp
            if mat_vec(param.char_action(g), lam_w) == lam_w]
    stab_set = set(stab)
    # left coset representatives of the stabilizer inside the cut components
    reps = []
    covered = set()
    for g in comp:
        if g in covered:
            continue
        reps.append(g)
        covered |= {mat_mul(g, s) for s in stab_set}
    total = Cyclo.zero()
    for g in reps:
        mu = mat_vec(param.char_action(g), lam_w)
        total = total + Cyclo.root_of_unity(
            weight_exponent(basis, q_c, mu))
    return total * module_dim if module_dim != 1 else total


def regular_pairing(param: Parameter, member: PacketMember,
                    endo: EndoscopicDatum):
    """Coset-averaged trace of the (twisted) endoscopic element on the
    member's Levi module; exact cyclotomic value."""
    s_in_levi_check(param, endo, member.levi)
    w = member.w_class
    lam_w = fiber_weight(param, member.b, w)
    if lam_w is None:
        raise AssertionError("member weight is not integral on its own coset")
    cut = param.levi_cut(member.levi, w)
    sub = set(cut.weyl_elements)
    reps = []
    covered = set()
    for g in param.wphi_elements:
        if g in covered:
            continue
        reps.append(g)
        covered |= {mat_mul(s, g) for s in sub}
    dim = member.rho_module_label[0]
    total = Cyclo.zero()
    for g in reps:
        conj = mat_mul(w, g)
        total = total + _trace_on_levi_module(
            param, member.levi, w, lam_w, dim, conj, endo.s)
    return total


# ---------------------------------------------------------------------------
# the indexing bijection

def indexing_forward(param: Parameter, levi, endo: EndoscopicDatum,
                     param_h: Parameter, h: Matrix, emb: EmbeddedDatum,
                     v: Matrix) -> Matrix:
    """Map (embedded class, Levi coset on the endoscopic side) to the
    corresponding transporter coset on the group side: the unique class
    whose inverse restricts to the composite center map."""
    group = param.group
    h_inverse = endo.H.relative.inverse
    ctx_l = group.levi_context(frozenset(levi))
    # the standardized embedding is Int(w_rep) . eta . Int(h_std)^{-1}; its
    # inverse followed by v^{-1} and the de-standardization h^{-1} composes
    # to a map from the Levi center into the parameter center
    composite = mat_mul(
        mat_mul(h_inverse[h], h_inverse[v]),
        mat_mul(emb.h_std, group.weyl.inverse[emb.w_rep]))
    targets = []
    for cand in transporter_set(group, param.minimal_levi, frozenset(levi)):
        cinv = group.relative.inverse[cand]
        if all(mat_vec(cinv, u) == mat_vec(composite, u)
               for u in ctx_l.dual_split_center_basis):
            targets.append(cand)
    if not targets:
        raise AssertionError("indexing construction missed the transporter "
                             "set")
    reps = {_left_coset_rep(group, levi, t) for t in targets}
    if len(reps) != 1:
        raise AssertionError("indexing construction produced an ambiguous "
                             "coset")
    return reps.pop()


def _left_coset_rep(group: ReductiveGroup, levi, w: Matrix) -> Matrix:
    return min(mat_mul(l, w) for l in group.levi_weyl_elements(frozenset(levi)))


def indexing_backward(param: Parameter, levi, endo: EndoscopicDatum,
                      param_h: Parameter, h: Matrix,
                      embedded: Sequence[EmbeddedDatum],
                      w: Matrix):
    """Map a transporter coset back to (embedded class, endoscopic coset):
    twist the inclusion by w against the standardizer, restandardize, and
    read off the correcting element."""
    group = param.group
    H = endo.H
    levi = frozenset(levi)
    levi_root_set = {group.datum.roots[i]
                     for i in group.levi_context(levi).root_indices()}
    u = mat_mul(w, H.relative.inverse[h])
    if not transporter_condition(group, endo, param, u):
        raise AssertionError("backward twist fails the Galois condition")
    cut_roots = {r for r in endo.h_root_set
                 if mat_vec(u, r) in levi_root_set}
    wl = _full_levi_weyl(group, levi)
    wh = endo.weyl_h_elements()
    u_orbit = {mat_mul(mat_mul(l, u), x) for l in wl for x in wh}
    target_emb = None
    for emb in embedded:
        if emb.w_rep in u_orbit:
            target_emb = emb
            break
    if target_emb is None:
        raise AssertionError("backward twist does not meet any embedded class")
    h_l_roots = {H.datum.roots[i]
                 for i in H.levi_context(target_emb.levi_h).root_indices()}
    # hp must transport the endoscopic minimal center over the cut one
    transporters = set(transporter_set(H, param_h.minimal_levi,
                                       target_emb.levi_h))
    candidates = []
    for hp in H.relative.elements:
        if {mat_vec(hp, r) for r in cut_roots} != h_l_roots:
            continue
        if hp not in transporters:
            continue
        candidates.append(hp)
    if not candidates:
        raise AssertionError("no restandardizing element found on the "
                             "endoscopic side")
    reps = {_left_coset_rep(H, target_emb.levi_h, c) for c in candidates}
    forward_hits = set()
    for v in reps:
        got = indexing_forward(param, levi, endo, param_h, h, target_emb, v)
        forward_hits.add((got, v))
    matching = [v for got, v in forward_hits
                if got == _left_coset_rep(group, levi, w)]
    if not matching:
        raise AssertionError("backward construction does not invert forward")
    return target_emb, min(matching)


def indexing_bijection_check(param: Parameter, levi,
                             endo: EndoscopicDatum) -> Dict:
    """Certify the two-sided index identification: the disjoint union of
    endoscopic Levi cosets maps bijectively onto the group-side cosets,
    with the explicit maps mutually inverse."""
    group = param.group
    levi = frozenset(levi)
    param_h, h = parameter_on_h(param, endo)
    embedded = enumerate_embedded(param, levi, endo)
    rhs = sorted({_left_coset_rep(group, levi, t)
                  for t in transporter_set(group, param.minimal_levi, levi)})
    lhs = []
    for emb in embedded:
        cosets = sorted({_left_coset_rep(endo.H, emb.levi_h, t)
                         for t in transporter_set(endo.H,
                                                  param_h.minimal_levi,
                                                  emb.levi_h)})
        for v in cosets:
            lhs.append((emb, v))
    image = []
    table = []
    for emb, v in lhs:
        w = indexing_forward(param, levi, endo, param_h, h, emb, v)
        image.append(w)
        table.append({
            "embedded_levi": sorted(emb.levi_h),
            "endoscopic_coset": list(endo.H.relative.word(v)),
            "group_coset": list(group.relative.word(w)),
        })
    forward_bijective = sorted(image) == rhs
    back_ok = True
    for w in rhs:
        emb, v = indexing_backward(param, levi, endo, param_h, h, embedded, w)
        got = indexing_forward(param, levi, endo, param_h, h, emb, v)
        if _left_coset_rep(group, levi, got) != w:
            back_ok = False
    return {
        "pass": forward_bijective and back_ok,
        "lhs_size": len(lhs),
        "rhs_size": len(rhs),
        "embedded_classes": len(embedded),
        "forward_bijective": forward_bijective,
        "backward_inverts": back_ok,
        "table": table,
    }


# ---------------------------------------------------------------------------
# the two-sided identity

def _expand_levi_token(param: Parameter, b: BElement, w: Matrix,
                       endo: EndoscopicDatum, dist: FormalDistribution,
                       sign_token: str) -> None:
    """Expand the stable Levi token at a single transporter coset into
    member atoms: one term per stabilizer module, with the single-twist
    trace as coefficient."""
    lam_raw = fiber_weight(param, b, w)
    if lam_raw is None:
        return
    lam = dominantize(param, lam_raw)
    a_lam = _component_stabilizer(param, lam)
    for module in simple_modules(a_lam):
        rho = canonical_rho(param, HighestWeightPair(lam, module))
        member = build_packet_member(param, rho)
        coeff = _trace_on_levi_module(param, member.levi, w, lam_raw,
                                      module.dim, w, endo.s)
        dist.add(Term("member", tuple(sorted(member.levi)), member.key(),
                      endo.label, Fraction(1, 2), sign_token), coeff)


def eci_both_sides(param: Parameter, b: BElement,
                   endo: EndoscopicDatum) -> Dict:
    """Compute both sides of the regular character identity as canonical
    formal sums of member atoms, through genuinely different routes, and
    compare exactly.

    The endoscopic side runs: embedded data, geometric lemma, regular
    part, formal basic-identity rewrite, indexing map, atom expansion.
    The group side runs: fiber enumeration and coset-averaged pairings.
    """
    group = param.group
    levi = b.levi
    sign = "e(G_b)"
    # ---- group side ------------------------------------------------------
    rhs = FormalDistribution()
    for member in enumerate_fiber(param, b):
        coeff = regular_pairing(param, member, endo)
        rhs.add(Term("member", tuple(sorted(levi)), member.key(),
                     endo.label, Fraction(1, 2), sign), coeff)
    # ---- endoscopic side ---------------------------------------------------
    param_h, h = parameter_on_h(param, endo)
    embedded = enumerate_embedded(param, levi, endo)
    lhs = FormalDistribution()
    discarded = FormalDistribution()
    bookkeeping = []
    for emb in embedded:
        terms = jacquet_geometric_terms(endo, emb, param_h)
        reg = regular_part(terms)
        for term, coeff in terms.items():
            if term.kind == "nonregular":
                discarded.add(term, coeff)
        # regular stable labels are indexed by transporter double cosets of
        # the endoscopic side; rewrite each through the basic identity and
        # the indexing map, then expand
        h_cosets = sorted({_left_coset_rep(endo.H, emb.levi_h, t)
                           for t in transporter_set(
                               endo.H, param_h.minimal_levi, emb.levi_h)})
        if len(reg) and not h_cosets:
            raise AssertionError("regular terms without endoscopic cosets")
        count = 0
        for v in h_cosets:
            w = indexing_forward(param, levi, endo, param_h, h, emb, v)
            _expand_levi_token(param, b, w, endo, lhs, sign)
            count += 1
        expected = sum(1 for term, c in reg.items()
                       for _ in range(int(c.as_rational())))
        if count != expected:
            raise AssertionError("regular-part count disagrees with the "
                                 "endoscopic coset count")
        bookkeeping.append({
            "embedded": sorted(emb.levi_h),
            "regular_terms": expected,
            "nonregular_terms": sum(
                1 for t, _ in terms.items() if t.kind == "nonregular"),
        })
    # coefficient bookkeeping invariant: |W_L w W_phi / W_phi| =
    # |W_L / W_{w phi, L}| for every coset
    _verify_counting(param, levi)
    equal = lhs == rhs
    return {
        "equal": equal,
        "lhs": lhs,
        "rhs": rhs,
        "discarded_nonregular": discarded,
        "embedded": bookkeeping,
        "sign_token": sign,
        "delta_twist": "1/2",
    }


def _verify_counting(param: Parameter, levi) -> None:
    group = param.group
    left = group.levi_weyl_elements(frozenset(levi))
    for w in transporter_set(group, param.minimal_levi, frozenset(levi)):
        orbit = {mat_mul(mat_mul(l, w), f)
                 for l in left for f in param.wphi_elements}
        cosets = {frozenset(mat_mul(x, f) for f in param.wphi_elements)
                  for x in orbit}
        cut = param.levi_cut(frozenset(levi), w)
        if len(cosets) * len(cut.weyl_elements) != len(left):
            raise AssertionError("coset counting identity fails")
