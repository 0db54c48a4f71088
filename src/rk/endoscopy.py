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

from fractions import Fraction
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .cyclotomic import Cyclo
from .disconnected import HighestWeightPair
from .finite_reps import FiniteGroup
from .kottwitz import BElement
from .lattice import (
    Matrix,
    SmithSolver,
    Value,
    Vector,
    cached,
    dot,
    mat_mul,
    mat_vec,
)
from .packets import (
    PacketMember,
    build_packet_member,
    enumerate_fiber,
    fiber_weight,
    fiber_weights,
)
from .params import Parameter, _simple_positions
from .rootdata import BasedRootDatum, GaloisAction, ReductiveGroup
from .weyl import geometric_lemma_index, transporter_set


class EndoscopyError(ValueError):
    """Invalid endoscopic datum or an unsupported configuration."""


class EndoscopicDatum:
    """(H, s, eta) with eta the inclusion of a sub-root-datum sharing the
    maximal torus; s is a rational exponent vector modulo 1, also kept as
    the integer numerators `s_num` over its one denominator `s_den`."""

    def __init__(self, group: ReductiveGroup, s_exponents: Sequence,
                 label: str = ""):
        self.group = group
        n = group.datum.rank
        q = tuple(Fraction(x) % 1 for x in s_exponents)
        if len(q) != n:
            raise EndoscopyError("exponent vector of wrong length")
        self.s = q
        self.s_den, self.s_num = ReductiveGroup.integer_point(q)
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
        simple = _simple_positions(
            keep_roots, [datum.roots[i] for i in keep if i in positives])
        h_datum = BasedRootDatum(n, keep_roots, keep_coroots, simple,
                                 "H(%s)" % self.label)
        h_galois = GaloisAction(h_datum, group.galois.char_generators)
        self.H = ReductiveGroup(h_datum, h_galois, name=h_datum.name)
        # the G root index of each H root
        self.keep: Tuple[int, ...] = tuple(keep)

    def s_conjugate(self, w: Matrix) -> Tuple[Fraction, ...]:
        """Exponents of the w-conjugate of s (action on dual cocharacters)."""
        return tuple(Fraction(x) % 1 for x in mat_vec(w, self.s))


# ---------------------------------------------------------------------------
# membership of s in Levi centralizers

def _weight_exponent(solver: SmithSolver, q_num: Vector, den: int,
                     weight: Sequence[int]) -> Fraction:
    """Exponent of the evaluation of a center-lattice weight at the torus
    point with exponents q_num / den: extend the weight to the full
    character lattice through the kept factorization of the center basis
    (as rows) and pair, one integer pairing reduced mod den."""
    ext = solver.solve(tuple(weight))
    if ext is None:
        raise EndoscopyError("weight does not extend integrally")
    return Fraction(dot(ext, q_num) % den, den)


def _check_s_in_levi(param: Parameter, endo: EndoscopicDatum,
                     levi: FrozenSet[int]) -> None:
    """The two membership checks of `s_in_levi_check`, without its
    coordinate sample."""
    if not param.minimal_levi <= levi:
        raise EndoscopyError("the parameter does not factor through the Levi")
    den, q = endo.s_den, endo.s_num
    # the parameter center basis is the minimal Levi's dual split center
    for z in param.ctx_M.dual_center_solver.kernel:
        if dot(z, q) % den != 0:
            raise EndoscopyError("the torus element does not lie in the "
                                 "split center of the minimal dual Levi")


def s_in_levi_check(param: Parameter, endo: EndoscopicDatum, levi) -> Dict:
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


# ---------------------------------------------------------------------------
# embedded endoscopic data

class EmbeddedDatum(Value):
    """An inner class of embedded data: a Weyl twist of the inclusion
    together with the standard Levi of the endoscopic group it selects."""

    def __init__(self, w_rep: Matrix,  # representative in the full W
                 h_std: Matrix,  # standardizes the cut Levi (in W_H)
                 levi_h: FrozenSet[int]):  # standard Levi subset of H
        object.__setattr__(self, "w_rep", w_rep)
        object.__setattr__(self, "h_std", h_std)
        object.__setattr__(self, "levi_h", levi_h)

    def key(self):
        return (tuple(sorted(self.levi_h)), self.w_rep)


def _memo(param: Parameter, endo: EndoscopicDatum) -> Dict:
    """The (parameter, datum) memo; its kinds are listed at Parameter.memo."""
    return cached(param.memo, ("endoscopy", endo), dict)


def _cached(param: Parameter, endo: EndoscopicDatum, key, compute, *args):
    return cached(_memo(param, endo), key, compute, *args)


def _full_levi_weyl(param: Parameter, endo: EndoscopicDatum,
                    levi: FrozenSet[int]) -> Tuple[Tuple[int, ...], ...]:
    """The ids of W_L, from the Levi's simple reflections, and of W_H in
    the absolute Weyl group."""
    weyl = param.group.weyl
    gens = [weyl.generators[pos] for pos in sorted(levi)]
    return _cached(param, endo, ("wl", levi), lambda: tuple(
        tuple(map(weyl.index.__getitem__, part))
        for part in (weyl.generated(gens), endo.H.weyl.elements)))


def _admissible(param: Parameter, endo: EndoscopicDatum) -> FrozenSet[Matrix]:
    """W(L, H), the twists w in W satisfying the Galois condition: for
    every Galois element g some h in W_H makes h.g fix the pulled-back
    parameter center w^-1(X_*(A_M^)).  The products h.g are formed once
    per Galois element."""
    return _cached(param, endo, ("admissible",), _admissible_scan, param, endo)


def _admissible_scan(param: Parameter, endo: EndoscopicDatum):
    weyl, galois = param.group.weyl, param.group.galois
    corrections = [[mat_mul(h, g) for h in endo.H.weyl.elements]
                   for g in FiniteGroup.from_matrices(
                       galois.char_generators).elements]
    out = set()
    for w in weyl.elements:
        basis = [mat_vec(weyl.inverse[w], u) for u in param.center_basis]
        if all(any(all(mat_vec(hg, v) == v for v in basis) for hg in row)
               for row in corrections):
            out.add(w)
    return frozenset(out)


def enumerate_embedded(param: Parameter, levi,
                       endo: EndoscopicDatum) -> Tuple[EmbeddedDatum, ...]:
    """Inner-class representatives of embedded data for the given Levi:
    double cosets of the condition set by the Levi and endoscopic Weyl
    groups, each standardized inside the endoscopic group (computed once
    per parameter, datum and Levi)."""
    levi = frozenset(levi)
    return _cached(param, endo, ("embedded", levi), _embedded, param, levi,
                   endo)


def _embedded(param: Parameter, levi: FrozenSet[int],
              endo: EndoscopicDatum) -> Tuple[EmbeddedDatum, ...]:
    weyl = param.group.weyl
    wl, wh = _full_levi_weyl(param, endo, levi)
    admissible = sorted(map(weyl.index.__getitem__, _admissible(param, endo)))
    out = []
    for coset in weyl.double_cosets(wl, admissible, wh):
        emb = _standardize_embedded(param, endo, levi,
                                    weyl.elements[min(coset)])
        if emb is not None:
            out.append(emb)
    return tuple(sorted(out, key=lambda e: e.key()))


def _cut(group: ReductiveGroup, endo: EndoscopicDatum, levi: FrozenSet[int],
         u: Matrix) -> FrozenSet[int]:
    """The H roots, as H root indices, that u in the Weyl group of G sends
    into the Levi."""
    inside = set(group.levi_context(levi).root_indices)
    perm = group.weyl.perm[u]
    return frozenset(j for j, i in enumerate(endo.keep) if perm[i] in inside)


def _standardize_embedded(param: Parameter, endo: EndoscopicDatum,
                          levi: FrozenSet[int],
                          w: Matrix) -> Optional[EmbeddedDatum]:
    """Cut the endoscopic group by the twisted Levi and conjugate the cut
    to a standard Levi of H; None when the cut cannot be an endoscopic
    datum of the Levi (never happens for admissible twists, asserted)."""
    H = endo.H
    cut = _cut(param.group, endo, levi, w)
    levi_of = {H.levi_context(s).root_indices: s
               for s in H.standard_levi_subsets()}
    for h in H.weyl.elements:
        subset = levi_of.get(tuple(sorted(map(H.weyl.perm[h].__getitem__,
                                              cut))))
        if subset is not None:
            _assert_endoscopic_cut(param.group, endo, levi, w, cut)
            return EmbeddedDatum(w, h, subset)
    raise AssertionError("endoscopic Levi cut is not conjugate to a "
                         "standard Levi")


def _assert_endoscopic_cut(group, endo, levi, w, cut) -> None:
    """The twisted cut must equal the integral-pairing sub-system of the
    Levi at the twisted torus element."""
    q_w = endo.s_conjugate(w)
    datum = group.datum
    expected = {i for i in group.levi_context(levi).root_indices
                if dot(datum.coroots[i], q_w) % 1 == 0}
    perm = group.weyl.perm[w]
    if {perm[endo.keep[j]] for j in cut} != expected:
        raise AssertionError("twisted endoscopic cut does not match the "
                             "Levi centralizer of the twisted element")


# ---------------------------------------------------------------------------
# the endoscopic side parameter

def parameter_on_h(param: Parameter, endo: EndoscopicDatum):
    """Transport the parameter to the endoscopic group: the minimal Levi
    goes to a standard Levi of H by an endoscopic Weyl element, and the
    surviving centralizer roots come along.

    Returns (param_H, h) with h the standardizing element, computed once
    per parameter and datum.  Raises when the parameter does not factor
    through the endoscopic group at this combinatorial level."""
    return _cached(param, endo, ("h",), _find_parameter_on_h, param, endo)


def _find_parameter_on_h(param: Parameter, endo: EndoscopicDatum):
    H = endo.H
    center_span = param.center_basis
    for subset in H.standard_levi_subsets():
        ctx = H.levi_context(subset)
        if ctx.dim != len(center_span):
            continue
        # equal lengths of independent bases give equal spans
        for h in H.relative.elements:
            if all(ctx.in_dual_split_span(mat_vec(h, u))
                   for u in center_span):
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
    positives = set(param.positives)
    for r in param.roots:
        ambients = param.ambient_of_root[r]
        integral = [a for a in ambients if dot(a, endo.s) % 1 == 0]
        if integral and len(integral) != len(ambients):
            raise EndoscopyError("mixed integrality among ambient roots of a "
                                 "restricted root; unsupported configuration")
        if integral:
            moved = [mat_vec(bh, a) for a in integral]
            sphi_h.extend(moved)
            if r in positives:
                pos_h.extend(moved)
    r_words = []
    mul = param.group.weyl.mul   # h, R_phi and h^-1 all lie in W(G)
    for relt in param.r_generators:
        moved = mul(mul(h, relt), H.relative.inverse[h])
        if moved not in H.relative.words:
            raise EndoscopyError("component generator does not descend to "
                                 "the endoscopic group")
        r_words.append(H.relative.word(moved))
    return Parameter(H, subset, tuple(sphi_h), tuple(pos_h),
                     tuple(r_words),
                     label="%s|%s" % (param.label, endo.label))


# ---------------------------------------------------------------------------
# formal distributions

class Term(Value):
    """One record of a formal distribution."""

    def __init__(self, kind: str,  # "member" | "stable" | "nonregular"
                 levi: Tuple[int, ...], param_tag: Tuple, s_tag: str,
                 delta_twist: Fraction, sign_token: str):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "levi", levi)
        object.__setattr__(self, "param_tag", param_tag)
        object.__setattr__(self, "s_tag", s_tag)
        object.__setattr__(self, "delta_twist", delta_twist)
        object.__setattr__(self, "sign_token", sign_token)

    _hashed = attrgetter("kind", "levi", "param_tag", "s_tag", "sign_token")

    def __hash__(self):
        # delta_twist is a constant per kind, and a Fraction hashes in
        # Python code; equality still compares all six fields
        return hash(self._hashed(self))


class FormalDistribution:
    """Finite formal sum of terms with exact cyclotomic coefficients.

    Terms merge on (kind, levi, param_tag, s_tag, delta_twist, sign_token);
    zero coefficients are dropped."""

    def __init__(self):
        self._terms: Dict[Term, Cyclo] = {}

    def add(self, term: Term, coefficient) -> None:
        c = coefficient if isinstance(coefficient, Cyclo) \
            else Cyclo.from_rational(coefficient)
        cur = self._terms.get(term)
        new = (Cyclo.zero() if cur is None else cur) + c
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
        return self._terms == other._terms

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
    rel = param_h.group.relative
    row = rel.row(rel.index[w])
    return rel.elements[min(row[f] for f in param_h.wphi_ids)]


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


def _geometric_expansion(endo: EndoscopicDatum, emb: EmbeddedDatum,
                         param_h: Parameter) -> Tuple[Tuple, int]:
    """The geometric-lemma terms of one embedded class as sorted (term,
    coefficient) items, and the number of regular terms counted with
    their coefficients."""
    terms = jacquet_geometric_terms(endo, emb, param_h)
    regular = sum(1 for _term, c in regular_part(terms).items()
                  for _ in range(int(c.as_rational())))
    return terms.items(), regular


def regular_part(dist: FormalDistribution) -> FormalDistribution:
    """Keep exactly the stable (transporter-indexed) terms."""
    out = FormalDistribution()
    for term, coeff in dist.items():
        if term.kind == "stable":
            out.add(term, coeff)
    return out


# ---------------------------------------------------------------------------
# regular pairing

def _trace_on_levi_module(param: Parameter, levi, w: Matrix, lam_w: Vector,
                          module_dim: int, g: Matrix,
                          endo: EndoscopicDatum) -> Cyclo:
    """Trace of the torus element w . g . s on the induced Levi module with
    one-dimensional highest-weight part lam_w, a weight on the twisted
    center w . B.  Extending a weight from w . B and pairing it with
    w . g . s gives the exponent of extending it from B and pairing it with
    g . s, so g . s runs through the parameter center's factorization, as
    integer numerators mod the one denominator of s.  The orbit sum is
    kept per (Levi, w, lam_w, g); the center test runs on every call."""
    levi = frozenset(levi)
    cut = param.levi_cut(levi, w)
    solver = param.ctx_M.dual_center_solver
    den = endo.s_den
    q_g = tuple(x % den for x in mat_vec(g, endo.s_num))
    # w . g . s lies in the twisted center exactly when g . s lies in the
    # parameter center
    for z in solver.kernel:
        if dot(z, q_g) % den != 0:
            raise EndoscopyError("conjugated torus element left the twisted "
                                 "parameter center")
    total = _cached(param, endo, ("trace", levi, w, lam_w, g), _orbit_sum,
                    param, cut, solver, lam_w, q_g, den)
    return total * module_dim if module_dim != 1 else total


def _orbit_sum(param: Parameter, cut, solver: SmithSolver, lam_w: Vector,
               q_g: Vector, den: int) -> Cyclo:
    """One term per point of the orbit of lam_w under the cut components."""
    orbit = {mat_vec(param.char_action(c), lam_w)
             for c in cut.component_elements}
    return sum((Cyclo.root_of_unity(_weight_exponent(solver, q_g, den, mu))
                for mu in orbit), Cyclo.zero())


def regular_pairing(param: Parameter, member: PacketMember,
                    endo: EndoscopicDatum):
    """Coset-averaged trace of the (twisted) endoscopic element on the
    member's Levi module; exact cyclotomic value."""
    _check_s_in_levi(param, endo, member.levi)
    w = member.w_class
    lam_w = fiber_weight(param, member.b, w)
    if lam_w is None:
        raise AssertionError("member weight is not integral on its own coset")
    reps = _pairing_reps(param, param.levi_cut(member.levi, w))
    dim = member.rho_module_label[0]
    total = Cyclo.zero()
    for g in reps:
        total = total + _trace_on_levi_module(
            param, member.levi, w, lam_w, dim, g, endo)
    return total


def _pairing_reps(param: Parameter, cut) -> List[Matrix]:
    """One element of W_phi per coset W_cut . g of the cut's Weyl group,
    the first in W_phi's order."""
    rel = param.group.relative
    index = rel.index
    # W_cut lies in W_phi, whose ids ascend, so the first is the least
    return [rel.elements[min(coset)] for coset in rel.double_cosets(
        [index[s] for s in cut.weyl_elements], param.wphi_ids,
        (index[rel.identity],))]


# ---------------------------------------------------------------------------
# the indexing bijection

def indexing_forward(param: Parameter, levi, endo: EndoscopicDatum,
                     h: Matrix, emb: EmbeddedDatum, v: Matrix) -> Matrix:
    """Map (embedded class, Levi coset on the endoscopic side) to the
    corresponding transporter coset on the group side: the unique class
    whose inverse restricts to the composite center map (computed once
    per Levi, h, embedded class and v)."""
    levi = frozenset(levi)
    return _cached(param, endo, ("indexing", levi, h, emb.key(), v),
                   _forward_coset, param, levi, endo, h, emb, v)


def _forward_coset(param: Parameter, levi: FrozenSet[int],
                   endo: EndoscopicDatum, h: Matrix, emb: EmbeddedDatum,
                   v: Matrix) -> Matrix:
    group = param.group
    h_inverse = endo.H.relative.inverse
    # the standardized embedding is Int(w_rep) . eta . Int(h_std)^{-1}; its
    # inverse followed by v^{-1} and the de-standardization h^{-1} composes
    # to a map from the Levi center into the parameter center
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


def _forward_table(param: Parameter,
                   levi: FrozenSet[int]) -> Dict[Tuple, FrozenSet[Matrix]]:
    """The restriction of cand^-1 to X_*(A_L^) -> the left W^rel_L coset
    representatives of the transporter elements cand with that
    restriction; built once per (param, levi), for every datum."""
    return cached(param.memo, ("forward", levi), _restriction_table, param,
                  levi)


def _restriction_table(param: Parameter, levi: FrozenSet[int]):
    group = param.group
    basis = group.levi_context(levi).dual_split_center_basis
    cosets = param.transporter_cosets(levi)
    table: Dict[Tuple, set] = {}
    for cand in cosets.elements:
        cinv = group.relative.inverse[cand]
        table.setdefault(tuple(mat_vec(cinv, u) for u in basis),
                         set()).add(cosets.left_rep[cand])
    return {key: frozenset(reps) for key, reps in table.items()}


def indexing_backward(param: Parameter, levi, endo: EndoscopicDatum,
                      param_h: Parameter, h: Matrix,
                      embedded: Sequence[EmbeddedDatum],
                      w: Matrix):
    """Map a transporter coset back to (embedded class, endoscopic coset):
    twist the inclusion by w against the standardizer, restandardize, and
    read off the correcting element.  `embedded` is
    `enumerate_embedded(param, levi, endo)`; the restandardizing data of
    the twist are built once per (Levi, twist), and the Galois condition
    and the forward check run on every call."""
    group = param.group
    levi = frozenset(levi)
    # w and h^-1 lie in W^rel and W^rel_H, both inside the absolute W
    u = group.weyl.mul(w, endo.H.relative.inverse[h])
    if u not in _admissible(param, endo):
        raise AssertionError("backward twist fails the Galois condition")
    target_emb, reps = _cached(param, endo, ("backward", levi, u),
                               _backward_table, param, levi, endo, param_h,
                               embedded, u)
    target = param.transporter_cosets(levi).left_rep.get(w)
    matching = [v for v in reps if indexing_forward(
        param, levi, endo, h, target_emb, v) == target]
    if not matching:
        raise AssertionError("backward construction does not invert forward")
    return target_emb, min(matching)


def _backward_table(param: Parameter, levi: FrozenSet[int],
                    endo: EndoscopicDatum, param_h: Parameter,
                    embedded: Sequence[EmbeddedDatum], u: Matrix):
    """The embedded class that W_L . u . W_H meets, and the left W^rel_H
    coset representatives of the elements restandardizing the cut of u."""
    group = param.group
    H = endo.H
    index = group.weyl.index
    wl, wh = _full_levi_weyl(param, endo, levi)
    u_orbit = group.weyl.double_coset(wl, index[u], wh)
    target_emb = next((e for e in embedded if index[e.w_rep] in u_orbit),
                      None)
    if target_emb is None:
        raise AssertionError("backward twist does not meet any embedded class")
    cut = _cut(group, endo, levi, u)
    h_l_roots = set(H.levi_context(target_emb.levi_h).root_indices)
    # hp must transport the endoscopic minimal center over the cut one
    perm = H.relative.perm
    h_cosets = param_h.transporter_cosets(target_emb.levi_h)
    candidates = [hp for hp in h_cosets.elements
                  if {perm[hp][j] for j in cut} == h_l_roots]
    if not candidates:
        raise AssertionError("no restandardizing element found on the "
                             "endoscopic side")
    return target_emb, tuple(sorted(
        {h_cosets.left_rep[c] for c in candidates}))


def indexing_bijection_check(param: Parameter, levi,
                             endo: EndoscopicDatum) -> Dict:
    """Certify the two-sided index identification: the disjoint union of
    endoscopic Levi cosets maps bijectively onto the group-side cosets,
    with the explicit maps mutually inverse."""
    group = param.group
    levi = frozenset(levi)
    param_h, h = parameter_on_h(param, endo)
    embedded = enumerate_embedded(param, levi, endo)
    rhs = list(param.transporter_cosets(levi).left_reps)
    lhs = [(emb, v) for emb in embedded
           for v in param_h.transporter_cosets(emb.levi_h).left_reps]
    image = []
    table = []
    for emb, v in lhs:
        w = indexing_forward(param, levi, endo, h, emb, v)
        image.append(w)
        table.append({
            "embedded_levi": sorted(emb.levi_h),
            "endoscopic_coset": list(endo.H.relative.word(v)),
            "group_coset": list(group.relative.word(w)),
        })
    forward_bijective = sorted(image) == rhs
    # indexing_backward raises unless the forward map sends its result to
    # the coset of w, which is w itself: w is a coset representative
    for w in rhs:
        indexing_backward(param, levi, endo, param_h, h, embedded, w)
    return {
        "pass": forward_bijective,
        "lhs_size": len(lhs),
        "rhs_size": len(rhs),
        "embedded_classes": len(embedded),
        "forward_bijective": forward_bijective,
        "backward_inverts": True,
        "table": table,
    }


# ---------------------------------------------------------------------------
# the two-sided identity

def _expand_levi_token(param: Parameter, b: BElement, w: Matrix,
                       endo: EndoscopicDatum, dist: FormalDistribution,
                       sign_token: str) -> None:
    """Expand the stable Levi token at a single transporter coset into
    member atoms: one term per stabilizer module, with the single-twist
    trace as coefficient.  The (term, coefficient) items are computed once
    per (b, w) and added to `dist` on every call."""
    items = _cached(param, endo, ("token", b, w, sign_token),
                    _levi_token_items, param, b, w, endo, sign_token)
    for term, coeff in items:
        dist.add(term, coeff)


def _levi_token_items(param: Parameter, b: BElement, w: Matrix,
                      endo: EndoscopicDatum, sign_token: str) -> Tuple:
    weights = fiber_weights(param, b, w)
    if weights is None:
        return ()
    lam_raw, lam = weights
    identity = param.group.relative.identity
    items = []
    for module in param.centralizer.stabilizer_modules(lam):
        member = build_packet_member(param, HighestWeightPair(lam, module))
        coeff = _trace_on_levi_module(param, member.levi, w, lam_raw,
                                      module.dim, identity, endo)
        items.append((Term("member", tuple(sorted(member.levi)), member.key(),
                           endo.label, Fraction(1, 2), sign_token), coeff))
    return tuple(items)


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
        items, expected = _cached(param, endo, ("jacquet", emb.key()),
                                  _geometric_expansion, endo, emb, param_h)
        nonregular = 0
        for term, coeff in items:
            if term.kind == "nonregular":
                discarded.add(term, coeff)
                nonregular += 1
        # regular stable labels are indexed by transporter double cosets of
        # the endoscopic side; rewrite each through the basic identity and
        # the indexing map, then expand
        h_cosets = param_h.transporter_cosets(emb.levi_h).left_reps
        if expected and not h_cosets:
            raise AssertionError("regular terms without endoscopic cosets")
        count = 0
        for v in h_cosets:
            w = indexing_forward(param, levi, endo, h, emb, v)
            _expand_levi_token(param, b, w, endo, lhs, sign)
            count += 1
        if count != expected:
            raise AssertionError("regular-part count disagrees with the "
                                 "endoscopic coset count")
        bookkeeping.append({
            "embedded": sorted(emb.levi_h),
            "regular_terms": expected,
            "nonregular_terms": nonregular,
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
    """|W^rel_L . w . W_phi / W_phi| = |W^rel_L / W_cut| for every
    transporter element w, with W_cut the Weyl group of the cut at w; the
    left side is the certified `count` of `Parameter.transporter_cosets`."""
    levi = frozenset(levi)
    left = len(param.group.levi_weyl_elements(levi))
    for w, count in param.transporter_cosets(levi).count.items():
        if count * len(param.levi_cut(levi, w).weyl_elements) != left:
            raise AssertionError("coset counting identity fails")

