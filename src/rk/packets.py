"""From irreducible centralizer representations to Kottwitz-set elements
and packet labels, and back.

The forward map sends a pair (dominant weight lambda, stabilizer module
E) to: the Newton-type point alpha_M(lambda), its chamber data (w, Q, L),
the descended one-dimensional Levi representation, and the basic-plus
element of the Kottwitz set it pins down.  The backward map enumerates
the fiber over an element b from coset combinatorics alone.  Round
tripping the two is the correctness check for both.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from .disconnected import HighestWeightPair, classify_irr, stabilizer_A_lambda
from .finite_reps import Module
from .kottwitz import BElement, basic_plus_lift, kappa_push
from .lattice import (
    Matrix,
    Value,
    Vector,
    cached,
    dot,
    mat_transpose,
    mat_vec,
)
from .params import Parameter
from .weyl import chamber_locate


class DescentError(AssertionError):
    """The descent certificate failed; indicates a caller bug."""


class PacketMember(Value):
    """A packet label with full provenance of its construction."""

    def __init__(self, b: BElement, levi: FrozenSet[int],
                 w_class: Matrix,      # canonical (W^rel_L, W_phi) coset rep
                 rho_weight: Vector,   # canonical dominant weight
                 rho_module_label: Tuple, witness_word: Tuple[int, ...],
                 levi_weight: Vector,  # the transported weight lambda_{L,w}
                 param_label: str):
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "levi", levi)
        object.__setattr__(self, "w_class", w_class)
        object.__setattr__(self, "rho_weight", rho_weight)
        object.__setattr__(self, "rho_module_label", rho_module_label)
        object.__setattr__(self, "witness_word", witness_word)
        object.__setattr__(self, "levi_weight", levi_weight)
        object.__setattr__(self, "param_label", param_label)

    def key(self) -> Tuple:
        return (tuple(sorted(self.levi)), self.b.kappa.free,
                self.b.kappa.torsion, self.rho_weight, self.rho_module_label)


def canonical_rho(param: Parameter, rho: HighestWeightPair) -> HighestWeightPair:
    """Canonical representative of the isomorphism class of (weight, E):
    the lexicographically greatest weight in the component orbit, with the
    module transported along the conjugation that achieves it."""
    lam = rho.weight
    datum = param.centralizer
    if not datum.is_dominant(lam):
        raise ValueError("canonical_rho needs a dominant weight")
    lam_star = datum.canonical_weight(lam)
    if lam_star == lam:
        return rho
    pi0 = datum.pi0
    d_r = next(d for d in pi0.elements if mat_vec(d, lam) == lam_star)
    d_rinv = pi0.inverse[d_r]
    # transported module: chi*(a) = chi(r^-1 a r) on the stabilizer of lam*
    stab_star = stabilizer_A_lambda(datum, lam_star).elements
    old = rho.module.char_dict()
    char = tuple((a, old[pi0.mul(pi0.mul(d_rinv, a), d_r)]) for a in stab_star)
    mod = Module(rho.module.dim, char)
    return HighestWeightPair(lam_star, mod)


def build_packet_member(param: Parameter, rho: HighestWeightPair) -> PacketMember:
    """The forward construction; see the module docstring.

    The chamber witness, the Levi cut, the Kottwitz lift and the Newton
    check depend on the canonical weight alone and run once per (param,
    weight); the descent certificate runs on every call.  Raises
    DescentError or WallRejection only on internal inconsistencies; for
    valid parameter data every dominant pair goes through.
    """
    rho = canonical_rho(param, rho)
    lam = rho.weight
    if ("member", lam) in param.memo:
        cut, b, w_class, word = param.memo["member", lam]
        _certify_descent(param, cut, lam)
    else:
        group = param.group
        witness = chamber_locate(group, param.ctx_M.alpha(lam))
        levi = witness.levi
        w = witness.matrix
        cut = param.levi_cut(levi, w)
        _certify_descent(param, cut, lam)

        # kappa from the transported weight restricted to the Levi center
        functional = tuple(dot(lam, c) for c in cut.levi_center_coords)
        ctx_L = group.levi_context(levi)
        kappa = ctx_L.kappa_from_functional(functional)
        b = basic_plus_lift(group, levi, kappa)
        # the Newton point nu / e against the image num / den, both over
        # positive denominators: equal exactly when num.e == nu.den
        nu, e = ctx_L.newton_scaled(kappa)
        den, num = witness.image.scale, witness.image.numerators
        if len(num) != len(nu) or \
                any(x * e != y * den for x, y in zip(num, nu)):
            raise AssertionError("Newton point disagrees with the chamber "
                                 "image")
        w_class = _canonical_double_coset(param, levi, w)
        word = witness.word
        param.memo["member", lam] = cut, b, w_class, word
    return PacketMember(
        b=b, levi=cut.levi, w_class=w_class, rho_weight=lam,
        rho_module_label=rho.module.label(), witness_word=word,
        levi_weight=lam, param_label=param.label)


def _certify_descent(param: Parameter, cut, lam: Vector) -> None:
    """Descent certificate: the cut highest-weight module is a character
    killing the derived-intersection sublattice, and the two stabilizers
    (in the cut and in the full component group) coincide.  Reads the
    cut's coroot and component-action tables."""
    if any(mat_vec(cut.root_coroots, lam)):
        raise DescentError("weight pairs nontrivially with a Levi-cut "
                           "root; the Levi representation is not a "
                           "character")
    for sol in cut.descent_coords():
        if dot(lam, sol) != 0:
            raise DescentError("weight does not kill the derived-intersection "
                               "sublattice")
    # stabilizer comparison (the cut component group equals the ambient one)
    amb = set(stabilizer_A_lambda(param.centralizer, lam).elements)
    cut_stab = {r for d, r in cut.component_actions if mat_vec(d, lam) == lam}
    if amb != cut_stab:
        raise DescentError("Levi-cut stabilizer does not match the ambient "
                           "stabilizer of the weight")


def _canonical_double_coset(param: Parameter, levi, w: Matrix) -> Matrix:
    """min of W^rel_L . w . W_phi, for w in the transporter set."""
    rep = param.transporter_cosets(levi).rep.get(w)
    if rep is None:
        raise AssertionError("the Weyl element lies outside the transporter "
                             "set of the Levi")
    return rep


# ---------------------------------------------------------------------------
# fibers

def transporter_double_cosets(param: Parameter, levi) -> Tuple[Matrix, ...]:
    """Canonical representatives of W^rel_L \\ W^rel(M, L) / W_phi
    (computed once per (param, levi))."""
    return param.transporter_cosets(levi).reps


def fiber_weight(param: Parameter, b: BElement, w: Matrix) -> Optional[Vector]:
    """The weight alpha_M^{-1}(w^{-1} . nu(b)) when it is integral, else
    None (that coset contributes no members)."""
    weights = fiber_weights(param, b, w)
    return weights and weights[0]


def fiber_weights(param: Parameter, b: BElement, w: Matrix
                  ) -> Optional[Tuple[Vector, Vector]]:
    """(`fiber_weight`, its dominant translate) when the weight is
    integral, else None; computed once per (param, b, w).

    Computed in integers: nu(b) as alpha_L's numerators over its one
    denominator d_L, moved by w^T, then restricted to the dual split
    center of M (alpha_M^{-1} is that restriction), with a single
    division by d_L."""
    return cached(param.memo, ("fiber_weight", b, w), _fiber_weights,
                  param, b, w)


def _fiber_weights(param: Parameter, b: BElement, w: Matrix):
    nu, den = param.group.levi_context(b.levi).newton_scaled(b.kappa)
    moved = mat_vec(mat_transpose(w), nu)  # cochar action of w^{-1}
    image = param.ctx_M.alpha_inv(moved)
    if image is None or any(x % den for x in image):
        return None
    lam = tuple(x // den for x in image)
    return lam, dominantize(param, lam)


def dominantize(param: Parameter, lam: Vector) -> Vector:
    """The unique dominant weight in the connected-Weyl orbit."""
    for g in param.wphi_o_elements:
        cand = mat_vec(param.char_action(g), lam)
        if param.centralizer.is_dominant(cand):
            return cand
    raise AssertionError("no dominant translate found; connected Weyl "
                         "enumeration is broken")


def enumerate_fiber(param: Parameter, b: BElement) -> Tuple[PacketMember, ...]:
    """All packet members over b, from coset combinatorics: one family of
    stabilizer modules per transporter double coset whose pulled-back
    weight is integral.  Every candidate is re-verified through the
    forward construction (an empty result is a valid outcome)."""
    members: Dict[Tuple, PacketMember] = {}
    for w in transporter_double_cosets(param, b.levi):
        weights = fiber_weights(param, b, w)
        if weights is None:
            continue
        lam = weights[1]
        for module in param.centralizer.stabilizer_modules(lam):
            member = build_packet_member(param,
                                         HighestWeightPair(lam, module))
            if member.b != b:
                raise AssertionError("fiber candidate landed on a different "
                                     "element of the Kottwitz set")
            if member.w_class != _canonical_double_coset(param, b.levi, w):
                raise AssertionError("fiber candidate landed in a different "
                                     "transporter coset")
            if member.key() in members:
                raise AssertionError("fiber enumeration produced a duplicate")
            members[member.key()] = member
    return tuple(sorted(members.values(), key=lambda m: m.key()))


# ---------------------------------------------------------------------------
# enumeration and round trip

def enumerate_rhos(param: Parameter, height_bound: int
                   ) -> Tuple[HighestWeightPair, ...]:
    """Canonical (weight, module) pairs with weight coordinates in
    [0, height_bound]: the classification of the centralizer's
    irreducibles."""
    return tuple(classify_irr(param.centralizer, height_bound))


def round_trip_check(param: Parameter, height_bound: int) -> Dict:
    """Forward-map every pair up to the bound, then re-enumerate every hit
    fiber and demand exact agreement (injectivity and exhaustion)."""
    built: Dict[Tuple, Dict[Tuple, PacketMember]] = {}
    b_by_key: Dict[Tuple, BElement] = {}
    total = 0
    for rho in enumerate_rhos(param, height_bound):
        member = build_packet_member(param, rho)
        total += 1
        bkey = _b_key(member.b)
        slot = built.setdefault(bkey, {})
        if member.key() in slot:
            return {"pass": False, "reason": "two pairs collided on one "
                    "packet label", "label": member.key()}
        slot[member.key()] = member
        b_by_key[bkey] = member.b
    fibers_checked = 0
    for bkey, slot in sorted(built.items()):
        fiber = enumerate_fiber(param, b_by_key[bkey])
        fibers_checked += 1
        fiber_keys = {m.key() for m in fiber}
        built_keys = set(slot)
        # fiber members whose weight exceeds the bound cannot have been
        # built; restrict the comparison to the enumerated box
        in_box = {k for k in fiber_keys
                  if all(0 <= x <= height_bound for x in _key_weight(k))}
        if in_box != built_keys:
            return {"pass": False, "reason": "fiber disagrees with the "
                    "forward enumeration", "b": bkey,
                    "missing": sorted(built_keys - in_box),
                    "extra": sorted(in_box - built_keys)}
        if len(fiber) != len(fiber_keys):
            return {"pass": False, "reason": "duplicate members in a fiber"}
    return {"pass": True, "pairs": total, "fibers": fibers_checked}


def _b_key(b: BElement) -> Tuple:
    return (tuple(sorted(b.levi)), b.kappa.free, b.kappa.torsion)


def _key_weight(member_key: Tuple) -> Vector:
    return member_key[3]


# ---------------------------------------------------------------------------
# central characters

def central_character_square(param: Parameter, rho: HighestWeightPair) -> Dict:
    """Compare the central character of the pair with the Kottwitz invariant
    of its element: the two sides of the compatibility square.

    When the dual-center character group has torsion, the component
    action on the module is not determined by this datum; the comparison
    is then restricted to the free parts and flagged.  The forward map
    (and so its descent certificate) runs on every call; both sides
    depend on the canonical weight alone and are computed once per
    (param, weight)."""
    member = build_packet_member(param, rho)
    pushed, omega, torsion_undetermined = cached(
        param.memo, ("square", member.rho_weight), _square_sides, param,
        member)
    equal = omega.free == pushed.free and (
        torsion_undetermined or omega.torsion == pushed.torsion)
    return {
        "omega": omega,
        "kappa_push": pushed,
        "equal": equal,
        "torsion_undetermined": torsion_undetermined,
    }


def _square_sides(param: Parameter, member: PacketMember):
    group = param.group
    pushed = kappa_push(group, member.b)
    ctx_G = group.levi_context(group.full_subset())
    coords = cached(param.memo, ("center",), _center_coords, param, ctx_G)
    functional = tuple(dot(member.rho_weight, c) for c in coords)
    omega = ctx_G.kappa_from_functional(functional)
    return pushed, omega, bool(ctx_G.dual_center_characters.torsion)


def _center_coords(param: Parameter, ctx_G) -> Tuple[Vector, ...]:
    coords = tuple(map(param.center_solver.solve,
                       ctx_G.dual_split_center_basis))
    if None in coords:
        raise AssertionError("global dual center escapes the parameter center")
    return coords
