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

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Tuple

from .disconnected import (
    DisconnectedGroupDatum,
    HighestWeightPair,
    natural_quotient_rep,
    stabilizer_A_lambda,
)
from .finite_reps import FiniteGroup, Module, simple_modules
from .kottwitz import BElement, WallRejection, basic_plus_lift, encode, kappa_push
from .lattice import (
    FgaElement,
    Matrix,
    Vector,
    dot,
    kernel_basis,
    mat,
    mat_identity,
    mat_inverse_int,
    mat_mul,
    mat_transpose,
    mat_vec,
    solve_integer,
    solve_rational,
    vsub,
)
from .params import Parameter
from .weyl import chamber_locate


class DescentError(AssertionError):
    """The descent certificate failed; indicates a caller bug."""


@dataclass(frozen=True)
class PacketMember:
    """A packet label with full provenance of its construction."""

    b: BElement
    levi: FrozenSet[int]
    w_class: Matrix                    # canonical (W^rel_L, W_phi) coset rep
    rho_weight: Vector                 # canonical dominant weight
    rho_module_label: Tuple
    witness_word: Tuple[int, ...]
    levi_weight: Vector                # the transported weight lambda_{L,w}
    param_label: str

    def key(self) -> Tuple:
        return (tuple(sorted(self.levi)), self.b.kappa.free,
                self.b.kappa.torsion, self.rho_weight, self.rho_module_label)


def canonical_rho(param: Parameter, rho: HighestWeightPair) -> HighestWeightPair:
    """Canonical representative of the isomorphism class of (weight, E):
    the lexicographically greatest weight in the component orbit, with the
    module transported along the conjugation that achieves it."""
    lam = rho.weight
    if not param.is_dominant(lam):
        raise ValueError("canonical_rho needs a dominant weight")
    best = None
    for r in param.r_elements:
        d = param.char_action(r)
        cand = mat_vec(d, lam)
        if best is None or cand > best[0]:
            best = (cand, r)
    lam_star, r = best
    if lam_star == lam:
        return rho
    d_r = param.char_action(r)
    d_rinv = mat_inverse_int(d_r)
    # transported module: chi*(a) = chi(r^-1 a r) on the stabilizer of lam*
    stab_star = [a for a in param.component_group().elements
                 if mat_vec(a, lam_star) == lam_star]
    old = rho.module.char_dict()
    char = tuple((a, old[mat_mul(mat_mul(d_rinv, a), d_r)]) for a in stab_star)
    mod = Module(rho.module.dim, char,
                 rho.module.matrices and tuple(
                     (a, old[mat_mul(mat_mul(d_rinv, a), d_r)])
                     for a in stab_star))
    return HighestWeightPair(lam_star, mod)


def _component_stabilizer(param: Parameter, lam: Vector) -> FiniteGroup:
    mats = sorted({param.char_action(r) for r in param.r_elements
                   if mat_vec(param.char_action(r), lam) == lam})
    return FiniteGroup(tuple(mats), mat_mul, mat_identity(param.dim))


def build_packet_member(param: Parameter, rho: HighestWeightPair) -> PacketMember:
    """The forward construction; see the module docstring.

    Raises DescentError or WallRejection only on internal inconsistencies;
    for valid parameter data every dominant pair goes through.
    """
    group = param.group
    rho = canonical_rho(param, rho)
    lam = rho.weight
    x = param.ctx_M.alpha(lam)
    witness = chamber_locate(group, x)
    levi = witness.levi
    w = witness.matrix

    cut = param.levi_cut(levi, w)
    _certify_descent(param, cut, lam, rho)

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


def _certify_descent(param: Parameter, cut, lam: Vector,
                     rho: HighestWeightPair) -> None:
    """Descent certificate: the cut highest-weight module is a character
    killing the derived-intersection sublattice, and the two stabilizers
    (in the cut and in the full component group) coincide."""
    for beta in cut.roots:
        if dot(lam, param.coroots[beta]) != 0:
            raise DescentError("weight pairs nontrivially with a Levi-cut "
                               "root; the Levi representation is not a "
                               "character")
    kill = _derived_intersection(param, cut)
    for v in kill:
        sol = solve_rational(cut.twisted_center_basis, v)
        if sol is None:
            raise AssertionError("intersection vector escaped the center")
        if sum(Fraction(lam[i]) * sol[i] for i in range(param.dim)) != 0:
            raise DescentError("weight does not kill the derived-intersection "
                               "sublattice")
    # stabilizer comparison (the cut component group equals the ambient one)
    amb = {a for a in param.component_group().elements
           if mat_vec(a, lam) == lam}
    cut_stab = set()
    for g in cut.component_elements:
        d = param.char_action(g)
        if mat_vec(d, lam) == lam:
            cut_stab.add(param.char_action(param.r_component(g)))
    if amb != cut_stab:
        raise DescentError("Levi-cut stabilizer does not match the ambient "
                           "stabilizer of the weight")


def _derived_intersection(param: Parameter, cut) -> Tuple[Vector, ...]:
    """Basis of (twisted parameter center) cap (saturated span of the
    Levi's coroot lattice on the dual side), i.e. the cocharacters of the
    part of the center meeting the derived subgroup of the dual Levi."""
    group = param.group
    datum = group.datum
    levi_roots = [datum.roots[i]
                  for i in group.levi_context(cut.levi).root_indices()]
    if not levi_roots:
        return ()
    n = datum.rank
    perp_center = kernel_basis(mat(cut.twisted_center_basis))
    perp_levi = kernel_basis(mat(levi_roots))
    stacked = list(perp_center) + list(perp_levi)
    return kernel_basis(mat(stacked))


def _canonical_double_coset(param: Parameter, levi, w: Matrix) -> Matrix:
    group = param.group
    left = group.levi_weyl_elements(levi)
    return min(mat_mul(mat_mul(l, w), f)
               for l in left for f in param.wphi_elements)


# ---------------------------------------------------------------------------
# fibers

def transporter_double_cosets(param: Parameter, levi) -> Tuple[Matrix, ...]:
    """Canonical representatives of W^rel_L \\ W^rel(M, L) / W_phi."""
    from .weyl import transporter_set
    group = param.group
    trans = transporter_set(group, param.minimal_levi, levi)
    # right stability under W_phi (the transporter is stable by construction)
    tset = set(trans)
    for t in trans:
        for f in param.wphi_elements:
            if mat_mul(t, f) not in tset:
                raise AssertionError("transporter set is not right-stable "
                                     "under W_phi")
    left = group.levi_weyl_elements(levi)
    seen = set()
    reps = []
    for t in trans:
        if t in seen:
            continue
        orbit = {mat_mul(mat_mul(l, t), f)
                 for l in left for f in param.wphi_elements}
        seen |= orbit
        reps.append(min(orbit))
    return tuple(sorted(reps))


def fiber_weight(param: Parameter, b: BElement, w: Matrix) -> Optional[Vector]:
    """The weight alpha_M^{-1}(w^{-1} . nu(b)) when it is integral, else
    None (that coset contributes no members)."""
    group = param.group
    ctx_L = group.levi_context(b.levi)
    point = ctx_L.newton_point(b.kappa)
    moved = mat_vec(mat_transpose(w), point)  # cochar action of w^{-1}
    try:
        c = param.ctx_M.alpha_inv(moved)
    except ValueError:
        return None
    out = []
    for x in c:
        if Fraction(x).denominator != 1:
            return None
        out.append(int(x))
    return tuple(out)


def dominantize(param: Parameter, lam: Vector) -> Vector:
    """The unique dominant weight in the connected-Weyl orbit."""
    for g in param.wphi_o_elements:
        cand = mat_vec(param.char_action(g), lam)
        if param.is_dominant(cand):
            return cand
    raise AssertionError("no dominant translate found; connected Weyl "
                         "enumeration is broken")


def enumerate_fiber(param: Parameter, b: BElement) -> Tuple[PacketMember, ...]:
    """All packet members over b, from coset combinatorics: one family of
    stabilizer modules per transporter double coset whose pulled-back
    weight is integral.  Every candidate is re-verified through the
    forward construction (an empty result is a valid outcome)."""
    members: Dict[Tuple, PacketMember] = {}
    bkey = encode(param.group, b)
    for w in transporter_double_cosets(param, b.levi):
        lam_raw = fiber_weight(param, b, w)
        if lam_raw is None:
            continue
        lam = dominantize(param, lam_raw)
        a_lam = _component_stabilizer(param, lam)
        for module in simple_modules(a_lam):
            rho = canonical_rho(param, HighestWeightPair(lam, module))
            member = build_packet_member(param, rho)
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


# ---------------------------------------------------------------------------
# enumeration and round trip

def enumerate_rhos(param: Parameter, height_bound: int
                   ) -> Tuple[HighestWeightPair, ...]:
    """Canonical (weight, module) pairs with weight coordinates in
    [0, height_bound]."""
    from itertools import product as iproduct
    seen = set()
    out = []
    for coords in iproduct(range(height_bound + 1), repeat=param.dim):
        lam = tuple(coords)
        if not param.is_dominant(lam):
            continue
        canon = max(mat_vec(param.char_action(r), lam)
                    for r in param.r_elements)
        if canon in seen:
            continue
        seen.add(canon)
        for module in simple_modules(_component_stabilizer(param, canon)):
            out.append(HighestWeightPair(canon, module))
    return tuple(sorted(out, key=lambda p: p.label()))


def round_trip_check(param: Parameter, height_bound: int) -> Dict:
    """Forward-map every pair up to the bound, then re-enumerate every hit
    fiber and demand exact agreement (injectivity and exhaustion)."""
    built: Dict[Tuple, Dict[Tuple, PacketMember]] = {}
    b_by_key: Dict[Tuple, BElement] = {}
    total = 0
    for rho in enumerate_rhos(param, height_bound):
        member = build_packet_member(param, rho)
        total += 1
        bkey = _b_key(param, member.b)
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


def _b_key(param: Parameter, b: BElement) -> Tuple:
    e = encode(param.group, b)
    return (tuple(e["levi"]), tuple(e["kappa"]["free"]),
            tuple(e["kappa"]["torsion"]))


def _key_weight(member_key: Tuple) -> Vector:
    return member_key[3]


# ---------------------------------------------------------------------------
# central characters

def central_character_square(param: Parameter, rho: HighestWeightPair) -> Dict:
    """Compare the central character of the pair with the Kottwitz invariant
    of its element: the two sides of the compatibility square.

    When the dual-center character group has torsion, the component
    action on the module is not determined by this datum; the comparison
    is then restricted to the free parts and flagged."""
    group = param.group
    member = build_packet_member(param, rho)
    pushed = kappa_push(group, member.b)
    ctx_G = group.levi_context(group.full_subset())
    coords = []
    for u in ctx_G.dual_split_center_basis:
        sol = solve_rational(param.center_basis, u)
        if sol is None:
            raise AssertionError("global dual center escapes the parameter "
                                 "center")
        coords.append(tuple(int(Fraction(x)) for x in sol))
    lam = canonical_rho(param, rho).weight
    functional = tuple(dot(lam, c) for c in coords)
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
