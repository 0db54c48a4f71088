"""The forward construction, fibers, round trips, independence of
choices, and the central-character square."""

import itertools
import random
from fractions import Fraction

import pytest

from rk import presets
from rk.disconnected import HighestWeightPair
from rk.finite_reps import FiniteGroup, simple_modules
from rk.kottwitz import (
    BElement,
    WallRejection,
    basic_plus_lift,
    encode,
    newton,
)
from rk.lattice import (
    SmithSolver,
    dot,
    from_columns,
    kernel_basis,
    mat_contragredient,
    mat_identity,
    mat_mul,
    mat_transpose,
    mat_vec,
    solve_integer,
    solve_rational,
)
from rk.packets import (
    DescentError,
    PacketMember,
    _canonical_double_coset,
    _certify_descent,
    build_packet_member,
    canonical_rho,
    central_character_square,
    dominantize,
    enumerate_fiber,
    enumerate_rhos,
    fiber_weight,
    round_trip_check,
    transporter_double_cosets,
)
from rk.params import LeviCut, Parameter, ParameterError, _is_reflection
from rk.rootdata import DatumError, ScaledPoint
from rk.weyl import ChamberWitness, chamber_locate, transporter_set

from oracles import cut_disconnected_datum


GL2 = presets.parameter("gl2-triv")
GL4ST = presets.parameter("gl4-st2")
SL2 = presets.parameter("sl2-triv")
SWAP = presets.parameter("gl2x2-swap-triv")


def rho_of(param, weight, index=0):
    mods = param.centralizer.stabilizer_modules(weight)
    return HighestWeightPair(tuple(weight), mods[index])


# ---------------------------------------------------------------------------
# centralizer Levi cuts

def test_s_group_levi_at_minimal_levi_is_torus():
    d = cut_disconnected_datum(GL4ST.levi_cut(GL4ST.minimal_levi))
    assert d.component.roots == ()
    assert len(d.pi0) == 1


def test_s_group_levi_at_full_group():
    d = cut_disconnected_datum(GL4ST.levi_cut(GL4ST.group.full_subset()))
    assert set(d.component.roots) == set(GL4ST.roots)


def test_s_group_levi_gl4_block_cut():
    # the 2+2 Levi kills no centralizer root for the full group but all of
    # them at the minimal Levi; the explicit vanishing cut
    cut = GL4ST.levi_cut(frozenset({0, 2}))
    assert cut.roots == ()
    full = GL4ST.levi_cut(GL4ST.group.full_subset())
    assert set(full.roots) == set(GL4ST.roots)


def _trivial_parameter(name):
    """The parameter of a split group through its torus whose centralizer
    is the whole dual group; on sl3 and sl4 the Weyl matrices are not
    orthogonal, so w^-T differs from w."""
    g = presets.group(name)
    d = g.datum
    return Parameter(g, frozenset(), tuple(d.coroots),
                     tuple(d.coroots[i] for i in d.positive_root_indices()),
                     label=name + "-triv")


def _sl4_st2():
    """gl4-st2's shape on sl4: M = {0, 2}, one centralizer root, the coroot
    of e1 - e3, on a center of rank 1 whose annihilator w^-T moves."""
    g = presets.group("sl4")
    d = g.datum
    s = d.simple_indices
    c = d.coroots[d.roots.index(tuple(
        x + y for x, y in zip(d.roots[s[0]], d.roots[s[1]])))]
    return Parameter(g, frozenset({0, 2}), (c, tuple(-x for x in c)), (c,),
                     label="sl4-st2")


def _cut_parameters():
    return [presets.parameter(n) for n in presets.PARAM_NAMES] + \
        [_trivial_parameter(n) for n in ("sl3", "sl4")] + [_sl4_st2()]


def _same_lattice(a, b, n):
    """Whether the vectors a and b (of length n) span one lattice."""
    def inside(vs, span):
        cols = from_columns(span, n)
        return all(solve_integer(cols, len(span), v) is not None for v in vs)
    return inside(a, b) and inside(b, a)


@pytest.mark.parametrize("param", _cut_parameters(), ids=lambda p: p.label)
def test_cut_coordinates_match_the_fraction_definitions(param):
    # the old definitions: Fraction solves in B for the component action
    # (then the contragredient), and in the twisted basis w.B, with its own
    # Smith annihilator, for the Levi center and descent coordinates
    group = param.group
    n = group.datum.rank
    basis = param.center_basis
    for m, d in param._embedded.items():
        cols = [solve_rational(basis, mat_vec(m, u)) for u in basis]
        want = mat_contragredient(mat_transpose(
            [tuple(int(x) for x in col) for col in cols])) if basis else ()
        assert d == want, m
    cuts = 0
    for levi in group.standard_levi_subsets():
        for w in transporter_set(group, param.minimal_levi, levi):
            cut = param.levi_cut(levi, w)
            twisted = [mat_vec(w, u) for u in basis]
            ctx_L = group.levi_context(levi)
            assert cut.levi_center_coords == tuple(
                tuple(int(x) for x in solve_rational(twisted, u))
                for u in ctx_L.dual_split_center_basis)
            levi_roots = [group.datum.roots[i] for i in ctx_L.root_indices]
            perp = list(SmithSolver(tuple(twisted), n).kernel) + \
                list(kernel_basis(tuple(levi_roots), n))
            kill = kernel_basis(tuple(perp), n)
            old = [solve_rational(twisted, v) for v in kill]
            assert all(x.denominator == 1 for sol in old for x in sol)
            assert _same_lattice(cut.descent_coords,
                                 [tuple(int(x) for x in sol) for sol in old],
                                 param.dim)
            cuts += 1
    assert cuts


_CUT_FIELDS = ("roots", "positives", "weyl_elements", "component_elements",
               "connected_weyl_elements", "levi_center_coords",
               "root_coroots", "component_actions")


def _stored_cuts(param):
    """The parameter's kept Levi cuts, by (Levi, w)."""
    return {key[1:]: cut for key, cut in param.memo.items()
            if key[0] == "cut"}


@pytest.mark.parametrize("name", presets.PARAM_NAMES)
def test_cached_cuts_match_fresh_cuts(name):
    # every cut the forward map and the fiber enumeration reach, against a
    # freshly built LeviCut
    param = presets.parameter(name)
    for rho in enumerate_rhos(param, 3):
        enumerate_fiber(param, build_packet_member(param, rho).b)
    assert _stored_cuts(param)
    for (levi, w), cut in _stored_cuts(param).items():
        fresh = LeviCut(param, levi, w)
        for field in _CUT_FIELDS:
            assert getattr(cut, field) == getattr(fresh, field), field
        assert cut.descent_coords == fresh.descent_coords
        assert param.levi_cut(levi, w) is cut


def test_levi_cut_cache_is_per_instance():
    p1 = presets.parameter("gl4-st2")
    p2 = presets.parameter("gl4-st2")
    full = p1.group.full_subset()
    c1 = p1.levi_cut(full)
    assert p1.levi_cut(set(full), p1.group.relative.identity) is c1
    c2 = p2.levi_cut(full)
    assert c2 is not c1 and c2.param is p2
    assert p1.component_group() is p1.component_group()
    assert p1.component_group() is not p2.component_group()
    assert not any(a is b for a in _stored_cuts(p1).values()
                   for b in _stored_cuts(p2).values())
    assert transporter_double_cosets(p1, full) is not \
        transporter_double_cosets(p2, full)
    assert p1.memo is not p2.memo


def test_failed_levi_cut_is_not_stored():
    # the torus does not contain the minimal Levi {0, 2}
    messages = []
    for _ in range(2):
        with pytest.raises(ParameterError) as err:
            GL4ST.levi_cut(frozenset())
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert all(levi != frozenset() for levi, _w in _stored_cuts(GL4ST))


@pytest.mark.parametrize("name", presets.PARAM_NAMES)
def test_cached_double_cosets_match_matrix_orbits(name):
    # oracle: the orbits W^rel_L . t . W_phi built from matrix products
    param = presets.parameter(name)
    group = param.group
    for levi in group.standard_levi_subsets():
        left = group.levi_weyl_elements(levi)
        trans = transporter_set(group, param.minimal_levi, levi)
        brute = {t: min(mat_mul(mat_mul(l, t), f) for l in left
                        for f in param.wphi_elements) for t in trans}
        reps = transporter_double_cosets(param, levi)
        assert reps == tuple(sorted(set(brute.values())))
        assert transporter_double_cosets(param, levi) is reps
        assert param.memo["cosets", levi] is param.transporter_cosets(levi)
        for t in trans:
            assert _canonical_double_coset(param, levi, t) == brute[t]
            assert param.memo["cosets", levi].rep[t] == brute[t]
        # an element outside the transporter set has no coset to read
        for m in [m for m in group.relative.elements if m not in brute][:2]:
            with pytest.raises(AssertionError,
                               match="outside the transporter set"):
                _canonical_double_coset(param, levi, m)


def test_parameter_rejects_zero_restriction():
    g = presets.group("gl2")
    with pytest.raises(ParameterError):
        Parameter(g, frozenset({0}), ((1, -1), (-1, 1)), ((1, -1),))


def test_parameter_rejects_open_positive_system():
    g = presets.group("gl3")
    with pytest.raises(ParameterError):
        Parameter(g, frozenset(), tuple(g.datum.roots),
                  (g.datum.roots[g.datum.simple_indices[0]],))


@pytest.mark.parametrize("param", _cut_parameters(), ids=lambda p: p.label)
def test_cut_scans_on_ids_match_matrix_products(param):
    from oracles import cut_weyl_elements_by_mul, r_component_by_mul
    group = param.group
    cuts = 0
    for levi in group.standard_levi_subsets():
        for w in transporter_set(group, param.minimal_levi, levi):
            cut = param.levi_cut(levi, w)
            assert cut.weyl_elements == \
                cut_weyl_elements_by_mul(param, levi, w)
            cuts += 1
    assert cuts
    for g in param.wphi_elements:
        assert param.r_component(g) == r_component_by_mul(param, g)
    outside = [m for m in group.relative.elements
               if m not in param.wphi_elements]
    for m in outside[:3]:
        with pytest.raises(ParameterError, match="not in W_phi"):
            param.r_component(m)


@pytest.mark.parametrize("param", _cut_parameters(), ids=lambda p: p.label)
def test_cut_components_match_the_mat_vec_scan_and_closure(param):
    # every standard Levi over M and transporter element: the permutation
    # test and the closure kept per positive system give what a mat_vec
    # scan and a fresh closure give, and cuts with equal positives share
    # one closure; a cut keeping every positive shares the parameter's own
    # connected part of W_phi
    from oracles import (cut_component_elements_by_mat_vec,
                         cut_connected_weyl_by_closure)
    group = param.group
    cuts = shared = 0
    for levi in group.standard_levi_subsets():
        if not param.minimal_levi <= levi:
            continue
        for w in transporter_set(group, param.minimal_levi, levi):
            cut = param.levi_cut(levi, w)
            assert cut.component_elements == \
                cut_component_elements_by_mat_vec(cut)
            assert cut.connected_weyl_elements == \
                cut_connected_weyl_by_closure(cut)
            assert cut.connected_weyl_elements is \
                param.memo["connected", cut.positives]
            if cut.positives == param.positives:
                assert cut.connected_weyl_elements is param.wphi_o_elements
                shared += 1
            cuts += 1
    assert cuts and shared


def test_root_permutation_table_rejects_a_non_permuting_element():
    param = presets.parameter("gl4-st2")
    g = next(m for m in param.wphi_elements
             if m != param.group.relative.identity)
    d = param.char_action(g)
    param._embedded[g] = tuple(tuple(2 * x for x in row) for row in d)
    with pytest.raises(ParameterError, match="does not permute"):
        param._root_perms


def test_r_phi_word_breaking_the_positive_system_is_rejected():
    # centralizer roots A1 x A1 = {+-(e1 - e2), +-(e3 - e4)} on the gl4
    # torus: the block swap (13)(24) keeps the positive system and
    # reversal (14)(23) sends e1 - e2 to the negative root e4 - e3.  The
    # reversal is still a root permutation, and W_phi = D4 then splits as
    # <(12), (34)> . <(14)(23)>, so only the positive-system check of the
    # R_phi action rejects it
    group = presets.group("gl4")
    roots = ((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1))
    rel = group.relative

    def word(image):
        return rel.word(next(m for m in rel.elements
                             if mat_vec(m, (1, 2, 3, 4)) == image))

    kept = Parameter(group, (), roots, roots[::2], (word((3, 4, 1, 2)),))
    assert (len(kept.wphi_elements), len(kept.r_elements)) == (8, 2)
    with pytest.raises(DatumError,
                       match="^action generator does not permute simples$"):
        Parameter(group, (), roots, roots[::2], (word((4, 3, 2, 1)),))


def test_parameter_checks_its_r_phi_action_once(monkeypatch):
    # the centralizer is built with the parameter, and its GaloisAction is
    # the one check of R_phi's action on the centralizer datum
    import rk.disconnected
    import rk.params
    checked = []
    action = rk.disconnected.GaloisAction

    def counted(datum, generators=()):
        checked.append((datum, generators))
        return action(datum, generators)
    monkeypatch.setattr(rk.disconnected, "GaloisAction", counted)
    monkeypatch.setattr(rk.params, "GaloisAction", counted, raising=False)
    param = _component_parameter()
    assert "centralizer" in vars(param)
    assert checked == [(param.s_datum, param.centralizer.declared_generators)]
    assert len(param.r_generators) == 1


def _transported_parameters():
    """Every parameter preset and its transport to each endoscopic datum
    of its group."""
    from rk.endoscopy import EndoscopyError, parameter_on_h
    out = []
    for pname in presets.PARAM_NAMES:
        param = presets.parameter(pname)
        out.append(param)
        for ename in presets.ENDO_NAMES:
            endo = presets.endoscopy(ename)
            if endo.group.name == param.group.name:
                try:
                    out.append(parameter_on_h(param, endo)[0])
                except EndoscopyError:
                    pass
    return out


@pytest.mark.parametrize("param", _transported_parameters(),
                         ids=lambda p: p.label)
def test_one_pass_reflections_match_the_per_root_scan(param):
    from oracles import realize_reflection_by_scan
    for alpha in param.positives:
        assert realize_reflection_by_scan(param, alpha) == \
            (param.reflection_realization[alpha], param.coroots[alpha])


def test_reflection_realization_errors():
    gl2, gl3 = presets.group("gl2"), presets.group("gl3")
    with pytest.raises(ParameterError, match=r"reflection of root "
                       r"\(1, 1, -2\) is not realized"):
        Parameter(gl3, frozenset(), ((1, 1, -2), (-1, -1, 2)), ((1, 1, -2),))
    with pytest.raises(ParameterError,
                       match=r"coroot of \(2, -2\) is not integral"):
        Parameter(gl2, frozenset(), ((2, -2), (-2, 2)), ((2, -2),))


def test_reflection_realization_rejects_two_reflections(monkeypatch):
    # a second involution of trace 0 negating (1, -1) with another fixed
    # line: two reflections claim one root
    embedded = Parameter._embedded_center_weyl
    extra = {((-1, 0), (0, -1)): ((-1, 0), (2, 1))}
    monkeypatch.setattr(Parameter, "_embedded_center_weyl",
                        lambda self: {**embedded(self), **extra})
    with pytest.raises(ParameterError, match="is ambiguous"):
        Parameter(presets.group("gl2"), frozenset(),
                  ((1, -1), (-1, 1)), ((1, -1),))


def test_reflection_realization_takes_the_least_element(monkeypatch):
    # a second element acting by the same reflection, sorting after the
    # transposition: the realization stays the least one
    swap = ((0, 1), (1, 0))
    embedded = Parameter._embedded_center_weyl
    monkeypatch.setattr(Parameter, "_embedded_center_weyl",
                        lambda self: {**embedded(self),
                                      ((1, 0), (0, -1)): swap})
    param = Parameter(presets.group("gl2"), frozenset(),
                      ((1, -1), (-1, 1)), ((1, -1),))
    assert param.reflection_realization[(1, -1)] == swap


def _is_reflection_by_kernel(d):
    """The kernel definition of a reflection: an involution fixing a
    hyperplane, i.e. d - 1 has a kernel of rank n - 1."""
    n = len(d)
    if mat_mul(d, d) != mat_identity(n):
        return False
    diff = [tuple(a - b for a, b in zip(row, ident))
            for row, ident in zip(d, mat_identity(n))]
    return len(kernel_basis(mat_transpose(diff), n)) == n - 1


@pytest.mark.parametrize("name", presets.PARAM_NAMES)
def test_reflection_trace_test_matches_kernel_definition(name):
    # every embedded action of every preset, and each negated: the trace
    # test accepts exactly the involutions the kernel definition accepts
    param = presets.parameter(name)
    seen = set()
    for d in param._embedded.values():
        for e in (d, tuple(tuple(-x for x in row) for row in d)):
            seen.add(_is_reflection(e))
            assert _is_reflection(e) == _is_reflection_by_kernel(e), e
    assert True in seen or not param.roots


def test_char_action_asserts_the_center_span_is_kept():
    # an element outside the embedded normalizer moves the center span of
    # M = {0, 2}; the action refuses it instead of reading no solution
    s1 = GL4ST.group.relative.generators[1]
    assert s1 not in GL4ST._embedded
    with pytest.raises(AssertionError, match="moved the center span"):
        GL4ST._char_action_raw(s1)


# ---------------------------------------------------------------------------
# the forward construction

def test_member_standard_two_dimensional():
    m = build_packet_member(GL2, rho_of(GL2, (1, 0)))
    assert sorted(m.levi) == []
    assert encode(GL2.group, m.b) == \
        {"levi": [], "kappa": {"free": [1, 0], "torsion": []}}
    assert newton(GL2.group, m.b) == (Fraction(1), Fraction(0))


def test_member_trivial_is_basic():
    m = build_packet_member(GL2, rho_of(GL2, (0, 0)))
    assert m.b.is_basic(GL2.group)
    assert not any(m.b.kappa.free + m.b.kappa.torsion)


def test_member_gl4_standard():
    m = build_packet_member(GL4ST, rho_of(GL4ST, (1, 0)))
    assert sorted(m.levi) == [0, 2]
    assert newton(GL4ST.group, m.b) == \
        (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0))


def test_member_newton_strictly_clears_walls():
    # the dominance lemma as a runtime property over an enumeration
    for param in (GL2, GL4ST, SWAP):
        for rho in enumerate_rhos(param, 3):
            m = build_packet_member(param, rho)
            nu = newton(param.group, m.b)
            pair = param.group.simple_pairing(nu)
            for pos, val in enumerate(pair):
                if pos in m.levi:
                    assert val == 0
                else:
                    assert val > 0


def test_member_determines_chamber_witness_class():
    m = build_packet_member(GL2, rho_of(GL2, (2, 1)))
    lam = fiber_weight(GL2, m.b, m.w_class)
    assert lam is not None
    assert dominantize(GL2, lam) in ((2, 1), (1, 2))


def _fiber_weight_fraction(param, b, w):
    """The Fraction definition of fiber_weight: alpha_M^-1 as
    P . solve_rational(Y, .) on the moved Newton point.  Returns the weight,
    "off" (the point leaves the split-center space) or "fraction"."""
    point = param.group.levi_context(b.levi).newton_point(b.kappa)
    moved = mat_vec(mat_transpose(w), point)
    sol = solve_rational(param.ctx_M.split_center_basis, moved)
    if sol is None:
        return "off"
    c = mat_vec(param.ctx_M._P, sol)
    if any(Fraction(x).denominator != 1 for x in c):
        return "fraction"
    return tuple(int(x) for x in c)


@pytest.mark.parametrize("pname", presets.PARAM_NAMES)
def test_fiber_weight_matches_fraction_definition(pname):
    # every kappa with entries in -1..1 on every standard Levi, at every
    # relative Weyl element: the transporter cosets and the elements that
    # move the Newton point off the parameter center
    param = presets.parameter(pname)
    group = param.group
    seen = set()
    for levi in group.standard_levi_subsets():
        trans = set(transporter_set(group, param.minimal_levi, levi))
        chars = group.levi_context(levi).dual_center_characters
        for kappa in chars.elements_in_box(1):
            b = BElement(levi, kappa)
            for w in group.relative.elements:
                want = _fiber_weight_fraction(param, b, w)
                got = fiber_weight(param, b, w)
                assert got == (None if want in ("off", "fraction") else want)
                seen.add(want if isinstance(want, str) else
                         "transporter" if w in trans else "weight")
                if w in trans:
                    assert want != "off"
    assert "transporter" in seen
    # Newton points are relative points: only a minimal Levi bigger than
    # the torus leaves room to move off its center
    assert ("off" in seen) == bool(param.minimal_levi)


def test_fiber_weight_fraction_cases():
    # the non-integral case of fiber_weight occurs on the presets
    param = presets.parameter("gl4-st2")
    full = param.group.full_subset()
    chars = param.group.levi_context(full).dual_center_characters
    b = BElement(full, chars.element((1,)))
    assert _fiber_weight_fraction(param, b, param.group.relative.identity) \
        == "fraction"
    assert fiber_weight(param, b, param.group.relative.identity) is None


# ---------------------------------------------------------------------------
# fibers

def test_fiber_singleton_gl2():
    m = build_packet_member(GL2, rho_of(GL2, (1, 0)))
    fiber = enumerate_fiber(GL2, m.b)
    assert len(fiber) == 1
    assert fiber[0].key() == m.key()


def test_fiber_rejects_malformed_upstream():
    g = GL2.group
    q = g.levi_context(frozenset()).dual_center_characters
    with pytest.raises(WallRejection):
        basic_plus_lift(g, frozenset(), q.element_from_ambient((0, 1)))


def test_fiber_empty_for_odd_central_class():
    # the basic stratum with an odd invariant supports no algebraic pair:
    # the pulled-back weight is non-integral on every coset
    g = GL2.group
    full = g.full_subset()
    kappa = g.levi_context(full).dual_center_characters.element([1], [])
    from rk.kottwitz import BElement
    b = BElement(full, kappa)
    assert enumerate_fiber(GL2, b) == ()


def test_fiber_gl4_singleton():
    m = build_packet_member(GL4ST, rho_of(GL4ST, (1, 0)))
    assert len(enumerate_fiber(GL4ST, m.b)) == 1


def test_fiber_multiple_cosets():
    # a centralizer smaller than the full Weyl group spreads one stratum
    # over several transporter cosets
    g = presets.group("gl3")
    p = Parameter(g, frozenset(), ((1, -1, 0), (-1, 1, 0)), ((1, -1, 0),),
                  label="gl3: 1+1+chi")
    m = build_packet_member(p, rho_of(p, (2, 1, 0)))
    fiber = enumerate_fiber(p, m.b)
    assert len(fiber) == 3
    assert len(transporter_double_cosets(p, m.b.levi)) == 3


# ---------------------------------------------------------------------------
# round trips (the two-route comparison)

@pytest.mark.parametrize("name,bound", [
    ("gl2-triv", 3), ("gl3-triv", 2), ("gl4-st2", 3),
    ("sl2-triv", 4), ("gl2x2-swap-triv", 3),
])
def test_round_trip(name, bound):
    rep = round_trip_check(presets.parameter(name), bound)
    assert rep["pass"], rep


# ---------------------------------------------------------------------------
# independence of choices

def _component_parameter():
    # centralizer with one root pair on the first block and a component
    # generator swapping the last two coordinates
    g = presets.group("gl4")
    return Parameter(g, frozenset(),
                     ((1, -1, 0, 0), (-1, 1, 0, 0)), ((1, -1, 0, 0),),
                     r_phi_words=((2,),), label="gl4 block+flip")


def test_independence_component_conjugate():
    # conjugating the weight by the component group with the module
    # transported does not change the member
    p = _component_parameter()
    assert len(p.r_elements) == 2
    m1 = build_packet_member(p, rho_of(p, (1, 0, 2, 3)))
    m2 = build_packet_member(p, rho_of(p, (1, 0, 3, 2)))
    assert m1.key() == m2.key()
    # and a weight fixed by the component group carries two modules
    mods = p.centralizer.stabilizer_modules((1, 0, 2, 2))
    keys = {build_packet_member(
        p, HighestWeightPair((1, 0, 2, 2), m)).key() for m in mods}
    assert len(keys) == 2


def test_component_parameter_round_trip():
    rep = round_trip_check(_component_parameter(), 2)
    assert rep["pass"], rep


def test_independence_witness_choice():
    # any dominant-moving witness yields the same member data; exercised
    # through weights with large stabilizers
    for weight in ((1, 1), (2, 0), (0, 0)):
        m = build_packet_member(GL2, rho_of(GL2, weight))
        again = build_packet_member(GL2, rho_of(GL2, weight))
        assert m == again


def test_independence_minimal_levi_presentation():
    # the same parameter entered with a conjugate minimal-Levi encoding
    # produces the same invariants
    g = presets.group("gl4")
    p1 = presets.parameter("gl4-st2")
    p2 = Parameter(g, frozenset({0, 2}),
                   ((-1, 0, 1, 0), (1, 0, -1, 0)), ((1, 0, -1, 0),),
                   label="gl4: St+St (relisted)")
    for weight in ((1, 0), (2, 1), (1, 1)):
        k1 = build_packet_member(p1, rho_of(p1, weight)).key()
        k2 = build_packet_member(p2, rho_of(p2, weight)).key()
        assert k1 == k2


def test_stabilizer_comparison_runs_on_every_member():
    # the cut-versus-ambient stabilizer identification is asserted inside
    # the construction; a full enumeration exercises it
    for rho in enumerate_rhos(SWAP, 3):
        build_packet_member(SWAP, rho)


# ---------------------------------------------------------------------------
# the centralizer as a disconnected group, against the R_phi loops it
# replaced

ORACLE_PARAMS = presets.PARAM_NAMES + ("block+flip",)


def _oracle_parameter(name):
    return _component_parameter() if name == "block+flip" \
        else presets.parameter(name)


def _r_phi_stabilizer(param, lam):
    """A fresh stabilizer group of lam, filtered from the R_phi images."""
    mats = sorted({param.char_action(r) for r in param.r_elements
                   if mat_vec(param.char_action(r), lam) == lam})
    return FiniteGroup.from_matrices(mats)


def _box_scan_rhos(param, height_bound):
    """The weight box, the orbit maximum over R_phi and a fresh stabilizer
    module table per weight."""
    seen = set()
    out = []
    for lam in itertools.product(range(height_bound + 1), repeat=param.dim):
        if not param.centralizer.is_dominant(lam):
            continue
        canon = max(mat_vec(param.char_action(r), lam)
                    for r in param.r_elements)
        if canon in seen:
            continue
        seen.add(canon)
        for module in simple_modules(_r_phi_stabilizer(param, canon)):
            out.append(HighestWeightPair(canon, module))
    return tuple(sorted(out, key=lambda p: p.label()))


@pytest.mark.parametrize("name", ORACLE_PARAMS)
def test_centralizer_component_group_is_the_r_phi_image(name):
    param = _oracle_parameter(name)
    assert param.centralizer.component is param.s_datum
    assert param.centralizer.pi0.elements == tuple(
        sorted({param.char_action(r) for r in param.r_elements}))
    assert param.component_group() is param.centralizer.pi0


@pytest.mark.parametrize("name", ORACLE_PARAMS)
def test_enumerate_rhos_matches_box_scan(name):
    param = _oracle_parameter(name)
    for height in range(4):
        got = enumerate_rhos(param, height)
        want = _box_scan_rhos(param, height)
        assert [p.label() for p in got] == [p.label() for p in want]
        assert got == want


@pytest.mark.parametrize("name", ORACLE_PARAMS)
def test_stabilizer_modules_once_per_subgroup(name, monkeypatch):
    import rk.disconnected
    param = _oracle_parameter(name)
    calls = []

    def counted(group, cocycle=None):
        calls.append(group.elements)
        return simple_modules(group, cocycle)
    monkeypatch.setattr(rk.disconnected, "simple_modules", counted)
    datum = param.centralizer
    by_stabilizer = {}
    for lam in itertools.product(range(3), repeat=param.dim):
        if not param.centralizer.is_dominant(lam):
            continue
        mods = datum.stabilizer_modules(lam)
        stab = _r_phi_stabilizer(param, lam)
        assert mods is by_stabilizer.setdefault(stab.elements, mods)
        assert mods == simple_modules(stab)
    assert sorted(calls) == sorted(by_stabilizer)


# ---------------------------------------------------------------------------
# the forward map's per-weight memo and its certificates

def _member_weights(param):
    """The canonical weights the forward map has stored data for, one
    entry each."""
    return sorted(key[1] for key in param.memo
                  if isinstance(key, tuple) and key[0] == "member")


def _break_descent(monkeypatch, cut, lam, branch):
    """Make one branch of the descent certificate fail on this cut and
    weight, by breaking the per-cut table that branch reads; returns a
    fragment of that branch's message."""
    param = cut.param
    if branch == "root":
        moved = next(r for r in param.roots if dot(lam, param.coroots[r]))
        monkeypatch.setattr(cut, "root_coroots",
                            cut.root_coroots + (param.coroots[moved],))
        return "Levi-cut root"
    if branch == "sublattice":
        monkeypatch.setattr(cut, "descent_coords", (lam,))
        return "derived-intersection sublattice"
    monkeypatch.setattr(cut, "component_actions", ())
    return "ambient stabilizer"


@pytest.mark.parametrize("branch", ["root", "sublattice", "stabilizer"])
def test_descent_certificate_fires_on_a_hit(branch, monkeypatch):
    from oracles import build_packet_member_unmemoized
    param = presets.parameter("gl2-triv")
    rho = rho_of(param, (1, 0))
    member = build_packet_member(param, rho)
    cut = param.memo["member", (1, 0)][0]
    message = _break_descent(monkeypatch, cut, (1, 0), branch)
    with pytest.raises(DescentError, match=message):
        build_packet_member(param, rho)
    assert _member_weights(param) == [(1, 0)]
    monkeypatch.undo()
    assert build_packet_member(param, rho) == member == \
        build_packet_member_unmemoized(presets.parameter("gl2-triv"), rho)


@pytest.mark.parametrize("branch", ["root", "sublattice", "stabilizer"])
def test_descent_certificate_fires_on_a_miss(branch, monkeypatch):
    param = presets.parameter("gl2-triv")
    rho = rho_of(param, (1, 0))
    witness = chamber_locate(param.group, param.ctx_M.alpha((1, 0)))
    cut = param.levi_cut(witness.levi, witness.matrix)
    message = _break_descent(monkeypatch, cut, (1, 0), branch)
    for _ in range(2):
        with pytest.raises(DescentError, match=message):
            build_packet_member(param, rho)
        assert _member_weights(param) == []
    monkeypatch.undo()
    build_packet_member(param, rho)
    assert _member_weights(param) == [(1, 0)]


def test_newton_check_fires_on_a_miss(monkeypatch):
    import rk.packets
    param = presets.parameter("gl4-st2")
    rho = rho_of(param, (1, 0))

    def moved(group, x):
        witness = chamber_locate(group, x)
        # the image moved by 1 in each coordinate, with the scaled
        # numerators the Newton check reads
        d = witness.image.scale
        image = ScaledPoint(c + 1 for c in witness.image)
        image.scale = d
        image.numerators = tuple(v + d for v in witness.image.numerators)
        return ChamberWitness(witness.word, witness.matrix, witness.levi,
                              image)
    monkeypatch.setattr(rk.packets, "chamber_locate", moved)
    with pytest.raises(AssertionError, match="Newton point disagrees"):
        build_packet_member(param, rho)
    assert _member_weights(param) == []
    monkeypatch.undo()
    build_packet_member(param, rho)
    assert _member_weights(param) == [(1, 0)]


@pytest.mark.parametrize("name", ORACLE_PARAMS)
def test_memoized_forward_map_matches_the_reference(name, monkeypatch):
    # the memo against the forward map that recomputes everything; the
    # descent certificate runs on every call, the chamber ascent once
    # per canonical weight
    import rk.packets
    from oracles import build_packet_member_unmemoized
    param = _oracle_parameter(name)
    rhos = enumerate_rhos(param, 3)
    want = [build_packet_member_unmemoized(_oracle_parameter(name), rho)
            for rho in rhos]
    counts = {"_certify_descent": 0, "chamber_locate": 0}

    def counted(fn_name):
        real = getattr(rk.packets, fn_name)

        def run(*args):
            counts[fn_name] += 1
            return real(*args)
        return run
    for fn_name in counts:
        monkeypatch.setattr(rk.packets, fn_name, counted(fn_name))
    order = list(range(len(rhos)))
    rng = random.Random(name)
    for _ in range(2):
        rng.shuffle(order)
        for i in order:
            got = build_packet_member(param, rhos[i])
            for f in PacketMember._fields:
                assert getattr(got, f) == getattr(want[i], f)
    weights = sorted({m.rho_weight for m in want})
    assert _member_weights(param) == weights
    assert counts == {"_certify_descent": 2 * len(rhos),
                      "chamber_locate": len(weights)}


def _fiber_weight_inputs(param):
    """Each element b the forward map hits at height 3, and each
    basic-plus element on those Levis with functional coordinates in
    {-1, 0, 1} off the walls, many of them hit by no pair, paired with each transporter
    element (so every transporter coset) from the minimal Levi to b's
    Levi."""
    group = param.group
    bs = {build_packet_member(param, rho).b
          for rho in enumerate_rhos(param, 3)}
    for levi in {b.levi for b in bs}:
        ctx = group.levi_context(levi)
        for f in itertools.product((-1, 0, 1), repeat=ctx.dim):
            try:
                bs.add(basic_plus_lift(group, levi,
                                       ctx.kappa_from_functional(f)))
            except WallRejection:
                pass
    return [(b, w) for b in sorted(bs, key=repr)
            for w in transporter_set(group, param.minimal_levi, b.levi)]


def test_memoized_fiber_weight_matches_the_reference(monkeypatch):
    # the memo against the weight computed on every call, in two shuffled
    # passes over every parameter preset; integral or not, one entry and
    # one computation per distinct input, the entry holding the weight
    # and its dominant translate
    import rk.packets
    from oracles import fiber_weight_unmemoized
    computed = []

    def counted(m):
        computed.append(m)
        return mat_transpose(m)
    values = []
    for name in presets.PARAM_NAMES:
        param = presets.parameter(name)
        inputs = _fiber_weight_inputs(param)
        assert {w for b, _w in inputs
                for w in transporter_double_cosets(param, b.levi)
                } <= {w for _b, w in inputs}
        reference = presets.parameter(name)
        want = {key: fiber_weight_unmemoized(reference, *key)
                for key in inputs}
        values.extend(want.values())
        computed.clear()
        monkeypatch.setattr(rk.packets, "mat_transpose", counted)
        rng = random.Random(name)
        for _ in range(2):
            rng.shuffle(inputs)
            for b, w in inputs:
                assert fiber_weight(param, b, w) == want[b, w], name
        monkeypatch.undo()
        entries = {key[1:]: value for key, value in param.memo.items()
                   if isinstance(key, tuple) and key[0] == "fiber_weight"}
        assert entries == {
            key: lam and (lam, dominantize(reference, lam))
            for key, lam in want.items()}, name
        assert len(computed) == len(want), name
    assert None in values and any(v is not None for v in values)


@pytest.mark.parametrize("name", presets.PARAM_NAMES)
def test_round_trip_locates_each_canonical_weight_once(name, monkeypatch):
    import rk.packets
    param = presets.parameter(name)
    located = []

    def counted(group, x):
        located.append(tuple(x))
        return chamber_locate(group, x)
    monkeypatch.setattr(rk.packets, "chamber_locate", counted)
    assert round_trip_check(param, 3)["pass"]
    weights = _member_weights(param)
    assert {rho.weight for rho in enumerate_rhos(param, 3)} <= set(weights)
    assert len(located) == len(set(located)) == len(weights)


# ---------------------------------------------------------------------------
# the warm packet path against its per-call forms

WARM_PARAMS = ORACLE_PARAMS + ("gl3: 2+1",)


def _warm_parameter(name):
    from oracles import gl3_one_root
    return gl3_one_root() if name == "gl3: 2+1" else _oracle_parameter(name)


def _outcome(certify, param, cut, lam):
    """None when the certificate passes, else its exception's type and
    message."""
    try:
        certify(param, cut, lam)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", WARM_PARAMS)
def test_warm_square_and_fiber_match_the_per_call_forms(name):
    # the square read per weight and the fiber's dominant weight read per
    # (b, w), against the forms that compute both on every call, in two
    # passes (the second one all hits)
    from oracles import (central_character_square_per_call,
                         enumerate_fiber_per_call)
    param, reference = _warm_parameter(name), _warm_parameter(name)
    rhos = enumerate_rhos(param, 3)
    for _ in range(2):
        for rho in rhos:
            assert central_character_square(param, rho) == \
                central_character_square_per_call(reference, rho)
            b = build_packet_member(param, rho).b
            assert [m.key() for m in enumerate_fiber(param, b)] == \
                [m.key() for m in enumerate_fiber_per_call(reference, b)]
    if name == "gl3: 2+1":
        assert any(len(transporter_double_cosets(param, levi)) > 1
                   for levi, _w in _stored_cuts(param))


@pytest.mark.parametrize("name", WARM_PARAMS)
def test_descent_tables_raise_as_the_per_call_loops(name):
    # every cut the round trip reaches, with every weight of a box that
    # holds weights of other cuts and non-dominant ones: the certificate
    # on the per-cut tables passes, or raises the same message, exactly
    # when the loops it replaced do; the tables hold one coroot per cut
    # root and one action pair per component element
    from oracles import certify_descent_per_call
    param = _warm_parameter(name)
    assert round_trip_check(param, 2)["pass"]
    cuts = _stored_cuts(param).values()
    seen = set()
    for cut in cuts:
        assert cut.root_coroots == tuple(param.coroots[r] for r in cut.roots)
        assert cut.component_actions == tuple(
            (param.char_action(g), param.char_action(param.r_component(g)))
            for g in cut.component_elements)
        for lam in itertools.product(range(-1, 3), repeat=param.dim):
            got = _outcome(_certify_descent, param, cut, lam)
            assert got == _outcome(certify_descent_per_call, param, cut, lam)
            seen.add(got and got[1].split(";")[0])
    assert {None, "weight pairs nontrivially with a Levi-cut root",
            "stabilizer_A_lambda needs a dominant weight"} <= seen, seen
    if name == "block+flip":
        assert {"weight does not kill the derived-intersection sublattice",
                "Levi-cut stabilizer does not match the ambient stabilizer "
                "of the weight"} <= seen, seen


@pytest.mark.parametrize("branch", ["root", "sublattice", "stabilizer"])
def test_descent_certificate_fires_on_a_warm_square(branch, monkeypatch):
    # a square read from its ("square", lambda) entry still runs the
    # forward map, so a broken cut table raises there too
    param = presets.parameter("gl2-triv")
    rho = rho_of(param, (1, 0))
    want = central_character_square(param, rho)
    assert ("square", (1, 0)) in param.memo
    cut = param.memo["member", (1, 0)][0]
    message = _break_descent(monkeypatch, cut, (1, 0), branch)
    for _ in range(2):
        with pytest.raises(DescentError, match=message):
            central_character_square(param, rho)
    monkeypatch.undo()
    assert central_character_square(param, rho) == want


@pytest.mark.parametrize("name", presets.PARAM_NAMES)
def test_warm_square_and_fiber_solve_once_per_input(name, monkeypatch):
    # three passes of the square and of the fiber of every pair to height
    # 3: kappa_from_functional runs once per weight the forward map builds
    # and once per weight squared, dominantize once per (b, w) of an
    # integral fiber weight
    import rk.packets
    from rk.rootdata import LeviContext
    calls = {"kappa_from_functional": 0, "dominantize": 0}

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run
    monkeypatch.setattr(LeviContext, "kappa_from_functional", counted(
        "kappa_from_functional", LeviContext.kappa_from_functional))
    monkeypatch.setattr(rk.packets, "dominantize",
                        counted("dominantize", dominantize))
    param = presets.parameter(name)
    rhos = enumerate_rhos(param, 3)
    for _ in range(3):
        for rho in rhos:
            central_character_square(param, rho)
            enumerate_fiber(param, build_packet_member(param, rho).b)

    def entries(kind):
        return [value for key, value in param.memo.items()
                if isinstance(key, tuple) and key[0] == kind]
    squared = {canonical_rho(param, rho).weight for rho in rhos}
    assert len(entries("square")) == len(squared)
    assert calls["kappa_from_functional"] == \
        len(entries("member")) + len(squared)
    assert calls["dominantize"] == \
        sum(value is not None for value in entries("fiber_weight")) > 0


def test_fiber_check_catches_a_candidate_on_another_element(monkeypatch):
    # a fiber weight whose member lies over another element b is caught
    # by comparing the member's element with b
    import rk.packets
    from oracles import enumerate_fiber_per_call
    param = presets.parameter("gl2-triv")
    b = build_packet_member(param, rho_of(param, (0, 0))).b
    assert build_packet_member(param, rho_of(param, (1, 0))).b != b
    monkeypatch.setattr(rk.packets, "fiber_weights",
                        lambda param, b, w: ((1, 0), (1, 0)))
    with pytest.raises(AssertionError, match="^fiber candidate landed on a "
                       "different element of the Kottwitz set$"):
        enumerate_fiber(param, b)
    monkeypatch.undo()
    assert enumerate_fiber(param, b) == enumerate_fiber_per_call(param, b)


# ---------------------------------------------------------------------------
# central characters

def test_central_character_standard():
    out = central_character_square(GL2, rho_of(GL2, (1, 0)))
    assert out["equal"] and not out["torsion_undetermined"]
    assert out["omega"].free == (1,)


def test_central_character_determinant_type():
    out = central_character_square(GL2, rho_of(GL2, (1, 1)))
    assert out["equal"]
    assert out["omega"].free == (2,)


def test_central_character_trivial():
    out = central_character_square(GL2, rho_of(GL2, (0, 0)))
    omega = out["omega"]
    assert out["equal"] and not any(omega.free + omega.torsion)


def test_central_character_suite():
    for param in (GL2, GL4ST, SL2, SWAP):
        for rho in enumerate_rhos(param, 3):
            out = central_character_square(param, rho)
            assert out["equal"], (param.label, rho.weight)


@pytest.mark.parametrize("name", presets.PARAM_NAMES)
def test_descent_coords_have_the_parameter_length(name):
    # the descent certificate pairs a weight with each of these vectors by
    # `dot`, which needs both of length param.dim; the sum it replaced
    # read the first param.dim entries
    param = presets.parameter(name)
    rhos = enumerate_rhos(param, 3)
    for rho in rhos:
        enumerate_fiber(param, build_packet_member(param, rho).b)
    coords = [sol for cut in _stored_cuts(param).values()
              for sol in cut.descent_coords]
    assert all(len(sol) == param.dim for sol in coords)
    for rho in rhos:
        lam = canonical_rho(param, rho).weight
        assert len(lam) == param.dim
        for sol in coords:
            assert dot(lam, sol) == sum(Fraction(lam[i]) * sol[i]
                                        for i in range(param.dim))
