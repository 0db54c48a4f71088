"""Endoscopic data, embedded classes against brute-force double cosets,
the indexing bijection, geometric-lemma terms, regular parts and
pairings, and the two-sided identity."""

import itertools
import random
from fractions import Fraction

import pytest

from rk import presets
from rk.cyclotomic import Cyclo
from rk.disconnected import HighestWeightPair
from rk.endoscopy import (
    EndoscopicDatum,
    EndoscopyError,
    FormalDistribution,
    Term,
    eci_both_sides,
    enumerate_embedded,
    indexing_bijection_check,
    jacquet_geometric_terms,
    parameter_on_h,
    regular_pairing,
    regular_part,
)
from rk.packets import (
    build_packet_member,
    enumerate_fiber,
    enumerate_rhos,
)

from oracles import s_in_levi_check


GL2 = presets.parameter("gl2-triv")
GL4ST = presets.parameter("gl4-st2")
SWAP = presets.parameter("gl2x2-swap-triv")


def rho_of(param, weight, index=0):
    mods = param.centralizer.stabilizer_modules(weight)
    return HighestWeightPair(tuple(weight), mods[index])


# ---------------------------------------------------------------------------
# endoscopic groups from torus elements

def test_regular_element_cuts_torus():
    endo = presets.endoscopy("gl2-sreg")
    assert endo.H.datum.roots == ()


def test_block_element_cuts_product():
    endo = presets.endoscopy("gl4-splus")
    assert len(endo.H.datum.roots) == 4
    assert len(endo.H.datum.simple_indices) == 2
    assert len(endo.H.weyl) == 4


def test_trivial_element_gives_everything():
    endo = presets.endoscopy("gl3-s1")
    g = presets.group("gl3")
    assert set(endo.H.datum.roots) == set(g.datum.roots)


def test_rejects_non_galois_fixed():
    g = presets.group("gl2x2-swap")
    with pytest.raises(EndoscopyError):
        EndoscopicDatum(g, (Fraction(1, 2), 0, 0, 0))


def test_galois_fixed_swap_element():
    g = presets.group("gl2x2-swap")
    # swap-symmetric but regular in each block: cuts down to the torus
    endo = EndoscopicDatum(g, (Fraction(1, 2), 0, Fraction(1, 2), 0))
    assert endo.H.datum.roots == ()
    # the central one keeps everything
    central = EndoscopicDatum(g, (Fraction(1, 2),) * 4)
    assert len(central.H.datum.roots) == 4


# ---------------------------------------------------------------------------
# s in Levi certificates

def test_s_in_levi_trivial():
    out = s_in_levi_check(GL2, presets.endoscopy("gl2-s1"), frozenset())
    assert out["component"] == "identity"
    assert all(v == 0 for v in out["coordinate_exponents"].values())


def test_s_in_levi_block():
    out = s_in_levi_check(GL4ST, presets.endoscopy("gl4-splus"),
                          frozenset({0, 2}))
    assert sorted(out["coordinate_exponents"].values()) == \
        [Fraction(0), Fraction(1, 2)]


def test_s_in_levi_regular():
    out = s_in_levi_check(GL2, presets.endoscopy("gl2-sreg"), frozenset())
    assert sorted(out["coordinate_exponents"].values()) == \
        [Fraction(0), Fraction(1, 2)]


def test_s_in_levi_rejects_wrong_levi():
    with pytest.raises(EndoscopyError):
        s_in_levi_check(GL4ST, presets.endoscopy("gl4-s1"), frozenset({0}))


# ---------------------------------------------------------------------------
# embedded data

def _brute_double_coset_count_s4(left_blocks, right_blocks):
    def stable(p, blocks):
        return all({p[i] for i in blk} == set(blk) for blk in blocks)
    left = [p for p in itertools.permutations(range(4))
            if stable(p, left_blocks)]
    right = [p for p in itertools.permutations(range(4))
             if stable(p, right_blocks)]
    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))
    seen, count = set(), 0
    for w in itertools.permutations(range(4)):
        if w in seen:
            continue
        seen |= {compose(a, compose(w, b)) for a in left for b in right}
        count += 1
    return count


def test_embedded_trivial_s_singleton():
    embs = enumerate_embedded(GL2, frozenset(), presets.endoscopy("gl2-s1"))
    assert len(embs) == 1


def test_embedded_gl4_three_classes_brute_oracle():
    embs = enumerate_embedded(GL4ST, frozenset({0, 2}),
                              presets.endoscopy("gl4-splus"))
    brute = _brute_double_coset_count_s4([{0, 1}, {2, 3}], [{0, 1}, {2, 3}])
    assert len(embs) == brute == 3


def test_embedded_full_levi_singleton():
    embs = enumerate_embedded(GL4ST, GL4ST.group.full_subset(),
                              presets.endoscopy("gl4-s1"))
    assert len(embs) == 1


# ---------------------------------------------------------------------------
# the endoscopic-side parameter

def test_parameter_on_h_identity_case():
    param_h, h = parameter_on_h(GL2, presets.endoscopy("gl2-s1"))
    assert param_h.minimal_levi == GL2.minimal_levi
    assert set(param_h.roots) == set(GL2.roots)


def test_parameter_on_h_block_case():
    param_h, _h = parameter_on_h(GL4ST, presets.endoscopy("gl4-splus"))
    # the parameter is discrete on the endoscopic side: no surviving roots
    assert param_h.roots == ()
    assert param_h.minimal_levi == param_h.group.full_subset()


def test_parameter_on_h_regular_case():
    param_h, _h = parameter_on_h(GL2, presets.endoscopy("gl2-sreg"))
    assert param_h.roots == ()


# ---------------------------------------------------------------------------
# indexing bijection

@pytest.mark.parametrize("ename", ["gl4-s1", "gl4-splus"])
def test_indexing_bijection_gl4of(ename):
    endo = presets.endoscopy(ename)
    for levi in GL4ST.group.standard_levi_subsets():
        if not (GL4ST.minimal_levi <= levi):
            continue
        rep = indexing_bijection_check(GL4ST, levi, endo)
        assert rep["pass"], rep
        assert rep["lhs_size"] == rep["rhs_size"]


def test_indexing_bijection_gl2():
    rep = indexing_bijection_check(GL2, frozenset(),
                                   presets.endoscopy("gl2-s1"))
    assert rep["pass"] and rep["lhs_size"] == rep["rhs_size"] == 2


def test_indexing_bijection_counts_brute():
    # cardinalities against the permutation count: the group side of the
    # 2+2 case has two Levi cosets in its transporter set
    rep = indexing_bijection_check(GL4ST, frozenset({0, 2}),
                                   presets.endoscopy("gl4-splus"))
    assert rep["rhs_size"] == 2
    assert rep["embedded_classes"] == 3


# ---------------------------------------------------------------------------
# geometric-lemma terms and regular parts

def _total(dist):
    return sum(int(c.as_rational()) for _t, c in dist.items())


def test_jacquet_terms_gl4_counts():
    endo = presets.endoscopy("gl4-s1")
    param_h, h = parameter_on_h(GL4ST, endo)
    embs = enumerate_embedded(GL4ST, frozenset({0, 2}), endo)
    assert len(embs) == 1
    terms = jacquet_geometric_terms(endo, embs[0], param_h)
    assert _total(terms) == 3
    reg = regular_part(terms)
    assert _total(reg) == 2
    assert len(reg.items()) == 1          # equal labels merged
    nonreg = [t for t, _ in terms.items() if t.kind == "nonregular"]
    assert len(nonreg) == 1


def test_jacquet_terms_gl2_all_regular():
    endo = presets.endoscopy("gl2-s1")
    param_h, h = parameter_on_h(GL2, endo)
    embs = enumerate_embedded(GL2, frozenset(), endo)
    terms = jacquet_geometric_terms(endo, embs[0], param_h)
    assert _total(terms) == 2
    assert _total(regular_part(terms)) == 2


def test_jacquet_terms_full_levi_single():
    endo = presets.endoscopy("gl4-s1")
    param_h, h = parameter_on_h(GL4ST, endo)
    embs = enumerate_embedded(GL4ST, GL4ST.group.full_subset(), endo)
    terms = jacquet_geometric_terms(endo, embs[0], param_h)
    assert _total(terms) == 1
    assert _total(regular_part(terms)) == 1


def test_regular_part_counts_transporter_cosets():
    # |regular terms| equals the number of Levi cosets in the endoscopic
    # transporter set, per embedded class
    from rk.weyl import transporter_set
    from rk.lattice import mat_mul
    for pname, ename, levi in (
            ("gl4-st2", "gl4-s1", frozenset({0, 2})),
            ("gl4-st2", "gl4-splus", frozenset({0, 2})),
            ("gl2-triv", "gl2-s1", frozenset())):
        param = presets.parameter(pname)
        endo = presets.endoscopy(ename)
        param_h, _h = parameter_on_h(param, endo)
        for emb in enumerate_embedded(param, levi, endo):
            terms = regular_part(jacquet_geometric_terms(endo, emb, param_h))
            left = endo.H.levi_weyl_elements(emb.levi_h)
            cosets = {frozenset(mat_mul(l, t) for l in left)
                      for t in transporter_set(endo.H, param_h.minimal_levi,
                                               emb.levi_h)}
            assert _total(terms) == len(cosets)


def test_regular_part_empty_input():
    assert len(regular_part(FormalDistribution())) == 0


# ---------------------------------------------------------------------------
# regular pairing

def test_pairing_worked_example_value():
    m = build_packet_member(GL2, rho_of(GL2, (1, 0)))
    val = regular_pairing(GL2, m, presets.endoscopy("gl2-s1"))
    assert val == Cyclo.from_rational(2)


def test_pairing_basic_is_dimension():
    m = build_packet_member(GL2, rho_of(GL2, (1, 1)))
    val = regular_pairing(GL2, m, presets.endoscopy("gl2-s1"))
    assert val == Cyclo.from_rational(1)


def test_pairing_gl4_value():
    m = build_packet_member(GL4ST, rho_of(GL4ST, (1, 0)))
    val = regular_pairing(GL4ST, m, presets.endoscopy("gl4-s1"))
    assert val == Cyclo.from_rational(2)


def test_pairing_signed_cancellation():
    m = build_packet_member(GL4ST, rho_of(GL4ST, (1, 0)))
    val = regular_pairing(GL4ST, m, presets.endoscopy("gl4-splus"))
    assert val.is_zero()


def test_pairing_representative_independence():
    # the value does not depend on the double-coset representative
    from rk.endoscopy import _trace_on_levi_module
    from rk.lattice import mat_mul
    from rk.packets import fiber_weight
    m = build_packet_member(GL4ST, rho_of(GL4ST, (1, 0)))
    endo = presets.endoscopy("gl4-splus")
    base = regular_pairing(GL4ST, m, endo)
    left = GL4ST.group.levi_weyl_elements(m.levi)
    for l in left:
        for f in GL4ST.wphi_elements:
            w = mat_mul(mat_mul(l, m.w_class), f)
            lam_w = fiber_weight(GL4ST, m.b, w)
            assert lam_w is not None
            cut = GL4ST.levi_cut(m.levi, w)
            sub = set(cut.weyl_elements)
            total = Cyclo.zero()
            covered = set()
            for g in GL4ST.wphi_elements:
                if g in covered:
                    continue
                covered |= {mat_mul(s, g) for s in sub}
                total = total + _trace_on_levi_module(
                    GL4ST, m.levi, w, lam_w, 1, g, endo)
            assert total == base


def test_pairing_swap_group():
    m = build_packet_member(SWAP, rho_of(SWAP, (1, 0)))
    val = regular_pairing(SWAP, m, presets.endoscopy("gl2x2-swap-s1"))
    assert val == Cyclo.from_rational(2)


# ---------------------------------------------------------------------------
# the two-sided identity

def test_eci_worked_example_rank2():
    endo = presets.endoscopy("gl2-s1")
    for weight in ((1, 0), (2, 1), (3, 2)):
        m = build_packet_member(GL2, rho_of(GL2, weight))
        out = eci_both_sides(GL2, m.b, endo)
        assert out["equal"]
        items = out["rhs"].items()
        assert len(items) == 1
        assert items[0][1] == Cyclo.from_rational(2)
        assert items[0][0].delta_twist == Fraction(1, 2)
        assert items[0][0].sign_token == "e(G_b)"


def test_eci_worked_example_rank4():
    endo = presets.endoscopy("gl4-s1")
    m = build_packet_member(GL4ST, rho_of(GL4ST, (1, 0)))
    out = eci_both_sides(GL4ST, m.b, endo)
    assert out["equal"]
    assert len(out["rhs"].items()) == 1
    assert out["rhs"].items()[0][1] == Cyclo.from_rational(2)
    assert _total(out["discarded_nonregular"]) == 1


def test_eci_basic_collapse():
    endo = presets.endoscopy("gl2-s1")
    m = build_packet_member(GL2, rho_of(GL2, (2, 2)))
    out = eci_both_sides(GL2, m.b, endo)
    assert out["equal"]
    coeffs = [c for _t, c in out["rhs"].items()]
    assert coeffs == [Cyclo.from_rational(1)]


def test_eci_zero_equals_zero():
    endo = presets.endoscopy("gl4-splus")
    m = build_packet_member(GL4ST, rho_of(GL4ST, (1, 0)))
    out = eci_both_sides(GL4ST, m.b, endo)
    assert out["equal"]
    assert len(out["lhs"]) == len(out["rhs"]) == 0


def test_eci_regular_endoscopy():
    endo = presets.endoscopy("gl2-sreg")
    m = build_packet_member(GL2, rho_of(GL2, (1, 0)))
    out = eci_both_sides(GL2, m.b, endo)
    assert out["equal"]


def test_eci_swap_group():
    endo = presets.endoscopy("gl2x2-swap-s1")
    m = build_packet_member(SWAP, rho_of(SWAP, (1, 0)))
    out = eci_both_sides(SWAP, m.b, endo)
    assert out["equal"]
    assert [c for _t, c in out["rhs"].items()] == [Cyclo.from_rational(2)]


def test_eci_multi_coset_parameter():
    # three fiber members, each with its own pairing
    from rk.params import Parameter
    g = presets.group("gl3")
    p = Parameter(g, frozenset(), ((1, -1, 0), (-1, 1, 0)), ((1, -1, 0),),
                  label="gl3: 1+1+chi")
    endo = EndoscopicDatum(g, (0, 0, 0), label="gl3-s1")
    m = build_packet_member(p, rho_of(p, (2, 1, 0)))
    out = eci_both_sides(p, m.b, endo)
    assert out["equal"]
    assert len(out["rhs"].items()) == 3


def test_regular_u3_galois_condition_rejects_twists():
    # the regular parameter of u3 with s = (1/2, 0, 1/2): the one input
    # whose Galois condition rejects a twist (every ECI_PAIRS input admits
    # all of W), so the backward and forward maps see a proper W(L, H)
    from rk.endoscopy import _admissible
    from rk.params import Parameter
    g = presets.group("u3")
    param = Parameter(g, frozenset(), (), ())
    endo = EndoscopicDatum(g, (Fraction(1, 2), 0, Fraction(1, 2)))
    assert len(_admissible(param, endo)) == 2
    assert len(g.weyl.elements) == 6
    for pname, ename in ECI_PAIRS:
        other = presets.parameter(pname)
        assert _admissible(other, presets.endoscopy(ename)) == \
            frozenset(other.group.weyl.elements)
    levis = g.standard_levi_subsets()
    assert len(levis) == 2
    for levi in levis:
        assert indexing_bijection_check(param, levi, endo)["pass"]
    rhos = enumerate_rhos(param, 1)
    assert len(rhos) >= 2
    for rho in rhos[:2]:
        b = build_packet_member(param, rho).b
        assert eci_both_sides(param, b, endo)["equal"]


def test_regular_u3_rejects_s_off_the_split_center():
    # The same parameter with s = (0, 1/2, 0).  The flip (x1, x2, x3) ->
    # (-x3, -x2, -x1) fixes s mod 1, so s lies in T^Gamma = {x1 = -x3,
    # x2 in {0, 1/2}}.  The identity component of T^Gamma is A_M^, the
    # exponents t.(-1, 0, 1) that span the parameter center B, and it has
    # x2 = 0; the annihilator vector (0, 1, 0) of B pairs with s to 1/2.
    # So s is not in the split center of the minimal dual Levi, and the
    # rejection is correct.
    from rk.params import Parameter
    g = presets.group("u3")
    param = Parameter(g, frozenset(), (), ())
    endo = EndoscopicDatum(g, (0, Fraction(1, 2), 0))
    assert param.center_basis == ((-1, 0, 1),)
    b = build_packet_member(param, enumerate_rhos(param, 1)[0]).b
    with pytest.raises(EndoscopyError, match="^the torus element does not "
                       "lie in the split center of the minimal dual Levi$"):
        eci_both_sides(param, b, endo)


def test_formal_distribution_merging():
    d = FormalDistribution()
    t = Term("stable", (0,), ("x",), "s", Fraction(0), "1")
    d.add(t, 1)
    d.add(t, Cyclo.from_rational(1))
    assert _total(d) == 2
    d.add(t, -2)
    assert len(d) == 0


def test_formal_distribution_equality():
    # equal exactly when the same terms carry equal coefficients, however
    # the sums were built
    s = Term("stable", (0,), ("x",), "s", Fraction(1, 2), "1")
    t = Term("stable", (0,), ("x",), "s", Fraction(1, 2), "2")

    def dist(*pairs):
        d = FormalDistribution()
        for term, c in pairs:
            d.add(term, c)
        return d
    assert dist((s, 1), (t, 2)) == dist((t, 1), (s, 1), (t, 1))
    assert dist((s, 1), (t, 2)) != dist((s, 1), (t, 3))
    assert dist((s, 1)) != dist((s, 1), (t, 1))
    assert dist((s, 1), (t, 1)) != dist((s, 1))
    assert dist((s, 1), (t, 1), (t, -1)) == dist((s, 1))
    assert dist() == FormalDistribution() and dist((s, 1)) != {s: 1}


def test_terms_differing_only_in_delta_twist_stay_apart():
    # a Term hashes without delta_twist (a constant per kind), so two terms
    # that differ only there collide in the hash and are told apart by
    # equality alone
    s = Term("member", (0,), ("x",), "s", Fraction(1, 2), "1")
    t = Term("member", (0,), ("x",), "s", Fraction(0), "1")
    assert hash(s) == hash(t) and s != t
    d = FormalDistribution()
    d.add(s, 1)
    d.add(t, 2)
    d.add(s, 3)
    assert len(d) == 2
    assert [(term.delta_twist, c) for term, c in d.items()] == \
        [(Fraction(0), Cyclo.from_rational(2)),
         (Fraction(1, 2), Cyclo.from_rational(4))]
    d.add(t, -2)
    assert [term for term, _ in d.items()] == [s]


# ---------------------------------------------------------------------------
# the endoscopy memo entries against uncached computations

ECI_PAIRS = (("gl2-triv", "gl2-s1"), ("gl2-triv", "gl2-sreg"),
             ("sl2-triv", "sl2-s1"), ("gl2x2-swap-triv", "gl2x2-swap-s1"),
             ("gl3-triv", "gl3-s1"), ("gl4-st2", "gl4-s1"),
             ("gl4-st2", "gl4-splus"), ("gl4-triv", "gl4-splus"))


def _pair_levis(pname, ename):
    param, endo = presets.parameter(pname), presets.endoscopy(ename)
    return param, endo, [levi for levi in param.group.standard_levi_subsets()
                         if param.minimal_levi <= levi]


def _closure_levi_weyl(group, levi):
    from rk.lattice import closure
    from rk.rootdata import reflection_matrix
    datum = group.datum
    gens = [reflection_matrix(datum.simple_roots[pos], datum.simple_coroots[pos])
            for pos in sorted(levi)] or [group.weyl.identity]
    return set(closure(tuple(gens), 10**6)[0])


def _brute_embedded(param, levi, endo):
    """The twist classes by matrix products: the Galois condition per w,
    W_L by `closure`, the double-coset orbits by `mat_mul`."""
    from rk.endoscopy import _standardize_embedded
    from rk.lattice import closure, mat_mul, mat_vec
    group = param.group
    wh = endo.H.weyl.elements
    galois = closure(group.galois.char_generators)[0]

    def condition(w):
        winv = group.weyl.inverse[w]
        basis = [mat_vec(winv, u) for u in param.center_basis]
        return all(any(all(mat_vec(mat_mul(h, g), v) == v for v in basis)
                       for h in wh)
                   for g in galois)

    wl = _closure_levi_weyl(group, levi)
    seen, out = set(), []
    for w in sorted(w for w in group.weyl.elements if condition(w)):
        if w not in seen:
            orbit = {mat_mul(mat_mul(l, w), h) for l in wl for h in wh}
            seen |= orbit
            out.append(_standardize_embedded(param, endo, levi, min(orbit)))
    return sorted(out, key=lambda e: e.key())


def _scan_forward(param, levi, endo, h, emb, v):
    """The transporter-set scan the forward table replaces."""
    from oracles import left_coset_rep_by_rows
    from rk.lattice import mat_mul, mat_vec
    from rk.weyl import transporter_set
    group = param.group
    inv = endo.H.relative.inverse
    composite = mat_mul(mat_mul(inv[h], inv[v]),
                        mat_mul(emb.h_std, group.weyl.inverse[emb.w_rep]))
    basis = group.levi_context(levi).dual_split_center_basis
    targets = [c for c in transporter_set(group, param.minimal_levi, levi)
               if all(mat_vec(group.relative.inverse[c], u)
                      == mat_vec(composite, u) for u in basis)]
    if not targets:
        raise AssertionError("indexing construction missed the transporter "
                             "set")
    reps = {left_coset_rep_by_rows(group, levi, t) for t in targets}
    if len(reps) != 1:
        raise AssertionError("indexing construction produced an ambiguous "
                             "coset")
    return reps.pop()


def _outcome(f, *args):
    try:
        return f(*args)
    except (AssertionError, EndoscopyError) as exc:
        return ("raised", type(exc).__name__, str(exc))


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_memo_parameter_on_h_matches_fresh(pname, ename):
    from rk.endoscopy import _find_parameter_on_h
    param, endo = presets.parameter(pname), presets.endoscopy(ename)
    param_h, h = parameter_on_h(param, endo)
    fresh_param_h, fresh_h = _find_parameter_on_h(param, endo)
    assert fresh_param_h is not param_h and fresh_h == h
    for field in ("minimal_levi", "roots", "positives", "coroots",
                  "r_generators", "center_basis", "label"):
        assert getattr(param_h, field) == getattr(fresh_param_h, field), field
    assert parameter_on_h(param, endo)[0] is param_h


def _scan_parameter_on_h(param, endo):
    """The two-sided `in_span` scan `_find_parameter_on_h` replaces: the
    first (Levi, h) for which h maps the parameter center onto the Levi's
    split center."""
    from rk.lattice import mat_vec
    from oracles import in_span
    H = endo.H
    center = param.center_basis
    for subset in H.standard_levi_subsets():
        target = H.levi_context(subset).dual_split_center_basis
        if len(target) != len(center):
            continue
        for h in H.relative.elements:
            image = tuple(mat_vec(h, u) for u in center)
            if all(in_span(target, v) for v in image) and \
               all(in_span(image, v) for v in target):
                return subset, h
    return None


def _gl3_center_with_a_central_vector():
    """A gl3 parameter on the Levi GL2 x GL1, its center given by the basis
    (1,1,1), (0,0,1) of the same lattice: every h sends the central first
    vector into every split center, and only h fixing the third coordinate
    line sends the second into that of the Levi {0}."""
    from rk.params import Parameter
    param = Parameter(group=presets.group("gl3"),
                      minimal_levi=frozenset({0}), sphi_ambient=(),
                      positive_ambient=(), r_phi_words=(), label="gl3: 2+1")
    assert param.center_basis == ((1, 1, 0), (0, 0, 1))
    param.center_basis = ((1, 1, 1), (0, 0, 1))
    return param, presets.endoscopy("gl3-s1")


@pytest.mark.parametrize("case", ECI_PAIRS + ("gl3-central-first",))
def test_find_parameter_on_h_matches_in_span_scan(case, monkeypatch):
    from rk import endoscopy
    if case == "gl3-central-first":
        param, endo = _gl3_center_with_a_central_vector()
    else:
        param, endo = presets.parameter(case[0]), presets.endoscopy(case[1])
    want = _scan_parameter_on_h(param, endo)
    assert want is not None
    monkeypatch.setattr(endoscopy, "_build_param_h",
                        lambda param, endo, subset, h: subset)
    assert endoscopy._find_parameter_on_h(param, endo) == want
    if case == "gl3-central-first":
        # the first h of W accepts the central vector alone
        assert want[1] != endo.H.relative.elements[0]


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_memo_embedded_data_match_brute_force(pname, ename):
    from rk.endoscopy import _admissible
    param, endo, levis = _pair_levis(pname, ename)
    weyl = param.group.weyl
    for levi in levis:
        embs = enumerate_embedded(param, levi, endo)
        assert list(embs) == _brute_embedded(param, levi, endo)
        assert enumerate_embedded(param, set(levi), endo) is embs
        classes, class_of = param.memo["embedded", endo, levi]
        assert classes is embs
        assert set(class_of.values()) == set(embs)
        # the map covers W_L . w . W_H for every admissible w, by products
        left = {weyl.mul(l, w) for l in _closure_levi_weyl(param.group, levi)
                for w in _admissible(param, endo)}
        assert set(class_of) == {weyl.index[weyl.mul(x, h)] for x in left
                                 for h in endo.H.weyl.elements}


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_memo_forward_table_matches_transporter_scan(pname, ename):
    from rk.endoscopy import indexing_forward
    param, endo, levis = _pair_levis(pname, ename)
    _param_h, h = parameter_on_h(param, endo)
    checked = 0
    for levi in levis:
        for emb in enumerate_embedded(param, levi, endo):
            for v in endo.H.relative.elements:
                got = _outcome(indexing_forward, param, levi, endo, emb, v)
                assert got == _outcome(_scan_forward, param, levi, endo, h,
                                       emb, v)
                checked += got[0] != "raised"
    assert checked


def _datum_entries(param, endo):
    """The entries of `param.memo` kept for one endoscopic datum, keyed by
    their kind and the rest of the key after the datum."""
    return {(key[0],) + key[2:]: value for key, value in param.memo.items()
            if len(key) > 1 and key[1] is endo}


def test_memo_not_shared_between_objects():
    # two equal data on two equal parameters: each (parameter, datum) has
    # its own entries, of the same keys, sharing no value
    p1, p2 = presets.parameter("gl4-st2"), presets.parameter("gl4-st2")
    e1, e2 = presets.endoscopy("gl4-s1"), presets.endoscopy("gl4-s1")
    levi = frozenset({0, 2})
    pairs = [(p, e) for p in (p1, p2) for e in (e1, e2)]
    ons = [parameter_on_h(p, e)[0] for p, e in pairs]
    assert len({id(x) for x in ons}) == 4
    embs = [enumerate_embedded(p, levi, e) for p, e in pairs]
    assert len({id(x) for x in embs}) == 4
    assert all(x == embs[0] for x in embs)
    entries = [_datum_entries(p, e) for p, e in pairs]
    assert set(entries[0]) == {("h",), ("admissible",), ("embedded", levi)}
    for key in entries[0]:
        assert len({id(x[key]) for x in entries}) == 4


def test_memo_stores_no_failed_parameter_on_h():
    param = presets.parameter("gl4-st2")
    endo = presets.endoscopy("gl2x2-swap-s1")
    messages = []
    for _ in range(2):
        with pytest.raises(EndoscopyError) as info:
            parameter_on_h(param, endo)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "does not factor through" in messages[0]
    assert _datum_entries(param, endo) == {}


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_generated_levi_weyl_matches_closure(name):
    group = presets.group(name)
    for levi in group.standard_levi_subsets():
        got = group.weyl.generated([group.weyl.generators[pos]
                                    for pos in sorted(levi)])
        assert list(got) == sorted(got)
        assert set(got) == _closure_levi_weyl(group, levi)


# ---------------------------------------------------------------------------
# root-index tests against the vector definitions they replace

def _two_filter_embedded(param):
    """The embedded normalizer by Fraction span containment of the moved
    center basis, then the permutation of M's positive root vectors."""
    from rk.lattice import mat_vec
    from oracles import in_span
    group, datum = param.group, param.group.datum
    span = param.center_basis
    simples = [datum.simple_roots[pos] for pos in sorted(param.minimal_levi)]
    mpos = {r for i, r in enumerate(datum.roots)
            if i in datum.positive_root_set and simples
            and in_span(simples, r)}
    return [m for m in group.relative.elements
            if all(in_span(span, mat_vec(m, u)) for u in span)
            and {mat_vec(m, r) for r in mpos} == mpos]


@pytest.mark.parametrize("pname", presets.PARAM_NAMES)
def test_embedded_normalizer_matches_two_filter_scan(pname):
    # the preset and its transport to every endoscopic datum of its group
    param = presets.parameter(pname)
    checked = [param]
    for ename in presets.ENDO_NAMES:
        endo = presets.endoscopy(ename)
        if endo.group.name == param.group.name:
            checked.append(parameter_on_h(param, endo)[0])
    for p in checked:
        assert list(p._embedded) == _two_filter_embedded(p)
    assert len(checked) > 1


def _scan_backward(param, levi, endo, param_h, h, embedded, w):
    """`indexing_backward` with the cut roots as vectors and the
    restandardizing elements found by matrix images over all of W^rel_H."""
    from rk.endoscopy import _admissible, indexing_forward
    from rk.lattice import mat_vec
    from oracles import in_span, left_coset_rep_by_rows
    from rk.weyl import transporter_set
    group, H = param.group, endo.H
    datum = group.datum
    simples = [datum.simple_roots[pos] for pos in sorted(levi)]
    levi_roots = {r for r in datum.roots if simples and in_span(simples, r)}
    mul = group.weyl.mul
    u = mul(w, H.relative.inverse[h])
    if u not in _admissible(param, endo):
        raise AssertionError("backward twist fails the Galois condition")
    cut_roots = {r for r in H.datum.roots if mat_vec(u, r) in levi_roots}
    wl = _closure_levi_weyl(group, levi)
    u_orbit = {mul(mul(l, u), x) for l in wl for x in endo.H.weyl.elements}
    target = next((e for e in embedded if e.w_rep in u_orbit), None)
    if target is None:
        raise AssertionError("backward twist does not meet any embedded class")
    h_simples = [H.datum.simple_roots[pos] for pos in sorted(target.levi_h)]
    h_l_roots = {r for r in H.datum.roots
                 if h_simples and in_span(h_simples, r)}
    transporters = set(transporter_set(H, param_h.minimal_levi,
                                       target.levi_h))
    candidates = [hp for hp in H.relative.elements
                  if {mat_vec(hp, r) for r in cut_roots} == h_l_roots
                  and hp in transporters]
    if not candidates:
        raise AssertionError("no restandardizing element found on the "
                             "endoscopic side")
    matching = [v for v in {left_coset_rep_by_rows(H, target.levi_h, c)
                            for c in candidates}
                if indexing_forward(param, levi, endo, target, v)
                == left_coset_rep_by_rows(group, levi, w)]
    if not matching:
        raise AssertionError("backward construction does not invert forward")
    return target, min(matching)


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_indexing_backward_matches_vector_scan(pname, ename):
    from rk.endoscopy import indexing_backward
    param, endo, levis = _pair_levis(pname, ename)
    param_h, h = parameter_on_h(param, endo)
    checked = 0
    for levi in levis:
        embedded = enumerate_embedded(param, levi, endo)
        for w in param.group.relative.elements:
            got = _outcome(indexing_backward, param, levi, endo, w)
            assert got == _outcome(_scan_backward, param, levi, endo,
                                   param_h, h, embedded, w)
            checked += got[0] != "raised"
    assert checked


# ---------------------------------------------------------------------------
# the integer per-weight layer against the Fraction formulas

# the height bound of each pair in the eci benchmark workload
ECI_HEIGHTS = {("gl2-triv", "gl2-s1"): 6, ("gl2-triv", "gl2-sreg"): 6,
               ("sl2-triv", "sl2-s1"): 5,
               ("gl2x2-swap-triv", "gl2x2-swap-s1"): 3,
               ("gl3-triv", "gl3-s1"): 3, ("gl4-st2", "gl4-s1"): 2,
               ("gl4-st2", "gl4-splus"): 2, ("gl4-triv", "gl4-splus"): 2}


def _weight_exponent_fraction(basis, q, weight):
    """_weight_exponent's Fraction formula: a fresh integer extension of the
    weight, paired with the Fraction exponents mod 1."""
    from rk.lattice import mat, solve_integer
    ext = solve_integer(mat(list(basis)), len(q), tuple(weight))
    if ext is None:
        raise EndoscopyError("weight does not extend integrally")
    return sum(Fraction(e) * x for e, x in zip(ext, q)) % 1


def _twisted_basis(param, w):
    """The twisted center basis w.B."""
    from rk.lattice import mat_vec
    return tuple(mat_vec(w, u) for u in param.center_basis)


def _trace_fraction(param, levi, w, lam_w, module_dim, conj, q):
    """_trace_on_levi_module's Fraction formula, on the exponents q, for
    the element conj = w.g: extensions from the twisted basis w.B paired
    with conj.q."""
    from rk.lattice import dot, kernel_basis, mat, mat_vec
    cut = param.levi_cut(levi, w)
    basis = _twisted_basis(param, w)
    q_c = tuple(Fraction(x) % 1 for x in mat_vec(conj, q))
    for z in kernel_basis(mat(list(basis)), len(q)):
        if dot(z, q_c) % 1 != 0:
            raise EndoscopyError("conjugated torus element left the twisted "
                                 "parameter center")
    mul = param.group.relative.mul
    stab = {g for g in cut.component_elements
            if mat_vec(param.char_action(g), lam_w) == lam_w}
    total = Cyclo.zero()
    covered = set()
    for g in cut.component_elements:
        if g in covered:
            continue
        covered |= {mul(g, s) for s in stab}
        mu = mat_vec(param.char_action(g), lam_w)
        total = total + Cyclo.root_of_unity(
            _weight_exponent_fraction(basis, q_c, mu))
    return total * module_dim if module_dim != 1 else total


@pytest.mark.parametrize("ename", ["gl4-s1", "gl4-splus"])
def test_trace_over_orbit_matches_coset_representatives(ename):
    # the preset cuts never move their own weight, so the orbit sum is
    # checked on a centralizer with a component flip, cut to the whole
    # group, where weights with unequal last entries have two-point orbits
    from rk.endoscopy import _trace_on_levi_module
    from rk.lattice import mat_vec
    from rk.params import Parameter
    param = Parameter(presets.group("gl4"), frozenset(),
                      ((1, -1, 0, 0), (-1, 1, 0, 0)), ((1, -1, 0, 0),),
                      r_phi_words=((2,),), label="gl4 block+flip")
    endo = presets.endoscopy(ename)
    full = param.group.full_subset()
    cut = param.levi_cut(full)
    moved = 0
    for lam in itertools.product(range(-1, 3), repeat=param.dim):
        orbit = {mat_vec(param.char_action(g), lam)
                 for g in cut.component_elements}
        moved += len(orbit) > 1
        for g in param.wphi_elements:
            for dim in (1, 2):
                got = _trace_on_levi_module(param, full, cut.w, lam, dim,
                                            g, endo)
                assert got == _trace_fraction(param, full, cut.w, lam, dim,
                                              g, endo.s)
    assert moved


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_trace_and_weight_exponent_match_fraction_formulas(pname, ename):
    from rk.endoscopy import _trace_on_levi_module, _weight_exponent
    from rk.lattice import SmithSolver, mat, mat_vec
    from rk.packets import fiber_weight, transporter_double_cosets
    param, endo = presets.parameter(pname), presets.endoscopy(ename)
    mul = param.group.relative.mul
    rng = random.Random(pname + ename)
    traces = exponents = 0
    for rho in enumerate_rhos(param, ECI_HEIGHTS[pname, ename]):
        b = build_packet_member(param, rho).b
        check = s_in_levi_check(param, endo, b.levi)
        for e, x in check["coordinate_exponents"].items():
            assert x == _weight_exponent_fraction(param.center_basis,
                                                  endo.s, e)
        for w in transporter_double_cosets(param, b.levi):
            lam = fiber_weight(param, b, w)
            if lam is None:
                continue
            basis = _twisted_basis(param, w)
            solver = SmithSolver(mat(basis), param.group.datum.rank)
            for g in param.wphi_elements:
                conj = mul(w, g)
                for dim in (1, 2):
                    got = _outcome(_trace_on_levi_module, param, b.levi, w,
                                   lam, dim, g, endo)
                    assert got == _outcome(_trace_fraction, param, b.levi, w,
                                           lam, dim, conj, endo.s)
                    traces += 1
                q_c = tuple(Fraction(x) % 1 for x in mat_vec(conj, endo.s))
                q_num = mat_vec(conj, endo.s_num)
                weights = [mat_vec(param.char_action(c), lam)
                           for c in param.r_elements]
                weights.append(tuple(rng.randint(-3, 3) for _ in lam))
                for mu in weights:
                    got = _outcome(_weight_exponent, solver, q_num,
                                   endo.s_den, mu)
                    assert got == _outcome(_weight_exponent_fraction, basis,
                                           q_c, mu)
                    exponents += 1
    assert traces and exponents


def test_center_tests_reject_element_off_the_center():
    # s = (1/2, 0, 0, 0) pairs to 1/2 with (1, -1, 0, 0), which kills the
    # center of the minimal Levi {0, 2} of gl4-st2
    from rk.endoscopy import _trace_on_levi_module
    from rk.packets import fiber_weight
    endo = EndoscopicDatum(GL4ST.group, (Fraction(1, 2), 0, 0, 0))
    m = build_packet_member(GL4ST, rho_of(GL4ST, (1, 0)))
    w = m.w_class
    args = (GL4ST, m.levi, w, fiber_weight(GL4ST, m.b, w), 1)
    want = _outcome(_trace_fraction, *args, w, endo.s)
    assert want == ("raised", "EndoscopyError", "conjugated torus element "
                    "left the twisted parameter center")
    identity = GL4ST.group.relative.identity
    assert _outcome(_trace_on_levi_module, *args, identity, endo) == want
    with pytest.raises(EndoscopyError, match="split center of the minimal"):
        s_in_levi_check(GL4ST, endo, m.levi)


def test_weight_exponent_rejects_non_extendable_weight():
    # the basis rows (2, 0), (0, 1) and exponents (1/3, 1/2) = (2, 3) / 6
    from rk.endoscopy import _weight_exponent
    from rk.lattice import SmithSolver
    basis = [(2, 0), (0, 1)]
    q = (Fraction(1, 3), Fraction(1, 2))
    solver = SmithSolver(tuple(basis), 2)
    with pytest.raises(EndoscopyError, match="does not extend integrally"):
        _weight_exponent(solver, (2, 3), 6, (1, 0))
    with pytest.raises(EndoscopyError, match="does not extend integrally"):
        _weight_exponent_fraction(basis, q, (1, 0))
    assert _weight_exponent(solver, (2, 3), 6, (4, 3)) == Fraction(1, 6) \
        == _weight_exponent_fraction(basis, q, (4, 3))


# ---------------------------------------------------------------------------
# the backward table

def _admissible_twists(param, endo, levi, w_list):
    from rk.endoscopy import _admissible
    param_h, h = parameter_on_h(param, endo)
    mul = param.group.weyl.mul
    for w in w_list:
        u = mul(w, endo.H.relative.inverse[h])
        if u in _admissible(param, endo):
            yield w, u


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_backward_table_built_once_per_twist(pname, ename):
    from rk.endoscopy import indexing_backward
    param, endo, levis = _pair_levis(pname, ename)
    checked = 0
    for levi in levis:
        for w, u in _admissible_twists(param, endo, levi,
                                       param.group.relative.elements):
            first = _outcome(indexing_backward, param, levi, endo, w)
            if first[0] == "raised":
                continue
            table = param.memo["backward", endo, levi, u]
            again = indexing_backward(param, levi, endo, w)
            assert again == first and again[0] is table[0]
            assert param.memo["backward", endo, levi, u] is table
            checked += 1
    assert checked


def test_backward_table_failed_build_stores_nothing():
    # an emptied id -> class map leaves the twist without a class
    from rk.endoscopy import indexing_backward
    param, endo, levis = _pair_levis("gl4-st2", "gl4-splus")
    levi = levis[0]
    w, u = next(_admissible_twists(param, endo, levi,
                                   param.group.relative.elements))
    enumerate_embedded(param, levi, endo)
    param.memo["embedded", endo, levi][1].clear()
    for _ in range(2):
        with pytest.raises(AssertionError,
                           match="backward twist does not meet any embedded "
                                 "class"):
            indexing_backward(param, levi, endo, w)
        assert ("backward", endo, levi, u) not in param.memo


def _class_map_inputs():
    """(parameter name, datum name) for every ECI preset pair, and
    ("ell " + group, group + "-s1") for the elliptic parameter of every
    group preset against the trivial datum."""
    return ECI_PAIRS + tuple(("ell " + g, g + "-s1")
                             for g in presets.GROUP_NAMES)


@pytest.mark.parametrize("pname,ename", _class_map_inputs())
def test_stored_class_map_matches_the_double_coset_scan(pname, ename):
    # the id -> class map the backward table reads, against the lookup it
    # replaced: build W_L . u . W_H and scan the classes, for every
    # admissible u and every standard Levi over M
    from oracles import embedded_classes_by_double_coset
    from rk.endoscopy import _admissible
    param, endo = _coset_input(pname), presets.endoscopy(ename)
    index = param.group.weyl.index
    twists = sorted(_admissible(param, endo))
    checked = 0
    for levi in param.group.standard_levi_subsets():
        if not param.minimal_levi <= levi:
            continue
        wants = embedded_classes_by_double_coset(param, levi, endo, twists)
        class_of = param.memo["embedded", endo, levi][1]
        for u, want in zip(twists, wants):
            assert want is not None
            assert class_of[index[u]] is want
            checked += 1
    assert checked


# ---------------------------------------------------------------------------
# a warm identity runs no Smith form and no rational solve

@pytest.mark.parametrize("ename", ["gl4-s1", "gl4-splus"])
def test_warm_eci_runs_no_smith_form_or_rational_solve(ename, monkeypatch):
    import importlib
    import pkgutil

    import rk
    from rk import lattice
    param, endo = presets.parameter("gl4-st2"), presets.endoscopy(ename)
    bs = [build_packet_member(param, rho).b
          for rho in enumerate_rhos(param, 2)]

    def run():
        for b in bs:
            assert eci_both_sides(param, b, endo)["equal"]
            assert indexing_bijection_check(param, b.levi, endo)["pass"]

    run()
    calls = []
    names = ("_snf_raw", "solve_rational")
    modules = [importlib.import_module("rk." + m.name)
               for m in pkgutil.iter_modules(rk.__path__)]
    for name in names:
        orig = getattr(lattice, name)

        def counted(*args, _orig=orig, _name=name):
            calls.append(_name)
            return _orig(*args)
        for module in modules:
            if getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, counted)
    lattice.solve_integer(((1,),), 1, (1,))   # the counters are live
    lattice.solve_rational(((1,),), (1,))
    assert calls == list(names)
    del calls[:]
    run()
    assert calls == []


# ---------------------------------------------------------------------------
# the coset loops on element ids, against the matrix products they replace

@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_coset_ids_match_matrix_products(pname, ename):
    # (the left coset minima of the transporter sets are checked by
    # test_transporter_cosets_match_the_references)
    from oracles import (pairing_reps_by_mul, phi_cosets, phi_cosets_by_mul,
                         phi_tag_by_mul)
    from rk.endoscopy import _pairing_reps, _phi_tag
    from rk.weyl import transporter_set
    param, endo, levis = _pair_levis(pname, ename)
    param_h = parameter_on_h(param, endo)[0]
    for w in endo.H.relative.elements:
        assert _phi_tag(param_h, w) == phi_tag_by_mul(param_h, w)
    rel = param.group.relative
    cosets = 0
    for levi in levis:
        for w in transporter_set(param.group, param.minimal_levi, levi):
            got = {frozenset(rel.elements[i] for i in c)
                   for c in phi_cosets(param, levi, rel.index[w])}
            assert got == phi_cosets_by_mul(param, levi, w)
            cut = param.levi_cut(levi, w)
            assert _pairing_reps(param, cut) == pairing_reps_by_mul(param, cut)
            cosets += len(got)
    assert cosets


def _coset_inputs():
    """The parameters whose transporter cosets the oracles check, by name:
    every preset parameter, the gl3 parameter with several double cosets,
    the elliptic parameter of every group preset and the endoscopic
    parameter of every preset pair."""
    return (presets.PARAM_NAMES + ("gl3: 2+1",)
            + tuple("ell " + g for g in presets.GROUP_NAMES)
            + tuple("H " + p + " " + e for p, e in ECI_PAIRS))


def _coset_input(name):
    from oracles import gl3_one_root
    from rk.params import Parameter
    kind, _, rest = name.partition(" ")
    if kind == "ell":
        group = presets.group(rest)
        return Parameter(group, group.full_subset(), (), (),
                         label=rest + "-ell")
    if kind == "H":
        pname, ename = rest.split()
        return parameter_on_h(presets.parameter(pname),
                              presets.endoscopy(ename))[0]
    return gl3_one_root() if name == "gl3: 2+1" else presets.parameter(name)


@pytest.mark.parametrize("name", _coset_inputs())
def test_transporter_cosets_match_the_references(name):
    # on every standard Levi over M: the least elements against matrix
    # products, the counts against the right W_phi cosets as sets, both
    # partitions covering T, and the three routines the object replaced;
    # the matrix-product oracles run on at most 48 elements of each T
    from oracles import (coset_counts_by_double_cosets,
                         left_coset_rep_by_mul, left_coset_rep_by_rows,
                         phi_cosets, transporter_double_cosets_by_rows)
    from rk.lattice import mat_mul
    from rk.weyl import transporter_set
    param = _coset_input(name)
    group, rel = param.group, param.group.relative
    rng = random.Random(name)
    several = checked = 0
    for levi in group.standard_levi_subsets():
        if not param.minimal_levi <= levi:
            continue
        cosets = param.transporter_cosets(levi)
        assert param.transporter_cosets(set(levi)) is cosets
        trans = transporter_set(group, param.minimal_levi, levi)
        assert cosets.elements == trans
        assert list(cosets.left_rep) == list(cosets.rep) == \
            list(cosets.count) == list(trans)
        assert cosets.left_reps == tuple(sorted(set(cosets.left_rep.values())))
        assert set(cosets.left_reps) <= set(trans)
        assert (cosets.reps, cosets.rep) == \
            transporter_double_cosets_by_rows(param, levi)
        assert list(cosets.count.items()) == \
            coset_counts_by_double_cosets(param, levi)
        left = group.levi_weyl_elements(levi)
        for t in rng.sample(trans, min(48, len(trans))):
            assert cosets.left_rep[t] == left_coset_rep_by_mul(group, levi, t) \
                == left_coset_rep_by_rows(group, levi, t)
            assert cosets.rep[t] == min(mat_mul(mat_mul(x, t), f)
                                        for x in left
                                        for f in param.wphi_elements)
            assert cosets.count[t] == len(phi_cosets(param, levi,
                                                     rel.index[t]))
        several += len(cosets.reps) > 1
        checked += 1
    assert checked
    if name == "gl3: 2+1":
        assert several


@pytest.mark.parametrize("case", ["leaving", "uncovered"])
def test_left_coset_partition_is_certified(case, monkeypatch):
    # the left cosets W^rel_L . t get the checks of the double cosets, when
    # the object is built, and a failed build stores nothing
    param, levi = presets.parameter("gl4-st2"), frozenset({0, 2})
    outside = _outside_coset(param, levi)
    _coset_builds(monkeypatch, param,
                  (lambda ids, _n: ids | outside) if case == "leaving"
                  else (lambda _ids, _n: set()), left=True)
    message = "double coset leaves the transporter set" \
        if case == "leaving" else "do not cover the transporter set"
    for _ in range(2):
        with pytest.raises(AssertionError, match=message):
            param.transporter_cosets(levi)
        assert ("cosets", levi) not in param.memo


def test_warm_identity_builds_no_double_coset_and_still_counts(monkeypatch):
    # a warm identity reads the transporter cosets the first call built,
    # and the counting identity still reads the cut of every transporter
    # element: a cut whose Weyl group misses one element fails it
    import copy

    from rk.params import Parameter
    param, endo = presets.parameter("gl3-triv"), presets.endoscopy("gl3-s1")
    calls = _coset_builds(monkeypatch, param)
    b = build_packet_member(param, enumerate_rhos(param, 1)[0]).b
    assert eci_both_sides(param, b, endo)["equal"]
    assert calls
    del calls[:]
    assert eci_both_sides(param, b, endo)["equal"]
    assert calls == []
    assert isinstance(param.memo["forward", b.levi], dict)
    assert not _memo_keys(param, endo, "cosets") | \
        _memo_keys(param, endo, "forward")
    levi_cut = Parameter.levi_cut

    def short_cut(self, levi, w=None):
        cut = copy.copy(levi_cut(self, levi, w))
        cut.weyl_elements = cut.weyl_elements[:-1]
        return cut

    monkeypatch.setattr(Parameter, "levi_cut", short_cut)
    with pytest.raises(AssertionError, match="coset counting identity fails"):
        eci_both_sides(param, b, endo)
    assert calls == []


@pytest.mark.parametrize("pname", presets.PARAM_NAMES)
def test_coset_count_by_size_matches_the_coset_sets(pname):
    # the counting certificate divides |W^rel_L . w . W_phi| by |W_phi|;
    # the quotient is the number of right W_phi cosets formed as sets
    from oracles import phi_cosets
    from rk.weyl import transporter_set
    param = presets.parameter(pname)
    group, rel = param.group, param.group.relative
    checked = 0
    for levi in group.standard_levi_subsets():
        if not param.minimal_levi <= levi:
            continue
        for w in transporter_set(group, param.minimal_levi, levi):
            size = len(rel.double_coset(group.levi_context(levi).weyl_ids,
                                        rel.index[w], param.wphi_ids))
            count, rest = divmod(size, len(param.wphi_ids))
            assert rest == 0
            assert len(phi_cosets(param, levi, rel.index[w])) == count
            checked += 1
    assert checked


def test_coset_counting_certificate_catches_a_partial_coset(monkeypatch):
    # the certificate runs when the cosets are built: on a fresh parameter
    param, endo = presets.parameter("gl3-triv"), presets.endoscopy("gl3-s1")
    b = build_packet_member(param, enumerate_rhos(param, 1)[0]).b
    assert eci_both_sides(param, b, endo)["equal"]
    fresh = presets.parameter("gl3-triv")
    _coset_builds(monkeypatch, fresh, lambda ids, _n: set(sorted(ids)[1:]))
    with pytest.raises(AssertionError,
                       match="double coset is not a union of W_phi cosets"):
        eci_both_sides(fresh, b, endo)


@pytest.mark.parametrize("name", presets.PARAM_NAMES + ("gl3: 2+1",))
def test_coset_counts_match_the_per_element_certificate(name, monkeypatch):
    # every standard Levi over M, on a fresh parameter: the counts of the
    # one-build-per-double-coset walk equal those of the certificate that
    # builds the double coset of every transporter element; the first
    # identity builds one set per double coset and a warm one none, and
    # each reads the cut of every element
    from oracles import gl3_one_root, verify_counting_per_element
    from rk import endoscopy
    from rk.packets import transporter_double_cosets
    from rk.weyl import transporter_set
    param = gl3_one_root() if name == "gl3: 2+1" else \
        presets.parameter(name)
    builds = _coset_builds(monkeypatch, param)
    cuts = _counted(monkeypatch, param, "levi_cut")
    checked = 0
    for levi in param.group.standard_levi_subsets():
        if not param.minimal_levi <= levi:
            continue
        each = [(levi, w) for w in
                transporter_set(param.group, param.minimal_levi, levi)]
        del builds[:], cuts[:]
        endoscopy._verify_counting(param, levi)
        assert len(builds) == len(transporter_double_cosets(param, levi))
        assert cuts == each
        del builds[:], cuts[:]
        endoscopy._verify_counting(param, levi)
        assert builds == [] and cuts == each
        assert list(param.transporter_cosets(levi).count.items()) == \
            verify_counting_per_element(param, levi)
        checked += 1
    assert checked


def _coset_builds(monkeypatch, param, mutate=None, left=False):
    """Record the x of each double coset left . x . W_phi that the relative
    Weyl group of the parameter builds with `param.wphi_ids` itself as the
    right factor (the transporter double cosets; the embedded classes of a
    datum with W_H = W_phi pass other ids), or, given `left`, of each set
    left . x . 1 it builds (the left cosets of the transporter set, and
    every other one-sided coset), and, given `mutate`, return mutate(true
    set, number of this build) in place of the set."""
    from rk.lattice import MatrixGroup
    build = MatrixGroup.double_coset
    rel = param.group.relative
    calls = []

    def wrapper(group, left_ids, x, right):
        out = build(group, left_ids, x, right)
        one_sided = tuple(right) == (rel.index[rel.identity],)
        if group is not rel or \
                (not one_sided if left else right is not param.wphi_ids):
            return out
        calls.append(x)
        return mutate(out, len(calls)) if mutate else out
    monkeypatch.setattr(MatrixGroup, "double_coset", wrapper)
    return calls


def _outside_coset(param, levi):
    """Ids of one right W_phi coset of W^rel outside the transporter set."""
    from rk.weyl import transporter_set
    rel = param.group.relative
    inside = {rel.index[t] for t in
              transporter_set(param.group, param.minimal_levi, levi)}
    x = min(set(range(len(rel.elements))) - inside)
    return {rel.row(x)[f] for f in param.wphi_ids}


def test_coset_counting_certificate_catches_a_coset_leaving_the_transporters(
        monkeypatch):
    # the certificate runs when the cosets are built: on a fresh parameter
    from rk.endoscopy import _verify_counting
    _verify_counting(presets.parameter("gl4-st2"), frozenset({0, 2}))
    param, levi = presets.parameter("gl4-st2"), frozenset({0, 2})
    outside = _outside_coset(param, levi)
    _coset_builds(monkeypatch, param, lambda ids, _n: ids | outside)
    with pytest.raises(AssertionError,
                       match="double coset leaves the transporter set"):
        _verify_counting(param, levi)


def test_coset_counting_certificate_catches_overlapping_cosets(monkeypatch):
    # the first build returns one right W_phi coset of its double coset
    # (inside T, remainder 0); the next build, of an element that coset
    # missed, returns the whole double coset, which overlaps it
    from rk.endoscopy import _verify_counting
    param, levi = presets.parameter("gl4-st2"), frozenset({0, 2})
    row = param.group.relative.row

    def first_coset_only(ids, n):
        if n > 1:
            return ids
        return {row(min(ids))[f] for f in param.wphi_ids}
    _coset_builds(monkeypatch, param, first_coset_only)
    with pytest.raises(AssertionError, match="double cosets overlap"):
        _verify_counting(param, levi)


def test_coset_counting_certificate_catches_an_uncovered_transporter(
        monkeypatch):
    from rk.endoscopy import _verify_counting
    param, levi = presets.parameter("gl4-st2"), frozenset({0, 2})
    _coset_builds(monkeypatch, param, lambda _ids, _n: set())
    with pytest.raises(AssertionError, match="do not cover the transporter"):
        _verify_counting(param, levi)


def test_gl5_members_pass_and_build_one_double_coset_per_levi(monkeypatch):
    # past the presets: the four first height-1 members of the trivial gl5
    # parameter give an equal identity and a passing indexing check; the
    # first identity on a Levi builds the one double coset of its
    # transporter set once, not once per transporter element, and a warm
    # identity builds none
    from rk.packets import transporter_double_cosets
    from rk.params import Parameter
    from rk.weyl import transporter_set
    # as the gl4-triv preset: M the torus, every coroot a centralizer root
    g = presets.group("gl5")
    d = g.datum
    param = Parameter(g, frozenset(), d.coroots,
                      tuple(d.coroots[i] for i in d.positive_root_indices()),
                      label="gl5: 1+1+1+1+1")
    endo = presets.endoscopy("gl5-s1")
    calls = _coset_builds(monkeypatch, param)
    seen = set()
    for rho in enumerate_rhos(param, 1)[:4]:
        del calls[:]
        b = build_packet_member(param, rho).b
        assert eci_both_sides(param, b, endo)["equal"]
        assert len(calls) == (b.levi not in seen)
        assert len(transporter_double_cosets(param, b.levi)) == 1
        del calls[:]
        assert eci_both_sides(param, b, endo)["equal"]
        assert calls == []
        seen.add(b.levi)
        assert len(transporter_set(param.group, param.minimal_levi,
                                   b.levi)) == 120
        assert indexing_bijection_check(param, b.levi, endo)["pass"]


# ---------------------------------------------------------------------------
# the per-input memos of the warm identity against their unmemoized copies

def _memo_keys(param, endo, kind):
    return {k for k in _datum_entries(param, endo) if k[0] == kind}


def _counted(monkeypatch, module, name):
    """Wrap module.name so that each call appends its arguments."""
    calls = []
    orig = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return orig(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def _pair_bs(param, pname, ename):
    return [build_packet_member(param, rho).b
            for rho in enumerate_rhos(param, ECI_HEIGHTS[pname, ename])]


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_memoized_indexing_forward_matches_the_reference(pname, ename,
                                                          monkeypatch):
    from oracles import indexing_forward_unmemoized
    from rk import endoscopy
    param, endo, levis = _pair_levis(pname, ename)
    inputs = [(levi, emb, v) for levi in levis
              for emb in enumerate_embedded(param, levi, endo)
              for v in endo.H.relative.elements]
    computed = _counted(monkeypatch, endoscopy, "_forward_coset")
    rng = random.Random(pname + ename)
    stored, raised = set(), 0
    for _ in range(2):
        rng.shuffle(inputs)
        for levi, emb, v in inputs:
            args = (param, levi, endo, emb, v)
            got = _outcome(endoscopy.indexing_forward, *args)
            assert got == _outcome(indexing_forward_unmemoized, *args)
            if got[0] == "raised":
                raised += 1
            else:
                stored.add(("indexing", levi, emb.key(), v))
    assert stored
    assert _memo_keys(param, endo, "indexing") == stored
    # one computation per distinct input; a raise is computed again
    assert len(computed) == len(stored) + raised


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_memoized_trace_matches_the_reference(pname, ename, monkeypatch):
    from oracles import trace_on_levi_module_unmemoized
    from rk import endoscopy
    from rk.packets import fiber_weight, transporter_double_cosets
    param, endo = presets.parameter(pname), presets.endoscopy(ename)
    inputs = []
    for b in _pair_bs(param, pname, ename):
        for w in transporter_double_cosets(param, b.levi):
            lam = fiber_weight(param, b, w)
            if lam is not None:
                inputs += [(b.levi, w, lam, dim, g)
                           for g in param.wphi_elements for dim in (1, 2)]
    exponents = _counted(monkeypatch, endoscopy, "_weight_exponent")
    rng = random.Random(pname + ename)
    stored = set()
    for n in range(2):
        rng.shuffle(inputs)
        for levi, w, lam, dim, g in inputs:
            args = (param, levi, w, lam, dim, g, endo)
            assert endoscopy._trace_on_levi_module(*args) == \
                trace_on_levi_module_unmemoized(*args)
            stored.add(("trace", levi, w, lam, g))
        if n == 0:
            assert exponents
            del exponents[:]
    assert stored
    # the module dimension multiplies outside the memo, and the second
    # pass extends no weight
    assert _memo_keys(param, endo, "trace") == stored
    assert exponents == []


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_memoized_geometric_step_matches_the_reference(pname, ename,
                                                       monkeypatch):
    from oracles import geometric_step_unmemoized
    from rk import endoscopy
    param, endo = presets.parameter(pname), presets.endoscopy(ename)
    bs = _pair_bs(param, pname, ename)
    calls = _counted(monkeypatch, endoscopy, "jacquet_geometric_terms")
    rng = random.Random(pname + ename)
    keys = set()
    for _ in range(2):
        rng.shuffle(bs)
        for b in bs:
            result = eci_both_sides(param, b, endo)
            param_h = parameter_on_h(param, endo)[0]
            discarded = FormalDistribution()
            rows = []
            for emb in enumerate_embedded(param, b.levi, endo):
                terms, reg, expected = geometric_step_unmemoized(
                    endo, emb, param_h)
                nonregular = [(t, c) for t, c in terms.items()
                              if t.kind == "nonregular"]
                for t, c in nonregular:
                    discarded.add(t, c)
                rows.append({"embedded": sorted(emb.levi_h),
                             "regular_terms": expected,
                             "nonregular_terms": len(nonregular)})
                key = ("jacquet", emb.key())
                entry = _datum_entries(param, endo)[key]
                assert entry == (terms.items(), expected)
                assert isinstance(entry[0], tuple)
                keys.add(key)
            assert result["embedded"] == rows
            assert result["discarded_nonregular"] == discarded
    assert _memo_keys(param, endo, "jacquet") == keys
    assert sorted(emb.key() for _endo, emb, _param_h in calls) == \
        sorted(key[1] for key in keys)


def test_indexing_failure_stores_nothing(monkeypatch):
    from rk import endoscopy
    param, endo, levis = _pair_levis("gl4-st2", "gl4-splus")
    levi = levis[0]
    emb = enumerate_embedded(param, levi, endo)[0]
    v = endo.H.relative.identity
    monkeypatch.setattr(endoscopy, "_forward_table", lambda param, levi: {})
    for _ in range(2):
        with pytest.raises(AssertionError,
                           match="missed the transporter set"):
            endoscopy.indexing_forward(param, levi, endo, emb, v)
        assert _memo_keys(param, endo, "indexing") == set()


def test_trace_failure_stores_nothing():
    # the off-center s of test_center_tests_reject_element_off_the_center
    from rk.endoscopy import _trace_on_levi_module
    from rk.packets import fiber_weight
    param = presets.parameter("gl4-st2")
    endo = EndoscopicDatum(param.group, (Fraction(1, 2), 0, 0, 0))
    m = build_packet_member(param, rho_of(param, (1, 0)))
    lam = fiber_weight(param, m.b, m.w_class)
    for _ in range(2):
        with pytest.raises(EndoscopyError, match="left the twisted"):
            _trace_on_levi_module(param, m.levi, m.w_class, lam, 1,
                                  param.group.relative.identity, endo)
        assert _memo_keys(param, endo, "trace") == set()


def test_trace_center_check_fires_on_a_hit(monkeypatch):
    from rk.endoscopy import _trace_on_levi_module
    from rk.packets import fiber_weight
    param, endo = presets.parameter("gl2-triv"), presets.endoscopy("gl2-sreg")
    m = build_packet_member(param, rho_of(param, (1, 0)))
    args = (param, m.levi, m.w_class, fiber_weight(param, m.b, m.w_class), 1,
            param.group.relative.identity, endo)
    _trace_on_levi_module(*args)
    assert len(_memo_keys(param, endo, "trace")) == 1
    # (0, 1) pairs to 1/2 with s = (0, 1/2)
    solver = param.ctx_M.dual_center_solver
    monkeypatch.setattr(solver, "kernel", solver.kernel + ((0, 1),))
    with pytest.raises(EndoscopyError, match="left the twisted"):
        _trace_on_levi_module(*args)


def test_regular_count_check_fires_on_a_warm_call(monkeypatch):
    # the warm identity reads the endoscopic left cosets the first built:
    # with the last of each cut off, the count disagrees
    param, endo = presets.parameter("gl4-st2"), presets.endoscopy("gl4-s1")
    bs = _pair_bs(param, "gl4-st2", "gl4-s1")
    for b in bs:
        assert eci_both_sides(param, b, endo)["equal"]
    param_h = parameter_on_h(param, endo)[0]
    for key, cosets in param_h.memo.items():
        if key[0] == "cosets" and len(cosets.left_reps) > 1:
            monkeypatch.setattr(cosets, "left_reps", cosets.left_reps[:-1])
    raised = 0
    for b in bs:
        try:
            eci_both_sides(param, b, endo)
        except AssertionError as exc:
            assert "regular-part count disagrees" in str(exc)
            raised += 1
    assert raised


def _described(param, b, endo):
    result = eci_both_sides(param, b, endo)
    described = {k: v.describe() if isinstance(v, FormalDistribution) else v
                 for k, v in result.items()}
    return described, indexing_bijection_check(param, b.levi, endo)


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_warm_results_equal_cold_results(pname, ename):
    endo = presets.endoscopy(ename)
    warm = presets.parameter(pname)
    rhos = enumerate_rhos(warm, ECI_HEIGHTS[pname, ename])
    cold = []
    for rho in rhos:
        fresh = presets.parameter(pname)
        cold.append(_described(fresh, build_packet_member(fresh, rho).b,
                               endo))
    bs = [build_packet_member(warm, rho).b for rho in rhos]
    first = [_described(warm, b, endo) for b in bs]
    for b in reversed(bs):
        _described(warm, b, endo)
    assert [_described(warm, b, endo) for b in bs] == first == cold


def test_one_parameter_serves_two_data():
    # one gl4-st2 parameter runs both gl4 data in turn, twice: each
    # answer is the one a fresh parameter gives for that datum alone
    pname = "gl4-st2"
    warm = presets.parameter(pname)
    rhos = enumerate_rhos(warm, 2)
    for _ in range(2):
        for ename in ("gl4-s1", "gl4-splus"):
            endo = presets.endoscopy(ename)
            for rho in rhos:
                fresh = presets.parameter(pname)
                assert _described(warm, build_packet_member(warm, rho).b,
                                  endo) == \
                    _described(fresh, build_packet_member(fresh, rho).b, endo)


# ---------------------------------------------------------------------------
# the membership-only s test, the double coset and the Levi-token memo

@pytest.mark.parametrize("pname", presets.PARAM_NAMES)
def test_s_in_levi_sample_raises_only_off_the_levi(pname):
    # on a saturated center basis the coordinate sample never raises, so
    # the membership helper alone keeps every exception of the full check
    from rk.cli import _group_shape
    from rk.endoscopy import _check_s_in_levi
    checked = 0
    for ename in presets.ENDO_NAMES:
        param, endo = presets.parameter(pname), presets.endoscopy(ename)
        if _group_shape(endo.group) != _group_shape(param.group):
            continue
        for levi in param.group.standard_levi_subsets():
            full = _outcome(s_in_levi_check, param, endo, levi)
            member = _outcome(_check_s_in_levi, param, endo, frozenset(levi))
            if param.minimal_levi <= levi:
                assert member is None
                assert len(full["coordinate_exponents"]) == param.dim
            else:
                assert member == full == ("raised", "EndoscopyError",
                                          "the parameter does not factor "
                                          "through the Levi")
            checked += 1
    assert checked


@pytest.mark.parametrize("pname", presets.PARAM_NAMES)
def test_double_coset_ids_match_the_comprehension(pname):
    from oracles import double_coset_ids_by_comprehension
    from rk.weyl import transporter_set
    param = presets.parameter(pname)
    group, rel = param.group, param.group.relative
    checked = 0
    for levi in group.standard_levi_subsets():
        if not param.minimal_levi <= levi:
            continue
        for w in transporter_set(group, param.minimal_levi, levi):
            ids = group.levi_context(levi).weyl_ids
            assert rel.double_coset(ids, rel.index[w], param.wphi_ids) == \
                double_coset_ids_by_comprehension(param, levi, rel.index[w])
            checked += 1
    assert checked


SIGN = "e(G_b)"


def _token_dist(items):
    dist = FormalDistribution()
    for term, coeff in items:
        dist.add(term, coeff)
    return dist


@pytest.mark.parametrize("pname,ename", ECI_PAIRS)
def test_memoized_levi_token_matches_the_reference(pname, ename, monkeypatch):
    from oracles import expand_levi_token_unmemoized
    from rk import endoscopy
    from rk.packets import fiber_weight
    from rk.weyl import transporter_set
    param, endo = presets.parameter(pname), presets.endoscopy(ename)
    bs = _pair_bs(param, pname, ename)
    inputs = [(b, w) for b in bs
              for w in transporter_set(param.group, param.minimal_levi,
                                       b.levi)]
    # the twists off the transporter set whose weight is not integral
    # (gl4-st2 has some) give empty tokens
    inputs += [(b, w) for b in bs for w in param.group.relative.elements
               if fiber_weight(param, b, w) is None]
    computed = _counted(monkeypatch, endoscopy, "_levi_token_items")
    rng = random.Random(pname + ename)
    stored = set()
    for _ in range(2):
        rng.shuffle(inputs)
        for b, w in inputs:
            got, want = FormalDistribution(), FormalDistribution()
            endoscopy._expand_levi_token(param, b, w, endo, got, SIGN)
            expand_levi_token_unmemoized(param, b, w, endo, want, SIGN)
            assert got == want and got.items() == want.items()
            entry = param.memo["token", endo, b, w, SIGN]
            assert isinstance(entry, tuple)
            assert _token_dist(entry) == want
            if fiber_weight(param, b, w) is None:
                assert entry == ()
            stored.add(("token", b, w, SIGN))
    assert any(_datum_entries(param, endo)[key] for key in stored)
    assert _memo_keys(param, endo, "token") == stored
    # one expansion per distinct (b, w)
    assert len(computed) == len(stored)


def test_levi_token_failure_stores_nothing(monkeypatch):
    # the descent certificate fails on a miss of the forward map's memo,
    # as in test_packets.test_descent_certificate_fires_on_a_miss
    from oracles import build_packet_member_unmemoized
    from rk.endoscopy import _expand_levi_token
    from rk.packets import DescentError
    from rk.weyl import chamber_locate
    param, endo = presets.parameter("gl2-triv"), presets.endoscopy("gl2-s1")
    rho = rho_of(param, (1, 0))
    m = build_packet_member_unmemoized(param, rho)
    witness = chamber_locate(param.group, param.ctx_M.alpha((1, 0)))
    cut = param.levi_cut(witness.levi, witness.matrix)
    monkeypatch.setattr(cut, "descent_coords", ((1, 0),))
    for _ in range(2):
        dist = FormalDistribution()
        with pytest.raises(DescentError, match="derived-intersection"):
            _expand_levi_token(param, m.b, m.w_class, endo, dist, SIGN)
        assert _memo_keys(param, endo, "token") == set()
    monkeypatch.undo()
    _expand_levi_token(param, m.b, m.w_class, endo, dist, SIGN)
    assert len(_memo_keys(param, endo, "token")) == 1


@pytest.mark.parametrize("case", ["descent", "center", "indexing"])
def test_per_call_checks_fire_on_a_warm_identity(case, monkeypatch):
    import rk.packets
    from rk import endoscopy
    from rk.packets import DescentError
    param = presets.parameter("gl4-st2")
    endo = presets.endoscopy("gl4-splus")
    bs = _pair_bs(param, "gl4-st2", "gl4-splus")
    for b in bs:
        assert eci_both_sides(param, b, endo)["equal"]
    warm = _described(param, bs[0], endo)
    assert len(_memo_keys(param, endo, "token")) > 1
    if case == "descent":
        # the group side runs the forward map on every fiber member
        def broken(param, cut, lam):
            raise DescentError("descent certificate broken")
        monkeypatch.setattr(rk.packets, "_certify_descent", broken)
        with pytest.raises(DescentError, match="certificate broken"):
            eci_both_sides(param, bs[0], endo)
    elif case == "center":
        # (0, 0, 1, 0) pairs to 1/2 with s = (0, 0, 1/2, 1/2); the
        # membership test of regular_pairing fires before the trace's own
        # center test
        solver = param.ctx_M.dual_center_solver
        monkeypatch.setattr(solver, "kernel",
                            solver.kernel + ((0, 0, 1, 0),))
        with pytest.raises(EndoscopyError,
                           match="split center of the minimal dual Levi"):
            eci_both_sides(param, bs[0], endo)
    else:
        # the indexing construction runs once per input: an emptied table
        # leaves the warm identity as it was, and an input the warm pass
        # did not store still raises and stores nothing
        monkeypatch.setattr(endoscopy, "_forward_table",
                            lambda param, levi: {})
        assert _described(param, bs[0], endo) == warm
        stored = _memo_keys(param, endo, "indexing")
        fresh = [(levi, emb, v) for levi in {b.levi for b in bs}
                 for emb in enumerate_embedded(param, levi, endo)
                 for v in endo.H.relative.elements
                 if ("indexing", levi, emb.key(), v) not in stored]
        assert fresh
        levi, emb, v = fresh[0]
        for _ in range(2):
            with pytest.raises(AssertionError,
                               match="missed the transporter set"):
                endoscopy.indexing_forward(param, levi, endo, emb, v)
            assert _memo_keys(param, endo, "indexing") == stored
    monkeypatch.undo()
    assert _described(param, bs[0], endo) == warm
