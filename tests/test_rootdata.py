"""Based root data, duality, Weyl groups, relative structure, Levi data."""

from fractions import Fraction

import pytest

from rk import presets
from rk.lattice import (
    FgaElement,
    mat,
    mat_contragredient,
    mat_identity,
    mat_inverse_int,
    mat_mul,
    mat_transpose,
    mat_vec,
    dot,
    solve_rational,
)
from rk.rootdata import (
    BasedRootDatum,
    DatumError,
    GaloisAction,
    ReductiveGroup,
    dual_datum,
    levi_data,
    relative_weyl,
    standard_parabolics,
    weyl_group,
)


def test_construction_rejects_bad_pairing():
    with pytest.raises(DatumError):
        BasedRootDatum(1, ((1,),), ((1,),), (0,))


def test_construction_rejects_missing_orbit_roots():
    # claim only the simple roots of gl3: the Weyl orbit check must fail
    with pytest.raises(DatumError):
        BasedRootDatum(3, ((1, -1, 0), (0, 1, -1)),
                       ((1, -1, 0), (0, 1, -1)), (0, 1))


def test_dual_gl_self():
    g = presets.group("gl3")
    dd, _da = dual_datum(g.datum, g.galois)
    assert set(dd.roots) == set(g.datum.roots)


def test_dual_sl2_pgl2_pi1_oracle():
    # the dual of the simply connected rank-1 datum is the adjoint one;
    # oracle: cokernel of the coroot inclusion (SNF of the Cartan matrix)
    sl2 = presets.group("sl2")
    dd, da = dual_datum(sl2.datum, sl2.galois)
    dual_group = ReductiveGroup(dd, da)
    q = dual_group.levi_context(dual_group.full_subset()).dual_center_characters
    assert q.free_rank == 0 and q.torsion == (2,)
    pgl2 = presets.group("pgl2")
    assert set(zip(dd.roots, dd.coroots)) == \
        set(zip(pgl2.datum.roots, pgl2.datum.coroots))


def test_dual_b2_c2_cartan_transpose_oracle():
    sp4 = presets.group("sp4")  # type C2
    dd, _ = dual_datum(sp4.datum, sp4.galois)
    assert mat_transpose(sp4.datum.cartan_matrix()) == \
        BasedRootDatum(dd.rank, dd.roots, dd.coroots, dd.simple_indices) \
        .cartan_matrix()


def test_dual_is_involution():
    for name in ("gl2", "sl3", "sp4", "so6"):
        g = presets.group(name)
        dd, da = dual_datum(g.datum, g.galois)
        back, _ = dual_datum(dd, da)
        assert set(zip(back.roots, back.coroots)) == \
            set(zip(g.datum.roots, g.datum.coroots))


@pytest.mark.parametrize("name,order", [
    ("gl2", 2), ("gl3", 6), ("gl4", 24), ("sl4", 24),
    ("sp4", 8), ("so4", 4), ("so6", 24), ("gl6", 720),
])
def test_weyl_orders(name, order):
    assert len(presets.group(name).weyl) == order


def test_weyl_b2_dihedral_oracle():
    # |W(B2)| = 2^2 * 2!
    assert len(weyl_group(presets.group("sp4").datum)) == (2 ** 2) * 2


def test_weyl_reduced_words():
    w = presets.group("gl3").weyl
    for m in w.elements:
        word = w.word(m)
        assert w.from_word(word) == m


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_weyl_tables_match_fraction_inverse(name):
    # oracle: the Fraction Gauss-Jordan inverse of every element
    g = presets.group(name)
    for w in (g.weyl, g.relative):
        assert set(w.inverse) == set(w.contragredient) == set(w.elements)
        for m in w.elements:
            inv = w.inverse[m]
            assert inv == mat_inverse_int(m)
            assert mat_mul(m, inv) == w.identity
            assert w.contragredient[m] == mat_contragredient(m)
        for m in g.relative.elements:
            assert g.cochar_matrix(m) == mat_contragredient(m)


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_levi_weyl_elements_match_definition(name):
    # oracle: relative elements fixing the split center pointwise, with the
    # cocharacter action recomputed by Fraction inversion
    g = presets.group(name)
    dual = {m: mat_contragredient(m) for m in g.relative.elements}
    for subset in g.standard_levi_subsets():
        basis = g.levi_context(subset).split_center_basis
        brute = tuple(m for m in g.relative.elements
                      if all(mat_vec(dual[m], y) == y for y in basis))
        assert g.levi_weyl_elements(subset) == brute


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_positive_roots_match_sign_solve(name):
    datum = presets.group(name).datum
    simples = list(datum.simple_roots)
    brute = tuple(i for i, r in enumerate(datum.roots)
                  if all(c >= 0 for c in solve_rational(simples, r)))
    assert datum.positive_root_indices() == brute
    assert datum.positive_root_set == frozenset(brute)
    dual = datum.dual()
    assert dual.positive_root_indices() == brute


def test_relative_trivial_galois_is_full():
    g = presets.group("gl4")
    assert set(relative_weyl(g).elements) == set(g.weyl.elements)


def test_relative_swap_brute_oracle():
    g = presets.group("gl2x2-swap")
    # brute force: Weyl elements commuting with the swap
    swap = g.galois.char_generators[0]
    fixed = [m for m in g.weyl.elements
             if mat_mul(swap, m) == mat_mul(m, swap)]
    assert len(fixed) == 2
    assert set(relative_weyl(g).elements) == set(fixed)


def test_relative_u3_brute_oracle():
    g = presets.group("u3")
    flip = g.galois.char_generators[0]
    fixed = [m for m in g.weyl.elements
             if mat_mul(flip, m) == mat_mul(m, flip)]
    assert len(relative_weyl(g)) == len(fixed) == 2


def test_relative_faithful_on_fixed_space():
    for name in ("gl3", "gl2x2-swap", "u3", "sp4"):
        g = presets.group(name)
        basis = g.fixed_cochar_basis
        for m in g.relative.elements:
            if m == g.relative.identity:
                continue
            moved = [mat_vec(g.cochar_matrix(m), y) for y in basis]
            assert moved != list(basis)


# ---------------------------------------------------------------------------
# Levi data

def test_levi_data_gl2_full():
    g = presets.group("gl2")
    ctx = g.levi_context(g.full_subset())
    kappa = ctx.dual_center_characters.element([1], [])
    assert ctx.newton_point(kappa) == (Fraction(1, 2), Fraction(1, 2))


def test_levi_data_torus_identity():
    g = presets.group("gl3")
    ctx = g.levi_context(frozenset())
    for v in ((1, 0, 0), (2, -1, 3)):
        kappa = ctx.dual_center_characters.element_from_ambient(v)
        assert ctx.newton_point(kappa) == tuple(Fraction(x) for x in v)


def test_levi_data_gl3_block():
    g = presets.group("gl3")
    ctx = g.levi_context(frozenset({0}))
    kappa = ctx.dual_center_characters.element_from_ambient((1, 0, 5))
    assert ctx.newton_point(kappa) == \
        (Fraction(1, 2), Fraction(1, 2), Fraction(5))


def test_alpha_section_identity():
    # alpha_L composed with the restriction map is the identity
    for name in ("gl3", "gl4", "sp4", "gl2x2-swap", "u3"):
        g = presets.group(name)
        for subset in g.standard_levi_subsets():
            ctx = g.levi_context(subset)
            for j in range(ctx.dim):
                c = tuple(Fraction(1 if i == j else 0)
                          for i in range(ctx.dim))
                point = ctx.alpha(c)
                assert ctx.alpha_inv(point) == c


def test_levi_functoriality_nested():
    # pushing a dual-center character along nested Levis commutes with
    # restriction of the Newton functional
    for name in ("gl3", "gl4"):
        g = presets.group(name)
        subsets = g.standard_levi_subsets()
        for small in subsets:
            for big in subsets:
                if not (small < big):
                    continue
                ctx_s = g.levi_context(small)
                ctx_b = g.levi_context(big)
                from rk.lattice import map_between
                kappa = ctx_s.dual_center_characters.element_from_ambient(
                    tuple(range(1, g.datum.rank + 1)))
                pushed = map_between(ctx_s.dual_center_characters,
                                     ctx_b.dual_center_characters, kappa)
                f_direct = ctx_b.functional_of_kappa(pushed)
                # restrict the small functional to the big center basis
                lift = ctx_s.dual_center_characters.section(kappa)
                f_restricted = ctx_b.restrict_ambient(lift)
                assert f_direct == f_restricted


def test_levi_data_surface_shape():
    g = presets.group("gl2")
    split, dual_split, q, alpha = levi_data(g, g.full_subset())
    assert len(split) == len(dual_split) == 1
    assert q.free_rank == 1
    assert [list(r) for r in alpha] == [[Fraction(1, 2)], [Fraction(1, 2)]]


def test_levi_rejects_non_stable_subset():
    g = presets.group("gl2x2-swap")
    with pytest.raises(DatumError):
        g.levi_context(frozenset({0}))


# ---------------------------------------------------------------------------
# standard parabolics

def test_parabolics_gl2():
    assert len(standard_parabolics(presets.group("gl2"))) == 2


def test_parabolics_gl3():
    assert len(standard_parabolics(presets.group("gl3"))) == 4


def test_parabolics_gl4():
    assert len(standard_parabolics(presets.group("gl4"))) == 8


def test_parabolics_swap_direct_enumeration_oracle():
    # direct enumeration: of the 4 simple subsets of gl2x2, exactly the
    # empty and the full one are stable under the factor swap
    g = presets.group("gl2x2-swap")
    swap = g.galois.char_generators[0]
    stable = []
    simples = g.datum.simple_roots
    for bits in range(4):
        subset = {i for i in range(2) if bits >> i & 1}
        moved = {g.datum.root_index(mat_vec(swap, simples[i])) for i in subset}
        original = {g.datum.simple_indices[i] for i in subset}
        if moved == original:
            stable.append(frozenset(subset))
    assert sorted(map(sorted, stable)) == [[], [0, 1]]
    assert sorted(map(sorted, standard_parabolics(g))) == [[], [0, 1]]


def test_parabolics_include_extremes():
    for name in ("gl3", "u3", "sp4"):
        g = presets.group(name)
        subs = standard_parabolics(g)
        assert frozenset() in subs and g.full_subset() in subs


def test_levi_functoriality_more_presets():
    from rk.lattice import map_between
    for name in ("sp4", "gl2x2-swap", "u3"):
        g = presets.group(name)
        subsets = g.standard_levi_subsets()
        for small in subsets:
            for big in subsets:
                if not (small < big):
                    continue
                ctx_s = g.levi_context(small)
                ctx_b = g.levi_context(big)
                kappa = ctx_s.dual_center_characters.element_from_ambient(
                    tuple(range(1, g.datum.rank + 1)))
                pushed = map_between(ctx_s.dual_center_characters,
                                     ctx_b.dual_center_characters, kappa)
                lift = ctx_s.dual_center_characters.section(kappa)
                assert ctx_b.functional_of_kappa(pushed) == \
                    ctx_b.restrict_ambient(lift)
