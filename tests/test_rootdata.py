"""Based root data, duality, Weyl groups, relative structure, Levi data."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from rk import presets
from rk.files import resolve_group
from rk.lattice import (
    FgaElement,
    closure,
    mat,
    mat_contragredient,
    mat_identity,
    mat_inverse,
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
    LeviContext,
    ReductiveGroup,
    WeylGroup,
    dual_datum,
    weyl_group,
)

from oracles import cut_disconnected_datum, levi_data


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


def _cartan_matrix(datum):
    return mat([[dot(a, c) for c in datum.simple_coroots]
                for a in datum.simple_roots])


def test_dual_b2_c2_cartan_transpose_oracle():
    sp4 = presets.group("sp4")  # type C2
    dd, _ = dual_datum(sp4.datum, sp4.galois)
    assert mat_transpose(_cartan_matrix(sp4.datum)) == _cartan_matrix(
        BasedRootDatum(dd.rank, dd.roots, dd.coroots, dd.simple_indices))


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
            assert g.weyl.contragredient[m] == mat_contragredient(m)


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_weyl_mul_matches_mat_mul(name):
    # oracle: the matrix product, on every pair (a seeded sample for gl6)
    g = presets.group(name)
    for w in (g.weyl, g.relative):
        pairs = list(itertools.product(w.elements, repeat=2))
        if len(pairs) > 20000:
            pairs = random.Random(len(pairs)).sample(pairs, 3000)
        for a, b in pairs:
            assert w.mul(a, b) == mat_mul(a, b)


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_weyl_permutations_are_root_images(name):
    g = presets.group(name)
    d = g.datum
    for w in (g.weyl, g.relative):
        assert set(w.perm) == set(w.elements)
        for m in w.elements:
            assert w.perm[m] == tuple(d.root_index(mat_vec(m, r))
                                      for r in d.roots)


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_weyl_closure_matches_matrix_closure(name):
    # oracle: the matrix-keyed breadth-first closure, which fixes both the
    # elements and the reduced words the reports print
    g = presets.group(name)
    for w in (g.weyl, g.relative):
        words = closure(w.generators)[1] if w.generators else {w.identity: ()}
        assert w.words == words
        assert all(w.from_word(word) == m for m, word in words.items())


def test_weyl_group_rejects_generator_off_the_roots():
    roots = presets.group("gl2").datum.roots
    with pytest.raises(DatumError):
        WeylGroup([((2, 0), (0, 1))], 2, roots)


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


# ---------------------------------------------------------------------------
# simple-root coordinates from the orbit tree against the Fraction solve

def _group_data(name):
    g = presets.group(name)
    return [g.datum, dual_datum(g.datum, g.galois)[0]]


def _parameter_data(name):
    # the centralizer datum and the component datum of the cut at every
    # standard Levi over the minimal one
    param = presets.parameter(name)
    return [param.s_datum] + [
        cut_disconnected_datum(param.levi_cut(levi)).component
        for levi in param.group.standard_levi_subsets()
        if levi >= param.minimal_levi]


def _endoscopy_data(name):
    endo = presets.endoscopy(name)
    return [endo.H.datum, dual_datum(endo.H.datum, endo.H.galois)[0]]


def _disconnected_data(name):
    return [presets.disconnected(name).component]


_PRESET_DATA = {"group": _group_data, "parameter": _parameter_data,
                "endoscopy": _endoscopy_data,
                "disconnected": _disconnected_data}


@pytest.mark.parametrize("family,name", [
    ("group", n) for n in presets.GROUP_NAMES] + [
    ("parameter", n) for n in presets.PARAM_NAMES] + [
    ("endoscopy", n) for n in presets.ENDO_NAMES] + [
    ("disconnected", n) for n in presets.DISCONNECTED_NAMES])
def test_root_coordinates_match_sign_solve(family, name):
    for datum in _PRESET_DATA[family](name):
        simples = list(datum.simple_roots)
        sols = [solve_rational(simples, r) for r in datum.roots]
        assert all(sol is not None for sol in sols)
        assert tuple(datum.support(i) for i in range(len(sols))) == tuple(
            frozenset(p for p, c in enumerate(sol) if c) for sol in sols)
        assert datum.positive_root_indices() == tuple(
            i for i, sol in enumerate(sols) if all(c >= 0 for c in sol))


def test_dependent_simple_roots_are_rejected(tmp_path):
    # (2) and (-2) both simple pass the Cartan and orbit checks; accepted,
    # both roots would be positive and the chamber ascent would not end
    args = (1, ((2,), (-2,)), ((1,), (-1,)), (0, 1))
    with pytest.raises(DatumError, match="^simple roots are linearly "
                                         "dependent$"):
        BasedRootDatum(*args)
    path = tmp_path / "bad.yaml"
    path.write_text("kind: group\nname: bad\nrank: 1\nroots: [[2], [-2]]\n"
                    "coroots: [[1], [-1]]\nsimple: [0, 1]\n", encoding="utf-8")
    with pytest.raises(DatumError, match="^simple roots are linearly "
                                         "dependent$"):
        resolve_group(str(path))


def test_relative_trivial_galois_is_full():
    g = presets.group("gl4")
    assert set(g.relative.elements) == set(g.weyl.elements)


def test_relative_swap_brute_oracle():
    g = presets.group("gl2x2-swap")
    # brute force: Weyl elements commuting with the swap
    swap = g.galois.char_generators[0]
    fixed = [m for m in g.weyl.elements
             if mat_mul(swap, m) == mat_mul(m, swap)]
    assert len(fixed) == 2
    assert set(g.relative.elements) == set(fixed)


def test_relative_u3_brute_oracle():
    g = presets.group("u3")
    flip = g.galois.char_generators[0]
    fixed = [m for m in g.weyl.elements
             if mat_mul(flip, m) == mat_mul(m, flip)]
    assert len(g.relative) == len(fixed) == 2


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_relative_matches_commutation_scan(name):
    # oracle: absolute Weyl elements whose matrix commutes with every
    # Galois generator
    g = presets.group(name)
    fixed = {m for m in g.weyl.elements
             if all(mat_mul(s, m) == mat_mul(m, s)
                    for s in g.galois.char_generators)}
    assert set(g.relative.elements) == fixed


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_relative_shares_the_split_closure(name):
    # singleton simple orbits make the restricted reflections the simple
    # reflections in order, so `relative` is `weyl` itself; either way it
    # equals a separate closure of the restricted reflections
    g = presets.group(name)
    separate = WeylGroup(g.restricted_reflections, g.datum.rank,
                         g.datum.roots)
    split = all(len(orb) == 1 for orb in g.simple_orbits)
    assert split == (name not in ("gl2x2-swap", "u3"))
    assert (g.relative is g.weyl) == split
    assert g.relative.words == separate.words
    assert g.relative.elements == separate.elements


@pytest.mark.parametrize("name", ["gl3", "u3"])
def test_relative_certificate_rejects_wrong_reflections(name, monkeypatch):
    # gl3 with one simple reflection closes a separate group that is too
    # small; u3 with both of its absolute simple reflections takes the
    # shared closure, which is larger than the Galois-fixed subgroup
    g = presets.group(name)
    wrong = g.weyl.generators[:1] if name == "gl3" else g.weyl.generators
    monkeypatch.setattr(ReductiveGroup, "restricted_reflections",
                        property(lambda self: wrong))
    with pytest.raises(AssertionError, match="restricted reflections do not "
                                             "generate"):
        g.relative


def test_relative_faithful_on_fixed_space():
    for name in ("gl3", "gl2x2-swap", "u3", "sp4"):
        g = presets.group(name)
        basis = g.fixed_cochar_basis
        for m in g.relative.elements:
            if m == g.relative.identity:
                continue
            moved = [mat_vec(g.weyl.contragredient[m], y) for y in basis]
            assert moved != list(basis)


# ---------------------------------------------------------------------------
# the integer chamber kernel against the Fraction route

def _integer_point_reference(x):
    x = [Fraction(v) for v in x]
    d = math.lcm(*(v.denominator for v in x))
    return d, tuple(v.numerator * (d // v.denominator) for v in x)


def _simple_pairing_reference(group, x):
    return tuple(sum(a * b for a, b in zip(group.datum.simple_roots[pos], x))
                 for pos in range(len(group.datum.simple_indices)))


def _typed(values):
    return [(type(v), v) for v in values]


def _kernel_points(group, rng):
    """Integer, rational and mixed points, relative or not, and a rational
    relative point from the fixed cocharacter basis."""
    n = group.datum.rank

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    points = [tuple(rng.randint(-5, 5) for _ in range(n)),
              tuple(rational() for _ in range(n)),
              tuple(rational() if i % 2 else rng.randint(-5, 5)
                    for i in range(n)),
              tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))]
    x = (Fraction(0),) * n
    for y in group.fixed_cochar_basis:
        c = rational()
        x = tuple(p + c * v for p, v in zip(x, y))
    return points + [x]


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_simple_pairing_matches_the_fraction_route(name):
    g = presets.group(name)
    rng = random.Random(name)
    points = [p for _ in range(8) for p in _kernel_points(g, rng)]
    for x in points:
        assert _typed(g.simple_pairing(x)) == \
            _typed(_simple_pairing_reference(g, x))
        (d, xi), (ref_d, ref_xi) = g.integer_point(x), \
            _integer_point_reference(x)
        assert (d, _typed(xi)) == (ref_d, _typed(ref_xi))
    relative = [g.is_relative_point(x) for x in points]
    assert any(relative)
    if len(g.fixed_cochar_basis) < g.datum.rank:   # points off A_T exist
        assert not all(relative)


def test_integer_point_converts_other_types_like_fraction():
    for x in [(0.5, Decimal("1.25"), "2/3"), (True, Fraction(3, 4), -2), ()]:
        assert ReductiveGroup.integer_point(x) == _integer_point_reference(x)
    for bad in [("x",), (None,), (1, float("nan"))]:
        with pytest.raises((TypeError, ValueError)) as got:
            ReductiveGroup.integer_point(bad)
        with pytest.raises((TypeError, ValueError)) as want:
            _integer_point_reference(bad)
        assert (got.type, str(got.value)) == (want.type, str(want.value))
    g = presets.group("gl3")
    with pytest.raises(ValueError, match="dot: length mismatch 3 vs 2"):
        g.simple_pairing((Fraction(1, 2), 1))


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


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_alpha_matches_rational_inverse(name):
    # oracle: coefficients P^-1 c by Fraction Gauss-Jordan, summed against
    # the split-center basis, on seeded integer and Fraction functionals
    g = presets.group(name)
    rng = random.Random(len(name))
    for subset in g.standard_levi_subsets():
        ctx = g.levi_context(subset)
        pinv = mat_inverse(ctx._P) if ctx.dim else ()
        for _ in range(20):
            ints = tuple(rng.randint(-9, 9) for _ in range(ctx.dim))
            fracs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                          for _ in range(ctx.dim))
            for c in (ints, fracs):
                coeffs = mat_vec(pinv, c) if ctx.dim else ()
                old = tuple(sum((cf * y[i] for cf, y in
                                 zip(coeffs, ctx.split_center_basis)),
                                Fraction(0))
                            for i in range(g.datum.rank))
                new = ctx.alpha(c)
                assert new == old
                assert all(type(x) is Fraction for x in new)


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_alpha_inv_matches_rational_solve(name):
    # oracle: P . solve_rational(Y, p), the Fraction definition, on seeded
    # integer and Fraction points of the split-center space and on points
    # moved off it, which give None
    g = presets.group(name)
    n = g.datum.rank
    rng = random.Random(name)
    off = 0
    for subset in g.standard_levi_subsets():
        ctx = g.levi_context(subset)
        Y = ctx.split_center_basis
        for _ in range(20):
            ints = tuple(rng.randint(-9, 9) for _ in Y)
            fracs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                          for _ in Y)
            for coeffs in (ints, fracs):
                inside = tuple(sum(c * y[i] for c, y in zip(coeffs, Y))
                               for i in range(n))
                moved = tuple(x + rng.randint(-2, 2) for x in inside)
                for point in (inside, moved):
                    sol = solve_rational(Y, point)
                    if sol is None:
                        off += 1
                        assert ctx.alpha_inv(point) is None
                        continue
                    assert ctx.alpha_inv(point) == mat_vec(ctx._P, sol)
    assert off or all(len(g.levi_context(s).split_center_basis) == n
                      for s in g.standard_levi_subsets())


def test_alpha_inv_derived_on_first_use():
    g = presets.group("gl3")
    ctx = g.levi_context(frozenset({0}))
    assert "dual_center_solver" not in vars(ctx)
    assert ctx.alpha_inv((1, 1, 0)) == (2, 0)
    assert "dual_center_solver" not in vars(ctx)


def test_levi_context_builds_only_its_roots():
    # the Weyl layer reads the roots; W^rel_L and the Kottwitz data wait
    # for their first read
    g = presets.group("gl3")
    ctx = g.levi_context(frozenset({0}))
    assert sorted(vars(ctx)) == ["group", "positive_root_indices",
                                 "root_indices", "subset"]
    assert len(ctx.weyl_elements) == 2 and "_center_bases" not in vars(ctx)


def test_reading_a_split_center_basis_runs_the_duality_check():
    # one more independent row on the dual side drops its rank from 2 to 1:
    # each read built on the two bases must name the mismatch
    g = presets.group("gl3")
    reads = (lambda c: c.split_center_basis,
             lambda c: c.dual_split_center_basis,
             lambda c: c.alpha_inv((1, 1, 0)),
             lambda c: c.newton_point(
                 c.dual_center_characters.element_from_ambient((1, 0, 0))))
    for read in reads:
        ctx = LeviContext(g, frozenset({0}))
        ctx._dual_split_rows += ((1, 0, 0),)
        with pytest.raises(AssertionError, match="^split center ranks "
                           "disagree across duality$"):
            read(ctx)


def test_reading_a_split_center_basis_checks_its_rational_rank():
    # dim is read from the rows over Q, the bases from Smith forms: a dim
    # one too large is named when the bases are built on top of it
    g = presets.group("gl3")
    ctx = LeviContext(g, frozenset({0}))
    assert ctx.dim == 2
    vars(ctx)["dim"] = 3
    with pytest.raises(AssertionError,
                       match="^split center basis disagrees with dim$"):
        ctx.split_center_basis


#: every group preset, and H of every endoscopy preset and of the trivial
#: datum <group>-s1 of each group, which the elliptic tests take
LEVI_GROUPS = [("group", name) for name in presets.GROUP_NAMES] + [
    ("endo", name) for name in dict.fromkeys(
        presets.ENDO_NAMES + tuple(g + "-s1" for g in presets.GROUP_NAMES))]


def _levi_group(kind, name):
    return presets.group(name) if kind == "group" else \
        presets.endoscopy(name).H


@pytest.mark.parametrize("kind,name", LEVI_GROUPS)
def test_levi_dim_is_the_rank_of_both_split_centers(kind, name, monkeypatch):
    # dim, read from the rows over Q, runs no Smith form and builds no
    # basis, and it is the rank of the two bases built later
    from rk import lattice
    calls = []
    snf_raw = lattice._snf_raw

    def counted(*args):
        calls.append(args)
        return snf_raw(*args)

    monkeypatch.setattr(lattice, "_snf_raw", counted)
    g = _levi_group(kind, name)
    for subset in g.standard_levi_subsets():
        ctx = LeviContext(g, subset)
        dim = ctx.dim
        assert calls == [] and "_center_bases" not in vars(ctx)
        assert dim == len(ctx.split_center_basis) == \
            len(ctx.dual_split_center_basis)
        calls.clear()


@pytest.mark.parametrize("kind,name", LEVI_GROUPS)
def test_levi_dim_drops_along_every_proper_inclusion(kind, name):
    # for each Galois orbit O of simple positions, the Gamma-average of a
    # vector pairing 1 with O and 0 with the other simples is a fixed
    # cocharacter killed by the simples outside O, so dim A_S > dim A_M for
    # every proper standard S < M: a proper Levi of a parameter's minimal
    # Levi never has a split center as small
    g = _levi_group(kind, name)
    dims = {s: g.levi_context(s).dim for s in g.standard_levi_subsets()}
    for small, big in itertools.permutations(dims, 2):
        if small < big:
            assert dims[small] > dims[big], (sorted(small), sorted(big))


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_root_indices_match_span_scan(name):
    g = presets.group(name)
    d = g.datum
    for subset in g.standard_levi_subsets():
        ctx = g.levi_context(subset)
        simples = [d.simple_roots[pos] for pos in sorted(subset)]
        brute = tuple(i for i, r in enumerate(d.roots)
                      if simples and solve_rational(simples, r) is not None)
        assert ctx.root_indices == brute
        assert ctx.positive_root_indices == tuple(
            i for i in brute if i in d.positive_root_set)


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
    with pytest.raises(DatumError):
        g.levi_weyl_elements(frozenset({0}))


# ---------------------------------------------------------------------------
# standard parabolics

def test_parabolics_gl2():
    assert len(presets.group("gl2").standard_levi_subsets()) == 2


def test_parabolics_gl3():
    assert len(presets.group("gl3").standard_levi_subsets()) == 4


def test_parabolics_gl4():
    assert len(presets.group("gl4").standard_levi_subsets()) == 8


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
    assert sorted(map(sorted, g.standard_levi_subsets())) == [[], [0, 1]]


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_per_group_data_computed_once(name):
    # repeat calls return one immutable object, equal to the definitions
    g = presets.group(name)
    d = g.datum
    subsets = g.standard_levi_subsets()
    assert g.standard_levi_subsets() is subsets
    assert type(subsets) is tuple
    assert all(type(s) is frozenset for s in subsets)
    orbits = g.simple_orbits
    brute = set()
    for bits in range(2 ** len(orbits)):
        brute.add(frozenset(p for k, orb in enumerate(orbits)
                            if bits >> k & 1 for p in orb))
    assert subsets == tuple(sorted(brute, key=lambda s: (len(s), sorted(s))))
    assert d.simple_roots is d.simple_roots
    assert d.simple_coroots is d.simple_coroots
    assert d.simple_roots == tuple(d.roots[i] for i in d.simple_indices)
    assert d.simple_coroots == tuple(d.coroots[i] for i in d.simple_indices)


def test_parabolics_include_extremes():
    for name in ("gl3", "u3", "sp4"):
        g = presets.group(name)
        subs = g.standard_levi_subsets()
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


# ---------------------------------------------------------------------------
# element ids and the Cayley rows

def _id_groups():
    """(label, Weyl group): the absolute and relative Weyl groups of every
    preset group, of its dual and of each endoscopic preset's H."""
    groups = []
    for name in presets.GROUP_NAMES:
        g = presets.group(name)
        dual = ReductiveGroup(*dual_datum(g.datum, g.galois))
        groups += [(name, g), (name + "^", dual)]
    groups += [("H(%s)" % e, presets.endoscopy(e).H)
               for e in presets.ENDO_NAMES]
    # a split group's relative Weyl group is its Weyl group
    return [(label + kind, getattr(g, kind)) for label, g in groups
            for kind in ("weyl", "relative")
            if kind == "weyl" or g.relative is not g.weyl]


_ID_GROUPS = _id_groups()


@pytest.mark.parametrize("label,weyl", _ID_GROUPS,
                         ids=[label for label, _w in _ID_GROUPS])
def test_cayley_rows_match_mul(label, weyl):
    assert "index" not in vars(weyl) and "row" not in vars(weyl)
    elements, index = weyl.elements, weyl.index
    assert [index[m] for m in elements] == list(range(len(weyl)))
    assert list(elements) == sorted(elements)
    rows = range(len(weyl))
    if len(weyl) > 120:
        rows = random.Random(label).sample(rows, 8)
    for i in rows:
        row = weyl.row(i)
        assert row == tuple(index[weyl.mul(elements[i], b)] for b in elements)
        assert weyl.row(i) is row
    assert sorted(weyl.row.__self__) == sorted(rows)
