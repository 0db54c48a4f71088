"""Kottwitz-set invariants: Newton points, pushforwards, stratification,
the basic-plus lift with wall rejections, and the compatibility of the
two invariants on basic classes."""

import itertools
from fractions import Fraction

import pytest

from rk import presets
from rk.kottwitz import (
    BElement,
    WallRejection,
    basic_plus_lift,
    classify,
    decode,
    encode,
    kappa_push,
    newton,
)
from rk.lattice import FgAbelianGroup, map_between, solve_rational


def test_newton_basic_gl2():
    g = presets.group("gl2")
    ctx = g.levi_context(g.full_subset())
    b = BElement(g.full_subset(), ctx.dual_center_characters.element([1], []))
    assert newton(g, b) == (Fraction(1, 2), Fraction(1, 2))


def test_newton_torus_identity():
    g = presets.group("gl2")
    ctx = g.levi_context(frozenset())
    b = basic_plus_lift(g, frozenset(),
                        ctx.dual_center_characters.element_from_ambient((1, 0)))
    assert newton(g, b) == (Fraction(1), Fraction(0))


def test_newton_zero():
    for name in ("gl3", "sp4"):
        g = presets.group(name)
        for subset in g.standard_levi_subsets():
            ctx = g.levi_context(subset)
            b = BElement(subset, ctx.dual_center_characters.element_from_ambient(
                (0,) * g.datum.rank))
            assert newton(g, b) == tuple(Fraction(0)
                                         for _ in range(g.datum.rank))


def test_kappa_push_gl2_quotient_oracle():
    # oracle: the explicit quotient map Z^2 -> Z^2/coroot, sending v to
    # the class of v1 + v2
    g = presets.group("gl2")
    ctx = g.levi_context(frozenset())
    for v in itertools.product(range(-2, 3), repeat=2):
        b = BElement(frozenset(),
                     ctx.dual_center_characters.element_from_ambient(v))
        pushed = kappa_push(g, b)
        expected = g.levi_context(g.full_subset()). \
            dual_center_characters.element_from_ambient(v)
        assert pushed == expected
        assert pushed.free == (v[0] + v[1],)


def test_kappa_push_zero():
    g = presets.group("gl3")
    ctx = g.levi_context(frozenset({0}))
    b = BElement(frozenset({0}),
                 ctx.dual_center_characters.element_from_ambient((0, 0, 0)))
    pushed = kappa_push(g, b)
    assert not any(pushed.free + pushed.torsion)


def test_kappa_push_adjoint_rank1_torsion_oracle():
    # rank-1 adjoint datum: pushing the torus generator lands on the
    # nontrivial class of Z/2; oracle = SNF of the A_1 Cartan matrix
    g = presets.group("pgl2")
    oracle = FgAbelianGroup(1, [(2,)])
    assert oracle.torsion == (2,)
    ctx_t = g.levi_context(frozenset())
    ctx_g = g.levi_context(g.full_subset())
    assert ctx_g.dual_center_characters.torsion == (2,)
    b = basic_plus_lift(g, frozenset(),
                        ctx_t.dual_center_characters.element([1], []))
    pushed = kappa_push(g, b)
    assert pushed.torsion == (1,)


def test_classify_consistency():
    g = presets.group("gl4")
    ctx = g.levi_context(frozenset({0, 2}))
    b = basic_plus_lift(g, frozenset({0, 2}),
                        ctx.dual_center_characters.element_from_ambient(
                            (3, 0, 0, 0)))
    assert classify(g, b) == frozenset({0, 2})


def test_classify_basic():
    g = presets.group("gl3")
    ctx = g.levi_context(g.full_subset())
    b = BElement(g.full_subset(),
                 ctx.dual_center_characters.element_from_ambient((1, 0, 0)))
    assert classify(g, b) == g.full_subset()


def test_lift_accept_reject():
    g = presets.group("gl2")
    q = g.levi_context(frozenset()).dual_center_characters
    b = basic_plus_lift(g, frozenset(), q.element_from_ambient((1, 0)))
    assert sorted(b.levi) == []
    with pytest.raises(WallRejection) as exc:
        basic_plus_lift(g, frozenset(), q.element_from_ambient((1, 1)))
    assert exc.value.zero_walls == (0,)
    with pytest.raises(WallRejection) as exc:
        basic_plus_lift(g, frozenset(), q.element_from_ambient((0, 1)))
    assert exc.value.negative_walls == (0,)


def test_lift_reports_target_stratum():
    g = presets.group("gl3")
    q = g.levi_context(frozenset()).dual_center_characters
    with pytest.raises(WallRejection) as exc:
        basic_plus_lift(g, frozenset(), q.element_from_ambient((2, 2, 1)))
    assert set(exc.value.zero_walls) == {0}


def test_torus_box_bijection():
    # on a torus the invariant is a faithful coordinate: distinct
    # cocharacters in a box stay distinct in the character group
    g = presets.group("gl2")
    q = g.levi_context(frozenset()).dual_center_characters
    seen = {(q.element_from_ambient(v).free, q.element_from_ambient(v).torsion)
            for v in itertools.product(range(-3, 4), repeat=2)}
    assert len(seen) == 7 ** 2


def test_encode_decode_round_trip():
    for name in ("gl2", "gl4", "sl2", "gl2x2-swap", "so4"):
        g = presets.group(name)
        for subset in g.standard_levi_subsets():
            ctx = g.levi_context(subset)
            grp = ctx.dual_center_characters
            for e in grp.elements_in_box(1):
                b = BElement(subset, e)
                nu = newton(g, b)
                if not g.dominant(nu):
                    continue
                if g.facet_levi(nu) != subset:
                    continue
                data = encode(g, b)
                back = decode(g, data)
                assert back == b


def test_newton_functoriality_squares():
    # pushing kappa along nested Levis preserves the Newton point
    for name in ("gl3", "gl4"):
        g = presets.group(name)
        subsets = g.standard_levi_subsets()
        for small in subsets:
            for big in subsets:
                if not (small < big):
                    continue
                ctx_s = g.levi_context(small)
                ctx_b = g.levi_context(big)
                kappa = ctx_s.dual_center_characters.element_from_ambient(
                    tuple(range(g.datum.rank, 0, -1)))
                pushed = map_between(ctx_s.dual_center_characters,
                                     ctx_b.dual_center_characters, kappa)
                # the functional of the pushed class restricts the original
                lift = ctx_s.dual_center_characters.section(kappa)
                assert ctx_b.functional_of_kappa(pushed) == \
                    ctx_b.restrict_ambient(lift)


def _alpha_matrix_oracle(g, subset):
    """Independent reconstruction of the Newton matrix: solve the defining
    relation <alpha(c), u_i> = c_i column by column against the Gram
    pairing of the two center bases."""
    ctx = g.levi_context(subset)
    y = ctx.split_center_basis
    u = ctx.dual_split_center_basis
    gram_cols = [tuple(Fraction(sum(a * b for a, b in zip(yj, ui)))
                       for ui in u) for yj in y]
    cols = []
    for j in range(ctx.dim):
        target = tuple(Fraction(1 if i == j else 0) for i in range(ctx.dim))
        sol = solve_rational(gram_cols, target)
        point = tuple(sum(s * Fraction(yv[i]) for s, yv in zip(sol, y))
                      for i in range(g.datum.rank))
        cols.append(point)
    return cols


def test_newton_equals_alpha_of_kappa_box():
    # nu = alpha composed with kappa on basic classes, kappa-box radius 3,
    # with the alpha matrix rebuilt independently from the pairing
    for name in ("gl2", "gl3", "sl2", "pgl2", "gl2x2-swap", "sp4", "so4"):
        g = presets.group(name)
        full = g.full_subset()
        ctx = g.levi_context(full)
        alpha_cols = _alpha_matrix_oracle(g, full)
        for e in ctx.dual_center_characters.elements_in_box(3):
            b = BElement(full, e)
            nu = newton(g, b)
            f = ctx.functional_of_kappa(e)
            expected = tuple(Fraction(0) for _ in range(g.datum.rank))
            for c, col in zip(f, alpha_cols):
                expected = tuple(a + Fraction(c) * bb
                                 for a, bb in zip(expected, col))
            assert nu == expected


def test_kappa_push_transitivity():
    # pushing through an intermediate Levi agrees with the direct push
    g = presets.group("gl4")
    chain = (frozenset(), frozenset({0}), frozenset({0, 2}), g.full_subset())
    q = [g.levi_context(s).dual_center_characters for s in chain]
    for v in ((3, 1, 0, 0), (2, 2, 1, 1), (5, 0, -1, 2)):
        e = q[0].element_from_ambient(v)
        direct = map_between(q[0], q[3], e)
        staged = e
        for src, dst in zip(q, q[1:]):
            staged = map_between(src, dst, staged)
        assert staged == direct


# ---------------------------------------------------------------------------
# the integer lift test against the Fraction route it replaced

def _fraction_pairings(group, nu):
    return [sum(a * b for a, b in zip(root, nu))
            for root in group.datum.simple_roots]


def _lift_reference(group, levi, kappa):
    levi = frozenset(levi)
    nu = group.levi_context(levi).newton_point(kappa)
    zero, negative = [], []
    for pos, p in enumerate(_fraction_pairings(group, nu)):
        if pos in levi:
            continue
        if p == 0:
            zero.append(pos)
        elif p < 0:
            negative.append(pos)
    if zero or negative:
        raise WallRejection(levi, nu, zero, negative)
    return BElement(levi, kappa)


def _classify_reference(group, b):
    pairings = _fraction_pairings(group, newton(group, b))
    if any(p < 0 for p in pairings):
        raise ValueError("inconsistent element: Newton point not dominant")
    stratum = frozenset(pos for pos, p in enumerate(pairings) if p == 0)
    if stratum != b.levi:
        raise ValueError("inconsistent element: Newton stratum %s != levi %s"
                         % (sorted(stratum), sorted(b.levi)))
    return stratum


def _outcome(f, *args):
    try:
        return "accepted", f(*args)
    except WallRejection as exc:
        return (WallRejection, str(exc), exc.levi, exc.newton,
                [type(x) for x in exc.newton], exc.zero_walls,
                exc.negative_walls)
    except ValueError as exc:
        return ValueError, str(exc)


@pytest.mark.parametrize("name", ["gl2", "gl3", "sp4", "u3", "gl2x2-swap"])
def test_lift_and_classify_match_the_fraction_route(name):
    g = presets.group(name)
    seen = set()
    for levi in g.standard_levi_subsets():
        q = g.levi_context(levi).dual_center_characters
        for kappa in q.elements_in_box(3):
            got = _outcome(basic_plus_lift, g, levi, kappa)
            assert got == _outcome(_lift_reference, g, levi, kappa)
            b = BElement(levi, kappa)
            verdict = _outcome(classify, g, b)
            assert verdict == _outcome(_classify_reference, g, b)
            seen.add(got[0])
            seen.add(verdict[1].split()[3] if verdict[0] is ValueError
                     else "classified")
    # the lift accepts and rejects; classify agrees and refuses both ways
    assert seen == {"accepted", WallRejection, "classified", "point",
                    "stratum"}
