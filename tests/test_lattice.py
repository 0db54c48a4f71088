"""Exact lattice algebra: frozen examples plus randomized structural
properties.  Oracles: gcd-of-minors for Smith invariants, explicit
kernels for invariants, and transpose duality for coinvariants."""

import doctest
import random
from itertools import product
from math import gcd

import pytest

import rk.lattice as lattice
from rk import presets
from rk.finite_reps import FiniteGroup
from rk.lattice import (
    FgAbelianGroup,
    SmithSolver,
    basis_orbits,
    closure,
    coinvariants,
    dot,
    from_columns,
    gauss_jordan,
    invariants_saturated,
    is_saturated,
    kernel_basis,
    mat,
    mat_contragredient,
    mat_det,
    mat_identity,
    mat_inverse_int,
    mat_mul,
    mat_transpose,
    mat_vec,
    smith_normal_form,
    solve_integer,
    solve_rational,
)
from rk.rootdata import BasedRootDatum, GaloisAction


def test_module_doctests():
    failures, _ = doctest.testmod(lattice)
    assert failures == 0


# ---------------------------------------------------------------------------
# Smith normal form

def _diagonal(d):
    return tuple(d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)))


def test_snf_identity():
    D, U, V = smith_normal_form(mat_identity(2), 2)
    assert _diagonal(D) == (1, 1)


def test_snf_gcd_oracle():
    # d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
    D, _, _ = smith_normal_form(mat([[2, 4], [6, 8]]), 2)
    entries = [2, 4, 6, 8]
    d1 = 0
    for x in entries:
        d1 = gcd(d1, x)
    minor = abs(2 * 8 - 4 * 6)
    assert _diagonal(D) == (d1, minor // d1) == (2, 4)


def test_snf_zero_matrix():
    D, _, _ = smith_normal_form(mat([[0, 0], [0, 0]]), 2)
    assert _diagonal(D) == (0, 0)


@pytest.mark.parametrize("seed", range(40))
def test_snf_random_properties(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 5)
    n = rng.randint(1, 5)
    a = mat([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    D, U, V = smith_normal_form(a, n)
    assert mat_mul(mat_mul(U, a), V) == D
    assert abs(mat_det(U)) == 1 and abs(mat_det(V)) == 1
    diag = _diagonal(D)
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    assert (len(D), len(D[0])) == (m, n)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0


_raw_snf = lattice._snf_raw


def _off_by_one(a, ncols):
    """A wrong factorization: the raw Smith form with d_1 one too large."""
    D, U, V = _raw_snf(a, ncols)
    return ((D[0][0] + 1,) + D[0][1:],) + D[1:], U, V


@pytest.mark.parametrize("call", [
    lambda: kernel_basis(mat([[1, 2, 3], [2, 4, 6]]), 3),
    lambda: solve_integer(mat([[2, 0], [0, 3]]), 2, (4, 9)),
    lambda: is_saturated(((1, 1),), 2),
    lambda: FgAbelianGroup(2, [(2, 0), (0, 3)]),
], ids=["kernel_basis", "solve_integer", "is_saturated", "FgAbelianGroup"])
def test_smith_form_recheck_runs_on_every_factorization(call, monkeypatch):
    # every factorization goes through smith_normal_form, so a wrong raw
    # form is caught by its product check wherever it is asked for
    call()
    monkeypatch.setattr(lattice, "_snf_raw", _off_by_one)
    with pytest.raises(AssertionError,
                       match=r"^SNF verification failed: U\*A\*V != D$"):
        call()


def test_mat_inverse_int_checks_its_product(monkeypatch):
    # the inverse is the eliminated one, checked by A*A^-1 = 1: a wrong
    # elimination result, integral and with d = 1 all the same, is not
    # returned
    a = mat([[2, 1], [1, 1]])
    assert mat_inverse_int(a) == ((1, -1), (-1, 2))
    monkeypatch.setattr(lattice, "_scaled_inverse",
                        lambda a: (1, ((1, 1), (-1, 2))))
    with pytest.raises(AssertionError, match=r"^inverse verification failed: "
                       r"A\*A\^-1 != 1$"):
        mat_inverse_int(a)


@pytest.mark.parametrize("a,message", [
    (((2,),), "matrix is not unimodular"),
    (((2, 1), (1, 2)), "matrix is not unimodular"),
    (((1, 2), (2, 4)), "matrix is singular"),
    (((1, 2),), "dot: length mismatch 2 vs 1"),
], ids=["det-2", "det-3", "singular", "not-square"])
def test_mat_inverse_int_rejects_what_is_not_unimodular(a, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        mat_inverse_int(a)


def test_kernel_and_solve():
    a = mat([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(a, 3)
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(a, v) == (0, 0)
    assert is_saturated(basis, 3)
    sol = solve_integer(mat([[2, 0], [0, 3]]), 2, (4, 9))
    assert sol == (2, 3)
    assert solve_integer(mat([[2]]), 1, (3,)) is None


def _solve_reference(a, n, b):
    """The definition of solve_integer: a fresh Smith form per call, then
    x = V.D^-1.U.b with the divisibility test."""
    m = len(a)
    D, U, V = lattice._snf_raw(a, n)
    ub = mat_vec(U, b)
    y = [0] * n
    for i in range(m):
        d = D[i][i] if i < min(m, n) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d:
                return None
            y[i] = ub[i] // d
    return mat_vec(V, y)


def _kernel_reference(a, n):
    """The definition of kernel_basis: the columns of V past the rank, so
    all n of them when a has no rows."""
    D, _U, V = lattice._snf_raw(a, n)
    rank = sum(1 for i in range(min(len(a), n)) if D[i][i] != 0)
    return tuple(tuple(V[i][j] for i in range(n)) for j in range(rank, n))


def _check_solver(solver, a, n, rng, count=12):
    """A kept factorization of the m x n matrix a gives the reference
    kernel, and for seeded right-hand sides (arbitrary ones and images
    a.x) the reference x or None."""
    assert solver.kernel == _kernel_reference(a, n)
    assert kernel_basis(a, n) == solver.kernel
    outcomes = set()
    for _ in range(count):
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        for b in (tuple(rng.randint(-5, 5) for _ in a), mat_vec(a, x)):
            got = solver.solve(b)
            assert got == _solve_reference(a, n, b)
            assert solve_integer(a, n, b) == got
            outcomes.add(got is None)
    return outcomes


def test_smith_solver_matches_reference_random():
    # shapes with no rows or no columns included
    rng = random.Random(8)
    outcomes = set()
    for _ in range(150):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        a = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        outcomes |= _check_solver(SmithSolver(a, n), a, n, rng, 4)
    assert outcomes == {True, False}


@pytest.mark.parametrize("m,n", [(0, 0), (0, 3), (2, 0)])
def test_smith_forms_of_an_empty_shape(m, n):
    # an m x 0 matrix is m rows of (): every right-hand side in the
    # image is 0, the kernel is Z^0; a 0 x n matrix has kernel Z^n
    a = tuple(() for _ in range(m))
    D, U, V = smith_normal_form(a, n)
    assert (D, U, V) == (a, mat_identity(m), mat_identity(n))
    assert kernel_basis(a, n) == tuple(mat_identity(n))
    assert solve_integer(a, n, (0,) * m) == (0,) * n
    if m:
        assert solve_integer(a, n, (1,) + (0,) * (m - 1)) is None


def test_smith_form_rejects_a_row_of_another_length():
    with pytest.raises(ValueError, match="length mismatch 2 vs 3"):
        smith_normal_form(((1, 2, 3), (4, 5)), 3)
    with pytest.raises(ValueError, match="length mismatch 3 vs 2"):
        kernel_basis(((1, 2, 3),), 2)


def test_mat_mul_checks_the_inner_dimension_for_every_shape():
    # a right factor with no columns still has rows to count: 1 x 2 times
    # 1 x 0 and 1 x 1 times 0 x 0 do not multiply
    with pytest.raises(ValueError, match="length mismatch 2 vs 1"):
        mat_mul(((1, 2),), ((),))
    with pytest.raises(ValueError, match="length mismatch 1 vs 0"):
        mat_mul(((1,),), ())
    assert mat_mul(((1, 2),), ((), ())) == ((),)
    assert mat_mul(((), ()), ()) == ((), ())
    assert mat_mul((), ((1, 2),)) == ()


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_kept_dual_center_solver_matches_reference(name):
    # the factorization each LeviContext keeps of its dual split-center basis
    g = presets.group(name)
    n = g.datum.rank
    rng = random.Random(name)
    for subset in g.standard_levi_subsets():
        ctx = g.levi_context(subset)
        solver = ctx.dual_center_solver
        assert ctx.dual_center_solver is solver
        _check_solver(solver, mat(ctx.dual_split_center_basis), n, rng)


def _rank_over_q(rows, n):
    return len(gauss_jordan(rows, n, lattice._q_inv, lattice._q_red)[1])


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_dual_center_annihilator_by_brute_force(name):
    # the kernel a LeviContext keeps is the annihilator of its dual split
    # center basis B in Z^n, found without a Smith form: it pairs to zero
    # with B, its rank is n - rank(B) by Gauss-Jordan over Q, and every
    # integer vector of the box [-1, 1]^n that pairs to zero with B has
    # integer coordinates in it (solve_rational).  An empty B leaves all
    # of Z^n, which is what the elliptic parameters need.
    g = presets.group(name)
    n = g.datum.rank
    box = list(product((-1, 0, 1), repeat=n))
    for subset in g.standard_levi_subsets():
        ctx = g.levi_context(subset)
        basis = ctx.dual_split_center_basis
        kernel = ctx.dual_center_solver.kernel
        assert all(dot(z, u) == 0 for z in kernel for u in basis)
        assert len(kernel) == n - _rank_over_q(basis, n)
        assert _rank_over_q(kernel, n) == len(kernel)
        for v in box:
            if all(dot(v, u) == 0 for u in basis):
                coords = solve_rational(kernel, v)
                assert coords is not None, (subset, v)
                assert all(c.denominator == 1 for c in coords), (subset, v)


def _center_columns(param):
    """The parameter center basis B as the columns of an n x dim matrix."""
    return from_columns(param.center_basis, param.group.datum.rank)


@pytest.mark.parametrize("pname", presets.PARAM_NAMES)
def test_center_solver_matches_solve_rational(pname):
    # the one coordinate solver each Parameter keeps of its center basis:
    # vectors in the span get solve_rational's coordinates, which are
    # integers because B is saturated; vectors off the span get None
    param = presets.parameter(pname)
    solver = param.center_solver
    cols = _center_columns(param)
    rng = random.Random(pname)
    n = param.group.datum.rank
    outcomes = set()
    for _ in range(40):
        x = tuple(rng.randint(-5, 5) for _ in range(param.dim))
        for v in (mat_vec(cols, x), tuple(rng.randint(-5, 5) for _ in range(n))):
            ref = solve_rational(param.center_basis, v)
            got = solver.solve(v)
            assert got == ref
            assert got is None or all(type(c) is int for c in got)
            outcomes.add(got is None)
    assert outcomes == ({True, False} if param.dim < n else {False})
    _check_solver(solver, cols, param.dim, rng, 4)


def test_center_solver_of_an_empty_basis_is_n_by_zero():
    # a parameter of sl3 through the whole group, whose dual split center
    # is trivial: the solver is 2 x 0 and takes only the zero vector
    from rk.params import Parameter
    param = Parameter(presets.group("sl3"), frozenset({0, 1}), (), ())
    assert param.center_basis == () and _center_columns(param) == ((), ())
    assert param.center_solver.solve((0, 0)) == ()
    for v in ((1, 0), (0, -3), (2, 2)):
        assert param.center_solver.solve(v) is None
        assert solve_rational(param.center_basis, v) is None


@pytest.mark.parametrize("pname", presets.PARAM_NAMES)
def test_kept_twisted_center_solver_matches_reference(pname):
    # a cut reads the twisted center basis w.B through w^-1 and the kept
    # center solver: on every cut of every transporter element, that gives
    # the reference integer solve in w.B (as columns), the Levi center
    # coordinates included
    from rk.weyl import transporter_set
    param = presets.parameter(pname)
    group = param.group
    rng = random.Random(pname)
    n = group.datum.rank
    cuts = 0
    for levi in group.standard_levi_subsets():
        for w in transporter_set(group, param.minimal_levi, levi):
            cut = param.levi_cut(levi, w)
            twisted = mat_mul(w, _center_columns(param))
            ctx_L = group.levi_context(levi)
            assert cut.levi_center_coords == tuple(
                _solve_reference(twisted, param.dim, u)
                for u in ctx_L.dual_split_center_basis)
            for _ in range(8):
                x = tuple(rng.randint(-5, 5) for _ in range(param.dim))
                for v in (mat_vec(twisted, x),
                          tuple(rng.randint(-5, 5) for _ in range(n))):
                    got = param.center_solver.solve(mat_vec(cut.w_inv, v))
                    assert got == _solve_reference(twisted, param.dim, v)
            cuts += 1
    assert cuts


# ---------------------------------------------------------------------------
# finitely generated abelian groups

def test_fga_cartan_a_series():
    # cokernel of the Cartan matrix of the A_{n-1} series is Z/n
    for n in (2, 3, 4, 5):
        rank = n - 1
        cartan_cols = [tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                             for i in range(rank)) for j in range(rank)]
        g = FgAbelianGroup(rank, cartan_cols)
        assert g.free_rank == 0
        assert g.torsion == (n,)


def test_fga_elements_and_section():
    g = FgAbelianGroup(2, [(2, 0), (0, 3)])
    assert (g.free_rank, g.torsion) == (0, (6,))
    e = g.element_from_ambient((1, 1))
    back = g.section(e)
    assert g.element_from_ambient(back) == e


def test_fga_box_round_trip():
    g = FgAbelianGroup(3, [(1, -1, 0)])
    for e in g.elements_in_box(2):
        assert g.element_from_ambient(g.section(e)) == e


# ---------------------------------------------------------------------------
# invariants / coinvariants

SWAP = mat([[0, 1], [1, 0]])
ROT3 = mat([[0, -1], [1, -1]])


def test_coinvariants_trivial():
    g = coinvariants(2, (mat_identity(2),))
    assert g.free_rank == 2 and g.torsion == ()


def test_coinvariants_swap():
    g = coinvariants(2, (SWAP,))
    assert g.free_rank == 1 and g.torsion == ()


def test_coinvariants_with_cartan_relations():
    # rank-(n-1) lattice mod the Cartan relations, trivial Galois
    g = coinvariants(2, (mat_identity(2),),
                     extra_relations=[(2, -1), (-1, 2)])
    assert g.free_rank == 0 and g.torsion == (3,)


def test_invariants_trivial_and_swap():
    assert invariants_saturated(3, (mat_identity(3),)) == \
        tuple(mat_identity(3))
    basis = invariants_saturated(2, (SWAP,))
    assert basis in (((1, 1),), ((-1, -1),))


def test_invariants_rotation_oracle():
    # order-3 rotation on the hexagonal lattice has no fixed vectors;
    # oracle: the kernel of (g - 1) computed directly
    rows = [(-1, -1), (1, -2)]
    assert kernel_basis(mat(rows), 2) == ()
    assert invariants_saturated(2, (ROT3,)) == ()


def _random_finite_action(rng, rank):
    # generators of a finite group: signed permutation matrices
    gens = []
    for _ in range(rng.randint(1, 2)):
        perm = list(range(rank))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(rank)]
        gens.append(mat([[signs[i] if perm[j] == i else 0
                          for j in range(rank)] for i in range(rank)]))
    return tuple(gens)


@pytest.mark.parametrize("seed", range(200))
def test_coinvariants_invariants_duality(seed):
    rng = random.Random(1000 + seed)
    rank = rng.randint(1, 6)
    action = _random_finite_action(rng, rank)
    co = coinvariants(rank, action)
    inv = invariants_saturated(rank, tuple(map(mat_contragredient, action)))
    assert co.free_rank == len(inv)


def test_invariants_output_saturated():
    rng = random.Random(7)
    for _ in range(50):
        rank = rng.randint(1, 5)
        action = _random_finite_action(rng, rank)
        basis = invariants_saturated(rank, action)
        assert is_saturated(basis, rank)


# the finite-group checks that a lattice action gets: GaloisAction
# validates its generators, FiniteGroup.from_matrices closes them


def _torus_action(*generators):
    rank = len(generators[0])
    return GaloisAction(BasedRootDatum(rank, (), (), ()), generators)


def test_lattice_action_rejects_infinite(monkeypatch):
    monkeypatch.setattr(lattice, "DEFAULT_CLOSURE_CAP", 100)
    with pytest.raises(ValueError, match="exceeded cap of 100"):
        FiniteGroup.from_matrices((mat([[1, 1], [0, 1]]),))


def test_lattice_action_rejects_infinite_at_construction(monkeypatch):
    # the orbit certificate, without closing the group
    monkeypatch.setattr(lattice, "DEFAULT_CLOSURE_CAP", 100)
    with pytest.raises(ValueError, match="exceeded cap of 100"):
        _torus_action(mat([[1, 1], [0, 1]]))


def test_lattice_action_cap_bounds_orbits_then_closure(monkeypatch):
    # the hyperoctahedral group of rank 3 (48 elements, orbits of size 6)
    # fits a cap of 10 orbit-wise and is rejected when closed
    swap = mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cycle = mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    sign = mat([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    monkeypatch.setattr(lattice, "DEFAULT_CLOSURE_CAP", 10)
    _torus_action(swap, cycle, sign)
    points = basis_orbits((swap, cycle, sign))
    assert sorted(points) == sorted(
        v for e in mat_identity(3) for v in (e, tuple(-x for x in e)))
    with pytest.raises(ValueError, match="exceeded cap of 10"):
        FiniteGroup.from_matrices((swap, cycle, sign))
    monkeypatch.setattr(lattice, "DEFAULT_CLOSURE_CAP", 48)
    assert len(FiniteGroup.from_matrices((swap, cycle, sign))) == 48


def test_lattice_action_rejects_nonunimodular(monkeypatch):
    # without the determinant check the orbit of e_1 under (2) would run
    # to the cap; the small cap keeps that fast
    monkeypatch.setattr(lattice, "DEFAULT_CLOSURE_CAP", 100)
    with pytest.raises(ValueError,
                       match="^action matrices must have determinant"):
        _torus_action(mat([[2]]))


def test_lattice_action_elements_match_closure():
    rng = random.Random(11)
    for _ in range(20):
        gens = _random_finite_action(rng, rng.randint(1, 4))
        assert FiniteGroup.from_matrices(gens).elements == \
            tuple(sorted(closure(gens)[0]))


# ---------------------------------------------------------------------------
# the per-object memo rule: lattice.cached

def test_cached_stores_nothing_when_compute_raises():
    memo, calls = {}, []

    def refuse(x):
        calls.append(x)
        raise ValueError("refused %d" % x)

    for _ in range(2):
        with pytest.raises(ValueError, match="^refused 1$"):
            lattice.cached(memo, ("kind", 1), refuse, 1)
    assert memo == {} and calls == [1, 1]


def test_cached_computes_a_none_result_once():
    memo, calls = {}, []

    def nothing(*args):
        calls.append(args)

    for _ in range(3):
        assert lattice.cached(memo, ("kind", 2), nothing, 2, 3) is None
    assert calls == [(2, 3)] and memo == {("kind", 2): None}


def test_cached_hit_does_not_call_compute():
    kept = object()
    memo = {("kind",): kept}

    def unreachable():
        raise AssertionError("compute called on a hit")

    assert lattice.cached(memo, ("kind",), unreachable) is kept
    assert lattice.cached(memo, ("sum", 2, 3), int.__add__, 2, 3) == 5
    assert memo == {("kind",): kept, ("sum", 2, 3): 5}


def _fill_group(group):
    from rk.weyl import transporter_set
    full = group.full_subset()
    for levi in group.standard_levi_subsets():
        assert group.levi_context(levi).weyl_ids
        transporter_set(group, levi, full)


def _fill_parameter(param):
    from rk.endoscopy import eci_both_sides
    from rk.packets import (build_packet_member, central_character_square,
                            enumerate_fiber, enumerate_rhos)
    for rho in enumerate_rhos(param, 2):
        member = build_packet_member(param, rho)
        enumerate_fiber(param, member.b)
        central_character_square(param, rho)
    eci_both_sides(param, member.b, _SHARED_ENDO)


def _fill_cut(cut):
    cut.descent_coords


def _fill_datum(datum):
    from rk.disconnected import classify_irr
    classify_irr(datum, 2)


_SHARED_ENDO = presets.endoscopy("gl4-s1")

_OWNERS = {
    "ReductiveGroup": (lambda: presets.group("sp4"), _fill_group),
    "Parameter": (lambda: presets.parameter("gl4-st2"), _fill_parameter),
    "LeviCut": (lambda: presets.parameter("gl4-st2").levi_cut(
        frozenset({0, 1, 2})), _fill_cut),
    "DisconnectedGroupDatum": (lambda: presets.disconnected("o2"),
                               _fill_datum),
}


def _memo(owner):
    """The owner's memo; a LeviCut keeps its one memoized value as its
    `descent_coords` attribute."""
    if type(owner).__name__ == "LeviCut":
        return {"descent_coords": owner.descent_coords}
    return owner.memo


def _shareable(value):
    """Values two owners may hold as one object: None and empty tuples."""
    return value is None or value == ()


@pytest.mark.parametrize("owner", sorted(_OWNERS))
def test_memo_and_values_not_shared_between_owners(owner):
    # two equal owners built apart, each asked the same questions: their
    # memos have the same keys and hold no object in common
    make, fill = _OWNERS[owner]
    a, b = make(), make()
    assert type(a).__name__ == owner
    fill(a)
    fill(b)
    assert _memo(a) is not _memo(b)
    assert _memo(a).keys() == _memo(b).keys()
    pending, compared = [(_memo(a), _memo(b))], 0
    while pending:
        x, y = pending.pop()
        for key in x:
            if isinstance(x[key], dict):
                assert x[key] is not y[key], key
                pending.append((x[key], y[key]))
            elif not _shareable(x[key]):
                assert x[key] is not y[key], key
                compared += 1
    assert compared
