"""Property tests of the shared routines, `orbit`, `gauss_jordan` and the
`dot`/`mat_vec`/`mat_mul` kernel, and of the code that reads its answers
from them, each against a brute-force definition; of the unimodular
inverse, against the Smith-form inverse it replaced; of the integer
kernel bases read from Smith forms, against the definition of a
saturated kernel basis; of the finitely generated abelian groups and
coinvariants, against the class with a slot kind per Smith slot they
replaced; of the finite-group core, whose products, inverses, Cayley
rows, closures and subgroups on point permutations are checked against
matrix products on random words in every preset's groups; of the abelian
character tables, against the Smith-form route they replaced; and of `Cyclo`
arithmetic, against the ring axioms, the rational solve it replaced and
the Fraction-coefficient class it replaced; of the chamber images that
carry their root-pairing table, against the plain tuple, which takes the
recompute path; and of the value records built on `lattice.Value`,
against frozen dataclasses with the same fields.

The examples are derandomized and no example database is kept, so the
suite is deterministic and writes nothing into the checkout.
"""

import dataclasses
import hashlib
import json
import tempfile
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, permutations, product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import rk.cyclotomic
import rk.lattice as lattice
from rk import presets
from rk.cyclotomic import Cyclo, cyclotomic_polynomial
from rk.disconnected import (HighestWeightPair, classify_irr,
                             stabilizer_A_lambda)
from rk.endoscopy import (EmbeddedDatum, Term, eci_both_sides,
                          enumerate_embedded)
from rk.finite_reps import (FiniteGroup, Module, _abelian_characters,
                            _det_mod, _nullspace_mod, _solve_mod)
from rk.kottwitz import BElement
from rk.lattice import (
    FgAbelianGroup,
    FgaElement,
    SmithSolver,
    _snf_raw,
    closure,
    coinvariants,
    dot,
    kernel_basis,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_inverse_int,
    mat_mul,
    mat_transpose,
    mat_vec,
    orbit,
    solve_rational,
)
from rk.packets import PacketMember, build_packet_member, enumerate_rhos
from rk.rootdata import BasedRootDatum, GaloisAction, ScaledPoint
from rk.weyl import ChamberWitness, chamber_locate, stabilizer

from oracles import (FgAbelianGroupBySlotKinds, FractionCyclo,
                     abelian_characters_by_smith_form, canonical_by_solve,
                     coinvariants_by_slot_kinds,
                     cyclotomic_polynomial_by_fractions,
                     mat_inverse_int_by_rational_inverse,
                     mat_inverse_int_by_smith_form, sign_flips)

# Hypothesis caches the literals of the source it imports under its home
# directory even without an example database; keep that out of the checkout
_HOME = tempfile.TemporaryDirectory(prefix="rk-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=50)
# one group per case: fewer examples each
CORE = settings(PROPERTY, max_examples=20)

ENTRY = st.integers(-4, 4)


def matrices(rows, cols, entries=ENTRY):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols)
                    .map(tuple), min_size=rows, max_size=rows).map(tuple)


@st.composite
def shaped(draw, max_rows=4, max_cols=4, entries=ENTRY):
    return draw(matrices(draw(st.integers(1, max_rows)),
                         draw(st.integers(1, max_cols)), entries))


@st.composite
def square(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return draw(matrices(n, n))


def rank(m):
    """The size of the largest nonzero minor (Bareiss determinants)."""
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                if mat_det(tuple(tuple(m[i][j] for j in ci) for i in ri)):
                    return k
    return 0


# ---------------------------------------------------------------------------
# elimination over Q

@PROPERTY
@given(a=shaped(), x=st.lists(ENTRY, min_size=4, max_size=4))
def test_solve_rational_solves_systems_with_a_solution(a, x):
    cols = mat_transpose(a)
    b = tuple(sum(c * col[i] for c, col in zip(x, cols))
              for i in range(len(a)))
    sol = solve_rational(cols, b)
    assert sol is not None
    assert all(isinstance(c, Fraction) for c in sol)
    assert tuple(sum(c * col[i] for c, col in zip(sol, cols))
                 for i in range(len(a))) == b


@PROPERTY
@given(a=shaped(), data=st.data())
def test_solve_rational_is_none_only_off_the_column_span(a, data):
    b = data.draw(st.lists(ENTRY, min_size=len(a), max_size=len(a)))
    cols = mat_transpose(a)
    sol = solve_rational(cols, b)
    augmented = tuple(row + (bi,) for row, bi in zip(a, b))
    assert (sol is None) == (rank(augmented) > rank(a))
    if sol is not None:
        assert [sum(c * col[i] for c, col in zip(sol, cols))
                for i in range(len(a))] == b


@PROPERTY
@given(a=square())
def test_mat_inverse_is_a_left_inverse(a):
    if mat_det(a) == 0:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            mat_inverse(a)
    else:
        assert mat_mul(mat_inverse(a), a) == mat_identity(len(a))


@st.composite
def unimodular(draw, max_n=4):
    """A product of elementary matrices: transvections, swaps, sign flips."""
    n = draw(st.integers(1, max_n))
    m = [list(r) for r in mat_identity(n)]
    for kind, i, j, c in draw(st.lists(st.tuples(
            st.sampled_from("tsf"), st.integers(0, n - 1),
            st.integers(0, n - 1), st.integers(-3, 3)), max_size=8)):
        if kind == "t" and i != j:
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif kind == "s":
            m[i], m[j] = m[j], m[i]
        elif kind == "f":
            m[i] = [-x for x in m[i]]
    return tuple(tuple(r) for r in m)


@PROPERTY
@given(a=unimodular())
def test_mat_inverse_int_agrees_with_mat_inverse(a):
    q = mat_inverse(a)
    assert all(x.denominator == 1 for row in q for x in row)
    assert mat_inverse_int(a) == tuple(tuple(int(x) for x in row) for row in q)


@PROPERTY
@given(a=square())
def test_mat_inverse_int_rejects_what_it_cannot_invert(a):
    det = mat_det(a)
    if det == 0:
        message = "^matrix is singular$"
    elif abs(det) != 1:
        message = "^matrix is not unimodular$"
    else:
        assert mat_mul(mat_inverse_int(a), a) == mat_identity(len(a))
        return
    with pytest.raises(ValueError, match=message):
        mat_inverse_int(a)


@st.composite
def off_unimodular(draw, max_n=4):
    """A unimodular matrix with one row doubled (determinant +/-2) or
    replaced by a multiple of a row, zero when it is the same row
    (singular)."""
    m = [list(r) for r in draw(unimodular(max_n))]
    n = len(m)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        m[i] = [2 * x for x in m[i]]
    else:
        c = draw(st.integers(-2, 2)) if i != j else 0
        m[i] = [c * x for x in m[j]]
    return tuple(tuple(r) for r in m)


def _inverse_or_message(inverse, a):
    try:
        return inverse(a)
    except ValueError as exc:
        return str(exc)


@PROPERTY
@given(a=st.one_of(unimodular(), off_unimodular(), square()))
@example(a=()).via("the empty matrix")
@example(a=((1, 2),)).via("a row longer than the matrix is tall")
@example(a=((2,),)).via("determinant 2")
def test_mat_inverse_int_matches_the_smith_form_inverse(a):
    # the checked rational inverse answers as the Smith-form inverse it
    # replaced: the same integer matrix or the same message
    got = _inverse_or_message(mat_inverse_int, a)
    assert got == _inverse_or_message(mat_inverse_int_by_smith_form, a)
    if not isinstance(got, str):
        assert all(type(x) is int for row in got for x in row)


@PROPERTY
@given(a=st.one_of(unimodular(), off_unimodular(), square()))
@example(a=()).via("the empty matrix")
@example(a=((1, 2),)).via("a row longer than the matrix is tall")
@example(a=((0, 1), (1, 0))).via("no pivot on the diagonal")
@example(a=((2, 3), (3, 5))).via("no unit pivot in the first column")
@example(a=((2, 1), (1, 2))).via("determinant 3")
def test_mat_inverse_int_matches_the_rational_inverse(a):
    # the fraction-free elimination answers as the checked rational
    # inverse it replaced: the same integer matrix or the same message
    got = _inverse_or_message(mat_inverse_int, a)
    assert got == _inverse_or_message(mat_inverse_int_by_rational_inverse, a)
    if not isinstance(got, str):
        assert all(type(x) is int for row in got for x in row)


@PROPERTY
@given(a=shaped())
def test_snf_raw_is_a_smith_form(a):
    D, U, V = _snf_raw(a, len(a[0]))
    assert mat_mul(mat_mul(U, a), V) == D
    assert abs(mat_det(U)) == 1 and abs(mat_det(V)) == 1
    assert all(D[i][j] == 0 for i in range(len(D)) for j in range(len(D[0]))
               if i != j)
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    assert all(d >= 0 for d in diag)
    for d, e in zip(diag, diag[1:]):
        assert (e % d == 0) if d else e == 0


# ---------------------------------------------------------------------------
# integer kernels

def _annihilates(a, v):
    return all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


@PROPERTY
@given(a=shaped(max_cols=5, entries=st.integers(-6, 6)))
def test_kernel_bases_are_saturated_kernel_bases(a):
    n = len(a[0])
    # every kernel vector in a box, found by brute force
    small = [v for v in product(range(-3, 4), repeat=n) if _annihilates(a, v)]
    for basis in (kernel_basis(a, n), SmithSolver(a, n).kernel):
        assert all(len(v) == n and _annihilates(a, v) for v in basis)
        assert len(basis) == n - rank(a)
        if basis:
            # saturated: the maximal minors of the basis are coprime
            minors = [mat_det(tuple(tuple(v[j] for j in cols) for v in basis))
                      for cols in combinations(range(n), len(basis))]
            assert gcd(*minors) == 1
        for v in small:
            coords = solve_rational(basis, v)
            assert coords is not None
            assert all(c.denominator == 1 for c in coords)


# ---------------------------------------------------------------------------
# finitely generated abelian groups against the slot-kind class

@st.composite
def presentations(draw):
    """(ambient rank 0-4, 0-4 relation columns of that length)."""
    rank = draw(st.integers(0, 4))
    column = st.lists(st.integers(-6, 6), min_size=rank,
                      max_size=rank).map(tuple)
    return rank, draw(st.lists(column, max_size=4))


@PROPERTY
@given(pres=presentations(), data=st.data())
def test_abelian_group_matches_the_slot_kind_class(pres, data):
    rank, cols = pres
    new = FgAbelianGroup(rank, cols)
    old = FgAbelianGroupBySlotKinds(rank, cols)
    assert (new.free_rank, new.torsion) == (old.free_rank, old.torsion)
    vector = st.lists(st.integers(-30, 30), min_size=rank,
                      max_size=rank).map(tuple)
    for v in data.draw(st.lists(vector, min_size=1, max_size=5)):
        e = new.element_from_ambient(v)
        assert e == old.element_from_ambient(v)
        assert new.element_from_ambient(new.section(e)) == e
    # equality against the same columns and against small edits of them
    edits = [cols, cols[:-1], cols + [(0,) * rank], cols + [(1,) * rank]]
    if cols and rank:
        edits.append([(cols[0][0] + 1,) + cols[0][1:]] + cols[1:])
    for other in edits:
        assert (new == FgAbelianGroup(rank, other)) == \
            (old == FgAbelianGroupBySlotKinds(rank, other))


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_coinvariants_match_the_slot_kind_class(name):
    # every standard Levi's dual-center characters, as LeviContext asks
    g = presets.group(name)
    n, gens = g.datum.rank, g.galois.cochar_generators
    for subset in g.standard_levi_subsets():
        coroots = [g.datum.simple_coroots[p] for p in sorted(subset)]
        new = coinvariants(n, gens, coroots)
        old = coinvariants_by_slot_kinds(n, gens, coroots)
        assert (new.free_rank, new.torsion, new.presentation) == \
            (old.free_rank, old.torsion, old.presentation)
        for v in mat_identity(n) + ((0,) * n, (1,) * n):
            e = new.element_from_ambient(v)
            assert e == old.element_from_ambient(v)
            assert new.section(e) == old.section(e)
        assert new == g.levi_context(subset).dual_center_characters


# ---------------------------------------------------------------------------
# elimination over F_p

def field_square(p):
    return st.integers(2, 3).flatmap(
        lambda n: matrices(n, n, st.integers(0, p - 1)))


def apply_mod(m, v, p):
    return tuple(sum(x * y for x, y in zip(row, v)) % p for row in m)


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = (-1) ** sum(1 for i, j in combinations(range(n), 2)
                           if perm[i] > perm[j])
        term = sign
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@pytest.mark.parametrize("p", [5, 7])
@PROPERTY
@given(data=st.data())
def test_det_mod_is_the_leibniz_determinant(p, data):
    m = data.draw(field_square(p))
    assert _det_mod([list(r) for r in m], p) == leibniz_det(m) % p


@pytest.mark.parametrize("p", [5, 7])
@PROPERTY
@given(data=st.data())
def test_nullspace_mod_spans_the_kernel(p, data):
    m = data.draw(field_square(p))
    n = len(m)
    basis = _nullspace_mod([list(r) for r in m], p)
    kernel = {v for v in product(range(p), repeat=n)
              if not any(apply_mod(m, v, p))}
    spanned = {tuple(sum(c * b[i] for c, b in zip(cs, basis)) % p
                     for i in range(n))
               for cs in product(range(p), repeat=len(basis))}
    assert len(spanned) == p ** len(basis)  # the basis is independent
    assert spanned == kernel


@pytest.mark.parametrize("p", [5, 7])
@PROPERTY
@given(data=st.data())
def test_solve_mod_finds_a_solution_when_one_exists(p, data):
    m = data.draw(field_square(p))
    n = len(m)
    k = data.draw(st.integers(1, n))
    b = data.draw(st.tuples(*[st.integers(0, p - 1)] * n))
    a = tuple(row[:k] for row in m)
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    x = _solve_mod(aug, k, p)
    solvable = any(apply_mod(a, v, p) == b
                   for v in product(range(p), repeat=k))
    assert (x is not None) == solvable
    if x is not None:
        assert apply_mod(a, x, p) == b


# ---------------------------------------------------------------------------
# breadth-first orbits

@PROPERTY
@given(n=st.integers(1, 40),
       coeffs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                       max_size=3),
       seeds=st.lists(st.integers(0, 39), min_size=1, max_size=3))
def test_orbit_is_the_fixed_point_with_parents_first(n, coeffs, seeds):
    maps = [lambda x, a=a, b=b: (a * x + b) % n for a, b in coeffs]
    seeds = [s % n for s in seeds]
    naive = set(seeds)
    while True:
        grown = naive | {f(x) for x in naive for f in maps}
        if grown == naive:
            break
        naive = grown
    tree = orbit(seeds, maps)
    assert set(tree) == naive
    position = {x: i for i, x in enumerate(tree)}
    for x, parent in tree.items():
        if parent is None:
            assert x in seeds
        else:
            q, i = parent
            assert maps[i](q) == x and position[q] < position[x]
    if len(naive) > len(set(seeds)):  # the cap counts points as they are found
        with pytest.raises(ValueError, match="exceeded cap of %d elements"
                           % (len(naive) - 1)):
            orbit(seeds, maps, len(naive) - 1)


# ---------------------------------------------------------------------------
# the finite-group core: permutation products against matrix products

CORE_GROUPS = (tuple(("weyl", n) for n in presets.GROUP_NAMES)
               + tuple(("relative", n) for n in presets.GROUP_NAMES)
               + tuple(("disconnected", n) for n in presets.DISCONNECTED_NAMES)
               + tuple(("parameter", n) for n in presets.PARAM_NAMES))


@lru_cache(maxsize=None)
def _preset_groups(kind, name):
    """A preset's absolute or relative Weyl group; or the component group
    of a preset holder with its stabilizers of the weights that its
    classification reaches at height 2."""
    if kind in ("weyl", "relative"):
        return (getattr(presets.group(name), kind),)
    holder = presets.disconnected(name) if kind == "disconnected" \
        else presets.parameter(name).centralizer
    return (holder.pi0,) + tuple(
        stabilizer_A_lambda(holder, w)
        for w in sorted({pair.weight for pair in classify_irr(holder, 2)}))


def core_group(data, kind, name):
    return data.draw(st.sampled_from(_preset_groups(kind, name)))


def elements_of(group):
    return st.sampled_from(group.elements)


@pytest.mark.parametrize("kind,name", CORE_GROUPS)
@CORE
@given(data=st.data())
def test_core_products_and_inverses_are_matrix_products(kind, name, data):
    group = core_group(data, kind, name)
    a, b = data.draw(elements_of(group)), data.draw(elements_of(group))
    assert group.mul(a, b) == mat_mul(a, b)
    assert group.inverse[a] == mat_inverse_int(a)
    assert group.row(group.index[a])[group.index[b]] == \
        group.index[group.mul(a, b)]
    word = data.draw(st.lists(st.integers(0, len(group.generators) - 1),
                              max_size=8)) if group.generators else []
    product = mat_identity(group.rank)
    for i in word:
        product = mat_mul(product, group.generators[i])
    assert group.from_word(word) == product
    assert group.from_word(group.word(a)) == a


def _raised(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind,name", CORE_GROUPS)
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_from_matrices_is_the_sorted_closure(kind, name, data):
    group = core_group(data, kind, name)
    gens = data.draw(st.lists(elements_of(group), min_size=1, max_size=3))
    order = closure(gens)[0]
    cap = len(order) - 1
    with pytest.MonkeyPatch.context() as patch:
        # a cap of |G| accepts the group, though its basis orbits may have
        # more points in all than it has elements
        patch.setattr(lattice, "DEFAULT_CLOSURE_CAP", len(order))
        assert FiniteGroup.from_matrices(gens).elements == \
            tuple(sorted(order))
        # one element short: the same rejection, or none for the trivial
        # group
        patch.setattr(lattice, "DEFAULT_CLOSURE_CAP", cap)
        assert _raised(FiniteGroup.from_matrices, gens) == \
            _raised(closure, gens, cap)


@pytest.mark.parametrize("kind,name", CORE_GROUPS)
@CORE
@given(data=st.data())
def test_subgroup_takes_exactly_the_closed_sets(kind, name, data):
    # a generated subgroup, with one element of the group added or taken
    # away or not; the set is closed under matrix products or rejected
    group = core_group(data, kind, name)
    gens = data.draw(st.lists(elements_of(group), max_size=1 if len(group)
                              > 48 else 2))
    members = set(group.generated(gens))
    members ^= set(data.draw(st.lists(elements_of(group), max_size=1)))
    closed = all(mat_mul(a, b) in members for a in members for b in members)
    if group.identity in members and closed:
        sub = group.subgroup(members)
        assert sub.elements == tuple(sorted(members))
        assert sub.inverse == {a: group.inverse[a] for a in sub.elements}
        assert all(sub.mul(a, b) == mat_mul(a, b)
                   for a in members for b in members)
    else:
        with pytest.raises(ValueError):
            group.subgroup(members)


@pytest.mark.parametrize("kind,name", CORE_GROUPS)
@CORE
@given(data=st.data())
def test_double_cosets_are_the_matrix_products(kind, name, data):
    # H . x . K for two generated subgroups H, K: `double_coset` is the set
    # of matrix products h . x . k, and `double_cosets` gives each distinct
    # product set once, in the order of the first x that meets it, so the
    # sets are disjoint and cover the products of every x
    group = core_group(data, kind, name)
    size = 1 if len(group) > 48 else 2
    left, right = (group.generated(data.draw(st.lists(
        elements_of(group), max_size=size))) for _ in range(2))
    xs = data.draw(st.lists(elements_of(group), min_size=1, max_size=4))
    index = group.index
    left_ids, right_ids = [index[h] for h in left], [index[k] for k in right]
    products = [{mat_mul(mat_mul(h, x), k) for h in left for k in right}
                for x in xs]
    assert {group.elements[i] for i in group.double_coset(
        left_ids, index[xs[0]], right_ids)} == products[0]
    firsts = []
    for p in products:
        if p not in firsts:
            firsts.append(p)
    cosets = group.double_cosets(left_ids, [index[x] for x in xs], right_ids)
    assert [{group.elements[i] for i in c} for c in cosets] == firsts
    assert sum(map(len, firsts)) == len(set().union(*products))


# ---------------------------------------------------------------------------
# abelian character tables against the Smith-form route they replaced

def block_cycles(orders):
    """One cyclic shift per order, each of its own block of coordinates:
    block permutation matrices generating the product of cyclic groups."""
    rank, gens, start = sum(orders), [], 0
    for m in orders:
        p = list(range(rank))
        p[start:start + m] = [start + (i + 1) % m for i in range(m)]
        gens.append(tuple(tuple(int(p[j] == i) for j in range(rank))
                          for i in range(rank)))
        start += m
    return gens


@st.composite
def abelian_generators(draw):
    if draw(st.booleans()):
        return block_cycles(draw(st.lists(st.integers(1, 6), min_size=1,
                                          max_size=3)))
    return sign_flips(draw(st.integers(1, 5)))


def character_maps(chars):
    return {frozenset((repr(a), repr(v)) for a, v in t.items())
            for t in chars}


@CORE
@given(gens=abelian_generators())
def test_abelian_characters_match_the_smith_form_route(gens):
    group = FiniteGroup.from_matrices(gens)
    chars = _abelian_characters(group)
    assert len(chars) == len(group)
    assert character_maps(chars) == \
        character_maps(abelian_characters_by_smith_form(group))


# ---------------------------------------------------------------------------
# the dot / mat_vec / mat_mul kernel

# the generator-expression definitions the map-based kernel replaced
def dot_reference(u, v):
    if len(u) != len(v):
        raise ValueError("dot: length mismatch %d vs %d" % (len(u), len(v)))
    return sum(a * b for a, b in zip(u, v))


def mat_vec_reference(a, v):
    return tuple(dot_reference(row, v) for row in a)


def mat_mul_reference(a, b):
    # the inner dimension is checked for every shape, a right factor with
    # no columns too
    for row in a:
        if len(row) != len(b):
            raise ValueError("dot: length mismatch %d vs %d"
                             % (len(row), len(b)))
    bt = tuple(zip(*b))
    return tuple(tuple(dot_reference(row, col) for col in bt) for row in a)


def typed(x):
    """x with every scalar paired with its type, so equal results of
    different types compare unequal."""
    if isinstance(x, tuple):
        return tuple(typed(y) for y in x)
    return type(x), x


RATIONAL = st.fractions(-4, 4, max_denominator=4)
# integer, rational or mixed entries, drawn per example
KINDS = st.sampled_from([ENTRY, RATIONAL, st.one_of(ENTRY, RATIONAL)])


def vectors(entries, n):
    return st.lists(entries, min_size=n, max_size=n).map(tuple)


def raised(f, *args):
    """The (type, text) of the ValueError f raises, or ("returned", typed
    result)."""
    try:
        return "returned", typed(f(*args))
    except ValueError as exc:
        return type(exc), str(exc)


@PROPERTY
@given(data=st.data(), n=st.integers(0, 5))
def test_dot_matches_the_generator_sum(data, n):
    u = data.draw(vectors(data.draw(KINDS), n))
    v = data.draw(vectors(data.draw(KINDS), n))
    assert typed(dot(u, v)) == typed(dot_reference(u, v))


@PROPERTY
@given(data=st.data(), rows=st.integers(0, 4), n=st.integers(0, 4))
def test_mat_vec_matches_the_generator_sums(data, rows, n):
    a = data.draw(matrices(rows, n, data.draw(KINDS)))
    v = data.draw(vectors(data.draw(KINDS), n))
    assert typed(mat_vec(a, v)) == typed(mat_vec_reference(a, v))


@PROPERTY
@given(data=st.data(), rows=st.integers(0, 4), n=st.integers(0, 4),
       cols=st.integers(0, 4))
def test_mat_mul_matches_the_generator_sums(data, rows, n, cols):
    a = data.draw(matrices(rows, n, data.draw(KINDS)))
    b = data.draw(matrices(n, cols, data.draw(KINDS)))
    assert typed(mat_mul(a, b)) == typed(mat_mul_reference(a, b))


@PROPERTY
@given(data=st.data())
def test_kernel_rejects_length_mismatches_like_the_reference(data):
    entries = data.draw(KINDS)
    lengths = st.integers(0, 4)
    u = data.draw(vectors(entries, data.draw(lengths)))
    v = data.draw(vectors(entries, data.draw(lengths)))
    assert raised(dot, u, v) == raised(dot_reference, u, v)
    # rows of independent lengths: the first row that does not fit raises
    a = tuple(data.draw(st.lists(lengths.flatmap(partial(vectors, entries)),
                                 max_size=4)))
    assert raised(mat_vec, a, v) == raised(mat_vec_reference, a, v)
    b = data.draw(matrices(data.draw(lengths), data.draw(lengths), entries))
    assert raised(mat_mul, a, b) == raised(mat_mul_reference, a, b)
    mismatched = [r for r in a if len(r) != len(v)]
    if mismatched:
        assert raised(mat_vec, a, v) == (
            ValueError, "dot: length mismatch %d vs %d"
            % (len(mismatched[0]), len(v)))


def test_kernel_keeps_cyclotomic_sums_in_order():
    z3, z4 = Cyclo.root_of_unity(Fraction(1, 3)), Cyclo.root_of_unity(
        Fraction(1, 4))
    a = ((z3, 1, z4), (Fraction(1, 2), z4, z3))
    b = ((z4, 2), (z3, z3), (1, Fraction(-1, 3)))
    v = (z3, z4, 2)
    for got, want in ((dot(a[0], v), dot_reference(a[0], v)),
                      (mat_vec(a, v), mat_vec_reference(a, v)),
                      (mat_mul(a, b), mat_mul_reference(a, b))):
        assert got == want and repr(got) == repr(want)


# ---------------------------------------------------------------------------
# cyclotomic values

RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def cyclo_sums(draw, conductor=None):
    """A rational sum of n-th roots of unity at conductor n <= 60, written
    as drawn and not reduced to its own conductor; the exponents are
    multiples of a drawn proper divisor of n, so the value often lies in
    a smaller field."""
    n = conductor or draw(st.integers(1, 60))
    k = draw(st.sampled_from([d for d in range(1, n) if n % d == 0] or [1]))
    coeffs = [Fraction(0)] * n
    for i, q in draw(st.lists(st.tuples(st.integers(0, n // k - 1), RATIONAL),
                              min_size=1, max_size=6)):
        coeffs[i * k] += q
    return Cyclo(n, coeffs)


@st.composite
def cyclo_triples(draw):
    """Three sums at divisors of one n <= 60, so every lcm stays <= 60."""
    n = draw(st.integers(1, 60))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return tuple(draw(cyclo_sums(draw(st.sampled_from(divisors))))
                 for _ in range(3))


def same_form(a, b):
    return (a.n, a.coeffs) == (b.n, b.coeffs)


@PROPERTY
@given(xyz=cyclo_triples())
def test_cyclo_ring_axioms(xyz):
    x, y, z = xyz
    zero, one = Cyclo.zero(), Cyclo.one()
    assert x + y == y + x and repr(x + y) == repr(y + x)
    assert x * y == y * x and repr(x * y) == repr(y * x)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x * zero == zero
    assert (x - x).is_zero() and x + (-x) == zero
    # sums and products come out at their minimal conductor
    for v in (x + y, x * y, x - y):
        assert same_form(v, canonical_by_solve(v))


@PROPERTY
@given(x=cyclo_sums(), k=st.integers(1, 4))
def test_cyclo_equal_values_hash_alike_across_conductors(x, k):
    # the same value written at conductor k*n: zeta_n^i = zeta_{kn}^(ki)
    y = Cyclo(k * x.n, [x.coeffs[i // k] if i % k == 0 else 0
                        for i in range(k * len(x.coeffs))])
    assert x == y and hash(x) == hash(y)
    assert same_form(x._canonical(), y._canonical())
    assert x.pretty() == y.pretty()
    assert x + 1 != y


@PROPERTY
@given(x=cyclo_sums())
def test_cyclo_minimal_conductor_matches_the_solve(x):
    assert same_form(x._canonical(), canonical_by_solve(x))


def test_cyclotomic_polynomial_matches_fraction_division():
    for n in range(1, 201):
        assert cyclotomic_polynomial(n) == \
            cyclotomic_polynomial_by_fractions(n), n


def test_cyclotomic_polynomial_raises_on_inexact_division(monkeypatch):
    # a wrong Phi_2 = x + 2 does not divide (x^4 - 1) / (x - 1); the
    # uncached body reads Phi_d through the module attribute
    exact = cyclotomic_polynomial
    monkeypatch.setattr(rk.cyclotomic, "cyclotomic_polynomial",
                        lambda d: (2, 1) if d == 2 else exact(d))
    with pytest.raises(AssertionError, match="inexact polynomial division"):
        exact.__wrapped__(4)


# ---------------------------------------------------------------------------
# integer numerators against Fraction coefficients

CONDUCTORS = {
    # p^2 | n: the descent that keeps every p-th coefficient
    "square": [n for n in range(1, 97)
               if any(n % (p * p) == 0 for p in range(2, 10))],
    # n = 2 (mod 4): Q(zeta_n) = Q(zeta_{n/2})
    "twice-odd": [n for n in range(1, 97) if n % 4 == 2],
    "any": list(range(1, 97)),
}


@st.composite
def cyclo_pairs(draw, n):
    """One value at conductor n <= 96 as the library and the oracle class:
    integer or Fraction coefficients on n-th roots of unity, as written,
    with exponents that are multiples of a drawn divisor of n."""
    k = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    coeffs = [0] * n
    for i, q in draw(st.lists(st.tuples(
            st.integers(0, n // k - 1),
            st.one_of(st.integers(-3, 3), RATIONAL)), max_size=6)):
        coeffs[i * k] += q
    return Cyclo(n, coeffs), FractionCyclo(n, coeffs)


@st.composite
def cyclo_pair_couples(draw, kind):
    """Two values at divisors of one n drawn from CONDUCTORS[kind]."""
    n = draw(st.sampled_from(CONDUCTORS[kind]))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return tuple(draw(cyclo_pairs(draw(st.sampled_from(divisors))))
                 for _ in range(2))


def assert_agrees(new, old):
    """The library value and the oracle value print, hash and answer
    every structure query alike, at their own and their minimal
    conductor."""
    assert isinstance(new, Cyclo) and isinstance(old, FractionCyclo)
    for a, b in ((new, old), (new._canonical(), old._canonical())):
        assert a.n == b.n
        assert all(type(c) is Fraction for c in a.coeffs)
        assert a.coeffs == b.coeffs
        assert repr(a) == repr(b) and a.pretty() == b.pretty()
        assert hash(a) == hash(b)
        assert a.is_zero() == b.is_zero()
        assert a.is_rational() == b.is_rational()
        if b.is_rational():
            q = a.as_rational()
            assert type(q) is Fraction and q == b.as_rational()
        else:
            with pytest.raises(ValueError, match="^value is irrational: "):
                a.as_rational()
        # the stored form: integer numerators over one reduced denominator
        assert a.den > 0 and gcd(a.den, *a.nums) == 1


@pytest.mark.parametrize("kind", sorted(CONDUCTORS))
@settings(PROPERTY, max_examples=100)
@given(q=RATIONAL, m=st.integers(-3, 3), data=st.data())
def test_cyclo_matches_the_fraction_class(kind, q, m, data):
    (x, x_old), (y, y_old) = data.draw(cyclo_pair_couples(kind))
    for new, old in ((x, x_old), (y, y_old), (x + y, x_old + y_old),
                     (x - y, x_old - y_old), (x * y, x_old * y_old),
                     (-x, -x_old), (x.scale(q), x_old.scale(q)),
                     (x.scale(m), x_old.scale(m)), (x + q, x_old + q),
                     (m - x, m - x_old), (q * y, q * y_old),
                     (x._lift(2 * x.n), x_old._lift(2 * x.n))):
        assert_agrees(new, old)
    assert (x == y) == (x_old == y_old)
    assert (x == x._lift(3 * x.n)) and hash(x) == hash(x._lift(3 * x.n))
    assert (x == q) == (x_old == q)
    assert (x != q) == (x_old != q)
    assert x.__eq__("x") is NotImplemented


def test_cyclo_constructors_match_the_fraction_class():
    for new, old in ((Cyclo.zero(), FractionCyclo.zero()),
                     (Cyclo.one(), FractionCyclo.one()),
                     (Cyclo.from_rational(Fraction(-6, 4)),
                      FractionCyclo.from_rational(Fraction(-6, 4))),
                     (Cyclo.from_rational(7), FractionCyclo.from_rational(7)),
                     (Cyclo(12, ["1/2", 0.25, True]),
                      FractionCyclo(12, ["1/2", 0.25, True])),
                     (Cyclo(5, []), FractionCyclo(5, []))):
        assert_agrees(new, old)
    with pytest.raises(TypeError):
        Cyclo(3, [Cyclo.one()])
    with pytest.raises(ValueError, match="^can only lift to a multiple"):
        Cyclo.one()._lift(3)._lift(4)


# sha256 of one line "a/d repr pretty" per root of unity zeta_d^a with
# gcd(a, d) = 1 and d <= 96, joined by newlines, taken from the
# Fraction-coefficient class
ROOTS_OF_UNITY_SHA256 = (
    "c7bc177df689250da9bf119f0bfb3e6023cb2d72f0eeda515d6bc2cd22a4522b")


def test_roots_of_unity_print_as_before():
    lines = []
    for d in range(1, 97):
        for a in range(d):
            if gcd(a, d) == 1:
                z = Cyclo.root_of_unity(Fraction(a, d))
                assert repr(z) == repr(z._canonical())
                lines.append("%d/%d %r %s" % (a, d, z, z.pretty()))
    assert len(lines) == 2806
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ROOTS_OF_UNITY_SHA256


# ---------------------------------------------------------------------------
# chamber images that carry their root-pairing table, against plain tuples

@st.composite
def relative_points(draw, group):
    """Small rational combinations of the Galois-fixed cocharacters, so
    that points on walls (nontrivial stabilizers) are frequent."""
    x = tuple(Fraction(0) for _ in range(group.datum.rank))
    for y in group.fixed_cochar_basis:
        c = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        x = tuple(p + c * v for p, v in zip(x, y))
    return x


def _typed(values):
    return [(v, type(v)) for v in values]


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
@CORE
@given(data=st.data())
def test_chamber_image_answers_like_the_plain_tuple(name, data):
    # the plain tuple of the same Fractions takes the recompute path
    g = presets.group(name)
    witness = chamber_locate(g, data.draw(relative_points(g)))
    image, plain = witness.image, tuple(witness.image)
    assert type(image) is ScaledPoint and image.group is g
    assert image == plain and plain == image and hash(image) == hash(plain)
    assert repr(image) == repr(plain)
    assert json.dumps(image, default=str) == json.dumps(plain, default=str)
    elems, levi = stabilizer(g, image)
    assert (elems, levi) == stabilizer(g, plain)
    assert levi == witness.levi
    assert _typed(g.simple_pairing(image)) == _typed(g.simple_pairing(plain))
    # the carried kernel is the recomputed one times d / d' for the lcm d'
    # of the image's denominators, which divides the ascent's d
    d, xi = g.integer_point(image)
    k, rest = divmod(image.scale, d)
    assert k > 0 and rest == 0
    assert image.numerators == tuple(k * v for v in xi)
    assert tuple(image.pairings) == \
        tuple(k * v for v in g.root_pairings(xi))


# ---------------------------------------------------------------------------
# the value records against the frozen dataclasses they replaced

VALUE_CLASSES = (FgaElement, BasedRootDatum, GaloisAction, ChamberWitness,
                 BElement, PacketMember, HighestWeightPair, Module,
                 EmbeddedDatum, Term)
VALUE_PAIRS = (("gl2-triv", "gl2-s1"), ("gl4-st2", "gl4-splus"),
               ("gl2x2-swap-triv", "gl2x2-swap-s1"))


@lru_cache(maxsize=None)
def value_pool():
    """Instances of every value record, drawn from the presets, by class."""
    pool = {}

    def add(*records):
        for r in records:
            pool.setdefault(type(r), []).append(r)
    for name in ("gl2", "sl2", "gl3", "sp4", "u3"):
        group = presets.group(name)
        add(group.datum, group.datum.dual(), group.galois)
    for pname, ename in VALUE_PAIRS:
        param, endo = presets.parameter(pname), presets.endoscopy(ename)
        for rho in enumerate_rhos(param, 2)[:4]:
            member = build_packet_member(param, rho)
            add(rho, rho.module, member, member.b, member.b.kappa,
                chamber_locate(param.group, param.ctx_M.alpha(rho.weight)))
            result = eci_both_sides(param, member.b, endo)
            for side in ("lhs", "rhs", "discarded_nonregular"):
                add(*(term for term, _ in result[side].items()))
            add(*enumerate_embedded(param, member.b.levi, endo))
    return pool


# fields a record leaves out of its hash, as `field(hash=False)` does:
# Term's delta_twist is a constant per kind
UNHASHED = {Term: ("delta_twist",)}


@lru_cache(maxsize=None)
def dataclass_twin(cls, name=None):
    skip = UNHASHED.get(cls, ())
    return dataclasses.make_dataclass(
        name or cls.__name__,
        [(f, object, dataclasses.field(hash=False)) if f in skip else f
         for f in cls._fields], frozen=True)


@lru_cache(maxsize=None)
def value_subclass(cls):
    return type("Other", (cls,), {})


def _hash_outcome(x):
    try:
        return hash(x)
    except TypeError as err:
        return str(err)


def _message(action, *args):
    with pytest.raises(AttributeError) as err:
        action(*args)
    return str(err.value)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
@CORE
@given(data=st.data())
def test_value_records_behave_as_frozen_dataclasses(cls, data):
    pool = value_pool()[cls]
    assert len(pool) >= 2
    a = data.draw(st.sampled_from(pool))
    b = data.draw(st.sampled_from(pool))
    if data.draw(st.booleans()):
        b = cls(*(getattr(a, f) for f in cls._fields))   # equal, not same
    twin, other = dataclass_twin(cls), dataclass_twin(cls, "Other")
    ta, tb, oa, sa = (c(*(getattr(x, f) for f in cls._fields))
                      for c, x in ((twin, a), (twin, b), (other, a),
                                   (value_subclass(cls), a)))
    assert repr(a) == repr(ta) and repr(b) == repr(tb)
    assert (a == b, a != b, b == a) == (ta == tb, ta != tb, tb == ta)
    # another class with equal fields compares unequal, both ways
    assert (a == ta, a != ta, ta == a) == (a == sa, a != sa, sa == a) == \
        (ta == oa, ta != oa, oa == ta) == (False, True, False)
    assert _hash_outcome(a) == _hash_outcome(ta)
    assert _hash_outcome(b) == _hash_outcome(tb)
    for name in cls._fields + ("extra",):
        assert _message(setattr, a, name, 0) == _message(setattr, ta, name, 0)
        assert _message(delattr, a, name) == _message(delattr, ta, name)
    assert repr(a) == repr(ta)   # the refused writes changed nothing
