"""Finite-group module machinery: character tables through both the
abelian and the modular route, cocycle trivialization, and the squared
dimension identity."""

import hashlib
from fractions import Fraction

import pytest

from rk.cyclotomic import Cyclo
from rk.finite_reps import (
    CocycleError,
    FiniteGroup,
    Module,
    _abelian_characters,
    _dixon_characters,
    character_table,
    simple_modules,
    trivialize_cocycle,
    validate_cocycle,
)
from rk import lattice
from rk.lattice import closure, mat, mat_identity

from oracles import canonical_by_solve


def perm_mat(p):
    n = len(p)
    return tuple(tuple(1 if p[j] == i else 0 for j in range(n))
                 for i in range(n))


S3 = FiniteGroup.from_matrices([perm_mat((1, 0, 2)), perm_mat((0, 2, 1))])
S4 = FiniteGroup.from_matrices([perm_mat((1, 0, 2, 3)),
                                perm_mat((0, 2, 1, 3)),
                                perm_mat((0, 1, 3, 2))])
Z2 = FiniteGroup.from_matrices([mat([[-1]])])
Z4 = FiniteGroup.from_matrices([mat([[0, -1], [1, 0]])])
Z6 = FiniteGroup.from_matrices([perm_mat((1, 2, 3, 4, 5, 0))])
D4 = FiniteGroup.from_matrices([mat([[0, -1], [1, 0]]),
                                mat([[1, 0], [0, -1]])])
# D4 x Z2 x Z2 on Z^4: order 32 and exponent 4, with 20 classes
D4Z2Z2 = FiniteGroup.from_matrices(
    [mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])]
    + [mat([[-1 if i == j == k else int(i == j) for j in range(4)]
            for i in range(4)]) for k in (1, 2, 3)])


def test_z2_modules():
    mods = simple_modules(Z2)
    assert sorted(m.dim for m in mods) == [1, 1]
    signs = {m.chi(mat([[-1]])).as_rational() for m in mods}
    assert signs == {Fraction(1), Fraction(-1)}


def test_s3_classical_dims():
    assert sorted(m.dim for m in simple_modules(S3)) == [1, 1, 2]


def test_s3_character_values_frozen():
    two = [m for m in simple_modules(S3) if m.dim == 2][0]
    values = sorted(v.as_rational() for _e, v in two.character)
    # 2 at the identity, 0 at the three transpositions, -1 at the two
    # three-cycles
    assert values == [-1, -1, 0, 0, 0, 2]


def test_s4_dims():
    assert sorted(m.dim for m in simple_modules(S4)) == [1, 1, 2, 3, 3]


def test_d4_dims():
    assert sorted(m.dim for m in simple_modules(D4)) == [1, 1, 1, 1, 2]


@pytest.mark.parametrize("group", [Z2, Z4, Z6, S3, S4, D4])
def test_sum_of_squares(group):
    mods = simple_modules(group)
    assert sum(m.dim ** 2 for m in mods) == len(group)
    assert len({m.label() for m in mods}) == len(mods)


def test_module_label_is_formed_once(monkeypatch):
    # a frozen module keeps its label: the values are printed on the first
    # call only, and the label is the dim with the values' pretty forms
    mods = [Module(m.dim, m.character)
            for m in simple_modules(S4)]
    printed = []
    pretty = Cyclo.pretty

    def counted(value):
        printed.append(value)
        return pretty(value)
    monkeypatch.setattr(Cyclo, "pretty", counted)
    for _ in range(3):
        for m in mods:
            assert m.label() == (m.dim, tuple(pretty(v)
                                              for _e, v in m.character))
    assert len(printed) == sum(len(m.character) for m in mods)


def test_orthogonality_rows():
    # first orthogonality over the group algebra, exactly
    for group in (S3, D4):
        mods = simple_modules(group)
        n = len(group)
        for a in mods:
            for b in mods:
                total = Cyclo.zero()
                for g in group.elements:
                    total = total + a.chi(g) * b.chi(group.inverse[g])
                expected = n if a.label() == b.label() else 0
                assert total == Cyclo.from_rational(expected)


def test_table_with_more_classes_than_the_least_prime():
    # order 32 and exponent 4 alone would pick p = 13, at which the
    # characteristic polynomials of the 20-dimensional class algebra
    # cannot be interpolated; the prime must exceed the class count too
    assert len(D4Z2Z2.conjugacy_classes()) == 20
    table = character_table(D4Z2Z2)
    degrees = sorted(t[D4Z2Z2.identity].as_rational() for t in table)
    assert degrees == [1] * 16 + [2] * 4
    assert sum(d * d for d in degrees) == len(D4Z2Z2)
    for a in table:
        for b in table:
            total = Cyclo.zero()
            for g in D4Z2Z2.elements:
                total = total + a[g] * b[D4Z2Z2.inverse[g]]
            assert total == Cyclo.from_rational(len(D4Z2Z2) if a is b else 0)


def _weyl_as_finite_group(name):
    from rk import presets
    return FiniteGroup.from_matrices(presets.group(name).weyl.generators)


def test_weyl_gl6_character_table():
    # S6: 11 characters, all integer valued, of squared degrees summing to
    # 720, and orthogonal rows
    group = _weyl_as_finite_group("gl6")
    table = character_table(group)
    assert len(table) == 11
    rows = [[t[g].as_rational() for g in group.elements] for t in table]
    assert sum(row[group.index[group.identity]] ** 2 for row in rows) == 720
    inv = [group.index[group.inverse[g]] for g in group.elements]
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            assert sum(x * b[k] for x, k in zip(a, inv)) == \
                (720 if i == j else 0)


def test_weyl_gl5_character_table_pinned():
    # sha256 of the table's repr as the class-algebra route gave it before
    # the groups were interned by permutations
    table = character_table(_weyl_as_finite_group("gl5"))
    assert hashlib.sha256(repr(table).encode()).hexdigest() == \
        "a1a622d7c9a0b46c0594758c1e4c53c637f76772442513feb742edf61660823d"


def test_abelian_and_modular_routes_agree():
    # run the nonabelian machinery on abelian groups and compare; the
    # trivial group has exponent 1, where every prime is 1 mod the exponent
    trivial = FiniteGroup.from_matrices([mat_identity(1)])
    for group in (Z4, trivial):
        fast = {frozenset((repr(k), repr(v)) for k, v in t.items())
                for t in _abelian_characters(group)}
        slow = {frozenset((repr(k), repr(v)) for k, v in t.items())
                for t in _dixon_characters(group)}
        assert fast == slow


def test_cocycle_trivialization_cyclic():
    # any valid 2-cocycle on a cyclic group trivializes; build one from a
    # hidden coboundary and check the solver rediscovers one
    gen = mat([[0, -1], [1, 0]])
    powers = [Z4.identity]
    for _ in range(3):
        powers.append(Z4.mul(powers[-1], gen))
    beta = {powers[k]: Fraction(k, 8) for k in range(4)}
    cocycle = {}
    for a in Z4.elements:
        for b in Z4.elements:
            cocycle[(a, b)] = (beta[a] + beta[b] - beta[Z4.mul(a, b)]) % 1
    validate_cocycle(Z4, cocycle)
    found = trivialize_cocycle(Z4, cocycle)
    for a in Z4.elements:
        for b in Z4.elements:
            assert (found[a] + found[b] - found[Z4.mul(a, b)]) % 1 == \
                cocycle[(a, b)]
    mods = simple_modules(Z4, cocycle)
    assert [m.dim for m in mods] == [1, 1, 1, 1]


def test_cocycle_rejects_non_cocycle():
    bad = {(a, b): Fraction(1, 3) for a in Z2.elements for b in Z2.elements}
    with pytest.raises(CocycleError):
        validate_cocycle(Z2, bad)


def test_twisted_characters_scale():
    gen = mat([[0, -1], [1, 0]])
    powers = [Z4.identity]
    for _ in range(3):
        powers.append(Z4.mul(powers[-1], gen))
    beta = {powers[k]: Fraction(k, 4) for k in range(4)}
    cocycle = {(a, b): (beta[a] + beta[b] - beta[Z4.mul(a, b)]) % 1
               for a in Z4.elements for b in Z4.elements}
    plain = {tuple(sorted((repr(e), v.pretty()) for e, v in m.character))
             for m in simple_modules(Z4)}
    twisted = simple_modules(Z4, cocycle)
    assert sum(m.dim ** 2 for m in twisted) == 4
    # a trivialization is unique up to a character, so the twisted set is a
    # (possibly permuted) rescaling of the plain one
    assert len(twisted) == 4


def test_character_table_deterministic():
    t1 = character_table(S3)
    t2 = character_table(S3)
    assert [sorted(repr(v) for v in t.values()) for t in t1] == \
        [sorted(repr(v) for v in t.values()) for t in t2]


def test_conjugacy_classes_s3():
    classes = S3.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    assert classes[0][0] == S3.identity


def _root(a, d):
    """zeta_d^a at conductor d, as written, not reduced to its conductor."""
    return Cyclo(d, [1 if i == a else 0 for i in range(d)])


def test_root_of_unity_is_canonical():
    # the direct minimal-conductor form against the trace descent
    for d in range(1, 97):
        for a in range(d):
            got = Cyclo.root_of_unity(Fraction(a, d))
            want = _root(a, d)._canonical()
            assert (got.n, got.coeffs) == (want.n, want.coeffs), (a, d)


def test_descent_matches_the_solve_on_roots_of_unity():
    # the trace descent against one rational solve per divisor
    for d in range(1, 49):
        for a in range(d):
            got = _root(a, d)._canonical()
            want = canonical_by_solve(_root(a, d))
            assert (got.n, got.coeffs) == (want.n, want.coeffs), (a, d)


# ---------------------------------------------------------------------------
# inverses

def _scan_inverses(group):
    """The product scan the power walk replaces: the first b with a.b = 1."""
    return {a: next(b for b in group.elements
                    if group.mul(a, b) == group.identity)
            for a in group.elements}


def _preset_groups():
    """Every preset's component group with the stabilizers of the weights
    its classification reaches at height 2, and W(gl4), W(gl5)."""
    from rk import presets
    from rk.disconnected import classify_irr, stabilizer_A_lambda
    holders = [(n, presets.disconnected(n))
               for n in presets.DISCONNECTED_NAMES]
    holders += [(n, presets.parameter(n).centralizer)
                for n in presets.PARAM_NAMES]
    for name, holder in holders:
        yield name, holder.pi0, None
        for pair in classify_irr(holder, 2):
            yield name, stabilizer_A_lambda(holder, pair.weight), holder.pi0
    for name in ("gl4", "gl5"):
        gens = presets.group(name).weyl.generators
        yield "W(%s)" % name, FiniteGroup.from_matrices(gens), None


def test_inverses_match_product_scan():
    seen = 0
    for name, group, parent in _preset_groups():
        assert group.inverse == _scan_inverses(group), name
        if parent is not None:
            assert set(group.elements) <= set(parent.elements)
        seen += 1
    assert seen > 20
    for group in (Z2, Z4, Z6, S3, S4, D4):
        assert group.inverse == _scan_inverses(group)


def test_inverses_reject_a_non_group():
    # 0 sends the points 1 and 0 to 0
    with pytest.raises(ValueError, match="element without inverse"):
        FiniteGroup.from_matrices([mat([[0]])])
    # the powers of a projection stay a projection, never returning to 1
    with pytest.raises(ValueError, match="element without inverse"):
        FiniteGroup.from_matrices([mat([[1, 0], [0, 0]])])
    # a 3-cycle without its inverse is not a subgroup of S3
    three_cycle = perm_mat((1, 2, 0))
    with pytest.raises(ValueError, match="element without inverse"):
        S3.subgroup((S3.identity, three_cycle))


# ---------------------------------------------------------------------------
# matrix groups grown by orbit, against the reference closure

def _raised(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _generator_sets():
    """The character and cocharacter Galois generators of every preset
    group, the component generators of every disconnected group, and two
    Weyl groups."""
    from rk import presets
    for name in presets.GROUP_NAMES:
        galois = presets.group(name).galois
        yield name, galois.char_generators
        yield name + "^vee", galois.cochar_generators
    holders = [(n, presets.disconnected(n))
               for n in presets.DISCONNECTED_NAMES]
    holders += [(n, presets.parameter(n).centralizer)
                for n in presets.PARAM_NAMES]
    for name, holder in holders:
        yield name, holder.declared_generators + (
            mat_identity(holder.component.rank),)
    # orbits of the basis vectors shorter than the group: a cap between
    # the two passes the orbit check and is hit by the closure
    for name in ("gl4", "sp4"):
        yield "W(%s)" % name, presets.group(name).weyl.generators


def test_matrix_groups_match_closure(monkeypatch):
    seen = 0
    for name, gens in _generator_sets():
        order = closure(gens)[0]
        assert FiniteGroup.from_matrices(gens).elements == \
            tuple(sorted(order)), name
        # one element short of the group: the same rejection, or none
        # for the trivial group, whose closure inserts nothing
        cap = len(order) - 1
        want = _raised(closure, gens, cap)
        assert want == (None if cap == 0 else
                        "group closure exceeded cap of %d elements" % cap)
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "DEFAULT_CLOSURE_CAP", cap)
            assert _raised(FiniteGroup.from_matrices, gens) == want, name
        seen += len(order) > 1
    assert seen >= 8
