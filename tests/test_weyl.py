"""Chamber location, transporters, double cosets, the geometric-lemma
index, and stabilizers, checked against an independent permutation-level
brute force for the rank-4 cases."""

import itertools
import random
from fractions import Fraction

import pytest

from rk import presets
from rk.lattice import mat_contragredient, mat_vec
from rk.weyl import (
    chamber_locate,
    double_coset_reps,
    geometric_lemma_index,
    stabilizer,
    stratum_of,
    transporter_set,
)


# ---------------------------------------------------------------------------
# independent permutation oracle (S_4 acting on Q^4)

def _perm_apply(p, v):
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[p[i]] = x
    return tuple(out)


def _span_contains(vectors, target):
    # tiny Gaussian elimination over fractions, independent of the package
    if not vectors:
        return all(x == 0 for x in target)
    ncoords = len(target)
    nvecs = len(vectors)
    aug = [[Fraction(vectors[j][i]) for j in range(nvecs)]
           + [Fraction(target[i])] for i in range(ncoords)]
    r = 0
    for c in range(nvecs):
        piv = next((i for i in range(r, ncoords) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(ncoords):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    return all(aug[i][nvecs] == 0 for i in range(r, ncoords))


A_22 = [(1, 1, 0, 0), (0, 0, 1, 1)]     # split center of the 2+2 Levi


def _brute_transporter(levi1_basis, levi2_basis):
    out = []
    for p in itertools.permutations(range(4)):
        image = [_perm_apply(p, v) for v in levi1_basis]
        if all(_span_contains(image, v) for v in levi2_basis):
            out.append(p)
    return out


def test_transporter_gl4_22_brute_oracle():
    g = presets.group("gl4")
    mine = transporter_set(g, frozenset({0, 2}), frozenset({0, 2}))
    brute = _brute_transporter(A_22, A_22)
    assert len(mine) == len(brute) == 8


def _brute_transporter_scan(g, levi1, levi2):
    # the span-containment definition, with Fraction inverses and the
    # elimination above instead of the group's tables and in_span
    b1 = g.levi_context(levi1).split_center_basis
    b2 = g.levi_context(levi2).split_center_basis
    out = []
    for m in g.relative.elements:
        image = [mat_vec(mat_contragredient(m), y) for y in b1]
        if all(_span_contains(image, y) for y in b2):
            out.append(m)
    return tuple(out)


def _levi_pairs(g):
    subsets = g.standard_levi_subsets()
    pairs = list(itertools.product(subsets, subsets))
    # every pair up to gl4; the brute scan of all pairs takes half a
    # minute on gl5 and several on gl6, so those get a fixed sample
    budget = max(4, 2000 // len(g.relative))
    if len(pairs) > budget:
        pairs = random.Random(len(pairs)).sample(pairs, budget)
    return pairs


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_transporter_set_matches_brute_scan(name):
    g = presets.group(name)
    for levi1, levi2 in _levi_pairs(g):
        assert transporter_set(g, levi1, levi2) == \
            _brute_transporter_scan(g, levi1, levi2)


def _cached_values(g):
    out = {}
    for l1 in g.standard_levi_subsets():
        out[("W_L", l1)] = g.levi_weyl_elements(l1)
        for l2 in g.standard_levi_subsets():
            out[("T", l1, l2)] = transporter_set(g, l1, l2)
    return out


def test_group_caches_are_per_instance_and_order_free():
    gl3, u3 = presets.group("gl3"), presets.group("u3")
    forward = _cached_values(gl3)
    u3_values = _cached_values(u3)
    # the other group's calls leave each instance's results alone
    assert _cached_values(gl3) == forward
    # both groups have the Levis {} and {0, 1}, with different answers
    assert gl3.full_subset() == u3.full_subset()
    for g, values in ((gl3, forward), (u3, u3_values)):
        full = g.full_subset()
        assert values[("W_L", full)] == values[("T", full, full)] == \
            g.relative.elements
        assert all(set(v) <= set(g.relative.elements) for v in values.values())
    # a fresh instance filled in the reverse order agrees
    fresh = presets.group("gl3")
    for key in reversed(list(forward)):
        if key[0] == "W_L":
            assert fresh.levi_weyl_elements(key[1]) == forward[key]
        else:
            assert transporter_set(fresh, key[1], key[2]) == forward[key]
    # repeated calls hand back the cached object; every value is immutable
    for g in (gl3, u3, fresh):
        full = g.full_subset()
        assert g.levi_weyl_elements(full) is g.levi_weyl_elements(full)
        assert transporter_set(g, full, full) is transporter_set(g, full, full)
        for value in _cached_values(g).values():
            assert type(value) is tuple
            assert all(type(m) is tuple and all(type(row) is tuple for row in m)
                       for m in value)


def test_transporter_torus_to_full_is_everything():
    g = presets.group("gl2")
    assert len(transporter_set(g, frozenset(), g.full_subset())) == 2


def test_transporter_full_to_full_is_everything():
    g = presets.group("gl3")
    full = g.full_subset()
    assert len(transporter_set(g, full, full)) == len(g.relative)


def test_double_cosets_gl4_22():
    g = presets.group("gl4")
    reps = double_coset_reps(g, frozenset({0, 2}), frozenset({0, 2}))
    assert len(reps) == 2
    images = {tuple(mat_vec(mat_contragredient(m), (1, 1, 0, 0)))
              for m in reps}
    # the identity and the block swap
    assert images == {(1, 1, 0, 0), (0, 0, 1, 1)}


def test_double_cosets_count_equals_coset_count():
    # |W^rel[L1, L2]| = |W^rel_{L2} \ W^rel(L1, L2)| on all preset pairs
    from rk.lattice import mat_mul
    for name in ("gl3", "gl4", "sp4", "gl2x2-swap"):
        g = presets.group(name)
        for l1 in g.standard_levi_subsets():
            for l2 in g.standard_levi_subsets():
                trans = transporter_set(g, l1, l2)
                left = g.levi_weyl_elements(l2)
                cosets = {frozenset(mat_mul(l, t) for l in left)
                          for t in trans}
                assert len(double_coset_reps(g, l1, l2)) == len(cosets)


def test_double_cosets_torus_torus_full():
    g = presets.group("gl3")
    assert len(double_coset_reps(g, frozenset(), frozenset())) == 6


def test_double_cosets_full_full_identity():
    g = presets.group("gl2")
    reps = double_coset_reps(g, g.full_subset(), g.full_subset())
    assert reps == (g.relative.identity,)


def _brute_double_cosets_s4():
    sub = [p for p in itertools.permutations(range(4))
           if p[0] in (0, 1) and p[1] in (0, 1)
           and p[2] in (2, 3) and p[3] in (2, 3)]
    assert len(sub) == 4
    def compose(p, q):
        return tuple(p[q[i]] for i in range(4))
    elements = list(itertools.permutations(range(4)))
    seen = set()
    count = 0
    for w in elements:
        if w in seen:
            continue
        orbit = {compose(a, compose(w, b)) for a in sub for b in sub}
        seen |= orbit
        count += 1
    return count


def test_geometric_lemma_gl4_22_brute_oracle():
    g = presets.group("gl4")
    idx = geometric_lemma_index(g, frozenset({0, 2}), frozenset({0, 2}))
    assert len(idx) == _brute_double_cosets_s4() == 3


def test_geometric_lemma_torus_gl2():
    g = presets.group("gl2")
    assert len(geometric_lemma_index(g, frozenset(), frozenset())) == 2


def test_geometric_lemma_full():
    g = presets.group("gl4")
    full = g.full_subset()
    assert len(geometric_lemma_index(g, full, full)) == 1


def test_geometric_lemma_intersections():
    g = presets.group("gl4")
    idx = geometric_lemma_index(g, frozenset({0, 2}), frozenset({0, 2}))
    sizes = sorted(len(left) for _m, left, right in idx)
    # identity and block swap keep the whole Levi; the middle rep cuts to T
    assert sizes == [0, 4, 4]


# ---------------------------------------------------------------------------
# chambers

def test_chamber_strict_sort():
    g = presets.group("gl3")
    w = chamber_locate(g, (0, 2, 1))
    assert w.image == (2, 1, 0)
    assert w.levi == frozenset()


def test_chamber_wall():
    g = presets.group("gl3")
    w = chamber_locate(g, (1, 0, 1))
    assert w.image == (1, 1, 0)
    assert w.levi == frozenset({0})


def test_chamber_central():
    g = presets.group("gl3")
    c = Fraction(5, 3)
    w = chamber_locate(g, (c, c, c))
    assert w.matrix == g.relative.identity
    assert w.levi == g.full_subset()


def test_chamber_witness_uniqueness():
    # all witnesses give the same image and facet
    g = presets.group("gl4")
    rng = random.Random(5)
    for _ in range(50):
        x = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                  for _ in range(4))
        w = chamber_locate(g, x)
        for m in g.relative.elements:
            moved = mat_vec(mat_contragredient(m), x)
            if g.dominant(moved):
                assert moved == w.image
                assert g.facet_levi(moved) == w.levi


def _random_relative_point(g, rng):
    basis = g.fixed_cochar_basis
    point = tuple(Fraction(0) for _ in range(g.datum.rank))
    for y in basis:
        c = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))
        point = tuple(p + c * v for p, v in zip(point, y))
    return point


@pytest.mark.parametrize("name", ["gl2", "gl3", "gl4", "sl2",
                                  "gl2x2-swap", "sp4", "u3"])
def test_partition_property(name):
    # every dominant image lies in exactly one open facet
    g = presets.group(name)
    rng = random.Random(hash(name) % 100000)
    for _ in range(200):
        x = _random_relative_point(g, rng)
        w = chamber_locate(g, x)
        hits = 0
        for subset in g.standard_levi_subsets():
            pairings = g.simple_pairing(w.image)
            inside = all(
                (pairings[pos] == 0) if pos in subset else (pairings[pos] > 0)
                for pos in range(len(g.datum.simple_indices)))
            hits += inside
        assert hits == 1
        assert stratum_of(g, w.image) == w.levi


def test_stabilizer_examples():
    g = presets.group("gl3")
    elems, levi = stabilizer(g, (3, 2, 1))
    assert len(elems) == 1 and levi == frozenset()
    elems, levi = stabilizer(g, (1, 1, 0))
    assert len(elems) == 2 and levi == frozenset({0})
    elems, levi = stabilizer(g, (2, 2, 2))
    assert len(elems) == 6 and levi == g.full_subset()


def test_stabilizer_matches_facet_levi():
    for name in ("gl3", "gl4", "gl2x2-swap", "sp4"):
        g = presets.group(name)
        rng = random.Random(len(name))
        for _ in range(100):
            x = _random_relative_point(g, rng)
            w = chamber_locate(g, x)
            elems, levi = stabilizer(g, w.image)
            assert levi == w.levi
            assert set(elems) == set(g.levi_weyl_elements(levi))
