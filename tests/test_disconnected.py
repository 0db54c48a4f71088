"""Disconnected-group representation theory: the Weyl splitting, weight
stabilizers against a brute-force orbit oracle, the highest-weight
classification against the classical rank-one lists, Freudenthal
multiplicities against the dimension formula and hand counts, and exact
character evaluation including an explicit induced-matrix oracle."""

from fractions import Fraction

import pytest

from rk import presets
from rk.cyclotomic import Cyclo
from rk import disconnected, lattice
from rk.disconnected import (
    DisconnectedGroupDatum,
    HighestWeightPair,
    UnsupportedTraceError,
    char_eval,
    classify_irr,
    stabilizer_A_lambda,
    weight_multiplicities,
    weyl_dimension,
)
from rk.lattice import closure, mat, mat_vec
from rk.rootdata import BasedRootDatum, DatumError

from oracles import full_weyl, natural_quotient_rep, pi0_weyl_split


O2 = presets.disconnected("o2")
SWAP = presets.disconnected("gl1x1-swap")
GL2C = presets.disconnected("gl2-conn")
SL2C = presets.disconnected("sl2-conn")
SL3C = presets.disconnected("sl3-conn")


def test_pi0_split_o2():
    wc, comp, report = pi0_weyl_split(O2)
    assert report == {"connected_order": 1, "component_order": 2,
                      "full_order": 2, "trivial_intersection": True,
                      "generates": True}


def test_pi0_split_connected():
    _wc, comp, report = pi0_weyl_split(GL2C)
    assert report["component_order"] == 1
    assert report["full_order"] == report["connected_order"] == 2


def test_pi0_split_swap():
    _wc, _comp, report = pi0_weyl_split(SWAP)
    assert report["connected_order"] == 1 and report["component_order"] == 2


@pytest.mark.parametrize("name", presets.DISCONNECTED_NAMES)
def test_full_weyl_matches_matrix_closure(name):
    # the components may act trivially on the roots (o2 has none); oracle:
    # the matrix-keyed closure of the same generators
    w = full_weyl(presets.disconnected(name))
    words = closure(w.generators)[1] if w.generators else {w.identity: ()}
    assert w.words == words


def test_pi0_rejects_base_breaking():
    datum = presets.group("gl2").datum
    bad = mat([[0, 1], [1, 0]])  # sends the positive root to its negative
    with pytest.raises(DatumError):
        DisconnectedGroupDatum(datum, (bad,))


def test_pi0_rejects_a_generator_of_determinant_2(monkeypatch):
    # the determinant check comes first; without it the orbit 1, 2, 4, ...
    # of e_1 runs to the closure cap, which the small cap keeps fast
    monkeypatch.setattr(lattice, "DEFAULT_CLOSURE_CAP", 100)
    torus = BasedRootDatum(1, (), (), ())
    with pytest.raises(ValueError,
                       match="^action matrices must have determinant"):
        DisconnectedGroupDatum(torus, (mat([[2]]),))


def test_pi0_rejects_a_generator_that_breaks_the_coroots():
    # g = [[1, 1], [0, -1]] has order 2 and fixes the root (1, 0), so it
    # permutes the roots and the base; its contragredient g^T sends the
    # coroot (2, 0) to (2, 2), which is not a coroot
    datum = BasedRootDatum(2, ((1, 0), (-1, 0)), ((2, 0), (-2, 0)), (0,))
    with pytest.raises(DatumError,
                       match="^action generator breaks root/coroot pairing$"):
        DisconnectedGroupDatum(datum, (mat([[1, 1], [0, -1]]),))


@pytest.mark.parametrize("holder,lam,expected", [
    (O2, (0,), 2), (O2, (1,), 1), (O2, (3,), 1),
    (SWAP, (2, 2), 2), (SWAP, (1, 0), 1),
])
def test_stabilizer_sizes(holder, lam, expected):
    assert len(stabilizer_A_lambda(holder, lam)) == expected


def test_stabilizer_brute_orbit_oracle():
    # |orbit| * |stabilizer| = |pi0| on a sweep of dominant weights
    for holder in (O2, SWAP, GL2C):
        n = holder.component.rank
        from itertools import product
        for lam in product(range(0, 3), repeat=n):
            if not holder.is_dominant(lam):
                continue
            orbit = {mat_vec(g, lam) for g in holder.pi0.elements}
            stab = stabilizer_A_lambda(holder, lam)
            assert len(orbit) * len(stab) == len(holder.pi0)


def test_classify_o2_hand_list():
    # the classical rank-one list with a flip: two characters over the
    # fixed weight, one induced class per strictly positive weight
    pairs = classify_irr(O2, 1)
    labels = sorted((p.weight, p.module.dim,
                     sorted(v.pretty() for _e, v in p.module.character))
                    for p in pairs)
    assert labels == [
        ((0,), 1, ["-1", "1"]),
        ((0,), 1, ["1", "1"]),
        ((1,), 1, ["1"]),
    ]


def test_classify_gl2_bound1():
    pairs = classify_irr(GL2C, 1)
    assert [p.weight for p in pairs] == [(0, 0), (1, 0), (1, 1)]
    assert all(p.module.dim == 1 for p in pairs)


def test_classify_swap_mackey_oracle():
    # weight (1,0): stabilizer trivial, a single induced two-dimensional
    # class; weight (a,a): two one-dimensional stabilizer characters
    pairs = classify_irr(SWAP, 1)
    by_weight = {}
    for p in pairs:
        by_weight.setdefault(p.weight, []).append(p)
    assert len(by_weight[(1, 0)]) == 1
    assert len(by_weight[(1, 1)]) == 2
    assert len(by_weight[(0, 0)]) == 2


def test_classify_canonical_rep_is_orbit_greatest():
    pairs = classify_irr(SWAP, 2)
    for p in pairs:
        orbit = {mat_vec(g, p.weight) for g in SWAP.pi0.elements}
        assert p.weight == max(orbit)


# ---------------------------------------------------------------------------
# weight multiplicities

def test_freudenthal_sl2():
    t = weight_multiplicities(SL2C.component, (2,))
    assert dict(t.items()) == {(-2,): 1, (0,): 1, (2,): 1}
    assert t.dimension == 3


def test_freudenthal_gl2_string_oracle():
    # explicit rank-two count: weights (a-j, b+j) each once
    g = presets.group("gl2").datum
    t = weight_multiplicities(g, (3, 0))
    assert dict(t.items()) == {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}


def test_freudenthal_sl3_adjoint():
    t = weight_multiplicities(SL3C.component, (1, 1))
    assert t.dimension == 8
    assert t.multiplicity((0, 0)) == 2


def test_freudenthal_trivial_weight():
    for datum in (SL2C.component, SL3C.component):
        t = weight_multiplicities(datum, (0,) * datum.rank)
        assert dict(t.items()) == {(0,) * datum.rank: 1}


def test_freudenthal_total_matches_weyl_dimension_sweep():
    # rank <= 3, heights <= 4 (the totals are verified internally on every
    # call; this exercises the sweep)
    from itertools import product
    for datum in (SL2C.component, SL3C.component,
                  presets.group("sp4").datum, presets.group("gl3").datum):
        for lam in product(range(5), repeat=datum.rank):
            dominant = all(
                sum(a * b for a, b in zip(lam, datum.coroots[i])) >= 0
                for i in datum.simple_indices)
            if not dominant:
                continue
            t = weight_multiplicities(datum, lam)
            assert t.dimension == weyl_dimension(datum, lam)


def test_freudenthal_sp4_known_dims():
    d = presets.group("sp4").datum
    assert weyl_dimension(d, (1, 0)) == 4     # standard
    assert weyl_dimension(d, (1, 1)) == 5     # wedge-square minus trivial
    assert weyl_dimension(d, (2, 1)) == 16


# ---------------------------------------------------------------------------
# character evaluation

def _pair(holder, weight, index=0):
    bound = max(list(weight) + [0])
    pairs = [p for p in classify_irr(holder, bound) if p.weight == weight]
    return pairs[index]


def test_char_eval_sl2_principal():
    pair = _pair(SL2C, (2,))
    for q in (Fraction(2), Fraction(5, 3)):
        val = char_eval(SL2C, pair, lambda mu: q ** mu[0])
        assert val == q ** 2 + 1 + q ** -2


def test_char_eval_identity_dimension():
    # at the identity the value is dim(E) * [pi0 : A^lambda] * dim L(lambda)
    for holder, weight in ((O2, (1,)), (O2, (0,)), (SWAP, (1, 0)),
                           (GL2C, (2, 0))):
        for pair in classify_irr(holder, max(weight)):
            if pair.weight != weight:
                continue
            index = len(holder.pi0) // len(stabilizer_A_lambda(holder, weight))
            expected = pair.module.dim * index * \
                weyl_dimension(holder.component, weight)
            val = char_eval(holder, pair, lambda mu: Fraction(1))
            assert val == Fraction(expected)


def test_char_eval_o2_induced_matrix_oracle():
    # the flip-induced class evaluated on the torus: explicit 2x2 induced
    # matrices give diag(q, 1/q), trace q + 1/q
    pair = _pair(O2, (1,))
    for q in (Fraction(3), Fraction(7, 2)):
        rows = [[q, 0], [0, 1 / q]]
        oracle = rows[0][0] + rows[1][1]
        val = char_eval(O2, pair, lambda mu: q ** mu[0])
        assert val == oracle


def test_char_eval_root_of_unity_exact():
    pair = _pair(O2, (1,))
    z = Cyclo.root_of_unity(Fraction(1, 3))
    zi = Cyclo.root_of_unity(Fraction(-1, 3))
    val = char_eval(O2, pair, lambda mu: z if mu[0] == 1 else zi)
    assert val == z + zi
    assert val.as_rational() == Fraction(-1)


def test_char_eval_unsupported_twist():
    pair = _pair(O2, (0,))
    flip = mat([[-1]])
    with pytest.raises(UnsupportedTraceError):
        char_eval(O2, pair, lambda mu: Fraction(1), component=flip)


def test_char_eval_twist_with_provider():
    # the sign character of the rank-one flip group evaluated on the flip
    # component: E contributes its character value, the provider the
    # twisted torus trace
    pairs = [p for p in classify_irr(O2, 0)]
    flip = mat([[-1]])
    for pair in pairs:
        val = char_eval(O2, pair, lambda mu: Fraction(1), component=flip,
                        twist_provider=lambda lam, f, comp: Fraction(1))
        assert val == pair.module.chi(flip)


def test_natural_quotient_rep():
    pair = _pair(SWAP, (1, 1), 0)
    cert = natural_quotient_rep(SWAP, pair, [(1, -1)])
    assert cert["descends"]
    with pytest.raises(AssertionError):
        natural_quotient_rep(SWAP, _pair(SWAP, (1, 0)), [(1, 0)])


def test_natural_quotient_rejects_nontrivial_root_pairing():
    pair = _pair(GL2C, (1, 0))
    with pytest.raises(AssertionError):
        natural_quotient_rep(GL2C, pair, [])


def test_classify_is_bijective_onto_range():
    # distinct outputs are pairwise non-isomorphic and every dominant
    # weight in the box is hit by exactly one orbit representative
    from itertools import product
    for holder in (O2, SWAP, GL2C):
        pairs = classify_irr(holder, 2)
        labels = [(p.weight, p.module.label()) for p in pairs]
        assert len(set(labels)) == len(labels)
        reps = {p.weight for p in pairs}
        n = holder.component.rank
        for lam in product(range(3), repeat=n):
            if not holder.is_dominant(lam):
                continue
            orbit = {mat_vec(g, lam) for g in holder.pi0.elements}
            assert orbit & reps, lam


def test_classify_irr_rejects_a_weight_box_over_budget(monkeypatch):
    assert disconnected.MAX_WEIGHT_BOX == 10**6
    with pytest.raises(ValueError, match=r"^height bound 1000 gives a box of "
                       r"\(1000\+1\)\^2 weights, over the limit of 1000000$"):
        classify_irr(SL3C, 1000)
    # the bound is inclusive: a box of exactly the limit is walked
    monkeypatch.setattr(disconnected, "MAX_WEIGHT_BOX", 9)
    assert classify_irr(SL3C, 2) == classify_irr(SL3C, 2)
    with pytest.raises(ValueError, match="^height bound 3 gives a box"):
        classify_irr(SL3C, 3)
