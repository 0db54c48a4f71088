"""Acceptance criteria, one test per criterion, every comparison exact.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion with its timing.
"""

import random
import time
from fractions import Fraction

import pytest

from rk import presets
from rk.cyclotomic import Cyclo
from rk.disconnected import (
    HighestWeightPair,
    classify_irr,
    stabilizer_A_lambda,
    weight_multiplicities,
    weyl_dimension,
)
from rk.endoscopy import (
    eci_both_sides,
    indexing_bijection_check,
    jacquet_geometric_terms,
    parameter_on_h,
    enumerate_embedded,
    regular_part,
    regular_pairing,
)
from rk.finite_reps import simple_modules
from rk.kottwitz import BElement, newton
from rk.packets import (
    build_packet_member,
    central_character_square,
    enumerate_fiber,
    enumerate_rhos,
    round_trip_check,
)
from rk.weyl import chamber_locate, stabilizer


def _report(name, started, note=""):
    took = time.time() - started
    print("PASS %-38s %6.2fs  %s" % (name, took, note))


def _rho(param, weight, index=0):
    mods = param.centralizer.stabilizer_modules(tuple(weight))
    return HighestWeightPair(tuple(weight), mods[index])


def test_criterion_1_rank2_worked_example():
    """Two-dimensional pairs on the rank-2 group: non-basic element with
    torus centralizer, singleton fiber, pairing value 2, identity holds
    with a single coefficient-2 term.  Budget: 1 s."""
    started = time.time()
    param = presets.parameter("gl2-triv")
    endo = presets.endoscopy("gl2-s1")
    for weight in ((1, 0), (2, 1)):
        member = build_packet_member(param, _rho(param, weight))
        assert not member.b.is_basic(param.group)
        assert member.levi == frozenset()        # the torus Levi
        fiber = enumerate_fiber(param, member.b)
        assert len(fiber) == 1
        assert regular_pairing(param, member, endo) == Cyclo.from_rational(2)
        out = eci_both_sides(param, member.b, endo)
        assert out["equal"]
        items = out["rhs"].items()
        assert len(items) == 1
        assert items[0][1] == Cyclo.from_rational(2)
        assert out["lhs"].items()[0][1] == Cyclo.from_rational(2)
    took = time.time() - started
    assert took < 1.0, "criterion 1 exceeded its time budget: %.2fs" % took
    _report("criterion 1: rank-2 example", started)


def test_criterion_2_rank4_worked_example():
    """Rank-4 with the doubled discrete-series-type parameter: exactly 3
    geometric-lemma terms, the regular part a single coefficient-2 label,
    exactly one discarded nonregular term, identity holds.  Budget: 1 s."""
    started = time.time()
    param = presets.parameter("gl4-st2")
    endo = presets.endoscopy("gl4-s1")
    member = build_packet_member(param, _rho(param, (1, 0)))
    param_h, _h = parameter_on_h(param, endo)
    embs = enumerate_embedded(param, member.levi, endo)
    assert len(embs) == 1
    terms = jacquet_geometric_terms(endo, embs[0], param_h)
    total = sum(int(c.as_rational()) for _t, c in terms.items())
    assert total == 3
    reg = regular_part(terms)
    assert len(reg.items()) == 1
    assert reg.items()[0][1] == Cyclo.from_rational(2)
    nonregular = [t for t, _c in terms.items() if t.kind == "nonregular"]
    assert len(nonregular) == 1
    out = eci_both_sides(param, member.b, endo)
    assert out["equal"]
    assert sum(int(c.as_rational())
               for _t, c in out["discarded_nonregular"].items()) == 1
    took = time.time() - started
    assert took < 1.0, "criterion 2 exceeded its time budget: %.2fs" % took
    _report("criterion 2: rank-4 example", started)


def test_criterion_3_bijectivity_suite():
    """Round trips at height bound 4 across the preset suite: injectivity
    and exhaustion against the coset-side enumeration, zero discrepancies.
    Budget: 1.5 s."""
    started = time.time()
    total_pairs = 0
    for name in ("gl2-triv", "gl3-triv", "gl4-triv", "gl4-st2",
                 "sl2-triv", "gl2x2-swap-triv"):
        rep = round_trip_check(presets.parameter(name), 4)
        assert rep["pass"], (name, rep)
        total_pairs += rep["pairs"]
    took = time.time() - started
    assert took < 1.5, "criterion 3 exceeded its time budget: %.2fs" % took
    _report("criterion 3: bijectivity suite", started,
            "%d pairs" % total_pairs)


def test_criterion_4_chamber_stabilizer_suite():
    """1000 random rational points per preset land in exactly one open
    facet; the stabilizer of each dominant image is the Weyl group of its
    facet Levi.  Budget: 5 s."""
    started = time.time()
    checked = 0
    for name in ("gl2", "gl3", "gl4", "sl2", "gl2x2-swap", "sp4", "u3"):
        group = presets.group(name)
        rng = random.Random(20260809 + len(name))
        basis = group.fixed_cochar_basis
        for _ in range(1000):
            x = tuple(Fraction(0) for _ in range(group.datum.rank))
            for y in basis:
                c = Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4)))
                x = tuple(p + c * v for p, v in zip(x, y))
            witness = chamber_locate(group, x)
            pairings = group.simple_pairing(witness.image)
            hits = 0
            for subset in group.standard_levi_subsets():
                inside = all((pairings[pos] == 0) if pos in subset
                             else (pairings[pos] > 0)
                             for pos in range(len(group.datum.simple_indices)))
                hits += inside
            assert hits == 1
            elems, levi = stabilizer(group, witness.image)
            assert levi == witness.levi
            assert set(elems) == set(group.levi_weyl_elements(levi))
            checked += 1
    took = time.time() - started
    assert took < 5.0, "criterion 4 exceeded its time budget: %.2fs" % took
    _report("criterion 4: chamber/stabilizer", started, "%d points" % checked)


def test_criterion_5_kottwitz_newton_box():
    """Newton equals the center isomorphism applied to the invariant on
    every basic class in a box of radius 3, exactly.  Budget: 1 s."""
    started = time.time()
    checked = 0
    for name in ("gl2", "gl3", "gl4", "sl2", "pgl2", "gl2x2-swap",
                 "sp4", "so4", "so6"):
        group = presets.group(name)
        full = group.full_subset()
        ctx = group.levi_context(full)
        for e in ctx.dual_center_characters.elements_in_box(3):
            b = BElement(full, e)
            nu = newton(group, b)
            assert group.dominant(nu)
            assert group.facet_levi(nu) == full
            # the defining relation of the inverse isomorphism, checked
            # through the pairing: <nu, u_i> recovers the free functional
            f = ctx.functional_of_kappa(e)
            for target, u in zip(f, ctx.dual_split_center_basis):
                assert sum(a * b_ for a, b_ in zip(nu, u)) == target
            checked += 1
    took = time.time() - started
    assert took < 1.0, "criterion 5 exceeded its time budget: %.2fs" % took
    _report("criterion 5: Kottwitz-Newton box", started,
            "%d elements" % checked)


def test_criterion_6_representation_suite():
    """Squared dimensions, Freudenthal totals against the dimension
    formula for rank <= 3 and height <= 4, the classical rank-one
    classification, and the stabilizer identification on every weight of
    the bijectivity suite.  Budget: 6 s."""
    started = time.time()
    # sum of squared dimensions over the component groups in use
    for name in ("o2", "gl1x1-swap"):
        holder = presets.disconnected(name)
        mods = simple_modules(holder.pi0)
        assert sum(m.dim ** 2 for m in mods) == len(holder.pi0)
    # Freudenthal totals
    from itertools import product as iproduct
    for datum in (presets.group("gl2").datum, presets.group("gl3").datum,
                  presets.disconnected("sl2-conn").component,
                  presets.disconnected("sl3-conn").component,
                  presets.group("sp4").datum):
        for lam in iproduct(range(5), repeat=datum.rank):
            if any(sum(a * b for a, b in zip(lam, datum.coroots[i])) < 0
                   for i in datum.simple_indices):
                continue
            table = weight_multiplicities(datum, lam)
            assert table.dimension == weyl_dimension(datum, lam)
    # the classical rank-one list with a flip
    pairs = classify_irr(presets.disconnected("o2"), 1)
    labels = sorted((p.weight, p.module.dim,
                     sorted(v.pretty() for _e, v in p.module.character))
                    for p in pairs)
    assert labels == [((0,), 1, ["-1", "1"]), ((0,), 1, ["1", "1"]),
                      ((1,), 1, ["1"])]
    # stabilizer identification along every enumerated packet weight:
    # asserted inside the construction; exercise the full sweep
    for name in ("gl2-triv", "gl4-st2", "gl2x2-swap-triv"):
        param = presets.parameter(name)
        for rho in enumerate_rhos(param, 4):
            build_packet_member(param, rho)
    took = time.time() - started
    assert took < 6.0, "criterion 6 exceeded its time budget: %.2fs" % took
    _report("criterion 6: representation suite", started)


def test_criterion_7_indexing_bijection():
    """The two-sided index identification for the rank-4 endoscopy pair
    at both torus elements and every standard Levi, with cardinalities
    matching the double-coset counts.  Budget: 1 s."""
    started = time.time()
    param = presets.parameter("gl4-st2")
    for ename in ("gl4-s1", "gl4-splus"):
        endo = presets.endoscopy(ename)
        for levi in param.group.standard_levi_subsets():
            if not (param.minimal_levi <= levi):
                continue
            rep = indexing_bijection_check(param, levi, endo)
            assert rep["pass"], (ename, sorted(levi), rep)
            assert rep["lhs_size"] == rep["rhs_size"]
    took = time.time() - started
    assert took < 1.0, "criterion 7 exceeded its time budget: %.2fs" % took
    _report("criterion 7: indexing bijection", started)


def test_criterion_8_central_character_square():
    """The central character of every pair in the bijectivity suite equals
    the pushed invariant of its element (all these groups have free dual
    center character groups, so the comparison is total).  Budget: 1.5 s."""
    started = time.time()
    checked = 0
    for name in ("gl2-triv", "gl3-triv", "gl4-triv", "gl4-st2",
                 "sl2-triv", "gl2x2-swap-triv"):
        param = presets.parameter(name)
        for rho in enumerate_rhos(param, 4):
            out = central_character_square(param, rho)
            assert not out["torsion_undetermined"]
            assert out["equal"], (name, rho.weight)
            checked += 1
    took = time.time() - started
    assert took < 1.5, "criterion 8 exceeded its time budget: %.2fs" % took
    _report("criterion 8: central characters", started, "%d pairs" % checked)
