"""The Kottwitz set of a quasi-split group over a non-archimedean field,
modeled by its complete invariants.

An element is a pair (standard Levi L, basic class kappa_L), kappa_L a
character of the Galois-fixed center of the dual Levi, subject to the
open-facet condition: the Newton point alpha_L(kappa_L) must pair
strictly positively with every simple root outside L.  Wall cases are
hard rejections carrying the facet actually hit; re-encode the element
on its true stratum instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import FrozenSet, List, Tuple

from .lattice import FgaElement, Value, map_between
from .rootdata import ReductiveGroup


class WallRejection(ValueError):
    """Newton point missed the open facet of the requested stratum."""

    def __init__(self, levi, newton, zero_walls, negative_walls):
        self.levi = frozenset(levi)
        self.newton = newton
        self.zero_walls = tuple(zero_walls)
        self.negative_walls = tuple(negative_walls)
        if negative_walls:
            detail = "negative pairing on simple positions %s" % (
                sorted(negative_walls),)
        else:
            detail = ("wall contact on simple positions %s; the element lives "
                      "on the stratum of Levi %s" % (
                          sorted(zero_walls),
                          sorted(set(levi) | set(zero_walls))))
        super().__init__(detail)


class BElement(Value):
    """A Kottwitz-set element by its complete invariants."""

    def __init__(self, levi: FrozenSet[int], kappa: FgaElement):
        object.__setattr__(self, "levi", levi)
        object.__setattr__(self, "kappa", kappa)

    def is_basic(self, group: ReductiveGroup) -> bool:
        return self.levi == group.full_subset()


def newton(group: ReductiveGroup, b: BElement) -> Tuple[Fraction, ...]:
    """The Newton point: alpha_L applied to the rational restriction of
    kappa (torsion contributes zero)."""
    return group.levi_context(b.levi).newton_point(b.kappa)


def kappa_push(group: ReductiveGroup, b: BElement) -> FgaElement:
    """Push kappa along X*(Z(L^)^Gamma) -> X*(Z(G^)^Gamma)."""
    src = group.levi_context(b.levi).dual_center_characters
    dst = group.levi_context(group.full_subset()).dual_center_characters
    return map_between(src, dst, b.kappa)


def classify(group: ReductiveGroup, b: BElement) -> FrozenSet[int]:
    """The unique parabolic stratum containing b; always equals b.levi for
    a well-formed element (asserted).  The Newton point's integer
    numerators over alpha_L's positive denominator have its signs and
    zeros."""
    num, _den = group.levi_context(b.levi).newton_scaled(b.kappa)
    stratum = group.facet_of_pairings(group.scaled_simple_pairing(num))
    if stratum is None:
        raise ValueError("inconsistent element: Newton point not dominant")
    if stratum != b.levi:
        raise ValueError("inconsistent element: Newton stratum %s != levi %s"
                         % (sorted(stratum), sorted(b.levi)))
    return stratum


def basic_plus_lift(group: ReductiveGroup, levi, kappa: FgaElement) -> BElement:
    """Accept (levi, kappa) iff the Newton point lies in the open facet of
    the corresponding parabolic; otherwise raise WallRejection with the
    facet actually hit.  The test reads the signs of the Newton point's
    integer numerators; the Fraction point is formed only for a
    rejection."""
    levi = frozenset(levi)
    ctx = group.levi_context(levi)
    num, _den = ctx.newton_scaled(kappa)
    zero, negative = [], []
    for pos, p in enumerate(group.scaled_simple_pairing(num)):
        if pos in levi:
            continue
        if p == 0:
            zero.append(pos)
        elif p < 0:
            negative.append(pos)
    if zero or negative:
        raise WallRejection(levi, ctx.newton_point(kappa), zero, negative)
    return BElement(levi, kappa)


def encode(group: ReductiveGroup, b: BElement) -> dict:
    """Stable JSON encoding: {levi: sorted simple positions, kappa: ...}."""
    return {
        "levi": sorted(b.levi),
        "kappa": {"free": list(b.kappa.free), "torsion": list(b.kappa.torsion)},
    }


def decode(group: ReductiveGroup, data) -> BElement:
    """The element of an `encode` object, read from outside the program:
    "levi" a list of simple positions, in range and Galois stable, and
    "kappa" an object of integer lists "free" and "torsion" as long as the
    Levi's coordinates.  Malformed data raises ValueError naming the
    field."""
    if not isinstance(data, dict):
        raise ValueError("element: expected an object with the fields levi "
                         "and kappa")
    levi = group.checked_levi(_integers(data, "levi", "levi"), "levi")
    kappa = data.get("kappa")
    if not isinstance(kappa, dict):
        raise ValueError("kappa: expected an object with the fields free "
                         "and torsion")
    q = group.levi_context(levi).dual_center_characters
    coords = []
    for key, count in (("free", q.free_rank), ("torsion", len(q.torsion))):
        value = _integers(kappa, key, "kappa." + key)
        if len(value) != count:
            raise ValueError("kappa.%s: expected a list of length %d, got %d"
                             % (key, count, len(value)))
        coords.append(value)
    b = BElement(levi, q.element(*coords))
    classify(group, b)
    return b


def _integers(data: dict, key: str, field: str) -> List[int]:
    value = data.get(key)
    if not isinstance(value, list) or \
            not all(type(x) is int for x in value):
        raise ValueError("%s: expected a list of integers" % field)
    return value
