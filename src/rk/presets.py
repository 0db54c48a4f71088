"""Built-in group, parameter, and endoscopy presets.

Groups: gl1..gl6, sl2..sl4, pgl2, sp4, so4, so6 (split, trivial Galois),
gl2x2 / gl2x2-swap and u3 (quasi-split with an involution), and the
norm-one torus pair res-quad-torus.  Parameter bundles reproduce the
worked examples shipped with the command line tool.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Tuple

from .lattice import dot, mat, orbit, vscale, vsub
from .rootdata import BasedRootDatum, GaloisAction, ReductiveGroup


def _gl_datum(n: int) -> BasedRootDatum:
    roots = []
    coroots = []
    simple = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = tuple(1 if k == i else (-1 if k == j else 0) for k in range(n))
            roots.append(v)
            coroots.append(v)
            if j == i + 1:
                simple.append(len(roots) - 1)
    return BasedRootDatum(n, tuple(roots), tuple(coroots), tuple(simple),
                          "gl%d" % n)


def _sl_datum(n: int) -> BasedRootDatum:
    """SL_n realized on the weight lattice Z^{n-1} (fundamental-weight basis):
    simple coroots are the unit vectors, simple roots the Cartan rows."""
    rank = n - 1
    cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
               for j in range(rank)] for i in range(rank)]
    simple_roots = [tuple(row) for row in cartan]
    simple_coroots = [tuple(1 if k == i else 0 for k in range(rank))
                      for i in range(rank)]
    return _datum_from_simples(rank, simple_roots, simple_coroots, "sl%d" % n)


def _pgl2_datum() -> BasedRootDatum:
    return BasedRootDatum(1, ((1,), (-1,)), ((2,), (-2,)), (0,), "pgl2")


def _datum_from_simples(rank, simple_roots, simple_coroots, name) -> BasedRootDatum:
    """Close the simple roots under their reflections to build the full list."""
    def reflect(i, pair):
        (r, c), sr, sc = pair, simple_roots[i], simple_coroots[i]
        return vsub(r, vscale(dot(r, sc), sr)), vsub(c, vscale(dot(sr, c), sc))

    # the orbit's points are (root, coroot) pairs
    coroot = dict(orbit(
        zip(map(tuple, simple_roots), map(tuple, simple_coroots)),
        [partial(reflect, i) for i in range(len(simple_roots))]).keys())
    roots = sorted(coroot)
    coroots = [coroot[r] for r in roots]
    simple = [roots.index(tuple(r)) for r in simple_roots]
    return BasedRootDatum(rank, tuple(roots), tuple(coroots), tuple(simple), name)


def _sp4_datum() -> BasedRootDatum:
    return _datum_from_simples(
        2, [(1, -1), (0, 2)], [(1, -1), (0, 1)], "sp4")


def _so4_datum() -> BasedRootDatum:
    return _datum_from_simples(
        2, [(1, -1), (1, 1)], [(1, -1), (1, 1)], "so4")


def _so6_datum() -> BasedRootDatum:
    return _datum_from_simples(
        3, [(1, -1, 0), (0, 1, -1), (0, 1, 1)],
        [(1, -1, 0), (0, 1, -1), (0, 1, 1)], "so6")


def _gl2x2_datum() -> BasedRootDatum:
    roots = [(1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1)]
    return BasedRootDatum(4, tuple(roots), tuple(roots), (0, 2), "gl2x2")


_SWAP4 = mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
_U3_FLIP = mat([[0, 0, -1], [0, -1, 0], [-1, 0, 0]])
_SWAP2 = mat([[0, 1], [1, 0]])


def group(name: str) -> ReductiveGroup:
    """Build a preset group by name (see GROUP_NAMES)."""
    key = name.lower().replace("_", "-")
    if key.startswith("gl") and key[2:].isdigit():
        n = int(key[2:])
        if not 1 <= n <= 6:
            raise KeyError(name)
        return ReductiveGroup(_gl_datum(n), name="gl%d" % n)
    if key.startswith("sl") and key[2:].isdigit():
        n = int(key[2:])
        if not 2 <= n <= 4:
            raise KeyError(name)
        return ReductiveGroup(_sl_datum(n), name="sl%d" % n)
    if key == "pgl2":
        return ReductiveGroup(_pgl2_datum(), name="pgl2")
    if key == "sp4":
        return ReductiveGroup(_sp4_datum(), name="sp4")
    if key == "so4":
        return ReductiveGroup(_so4_datum(), name="so4")
    if key == "so6":
        return ReductiveGroup(_so6_datum(), name="so6")
    if key == "gl2x2":
        return ReductiveGroup(_gl2x2_datum(), name="gl2x2")
    if key in ("gl2x2-swap", "gl2xgl2-swap"):
        datum = _gl2x2_datum()
        galois = GaloisAction(datum, (_SWAP4,))
        return ReductiveGroup(datum, galois, name="gl2x2-swap")
    if key == "u3":
        datum = _gl_datum(3)
        galois = GaloisAction(datum, (_U3_FLIP,))
        return ReductiveGroup(datum, galois, name="u3")
    if key == "res-quad-torus":
        datum = BasedRootDatum(2, (), (), (), "res-quad-torus")
        galois = GaloisAction(datum, (_SWAP2,))
        return ReductiveGroup(datum, galois, name="res-quad-torus")
    raise KeyError("unknown group preset %r" % name)


GROUP_NAMES: Tuple[str, ...] = (
    "gl1", "gl2", "gl3", "gl4", "gl5", "gl6",
    "sl2", "sl3", "sl4", "pgl2", "sp4", "so4", "so6",
    "gl2x2", "gl2x2-swap", "u3", "res-quad-torus",
)


# ---------------------------------------------------------------------------
# parameter bundles (defined lazily to avoid an import cycle)

def parameter(name: str):
    """Build a preset parameter bundle by name (see PARAM_NAMES)."""
    from .params import Parameter

    key = name.lower().replace("_", "-")
    if key == "gl2-triv":
        g = group("gl2")
        return Parameter(
            group=g, minimal_levi=frozenset(),
            sphi_ambient=((1, -1), (-1, 1)),
            positive_ambient=((1, -1),),
            r_phi_words=(), label="gl2: 1+1")
    if key == "gl3-triv":
        g = group("gl3")
        return Parameter(
            group=g, minimal_levi=frozenset(),
            sphi_ambient=tuple(v for v in g.datum.roots),
            positive_ambient=tuple(g.datum.roots[i]
                                   for i in g.datum.positive_root_indices()),
            r_phi_words=(), label="gl3: 1+1+1")
    if key == "gl4-triv":
        g = group("gl4")
        return Parameter(
            group=g, minimal_levi=frozenset(),
            sphi_ambient=tuple(v for v in g.datum.roots),
            positive_ambient=tuple(g.datum.roots[i]
                                   for i in g.datum.positive_root_indices()),
            r_phi_words=(), label="gl4: 1+1+1+1")
    if key == "gl4-st2":
        g = group("gl4")
        return Parameter(
            group=g, minimal_levi=frozenset({0, 2}),
            sphi_ambient=((1, 0, -1, 0), (-1, 0, 1, 0)),
            positive_ambient=((1, 0, -1, 0),),
            r_phi_words=(), label="gl4: St+St")
    if key == "sl2-triv":
        g = group("sl2")
        return Parameter(
            group=g, minimal_levi=frozenset(),
            sphi_ambient=((1,), (-1,)),
            positive_ambient=((1,),),
            r_phi_words=(), label="sl2: 1+1")
    if key == "gl2x2-swap-triv":
        g = group("gl2x2-swap")
        return Parameter(
            group=g, minimal_levi=frozenset(),
            sphi_ambient=((1, -1, 0, 0), (-1, 1, 0, 0),
                          (0, 0, 1, -1), (0, 0, -1, 1)),
            positive_ambient=((1, -1, 0, 0), (0, 0, 1, -1)),
            r_phi_words=(), label="gl2x2-swap: triv")
    raise KeyError("unknown parameter preset %r" % name)


PARAM_NAMES: Tuple[str, ...] = (
    "gl2-triv", "gl3-triv", "gl4-triv", "gl4-st2", "sl2-triv",
    "gl2x2-swap-triv",
)


def endoscopy(name: str):
    """Preset endoscopic data: `<group>-s1` is the trivial datum (H = G);
    `gl4-splus` is s = diag(1,1,-1,-1) inside gl4; `gl2-sreg` is regular."""
    from .endoscopy import EndoscopicDatum

    key = name.lower().replace("_", "-")
    if key.endswith("-s1"):
        g = group(key[:-3])
        return EndoscopicDatum(g, (Fraction(0),) * g.datum.rank, label=name)
    if key == "gl4-splus":
        g = group("gl4")
        return EndoscopicDatum(
            g, (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2)),
            label=name)
    if key == "gl2-sreg":
        g = group("gl2")
        return EndoscopicDatum(g, (Fraction(0), Fraction(1, 2)), label=name)
    raise KeyError("unknown endoscopy preset %r" % name)


ENDO_NAMES: Tuple[str, ...] = ("gl2-s1", "gl3-s1", "gl4-s1", "sl2-s1",
                               "gl2x2-swap-s1", "gl4-splus", "gl2-sreg")


# disconnected-group presets used by the representation-theory layer

def disconnected(name: str):
    from .disconnected import DisconnectedGroupDatum

    key = name.lower().replace("_", "-")
    if key == "o2":
        torus = BasedRootDatum(1, (), (), (), "so2")
        return DisconnectedGroupDatum(torus, (mat([[-1]]),), name="o2")
    if key == "gl1x1-swap":
        torus = BasedRootDatum(2, (), (), (), "gl1x1")
        return DisconnectedGroupDatum(torus, (_SWAP2,), name="gl1x1-swap")
    if key == "gl2-conn":
        return DisconnectedGroupDatum(_gl_datum(2), (), name="gl2-conn")
    if key == "sl2-conn":
        return DisconnectedGroupDatum(_sl_datum(2), (), name="sl2-conn")
    if key == "sl3-conn":
        return DisconnectedGroupDatum(_sl_datum(3), (), name="sl3-conn")
    raise KeyError("unknown disconnected preset %r" % name)


DISCONNECTED_NAMES: Tuple[str, ...] = ("o2", "gl1x1-swap", "gl2-conn",
                                       "sl2-conn", "sl3-conn")
