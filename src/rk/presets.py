"""Built-in group, parameter, endoscopy and disconnected-group presets.

Each kind is one table from preset name to what builds it, and the name
lists that `rk examples` prints are the table keys, in table order, so a
new preset is one row.  Groups: gl1..gl6, sl2..sl4, pgl2, sp4, so4, so6
(split, trivial Galois), gl2x2 / gl2x2-swap and u3 (quasi-split with an
involution), and the norm-one torus pair res-quad-torus.  Parameter
bundles reproduce the worked examples shipped with the command line tool.

The tables hold literals and builders only: the root-datum and lattice
layers are imported when a preset is built, so listing the names (`rk
examples`) loads no other `rk` module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    from .rootdata import BasedRootDatum, ReductiveGroup


def _datum(*args) -> BasedRootDatum:
    """`BasedRootDatum(*args)`, importing the root-datum layer on first use."""
    from .rootdata import BasedRootDatum
    return BasedRootDatum(*args)


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
    return _datum(n, tuple(roots), tuple(coroots), tuple(simple), "gl%d" % n)


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


def _datum_from_simples(rank, simple_roots, simple_coroots, name) -> BasedRootDatum:
    """Close the simple roots under their reflections to build the full list."""
    from .lattice import dot, orbit, vscale, vsub

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
    return _datum(rank, tuple(roots), tuple(coroots), tuple(simple), name)


def _torus(rank: int, name: str) -> BasedRootDatum:
    return _datum(rank, (), (), (), name)


def _gl2x2_datum() -> BasedRootDatum:
    roots = [(1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1)]
    return _datum(4, tuple(roots), tuple(roots), (0, 2), "gl2x2")


# Galois and component generators, as the tuples of tuples `lattice.mat`
# makes
_SWAP4 = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
_U3_FLIP = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))
_SWAP2 = ((0, 1), (1, 0))
_SO6_SIMPLE = [(1, -1, 0), (0, 1, -1), (0, 1, 1)]

# name -> (datum builder, Galois generators on characters)
_GROUPS = {
    **{"gl%d" % n: (partial(_gl_datum, n), ()) for n in range(1, 7)},
    **{"sl%d" % n: (partial(_sl_datum, n), ()) for n in range(2, 5)},
    "pgl2": (partial(_datum, 1, ((1,), (-1,)), ((2,), (-2,)), (0,), "pgl2"),
             ()),
    "sp4": (partial(_datum_from_simples, 2, [(1, -1), (0, 2)],
                    [(1, -1), (0, 1)], "sp4"), ()),
    "so4": (partial(_datum_from_simples, 2, [(1, -1), (1, 1)],
                    [(1, -1), (1, 1)], "so4"), ()),
    "so6": (partial(_datum_from_simples, 3, _SO6_SIMPLE, _SO6_SIMPLE,
                    "so6"), ()),
    "gl2x2": (_gl2x2_datum, ()),
    "gl2x2-swap": (_gl2x2_datum, (_SWAP4,)),
    "u3": (partial(_gl_datum, 3), (_U3_FLIP,)),
    "res-quad-torus": (partial(_torus, 2, "res-quad-torus"), (_SWAP2,)),
}

# name -> (group, minimal Levi, label, (centralizer roots, positive half)
# as ambient dual-side vectors, or None for every coroot of the group with
# its positive half)
_PARAMS = {
    "gl2-triv": ("gl2", (), "gl2: 1+1", None),
    "gl3-triv": ("gl3", (), "gl3: 1+1+1", None),
    "gl4-triv": ("gl4", (), "gl4: 1+1+1+1", None),
    "gl4-st2": ("gl4", (0, 2), "gl4: St+St",
                (((1, 0, -1, 0), (-1, 0, 1, 0)), ((1, 0, -1, 0),))),
    "sl2-triv": ("sl2", (), "sl2: 1+1", (((1,), (-1,)), ((1,),))),
    "gl2x2-swap-triv": ("gl2x2-swap", (), "gl2x2-swap: triv", None),
}

# name -> (group, exponent vector of the torus element s); `<group>-s1`
# is the trivial datum H = G of every group preset
_HALF = Fraction(1, 2)
_ENDOS = {
    "gl4-splus": ("gl4", (0, 0, _HALF, _HALF)),
    "gl2-sreg": ("gl2", (0, _HALF)),
}

# name -> (identity-component datum builder, component generators)
_DISCONNECTED = {
    "o2": (partial(_torus, 1, "so2"), (((-1,),),)),
    "gl1x1-swap": (partial(_torus, 2, "gl1x1"), (_SWAP2,)),
    "gl2-conn": (partial(_gl_datum, 2), ()),
    "sl2-conn": (partial(_sl_datum, 2), ()),
    "sl3-conn": (partial(_sl_datum, 3), ()),
}

_ALIASES = {"gl2xgl2-swap": "gl2x2-swap"}

GROUP_NAMES: Tuple[str, ...] = tuple(_GROUPS)
PARAM_NAMES: Tuple[str, ...] = tuple(_PARAMS)
ENDO_NAMES: Tuple[str, ...] = ("gl2-s1", "gl3-s1", "gl4-s1", "sl2-s1",
                               "gl2x2-swap-s1", "gl4-splus", "gl2-sreg")
DISCONNECTED_NAMES: Tuple[str, ...] = tuple(_DISCONNECTED)


def _key(name: str) -> str:
    key = name.lower().replace("_", "-")
    return _ALIASES.get(key, key)


def _row(table, kind: str, name: str):
    """(canonical name, table row) of a preset name, or KeyError."""
    key = _key(name)
    if key not in table:
        raise KeyError("unknown %s preset %r" % (kind, name))
    return key, table[key]


def group(name: str) -> ReductiveGroup:
    """Build a preset group by name (see GROUP_NAMES)."""
    key, (build, galois) = _row(_GROUPS, "group", name)
    from .rootdata import GaloisAction, ReductiveGroup
    datum = build()
    return ReductiveGroup(datum, GaloisAction(datum, galois), name=key)


def parameter(name: str):
    """Build a preset parameter bundle by name (see PARAM_NAMES)."""
    from .params import Parameter

    _, (group_name, levi, label, sphi) = _row(_PARAMS, "parameter", name)
    g = group(group_name)
    d = g.datum
    roots, positive = sphi or (
        d.coroots, tuple(d.coroots[i] for i in d.positive_root_indices()))
    return Parameter(group=g, minimal_levi=frozenset(levi),
                     sphi_ambient=roots, positive_ambient=positive,
                     r_phi_words=(), label=label)


def endoscopy(name: str):
    """Preset endoscopic data: `<group>-s1` is the trivial datum (H = G);
    `gl4-splus` is s = diag(1,1,-1,-1) inside gl4; `gl2-sreg` is regular."""
    from .endoscopy import EndoscopicDatum

    key = _key(name)
    if key.endswith("-s1"):
        g = group(key[:-3])
        s = (0,) * g.datum.rank
    else:
        _, (group_name, s) = _row(_ENDOS, "endoscopy", name)
        g = group(group_name)
    return EndoscopicDatum(g, tuple(map(Fraction, s)), label=name)


def disconnected(name: str):
    """Build a preset disconnected group by name (see DISCONNECTED_NAMES)."""
    from .disconnected import DisconnectedGroupDatum

    key, (build, gens) = _row(_DISCONNECTED, "disconnected", name)
    return DisconnectedGroupDatum(build(), gens, name=key)
