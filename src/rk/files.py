"""Declarative description files (YAML key-value trees): the loaders.

The matching writers, with which the tests check that parse -> serialize
-> parse is the identity on the data each loader carries, live in
`tests/oracles.py`, since no command writes a description file.
Group references inside parameter and endoscopy files accept either a
preset name or a path to a group file.

PyYAML and the parameter, endoscopy and disconnected-group layers are
imported by the functions that need them, so a command that names only
presets loads none of them.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import reduce
from typing import TYPE_CHECKING, Dict

from .lattice import mat, mat_identity, mat_mul
from .rootdata import (BasedRootDatum, GaloisAction, ReductiveGroup,
                       check_action_shapes)

if TYPE_CHECKING:
    from .disconnected import DisconnectedGroupDatum
    from .endoscopy import EndoscopicDatum
    from .params import Parameter


def _as_matrix(rows):
    return mat([[int(x) for x in row] for row in rows])


def _as_vectors(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


def load_tree(path: str) -> Dict:
    import yaml
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("%s: expected a mapping with a 'kind' entry" % path)
    return data


def _resolve(ref: str, preset: str, from_tree, unknown: str):
    """`presets.<preset>(ref)`, else the description file at path `ref`,
    else ValueError(unknown % ref)."""
    from . import presets
    try:
        return getattr(presets, preset)(ref)
    except KeyError:
        pass
    if os.path.exists(ref):
        return from_tree(load_tree(ref))
    raise ValueError(unknown % ref)


def _datum_from_tree(tree: Dict) -> BasedRootDatum:
    return BasedRootDatum(
        int(tree["rank"]),
        _as_vectors(tree.get("roots", [])),
        _as_vectors(tree.get("coroots", [])),
        tuple(int(i) for i in tree.get("simple", [])),
        str(tree.get("name", "")))


# ---------------------------------------------------------------------------
# groups

def group_from_tree(tree: Dict) -> ReductiveGroup:
    if tree.get("kind") != "group":
        raise ValueError("not a group description")
    datum = _datum_from_tree(tree)
    galois = GaloisAction(datum, tuple(_as_matrix(g)
                                       for g in tree.get("galois") or ()))
    return ReductiveGroup(datum, galois, name=str(tree.get("name", "")))


def resolve_group(ref: str) -> ReductiveGroup:
    """A preset name, or a path to a group description file."""
    return _resolve(ref, "group", group_from_tree,
                    "unknown group %r (not a preset, not a file)")


# ---------------------------------------------------------------------------
# parameters

def parameter_from_tree(tree: Dict) -> Parameter:
    from .params import Parameter
    if tree.get("kind") != "parameter":
        raise ValueError("not a parameter description")
    group = resolve_group(str(tree["group"]))
    return Parameter(
        group=group,
        minimal_levi=frozenset(int(i) for i in tree.get("minimal_levi", [])),
        sphi_ambient=_as_vectors(tree.get("sphi_roots", [])),
        positive_ambient=_as_vectors(tree.get("sphi_positive", [])),
        r_phi_words=tuple(tuple(int(i) for i in w)
                          for w in tree.get("r_phi_words", [])),
        label=str(tree.get("label", "")))


def resolve_parameter(ref: str):
    return _resolve(ref, "parameter", parameter_from_tree,
                    "unknown parameter %r (not a preset, not a file)")


# ---------------------------------------------------------------------------
# endoscopic data

def endoscopy_from_tree(tree: Dict) -> EndoscopicDatum:
    from .endoscopy import EndoscopicDatum
    if tree.get("kind") != "endoscopy":
        raise ValueError("not an endoscopy description")
    group = resolve_group(str(tree["group"]))
    s = tuple(Fraction(str(x)) for x in tree["s"])
    return EndoscopicDatum(group, s, label=str(tree.get("label", "")))


def resolve_endoscopy(ref: str):
    return _resolve(ref, "endoscopy", endoscopy_from_tree,
                    "unknown endoscopy datum %r (not a preset, not a file)")


# ---------------------------------------------------------------------------
# disconnected groups

def disconnected_from_tree(tree: Dict) -> DisconnectedGroupDatum:
    from .disconnected import DisconnectedGroupDatum
    if tree.get("kind") != "disconnected":
        raise ValueError("not a disconnected-group description")
    datum = _datum_from_tree(tree)
    gens = tuple(_as_matrix(g) for g in tree.get("component_generators", []))
    check_action_shapes(datum.rank, gens)   # before the cocycle's products
    # each row is (word, word, exponent), a word being the positions in
    # `component_generators` whose product is the element
    def element(word):
        return reduce(mat_mul, (gens[int(i)] for i in word),
                      mat_identity(datum.rank))

    cocycle = {(element(wa), element(wb)): Fraction(str(expo))
               for wa, wb, expo in tree.get("cocycle") or ()}
    return DisconnectedGroupDatum(datum, gens, cocycle=cocycle,
                                  name=str(tree.get("name", "")))


def resolve_disconnected(ref: str):
    return _resolve(ref, "disconnected", disconnected_from_tree,
                    "unknown disconnected group %r")
