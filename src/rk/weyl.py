"""Relative Weyl coset combinatorics.

Chamber location by simple-reflection ascent, Levi transporter sets,
minimal double-coset representatives, the index set of the geometric
lemma, and point stabilizers.  All operations run inside the relative
Weyl group of a ReductiveGroup and are deterministic: element lists are
sorted canonically and the ascent breaks ties by lowest orbit index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Optional, Sequence, Tuple

from .lattice import (
    Matrix,
    dot,
    in_span,
    mat_mul,
    mat_vec,
)
from .rootdata import ReductiveGroup


@dataclass(frozen=True)
class ChamberWitness:
    """w moving x into the closed dominant chamber, with the unique open
    facet (indexed by its Levi subset) that contains the image."""

    word: Tuple[int, ...]
    matrix: Matrix            # action on the character lattice
    levi: FrozenSet[int]
    image: Tuple[Fraction, ...]


def chamber_locate(group: ReductiveGroup, x: Sequence) -> ChamberWitness:
    """Move a rational relative point into the closed dominant chamber.

    Greedy ascent: while some restricted simple pairing is negative,
    apply the lowest-index violated restricted reflection.  The facet
    Levi is independent of the witness; the witness is deterministic.
    """
    x = tuple(Fraction(v) for v in x)
    if not group.is_relative_point(x):
        raise ValueError("chamber_locate needs a Galois-fixed point")
    rel = group.relative
    refl = group.restricted_reflections
    orbits = group.simple_orbits
    current = x
    word: Tuple[int, ...] = ()
    matrix = rel.identity
    while True:
        violated = None
        for oi, orb in enumerate(orbits):
            if dot(group.datum.simple_roots[orb[0]], current) < 0:
                violated = oi
                break
        if violated is None:
            break
        r = refl[violated]
        current = mat_vec(rel.contragredient[r], current)
        matrix = mat_mul(r, matrix)
        word = (violated,) + word
        if len(word) > 4 * len(rel.elements):
            raise AssertionError("chamber ascent failed to terminate")
    levi = group.facet_levi(current)
    return ChamberWitness(rel.word(matrix), matrix, levi, current)


def stratum_of(group: ReductiveGroup, x: Sequence) -> Optional[FrozenSet[int]]:
    """The unique parabolic stratum containing a dominant point, or None
    when the point is not dominant."""
    if not group.dominant(x):
        return None
    return group.facet_levi(x)


def transporter_set(group: ReductiveGroup, levi1, levi2) -> Tuple[Matrix, ...]:
    """{w in W^rel : w(A_{L1}) contains A_{L2}}, by exact subspace containment;
    computed once per group and pair of Levis."""
    key = (frozenset(levi1), frozenset(levi2))
    if key not in group._transporters:
        b1 = group.levi_context(key[0]).split_center_basis
        b2 = group.levi_context(key[1]).split_center_basis
        rel = group.relative
        out = []
        for m in rel.elements:
            md = rel.contragredient[m]
            image = [mat_vec(md, y) for y in b1]
            if all(in_span(image, y) for y in b2):
                out.append(m)
        group._transporters[key] = tuple(out)
    return group._transporters[key]


def _positive_root_system(group: ReductiveGroup, levi) -> Tuple[Tuple[int, ...], ...]:
    datum = group.datum
    positives = datum.positive_root_set
    return tuple(datum.roots[i] for i in group.levi_context(levi).root_indices()
                 if i in positives)


def _sends_positively(group: ReductiveGroup, m: Matrix,
                      roots: Sequence[Tuple[int, ...]]) -> bool:
    datum = group.datum
    positives = datum.positive_root_set
    for r in roots:
        img = mat_vec(m, r)
        if datum.root_index(img) not in positives:
            return False
    return True


def double_coset_reps(group: ReductiveGroup, levi1, levi2) -> Tuple[Matrix, ...]:
    """W^rel[L1, L2]: transporter elements sending L1-positives and, inversely,
    L2-positives to positive roots.  A complete, minimal set of
    representatives of W^rel_{L2} \\ W^rel(L1, L2)."""
    pos1 = _positive_root_system(group, levi1)
    pos2 = _positive_root_system(group, levi2)
    inverse = group.relative.inverse
    out = []
    for m in transporter_set(group, levi1, levi2):
        if _sends_positively(group, m, pos1) and \
           _sends_positively(group, inverse[m], pos2):
            out.append(m)
    return tuple(out)


def geometric_lemma_index(group: ReductiveGroup, levi1, levi2):
    """Minimal-length (W^rel_{L2}, W^rel_{L1}) double-coset representatives,
    each with the two intersection Levis (as ambient root-index tuples).

    Returns a list of (matrix, roots of L1 cap w^-1(L2), roots of
    w(L1) cap L2).
    """
    datum = group.datum
    rel = group.relative
    pos1 = _positive_root_system(group, levi1)
    pos2 = _positive_root_system(group, levi2)
    idx1 = set(group.levi_context(levi1).root_indices())
    idx2 = set(group.levi_context(levi2).root_indices())
    out = []
    for m in rel.elements:
        minv = rel.inverse[m]
        if _sends_positively(group, m, pos1) and _sends_positively(group, minv, pos2):
            left = tuple(i for i in sorted(idx1)
                         if datum.root_index(mat_vec(m, datum.roots[i])) in idx2)
            right = tuple(i for i in sorted(idx2)
                          if datum.root_index(mat_vec(minv, datum.roots[i])) in idx1)
            out.append((m, left, right))
    return tuple(out)


def stabilizer(group: ReductiveGroup, x: Sequence):
    """(full stabilizer of x in W^rel, Levi subset it equals when x is
    dominant, else None)."""
    x = tuple(Fraction(v) for v in x)
    rel = group.relative
    elems = tuple(m for m in rel.elements
                  if mat_vec(rel.contragredient[m], x) == x)
    levi = None
    if group.dominant(x):
        levi = group.facet_levi(x)
        expected = set(group.levi_weyl_elements(levi))
        if set(elems) != expected:
            raise AssertionError("stabilizer of a dominant point must be the "
                                 "Weyl group of its facet Levi")
    return elems, levi
