"""Relative Weyl coset combinatorics.

Chamber location by simple-reflection ascent, Levi transporter sets,
minimal double-coset representatives, the index set of the geometric
lemma, and point stabilizers.  All operations run inside the relative
Weyl group of a ReductiveGroup and are deterministic: element lists are
sorted canonically and the ascent breaks ties by lowest orbit index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import FrozenSet, Sequence, Tuple

from .lattice import (
    Matrix,
    Value,
    cached,
    mat_mul,  # noqa: F401 -- perfbench's self-test reads rk.weyl.mat_mul
    mat_vec,
)
from .rootdata import ReductiveGroup, ScaledPoint


class ChamberWitness(Value):
    """w moving x into the closed dominant chamber, with the unique open
    facet (indexed by its Levi subset) that contains the image."""

    def __init__(self, word: Tuple[int, ...],
                 matrix: Matrix,  # action on the character lattice
                 levi: FrozenSet[int], image: Tuple[Fraction, ...]):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "levi", levi)
        object.__setattr__(self, "image", image)


def chamber_locate(group: ReductiveGroup, x: Sequence) -> ChamberWitness:
    """Move a rational relative point into the closed dominant chamber.

    Greedy ascent: while some restricted simple pairing is negative,
    apply the lowest-index violated restricted reflection.  The facet
    Levi is independent of the witness; the witness is deterministic.
    The ascent runs on the group's integer ascent table: reflecting by r
    permutes the root-pairing table, since <a, r.x> = <r^-1 a, x>, and
    composes the running root permutation with r's; the element is looked
    up and the image formed once at the end, as a ScaledPoint that keeps
    d, d.image and the final table for `stabilizer` and `simple_pairing`.
    """
    d, xi = group.integer_point(x)
    if not group.is_relative_point(xi):
        raise ValueError("chamber_locate needs a Galois-fixed point")
    heads, steps, bound = group.ascent_table
    p = group.root_pairings(xi)
    run = range(len(p))
    for _ in range(bound + 1):
        violated = next((oi for oi, h in enumerate(heads) if p[h] < 0), None)
        if violated is None:
            break
        perm, perm_inv = steps[violated]
        p = [p[j] for j in perm_inv]
        run = [perm[j] for j in run]
    else:
        raise AssertionError("chamber ascent failed to terminate")
    rel = group.relative
    matrix = rel._by_perm[tuple(run)]
    levi = group.facet_of_pairings([p[i] for i in group.datum.simple_indices])
    numerators = mat_vec(rel.contragredient[matrix], xi)
    image = ScaledPoint(Fraction(v, d) for v in numerators)
    # p is now the root-pairing table of d.image
    image.group, image.scale, image.numerators, image.pairings = \
        group, d, numerators, tuple(p)
    return ChamberWitness(rel.word(matrix), matrix, levi, image)


def transporter_set(group: ReductiveGroup, levi1, levi2) -> Tuple[Matrix, ...]:
    """{w in W^rel : w(A_{L1}) contains A_{L2}}; computed once per group and
    pair of Levis.

    w(A_{L1}) is the split center of w L1 w^-1, and it contains A_{L2}
    exactly when w L1 w^-1 lies in the centralizer L2 of A_{L2}, that is,
    when w sends every root of L1 to a root of L2."""
    levi1, levi2 = frozenset(levi1), frozenset(levi2)
    return cached(group.memo, ("transporters", levi1, levi2), _transporters,
                  group, levi1, levi2)


def _transporters(group: ReductiveGroup, levi1, levi2) -> Tuple[Matrix, ...]:
    roots1 = group.levi_context(levi1).root_indices
    roots2 = set(group.levi_context(levi2).root_indices)
    rel = group.relative
    return tuple(m for m in rel.elements
                 if all(rel.perm[m][i] in roots2 for i in roots1))


def _sends_positively(group: ReductiveGroup, m: Matrix,
                      roots: Sequence[int]) -> bool:
    perm = group.relative.perm[m]
    positives = group.datum.positive_root_set
    return all(perm[i] in positives for i in roots)


def double_coset_reps(group: ReductiveGroup, levi1, levi2) -> Tuple[Matrix, ...]:
    """W^rel[L1, L2]: transporter elements sending L1-positives and, inversely,
    L2-positives to positive roots.  A complete, minimal set of
    representatives of W^rel_{L2} \\ W^rel(L1, L2)."""
    pos1 = group.levi_context(levi1).positive_root_indices
    pos2 = group.levi_context(levi2).positive_root_indices
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
    rel = group.relative
    ctx1, ctx2 = group.levi_context(levi1), group.levi_context(levi2)
    pos1, pos2 = ctx1.positive_root_indices, ctx2.positive_root_indices
    idx1, idx2 = set(ctx1.root_indices), set(ctx2.root_indices)
    out = []
    for m in rel.elements:
        minv = rel.inverse[m]
        if _sends_positively(group, m, pos1) and _sends_positively(group, minv, pos2):
            left = tuple(i for i in sorted(idx1) if rel.perm[m][i] in idx2)
            right = tuple(i for i in sorted(idx2) if rel.perm[minv][i] in idx1)
            out.append((m, left, right))
    return tuple(out)


def stabilizer(group: ReductiveGroup, x: Sequence):
    """(full stabilizer of x in W^rel, Levi subset it equals when x is
    dominant, else None)."""
    # w.x - x lies in the coroot span, where the simple roots pair
    # non-degenerately: w fixes x iff <w(a), x> = <a, x> for every simple a;
    # the integer kernel's table holds those pairings scaled by some d > 0
    # (a chamber image carries the ascent's d, a multiple of the lcm of its
    # denominators); a positive factor keeps every equality, sign and zero,
    # so the test and the facet Levi do not depend on d.  The group's
    # stabilizer table reads the pairings off for every element of W^rel
    p = group.pairing_table(x)
    at_simple, table = group.stabilizer_table
    fixed = at_simple(p)
    elems = tuple(m for m, at in table if at(p) == fixed)
    levi = group.facet_of_pairings([p[i] for i in group.datum.simple_indices])
    # both tuples are sorted in the one matrix order and hold no repeats, so
    # equal tuples are equal sets
    if levi is not None and elems != group.levi_weyl_elements(levi):
        raise AssertionError("stabilizer of a dominant point must be the "
                             "Weyl group of its facet Levi")
    return elems, levi
