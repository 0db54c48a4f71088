"""Committed mutation checks: source edits that named tests must catch.

    python tests/mutations.py              # every entry
    python tests/mutations.py NAME ...     # the named entries only

Each entry of MUTATIONS names one edit of a source file (its `old` text
must occur exactly once) and the tests that are meant to catch it.  For
each entry the script copies the checkout's `src` and `tests` into a
temporary directory, runs those tests there unchanged (they must pass,
or the check proves nothing), applies the edit and runs them again: the
mutant is caught when at least one of them fails.  The script prints one
line per entry and exits 1 when a mutant survives, an edit does not
apply or a test fails before the edit; else 0.

pytest does not collect this file (its name does not match `test_*.py`),
so the tier-1 suite does not run it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]


class Mutation(NamedTuple):
    name: str
    path: str                 # relative to the checkout
    old: str
    new: str
    tests: Tuple[str, ...]    # pytest node ids, relative to the checkout
    why: str


#: the test that holds every frozen record to a frozen-dataclass twin
VALUE_ORACLE = ("tests/test_properties.py::"
                "test_value_records_behave_as_frozen_dataclasses")

MUTATIONS = (
    Mutation(
        "carried-table-of-any-group", "src/rk/rootdata.py",
        "return isinstance(x, ScaledPoint) and x.group is self",
        "return isinstance(x, ScaledPoint)",
        ("tests/test_weyl.py::test_chamber_image_of_another_group_is_recomputed",),
        "a chamber image read as if every group had made it: another "
        "group's stabilizer indexes past its table or reads other roots"),
    Mutation(
        "simple-pairing-drops-the-scale", "src/rk/rootdata.py",
        "Fraction(p[i], d) for i in self.datum.simple_indices",
        "Fraction(p[i], 1) for i in self.datum.simple_indices",
        ("tests/test_properties.py::"
         "test_chamber_image_answers_like_the_plain_tuple",),
        "the carried simple pairings returned d times too large"),
    Mutation(
        "backward-table-swaps-the-levi-groups", "src/rk/endoscopy.py",
        "double_cosets(wl, admissible, wh)",
        "double_cosets(wh, admissible, wl)",
        ("tests/test_endoscopy.py::test_indexing_backward_matches_vector_scan",),
        "the embedded partition the backward table reads built from "
        "W_H . u . W_L instead of W_L . u . W_H"),
    Mutation(
        "embedded-map-to-the-first-class", "src/rk/endoscopy.py",
        "class_of.update(dict.fromkeys(coset, emb))",
        "class_of.update(dict.fromkeys(coset, out[0]))",
        ("tests/test_endoscopy.py::"
         "test_stored_class_map_matches_the_double_coset_scan",),
        "every double coset's ids mapped to the first class built, so a "
        "backward twist restandardizes against the wrong class"),
    Mutation(
        "smith-form-without-product-check", "src/rk/lattice.py",
        """    if mat_mul(mat_mul(U, a), V) != D:
        raise AssertionError("SNF verification failed: U*A*V != D")
""", "",
        ("tests/test_lattice.py::"
         "test_smith_form_recheck_runs_on_every_factorization",),
        "a Smith form returned without checking U*A*V = D"),
    Mutation(
        "galois-action-without-determinant-check", "src/rk/rootdata.py",
        """        if any(abs(mat_det(g)) != 1 for g in gens):
            raise ValueError("action matrices must have determinant +/-1")
""", "",
        ("tests/test_lattice.py::test_lattice_action_rejects_nonunimodular",),
        "a Galois generator of determinant 2 left to the orbit cap"),
    Mutation(
        "component-group-without-action-check", "src/rk/disconnected.py",
        "        GaloisAction(identity_component, gens)\n", "",
        ("tests/test_disconnected.py::"
         "test_pi0_rejects_a_generator_of_determinant_2",
         "tests/test_disconnected.py::"
         "test_pi0_rejects_a_generator_that_breaks_the_coroots"),
        "component generators closed unchecked: a determinant-2 generator "
        "left to the orbit cap, a broken coroot pairing let through"),
    Mutation(
        "r-phi-without-action-check", "src/rk/disconnected.py",
        "        GaloisAction(identity_component, gens)\n", "",
        ("tests/test_packets.py::"
         "test_r_phi_word_breaking_the_positive_system_is_rejected",),
        "an R_phi word that breaks the positive system let through: the "
        "parameter's check is the one its centralizer runs when it is built"),
    Mutation(
        "counting-without-remainder-check", "src/rk/params.py",
        """        if rest:
            raise AssertionError("double coset is not a union of W_phi "
                                 "cosets")
""", "",
        ("tests/test_endoscopy.py::"
         "test_coset_counting_certificate_catches_a_partial_coset",),
        "a double coset counted though it is not a union of W_phi cosets"),
    Mutation(
        "regular-pairing-without-s-test", "src/rk/endoscopy.py",
        """    _check_s_in_levi(param, endo, member.levi)
    w = member.w_class""", "    w = member.w_class",
        ("tests/test_endoscopy.py::"
         "test_per_call_checks_fire_on_a_warm_identity[center]",),
        "the trace taken without checking that s lies in the split center"),
    Mutation(
        "cached-stores-none-first", "src/rk/lattice.py",
        "        value = memo[key] = compute(*args)",
        "        memo[key] = None\n        value = memo[key] = compute(*args)",
        ("tests/test_lattice.py::"
         "test_cached_stores_nothing_when_compute_raises",),
        "a compute that raises leaves None behind as a hit"),
    Mutation(
        "counting-without-containment-check", "src/rk/params.py",
        """        if not inside.issuperset(coset):
            raise AssertionError("double coset leaves the transporter set")
""", "",
        ("tests/test_endoscopy.py::test_coset_counting_certificate_catches_"
         "a_coset_leaving_the_transporters",),
        "a double coset counted though it leaves the transporter set"),
    Mutation(
        "counting-without-overlap-check", "src/rk/params.py",
        """        if not coset.isdisjoint(count_of):
            raise AssertionError("double cosets overlap")
""", "",
        ("tests/test_endoscopy.py::"
         "test_coset_counting_certificate_catches_overlapping_cosets",),
        "overlapping double cosets counted twice"),
    Mutation(
        "counting-without-cover-check", "src/rk/params.py",
        """    if len(count_of) != len(inside):
        raise AssertionError("double cosets do not cover the transporter set")
""", "",
        ("tests/test_endoscopy.py::"
         "test_coset_counting_certificate_catches_an_uncovered_transporter",),
        "transporter elements left outside every counted double coset"),
    Mutation(
        "left-cosets-without-containment-check", "src/rk/params.py",
        """        if not inside.issuperset(coset):
            raise AssertionError("double coset leaves the transporter set")
""", "",
        ("tests/test_endoscopy.py::"
         "test_left_coset_partition_is_certified[leaving]",),
        "a left coset W^rel_L . t kept though it leaves the transporter set"),
    Mutation(
        "double-coset-skips-on-x", "src/rk/lattice.py",
        "            if y not in out:", "            if x not in out:",
        ("tests/test_properties.py::test_double_cosets_are_the_matrix_products",),
        "a double coset cut short to x . right: the skip tests x, not l . x"),
    Mutation(
        "alpha-inv-without-row-test", "src/rk/rootdata.py",
        """        if any(dot(row, point) for row in self._split_rows):
            return None
""", "",
        ("tests/test_rootdata.py::test_alpha_inv_matches_rational_solve",),
        "a point off the split-center space restricted as if it lay in it"),
    Mutation(
        "element-from-ambient-without-reduction", "src/rk/lattice.py",
        "[y[i] % d for i, d in self._torsion]",
        "[y[i] for i, d in self._torsion]",
        ("tests/test_properties.py::"
         "test_abelian_group_matches_the_slot_kind_class",),
        "torsion coordinates left unreduced modulo their invariant factor"),
    Mutation(
        "indexing-key-without-v", "src/rk/endoscopy.py",
        '("indexing", endo, levi, emb.key(), v)',
        '("indexing", endo, levi, emb.key())',
        ("tests/test_endoscopy.py::"
         "test_memoized_indexing_forward_matches_the_reference",),
        "one group-side coset kept for every v of an indexing input"),
    Mutation(
        "trace-key-without-g", "src/rk/endoscopy.py",
        '("trace", endo, levi, w, lam_w, g)', '("trace", endo, levi, w, lam_w)',
        ("tests/test_endoscopy.py::test_memoized_trace_matches_the_reference",),
        "one orbit trace kept for every g of a (Levi, w, weight)"),
    Mutation(
        "endoscopy-key-without-datum", "src/rk/endoscopy.py",
        'cached(param.memo, ("h", endo),', 'cached(param.memo, ("h",),',
        ("tests/test_endoscopy.py::test_one_parameter_serves_two_data",),
        "one endoscopic-side parameter kept for every datum of a parameter"),
    Mutation(
        "levi-weyl-from-all-reflections", "src/rk/rootdata.py",
        "             if self.subset.issuperset(orb)])",
        "             ])",
        ("tests/test_rootdata.py::test_levi_weyl_elements_match_definition",),
        "W^rel_L generated by the restricted reflections of every orbit, "
        "not only of those inside the Levi: W^rel for every Levi"),
    Mutation(
        "split-centers-without-duality-check", "src/rk/rootdata.py",
        """        if len(split) != len(dual):
            raise AssertionError("split center ranks disagree across duality")
""", "",
        ("tests/test_rootdata.py::"
         "test_reading_a_split_center_basis_runs_the_duality_check",),
        "split-center bases of different ranks read as if they were dual"),
    Mutation(
        "levi-dim-off-by-one", "src/rk/rootdata.py",
        "        return n - row_rank(self._split_rows, n)\n",
        "        return n - row_rank(self._split_rows, n) + 1\n",
        ("tests/test_rootdata.py::"
         "test_levi_dim_is_the_rank_of_both_split_centers",),
        "dim A_L read one too large from the rows of the split center"),
    Mutation(
        "split-centers-without-rank-check", "src/rk/rootdata.py",
        """        if len(split) != self.dim:
            raise AssertionError("split center basis disagrees with dim")
""", "",
        ("tests/test_rootdata.py::"
         "test_reading_a_split_center_basis_checks_its_rational_rank",),
        "split-center bases read though their rank is not dim"),
    Mutation(
        "inverse-without-integrality-check", "src/rk/lattice.py",
        """    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
""", "",
        ("tests/test_lattice.py::"
         "test_mat_inverse_int_rejects_what_is_not_unimodular",),
        "a scaled inverse d * A^-1 with |d| > 1 returned as the inverse"),
    Mutation(
        "inverse-without-product-check", "src/rk/lattice.py",
        """    if mat_mul(a, inverse) != mat_identity(len(a)):
        raise AssertionError("inverse verification failed: A*A^-1 != 1")
""", "",
        ("tests/test_lattice.py::test_mat_inverse_int_checks_its_product",),
        "a unimodular inverse returned without checking A*A^-1 = 1"),
    Mutation(
        "smith-form-infers-the-column-count", "src/rk/lattice.py",
        "    m, n = len(a), ncols\n",
        "    m = len(a)\n    n = len(a[0]) if m else 0\n",
        ("tests/test_elliptic.py::test_elliptic_round_trip",
         "tests/test_elliptic.py::test_elliptic_eci_against_the_trivial_datum",
         "tests/test_lattice.py::test_dual_center_annihilator_by_brute_force"),
        "a matrix with no rows factored as 0 x 0, so the annihilator of an "
        "empty center basis is 0 where it is all of Z^n"),
    Mutation(
        "value-eq-by-isinstance", "src/rk/lattice.py",
        "        if other.__class__ is self.__class__:",
        "        if isinstance(other, self.__class__):",
        (VALUE_ORACLE,),
        "a record equal to an instance of a subclass with equal fields"),
    Mutation(
        "value-hash-drops-a-field", "src/rk/lattice.py",
        "        return hash(self._values(self))",
        "        return hash(self._values(self)[1:])",
        (VALUE_ORACLE,),
        "a record hashed without its first field"),
    Mutation(
        "value-fields-read-in-reverse", "src/rk/lattice.py",
        "        cls._values = attrgetter(*cls._fields)",
        "        cls._values = attrgetter(*reversed(cls._fields))",
        (VALUE_ORACLE,),
        "a record's values read in reverse field order"),
    Mutation(
        "value-assigns-a-non-field-name", "src/rk/lattice.py",
        """    def __setattr__(self, name, value):
        raise""",
        """    def __setattr__(self, name, value):
        if name not in self._fields:
            return object.__setattr__(self, name, value)
        raise""",
        (VALUE_ORACLE,),
        "assignment to a name that is not a field let through"),
    Mutation(
        "value-without-delattr", "src/rk/lattice.py",
        """    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
""", "",
        (VALUE_ORACLE,),
        "a record field that can be deleted"),
    Mutation(
        "value-repr-by-str", "src/rk/lattice.py",
        '"%s=%r" % item', '"%s=%s" % item',
        (VALUE_ORACLE,),
        "a record printed with str() of its values, not repr()"),
    Mutation(
        "descent-table-drops-a-row", "src/rk/params.py",
        "mat(param.coroots[r] for r in self.roots)",
        "mat(param.coroots[r] for r in self.roots[1:])",
        ("tests/test_packets.py::"
         "test_descent_tables_raise_as_the_per_call_loops[gl2-triv]",),
        "a Levi cut's coroot table without the row of its first root"),
    Mutation(
        "fiber-without-element-check", "src/rk/packets.py",
        """            if member.b != b:
                raise AssertionError("fiber candidate landed on a different "
                                     "element of the Kottwitz set")
""", "",
        ("tests/test_packets.py::"
         "test_fiber_check_catches_a_candidate_on_another_element",),
        "a fiber candidate kept though its member lies over another b"),
    Mutation(
        "term-field-from-the-wrong-argument", "src/rk/endoscopy.py",
        'object.__setattr__(self, "s_tag", s_tag)',
        'object.__setattr__(self, "s_tag", sign_token)',
        ("tests/test_report_corpus.py::test_every_corpus_report_is_unchanged",),
        "an eci term that carries its sign token as its datum label"),
)


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _tests_pass(tree: Path, tests: Tuple[str, ...]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode == 0


def check(mutation: Mutation) -> str:
    """'caught', 'SURVIVED', or the reason the check could not run."""
    with tempfile.TemporaryDirectory(prefix="rk-mutant-") as tmp:
        tree = Path(tmp)
        _copy_checkout(tree)
        if not _tests_pass(tree, mutation.tests):
            return "NOT RUN: the tests fail before the edit"
        target = tree / mutation.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutation.old) != 1:
            return "NOT RUN: the old text occurs %d times in %s" % (
                text.count(mutation.old), mutation.path)
        target.write_text(text.replace(mutation.old, mutation.new),
                          encoding="utf-8")
        return "SURVIVED" if _tests_pass(tree, mutation.tests) else "caught"


def main(argv) -> int:
    chosen = [m for m in MUTATIONS if not argv or m.name in argv]
    unknown = sorted(set(argv) - {m.name for m in MUTATIONS})
    if unknown:
        print("unknown mutation: %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    bad = 0
    for m in chosen:
        outcome = check(m)
        bad += outcome != "caught"
        print("%-40s %s" % (m.name, outcome))
        if outcome != "caught":
            print("    %s; tests: %s" % (m.why, " ".join(m.tests)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
