"""Elliptic parameters: the minimal Levi is the whole group.

Such a parameter's members are all basic, so they land on the inner forms
J_b of G, the non-quasi-split ones included (Kottwitz, "Stable trace
formula: elliptic singular terms", Math. Ann. 275 (1986), 5).  Its dual
split center can be trivial (the semisimple groups, U(3)), which makes
the parameter center basis B empty and every matrix built on B have no
rows or no columns.  For every group preset: the round trip to height 2,
the basic classes reached, and both sides of the identity against the
trivial endoscopic datum on each height-1 member, in the library and
through the command line.
"""

from functools import lru_cache

import pytest

from rk import cli, presets
from rk.endoscopy import eci_both_sides, indexing_bijection_check
from rk.packets import build_packet_member, enumerate_rhos, round_trip_check
from rk.params import Parameter


@lru_cache(maxsize=None)
def _elliptic(name):
    group = presets.group(name)
    return Parameter(group, group.full_subset(), (), (), label=name + "-ell")


def _members(param, height):
    return [build_packet_member(param, rho)
            for rho in enumerate_rhos(param, height)]


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_elliptic_round_trip(name):
    # to height 2, with every member basic
    param = _elliptic(name)
    report = round_trip_check(param, 2)
    assert report["pass"], report
    members = _members(param, 2)
    assert members and all(m.b.is_basic(param.group) for m in members)


@pytest.mark.parametrize("name", ["gl2", "gl3", "gl4"])
def test_elliptic_gln_reaches_the_division_algebra_forms(name):
    # B(GL_n)_bas = Z by kappa; kappa = 1 is the inner form of GL_n by a
    # division algebra of invariant 1/n (D^x for GL_2), which no preset
    # parameter reaches
    param = _elliptic(name)
    kappas = {m.b.kappa for m in _members(param, 2)}
    assert {(k.free, k.torsion) for k in kappas} == {((0,), ()), ((1,), ()),
                                                     ((2,), ())}


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_elliptic_eci_against_the_trivial_datum(name):
    param = _elliptic(name)
    endo = presets.endoscopy(name + "-s1")
    members = _members(param, 1)
    assert members
    for member in members:
        assert eci_both_sides(param, member.b, endo)["equal"]
        assert indexing_bijection_check(param, member.levi, endo)["pass"]


@pytest.mark.parametrize("name", presets.GROUP_NAMES)
def test_elliptic_commands_exit_0(name, tmp_path, capsys):
    # the empty weight is asked for as --rho "" (and --rho=); eci exits 0
    # only when the identity and the indexing bijection pass
    param = _elliptic(name)
    path = tmp_path / (name + "-ell.yaml")
    path.write_text("kind: parameter\ngroup: %s\nminimal_levi: [%s]\n" % (
        name, ", ".join(map(str, sorted(param.group.full_subset())))))
    weights = sorted({",".join(map(str, rho.weight))
                      for rho in enumerate_rhos(param, 1)})
    argvs = [["packet", "--param", str(path), "--enumerate", "--height", "1"]]
    for w in weights:
        argvs.append(["packet", "--param", str(path), "--rho", w, "--fiber"])
        argvs.append(["eci", "--param", str(path), "--endo", name + "-s1",
                      "--rho", w])
    if weights == [""]:
        argvs.append(["eci", "--param", str(path), "--endo", name + "-s1",
                      "--rho="])
    for argv in argvs:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        assert '"pass": false' not in out
