"""Description-file round trips and the command-line surface."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from rk import presets
from rk.files import (
    disconnected_from_tree,
    endoscopy_from_tree,
    group_from_tree,
    load_tree,
    parameter_from_tree,
)
from rk.lattice import mat

from oracles import (
    disconnected_to_tree,
    dump_tree,
    endoscopy_to_tree,
    group_to_tree,
    parameter_to_tree,
    sign_flips,
)


@pytest.mark.parametrize("name", ["gl2", "gl4", "sl3", "sp4",
                                  "gl2x2-swap", "u3", "res-quad-torus"])
def test_group_file_round_trip(name, tmp_path):
    g = presets.group(name)
    tree = group_to_tree(g)
    path = tmp_path / (name + ".yaml")
    dump_tree(tree, str(path))
    loaded = load_tree(str(path))
    g2 = group_from_tree(loaded)
    assert group_to_tree(g2) == tree
    assert g2.datum.roots == g.datum.roots
    assert g2.galois.char_generators == g.galois.char_generators


@pytest.mark.parametrize("name", ["gl2-triv", "gl4-st2", "gl2x2-swap-triv"])
def test_parameter_file_round_trip(name, tmp_path):
    p = presets.parameter(name)
    tree = parameter_to_tree(p, p.group.name)
    path = tmp_path / "param.yaml"
    dump_tree(tree, str(path))
    p2 = parameter_from_tree(load_tree(str(path)))
    assert parameter_to_tree(p2, p2.group.name) == tree
    assert p2.roots == p.roots
    assert p2.positives == p.positives
    assert p2.wphi_elements == p.wphi_elements


@pytest.mark.parametrize("name", ["gl2-s1", "gl4-splus", "gl2-sreg"])
def test_endoscopy_file_round_trip(name, tmp_path):
    e = presets.endoscopy(name)
    tree = endoscopy_to_tree(e, e.group.name)
    path = tmp_path / "endo.yaml"
    dump_tree(tree, str(path))
    e2 = endoscopy_from_tree(load_tree(str(path)))
    assert endoscopy_to_tree(e2, e2.group.name) == tree
    assert e2.s == e.s
    assert set(e2.H.datum.roots) == set(e.H.datum.roots)


@pytest.mark.parametrize("name", ["o2", "gl1x1-swap", "gl2-conn",
                                  "o2-cocycle"])
def test_disconnected_file_round_trip(name, tmp_path):
    if name == "o2-cocycle":
        # the component g = -1 with the cocycle c(g, g) = 1/2, given by the
        # word g^3; it is written back as the shortest word, g
        tree = dict(disconnected_to_tree(presets.disconnected("o2")),
                    cocycle=[[[0, 0, 0], [0], "1/2"]])
        d = disconnected_from_tree(tree)
        assert d.cocycle == {(mat([[-1]]), mat([[-1]])): Fraction(1, 2)}
        assert disconnected_to_tree(d)["cocycle"] == [[[0], [0], "1/2"]]
    else:
        d = presets.disconnected(name)
    tree = disconnected_to_tree(d)
    path = tmp_path / "disc.yaml"
    dump_tree(tree, str(path))
    d2 = disconnected_from_tree(load_tree(str(path)))
    assert disconnected_to_tree(d2) == tree
    assert set(d2.pi0.elements) == set(d.pi0.elements)
    assert d2.cocycle == d.cocycle


# ---------------------------------------------------------------------------
# CLI

def _run(*args):
    proc = subprocess.run([sys.executable, "-m", "rk.cli", *args],
                          capture_output=True, text=True, timeout=600)
    return proc


def _json_out(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_examples():
    data = _json_out(_run("examples"))
    assert "gl4-st2" in data["presets"]["parameters"]
    assert data["schema"] == "rk.report.v1"


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv,code", [
    (("examples",), 0),
    # a wall rejection, whose report goes out through the other path
    (("bset", "--group", "gl2", "--levi", "", "--kappa", "1,1"), 2),
])
def test_cli_closed_stdout_exits_1_quietly(argv, code, monkeypatch, capsys):
    from rk import cli
    assert cli.main(list(argv)) == code
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(list(argv)) == 1
    assert sys.stdout.name == os.devnull   # the rest, and the exit flush
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_cli_closed_pipe_leaves_no_traceback():
    # the reader is gone before rk writes: no traceback from the write nor
    # from the flush at exit
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "rk.cli", "examples"],
                              stdout=write, stderr=subprocess.PIPE,
                              text=True, timeout=600)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_cli_weyl_double_coset():
    data = _json_out(_run("weyl", "--group", "gl4", "--levi1", "0,2",
                          "--kind", "double-coset"))
    assert data["count"] == 2


def test_cli_weyl_geometric():
    data = _json_out(_run("weyl", "--group", "gl2", "--levi1", "",
                          "--kind", "geometric"))
    assert data["count"] == 2


def test_cli_weyl_full_identity():
    data = _json_out(_run("weyl", "--group", "gl3", "--levi1", "G",
                          "--kind", "double-coset"))
    assert data["count"] == 1
    assert data["elements"][0]["word"] == []


def test_cli_bset():
    data = _json_out(_run("bset", "--group", "gl2", "--levi", "",
                          "--kappa", "1,0"))
    assert data["newton"] == ["1", "0"]
    assert data["stratum_levi"] == []
    assert data["kappa_push"] == {"free": [1], "torsion": []}


def test_cli_bset_basic():
    data = _json_out(_run("bset", "--group", "gl2", "--levi", "G",
                          "--kappa", "1"))
    assert data["newton"] == ["1/2", "1/2"]
    assert data["basic"] is True


def test_cli_bset_wall_rejection_exit_code():
    proc = _run("bset", "--group", "gl2", "--levi", "", "--kappa", "1,1")
    assert proc.returncode == 2
    data = json.loads(proc.stdout)
    assert data["error"] == "rejection"
    assert data["facet"]["zero_walls"] == [0]


def test_cli_irr():
    data = _json_out(_run("irr", "--group", "o2", "--height", "1"))
    assert data["count"] == 3


def test_cli_irr_group_with_more_classes_than_the_least_prime(tmp_path):
    # a torus with component group D4 x Z2 x Z2 (20 classes); its character
    # table needs a prime above the class count, not only above 2*sqrt(32)
    path = tmp_path / "d4z2z2.yaml"
    rotation = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    flips = [[[-1 if i == j == k else int(i == j) for j in range(4)]
              for i in range(4)] for k in (1, 2, 3)]
    dump_tree({"kind": "disconnected", "name": "d4z2z2", "rank": 4,
               "roots": [], "coroots": [], "simple": [],
               "component_generators": [rotation] + flips}, str(path))
    data = _json_out(_run("irr", "--group", str(path), "--height", "0"))
    assert data["count"] == 20
    assert sorted(c["module_dim"] for c in data["classes"]) == \
        [1] * 16 + [2] * 4


def test_cli_irr_rejects_a_component_generator_of_determinant_2(tmp_path):
    # the basis orbit 1, 2, 4, ... of (2) is infinite; the determinant check
    # rejects the file before any orbit runs, so the timeout is never near
    path = tmp_path / "det2.yaml"
    dump_tree({"kind": "disconnected", "name": "det2", "rank": 1,
               "roots": [], "coroots": [], "simple": [],
               "component_generators": [[[2]]]}, str(path))
    proc = subprocess.run([sys.executable, "-m", "rk.cli", "irr", "--group",
                           str(path), "--height", "1"],
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: action matrices must have determinant +/-1\n")


def test_cli_irr_rejects_a_wrong_size_generator_before_its_cocycle(tmp_path):
    # the cocycle word multiplies the 2 x 2 generator on a rank-1 datum; the
    # size is named before any product, where `dot` would have failed
    path = tmp_path / "size.yaml"
    dump_tree({"kind": "disconnected", "name": "size", "rank": 1,
               "roots": [], "coroots": [], "simple": [],
               "component_generators": [[[0, 1], [1, 0]]],
               "cocycle": [[[0], [0], "1/2"]]}, str(path))
    proc = _run("irr", "--group", str(path), "--height", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: action matrix of wrong size\n")


def test_cli_eci_names_the_empty_weight_of_a_0_dimensional_center(tmp_path):
    # an elliptic sl2 parameter has an empty center basis, so the default
    # weight 1,0 cannot apply; the message says how to ask for the empty one
    path = tmp_path / "sl2-ell.yaml"
    path.write_text("kind: parameter\ngroup: sl2\nminimal_levi: [0]\n")
    proc = _run("eci", "--param", str(path), "--endo", "sl2-s1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", 'error: eci needs --rho or --b: the center is 0-dimensional, '
        'and --rho "" asks for the empty weight\n')
    assert _json_out(_run("eci", "--param", str(path), "--endo", "sl2-s1",
                          "--rho", ""))["pass"] is True


def test_cli_packet_member():
    data = _json_out(_run("packet", "--param", "gl2-triv",
                          "--rho", "1,0", "--fiber"))
    assert data["member"]["b"] == \
        {"levi": [], "kappa": {"free": [1, 0], "torsion": []}}
    assert len(data["fiber"]) == 1


def test_cli_packet_enumerate():
    data = _json_out(_run("packet", "--param", "gl2-triv",
                          "--enumerate", "--height", "2"))
    assert data["round_trip"]["pass"] is True
    assert len(data["members"]) == 6


def test_cli_eci():
    data = _json_out(_run("eci", "--param", "gl2-triv", "--endo", "gl2-s1",
                          "--rho", "1,0"))
    assert data["pass"] is True
    assert data["rhs"][0]["coefficient"] == "2"
    assert data["indexing"]["pass"] is True


def test_cli_determinism():
    a = _json_out(_run("weyl", "--group", "gl3", "--levi1", "0",
                       "--kind", "transporter"))
    b = _json_out(_run("weyl", "--group", "gl3", "--levi1", "0",
                       "--kind", "transporter"))
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_cli_out_file(tmp_path):
    out = tmp_path / "report.json"
    proc = _run("bset", "--group", "gl2", "--levi", "G", "--kappa", "0",
                "--out", str(out))
    assert proc.returncode == 0
    data = json.loads(out.read_text())
    assert data["basic"] is True


@pytest.mark.parametrize("target,reason", [
    ("missing/x.json", "[Errno 2] No such file or directory"),
    (".", "[Errno 21] Is a directory"),
], ids=["missing-directory", "a-directory"])
def test_cli_out_path_that_cannot_be_written(target, reason, tmp_path,
                                             capsys):
    # the report is made, but its file cannot be opened: an error line and
    # exit 1, with no traceback and nothing on stdout
    from rk import cli
    path = os.path.join(str(tmp_path), target)
    argv = ["packet", "--param", "gl2-triv", "--rho", "1,0", "--out", path]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: %s: %r\n" % (reason, path))


@pytest.mark.parametrize("group,data,message", [
    ("gl4", [1, 2], "element: expected an object with the fields levi and "
     "kappa"),
    ("gl4", {"levi": [9], "kappa": {"free": [0], "torsion": []}},
     "levi: simple position 9 is out of range; valid positions are 0..2"),
    ("u3", {"levi": [0], "kappa": {"free": [], "torsion": []}},
     "levi: the subset is not Galois stable: position 0 lies in the orbit "
     "[0, 1]"),
    ("gl4", {"levi": "G", "kappa": {"free": [0], "torsion": []}},
     "levi: expected a list of integers"),
    ("gl4", {"levi": [0, 1, 2]}, "kappa: expected an object with the fields "
     "free and torsion"),
    ("gl4", {"levi": [0, 1, 2], "kappa": {"free": ["1"], "torsion": []}},
     "kappa.free: expected a list of integers"),
    ("gl4", {"levi": [0, 1, 2], "kappa": {"free": [1]}},
     "kappa.torsion: expected a list of integers"),
    ("gl4", {"levi": [0, 1, 2], "kappa": {"free": [1, 0], "torsion": []}},
     "kappa.free: expected a list of length 1, got 2"),
], ids=["not-an-object", "levi-out-of-range", "levi-not-galois-stable",
        "levi-not-a-list", "kappa-missing", "kappa-free-not-integers",
        "kappa-torsion-missing", "kappa-free-wrong-length"])
def test_cli_rejects_a_malformed_element_file(group, data, message, tmp_path,
                                              capsys):
    from rk import cli
    path = tmp_path / "b.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["bset", "--group", group, "--b", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_cli_eci_rejects_a_malformed_element_file(tmp_path, capsys):
    from rk import cli
    path = tmp_path / "b.json"
    path.write_text('{"levi": [9], "kappa": {"free": [0], "torsion": []}}',
                    encoding="utf-8")
    argv = ["eci", "--param", "gl2-triv", "--endo", "gl2-s1", "--b",
            str(path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "", "error: levi: simple position 9 is out of range; valid "
        "positions are 0..0\n")


def test_cli_group_from_file(tmp_path):
    g = presets.group("sp4")
    path = tmp_path / "sp4.yaml"
    dump_tree(group_to_tree(g), str(path))
    data = _json_out(_run("weyl", "--group", str(path), "--levi1", "0",
                          "--kind", "double-coset"))
    assert data["count"] >= 1


@pytest.mark.parametrize("argv", [
    ("bset", "--levi", "", "--kappa", "1"),
    ("weyl", "--levi1", ""),
], ids=["bset", "weyl"])
def test_cli_rejects_dependent_simple_roots(argv, tmp_path):
    # a group file whose simple roots (2) and (-2) are dependent
    path = tmp_path / "bad.yaml"
    path.write_text("kind: group\nname: bad\nrank: 1\nroots: [[2], [-2]]\n"
                    "coroots: [[1], [-1]]\nsimple: [0, 1]\n", encoding="utf-8")
    proc = _run(*argv, "--group", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: simple roots are linearly dependent\n"


@pytest.mark.parametrize("argv,message", [
    (("weyl", "--group", "gl4", "--levi1", "9", "--kind", "transporter"),
     "--levi1: simple position 9 is out of range; valid positions are 0..2"),
    (("weyl", "--group", "gl4", "--levi1", "0", "--levi2", "-1"),
     "--levi2: simple position -1 is out of range; valid positions are 0..2"),
    (("weyl", "--group", "u3", "--levi1", "0"),
     "--levi1: the subset is not Galois stable: position 0 lies in the "
     "orbit [0, 1]"),
    (("bset", "--group", "gl1", "--levi", "0", "--kappa", "1"),
     "--levi: simple position 0 is out of range; gl1 has no simple "
     "positions"),
    (("bset", "--group", "gl2", "--levi", "0,x", "--kappa", "1"),
     "--levi: '0,x' is not a comma-separated list of simple positions"),
], ids=["out-of-range", "negative", "not-galois-stable", "no-simple-roots",
        "not-integers"])
def test_cli_rejects_bad_levi(argv, message):
    proc = _run(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: %s\n" % message


@pytest.mark.parametrize("argv,message", [
    (("packet", "--param", "gl2-triv", "--rho", "1,0,0"),
     "--rho: the weight needs 2 entries, got 3"),
    (("packet", "--param", "gl2-triv", "--rho", ""),
     "--rho: the weight needs 2 entries, got 0"),
    (("packet", "--param", "gl2-triv", "--rho", "1,0:5"),
     "--rho: module index 5 is out of range; valid indices are 0..0"),
    (("packet", "--param", "gl2-triv", "--rho=1,a"),
     "--rho: '1,a' is not a comma-separated list of 2 integers"),
    (("packet", "--param", "gl2-triv", "--rho=-1,3"),
     "--rho: the weight -1,3 is not dominant"),
    (("eci", "--param", "gl2-triv", "--endo", "gl2-s1", "--rho", "1"),
     "--rho: the weight needs 2 entries, got 1"),
    (("eci", "--param", "gl3-triv", "--endo", "gl3-s1"),
     "eci needs --rho or --b: the default weight 1,0 has 2 entries, this "
     "parameter needs 3"),
    (("bset", "--group", "gl2", "--levi", "", "--kappa", "x"),
     "--kappa: 'x' is not a comma-separated list of integers"),
    (("bset", "--group", "gl2", "--levi", "", "--kappa-ambient", "1,y"),
     "--kappa-ambient: '1,y' is not a comma-separated list of integers"),
    (("bset", "--group", "gl2", "--levi", "", "--kappa", "1,0;;5"),
     "--kappa: '1,0;;5' has 3 ';'-separated parts; expected FREE or "
     "FREE;TORSION"),
], ids=["wrong-length", "empty-weight", "module-out-of-range", "not-integers",
        "not-dominant", "eci-wrong-length", "eci-default-wrong-length",
        "kappa-not-integers", "kappa-ambient-not-integers",
        "kappa-extra-part"])
def test_cli_rejects_bad_rho(argv, message):
    proc = _run(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: %s\n" % message


@pytest.mark.parametrize("argv", [
    ("packet", "--param", "gl2-triv", "--enumerate", "--height", "-1"),
    ("irr", "--group", "o2", "--height", "-1"),
], ids=["packet", "irr"])
def test_cli_rejects_negative_height(argv):
    proc = _run(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: height bound must be >= 0\n"


@pytest.mark.parametrize("argv", [
    ("packet", "--group", "gl3", "--param", "gl4-st2", "--rho", "1,0"),
    ("eci", "--group", "gl3", "--param", "gl4-st2", "--endo", "gl4-s1"),
], ids=["packet", "eci"])
def test_cli_rejects_group_flag(argv):
    # the parameter names its group; a --group beside it was never read
    proc = _run(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: unrecognized arguments: --group gl3" in proc.stderr


def test_cli_rejects_a_weight_box_over_budget():
    proc = _run("irr", "--group", "sl3-conn", "--height", "5000")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: height bound 5000 gives a box of "
                           "(5000+1)^2 weights, over the limit of 1000000\n")


@pytest.mark.parametrize("param,endo,message", [
    ("gl2-triv", "gl4-s1",
     "--param gl2-triv is a parameter of gl2, but --endo gl4-s1 is an "
     "endoscopic datum of gl4"),
    ("gl2x2-swap-triv", "gl4-s1",
     "--param gl2x2-swap-triv is a parameter of gl2x2-swap, but --endo "
     "gl4-s1 is an endoscopic datum of gl4"),
    ("gl4-st2", "gl2x2-swap-s1",
     "--param gl4-st2 is a parameter of gl4, but --endo gl2x2-swap-s1 is "
     "an endoscopic datum of gl2x2-swap"),
], ids=["other-rank", "other-roots", "param-of-gl4"])
def test_cli_eci_rejects_mismatched_groups(param, endo, message):
    proc = _run("eci", "--param", param, "--endo", endo)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: %s\n" % message


def _report(proc):
    """(exit code, stdout without its timestamp, stderr)."""
    out = json.loads(proc.stdout) if proc.stdout else None
    if out:
        out.pop("generated_at")
    return proc.returncode, out, proc.stderr


@pytest.mark.parametrize("argv,code", [
    (("bset", "--group", "gl2", "--levi", "", "--kappa", "-1,0"), 2),
    (("bset", "--group", "gl2", "--levi", "", "--kappa", "-1,-2"), 0),
    (("bset", "--group", "gl2", "--levi", "", "--kappa-ambient", "-1,-2"),
     0),
    (("packet", "--param", "gl2-triv", "--rho", "-1,-2"), 0),
    (("packet", "--param", "gl2-triv", "--rho", "-1,3"), 1),
], ids=["kappa-wall", "kappa", "kappa-ambient", "rho", "rho-not-dominant"])
def test_cli_accepts_negative_values(argv, code):
    # "--flag -1,0" reads the value as "--flag=-1,0" does
    joined = argv[:-2] + ("%s=%s" % argv[-2:],)
    got = _report(_run(*argv))
    assert got[0] == code
    assert got == _report(_run(*joined))


def _sign_flip_torus_tree(rank):
    """The rank-k torus with its k coordinate sign flips as components:
    the identity component of O(2)^k, with component group (Z/2)^k."""
    return {"kind": "disconnected", "name": "t%d-flips" % rank,
            "rank": rank, "roots": [], "coroots": [], "simple": [],
            "component_generators": [[list(row) for row in g]
                                     for g in sign_flips(rank)]}


@pytest.mark.parametrize("rank,classes,stdout", [
    (6, 64, "e48ff810c48c65c26baeeb7657ca336df43fdd70a879072672c100d36fc5afbf"),
    (7, 128,
     "4adee33702e504d8170c7008bf229a52afaac9c45987859b13b4fa18c1eb48a2"),
])
def test_cli_irr_on_sign_flip_torus(rank, classes, stdout, tmp_path, capsys):
    # one character per element of (Z/2)^k; the stdout digest
    # (`generated_at` blanked) is the report the Smith-form route gave
    from rk import cli
    from make_report_corpus import digest
    path = str(tmp_path / "torus.yaml")
    dump_tree(_sign_flip_torus_tree(rank), path)
    code = cli.main(["irr", "--group", path, "--height", "0"])
    out, err = capsys.readouterr()
    assert code == 0
    assert len(json.loads(out)["classes"]) == classes
    assert digest(code, out.encode(), err.encode()) == {
        "exit": 0, "stdout": stdout, "stderr": digest(0, b"", b"")["stderr"]}
