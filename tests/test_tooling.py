"""Names the benchmark's tracer wraps must keep resolving in `rk`, as a
kind of object the tracer knows how to wrap, so a change that deletes,
renames or re-kinds one fails here and not only in traced benchmark
runs.  Every name an `rk` module imports is used, every per-object
memo goes through `lattice.cached`, and every key kind is listed in its
owner's key table.  Every function and method of `rk` is named by the
library or the benchmark, or is listed as kept for the tests, and a
name two of them share is listed as checked.  Each command loads only
the modules it runs, the command line imports its layers in its
handlers, and the cyclotomic layer and the preset tables load no other
`rk` module.  The preset registry lists, resolves and rejects the same
names, builds the groups of its earlier table, and every preset resolves
like its dumped description file.  One pass of each warm benchmark workload reproduces
the reference digests, alpha_L^-1 runs no factorization, and a command
runs no more Smith forms than its pinned count."""

import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import FunctionType

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _targets():
    """`TARGETS` read from the tracer's source, which is neither run nor
    compiled to a cache file."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("layer,path", [
    (layer, path) for layer, path, _fn in _targets()] + [("weyl", "mat_mul")])
def test_traced_name_resolves(layer, path):
    owner = importlib.import_module("rk." + layer)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert attr in vars(owner)
    # the tracer wraps a plain function, a property's getter or a
    # classmethod's function; anything else (a cached_property, say) it
    # would wrap as a plain function and break
    assert isinstance(vars(owner)[attr], (FunctionType, property, classmethod))


def _names(tree):
    """The identifiers a syntax tree references: names, attributes and
    imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_the_lattice_layer_references_solve_rational():
    # every library coordinate is read from an integer factorization or an
    # orbit tree; the Fraction solve stays in rk.lattice as the tests'
    # reference (and the tracer's target)
    users = []
    for path in sorted((ROOT / "src" / "rk").glob("*.py")):
        if path.name == "lattice.py":
            continue
        if "solve_rational" in _names(ast.parse(
                path.read_text(encoding="utf-8"))):
            users.append(path.name)
    assert users == []


def test_only_smith_normal_form_calls_the_raw_factorization():
    # every Smith form in the library goes through the re-checked
    # lattice.smith_normal_form: the one reference to the unchecked
    # _snf_raw in src/rk is its call there
    refs, callers = 0, []
    for path in sorted((ROOT / "src" / "rk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs += list(_names(tree)).count("_snf_raw")
        callers += [(path.name, fn.name) for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    and "_snf_raw" in _names(fn)]
    assert (refs, callers) == (1, [("lattice.py", "smith_normal_form")])


# the benchmark's self-test reads `rk.weyl.mat_mul` to check that the
# tracer rebinds a copied name and restores it
UNUSED_IMPORTS_KEPT = {("weyl.py", "mat_mul")}


def test_every_imported_name_is_used():
    unused = set()
    for path in sorted((ROOT / "src" / "rk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.add((path.name, name))
    assert unused == UNUSED_IMPORTS_KEPT


# the functions and methods defined in src/rk that no code there or in
# perfbench names: each is kept for the tests, and says why
TEST_ONLY = {
    "disconnected.char_eval": "characters of the full centralizer, which "
                              "no command prints yet",
    "disconnected.WeightMultiplicityTable.multiplicity":
        "a single-weight query of the table, for the weight tests",
    "lattice.closure": "the matrix closure the group-core tests compare "
                       "with; the benchmark's tracer still names it",
    "lattice.solve_rational": "the rational solve of the oracle tests; the "
                              "benchmark's tracer still names it",
    "lattice.FgAbelianGroup.elements_in_box": "the acceptance test's "
                                              "exhaustive element boxes",
    "params.Parameter.component_group": "pi0 of the centralizer, which the "
                                        "benchmark's tracer counts",
    "rootdata.GaloisAction.is_trivial": "the split-group test of the "
                                        "moving Galois generators",
    "rootdata.ReductiveGroup.dominant": "the dominance test of the chamber "
                                        "and lift tests",
    "rootdata.ReductiveGroup.facet_levi": "the open-facet Levi of the "
                                          "chamber and lift tests",
}


def _defined_functions():
    """'module.name' or 'module.Class.name' of every module-level function
    and method in src/rk, dunder methods aside."""
    for path in sorted((ROOT / "src" / "rk").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                owner, fns = path.stem, [node]
            elif isinstance(node, ast.ClassDef):
                owner, fns = "%s.%s" % (path.stem, node.name), node.body
            else:
                continue
            for fn in fns:
                if isinstance(fn, ast.FunctionDef) and not (
                        fn.name.startswith("__") and fn.name.endswith("__")):
                    yield "%s.%s" % (owner, fn.name)


def _referenced_names():
    """The names src/rk and perfbench reference, with the string constants
    of src/rk (a preset is reached by getattr on its kind)."""
    used = set()
    for path in sorted((ROOT / "src" / "rk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(_names(tree))
        used.update(n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used.update(_names(ast.parse(path.read_text(encoding="utf-8"))))
    return used


# the bare names two or more functions or methods of src/rk share: the
# scan matches a name, so a caller of one hides the other, and each
# definition was checked by hand to have callers of its own
CHECKED_COLLISIONS = {
    "dual": "BasedRootDatum.dual and GaloisAction.dual, both called by "
            "rootdata.dual_datum",
    "items": "WeightMultiplicityTable's in rk.disconnected, "
             "FormalDistribution's in rk.endoscopy",
    "key": "EmbeddedDatum's in the endoscopy memo keys, PacketMember's in "
           "the packet tables",
    "label": "Module's in rk.packets and rk.cli, HighestWeightPair's in "
             "rk.disconnected",
}


def _collisions():
    """The bare names defined more than once among `_defined_functions`."""
    names = [q.rsplit(".", 1)[1] for q in _defined_functions()]
    return {n for n in names if names.count(n) > 1}


def test_every_function_is_used_or_kept_for_the_tests():
    # no unused API: a function nothing in the library or the benchmark
    # names is listed in TEST_ONLY with its reason, matched by name; a
    # name defined twice is matched by the callers of either, so a new one
    # must be checked and listed in CHECKED_COLLISIONS
    assert _collisions() == set(CHECKED_COLLISIONS)
    used = _referenced_names()
    unreferenced = {q for q in _defined_functions()
                    if q.rsplit(".", 1)[1] not in used}
    assert unreferenced == set(TEST_ONLY)


def test_an_unreferenced_function_is_reported(tmp_path, monkeypatch):
    # the scan above sees a new public function that nothing calls
    (tmp_path / "src" / "rk").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "rk" / "extra.py").write_text(
        "def unheard_of():\n    pass\n\n\ndef used():\n    pass\n\n\n"
        "class Thing:\n    def method(self):\n        return used()\n")
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    assert set(_defined_functions()) == {"extra.unheard_of", "extra.used",
                                         "extra.Thing.method"}
    assert {q for q in _defined_functions()
            if q.rsplit(".", 1)[1] not in _referenced_names()} == \
        {"extra.unheard_of", "extra.Thing.method"}


def test_a_name_defined_twice_is_reported(tmp_path, monkeypatch):
    # a method named like another is seen as a collision, even when the
    # other one has callers and this one has none
    (tmp_path / "src" / "rk").mkdir(parents=True)
    (tmp_path / "src" / "rk" / "extra.py").write_text(
        "class A:\n    def dual(self):\n        pass\n\n\n"
        "class B:\n    def dual(self):\n        return A().dual()\n\n\n"
        "def once():\n    pass\n")
    monkeypatch.setattr(sys.modules[__name__], "ROOT", tmp_path)
    assert _collisions() == {"dual"}


# ---------------------------------------------------------------------------
# per-object memos: one rule, one key table per owner

SRC = ROOT / "src" / "rk"


def _module_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _memo_tables():
    """Owner class -> its key table: the `#:` lines right above the line
    that gives each instance its `memo`."""
    tables = {}
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for cls in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                made = (isinstance(node, ast.Attribute) and node.attr == "memo"
                        and isinstance(node.ctx, ast.Store)) or \
                    (isinstance(node, ast.Call) and
                     ast.unparse(node.func) == "object.__setattr__" and
                     ast.literal_eval(node.args[1]) == "memo")
                if made:
                    first = node.lineno - 1
                    while lines[first - 1].strip().startswith("#:"):
                        first -= 1
                    tables[cls.name] = " ".join(
                        line.strip()[2:] for line in
                        lines[first:node.lineno - 1])
    return tables


def _is_call(node, name):
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Name) and node.func.id == name


class _MemoKeys(ast.NodeVisitor):
    """Every memo key of a module, with the class whose key table must list
    its kind: the key of each `cached(memo, key, ...)` call and of each
    subscript or `in` test of a `memo` attribute."""

    def __init__(self):
        self.keys = []          # (owner, key node, source of the use)
        self.cls = self.func = None

    def _owner(self, memo):
        """`self.memo` belongs to the enclosing class, `x.memo` to the
        annotated class of argument x."""
        if isinstance(memo, ast.Attribute) and memo.attr == "memo" and \
                isinstance(memo.value, ast.Name) and self.func is not None:
            if memo.value.id == "self":
                return self.cls
            return next((ast.unparse(a.annotation)
                         for a in self.func.args.args
                         if a.arg == memo.value.id and a.annotation), None)
        return None

    def visit_ClassDef(self, node):
        outer, self.cls = self.cls, node.name
        self.generic_visit(node)
        self.cls = outer

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node
        self.generic_visit(node)
        self.func = outer

    def _add(self, memo, key, node):
        self.keys.append((self._owner(memo), key, ast.unparse(node)))

    def visit_Call(self, node):
        if _is_call(node, "cached"):
            self._add(node.args[0], node.args[1], node)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        if isinstance(node.value, ast.Attribute) and \
                node.value.attr == "memo":
            self._add(node.value, node.slice, node)
        self.generic_visit(node)

    def visit_Compare(self, node):
        if isinstance(node.ops[0], (ast.In, ast.NotIn)) and \
                isinstance(node.comparators[0], ast.Attribute) and \
                node.comparators[0].attr == "memo":
            self._add(node.comparators[0], node.left, node)
        self.generic_visit(node)


def _memo_kinds(module):
    """{owner: kinds} of one module's memo keys; every key is a tuple led
    by its kind, a string constant."""
    visitor = _MemoKeys()
    visitor.visit(_module_trees()[module])
    kinds = {}
    for owner, key, call in visitor.keys:
        assert owner is not None, call
        assert isinstance(key, ast.Tuple) and key.elts and \
            isinstance(key.elts[0], ast.Constant) and \
            isinstance(key.elts[0].value, str), call
        kinds.setdefault(owner, set()).add(key.elts[0].value)
    return kinds


def _undocumented(kinds):
    tables = _memo_tables()
    return sorted((owner, kind) for owner, names in kinds.items()
                  for kind in names
                  if '("%s"' % kind not in tables.get(owner, ""))


def test_every_endoscopy_memo_key_kind_is_documented():
    # the kind of each key of `cached(param.memo, key, ...)` is listed at
    # Parameter.memo
    kinds = _memo_kinds("endoscopy.py")
    assert kinds == {"Parameter": {"h", "admissible", "embedded", "backward",
                                   "indexing", "trace", "jacquet", "token",
                                   "forward"}}
    assert _undocumented(kinds) == []
    # every key but the forward table's, which depends on the parameter and
    # the Levi alone, has the datum second, so two data never share an entry
    visitor = _MemoKeys()
    visitor.visit(_module_trees()["endoscopy.py"])
    for _owner, key, call in visitor.keys:
        if key.elts[0].value == "forward":
            assert ast.unparse(key) == "('forward', levi)", call
        else:
            assert ast.unparse(key.elts[1]) == "endo", call


def test_every_packets_memo_key_kind_is_documented():
    # the kind of each key of `cached(param.memo, key, ...)` and of the
    # forward map's explicit hit test is listed at Parameter.memo
    kinds = _memo_kinds("packets.py")
    assert kinds == {"Parameter": {"member", "fiber_weight", "center",
                                   "square"}}
    assert _undocumented(kinds) == []


def test_every_memo_key_kind_is_documented_at_its_owner():
    # and, the other way round, every kind a key table lists is the kind
    # of some key in the code, so no stale row stays behind
    kinds = {}
    for module in _module_trees():
        for owner, names in _memo_kinds(module).items():
            kinds.setdefault(owner, set()).update(names)
    assert sorted(kinds) == ["DisconnectedGroupDatum", "Parameter",
                             "ReductiveGroup"]
    tables = _memo_tables()
    assert sorted(tables) == sorted(kinds)
    assert _undocumented(kinds) == []
    listed = {owner: set(re.findall(r'\("(\w+)"', table))
              for owner, table in tables.items()}
    assert all(listed[owner] for owner in kinds)
    assert sorted((owner, kind) for owner, names in listed.items()
                  for kind in names - kinds[owner]) == []


def test_no_hand_rolled_per_object_cache():
    # per-object values are kept by `lattice.cached` or a cached_property:
    # no `vars(...)` store (the subgroup copy of MatrixGroup's tables is
    # the one use of `vars`) and no `if self._x is None` lazy field
    found = []
    for module, tree in _module_trees().items():
        allowed = {id(node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and
                   cls.name == "MatrixGroup"
                   for func in cls.body
                   if isinstance(func, ast.FunctionDef) and
                   func.name == "subgroup" for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    ast.unparse(node.func) == "vars" and \
                    id(node) not in allowed:
                found.append((module, ast.unparse(node)))
            if isinstance(node, ast.Compare) and \
                    isinstance(node.ops[0], (ast.Is, ast.IsNot)) and \
                    ast.unparse(node.comparators[0]) == "None" and \
                    ast.unparse(node.left).startswith("self._"):
                found.append((module, ast.unparse(node)))
    assert found == []


# ---------------------------------------------------------------------------
# modules a command loads

# run `rk.cli.main` on argv[2:] in a fresh interpreter; print the exit
# code, the report without its timestamp and the loaded module names
_FRESH_MAIN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import rk.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = rk.cli.main(sys.argv[2:])
report = json.loads(out.getvalue())
report.pop("generated_at")
print(json.dumps({"code": code, "report": report,
                  "modules": sorted(sys.modules)}))
"""

# the packet, endoscopy and disconnected-group layers and the file format
BEYOND_WEYL = ("yaml", "rk.endoscopy", "rk.packets", "rk.params",
               "rk.disconnected", "rk.finite_reps", "rk.cyclotomic")
# what a group is built from, and the layers of `weyl` and `bset`
GROUP_LAYERS = ("rk.lattice", "rk.rootdata", "rk.files", "rk.weyl",
                "rk.kottwitz")
# no command needs them: the records are `lattice.Value`s, not dataclasses
COLD_ABSENT = ("dataclasses", "inspect")


def _fresh_main(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_MAIN, str(ROOT / "src"), *argv],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv,absent", [
    (("examples",), BEYOND_WEYL + GROUP_LAYERS),
    (("weyl", "--group", "gl4", "--levi1", "0,2", "--kind", "geometric"),
     BEYOND_WEYL + ("rk.kottwitz",)),
    (("bset", "--group", "gl2", "--levi", "", "--kappa", "1,0"),
     BEYOND_WEYL + ("rk.weyl",)),
    (("irr", "--group", "o2", "--height", "1"),
     ("yaml", "rk.endoscopy", "rk.weyl", "rk.kottwitz")),
    (("packet", "--param", "gl2-triv", "--rho", "1,0", "--fiber"),
     ("yaml", "rk.endoscopy")),
    (("eci", "--param", "gl4-st2", "--endo", "gl4-s1", "--rho", "1,0"),
     ("yaml",)),
], ids=["examples", "weyl", "bset", "irr", "packet", "eci"])
def test_command_loads_only_what_it_runs(argv, absent):
    run = _fresh_main(*argv)
    assert run["code"] == 0
    assert "rk.cli" in run["modules"]
    assert sorted(set(absent + COLD_ABSENT) & set(run["modules"])) == []


def test_no_module_imports_dataclasses():
    # the records derive from lattice.Value; importing dataclasses would
    # bring inspect, ast and dis back onto every cold command
    found = []
    for module, tree in _module_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(module, n) for n in names
                      if n.split(".")[0] == "dataclasses"]
    assert found == []


def _rk_modules_loaded_by(module):
    """The `rk` modules a fresh interpreter holds after `import module`."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import importlib, sys; sys.path.insert(0, sys.argv[1]); "
         "importlib.import_module(sys.argv[2]); "
         "print(' '.join(sorted(m for m in sys.modules "
         "if m == 'rk' or m.startswith('rk.'))))", str(ROOT / "src"), module],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cyclotomic_loads_no_other_rk_module():
    # the cyclotomic layer stands alone: no linear algebra underneath it
    assert _rk_modules_loaded_by("rk.cyclotomic") == ["rk", "rk.cyclotomic"]


def test_presets_loads_no_other_rk_module():
    # the preset tables are literals and builders; building a preset loads
    # the root-datum layer, listing the names does not
    assert _rk_modules_loaded_by("rk.presets") == ["rk", "rk.presets"]


def _module_level_rk_imports(tree):
    """The `rk` modules a module imports outside its function bodies."""
    found, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module)
        elif isinstance(node, ast.ImportFrom):   # relative, inside `rk`
            found.update(["rk." + node.module] if node.module else
                         ["rk." + alias.name for alias in node.names])
        todo.extend(ast.iter_child_nodes(node))
    return {name for name in found if name.split(".")[0] == "rk"}


def test_cli_imports_only_presets_at_module_level():
    # every other layer is imported by the handler that runs it, so the
    # command line loads only what the chosen command needs
    assert _module_level_rk_imports(_module_trees()["cli.py"]) == \
        {"rk.presets"}


@pytest.mark.parametrize("kind,name,argv", [
    ("group", "u3", ("weyl", "--kind", "geometric", "--group")),
    ("group", "sp4", ("weyl", "--levi1", "0", "--group")),
    ("parameter", "gl2x2-swap-triv",
     ("packet", "--enumerate", "--height", "2", "--param")),
])
def test_description_file_resolves_like_its_preset(kind, name, argv,
                                                   tmp_path):
    from oracles import dump_tree, group_to_tree, parameter_to_tree
    from rk import presets
    if kind == "group":
        tree = group_to_tree(presets.group(name))
    else:
        param = presets.parameter(name)
        tree = parameter_to_tree(param, param.group.name)
    path = tmp_path / (name + ".yaml")
    dump_tree(tree, str(path))
    from_file = _fresh_main(*argv, str(path))
    from_preset = _fresh_main(*argv, name)
    assert "yaml" in from_file["modules"]
    assert "yaml" not in from_preset["modules"]
    assert from_file["code"] == from_preset["code"] == 0
    assert from_file["report"] == from_preset["report"]


# ---------------------------------------------------------------------------
# the preset registry

# what `rk examples` lists, in order: the benchmark digests this report
PRESETS = {
    "group": ("gl1", "gl2", "gl3", "gl4", "gl5", "gl6",
              "sl2", "sl3", "sl4", "pgl2", "sp4", "so4", "so6",
              "gl2x2", "gl2x2-swap", "u3", "res-quad-torus"),
    "parameter": ("gl2-triv", "gl3-triv", "gl4-triv", "gl4-st2", "sl2-triv",
                  "gl2x2-swap-triv"),
    "endoscopy": ("gl2-s1", "gl3-s1", "gl4-s1", "sl2-s1", "gl2x2-swap-s1",
                  "gl4-splus", "gl2-sreg"),
    "disconnected": ("o2", "gl1x1-swap", "gl2-conn", "sl2-conn", "sl3-conn"),
}


def _to_tree(kind, obj):
    import oracles
    to_tree = getattr(oracles, kind + "_to_tree")
    if kind in ("parameter", "endoscopy"):
        return to_tree(obj, obj.group.name)
    return to_tree(obj)


def test_examples_lists_every_preset_in_order(capsys):
    from rk import cli, presets
    assert (presets.GROUP_NAMES, presets.PARAM_NAMES, presets.ENDO_NAMES,
            presets.DISCONNECTED_NAMES) == tuple(PRESETS.values())
    assert cli.main(["examples"]) == 0
    listed = json.loads(capsys.readouterr().out)["presets"]
    assert listed == {"groups": list(PRESETS["group"]),
                      "parameters": list(PRESETS["parameter"]),
                      "endoscopy": list(PRESETS["endoscopy"]),
                      "disconnected": list(PRESETS["disconnected"])}


@pytest.mark.parametrize("name", PRESETS["group"])
def test_group_preset_matches_its_earlier_table(name):
    # the literal matrices and the builders that import the root-datum
    # layer on first use give the groups of the table built at import
    from oracles import PRESET_GROUPS, preset_group_by_table
    from rk import presets
    assert tuple(PRESET_GROUPS) == presets.GROUP_NAMES
    built, expected = presets.group(name), preset_group_by_table(name)
    assert built.datum == expected.datum
    assert built.galois.char_generators == expected.galois.char_generators
    assert built.name == expected.name == name


@pytest.mark.parametrize("name", PRESETS["disconnected"])
def test_disconnected_preset_matches_its_earlier_table(name):
    from oracles import PRESET_DISCONNECTED, preset_disconnected_by_table
    from rk import presets
    assert tuple(PRESET_DISCONNECTED) == presets.DISCONNECTED_NAMES
    built, expected = presets.disconnected(name), \
        preset_disconnected_by_table(name)
    assert built.component == expected.component
    assert built.declared_generators == expected.declared_generators
    assert built.name == expected.name == name


@pytest.mark.parametrize("kind,name", [
    (kind, name) for kind, names in PRESETS.items() for name in names])
def test_preset_resolves_like_its_description_file(kind, name, tmp_path):
    # in process: the preset, the same name through `rk.files`, and a
    # description file dumped from the preset give the same tree
    from oracles import dump_tree
    from rk import files, presets
    resolve = getattr(files, "resolve_" + kind)
    tree = _to_tree(kind, getattr(presets, kind)(name))
    assert _to_tree(kind, resolve(name)) == tree
    path = tmp_path / (name + ".yaml")
    dump_tree(tree, str(path))
    assert _to_tree(kind, resolve(str(path))) == tree


@pytest.mark.parametrize("kind,alias,name", [
    ("group", "GL3", "gl3"),
    ("group", "gl2xgl2-swap", "gl2x2-swap"),
    ("group", "GL2X2_SWAP", "gl2x2-swap"),
    ("endoscopy", "GL4_SPLUS", "gl4-splus"),
    ("disconnected", "O2", "o2"),
])
def test_preset_alias_resolves_to_its_preset(kind, alias, name):
    from rk import presets
    build = getattr(presets, kind)
    tree, expected = _to_tree(kind, build(alias)), _to_tree(kind, build(name))
    if kind == "endoscopy":   # an endoscopic datum keeps the name it was given
        assert tree.pop("label") == alias
        expected.pop("label")
    assert tree == expected


@pytest.mark.parametrize("name", PRESETS["group"])
def test_every_group_preset_has_its_trivial_endoscopic_datum(name):
    from rk import presets
    endo = presets.endoscopy(name + "-s1")
    assert _to_tree("group", endo.group) == \
        _to_tree("group", presets.group(name))
    assert endo.s == (0,) * endo.group.datum.rank


@pytest.mark.parametrize("kind,name", [
    ("group", "gl0"), ("group", "gl7"), ("group", "sl1"), ("group", "sl5"),
    ("group", "foo"), ("endoscopy", "gl7-s1"), ("endoscopy", "foo"),
    ("parameter", "foo"), ("disconnected", "foo")])
def test_unknown_preset_raises_key_error(kind, name):
    from rk import presets
    with pytest.raises(KeyError):
        getattr(presets, kind)(name)


@pytest.mark.parametrize("kind,message", [
    ("group", "unknown group 'gl7' (not a preset, not a file)"),
    ("parameter", "unknown parameter 'gl7' (not a preset, not a file)"),
    ("endoscopy",
     "unknown endoscopy datum 'gl7' (not a preset, not a file)"),
    ("disconnected", "unknown disconnected group 'gl7'"),
])
def test_unknown_reference_keeps_its_message(kind, message):
    from rk import files
    with pytest.raises(ValueError) as err:
        getattr(files, "resolve_" + kind)("gl7")
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the warm benchmark workloads against their reference digests

@pytest.fixture(scope="module")
def bench():
    """perfbench/workloads.py, imported without writing a cache file next
    to it (its dataclasses need it in sys.modules while it runs)."""
    name = "_rk_bench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[name]
    return module


@pytest.mark.parametrize("workload", ["chamber", "packet-sweep", "eci"])
def test_bench_pass_matches_reference(bench, workload, monkeypatch):
    # one seed-0 pass; every op's output digest must equal the committed
    # reference, so a change of any output fails here and not only in a
    # benchmark run
    monkeypatch.setattr(sys, "path", list(sys.path))   # build() may add src
    plan = bench.build(workload, bench.DEFAULT_SEED)
    expected = bench.expected_digests(bench.load_reference(), workload,
                                      bench.DEFAULT_SEED)
    got = {op.key: bench.digest(op.run()) for op in plan.ops}
    assert sorted(got) == sorted(expected)
    assert sorted(k for k in got if got[k] != expected[k]) == []


def test_cold_weyl_command_builds_no_element_ids(monkeypatch, capsys):
    # a cold `rk weyl` reads transporters and descents off root
    # permutations; the id index and the Cayley rows are for the warm
    # coset loops, and building them would cost every cold command
    from rk import cli, rootdata
    made = []
    init = rootdata.WeylGroup.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(rootdata.WeylGroup, "__init__", recording_init)
    assert cli.main(["weyl", "--group", "gl6", "--levi1", "0,2",
                     "--kind", "double-coset"]) == 0
    assert json.loads(capsys.readouterr().out)["group"] == "gl6"
    assert max(len(w) for w in made) == 720
    for w in made:
        assert "index" not in vars(w) and "row" not in vars(w)


def test_chamber_image_is_paired_with_the_roots_once(monkeypatch):
    # chamber_locate ends holding the root-pairing table of its image, and
    # stabilizer and simple_pairing read it from the image; a plain tuple
    # of the same Fractions takes the recompute path
    from rk import presets, weyl
    from rk.rootdata import ReductiveGroup
    calls = {"integer_point": 0, "root_pairings": 0}
    integer_point = ReductiveGroup.integer_point
    root_pairings = ReductiveGroup.root_pairings

    def counted_integer_point(x):
        calls["integer_point"] += 1
        return integer_point(x)

    def counted_root_pairings(self, xi):
        calls["root_pairings"] += 1
        return root_pairings(self, xi)

    monkeypatch.setattr(ReductiveGroup, "integer_point",
                        staticmethod(counted_integer_point))
    monkeypatch.setattr(ReductiveGroup, "root_pairings",
                        counted_root_pairings)
    g = presets.group("gl5")
    x = tuple(Fraction(v, 3) for v in (4, -7, 0, 2, 4))

    def sequence(as_plain):
        calls.update(integer_point=0, root_pairings=0)
        image = weyl.chamber_locate(g, x).image
        if as_plain:
            image = tuple(image)
        weyl.stabilizer(g, image)
        g.simple_pairing(image)
        return dict(calls)

    assert sequence(False) == {"integer_point": 1, "root_pairings": 1}
    assert sequence(True) == {"integer_point": 3, "root_pairings": 2}


#: Smith forms a command runs in a fresh process state, at most: each one
#: an integer answer (a split-centre basis, a centre solver, a descent
#: kernel, a coinvariant group), none a rank or a unimodular inverse
SMITH_FORMS_PER_COMMAND = [
    (("eci", "--param", "gl4-st2", "--endo", "gl4-s1", "--rho", "1,0"), 10),
    (("eci", "--param", "gl4-st2", "--endo", "gl4-splus", "--rho", "1,0"),
     10),
    (("packet", "--param", "gl4-st2", "--enumerate", "--height", "3"), 13),
    (("packet", "--param", "gl2-triv", "--rho", "1,0", "--fiber"), 7),
    (("weyl", "--group", "gl4", "--levi1", "0,2", "--kind", "geometric"), 0),
]


@pytest.mark.parametrize("argv,most", SMITH_FORMS_PER_COMMAND,
                         ids=[" ".join(argv[:5])
                              for argv, _ in SMITH_FORMS_PER_COMMAND])
def test_command_runs_at_most_its_smith_forms(argv, most, monkeypatch):
    # every preset builds its groups afresh, so a command run in this
    # process starts as cold as in its own
    from rk import cli, lattice
    calls = []
    snf_raw = lattice._snf_raw

    def counted(*args):
        calls.append(args)
        return snf_raw(*args)

    monkeypatch.setattr(lattice, "_snf_raw", counted)
    assert cli.main(list(argv)) == 0
    assert len(calls) <= most


def test_alpha_inv_runs_no_factorization(monkeypatch):
    # alpha_L^-1 is the restriction to the dual split center, and a point
    # lies in the split-center space when the rows the split-center basis
    # was solved from vanish on it: on a fresh LeviContext of every preset
    # it runs no Smith form and no rational inverse
    from rk import lattice, presets, rootdata
    calls = {"_snf_raw": 0, "mat_inverse": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lattice, "_snf_raw",
                        counted("_snf_raw", lattice._snf_raw))
    for module in (lattice, rootdata):
        monkeypatch.setattr(module, "mat_inverse",
                            counted("mat_inverse", lattice.mat_inverse))
    for name in presets.GROUP_NAMES:
        g = presets.group(name)
        n = g.datum.rank
        for subset in g.standard_levi_subsets():
            ctx = rootdata.LeviContext(g, subset)
            inside = tuple(map(sum, zip(*ctx.split_center_basis))) or (0,) * n
            calls.update(_snf_raw=0, mat_inverse=0)
            assert ctx.alpha_inv(inside) is not None
            ctx.alpha_inv((1,) + (0,) * (n - 1))
            assert calls == {"_snf_raw": 0, "mat_inverse": 0}, (name, subset)
