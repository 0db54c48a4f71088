"""Per-layer tracing of `rk` from outside the program.

`Tracer.install` wraps the public functions listed in `TARGETS` and
rebinds every `rk.*` namespace (module or class) that holds one of them,
so `from .lattice import mat_mul` copies are traced too.  Each call
records a span (name, start, end, parent span, op id) in flat arrays kept
in memory; `Tracer.metrics` turns the spans into the per-layer metrics and
`Tracer.restore` puts the original objects back.  No file under `src/rk`
is changed.

Run as a script, it traces one `rk` command in a fresh interpreter:

    python3 perfbench/tracer.py SPANS_OUT.json weyl --group gl4 --levi1 0,2

which is how the traced `cli-cold` run sees inside its subprocesses.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import pkgutil
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (layer, attribute path inside rk.<layer>, metric name of the function).
# `dot` and `mat_vec` run over a million times per run and stay unwrapped:
# their time is part of their callers' self time.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("lattice", "mat_contragredient", "mat_contragredient"),
    ("lattice", "mat_inverse_int", "mat_inverse_int"),
    ("lattice", "mat_mul", "mat_mul"),
    ("lattice", "smith_normal_form", "smith_normal_form"),
    ("lattice", "solve_rational", "solve_rational"),
    ("lattice", "kernel_basis", "kernel_basis"),
    ("lattice", "closure", "closure"),
    ("rootdata", "ReductiveGroup.levi_weyl_elements", "levi_weyl_elements"),
    ("rootdata", "ReductiveGroup.restricted_reflections", "restricted_reflections"),
    ("rootdata", "ReductiveGroup.relative", "relative"),
    ("rootdata", "ReductiveGroup.levi_context", "levi_context"),
    ("rootdata", "BasedRootDatum.positive_root_indices", "positive_root_indices"),
    ("rootdata", "WeylGroup.__init__", "WeylGroup"),
    ("weyl", "chamber_locate", "chamber_locate"),
    ("weyl", "stabilizer", "stabilizer"),
    ("weyl", "transporter_set", "transporter_set"),
    ("weyl", "double_coset_reps", "double_coset_reps"),
    ("weyl", "geometric_lemma_index", "geometric_lemma_index"),
    ("kottwitz", "basic_plus_lift", "basic_plus_lift"),
    ("kottwitz", "kappa_push", "kappa_push"),
    ("finite_reps", "simple_modules", "simple_modules"),
    ("finite_reps", "character_table", "character_table"),
    ("finite_reps", "FiniteGroup.from_matrices", "from_matrices"),
    ("cyclotomic", "Cyclo.__mul__", "__mul__"),
    ("cyclotomic", "Cyclo.__add__", "__add__"),
    ("disconnected", "classify_irr", "classify_irr"),
    ("disconnected", "weight_multiplicities", "weight_multiplicities"),
    ("params", "Parameter.levi_cut", "levi_cut"),
    ("params", "Parameter.component_group", "component_group"),
    ("params", "Parameter.char_action", "char_action"),
    ("packets", "build_packet_member", "build_packet_member"),
    ("packets", "enumerate_fiber", "enumerate_fiber"),
    ("packets", "transporter_double_cosets", "transporter_double_cosets"),
    ("packets", "canonical_rho", "canonical_rho"),
    ("packets", "central_character_square", "central_character_square"),
    ("endoscopy", "eci_both_sides", "eci_both_sides"),
    ("endoscopy", "indexing_bijection_check", "indexing_bijection_check"),
    ("endoscopy", "indexing_forward", "indexing_forward"),
    ("endoscopy", "indexing_backward", "indexing_backward"),
    ("endoscopy", "enumerate_embedded", "enumerate_embedded"),
    ("endoscopy", "jacquet_geometric_terms", "jacquet_geometric_terms"),
    ("endoscopy", "regular_pairing", "regular_pairing"),
    ("files", "resolve_group", "resolve_group"),
    ("files", "resolve_parameter", "resolve_parameter"),
    ("files", "resolve_endoscopy", "resolve_endoscopy"),
    ("cli", "main", "main"),
    ("presets", "group", "group"),
    ("presets", "parameter", "parameter"),
    ("presets", "endoscopy", "endoscopy"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _p, _f in TARGETS))

# Counts and ratios measured at the same boundaries, listed after each
# layer's functions.
EXTRAS: Dict[str, Tuple[str, ...]] = {
    "lattice": ("lattice.closure.elements",),
    "rootdata": ("rootdata.levi_weyl_elements.distinct_ratio",),
    "weyl": ("weyl.chamber_locate.steps", "weyl.transporter_set.kept_ratio",
             "weyl.geometric_lemma_index.kept_ratio"),
    "params": ("params.levi_cut.distinct_ratio",),
    "packets": ("packets.enumerate_fiber.members",),
    "cli": ("cli.emit.bytes",),
}

# Whole-run figures of the traced run itself.
TRACE_METRICS = {"trace.op_ms": "ms", "trace.unattributed_ms": "ms",
                 "trace.overhead_ratio": "ratio"}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        for lay, _path, fn in TARGETS:
            if lay == layer:
                units["%s.%s.calls" % (layer, fn)] = "count"
                units["%s.%s.ms" % (layer, fn)] = "ms"
        units["%s.self_ms" % layer] = "ms"
        for name in EXTRAS.get(layer, ()):
            units[name] = ("ratio" if name.endswith("_ratio") else
                           "bytes" if name.endswith(".bytes") else "count")
    units.update(TRACE_METRICS)
    return units


def import_all_rk() -> List:
    """Import every rk module so each namespace can be rebound."""
    import rk
    return [importlib.import_module("rk." + m.name)
            for m in pkgutil.iter_modules(rk.__path__)]


def rk_namespaces() -> List:
    """Every rk module and every class defined in one."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "rk" or name.startswith("rk.")):
            continue
        out.append(mod)
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                out.append(value)
    return out


class Tracer:
    """Spans of one process, in flat arrays; see the module docstring."""

    def __init__(self):
        self.names: List[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")       # no enclosing span of the same name
        self.op_id = -1
        self.paused = False
        self.counters: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self.distinct_absorbed: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = [-1]
        self._depth: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- installing and removing the wrappers ---------------------------------

    def _name_id(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self._depth.append(0)
        return len(self.names) - 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        post = _POST.get(name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name_of.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.op.append(tr.op_id)
            tr.outer.append(tr._depth[nid] == 0)
            tr.end.append(0.0)
            tr._depth[nid] += 1
            tr._stack.append(idx)
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                tr._stack.pop()
                tr._depth[nid] -= 1
            if post is not None:
                tr.paused = True
                try:
                    post(tr, args, kwargs, result)
                finally:
                    tr.paused = False
            return result
        return wrapper

    def _rebind(self, original, wrapped, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._saved.append((ns, attr, original))
                    setattr(ns, attr, wrapped)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        import_all_rk()
        namespaces = rk_namespaces()
        for layer, path, fn in TARGETS:
            name = "%s.%s" % (layer, fn)
            owner = sys.modules["rk." + layer]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if not cls_path:
                original = getattr(owner, attr)
                self._rebind(original, self._wrap(name, original), namespaces)
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, property):
                new = property(self._wrap(name, raw.fget), raw.fset, raw.fdel,
                               raw.__doc__)
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._rebind(raw, new, [owner])

    def restore(self) -> None:
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)

    # -- spans of subprocesses ----------------------------------------------

    def dump(self, path: str) -> None:
        """Write this process's spans and counters once, as JSON."""
        data = {"names": self.names, "name_of": self.name_of.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "outer": self.outer.tolist(),
                "counters": dict(self.counters),
                "distinct": {k: len(v) for k, v in self.distinct.items()}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def absorb(self, path: str) -> None:
        """Append the spans a traced subprocess dumped, as spans of the
        current op, and delete its file."""
        if not os.path.exists(path):
            return
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        finally:
            os.remove(path)
        ids = [self._name_id(n) for n in data["names"]]
        base = len(self.start)
        top = self._stack[-1]
        for nid, s, e, p, o in zip(data["name_of"], data["start"],
                                   data["end"], data["parent"], data["outer"]):
            self.name_of.append(ids[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(p + base if p >= 0 else top)
            self.op.append(self.op_id)
            self.outer.append(o)
        for k, v in data["counters"].items():
            self.counters[k] += v
        for k, v in data["distinct"].items():
            self.distinct_absorbed[k] += v

    def write_spans(self, path: str) -> None:
        """All spans of the run, gzipped, one tab-separated line each:
        name, start s, end s, parent index (-1 for none), op id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    names[self.name_of[i]], self.start[i], self.end[i],
                    self.parent[i], self.op[i]))

    # -- metrics --------------------------------------------------------------

    def metrics(self, op_seconds: Dict[int, float]) -> Dict[str, float]:
        """Per-layer metrics from the spans.  `op_seconds` maps op id to the
        op's wall time, for the time no span covers."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            elif self.op[i] in op_seconds:
                top += dur[i]
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        self_s: Dict[str, float] = defaultdict(float)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        steps = 0
        chamber = self._name_id("weyl.chamber_locate")
        mat_mul = self._name_id("lattice.mat_mul")
        for i in range(n):
            nid = self.name_of[i]
            calls[nid] += 1
            if self.outer[i]:
                incl[nid] += dur[i]
            self_s[layer_of[nid]] += dur[i] - child[i]
            p = self.parent[i]
            if nid == mat_mul and p >= 0 and self.name_of[p] == chamber:
                steps += 1
        out: Dict[str, float] = {}
        for name in metric_units():
            out[name] = 0
        for nid, name in enumerate(self.names):
            if name + ".calls" in out:
                out[name + ".calls"] = calls[nid]
                out[name + ".ms"] = incl[nid] * 1e3
        for layer in LAYERS:
            out[layer + ".self_ms"] = self_s.get(layer, 0.0) * 1e3
        c = self.counters
        out["lattice.closure.elements"] = int(c["lattice.closure.elements"])
        out["weyl.chamber_locate.steps"] = steps
        for fn in ("transporter_set", "geometric_lemma_index"):
            scanned = c["weyl.%s.scanned" % fn]
            out["weyl.%s.kept_ratio" % fn] = (
                c["weyl.%s.kept" % fn] / scanned if scanned else 0)
        for name in ("rootdata.levi_weyl_elements", "params.levi_cut"):
            n_calls = out[name + ".calls"]
            distinct = len(self.distinct[name]) + self.distinct_absorbed[name]
            out[name + ".distinct_ratio"] = distinct / n_calls if n_calls else 0
        out["packets.enumerate_fiber.members"] = int(
            c["packets.enumerate_fiber.members"])
        out["trace.op_ms"] = sum(op_seconds.values()) * 1e3
        out["trace.unattributed_ms"] = (sum(op_seconds.values()) - top) * 1e3
        return out


# -- counts taken after a call returns, with tracing paused -------------------

def _closure(tr, args, kwargs, result):
    tr.counters["lattice.closure.elements"] += len(result[0])


def _distinct(name, key):
    def post(tr, args, kwargs, result):
        tr.distinct[name].add(key(args, kwargs))
    return post


def _kept(fn):
    def post(tr, args, kwargs, result):
        tr.counters["weyl.%s.kept" % fn] += len(result)
        tr.counters["weyl.%s.scanned" % fn] += len(args[0].relative.elements)
    return post


def _members(tr, args, kwargs, result):
    tr.counters["packets.enumerate_fiber.members"] += len(result)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


_POST: Dict[str, Callable] = {
    "lattice.closure": _closure,
    "rootdata.levi_weyl_elements": _distinct(
        "rootdata.levi_weyl_elements",
        lambda a, k: (id(a[0]), frozenset(_arg(a, k, 1, "subset")))),
    "params.levi_cut": _distinct(
        "params.levi_cut",
        lambda a, k: (id(a[0]), frozenset(_arg(a, k, 1, "levi")),
                      _arg(a, k, 2, "w"))),
    "weyl.transporter_set": _kept("transporter_set"),
    "weyl.geometric_lemma_index": _kept("geometric_lemma_index"),
    "packets.enumerate_fiber": _members,
}


def main(argv: List[str]) -> int:
    """Trace one rk command: tracer.py SPANS_OUT RK_ARGS..."""
    spans_out, rk_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        from rk import cli
        code = cli.main(rk_args)
    finally:
        tracer.restore()
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    raise SystemExit(main(sys.argv[1:]))
