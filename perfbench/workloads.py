"""The four benchmark workloads: seeded op lists, set-up and checked ops.

Every op returns a canonical JSON-able output, which is digested and
compared with `reference.json`, and raises `CertificateError` when one of
the library's own certificates fails.  The library only ever sees the
generated inputs; the seed stays here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
# A child process that runs longer is killed; the slowest command takes
# under 3 s on the reference host.
CHILD_TIMEOUT_S = 120
WORKLOADS = ("chamber", "packet-sweep", "eci", "cli-cold")


class CertificateError(AssertionError):
    """A built-in certificate of the library failed for one op."""


def ensure_src() -> None:
    """Put the checkout's `src` on the import path, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "rk", "__init__.py")):
        raise FileNotFoundError("no rk sources at %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def canonical(x):
    """JSON-able canonical form of library outputs (tuples, Fractions,
    frozensets, cyclotomics)."""
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [canonical(y) for y in x]
    if isinstance(x, frozenset):
        return sorted(canonical(y) for y in x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    return repr(x)


def digest(obj) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    """One unit of timed work.  `band` names the preset or command whose
    latency band the op belongs to; `key` identifies it in the reference."""

    band: str
    key: str
    run: Callable[[], object]   # returns the canonical output
    inputs: str = ""            # generated inputs not named by `key`


@dataclass
class Plan:
    """A workload instance: `ops` is one pass; a run stops only at a multiple
    of `round_size` ops, so every stopping point holds whole rounds."""

    ops: List[Op]
    round_size: int
    warmups: List[Op]
    cli: Optional["CliRunner"] = None


# ---------------------------------------------------------------------------
# chamber

CHAMBER_GROUPS = ("gl3", "sp4", "u3", "gl4", "gl5")
CHAMBER_POINTS_PER_GROUP = 64


# Ops call the library through its module attributes at call time, so the
# wrappers a traced run installs see every call.

def _chamber_op(group, name: str, index: int, x) -> Op:
    from rk import weyl

    def run():
        witness = weyl.chamber_locate(group, x)
        elems, levi = weyl.stabilizer(group, witness.image)   # asserts W_L
        pairing = group.simple_pairing(witness.image)
        k = len(group.datum.simple_indices)
        facets = [s for s in group.standard_levi_subsets()
                  if all((pairing[p] == 0) if p in s else (pairing[p] > 0)
                         for p in range(k))]
        if levi != witness.levi or facets != [witness.levi]:
            raise CertificateError("facet Levi of %r" % (x,))
        return {"word": witness.word, "levi": witness.levi,
                "image": witness.image, "stabilizer": len(elems)}
    return Op(name, "%s#%d" % (name, index), run,
              " ".join(str(v) for v in x))


def _chamber(seed: int) -> Plan:
    from rk import presets
    rng = random.Random(seed)
    pools = {}
    for name in CHAMBER_GROUPS:
        group = presets.group(name)
        basis = group.fixed_cochar_basis
        pool = []
        for i in range(CHAMBER_POINTS_PER_GROUP):
            x = tuple(Fraction(0) for _ in range(group.datum.rank))
            for y in basis:
                c = Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4)))
                x = tuple(p + c * v for p, v in zip(x, y))
            pool.append(_chamber_op(group, name, i, x))
        pools[name] = pool
    ops = []
    for i in range(CHAMBER_POINTS_PER_GROUP):
        names = list(CHAMBER_GROUPS)
        rng.shuffle(names)
        ops.extend(pools[n][i] for n in names)
    warmups = [pools[n][0] for n in CHAMBER_GROUPS]
    return Plan(ops, len(CHAMBER_GROUPS), warmups)


# ---------------------------------------------------------------------------
# packet-sweep

PACKET_PRESETS = (("gl2-triv", 8), ("sl2-triv", 8), ("gl3-triv", 4),
                  ("gl4-st2", 4), ("gl2x2-swap-triv", 4), ("gl4-triv", 3))


def _packet_op(param, name: str, rho) -> Op:
    from rk import packets
    from rk.kottwitz import encode

    def run():
        member = packets.build_packet_member(param, rho)
        fiber = packets.enumerate_fiber(param, member.b)
        keys = [m.key() for m in fiber]
        if member.key() not in keys:
            raise CertificateError("member not in its own fiber")
        square = packets.central_character_square(param, rho)
        if not square["equal"]:
            raise CertificateError("central character square")
        return {"b": encode(param.group, member.b), "key": member.key(),
                "fiber": keys,
                "omega": [square["omega"].free, square["omega"].torsion],
                "push": [square["kappa_push"].free,
                         square["kappa_push"].torsion]}
    return Op(name, "%s:%s" % (name, json.dumps(canonical(rho.label()))), run)


def _packet_sweep(seed: int) -> Plan:
    from rk import presets
    from rk.packets import enumerate_rhos
    ops, warmups = [], []
    for name, height in PACKET_PRESETS:
        param = presets.parameter(name)
        rhos = enumerate_rhos(param, height)
        ops.extend(_packet_op(param, name, rho) for rho in rhos)
        warmups.append(_packet_op(param, name, rhos[0]))
    random.Random(seed).shuffle(ops)
    return Plan(ops, len(ops), warmups)


# ---------------------------------------------------------------------------
# eci

# (parameter, endoscopic datum, height bound, repetitions per pass).  The
# twelve gl4 ops run twice: once each, op_p90_ms (rank 94 of 104) sat on
# the steep edge where the slowest gl3 ops meet the fastest gl4 ones, one
# sample per op.  Twice each, it is the middle of 24 gl4 samples.
ECI_PRESETS = (("gl2-triv", "gl2-s1", 6, 1), ("gl2-triv", "gl2-sreg", 6, 1),
               ("sl2-triv", "sl2-s1", 5, 1),
               ("gl2x2-swap-triv", "gl2x2-swap-s1", 3, 1),
               ("gl3-triv", "gl3-s1", 3, 1), ("gl4-st2", "gl4-s1", 2, 2),
               ("gl4-st2", "gl4-splus", 2, 2))


def _eci_op(param, endo, band: str, rho) -> Op:
    from rk import endoscopy, packets
    from rk.kottwitz import encode

    def run():
        b = packets.build_packet_member(param, rho).b
        result = endoscopy.eci_both_sides(param, b, endo)
        indexing = endoscopy.indexing_bijection_check(param, b.levi, endo)
        if not (result["equal"] and indexing["pass"]):
            raise CertificateError("eci equal=%r indexing=%r"
                                   % (result["equal"], indexing["pass"]))
        return {"b": encode(param.group, b),
                "lhs": result["lhs"].describe(),
                "rhs": result["rhs"].describe(),
                "discarded": result["discarded_nonregular"].describe(),
                "embedded": result["embedded"], "indexing": indexing}
    return Op(band, "%s:%s" % (band, json.dumps(canonical(rho.label()))), run)


def _eci(seed: int) -> Plan:
    from rk import presets
    from rk.packets import enumerate_rhos
    ops, warmups = [], []
    params = {}
    for pname, ename, height, reps in ECI_PRESETS:
        if pname not in params:
            params[pname] = presets.parameter(pname)
        param, endo = params[pname], presets.endoscopy(ename)
        band = "%s/%s" % (pname, ename)
        rhos = enumerate_rhos(param, height)
        ops.extend(_eci_op(param, endo, band, rho)
                   for rho in rhos for _ in range(reps))
        warmups.append(_eci_op(param, endo, band, rhos[0]))
    random.Random(seed).shuffle(ops)
    return Plan(ops, len(ops), warmups)


# ---------------------------------------------------------------------------
# cli-cold

# (argv, expected exit code, repetitions per pass): the eight README
# commands, then the cold Weyl tables and the two bset cases.
#
# The weights keep both percentiles inside one latency band.  Unweighted,
# op_p90_ms fell between `weyl gl5 geometric` and `eci` (0.9 s and 1.1 s).
# Each start-up-bound command (0.2-0.35 s) runs 7 times and
# `weyl gl5 geometric` 14 times, so a pass holds 108 ops: op_p50_ms lies
# in the middle of the 91 start-up-bound ones and op_p90_ms (rank 98) in
# the middle of the gl5 geometric band (ranks 93-106), under the three
# slowest commands.  One pass has the 100 ops a tail needs.
CLI_COMMANDS: Tuple[Tuple[Tuple[str, ...], int, int], ...] = (
    (("examples",), 0, 7),
    (("weyl", "--group", "gl4", "--levi1", "0,2", "--kind", "double-coset"), 0, 7),
    (("weyl", "--group", "gl4", "--levi1", "0,2", "--kind", "geometric"), 0, 7),
    (("bset", "--group", "gl2", "--levi", "", "--kappa", "1,0"), 0, 7),
    (("bset", "--group", "gl2", "--levi", "G", "--kappa", "1"), 0, 7),
    (("irr", "--group", "o2", "--height", "1"), 0, 7),
    (("packet", "--param", "gl2-triv", "--rho", "1,0", "--fiber"), 0, 7),
    (("packet", "--param", "gl4-st2", "--enumerate", "--height", "3"), 0, 1),
    (("eci", "--param", "gl4-st2", "--endo", "gl4-s1", "--rho", "1,0"), 0, 1),
    (("weyl", "--group", "gl5", "--levi1", "0,2", "--kind", "transporter"), 0, 7),
    (("weyl", "--group", "gl5", "--levi1", "0,2", "--kind", "geometric"), 0, 14),
    (("weyl", "--group", "gl6", "--levi1", "0,2", "--kind", "double-coset"), 0, 1),
    (("weyl", "--group", "so6", "--levi1", "0", "--kind", "geometric"), 0, 7),
    (("weyl", "--group", "sp4", "--levi1", "0", "--levi2", "1",
      "--kind", "double-coset"), 0, 7),
    (("weyl", "--group", "u3", "--levi1", "", "--kind", "geometric"), 0, 7),
    (("bset", "--group", "gl3", "--levi", "", "--kappa", "2,1,-1"), 0, 7),
    (("bset", "--group", "gl2", "--levi", "", "--kappa", "1,1"), 2, 7),
)

SETUP_COMMAND = ("examples",)


def cli_key(argv: Sequence[str]) -> str:
    return " ".join(a if a else '""' for a in argv)


def rk_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("RK_OUT_DIR", None)
    return env


def run_cli(argv: Sequence[str], expected: int,
            launcher: Optional[Sequence[str]] = None) -> Dict:
    """Run one `rk` command in a fresh interpreter; return its report with
    `generated_at` removed.  `launcher` replaces `-m rk.cli` (the traced
    run uses it); stdout byte counts are kept under `_bytes`."""
    cmd = [sys.executable] + list(launcher or ("-m", "rk.cli")) + list(argv)
    proc = subprocess.run(cmd, env=rk_env(), capture_output=True,
                          cwd=os.path.dirname(HERE), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != expected:
        raise CertificateError("exit %d, expected %d: %s"
                               % (proc.returncode, expected,
                                  proc.stderr.decode(errors="replace")[-300:]))
    report = json.loads(proc.stdout)
    report.pop("generated_at", None)
    report["_bytes"] = len(proc.stdout)
    return report


class CliRunner:
    """Runs the cli ops of one plan.  The traced run swaps `launcher` for a
    script that installs the tracer first, and collects the child's spans
    in `after`; `stdout_bytes` totals every report the commands printed."""

    def __init__(self):
        self.launcher: Optional[Sequence[str]] = None
        self.after: Optional[Callable[[], None]] = None
        self.stdout_bytes = 0

    def op(self, argv: Sequence[str], expected: int) -> Op:
        def run():
            try:
                report = run_cli(argv, expected, self.launcher)
            finally:
                if self.after is not None:
                    self.after()
            self.stdout_bytes += report.pop("_bytes")
            return report
        return Op(cli_key(argv), cli_key(argv), run)


def _cli_cold(seed: int) -> Plan:
    cli = CliRunner()
    ops = [cli.op(argv, code)
           for argv, code, reps in CLI_COMMANDS for _ in range(reps)]
    random.Random(seed).shuffle(ops)
    return Plan(ops, len(ops), [], cli)


BUILDERS = {"chamber": _chamber, "packet-sweep": _packet_sweep,
            "eci": _eci, "cli-cold": _cli_cold}


def build(workload: str, seed: int) -> Plan:
    """Construct presets and the seeded op list of one workload."""
    ensure_src()
    return BUILDERS[workload](seed)


# ---------------------------------------------------------------------------
# reference digests

def load_reference() -> Dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def expected_digests(reference: Dict, workload: str, seed: int
                     ) -> Dict[str, str]:
    """Digests that apply to this run.  Chamber points depend on the seed,
    so its digests apply to the reference seed only; the other workloads
    run the same ops in a seeded order, so theirs apply to every seed."""
    if workload == "chamber" and seed != reference["seed"]:
        return {}
    return reference["digests"].get(workload, {})
