"""Regenerate `tests/report_corpus.json`, the committed report corpus.

    python tests/make_report_corpus.py            # run in process, write
    python tests/make_report_corpus.py --fresh    # one process per command
    python tests/make_report_corpus.py --check    # compare, write nothing

The corpus is a list of `rk` commands, each with its exit code, the
sha256 of its stderr and the sha256 of its stdout with the value of
`generated_at` blanked.  The commands are:

* the 17 commands of the benchmark's cli-cold workload;
* on each parameter preset: `packet --enumerate --height 3`,
  `packet --rho 1,0 --fiber`, and `packet --rho W:K --fiber` at every
  weight W of `classify_irr(param.centralizer, 2)` with K in 0 and 1;
* `eci` on every parameter preset with every endoscopy preset, without
  `--rho` and with `--rho W` at each of those weights;
* `irr --height 2` and `--height 4` on each disconnected preset.

Duplicates are dropped, first occurrence kept.  Many commands exit 1 on
purpose (a parameter and an endoscopic datum of different groups, a
module index out of range, a weight of the wrong length): they pin the
error messages.  `tests/test_report_corpus.py` runs every command through
`rk.cli.main` in process and compares.  A change that means to alter a
report regenerates the corpus with this script and names each changed
command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "report_corpus.json"

# the cli-cold commands, in the benchmark's order
CLI_COLD: Tuple[Tuple[str, ...], ...] = (
    ("examples",),
    ("weyl", "--group", "gl4", "--levi1", "0,2", "--kind", "double-coset"),
    ("weyl", "--group", "gl4", "--levi1", "0,2", "--kind", "geometric"),
    ("bset", "--group", "gl2", "--levi", "", "--kappa", "1,0"),
    ("bset", "--group", "gl2", "--levi", "G", "--kappa", "1"),
    ("irr", "--group", "o2", "--height", "1"),
    ("packet", "--param", "gl2-triv", "--rho", "1,0", "--fiber"),
    ("packet", "--param", "gl4-st2", "--enumerate", "--height", "3"),
    ("eci", "--param", "gl4-st2", "--endo", "gl4-s1", "--rho", "1,0"),
    ("weyl", "--group", "gl5", "--levi1", "0,2", "--kind", "transporter"),
    ("weyl", "--group", "gl5", "--levi1", "0,2", "--kind", "geometric"),
    ("weyl", "--group", "gl6", "--levi1", "0,2", "--kind", "double-coset"),
    ("weyl", "--group", "so6", "--levi1", "0", "--kind", "geometric"),
    ("weyl", "--group", "sp4", "--levi1", "0", "--levi2", "1",
     "--kind", "double-coset"),
    ("weyl", "--group", "u3", "--levi1", "", "--kind", "geometric"),
    ("bset", "--group", "gl3", "--levi", "", "--kappa", "2,1,-1"),
    ("bset", "--group", "gl2", "--levi", "", "--kappa", "1,1"),
)

_GENERATED_AT = re.compile(rb'("generated_at": )"[^"]*"')


def commands() -> List[Tuple[str, ...]]:
    """The corpus commands, built from the presets."""
    from rk import presets
    from rk.disconnected import classify_irr

    out = list(CLI_COLD)
    weights = {}
    for name in presets.PARAM_NAMES:
        param = presets.parameter(name)
        ws = weights[name] = list(dict.fromkeys(
            ",".join(map(str, p.weight))
            for p in classify_irr(param.centralizer, 2)))
        out.append(("packet", "--param", name, "--enumerate", "--height", "3"))
        out.append(("packet", "--param", name, "--rho", "1,0", "--fiber"))
        out.extend(("packet", "--param", name, "--rho", "%s:%d" % (w, k),
                    "--fiber") for w in ws for k in (0, 1))
    for name in presets.PARAM_NAMES:
        for endo in presets.ENDO_NAMES:
            base = ("eci", "--param", name, "--endo", endo)
            out.append(base)
            out.extend(base + ("--rho", w) for w in weights[name])
    for name in presets.DISCONNECTED_NAMES:
        out.extend(("irr", "--group", name, "--height", h) for h in ("2", "4"))
    return list(dict.fromkeys(out))


def digest(code: int, stdout: bytes, stderr: bytes) -> Dict:
    return {"exit": code,
            "stdout": hashlib.sha256(
                _GENERATED_AT.sub(rb'\1""', stdout)).hexdigest(),
            "stderr": hashlib.sha256(stderr).hexdigest()}


def run_in_process(argv: Sequence[str]) -> Dict:
    """One command through `rk.cli.main` in this interpreter."""
    from rk.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:   # an argparse usage error
            code = exc.code
    return digest(code, out.getvalue().encode(), err.getvalue().encode())


def run_fresh(argv: Sequence[str]) -> Dict:
    """One command in a new interpreter, as `python -m rk.cli`."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env.pop("RK_OUT_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "rk.cli", *argv], env=env,
                          capture_output=True, cwd=ROOT)
    return digest(proc.returncode, proc.stdout, proc.stderr)


def load() -> List[Dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", action="store_true",
                    help="run each command in a new interpreter")
    ap.add_argument("--check", action="store_true",
                    help="compare with the committed corpus; write nothing")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    run = run_fresh if args.fresh else run_in_process
    entries = [{"argv": list(c), **run(c)} for c in commands()]
    codes = {}
    for e in entries:
        codes[e["exit"]] = codes.get(e["exit"], 0) + 1
    print("%d commands, exit codes %s" % (len(entries), dict(sorted(
        codes.items()))))
    if args.check:
        old = {tuple(e["argv"]): e for e in load()}
        new = {tuple(e["argv"]): e for e in entries}
        changed = sorted(" ".join(c) for c in old.keys() | new.keys()
                         if old.get(c) != new.get(c))
        for c in changed:
            print("differs: %s" % c)
        return 1 if changed else 0
    # one entry a line, so a regenerated corpus diffs command by command
    CORPUS.write_text("[\n%s\n]\n" % ",\n".join(map(json.dumps, entries)),
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
