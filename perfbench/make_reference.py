"""Regenerate perfbench/reference.json: the digest of every op's canonical
output for the reference seed.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right; a benchmark
run then counts any op whose digest differs as failed.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main() -> int:
    seed = workloads.DEFAULT_SEED
    digests = {}
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, seed)
        table = {}
        for op in plan.warmups + plan.ops:
            value = workloads.digest(op.run())
            if table.setdefault(op.key, value) != value:
                raise AssertionError("op %s is not deterministic" % op.key)
        digests[name] = dict(sorted(table.items()))
        print("%s: %d digests" % (name, len(table)), file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
