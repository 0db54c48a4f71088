"""Command line surface: `rk weyl|bset|irr|packet|eci|examples`.

Every command emits a versioned JSON report (stdout by default, or
--out FILE; the directory can be redirected with RK_OUT_DIR).  The exit
code is 0 only when every internal assertion of the requested
computation passed.  Reports are deterministic up to the timestamp
field.

Each handler imports the layers it runs, so a command loads only those:
`rk examples` loads `rk.presets` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Optional

from . import presets

SCHEMA = "rk.report.v1"


def _emit(report: Dict, out: Optional[str]) -> None:
    report = {"schema": SCHEMA,
              "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              **report}
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        directory = os.environ.get("RK_OUT_DIR")
        path = os.path.join(directory, out) if directory else out
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_levi(group, text: str, flag: str):
    """A Levi subset of simple positions ("" or "-" for none, "G" for all),
    checked to be in range and Galois stable."""
    text = (text or "").strip()
    full = group.full_subset()
    if text in ("", "-"):
        return frozenset()
    if text.upper() == "G":
        return full
    try:
        subset = [int(x) for x in text.replace(";", ",").split(",")]
    except ValueError:
        raise ValueError("%s: %r is not a comma-separated list of simple "
                         "positions" % (flag, text)) from None
    return group.checked_levi(subset, flag)


def _parse_rho(param, text: str):
    """A (weight, module) pair from "l1,...,ln[:k]": a dominant weight with
    one entry per parameter-center coordinate, and the index k (default 0)
    of a simple module of its component stabilizer."""
    from .disconnected import HighestWeightPair
    weight_text, colon, pick_text = text.partition(":")
    try:
        weight = _parse_ints(weight_text, "--rho")
    except ValueError:
        raise ValueError("--rho: %r is not a comma-separated list of %d "
                         "integers" % (weight_text, param.dim)) from None
    if len(weight) != param.dim:
        raise ValueError("--rho: the weight needs %d entries, got %d"
                         % (param.dim, len(weight)))
    if not param.centralizer.is_dominant(weight):
        raise ValueError("--rho: the weight %s is not dominant"
                         % ",".join(map(str, weight)))
    mods = param.centralizer.stabilizer_modules(weight)
    try:
        pick = int(pick_text) if colon else 0
    except ValueError:
        raise ValueError("--rho: module index %r is not an integer"
                         % pick_text) from None
    if not 0 <= pick < len(mods):
        raise ValueError("--rho: module index %d is out of range; valid "
                         "indices are 0..%d" % (pick, len(mods) - 1))
    return HighestWeightPair(weight, mods[pick])


def _parse_ints(text: str, flag: str):
    """Comma-separated integers ("" for none); a bad entry is an error that
    names the flag."""
    text = (text or "").strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("%s: %r is not a comma-separated list of integers"
                         % (flag, text)) from None


def _word(group, m):
    return list(group.relative.word(m))


def cmd_weyl(args) -> Dict:
    from .files import resolve_group
    from .weyl import double_coset_reps, geometric_lemma_index, transporter_set
    group = resolve_group(args.group)
    levi1 = _parse_levi(group, args.levi1, "--levi1")
    levi2 = levi1 if args.levi2 is None else \
        _parse_levi(group, args.levi2, "--levi2")
    if args.kind == "transporter":
        elems = [{"word": _word(group, m), "matrix": [list(r) for r in m]}
                 for m in transporter_set(group, levi1, levi2)]
    elif args.kind == "double-coset":
        elems = [{"word": _word(group, m), "matrix": [list(r) for r in m]}
                 for m in double_coset_reps(group, levi1, levi2)]
    elif args.kind == "geometric":
        elems = [{"word": _word(group, m), "matrix": [list(r) for r in m],
                  "intersection_left_roots": list(left),
                  "intersection_right_roots": list(right)}
                 for m, left, right in geometric_lemma_index(group, levi1, levi2)]
    else:
        raise ValueError("unknown kind %r" % args.kind)
    return {"command": "weyl", "group": group.name, "kind": args.kind,
            "levi1": sorted(levi1), "levi2": sorted(levi2),
            "count": len(elems), "elements": elems}


def cmd_bset(args) -> Dict:
    from .files import resolve_group
    from .kottwitz import basic_plus_lift, classify, decode, encode, \
        kappa_push, newton
    group = resolve_group(args.group)
    if args.b:
        with open(args.b, "r", encoding="utf-8") as fh:
            b = decode(group, json.load(fh))
    else:
        levi = _parse_levi(group, args.levi, "--levi")
        ctx = group.levi_context(levi)
        if args.kappa_ambient:
            kappa = ctx.dual_center_characters.element_from_ambient(
                _parse_ints(args.kappa_ambient, "--kappa-ambient"))
        else:
            parts = (args.kappa or "").split(";")
            if len(parts) > 2:
                raise ValueError("--kappa: %r has %d ';'-separated parts; "
                                 "expected FREE or FREE;TORSION"
                                 % (args.kappa, len(parts)))
            free = _parse_ints(parts[0], "--kappa")
            torsion = _parse_ints(parts[1], "--kappa") if len(parts) > 1 else ()
            kappa = ctx.dual_center_characters.element(free, torsion)
        b = basic_plus_lift(group, levi, kappa)
    nu = newton(group, b)
    stratum = classify(group, b)
    pushed = kappa_push(group, b)
    return {"command": "bset", "group": group.name,
            "element": encode(group, b),
            "newton": [str(x) for x in nu],
            "stratum_levi": sorted(stratum),
            "basic": b.is_basic(group),
            "kappa_push": {"free": list(pushed.free),
                           "torsion": list(pushed.torsion)}}


def cmd_irr(args) -> Dict:
    from .disconnected import classify_irr
    from .files import resolve_disconnected
    holder = resolve_disconnected(args.group)
    pairs = classify_irr(holder, args.height)
    out = []
    for p in pairs:
        out.append({"weight": list(p.weight),
                    "module_dim": p.module.dim,
                    "module_label": [str(x) for x in p.module.label()[1]]})
    return {"command": "irr", "group": holder.name, "height": args.height,
            "count": len(pairs), "classes": out}


def _member_report(param, member) -> Dict:
    from .kottwitz import encode
    return {
        "b": encode(param.group, member.b),
        "levi": sorted(member.levi),
        "witness_word": list(member.witness_word),
        "w_class_word": list(param.group.relative.word(member.w_class)),
        "weight": list(member.rho_weight),
        "levi_weight": list(member.levi_weight),
        "module": [str(x) for x in member.rho_module_label[1]],
        "module_dim": member.rho_module_label[0],
    }


def cmd_packet(args) -> Dict:
    from .files import resolve_parameter
    from .packets import (build_packet_member, enumerate_fiber,
                          enumerate_rhos, round_trip_check)
    param = resolve_parameter(args.param)
    report: Dict = {"command": "packet", "group": param.group.name,
                    "param": param.label}
    if args.rho is not None:
        member = build_packet_member(param, _parse_rho(param, args.rho))
        report["member"] = _member_report(param, member)
        if args.fiber:
            fiber = enumerate_fiber(param, member.b)
            report["fiber"] = [_member_report(param, m) for m in fiber]
    elif args.enumerate:
        rows = []
        for rho in enumerate_rhos(param, args.height):
            member = build_packet_member(param, rho)
            rows.append(_member_report(param, member))
        report["members"] = rows
        report["round_trip"] = round_trip_check(param, args.height)
        if not report["round_trip"]["pass"]:
            raise AssertionError("round trip failed: %r" % report["round_trip"])
    else:
        raise ValueError("packet needs --rho or --enumerate")
    return report


def _group_shape(group):
    """What two groups must share for a parameter of one and an endoscopic
    datum of the other to be used together: the rank, the roots with
    their coroots and the Galois generators."""
    datum = group.datum
    return (datum.rank, frozenset(zip(datum.roots, datum.coroots)),
            frozenset(group.galois.char_generators))


def cmd_eci(args) -> Dict:
    from .endoscopy import eci_both_sides, indexing_bijection_check
    from .files import resolve_endoscopy, resolve_parameter
    from .kottwitz import decode, encode
    from .packets import build_packet_member
    param = resolve_parameter(args.param)
    endo = resolve_endoscopy(args.endo)
    if _group_shape(endo.group) != _group_shape(param.group):
        raise ValueError("--param %s is a parameter of %s, but --endo %s is "
                         "an endoscopic datum of %s"
                         % (args.param, param.group.name, args.endo,
                            endo.group.name))
    if args.b:
        with open(args.b, "r", encoding="utf-8") as fh:
            b = decode(param.group, json.load(fh))
    elif args.rho is not None or param.dim == 2:
        text = "1,0" if args.rho is None else args.rho
        b = build_packet_member(param, _parse_rho(param, text)).b
    elif param.dim == 0:
        raise ValueError("eci needs --rho or --b: the center is 0-dimensional,"
                         ' and --rho "" asks for the empty weight')
    else:
        raise ValueError("eci needs --rho or --b: the default weight 1,0 "
                         "has 2 entries, this parameter needs %d" % param.dim)
    result = eci_both_sides(param, b, endo)
    indexing = indexing_bijection_check(param, b.levi, endo)
    if not result["equal"]:
        raise AssertionError("endoscopic character identity failed")
    if not indexing["pass"]:
        raise AssertionError("indexing bijection failed")
    return {
        "command": "eci", "group": param.group.name, "param": param.label,
        "endo": endo.label, "b": encode(param.group, b),
        "pass": result["equal"] and indexing["pass"],
        "lhs": result["lhs"].describe(),
        "rhs": result["rhs"].describe(),
        "discarded_nonregular": result["discarded_nonregular"].describe(),
        "embedded": result["embedded"],
        "indexing": indexing,
        "sign_token": result["sign_token"],
        "delta_twist": result["delta_twist"],
    }


def cmd_examples(args) -> Dict:
    rows = {
        "groups": list(presets.GROUP_NAMES),
        "parameters": list(presets.PARAM_NAMES),
        "endoscopy": list(presets.ENDO_NAMES),
        "disconnected": list(presets.DISCONNECTED_NAMES),
    }
    return {"command": "examples", "presets": rows}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rk",
        description="exact root-datum, Kottwitz-set and packet combinatorics")
    sub = ap.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weyl", help="relative Weyl coset tables")
    w.add_argument("--group", required=True)
    w.add_argument("--levi1", default="")
    w.add_argument("--levi2", default=None)
    w.add_argument("--kind", default="double-coset",
                   choices=["transporter", "double-coset", "geometric"])

    b = sub.add_parser("bset", help="Kottwitz-set invariants of an element")
    b.add_argument("--group", required=True)
    b.add_argument("--levi", default="")
    b.add_argument("--kappa", default="")
    b.add_argument("--kappa-ambient", default="")
    b.add_argument("--b", default="", help="path to a JSON element file")

    i = sub.add_parser("irr", help="classify irreducibles of a disconnected "
                                   "group up to a height bound")
    i.add_argument("--group", required=True)
    i.add_argument("--height", type=int, default=1)

    p = sub.add_parser("packet", help="packet members and fibers")
    p.add_argument("--param", required=True)
    p.add_argument("--rho")
    p.add_argument("--fiber", action="store_true")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--height", type=int, default=2)

    e = sub.add_parser("eci", help="two-sided regular character identity")
    e.add_argument("--param", required=True)
    e.add_argument("--endo", required=True)
    e.add_argument("--rho")
    e.add_argument("--b", default="")

    x = sub.add_parser("examples", help="list shipped presets")

    for s in (w, b, i, p, e, x):
        s.add_argument("--out", default="")
    return ap


#: flags whose value may start with '-' (a negative first entry)
SIGNED_FLAGS = ("--kappa", "--kappa-ambient", "--rho")


def _join_signed(argv):
    """Join a signed flag with a following value that starts with '-' but
    not '--' ("--kappa -1,0" -> "--kappa=-1,0"): argparse would read that
    value as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in SIGNED_FLAGS and arg[:1] == "-" \
                and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _join_signed(sys.argv[1:] if argv is None else argv))
    handlers = {
        "weyl": cmd_weyl,
        "bset": cmd_bset,
        "irr": cmd_irr,
        "packet": cmd_packet,
        "eci": cmd_eci,
        "examples": cmd_examples,
    }
    code = 0
    try:
        report = handlers[args.command](args)
    except Exception as exc:  # deliberate: any failed assertion is exit != 0
        # a WallRejection exists only once a handler has loaded rk.kottwitz
        kottwitz = sys.modules.get("rk.kottwitz")
        if kottwitz is None or not isinstance(exc, kottwitz.WallRejection):
            print("error: %s" % exc, file=sys.stderr)
            return 1
        report = {"command": args.command, "error": "rejection",
                  "detail": str(exc),
                  "facet": {"zero_walls": sorted(exc.zero_walls),
                            "negative_walls": sorted(exc.negative_walls)}}
        code = 2
    try:
        _emit(report, args.out or None)
    except BrokenPipeError:
        # the reader closed stdout early (`rk examples | head`); what is
        # left, and the flush at exit, go to os.devnull
        sys.stdout = open(os.devnull, "w")
        return 1
    except OSError as exc:
        # an --out path that cannot be written
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
