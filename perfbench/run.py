"""Benchmark of `rk`: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload chamber --seed 0 --seconds 10 --trace 0

Every workload is a closed loop with one client (one process, one thread);
the next op starts when the previous one returns.  A run repeats whole
rounds of the workload's op list until `--seconds` have passed and at
least MIN_OPS ops are done, so that ten samples lie beyond op_p90_ms.
Each op's output is checked (certificates and reference digests) outside
its timed span.  Latencies are adjusted to a reference machine speed
measured between and inside ops (speed.py); the raw figures are printed
next to the adjusted ones.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
loop untraced and then traced, and prints the per-layer metrics (see
tracer.py).  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402

MIN_OPS = 100
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 11, 4.0
BOUNDARY_JUMP = 1.2
SPANS_DIR = os.path.join(HERE, "out")

END_TO_END_UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Phase:
    """Results of one timed loop.  `latencies` are adjusted to the
    reference speed when a SpeedMeter ran (see speed.py), else raw."""

    raw: List[float] = field(default_factory=list)         # seconds
    latencies: List[float] = field(default_factory=list)   # seconds
    bands: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def rank_index(n: int, q: float) -> int:
    """Nearest-rank index of quantile q among n sorted samples."""
    return max(0, math.ceil(q * n) - 1)


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[rank_index(len(ordered), q)]


def check(op: workloads.Op, digests: Dict[str, str], failures: List[str],
          meter: Optional[SpeedMeter] = None) -> float:
    """Run one op; return its latency, less the time of speed samples taken
    inside it, or raise after recording why it failed.  The digest
    comparison runs after the timed span."""
    sampled = meter.sampling_s if meter else 0.0
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # any raise is a failed op, never an abort
        failures.append("%s %s: %s: %s" % (op.key, op.inputs,
                                            type(exc).__name__, exc))
        raise
    took = time.perf_counter() - start
    if meter:
        took -= meter.sampling_s - sampled
    expected = digests.get(op.key)
    if expected is not None and workloads.digest(out) != expected:
        failures.append("%s: output digest differs from the reference" % op.key)
        raise workloads.CertificateError(op.key)
    return took


def timed_loop(plan: workloads.Plan, seconds: float, min_ops: int,
               digests: Dict[str, str], failures: List[str], tracer=None,
               op_seconds: Optional[Dict[int, float]] = None,
               meter: Optional[SpeedMeter] = None) -> Phase:
    """Run whole rounds until `seconds` have passed and `min_ops` ops are
    done.  With a meter, a speed sample precedes every op and, for untraced
    ops in this process, SIGALRM samples run inside long ones."""
    phase = Phase()
    first_sample: List[int] = []
    sampling = (meter.running() if meter and plan.cli is None and tracer is None
                else contextlib.nullcontext())
    started = time.perf_counter()
    i = 0
    with sampling:
        while True:
            op = plan.ops[i % len(plan.ops)]
            if tracer is not None:
                tracer.op_id = i
            if meter:
                first_sample.append(len(meter.factors))
                meter.sample()
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                took = check(op, digests, failures, meter)
            except Exception:
                phase.failed += 1
                took = time.perf_counter() - t0
            phase.raw.append(took)
            phase.bands.append(op.band)
            if op_seconds is not None:
                op_seconds[i] = took
            i += 1
            if (i % plan.round_size == 0 and i >= min_ops
                    and time.perf_counter() - started >= seconds):
                break
        if meter:
            meter.sample()
    if meter:
        # op j is timed between its own sample and op j+1's (inclusive)
        last = first_sample[1:] + [len(meter.factors) - 1]
        phase.latencies = [raw / meter.mean(a, b) for raw, a, b
                           in zip(phase.raw, first_sample, last)]
    else:
        phase.latencies = list(phase.raw)
    return phase


def warm_up(plan: workloads.Plan, digests: Dict[str, str],
            failures: List[str]) -> int:
    """One untimed op per preset; returns the number that failed."""
    failed = 0
    for op in plan.warmups:
        try:
            check(op, digests, failures)
        except Exception:
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# set-up time

def probe_setup(workload: str, seed: int, meter: SpeedMeter
                ) -> Tuple[float, float]:
    """(raw, adjusted) seconds from spawning a fresh interpreter until it
    has built the workload and run its warm-up ops.  The probe samples its
    own speed; the adjustment also uses one sample before and after."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    first = len(meter.factors)
    meter.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
    finally:
        proc.stdout.close()
        try:
            code = proc.wait(timeout=workloads.CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if code != 0 or not line.startswith(b"ready "):
        raise RuntimeError("set-up probe failed")
    meter.sample()
    probe = json.loads(line[len(b"ready "):])
    factors = meter.factors[first:] + probe["factors"]
    return took, (took - probe["sampling_s"]) / (sum(factors) / len(factors))


def cli_setup(meter: SpeedMeter) -> Tuple[float, float]:
    """(raw, adjusted) wall time of a fresh `rk examples`."""
    first = len(meter.factors)
    meter.sample()
    start = time.perf_counter()
    workloads.run_cli(workloads.SETUP_COMMAND, 0)
    took = time.perf_counter() - start
    meter.sample()
    return took, took / meter.mean(first, first + 1)


def setup_seconds(workload: str, seed: int, meter: SpeedMeter
                  ) -> List[Tuple[float, float]]:
    """Set-up samples (raw, adjusted): at least SETUP_MIN, and more, up to
    SETUP_MAX, while they have taken under SETUP_BUDGET_S in total."""
    samples: List[Tuple[float, float]] = []
    while len(samples) < SETUP_MIN or (
            len(samples) < SETUP_MAX
            and sum(raw for raw, _adj in samples) < SETUP_BUDGET_S):
        if workload == "cli-cold":
            samples.append(cli_setup(meter))
        else:
            samples.append(probe_setup(workload, seed, meter))
    return samples


def run_probe(workload: str, seed: int) -> None:
    """The child side of probe_setup."""
    meter = SpeedMeter()
    with meter.running():
        meter.sample()
        plan = workloads.build(workload, seed)
        warm_up(plan, {}, [])
        meter.sample()
    print("ready " + json.dumps({"factors": meter.factors,
                                 "sampling_s": meter.sampling_s}), flush=True)


# ---------------------------------------------------------------------------
# reports

def band_report(phase: Phase) -> List[str]:
    """Per-band latencies, and for p50 and p90 the latency jump across the
    neighbouring ranks (one percent of the samples either side).  A
    percentile whose window spans two bands and a jump above BOUNDARY_JUMP
    sits on the boundary between them: shifting its rank by one changes
    its value, so it is flagged."""
    lines = []
    by_band: Dict[str, List[float]] = {}
    for lat, band in zip(phase.latencies, phase.bands):
        by_band.setdefault(band, []).append(lat)
    for band, lats in sorted(by_band.items(),
                             key=lambda kv: statistics.median(kv[1])):
        lines.append("  band %-52s n=%-4d p50=%9.2f ms  max=%9.2f ms" % (
            band, len(lats), statistics.median(lats) * 1e3, max(lats) * 1e3))
    ordered = sorted(zip(phase.latencies, phase.bands))
    n = len(ordered)
    k = max(1, round(0.01 * n))
    for label, q in (("op_p50_ms", 0.5), ("op_p90_ms", 0.9)):
        r = rank_index(n, q)
        lo, hi = ordered[max(0, r - k)], ordered[min(n - 1, r + k)]
        jump = hi[0] / lo[0]
        verdict = ("ON A BAND BOUNDARY" if jump > BOUNDARY_JUMP
                   and lo[1] != hi[1] else "inside a band")
        lines.append("  %s rank %d of %d in %s; ranks %d..%d span %s..%s, "
                     "jump %.3f: %s" % (label, r + 1, n, ordered[r][1],
                                        r + 1 - k, r + 1 + k, lo[1], hi[1],
                                        jump, verdict))
    return lines


def end_to_end(workload: str, phase: Phase, latencies: List[float],
               setup: List[float]) -> Dict[str, float]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli-cold"
                               else resource.RUSAGE_SELF)
    return {
        "ops_per_s": (phase.attempted - phase.failed) / sum(latencies),
        "op_p50_ms": percentile(latencies, 0.5) * 1e3,
        "op_p90_ms": percentile(latencies, 0.9) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def traced_run(plan: workloads.Plan, seconds: float, digests: Dict[str, str],
               failures: List[str], spans_path: str):
    """Untraced loop, then the same loop traced; returns the untraced phase,
    the op counts of both, and the per-layer metrics.  Span times are raw;
    the overhead ratio compares speed-adjusted rates, with speed samples
    taken between ops only."""
    import tracer as tracing

    # One pass per phase suffices here: the percentiles come from untraced
    # runs, and a pass holds every op of the mix.
    plain = timed_loop(plan, seconds, len(plan.ops), digests, failures,
                       meter=SpeedMeter())
    tr = tracing.Tracer()
    op_seconds: Dict[int, float] = {}
    child_spans = os.path.join(SPANS_DIR, "child-%d.json" % os.getpid())
    if plan.cli is not None:
        plan.cli.launcher = (os.path.join(HERE, "tracer.py"), child_spans)
        plan.cli.after = lambda: tr.absorb(child_spans)
        plan.cli.stdout_bytes = 0
    else:
        tr.install()
    try:
        traced = timed_loop(plan, seconds, len(plan.ops), digests, failures,
                            tr, op_seconds, SpeedMeter())
    finally:
        tr.restore()
        if plan.cli is not None:
            plan.cli.launcher = plan.cli.after = None
    metrics = tr.metrics(op_seconds)
    if plan.cli is not None:
        metrics["cli.emit.bytes"] = plan.cli.stdout_bytes
    plain_rate = plain.attempted / sum(plain.latencies)
    traced_rate = traced.attempted / sum(traced.latencies)
    metrics["trace.overhead_ratio"] = plain_rate / traced_rate
    tr.write_spans(spans_path)
    return (plain, plain.attempted + traced.attempted,
            plain.failed + traced.failed, metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        workloads.ensure_src()
    except FileNotFoundError as exc:
        print("error: %s; run from a checkout of the repository" % exc,
              file=sys.stderr)
        return 2

    if args.setup_probe:
        run_probe(args.workload, args.seed)
        return 0

    meter = SpeedMeter()
    setup = [] if args.trace else setup_seconds(args.workload, args.seed, meter)
    plan = workloads.build(args.workload, args.seed)
    digests = workloads.expected_digests(workloads.load_reference(),
                                         args.workload, args.seed)
    failures: List[str] = []
    warm_failed = warm_up(plan, digests, failures)

    raw_lines = []
    if args.trace:
        import tracer
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, "%s-seed%d.spans.tsv.gz"
                                  % (args.workload, args.seed))
        shown, attempted, failed, metrics = traced_run(
            plan, args.seconds, digests, failures, spans_path)
        units = tracer.metric_units()
        print("spans written to %s" % os.path.relpath(spans_path))
    else:
        shown = timed_loop(plan, args.seconds, MIN_OPS, digests, failures,
                           meter=meter)
        attempted, failed = shown.attempted, shown.failed
        metrics = end_to_end(args.workload, shown, shown.latencies,
                             [adj for _raw, adj in setup])
        units = END_TO_END_UNITS
        raw = end_to_end(args.workload, shown, shown.raw,
                         [raw for raw, _adj in setup])
        raw_lines = ["%-48s %16.6f %s" % ("raw " + name, value, units[name])
                     for name, value in raw.items() if name != "peak_rss_mb"]
        raw_lines.append("%-48s %16.6f %s" % (
            "speed factor, median of %d samples" % len(meter.factors),
            statistics.median(meter.factors), "ratio"))

    attempted += len(plan.warmups)
    failed += warm_failed
    for line in failures[:10]:
        print("FAILED %s" % line)
    print("workload %s seed %d: %d ops (%d in the reported loop), %d failed"
          % (args.workload, args.seed, attempted, shown.attempted, failed))
    for line in band_report(shown):
        print(line)
    for line in raw_lines:
        print(line)
    for name, value in metrics.items():
        print("%-48s %16.6f %s" % (name, value, units[name]))
    print("%-48s %16.6f %s" % ("error_rate", failed / attempted, "fraction"))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
