"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

import json
import os
import signal
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedMeter  # noqa: E402

workloads.ensure_src()


def _inputs(plan):
    return [(op.key, op.inputs) for op in plan.ops]


def test_same_seed_same_op_list():
    for name in workloads.WORKLOADS:
        assert _inputs(workloads.build(name, 11)) == \
            _inputs(workloads.build(name, 11)), name


def test_other_seed_other_inputs_same_counts():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert _inputs(a) != _inputs(b), name
        assert len(a.ops) == len(b.ops) and a.round_size == b.round_size
        assert Counter(op.band for op in a.ops) == \
            Counter(op.band for op in b.ops), name
    chamber_a = {op.inputs for op in workloads.build("chamber", 1).ops}
    chamber_b = {op.inputs for op in workloads.build("chamber", 2).ops}
    assert len(chamber_a & chamber_b) < len(chamber_a) // 2


def _small_plan(name, n):
    plan = workloads.build(name, 0)
    plan.ops = plan.ops[:n]
    plan.round_size = n
    return plan


def test_wrappers_removed_after_traced_run(tmp_path):
    import rk.lattice
    import rk.weyl
    from rk.cyclotomic import Cyclo
    from rk.rootdata import ReductiveGroup, WeylGroup

    before = (rk.lattice.mat_mul, rk.weyl.mat_mul, Cyclo.__mul__,
              Cyclo.__rmul__, vars(ReductiveGroup)["relative"],
              WeylGroup.__init__)
    plan = _small_plan("chamber", 5)
    _plain, _attempted, _failed, metrics = bench.traced_run(
        plan, 0, {}, [], str(tmp_path / "spans.tsv.gz"))
    after = (rk.lattice.mat_mul, rk.weyl.mat_mul, Cyclo.__mul__,
             Cyclo.__rmul__, vars(ReductiveGroup)["relative"],
             WeylGroup.__init__)
    assert all(x is y for x, y in zip(before, after))
    assert set(metrics) == set(tracer.metric_units())
    assert metrics["weyl.chamber_locate.calls"] == 5
    assert metrics["lattice.mat_contragredient.calls"] > 0


def test_corrupted_reference_digest_is_a_failure():
    plan = _small_plan("packet-sweep", 1)
    op = plan.ops[0]
    good = workloads.expected_digests(workloads.load_reference(),
                                      "packet-sweep", 0)
    assert op.key in good
    failures = []
    phase = bench.timed_loop(plan, 0, 1, good, failures)
    assert (phase.attempted, phase.failed, failures) == (1, 0, [])
    phase = bench.timed_loop(plan, 0, 1, {op.key: "0" * 16}, failures)
    assert (phase.attempted, phase.failed) == (1, 1)
    assert "digest" in failures[0]


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracer.metric_units()


def test_speed_meter_samples_inside_ops_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    meter = SpeedMeter()
    with meter.running():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(meter.factors) >= 3 and min(meter.factors) > 0


def test_adjusted_latency_is_raw_over_the_mean_speed_factor():
    plan = _small_plan("chamber", 5)
    meter = SpeedMeter()
    phase = bench.timed_loop(plan, 0, 5, {}, [], meter=meter)
    assert len(phase.raw) == len(phase.latencies) == 5
    assert len(meter.factors) >= 6
    for raw, adjusted in zip(phase.raw, phase.latencies):
        factor = raw / adjusted
        assert min(meter.factors) <= factor * (1 + 1e-9)
        assert factor <= max(meter.factors) * (1 + 1e-9)
