"""The runner's contract: metrics as declared, checks that bite, and a
non-zero exit without the package source."""

import json
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from argparse import Namespace

import pytest

import probe
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == tracing.LAYER_UNITS
    names = [w["name"] for w in BENCHMARK["workloads"]]
    # riccati-ms is run by hand only (see README.md)
    assert sorted(names + ["riccati-ms"]) == sorted(workloads.WORKLOADS)


def test_expected_values_cover_the_held_out_seed():
    table = json.loads(run.EXPECTED.read_text())
    for name in workloads.WORKLOADS:
        assert str(run.HELD_OUT_SEED) in table[name]


def test_compare_tolerances():
    assert workloads.compare({"a": 1.0, "r": 3}, {"a": 1.0 + 1e-12, "r": 3}) \
        == []
    assert workloads.compare({"a": 1.0, "r": 3}, {"a": 1.0, "r": 4})
    assert workloads.compare({"a": 1.0}, {"a": 1.0 + 1e-9})
    assert workloads.compare({"a": 1.0}, {"b": 1.0})


def test_tail_percentile():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    assert run.tail_percentile(list(range(100))) == (90.0, 89)


def test_iterations_are_scaled_by_the_blocks_around_them(tmp_path):
    args = Namespace(workload="lod-fine6", seed=0, seconds=1, trace=0)
    r = run.Run(args, tmp_path, None)
    r.blocks = [0.5 * probe.PROBE_REF_S, probe.PROBE_REF_S,
                2.0 * probe.PROBE_REF_S]
    r.wall_at = [0, 1, 1]
    assert r.scaled([3.0, 4.5, 6.0]) == pytest.approx(
        statistics.median([3.0 / 0.75, 4.5 / 1.5, 6.0 / 1.5]))


def test_probe_allocates_nothing():
    probe.measure(1)
    tracemalloc.start()
    try:
        probe.measure(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024      # its arrays are 3.2 MB each


def _run(trace, tmp, expected=None):
    args = Namespace(workload="riccati-ms", seed=2, seconds=0.01,
                     trace=trace)
    r = run.Run(args, tmp, expected)
    r.setup()
    r.loop()
    return r


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_metric(small_workloads, tmp_path, trace):
    r = _run(trace, tmp_path)
    assert r.failed == 0 and r.attempted >= run.MIN_ITERATIONS
    metrics = r.metrics()
    units = tracing.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in metrics.items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())


def test_wrong_outputs_fail_every_iteration(small_workloads, tmp_path):
    good = _run(0, tmp_path).first[0]
    bad = dict(good)
    key = next(k for k, v in good.items() if isinstance(v, float))
    bad[key] = good[key] * (1 + 1e-8)
    r = _run(0, tmp_path, expected=bad)
    assert r.failed == r.attempted
    assert r.metrics() is None


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *BENCHMARK["command"][1:],
                          "--workload", "desk-grid", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
