"""Tracing must be invisible to the program and add up to the wall time."""

import sys
import time

import pytest

import environment
import tracing


def _bindings():
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "mslqr" or name.startswith("mslqr.")
            for attr, value in vars(mod).items()}


def test_installed_restores_every_binding():
    from mslqr import dre, lod, norms
    before = _bindings()
    with tracing.installed(tracing.Tracer()):
        assert dre.solve_dre is not before[("mslqr.dre", "solve_dre")]
        assert dre.splu is not before[("mslqr.dre", "splu")]
        assert lod.splu is not before[("mslqr.lod", "splu")]
        # norms factorizes through its own splu import, which stays as is
        assert norms.splu is before[("mslqr.norms", "splu")]
        assert issubclass(dre.FlowCache, before[("mslqr.dre", "FlowCache")])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_installed_restores_after_an_error():
    from mslqr import lowrank
    original = lowrank.compress
    with pytest.raises(ZeroDivisionError):
        with tracing.installed(tracing.Tracer()):
            assert lowrank.compress is not original
            1 / 0
    assert lowrank.compress is original


def test_self_time_is_parent_minus_children():
    tr = tracing.Tracer()
    with tr.span("root"):
        time.sleep(0.002)
        with tr.span("a"):
            time.sleep(0.002)
            with tr.span("a.x"):
                time.sleep(0.002)
        with tr.span("b"):
            time.sleep(0.002)
    spans, _ = tr.take()
    by = {s.name: s for s in spans}
    children = {n: [s for s in spans if s.parent is by[n]] for n in by}
    for name, s in by.items():
        assert s.self_s == pytest.approx(
            s.duration - sum(c.duration for c in children[name]), abs=1e-12)
        assert s.self_s > 0
    # self times telescope to the duration of the top-level span
    assert sum(s.self_s for s in spans) == pytest.approx(
        by["root"].duration, abs=1e-9)


@pytest.mark.parametrize("name", ["desk-grid", "lod-fine6", "riccati-ms"])
def test_traced_iteration_matches_untraced_bit_for_bit(
        small_workloads, tmp_path, name):
    wl = small_workloads.WORKLOADS[name]
    state = wl.setup(3, tmp_path)
    plain = wl.inspect(state, wl.iterate(state))
    tr = tracing.Tracer()
    with tracing.installed(tr):
        t0 = time.perf_counter()
        raw = wl.iterate(state)
        wall = time.perf_counter() - t0
    traced = wl.inspect(state, raw)
    assert plain[2] == [] and traced[2] == []
    assert traced[1] == plain[1]                 # exact output digest
    assert traced[0] == plain[0]

    spans, counts = tr.take()
    assert tracing.MIN_COVERAGE <= tracing.coverage(spans, wall) <= 1.0
    metrics = tracing.layer_metrics(spans, counts, tr.blas_inside)
    assert set(metrics) | {"trace.overhead_ratio"} == set(tracing.LAYER_UNITS)
    assert metrics["runtime.blas_threads_numpy"] == \
        environment.blas_threads()["numpy"]
    if name == "lod-fine6":
        assert metrics["lod.saddle_lu_calls"] > 0
        assert metrics["dre.solve_calls"] == 0
    else:
        assert metrics["dre.solve_calls"] > 0
        assert metrics["lowrank.compress_cols_in"] > 0
        assert 0 < metrics["lowrank.compress_keep_ratio"] <= 1
    if name == "desk-grid":
        assert metrics["norms.calls"] > 0
        assert metrics["lod.build_s"] > 0


def test_blas_threads_are_read_not_changed():
    first = environment.blas_threads()
    assert set(first) == {"numpy", "scipy"}
    assert all(v >= 1 for v in first.values())
    assert environment.blas_threads() == first
