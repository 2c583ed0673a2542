"""Test set-up: import the package from src/ and the benchmark modules."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]


@pytest.fixture
def small_workloads(monkeypatch):
    """The workloads module with every workload shrunk to well under a
    second, so tests can run them traced and untraced."""
    import workloads
    from mslqr import bench

    monkeypatch.setattr(
        workloads, "_grid_config",
        lambda seed: replace(bench.preset_config("grid"), seed=seed, j_ref=3))
    monkeypatch.setattr(workloads, "DESK_GRID_N_T", 4)
    monkeypatch.setattr(workloads, "LOD_FINE_LEVEL", 4)
    monkeypatch.setattr(workloads, "LOD_LEVELS", ((1, 1), (2, 1)))
    monkeypatch.setattr(workloads, "RICCATI_REF_LEVEL", 3)
    # fewer steps let the discretization outweigh the small control gain
    monkeypatch.setattr(workloads, "RICCATI_LEVELS", ((1, 64), (2, 64)))
    monkeypatch.setattr(workloads, "RICCATI_PATCH_RADIUS", 1)
    return workloads
