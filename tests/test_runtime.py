"""The BLAS pin: one thread for the whole process, whatever the start-up
thread count, and a warning instead of an error where no OpenBLAS is found.

The start-up counts are set in fresh interpreters through
``OPENBLAS_NUM_THREADS``, since this process may be pinned already.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

from mslqr import bench, runtime
from mslqr.assembly import kappa_constant
from mslqr.dre import SolverConfig, solve_dre
from mslqr.lowrank import zero_factor
from mslqr.mesh import build_base_mesh, refine_uniform, unit_square

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str, threads: int, *args) -> str:
    """Standard output of `code` run with OPENBLAS_NUM_THREADS=threads."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                         if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _tiny_system(refinements):
    mesh = build_base_mesh(unit_square())
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    return bench.build_system(mesh, kappa_constant(1.0), "unit_square")


_PIN_SCRIPT = """
import importlib.util
import json
import sys

# the start-up counts, read by a copy of the runtime module loaded without
# the package, whose import sets the pin
spec = importlib.util.spec_from_file_location("startup", sys.argv[1])
startup = importlib.util.module_from_spec(spec)
spec.loader.exec_module(startup)
before = startup.blas_threads()

from mslqr import bench, runtime
from mslqr.assembly import kappa_constant
from mslqr.dre import SolverConfig, solve_dre
from mslqr.lowrank import zero_factor
from mslqr.mesh import build_base_mesh, refine_uniform, unit_square

imported = runtime.blas_threads()
mesh = refine_uniform(refine_uniform(build_base_mesh(unit_square())))
system = bench.build_system(mesh, kappa_constant(1.0), "unit_square")
with runtime.single_thread_blas():
    inside = runtime.blas_threads()
solve_dre(system, zero_factor(system.n), SolverConfig(T=0.25, n_t=4))
print(json.dumps([before, imported, inside, runtime.blas_threads()]))
"""


def test_pin_holds_after_the_block():
    before, imported, inside, after = json.loads(
        _python(_PIN_SCRIPT, 2, SRC / "mslqr" / "runtime.py"))
    one = {"numpy": 1, "scipy": 1}
    if len(os.sched_getaffinity(0)) >= 2:
        # OpenBLAS caps the start-up count at the number of cores
        assert before == {"numpy": 2, "scipy": 2}
    assert imported == one
    assert inside == one
    assert after == one


_NO_ENTRY_POINT_SCRIPT = """
import json
import numpy as np
import scipy.sparse as sp
from mslqr import lowrank, norms, runtime

rng = np.random.default_rng(7)
n = 400
fine = lowrank.LowRankFactor(rng.standard_normal((n, 60)),
                             np.diag(rng.uniform(0.5, 2.0, 60)))
coarse = lowrank.LowRankFactor(rng.standard_normal((n, 40)),
                               np.diag(rng.uniform(0.5, 2.0, 40)))
M = sp.diags(rng.uniform(1.0, 2.0, n)).tocsc()
err = norms.l2_operator_error(fine, coarse, sp.identity(n, format="csr"),
                              norms.SparseCholesky(M))
F = lowrank.compress(fine, 1e-8)
print(json.dumps([runtime.blas_threads(), err.hex(),
                  [x.hex() for x in F.L.ravel()]]))
"""


def test_computation_without_entry_point_runs_pinned():
    # the norms and compress, called before any entry point, give the same
    # bits whatever the start-up thread count
    runs = [json.loads(_python(_NO_ENTRY_POINT_SCRIPT, n)) for n in (1, 2)]
    for threads, _, _ in runs:
        assert threads == {"numpy": 1, "scipy": 1}
    assert runs[0][1:] == runs[1][1:]


def test_no_openblas_warns_once_and_runs(monkeypatch):
    monkeypatch.setattr(runtime, "_openblas", lambda: {})
    runtime._warn_unpinned.cache_clear()
    system = _tiny_system(1)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                solve_dre(system, zero_factor(system.n),
                          SolverConfig(T=0.25, n_t=2))
    finally:
        runtime._warn_unpinned.cache_clear()
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "OPENBLAS_NUM_THREADS=1" in str(caught[0].message)
    assert runtime.blas_threads() == {}


_DESK_GRID_SCRIPT = """
import sys
from dataclasses import replace
from mslqr import bench
base = replace(bench.preset_config("grid"), seed=1009)
bench.run_experiment(replace(base, j_max=1, output=sys.argv[1],
                             solver=replace(base.solver, n_t=16)))
"""


def _without_timings(path) -> list:
    """The lines of a study's CSV with its timing columns cut out."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = next(ln for ln in lines if not ln.startswith("#")).split(",")
    keep = [i for i, c in enumerate(header) if c not in bench.TIMING_COLUMNS]
    return [ln if ln.startswith("#")
            else ",".join(ln.split(",")[i] for i in keep) for ln in lines]


def test_desk_grid_csv_does_not_depend_on_start_up_threads(tmp_path):
    # the benchmark's desk-grid shape on seed 1009; the blocked QR behind
    # compress sums in an order that depends on the thread count
    csv = {n: tmp_path / f"grid{n}.csv" for n in (1, 2)}
    for n, path in csv.items():
        _python(_DESK_GRID_SCRIPT, n, path)
    assert _without_timings(csv[1]) == _without_timings(csv[2])


def test_run_logs_the_pinned_threads(tmp_path):
    cfg = bench.ExperimentConfig(
        preset="custom", j_min=0, j_max=0, j_ref=1, epsilon=2.0 ** -2,
        solver=SolverConfig(T=0.25, n_t=2, substeps=2),
        output=str(tmp_path / "tiny.csv"))
    lines = []
    bench.run_experiment(cfg, log=lines.append)
    assert lines[0] == "BLAS threads: numpy 1, scipy 1"
    assert runtime.blas_threads() == {"numpy": 1, "scipy": 1}
