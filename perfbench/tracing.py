"""Per-layer spans taken by wrapping module-level names of the package.

No source file of the package is edited.  While ``installed(tracer)`` is
active, every module of the package that binds one of the traced public
functions (or the scipy ``splu`` imported by ``mslqr.dre`` and
``mslqr.lod``) sees a wrapper that records a span around the call; on exit
every original binding is restored.  Spans nest by call order, so the
tracer must be driven from a single thread (all workloads run the LOD
element loop with one worker).

A span's self time is its duration minus the durations of its direct
children.  Over one traced iteration the self times of all spans sum to
the time the top-level spans cover, which the benchmark checks against the
iteration's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import environment

# the spans of a traced iteration must cover at least this share of its
# wall time; the rest is the benchmark's own glue between calls
MIN_COVERAGE = 0.95


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory spans plus the counters read at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.blas_inside = None
        self._stack = []

    def start_from(self, spans, counts):
        """Continue on top of earlier spans and counts (a traced setup)."""
        self.spans, self.counts = list(spans), dict(counts)

    def take(self):
        """Hand over the spans and counts recorded so far and start anew."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = (self.spans, self.counts)
        self.spans, self.counts = [], {}
        return out

    @contextmanager
    def span(self, name):
        s = Span(name, self._stack[-1] if self._stack else None,
                 time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if s.parent is not None:
                s.parent.child_s += s.duration

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key, value):
        self.counts[key] = max(self.counts.get(key, value), value)


def _timed(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result
    return wrapper


def _timed_class(tracer, name, cls):
    """Subclass whose construction is one span; isinstance still holds."""
    def __init__(self, *args, **kwargs):
        with tracer.span(name):
            cls.__init__(self, *args, **kwargs)
    return type(cls.__name__, (cls,),
                {"__init__": __init__, "__module__": cls.__module__,
                 "__doc__": cls.__doc__})


def _observing_pin(tracer, original):
    """single_thread_blas wrapper that reads the BLAS threads in effect."""
    @contextmanager
    def single_thread_blas():
        with original():
            tracer.blas_inside = environment.blas_threads()
            yield
    return single_thread_blas


def _after_compress(tracer, args, out):
    tracer.add("compress_cols_in", args[0].rank)
    tracer.add("compress_cols_out", out.rank)


def _after_solve(tracer, args, sol):
    tracer.maximum("rank_max", max(sol.rank_history))
    tracer.maximum("rank_final", sol.final.rank)


def _after_lod(tracer, args, basis):
    tracer.add("lod_elements", basis.stats["n_elements"])
    tracer.add("s_ms_nnz", basis.S_ms.nnz)
    tracer.add("s_ms_rows", basis.n_coarse)


def _after_patch(tracer, args, patch):
    tracer.add("patches", 1)
    tracer.add("patch_elements", patch.size)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "mslqr" or name.startswith("mslqr.")]


@contextmanager
def installed(tracer):
    """Wrap the traced names for the duration of the block."""
    from mslqr import bench, dre, lod, lowrank, mesh, norms, runtime
    modules = _package_modules()
    targets = [
        (runtime.single_thread_blas, modules,
         _observing_pin(tracer, runtime.single_thread_blas)),
        (mesh.refine_uniform, modules,
         _timed(tracer, "mesh.refine", mesh.refine_uniform)),
        (mesh.prolongation, modules,
         _timed(tracer, "mesh.prolongation", mesh.prolongation)),
        # build_system lives in bench but does assembly work
        (bench.build_system, modules,
         _timed(tracer, "assembly.build_system", bench.build_system)),
        (bench.run_experiment, modules,
         _timed(tracer, "bench.run_experiment", bench.run_experiment)),
        (dre.solve_dre, modules,
         _timed(tracer, "dre.solve", dre.solve_dre, _after_solve)),
        (dre.FlowCache, modules,
         _timed_class(tracer, "dre.flowcache", dre.FlowCache)),
        (dre.apply_exp_F, modules,
         _timed(tracer, "dre.exp_f", dre.apply_exp_F)),
        (lowrank.apply_exp_G, modules,
         _timed(tracer, "dre.exp_g", lowrank.apply_exp_G)),
        (dre.simulate_closed_loop, modules,
         _timed(tracer, "dre.closed_loop", dre.simulate_closed_loop)),
        (dre.splu, [dre], _timed(tracer, "dre.splu", dre.splu)),
        (lowrank.compress, modules,
         _timed(tracer, "lowrank.compress", lowrank.compress,
                _after_compress)),
        (lod.build_lod_basis, modules,
         _timed(tracer, "lod.build", lod.build_lod_basis, _after_lod)),
        (lod.patch_elements, modules,
         _timed(tracer, "lod.patch_elements", lod.patch_elements,
                _after_patch)),
        (lod.clement_interpolation, modules,
         _timed(tracer, "lod.clement", lod.clement_interpolation)),
        (lod.splu, [lod], _timed(tracer, "lod.splu", lod.splu)),
        (norms.SparseCholesky, modules,
         _timed_class(tracer, "norms.cholesky", norms.SparseCholesky)),
        (norms.l2_operator_error, modules,
         _timed(tracer, "norms.l2", norms.l2_operator_error)),
        (norms.v_operator_error, modules,
         _timed(tracer, "norms.v", norms.v_operator_error)),
    ]
    # collect every binding before replacing any, so that no wrapper is
    # itself found and wrapped
    plan = [(m, attr, original, wrapper)
            for original, scope, wrapper in targets
            for m in scope
            for attr, value in list(vars(m).items()) if value is original]
    done = []
    try:
        for m, attr, original, wrapper in plan:
            setattr(m, attr, wrapper)
            done.append((m, attr, original))
        yield tracer
    finally:
        for m, attr, original in reversed(done):
            setattr(m, attr, original)


LAYER_UNITS = {
    "runtime.blas_threads_numpy": "threads",
    "runtime.blas_threads_scipy": "threads",
    "runtime.pin_active": "flag",
    "mesh.refine_s": "s",
    "mesh.prolongation_s": "s",
    "assembly.build_system_s": "s",
    "bench.orchestration_self_s": "s",
    "dre.solve_s": "s",
    "dre.solve_calls": "count",
    "dre.flowcache_s": "s",
    "dre.step_lu_s": "s",
    "dre.exp_f_self_s": "s",
    "dre.exp_f_calls": "count",
    "dre.exp_g_s": "s",
    "dre.closed_loop_s": "s",
    "dre.rank_max": "count",
    "dre.rank_final": "count",
    "lowrank.compress_s": "s",
    "lowrank.compress_calls": "count",
    "lowrank.compress_cols_in": "count",
    "lowrank.compress_keep_ratio": "ratio",
    "lod.build_s": "s",
    "lod.ms_per_element": "ms/element",
    "lod.patch_elements_s": "s",
    "lod.saddle_lu_s": "s",
    "lod.saddle_lu_calls": "count",
    "lod.clement_s": "s",
    "lod.other_self_s": "s",
    "lod.patch_size_mean": "elements",
    "lod.s_ms_nnz_per_row": "nnz/row",
    "norms.cholesky_s": "s",
    "norms.l2_s": "s",
    "norms.v_s": "s",
    "norms.calls": "count",
    "trace.overhead_ratio": "ratio",
}


def coverage(spans, wall_s: float) -> float:
    """Sum of all span self times over the wall time they ran in."""
    return sum(s.self_s for s in spans) / wall_s


def layer_metrics(spans, counts, blas_inside) -> dict:
    """Per-layer metrics of one traced unit of work (names as declared in
    BENCHMARK.json, except trace.overhead_ratio which needs two runs)."""
    total, self_s, calls = {}, {}, {}
    step_lu = 0.0
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name == "dre.splu" and (s.parent is None
                                     or s.parent.name != "dre.flowcache"):
            step_lu += s.duration

    def t(name):
        return total.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    blas = blas_inside or environment.blas_threads()
    return {
        "runtime.blas_threads_numpy": blas["numpy"],
        "runtime.blas_threads_scipy": blas["scipy"],
        "runtime.pin_active": int(blas_inside is not None
                                  and all(v == 1 for v in blas.values())),
        "mesh.refine_s": t("mesh.refine"),
        "mesh.prolongation_s": t("mesh.prolongation"),
        "assembly.build_system_s": t("assembly.build_system"),
        "bench.orchestration_self_s": self_s.get("bench.run_experiment", 0.0),
        "dre.solve_s": t("dre.solve"),
        "dre.solve_calls": calls.get("dre.solve", 0),
        "dre.flowcache_s": t("dre.flowcache"),
        "dre.step_lu_s": step_lu,
        "dre.exp_f_self_s": self_s.get("dre.exp_f", 0.0),
        "dre.exp_f_calls": calls.get("dre.exp_f", 0),
        "dre.exp_g_s": t("dre.exp_g"),
        "dre.closed_loop_s": t("dre.closed_loop"),
        "dre.rank_max": counts.get("rank_max", 0),
        "dre.rank_final": counts.get("rank_final", 0),
        "lowrank.compress_s": t("lowrank.compress"),
        "lowrank.compress_calls": calls.get("lowrank.compress", 0),
        "lowrank.compress_cols_in": counts.get("compress_cols_in", 0),
        "lowrank.compress_keep_ratio": ratio(
            counts.get("compress_cols_out", 0),
            counts.get("compress_cols_in", 0)),
        "lod.build_s": t("lod.build"),
        "lod.ms_per_element": ratio(1000.0 * t("lod.build"),
                                    counts.get("lod_elements", 0)),
        "lod.patch_elements_s": t("lod.patch_elements"),
        "lod.saddle_lu_s": t("lod.splu"),
        "lod.saddle_lu_calls": calls.get("lod.splu", 0),
        "lod.clement_s": t("lod.clement"),
        "lod.other_self_s": self_s.get("lod.build", 0.0),
        "lod.patch_size_mean": ratio(counts.get("patch_elements", 0),
                                     counts.get("patches", 0)),
        "lod.s_ms_nnz_per_row": ratio(counts.get("s_ms_nnz", 0),
                                      counts.get("s_ms_rows", 0)),
        "norms.cholesky_s": t("norms.cholesky"),
        "norms.l2_s": t("norms.l2"),
        "norms.v_s": t("norms.v"),
        "norms.calls": calls.get("norms.l2", 0) + calls.get("norms.v", 0),
    }
