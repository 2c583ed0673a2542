"""Benchmark of the mslqr package, run from the root of a source checkout.

    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 45 \
        --trace 0

Each run imports the package from ``src/``, sets the workload up several
times (the median is ``setup_s``), then runs iterations as a closed loop
with a single client, one at a time, for about ``--seconds``.  The first
iteration warms lazy initialisation and is not timed; at least three more
follow.  Every iteration's outputs are checked; a failed or raising
iteration is counted in ``failed`` and never timed as a success.

A block of host-speed probes (see probe.py) runs before every set-up and
every iteration and once at the end.  Times are scaled by
``probe.PROBE_REF_S`` over a probe time, so ``wall_s``, ``cpu_s`` and
``setup_s`` read as seconds on the reference host and a drift of the
host's speed cancels out.  Each iteration is scaled by the mean of the
blocks on either side of it; the few short set-ups by the median block of
the run, which a passing spike in a single block does not move.  The
unscaled medians are printed on a summary line.

With ``--trace 0`` the end-to-end metrics are measured.  With ``--trace 1``
iterations alternate between untraced and traced, and the per-layer
metrics come from the traced ones (see tracing.py).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext, suppress
from pathlib import Path

import environment
import probe
import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# a seed kept out of tuning, for validating claims made on other seeds
HELD_OUT_SEED = 1009

WARMUP_ITERATIONS = 1
MIN_ITERATIONS = WARMUP_ITERATIONS + 3

# host-speed probes per block; a block takes under a tenth of an iteration
PROBE_REPEATS = 4

# imports are part of set-up; a fresh interpreter measures them once per
# set-up repeat (interpreter start-up itself is not counted)
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                "sys.path[:0] = sys.argv[1:]; "
                "import environment, tracing, workloads; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk-grid", "lod-fine6", "riccati-ms"))
    p.add_argument("--seed", type=int, required=True,
                   help="coefficient seed; the inputs derive from it")
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    return args


def import_package():
    """Import mslqr from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "mslqr"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import mslqr
    if Path(mslqr.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported mslqr from {mslqr.__file__}, "
                         f"not from {pkg}")


def import_seconds():
    """Import time of the package and the benchmark in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                          str(ROOT / "src"), str(HERE)],
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(out.stdout.split()[-1])


@contextmanager
def scratch_dir():
    """A temporary directory inside the checkout, removed afterwards."""
    parent = ROOT / ".perfbench-tmp"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as tmp:
            yield Path(tmp)
    finally:
        with suppress(OSError):      # another run may still use it
            parent.rmdir()


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class Run:
    """One benchmark run: setup, the closed loop, the checks and results."""

    def __init__(self, args, tmp, expected):
        import workloads  # needs mslqr, so only after import_package()
        self.compare = workloads.compare
        self.args = args
        self.tmp = tmp
        self.expected = expected
        self.workload = workloads.WORKLOADS[args.workload]
        self.tracer = tracing.Tracer() if args.trace else None
        self.setup_trace = None      # (spans, counts) of the last set-up
        self.setup_times = []
        self.walls, self.cpus, self.traced_walls = [], [], []
        self.blocks = []             # median probe wall time of each block
        # index of the probe block just before each untraced iteration
        self.wall_at = []
        self.layer_samples = []
        self.attempted = self.failed = 0
        self.failures = []
        self.first = None            # (values, digest) of the first success

    def _traced(self, on):
        return tracing.installed(self.tracer) if on else nullcontext()

    def probe(self):
        self.blocks.append(statistics.median(probe.measure(PROBE_REPEATS)))

    def setup(self):
        """Set up several times; only the last state is used.  A traced run
        keeps the spans of the last set-up instead of timing imports."""
        probe.measure(1)             # warms the probe's own first call
        for _ in range(self.workload.setup_repeats):
            self.probe()
            # one set-up state at a time, so peak_rss_mib counts one
            self.state = None
            if self.tracer is not None:
                with self._traced(True):
                    self.state = self.workload.setup(self.args.seed, self.tmp)
                self.setup_trace = self.tracer.take()
                continue
            imports = import_seconds()
            t0 = time.perf_counter()
            self.state = self.workload.setup(self.args.seed, self.tmp)
            self.setup_times.append(imports + time.perf_counter() - t0)

    def _check(self, values, digest, problems):
        if self.expected is not None:
            problems += self.compare(values, self.expected)
        elif self.first is not None:
            problems += self.compare(values, self.first[0])
        if self.first is not None and digest != self.first[1]:
            problems.append("outputs differ bit for bit from the first "
                            "iteration of this run")
        return problems

    def iterate(self, traced):
        """One closed-loop iteration; returns its wall time."""
        self.attempted += 1
        if traced:
            self.tracer.start_from(*self.setup_trace)
        t0 = time.perf_counter()
        try:
            with self._traced(traced):
                c0, t0 = time.process_time(), time.perf_counter()
                raw = self.workload.iterate(self.state)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            values, digest, problems = self.workload.inspect(self.state, raw)
        except Exception as exc:  # a failed iteration is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - t0
        else:
            problems = self._check(values, digest, problems)
            if traced:
                spans, counts = self.tracer.take()
                cover = tracing.coverage(spans[len(self.setup_trace[0]):],
                                         wall)
                if not tracing.MIN_COVERAGE <= cover <= 1.0 + 1e-9:
                    problems.append(f"span self times cover {cover:.4f} of "
                                    f"the wall time, outside "
                                    f"[{tracing.MIN_COVERAGE}, 1]")
        if problems:
            self.failed += 1
            self.failures += [f"iteration {self.attempted}: {p}"
                              for p in problems]
            return wall
        if self.first is None:
            self.first = (values, digest)
        if self.attempted <= WARMUP_ITERATIONS:
            return wall
        if traced:
            self.traced_walls.append(wall)
            self.layer_samples.append(tracing.layer_metrics(
                spans, counts, self.tracer.blas_inside))
        else:
            self.walls.append(wall)
            self.cpus.append(cpu)
            self.wall_at.append(len(self.blocks) - 1)
        return wall

    def loop(self):
        start = time.perf_counter()
        while True:
            traced = self.tracer is not None and self.attempted % 2 == 1
            self.probe()
            wall = self.iterate(traced)
            elapsed = time.perf_counter() - start
            if (self.attempted >= MIN_ITERATIONS
                    and elapsed + wall > self.args.seconds):
                break
        self.probe()

    def raw(self):
        """Unscaled medians of the iteration wall and CPU, set-up and probe
        times (None where there are no samples)."""
        return {name: statistics.median(v) if v else None for name, v in (
            ("wall_s", self.walls), ("cpu_s", self.cpus),
            ("setup_s", self.setup_times), ("probe_s", self.blocks))}

    def scaled(self, times):
        """Median of iteration times in reference-host seconds, each scaled
        by the probe blocks just before and just after it."""
        b = self.blocks
        return statistics.median(
            t * probe.PROBE_REF_S / (0.5 * (b[k] + b[k + 1]))
            for t, k in zip(times, self.wall_at))

    def metrics(self):
        if not self.walls or (self.tracer is not None
                              and not self.layer_samples):
            return None
        if self.tracer is None:
            values = {
                "wall_s": self.scaled(self.walls),
                "cpu_s": self.scaled(self.cpus),
                "setup_s": statistics.median(self.setup_times)
                * probe.PROBE_REF_S / statistics.median(self.blocks),
                "peak_rss_mib": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
        else:
            values = {k: statistics.median(s[k] for s in self.layer_samples)
                      for k in self.layer_samples[0]}
            values["trace.overhead_ratio"] = (
                statistics.median(self.traced_walls)
                / statistics.median(self.walls))
            units = tracing.LAYER_UNITS
        return {k: {"value": values[k], "unit": units[k]} for k in units}


def _load_expected(workload, seed):
    if not EXPECTED.is_file():
        return None
    with open(EXPECTED) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    args = _parse(argv)
    import_package()

    expected = _load_expected(args.workload, args.seed)
    with scratch_dir() as tmp:
        run = Run(args, tmp, expected)
        run.setup()
        run.loop()
    metrics = run.metrics()

    n, failed = run.attempted, run.failed
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} recorded_values="
          f"{'yes' if expected is not None else 'no'} "
          f"held_out_seed={HELD_OUT_SEED}")
    print("perfbench: environment "
          + json.dumps(environment.record(ROOT), sort_keys=True))
    for msg in run.failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    tail = tail_percentile(run.walls)
    print(f"perfbench: iterations={n} failed={failed} "
          f"check_fail_ratio={failed / n:g} untraced_samples="
          f"{len(run.walls)} traced_samples={len(run.traced_walls)} "
          f"setup_runs_s={','.join(f'{t:.3f}' for t in run.setup_times)} "
          f"unscaled wall_s tail="
          + (f"p{tail[0]:.0f} {tail[1]:.6f} s" if tail else
             "none (fewer than 20 samples)"))
    print("perfbench: unscaled medians "
          + " ".join(f"{k}={v:.6f}" for k, v in run.raw().items()
                     if v is not None))
    print("perfbench: unscaled samples wall_s="
          + ",".join(f"{t:.4f}" for t in run.walls)
          + " probe_s=" + ",".join(f"{t:.5f}" for t in run.blocks))
    if metrics is None:
        print("perfbench: no iteration passed its checks", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"perfbench: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0,
                      "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
