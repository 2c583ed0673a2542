"""A fixed unit of work that measures how fast the host runs right now.

On a small shared machine the host's speed drifts by up to a quarter over
minutes, in steps that can outlast a run, and both the wall and the CPU
time of an iteration follow it.  The benchmark therefore runs blocks of
this probe between iterations and reports each time scaled to a reference
host: ``time * PROBE_REF_S / probe time`` around it.

The probe is elementwise array work on a few megabytes, which streams
through the caches as the workloads' sparse kernels do.  Of the kernels
tried (elementwise arrays, sparse products, sorting, small sparse LU
factorizations, sparse assembly, a pure Python loop), this one had the
least noise of its own and, on a 2-vCPU VM, the closest to one-to-one
relation with both workloads' iteration times (elasticity 1.0-1.15 from
log-log fits over 25-30 iterations each).  The kernels that repeat
smaller work swung by up to 1.6 times where the iterations swung by 1.2,
and would over-correct.

The probe runs none of the package's code, so a change to the package
cannot change it, and numpy runs these operations on one thread whatever
the BLAS settings, so a change to the package's BLAS threads leaves it
alone too.
"""

from __future__ import annotations

import time

import numpy as np

# median wall time of one probe on the reference host, a 2-vCPU VM
# (scaled times read as seconds on that host)
PROBE_REF_S = 0.05

_N = 400_000      # 3.2 MB per array
_ROUNDS = 46

# the probe's arrays, allocated once: a probe that allocated would also
# time the allocator, whose state the package's own allocations change
_START = np.linspace(0.0, 1.0, _N)
_X = np.empty(_N)
_Y = np.empty(_N)


def _work() -> float:
    x, y = _X, _Y
    x[:] = _START
    for _ in range(_ROUNDS):
        np.multiply(x, x, out=y)
        y += 1.0
        np.sqrt(y, out=y)
        y -= 0.5
        x, y = y, x
    return float(x.sum())


def measure(repeats: int) -> list:
    """Wall seconds of each of `repeats` probes run back to back."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        out.append(time.perf_counter() - t0)
    return out
