"""BLAS threadpool control.

The factor algebra works on tall-skinny matrices where threaded BLAS
oversubscribes badly on small machines (observed 40x slowdowns from thread
contention).  Long-running entry points therefore pin BLAS to one thread;
this also keeps benchmark timings uncontended.
"""

from __future__ import annotations

from contextlib import nullcontext

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover - optional speedup
    threadpool_limits = None


def single_thread_blas():
    """Context manager limiting BLAS pools to one thread (no-op without
    threadpoolctl)."""
    if threadpool_limits is None:
        return nullcontext()
    return threadpool_limits(limits=1)

