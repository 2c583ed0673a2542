"""BLAS threadpool control.

The factor algebra works on tall-skinny matrices where threaded BLAS
oversubscribes badly on small machines (observed 40x slowdowns from thread
contention).  Long-running entry points therefore ask for one BLAS
thread.  The pin acts only when ``threadpoolctl`` can be imported; without
it ``single_thread_blas`` does nothing and OpenBLAS keeps its default
thread count, so setting ``OPENBLAS_NUM_THREADS=1`` before Python starts
is the way to pin it by hand.
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

