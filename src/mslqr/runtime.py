"""BLAS threadpool control and text-file arguments.

The factor algebra works on tall-skinny matrices where threaded BLAS
oversubscribes badly on small machines (observed 40x slowdowns from thread
contention).  Long-running entry points therefore pin BLAS to one thread;
this also keeps benchmark timings uncontended.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext

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


@contextmanager
def _text_file(file, mode="r"):
    """Yield an open text stream as is; open a path (str, bytes or
    os.PathLike) in ``mode`` and close it on exit."""
    if not isinstance(file, (str, bytes, os.PathLike)):
        yield file
        return
    with open(file, mode) as fh:
        yield fh
