"""One BLAS thread for the whole process.

The factor algebra works on tall-skinny matrices and the sparse solves
call BLAS on narrow blocks, where OpenBLAS's thread pool loses to
contention: a second thread spins on the other core and, when that core
is busy, every threaded call waits for it.  The NumPy and SciPy wheels
each bundle their own OpenBLAS copy.  ``pin_blas`` finds both
copies that the packages loaded, once, and sets each to one thread
through its ``scipy_openblas_set_num_threads[64_]`` symbol.

``import mslqr`` sets the pin, and it holds for the rest of the process;
the entry points set it again in a ``with`` block, and leaving the block
does not undo it.  The blocked QR behind ``compress`` sums in an order
that depends on the thread count, so every BLAS call of the package sees
the same single thread and gives the same bits, whatever
``OPENBLAS_NUM_THREADS`` said at start-up.  Where a copy is not
found (another BLAS build), one ``RuntimeWarning`` says so and that BLAS
keeps its thread count; ``OPENBLAS_NUM_THREADS=1`` set before Python
starts then pins OpenBLAS by hand.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import warnings
from contextlib import contextmanager
from pathlib import Path

import scipy.linalg  # noqa: F401  (loads SciPy's OpenBLAS copy)

# label -> (package bundling the library, file glob, symbol suffix)
_OPENBLAS = {
    "numpy": ("numpy", "numpy.libs/libscipy_openblas64_*.so*", "64_"),
    "scipy": ("scipy", "scipy.libs/libscipy_openblas*.so*", ""),
}


@functools.cache
def _openblas() -> dict:
    """label -> (get, set) thread-count functions of each OpenBLAS copy
    that NumPy and SciPy loaded; a copy that is not found is left out."""
    found = {}
    for label, (package, pattern, suffix) in _OPENBLAS.items():
        site = Path(importlib.util.find_spec(package).origin).parent.parent
        for path in sorted(site.glob(pattern)):
            try:
                # RTLD_NOLOAD attaches to the copy the package loaded and
                # fails instead of loading a second one
                lib = ctypes.CDLL(str(path),
                                  mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            found[label] = (get, set_)
            break
    return found


@functools.cache
def _warn_unpinned(missing: tuple) -> None:
    warnings.warn(
        f"no OpenBLAS copy found for {' and '.join(missing)}: its BLAS "
        f"threads are left as they are; set OPENBLAS_NUM_THREADS=1 before "
        f"starting Python to pin them", RuntimeWarning, stacklevel=3)


def blas_threads() -> dict:
    """Threads each OpenBLAS copy found uses right now, by package."""
    return {label: int(get()) for label, (get, _) in _openblas().items()}


def pin_blas() -> None:
    """Pin every OpenBLAS copy to one thread for the rest of the process.

    ``import mslqr`` calls it, so every public computation runs pinned.
    A copy that is not found is warned about once and left as it is.
    """
    copies = _openblas()
    for _, set_threads in copies.values():
        set_threads(1)
    missing = tuple(label for label in _OPENBLAS if label not in copies)
    if missing:
        _warn_unpinned(missing)


@contextmanager
def single_thread_blas():
    """`pin_blas`, as a block around an entry point's work.

    The block marks the work that needs the pin, and leaving it does not
    unpin.
    """
    pin_blas()
    yield
