"""Environment record and the OpenBLAS thread counts in effect.

NumPy and SciPy wheels each bundle their own OpenBLAS copy.  The thread
counts are read through the copies already loaded into the process and are
never set: the benchmark measures BLAS as shipped, so a fix that pins BLAS
threads shows up as a change in the numbers.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

# label -> (package bundling the library, file glob, thread-count getter)
_OPENBLAS = {
    "numpy": ("numpy", "numpy.libs/libscipy_openblas64_*.so*",
              "scipy_openblas_get_num_threads64_"),
    "scipy": ("scipy", "scipy.libs/libscipy_openblas*.so*",
              "scipy_openblas_get_num_threads"),
}


@functools.cache
def _getter(label):
    """Thread-count function of an already loaded OpenBLAS copy, or None."""
    package, pattern, symbol = _OPENBLAS[label]
    site = Path(importlib.util.find_spec(package).origin).parent.parent
    for path in sorted(site.glob(pattern)):
        try:
            # RTLD_NOLOAD attaches to the copy the package loaded and fails
            # instead of loading a second one
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            fn = getattr(lib, symbol)
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        return fn
    return None


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS copy uses right now (0 when unknown)."""
    return {label: int(fn()) if (fn := _getter(label)) is not None else 0
            for label in _OPENBLAS}


def git_sha(root: Path) -> str:
    """HEAD commit of the checkout at root, or 'unknown' outside git."""
    # the ceiling keeps git from taking the commit of a repository above root
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(root: Path) -> dict:
    """Versions, CPU count, commit and BLAS threads outside any pinning."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "blas_threads": blas_threads(),
    }
