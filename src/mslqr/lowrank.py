"""Symmetric low-rank LDL^T factor algebra.

An operator X is represented as L D L^T with a tall-skinny L and a small
symmetric D.  Rank zero (L with no columns) is a first-class value encoding
the zero operator.  All operations are pure functions returning new factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

_PSD_SLACK = 1e-12


@dataclass
class LowRankFactor:
    """X = L @ D @ L.T with L of shape (n, r) and symmetric D of shape (r, r)."""

    L: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.L = np.atleast_2d(np.asarray(self.L, dtype=float))
        self.D = np.asarray(self.D, dtype=float).reshape(self.L.shape[1],
                                                         self.L.shape[1])

    @property
    def n(self) -> int:
        return self.L.shape[0]

    @property
    def rank(self) -> int:
        return self.L.shape[1]

    def to_dense(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros((self.n, self.n))
        return self.L @ self.D @ self.L.T

    def copy(self) -> "LowRankFactor":
        return LowRankFactor(self.L.copy(), self.D.copy())


def zero_factor(n: int) -> LowRankFactor:
    return LowRankFactor(np.zeros((n, 0)), np.zeros((0, 0)))


def _thin_qr(A: np.ndarray, overwrite_a: bool = False):
    """Householder QR of an n x k matrix, A = Q R, in compact-WY form.

    Returns the m x k upper trapezoidal R, m = min(n, k), and a function
    W -> Q[:, :m] @ W that applies the reflectors to an m x r block without
    forming Q, into ``out`` (an n x r array) when one is given.  One block
    of nb = m columns makes LAPACK's dgeqrt factor the panel recursively
    with BLAS-3 calls; dgeqrf runs the unblocked, BLAS-2 dgeqr2 on
    matrices this narrow.  A is not modified unless ``overwrite_a``; an A
    in Fortran order then holds the reflectors, and no copy is made.
    """
    n, k = A.shape
    m = min(n, k)
    V, T, info = lapack.dgeqrt(m, A, overwrite_a=overwrite_a)
    if info:  # pragma: no cover - only raised on invalid arguments
        raise ValueError(f"dgeqrt: illegal value in argument {-info}")

    def q_times(W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        C = np.zeros((n, W.shape[1]), order="F") if out is None else out
        C[:m] = W
        C[m:] = 0.0
        QW, info = lapack.dgemqrt(V[:, :m], T, C, overwrite_c=1)
        if info:  # pragma: no cover - only raised on invalid arguments
            raise ValueError(f"dgemqrt: illegal value in argument {-info}")
        if out is not None and QW is not out:
            out[:] = QW
        return QW if out is None else out

    return np.triu(V[:m]), q_times


def compress(F: LowRankFactor, tol: float) -> LowRankFactor:
    """Column compression: orthonormalize L, diagonalize the core, drop
    eigenvalues with |lambda| < tol * max|lambda| (and exact zeros).

    With the thin QR L = Q R (`_thin_qr`), the core R D R^T = W diag(lambda)
    W^T is diagonalized and the kept columns are Q W, applied through the
    Householder reflectors.  The represented operator changes by at most
    the sum of the dropped |lambda| in spectral norm.  Kept columns are
    returned orthonormal with a diagonal D sorted by decreasing magnitude.
    A NaN or Inf in the factor raises FloatingPointError.  F is not
    modified.
    """
    if not tol >= 0:
        raise ValueError("compression tolerance must be nonnegative, "
                         f"got {tol!r}")
    if F.rank == 0:
        return F.copy()
    R, q_times = _thin_qr(F.L)
    core = R @ F.D @ R.T
    if not np.isfinite(core).all():
        raise FloatingPointError("compress: non-finite entries in the factor")
    lam, W = np.linalg.eigh(0.5 * (core + core.T))
    amax = np.abs(lam).max()
    if amax == 0.0:
        return zero_factor(F.n)
    # a machine-epsilon floor removes spectrum that only exists as roundoff
    # (exactly rank-deficient inputs), even at tol = 0
    thresh = max(tol, 8 * np.finfo(float).eps) * amax
    keep = np.abs(lam) >= thresh
    lam, W = lam[keep], W[:, keep]
    order = np.argsort(-np.abs(lam))
    lam, W = lam[order], W[:, order]
    return LowRankFactor(q_times(W), np.diag(lam))


def _sym_sqrt_psd(D: np.ndarray):
    """Symmetric square root of a (numerically) PSD matrix, or None."""
    lam, U = np.linalg.eigh(0.5 * (D + D.T))
    amax = np.abs(lam).max(initial=0.0)
    if amax > 0 and lam.min() < -_PSD_SLACK * amax:
        return None
    return (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.T


def apply_exp_G(t: float, F: LowRankFactor, B: np.ndarray,
                R: np.ndarray) -> LowRankFactor:
    """Flow of the quadratic Riccati part: X -> (I + t X B R^-1 B^T)^-1 X.

    Computed in rank-r arithmetic: with G = L^T B R^-1 B^T L the result is
    L ((I + t D G)^-1 D) L^T.  For PSD D the small solve is carried out in
    the congruent form D^(1/2) (I + t D^(1/2) G D^(1/2))^-1 D^(1/2) so the
    output stays symmetric PSD; otherwise the small matrix is formed
    directly and re-symmetrized.
    """
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    if F.rank == 0 or t == 0.0:
        return F.copy()
    B = np.atleast_2d(B)
    BtL = B.T @ F.L
    G = BtL.T @ sla.solve(R, BtL, assume_a="pos")
    G = 0.5 * (G + G.T)
    r = F.rank
    Dh = _sym_sqrt_psd(F.D)
    try:
        if Dh is not None:
            mid = np.eye(r) + t * (Dh @ G @ Dh)
            Dnew = Dh @ sla.solve(0.5 * (mid + mid.T), Dh, assume_a="pos")
        else:
            Dnew = sla.solve(np.eye(r) + t * (F.D @ G), F.D)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded
        raise np.linalg.LinAlgError(
            "singular small system in the nonlinear flow") from exc
    return LowRankFactor(F.L.copy(), 0.5 * (Dnew + Dnew.T))

