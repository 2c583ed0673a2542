"""Symmetric low-rank LDL^T factor algebra.

An operator X is represented as L D L^T with a tall-skinny L and a small
symmetric D.  Rank zero (L with no columns) is a first-class value encoding
the zero operator.  All operations are pure functions returning new factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .runtime import _text_file

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


def compress(F: LowRankFactor, tol: float) -> LowRankFactor:
    """Column compression: orthonormalize L, diagonalize the core, drop
    eigenvalues with |lambda| < tol * max|lambda| (and exact zeros).

    The represented operator changes by at most the sum of the dropped
    |lambda| in spectral norm.  Kept columns are returned orthonormal with
    a diagonal D sorted by decreasing magnitude.  A NaN or Inf in the
    factor raises FloatingPointError.
    """
    if tol < 0:
        raise ValueError("compression tolerance must be nonnegative")
    if F.rank == 0:
        return F.copy()
    Q, R = sla.qr(F.L, mode="economic", check_finite=False)
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
    return LowRankFactor(Q @ W, np.diag(lam))


def add(F1: LowRankFactor, F2: LowRankFactor) -> LowRankFactor:
    """Concatenated factor of X1 + X2; no compression performed."""
    if F1.n != F2.n:
        raise ValueError("factors have different ambient dimensions")
    if F1.rank == 0:
        return F2.copy()
    if F2.rank == 0:
        return F1.copy()
    return LowRankFactor(np.hstack([F1.L, F2.L]),
                         sla.block_diag(F1.D, F2.D))


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


def dump_factor(F: LowRankFactor, file) -> None:
    """Plain-text factor dump: a header line 'n r', then the rows of L,
    then the rows of D, one row per line."""
    with _text_file(file, "w") as fh:
        fh.write(f"{F.n} {F.rank}\n")
        for row in F.L:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
        for row in F.D:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_factor(file) -> LowRankFactor:
    with _text_file(file) as fh:
        n, r = (int(v) for v in fh.readline().split())
        rows = [[float(v) for v in fh.readline().split()] for _ in range(n)]
        drows = [[float(v) for v in fh.readline().split()] for _ in range(r)]
    return LowRankFactor(np.array(rows).reshape(n, r),
                         np.array(drows).reshape(r, r))
