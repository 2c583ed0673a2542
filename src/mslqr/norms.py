"""Operator-norm errors between lifted low-rank solution factors.

The L2 operator norm of a symmetric matrix difference Delta is the spectral
norm of L_M^T Delta L_M with M = L_M L_M^T; the energy-equivalent norm is
the largest singular value of L_S^T Delta M L_S^-T with S = L_S L_S^T.
Both are evaluated without forming any n x n matrix: the factors are
reduced by thin QR and the norm is read off a small core matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve_triangular

from .lowrank import LowRankFactor, _thin_qr


class SparseCholesky:
    """Cholesky factorization P A P^T = L L^T of a sparse SPD matrix.

    P is a symmetric minimum-degree ordering (SuperLU's MMD on A^T + A);
    the factor is read off an LU that pivots only on the diagonal.  Any two
    Cholesky-like factors of A differ by an orthogonal transform, so norms
    computed through this factor are independent of the permutation.  A
    singular or indefinite A raises LinAlgError.
    """

    def __init__(self, A: sp.spmatrix):
        try:
            lu = splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(
                f"matrix is not positive definite ({exc})") from exc
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise np.linalg.LinAlgError(
                "unexpected pivoting while factorizing an SPD matrix")
        d = lu.U.diagonal()
        if (d <= 0).any():
            raise np.linalg.LinAlgError("matrix is not positive definite")
        # SuperLU factors A[perm][:, perm] with perm the inverse of perm_c
        self.perm = np.argsort(lu.perm_c)
        self.L = (lu.L @ sp.diags(np.sqrt(d))).tocsr()

    def factor_tmul(self, X: np.ndarray) -> np.ndarray:
        """(P^T L)^T X = L^T (P X) for a tall dense X."""
        return self.L.T @ X[self.perm]

    def factor_solve(self, X: np.ndarray) -> np.ndarray:
        """(P^T L)^-1 X = L^-1 (P X) for a tall dense X."""
        return spsolve_triangular(self.L, X[self.perm], lower=True)


@dataclass
class LiftedPair:
    """A fine solution factor and a lifted coarse/multiscale one.

    ``lift`` maps coarse coefficients into the fine space (prolongation for
    plain coarse FEM, the corrected basis for the multiscale method); None
    means the identity.  ``chol_M``/``chol_S`` are Cholesky factorizations
    of the fine mass and stiffness matrices, built once by the caller and
    shared across the pairs of one fine discretization.
    """

    fine: LowRankFactor
    coarse: LowRankFactor
    lift: sp.spmatrix | None
    M: sp.spmatrix
    chol_M: SparseCholesky
    chol_S: SparseCholesky

    def lifted_coarse_columns(self) -> np.ndarray:
        if self.lift is None:
            return self.coarse.L
        return self.lift @ self.coarse.L


def _difference_blocks(pair: LiftedPair):
    """Column blocks [L_h, lift L_c] and the signed core blockdiag(D_h, -D_c)."""
    blocks, cores = [], []
    if pair.fine.rank:
        blocks.append(pair.fine.L)
        cores.append(pair.fine.D)
    if pair.coarse.rank:
        blocks.append(pair.lifted_coarse_columns())
        cores.append(-pair.coarse.D)
    if not blocks:
        return None, None
    return np.hstack(blocks), sla.block_diag(*cores)


def l2_operator_error(pair: LiftedPair) -> float:
    """Spectral norm of L_M^T (X_h - lift X_c lift^T) L_M."""
    V, D = _difference_blocks(pair)
    if V is None:
        return 0.0
    Vw = pair.chol_M.factor_tmul(V)
    R, _ = _thin_qr(Vw)
    core = R @ D @ R.T
    lam = np.linalg.eigvalsh(0.5 * (core + core.T))
    return float(np.abs(lam).max())


def v_operator_error(pair: LiftedPair) -> float:
    """Largest singular value of L_S^T (X_h - lift X_c lift^T) M L_S^-T."""
    V, D = _difference_blocks(pair)
    if V is None:
        return 0.0
    G1 = pair.chol_S.factor_tmul(V)
    G2 = pair.chol_S.factor_solve(pair.M @ V)
    R1, _ = _thin_qr(G1)
    R2, _ = _thin_qr(G2)
    core = R1 @ D @ R2.T
    return float(np.linalg.svd(core, compute_uv=False).max())
