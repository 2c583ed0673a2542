"""Operator-norm errors between lifted low-rank solution factors.

The L2 operator norm of a symmetric matrix difference Delta is the spectral
norm of L_M^T Delta L_M with M = L_M L_M^T; the energy-equivalent norm is
the largest singular value of L_S^T Delta M L_S^-T with S = L_S L_S^T.
Both are evaluated without forming any n x n matrix: the factors are
reduced by thin QR and the norm is read off a small core matrix.  The
caller builds the Cholesky factors once and shares them across every
comparison on one fine discretization.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve_triangular

from .assembly import factor_spd
from .lowrank import LowRankFactor, _thin_qr


class SparseCholesky:
    """Cholesky factorization P A P^T = L L^T of a sparse SPD matrix.

    P is a given symmetric order (`bench` passes the mesh's nested
    dissection for the mass matrix) or, by default, SuperLU's minimum-degree
    order on A^T + A, which fills less on the stiffness's 5-point pattern;
    the factor is read off the LU of `factor_spd`, which pivots only on
    the diagonal.  Any two Cholesky-like factors of A differ by an
    orthogonal transform, so norms computed through this factor are
    independent of the permutation.  A singular or indefinite A raises
    LinAlgError.
    """

    def __init__(self, A: sp.spmatrix, order: np.ndarray | None = None):
        lu = factor_spd(A, order, splu=splu)
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise np.linalg.LinAlgError(
                "unexpected pivoting while factorizing an SPD matrix")
        d = lu.U.diagonal()
        if (d <= 0).any():
            raise np.linalg.LinAlgError("matrix is not positive definite")
        # SuperLU factors A[perm][:, perm] with perm the inverse of perm_c
        self.perm = np.argsort(lu.perm_c)
        if order is not None:
            self.perm = np.asarray(order)[self.perm]
        self.L = (lu.L @ sp.diags(np.sqrt(d))).tocsr()

    def factor_tmul(self, X: np.ndarray) -> np.ndarray:
        """(P^T L)^T X = L^T (P X) for a tall dense X."""
        return self.L.T @ X[self.perm]

    def factor_solve(self, X: np.ndarray) -> np.ndarray:
        """(P^T L)^-1 X = L^-1 (P X) for a tall dense X."""
        return spsolve_triangular(self.L, X[self.perm], lower=True)


def _difference_blocks(fine: LowRankFactor, coarse: LowRankFactor,
                       lift: sp.spmatrix):
    """Column blocks [L_h, lift L_c] and the signed core blockdiag(D_h, -D_c).

    ``lift`` maps coarse coefficients into the fine space: the prolongation
    for plain coarse FEM, the corrected basis for the multiscale method.
    """
    blocks, cores = [], []
    if fine.rank:
        blocks.append(fine.L)
        cores.append(fine.D)
    if coarse.rank:
        blocks.append(lift @ coarse.L)
        cores.append(-coarse.D)
    if not blocks:
        return None, None
    return np.hstack(blocks), sla.block_diag(*cores)


def l2_operator_error(fine: LowRankFactor, coarse: LowRankFactor,
                      lift: sp.spmatrix, chol_M: SparseCholesky) -> float:
    """Spectral norm of L_M^T (X_h - lift X_c lift^T) L_M, with chol_M the
    Cholesky factor of the fine mass matrix."""
    V, D = _difference_blocks(fine, coarse, lift)
    if V is None:
        return 0.0
    Vw = chol_M.factor_tmul(V)
    R, _ = _thin_qr(Vw)
    core = R @ D @ R.T
    lam = np.linalg.eigvalsh(0.5 * (core + core.T))
    return float(np.abs(lam).max())


def v_operator_error(fine: LowRankFactor, coarse: LowRankFactor,
                     lift: sp.spmatrix, M: sp.spmatrix,
                     chol_S: SparseCholesky) -> float:
    """Largest singular value of L_S^T (X_h - lift X_c lift^T) M L_S^-T,
    with M the fine mass matrix and chol_S the Cholesky factor of the fine
    stiffness matrix."""
    V, D = _difference_blocks(fine, coarse, lift)
    if V is None:
        return 0.0
    G1 = chol_S.factor_tmul(V)
    G2 = chol_S.factor_solve(M @ V)
    R1, _ = _thin_qr(G1)
    R2, _ = _thin_qr(G2)
    core = R1 @ D @ R2.T
    return float(np.linalg.svd(core, compute_uv=False).max())
