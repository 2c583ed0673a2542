"""Unlocalized LOD construction, the reference of the saturation tests.

The library solves each constrained corrector problem on its patch
skeleton; these helpers solve the same problem over the whole fine space
with every coarse constraint row, which a patch that covers the whole
mesh must reproduce.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mslqr import lod
from mslqr.assembly import factor_spd, restrict_system


def constrained_solve(lu, C, rhs: np.ndarray) -> np.ndarray:
    """x of the saddle system [[S, C^T], [C, 0]] [x; lam] = [rhs; 0].

    S is sparse SPD, given by its factorization ``lu`` (`factor_spd`), and
    C has few rows, so the constraints are eliminated through their dense
    Schur complement Sigma = C S^-1 C^T: one solve with the right-hand
    sides and C^T together, and a Cholesky solve with Sigma for the
    multipliers.  Raises LinAlgError when Sigma is not positive definite
    (C rank deficient).
    """
    m = rhs.shape[1]
    X = lu.solve(np.hstack([rhs, C.T.toarray()]))
    CX = C @ X
    lam = sla.solve(CX[:, m:], CX[:, :m], assume_a="pos")
    return X[:, :m] - X[:, m:] @ lam


def global_corrector_basis(fine, coarse, kappa, system) -> lod.LodBasis:
    """One constrained solve over the whole fine space with every coarse
    constraint row; a fine system of another size is refused before any
    work."""
    lod._check_system(fine, system)
    ws = lod._Workspace(fine, coarse, kappa)
    S = system.S.tocsr()
    Q = constrained_solve(factor_spd(S, splu=splu), ws.I_free,
                          (S @ ws.P_free).toarray())
    Rh = sp.csr_matrix(ws.P_free - Q)
    return lod.LodBasis(-1, Rh, restrict_system(system, Rh),
                        {"global": True})
