from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from mslqr import assembly as asm
from mslqr import mesh as mm
from mslqr import norms
from mslqr.lowrank import LowRankFactor, _thin_qr, zero_factor


def meshes(j_coarse=1, j_fine=2):
    m = mm.build_base_mesh(mm.unit_square())
    chain = [m]
    for _ in range(j_fine):
        m = mm.refine_uniform(m)
        chain.append(m)
    return chain[j_coarse], chain[j_fine]


@pytest.fixture(scope="module")
def setup():
    coarse, fine = meshes()
    kappa = asm.kappa_random_grid(2 ** -3, 0.1, 1.0, seed=21)
    M = asm.assemble_mass(fine)
    S = asm.assemble_stiffness(fine, kappa)
    P = mm.prolongation(coarse, fine)
    return dict(coarse=coarse, fine=fine, M=M, S=S, P=P,
                chol_M=norms.SparseCholesky(M), chol_S=norms.SparseCholesky(S))


def rand_factor(n, r, seed):
    rng = np.random.default_rng(seed)
    return LowRankFactor(rng.standard_normal((n, r)),
                         np.diag(rng.uniform(0.2, 1.0, r)))


def lift_of(su, lift):
    """The prolongation for "P", the fine-space identity for "I"."""
    if lift == "P":
        return su["P"]
    return sp.identity(su["fine"].n_free)


def l2(su, Fh, Fc, lift="P"):
    return norms.l2_operator_error(Fh, Fc, lift_of(su, lift), su["chol_M"])


def v(su, Fh, Fc, lift="P"):
    return norms.v_operator_error(Fh, Fc, lift_of(su, lift), su["M"],
                                  su["chol_S"])


def difference(su, Fh, Fc):
    X = Fh.to_dense()
    if Fc.rank:
        lc = su["P"] @ Fc.L
        X = X - lc @ Fc.D @ lc.T
    return X


def dense_l2(su, Fh, Fc):
    X = difference(su, Fh, Fc)
    L = np.linalg.cholesky(su["M"].toarray())
    return np.abs(np.linalg.eigvalsh(L.T @ X @ L)).max()


def dense_v(su, Fh, Fc):
    X = difference(su, Fh, Fc)
    L = np.linalg.cholesky(su["S"].toarray())
    core = L.T @ X @ su["M"].toarray() @ np.linalg.inv(L.T)
    return np.linalg.svd(core, compute_uv=False).max()


def test_sparse_cholesky_factorizes(setup):
    # minimum degree, and a given order (the mesh's nested dissection)
    for key, order in product(("M", "S"),
                              (None, setup["fine"].dissection_order)):
        c = norms.SparseCholesky(setup[key], order)
        n = setup[key].shape[0]
        X = np.eye(n)
        G = c.factor_tmul(X)            # G^T, rows of the factor transpose
        assert np.allclose(G.T @ G, setup[key].toarray(), atol=1e-12)
        # the solve inverts the same permuted factor: (P^T L)^-1 A = L^T P
        assert np.allclose(c.factor_solve(setup[key] @ X), G, atol=1e-12)


def test_thin_qr_r_matches_numpy_up_to_row_signs(setup):
    # the three tall inputs the norms reduce, plus a wide one
    V, _ = norms._difference_blocks(
        rand_factor(setup["fine"].n_free, 4, seed=14),
        rand_factor(setup["coarse"].n_free, 3, seed=15), setup["P"])
    wide = np.random.default_rng(16).standard_normal((3, 6))
    for A in (setup["chol_M"].factor_tmul(V), setup["chol_S"].factor_tmul(V),
              setup["chol_S"].factor_solve(setup["M"] @ V), wide):
        R, _ = _thin_qr(A)
        R_ref = np.linalg.qr(A, mode="r")
        assert R.shape == R_ref.shape
        signs = np.sign(np.diag(R)) * np.sign(np.diag(R_ref))
        assert np.abs(R - signs[:, None] * R_ref).max() <= (
            1e-12 * np.abs(R_ref).max())


def test_identical_factors_give_zero(setup):
    n = setup["fine"].n_free
    F = rand_factor(n, 4, seed=1)
    assert l2(setup, F, F, lift="I") <= 1e-12 * np.abs(F.D).max()
    assert v(setup, F, F, lift="I") <= 1e-10 * np.abs(F.D).max()


def test_zero_coarse_reduces_to_single_term(setup):
    n = setup["fine"].n_free
    F = rand_factor(n, 4, seed=2)
    Z = zero_factor(setup["coarse"].n_free)
    assert l2(setup, F, Z) == pytest.approx(dense_l2(setup, F, Z), rel=1e-11)


def test_l2_matches_dense_oracle(setup):
    F_h = rand_factor(setup["fine"].n_free, 4, seed=3)
    F_c = rand_factor(setup["coarse"].n_free, 3, seed=4)
    assert l2(setup, F_h, F_c) == pytest.approx(dense_l2(setup, F_h, F_c),
                                                rel=1e-11)


def test_v_matches_dense_oracle(setup):
    F_h = rand_factor(setup["fine"].n_free, 4, seed=5)
    F_c = rand_factor(setup["coarse"].n_free, 3, seed=6)
    assert v(setup, F_h, F_c) == pytest.approx(dense_v(setup, F_h, F_c),
                                               rel=1e-10)


def test_norm_symmetric_under_joint_negation(setup):
    F_h = rand_factor(setup["fine"].n_free, 3, seed=7)
    F_c = rand_factor(setup["coarse"].n_free, 3, seed=8)
    neg_h = LowRankFactor(F_h.L, -F_h.D)
    neg_c = LowRankFactor(F_c.L, -F_c.D)
    assert l2(setup, F_h, F_c) == l2(setup, neg_h, neg_c)
    assert v(setup, F_h, F_c) == pytest.approx(v(setup, neg_h, neg_c),
                                               rel=1e-13)


def test_scaling_is_exact(setup):
    F_h = rand_factor(setup["fine"].n_free, 3, seed=9)
    F_c = rand_factor(setup["coarse"].n_free, 2, seed=10)
    c = 3.5
    scaled_h = LowRankFactor(F_h.L, c * F_h.D)
    scaled_c = LowRankFactor(F_c.L, c * F_c.D)
    for err in (l2, v):
        assert err(setup, scaled_h, scaled_c) == pytest.approx(
            c * err(setup, F_h, F_c), rel=1e-13)


def test_triangle_inequality(setup):
    n = setup["fine"].n_free
    A = rand_factor(n, 3, seed=11)
    B = rand_factor(n, 3, seed=12)
    C = rand_factor(n, 3, seed=13)
    for err in (l2, v):
        ab = err(setup, A, B, lift="I")
        bc = err(setup, B, C, lift="I")
        ac = err(setup, A, C, lift="I")
        assert ac <= ab + bc + 1e-12


def test_cholesky_rejects_indefinite():
    for d in ([1.0, -1.0, 2.0], [1.0, 0.0]):
        with pytest.raises(np.linalg.LinAlgError):
            norms.SparseCholesky(sp.diags(d).tocsr())
