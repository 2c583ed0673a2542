import io

import numpy as np
import pytest

from mslqr import lowrank as lr


def random_psd_factor(n, r, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((n, r))
    d = rng.uniform(0.5, 2.0, r) * scale
    return lr.LowRankFactor(L, np.diag(d))


def random_sym_factor(n, r, seed=0):
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((n, r))
    D = rng.standard_normal((r, r))
    return lr.LowRankFactor(L, 0.5 * (D + D.T))


# -- compress -----------------------------------------------------------------

def test_compress_idempotent_on_clean_factor():
    F = random_psd_factor(30, 5, seed=1)
    Fc = lr.compress(F, 1e-12)
    Fcc = lr.compress(Fc, 1e-12)
    assert Fcc.rank == Fc.rank
    assert np.allclose(Fcc.to_dense(), Fc.to_dense(), atol=1e-13)
    # orthonormal columns, diagonal D by decreasing magnitude
    assert np.allclose(Fc.L.T @ Fc.L, np.eye(Fc.rank), atol=1e-13)
    d = np.abs(np.diag(Fc.D))
    assert (np.diff(d) <= 1e-15).all()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("where", ["L", "D"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compress_rejects_non_finite_factors(where, bad):
    F = random_psd_factor(20, 4, seed=3)
    getattr(F, where)[1, 1] = bad
    with pytest.raises(FloatingPointError, match="non-finite"):
        lr.compress(F, 1e-10)


def test_compress_duplicate_columns_drop_rank():
    rng = np.random.default_rng(2)
    col = rng.standard_normal((20, 1))
    L = np.hstack([col, col])
    F = lr.LowRankFactor(L, np.eye(2))
    Fc = lr.compress(F, 0.0)
    assert Fc.rank == 1
    assert np.allclose(Fc.to_dense(), F.to_dense(), atol=1e-13)


def test_compress_tol_zero_reconstruction():
    F = random_sym_factor(50, 8, seed=3)
    Fc = lr.compress(F, 0.0)
    X, Xc = F.to_dense(), Fc.to_dense()
    rel = np.linalg.norm(Xc - X, 2) / np.linalg.norm(X, 2)
    assert rel <= 1e-12


def test_compress_error_bounded_by_dropped_eigenvalues():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n, r = 60, 12
        L = rng.standard_normal((n, r))
        D = np.diag(rng.standard_normal(r))
        F = lr.LowRankFactor(L, D)
        tol = 10.0 ** rng.uniform(-8, -2)
        Fc = lr.compress(F, tol)
        # reconstruct the dropped spectrum from an exact compression
        F0 = lr.compress(F, 0.0)
        lam = np.diag(F0.D)
        dropped = np.abs(lam)[np.abs(lam) < tol * np.abs(lam).max()].sum()
        err = np.linalg.norm(F.to_dense() - Fc.to_dense(), 2)
        assert err <= 1.01 * dropped + 1e-12 * np.abs(lam).max()


def test_compress_zero_and_rank_zero():
    Z = lr.zero_factor(10)
    assert lr.compress(Z, 1e-10).rank == 0
    F = lr.LowRankFactor(np.zeros((10, 3)), np.eye(3))
    assert lr.compress(F, 1e-10).rank == 0


# -- add ------------------------------------------------------------------

def test_add_zero_identity():
    F = random_psd_factor(15, 4, seed=5)
    Z = lr.zero_factor(15)
    assert np.allclose(lr.add(F, Z).to_dense(), F.to_dense())
    assert np.allclose(lr.add(Z, F).to_dense(), F.to_dense())


def test_add_concatenates_and_sums():
    F1 = random_sym_factor(25, 3, seed=6)
    F2 = random_sym_factor(25, 5, seed=7)
    F = lr.add(F1, F2)
    assert F.rank == 8
    assert np.allclose(F.to_dense(), F1.to_dense() + F2.to_dense(), atol=1e-14)


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        lr.add(lr.zero_factor(3), lr.zero_factor(4))


# -- apply_exp_G ----------------------------------------------------------

def test_exp_g_t_zero_is_identity():
    F = random_psd_factor(12, 3, seed=8)
    B = np.random.default_rng(9).standard_normal((12, 2))
    out = lr.apply_exp_G(0.0, F, B, np.eye(2))
    assert np.allclose(out.to_dense(), F.to_dense())


def test_exp_g_scalar_closed_form():
    x, kap, t = 0.7, 2.5, 0.3
    F = lr.LowRankFactor(np.array([[1.0]]), np.array([[x]]))
    B = np.array([[np.sqrt(kap)]])
    out = lr.apply_exp_G(t, F, B, np.eye(1))
    assert out.to_dense()[0, 0] == pytest.approx(x / (1 + t * kap * x), rel=1e-14)


def test_exp_g_matches_dense_woodbury():
    rng = np.random.default_rng(10)
    n, r, m = 20, 5, 3
    F = random_psd_factor(n, r, seed=11)
    B = rng.standard_normal((n, m))
    R = np.eye(m) + 0.1 * np.diag(rng.random(m))
    t = 0.37
    K = B @ np.linalg.solve(R, B.T)
    X = F.to_dense()
    dense = np.linalg.solve(np.eye(n) + t * X @ K, X)
    out = lr.apply_exp_G(t, F, B, R)
    rel = np.linalg.norm(out.to_dense() - dense, 2) / np.linalg.norm(dense, 2)
    assert rel <= 1e-10


def test_exp_g_indefinite_fallback_matches_dense():
    rng = np.random.default_rng(12)
    n, r = 15, 4
    L = rng.standard_normal((n, r))
    F = lr.LowRankFactor(L, np.diag([1.0, 0.5, -0.2, 0.1]))
    B = rng.standard_normal((n, 2))
    t = 0.05
    X = F.to_dense()
    dense = np.linalg.solve(np.eye(n) + t * X @ B @ B.T, X)
    out = lr.apply_exp_G(t, F, B, np.eye(2))
    assert np.allclose(out.to_dense(), dense, atol=1e-10)


def test_exp_g_preserves_psd():
    F = random_psd_factor(25, 6, seed=13)
    B = np.random.default_rng(14).standard_normal((25, 2))
    out = lr.apply_exp_G(1.5, F, B, np.eye(2))
    lam = np.linalg.eigvalsh(out.D)
    assert lam.min() >= -1e-12 * lam.max()


def test_exp_g_rejects_negative_time():
    with pytest.raises(ValueError):
        lr.apply_exp_G(-0.1, random_psd_factor(5, 2), np.eye(5), np.eye(5))


# -- invariants -------------------------------------------------------------

def test_symmetry_preserved_by_all_operations():
    F = random_sym_factor(30, 6, seed=15)
    B = np.random.default_rng(16).standard_normal((30, 2))
    for out in (lr.compress(F, 1e-8),
                lr.add(F, random_sym_factor(30, 2, seed=17)),
                lr.apply_exp_G(0.2, lr.compress(F, 0.0), B, np.eye(2))):
        X = out.to_dense()
        assert np.abs(X - X.T).max() <= 1e-13 * max(np.abs(X).max(), 1e-300)


def test_factor_dump_roundtrip():
    F = random_sym_factor(7, 3, seed=18)
    buf = io.StringIO()
    lr.dump_factor(F, buf)
    buf.seek(0)
    F2 = lr.load_factor(buf)
    assert np.array_equal(F2.L, F.L)
    assert np.array_equal(F2.D, F.D)


def test_factor_dump_roundtrip_through_path(tmp_path):
    F = random_sym_factor(7, 3, seed=19)
    path = tmp_path / "factor.txt"
    lr.dump_factor(F, path)
    F2 = lr.load_factor(path)
    assert np.array_equal(F2.L, F.L)
    assert np.array_equal(F2.D, F.D)
