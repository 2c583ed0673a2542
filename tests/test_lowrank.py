import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from mslqr import lowrank as lr

# the shared profile (conftest.py) fixes the examples and drops the deadline
PROPERTY = settings(max_examples=60)
SIZES = dict(n=st.integers(1, 40), r=st.integers(1, 8),
             seed=st.integers(0, 2 ** 32 - 1))


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


def add(F1, F2):
    """Concatenated factor of X1 + X2; no compression performed."""
    if F1.n != F2.n:
        raise ValueError("factors have different ambient dimensions")
    if F1.rank == 0:
        return F2.copy()
    if F2.rank == 0:
        return F1.copy()
    return lr.LowRankFactor(np.hstack([F1.L, F2.L]),
                            sla.block_diag(F1.D, F2.D))


def reference_compress(F, tol):
    """The compression through scipy.linalg.qr that `compress` replaced."""
    Q, R = sla.qr(F.L, mode="economic", check_finite=False)
    core = R @ F.D @ R.T
    lam, W = np.linalg.eigh(0.5 * (core + core.T))
    amax = np.abs(lam).max()
    if amax == 0.0:
        return lr.zero_factor(F.n)
    keep = np.abs(lam) >= max(tol, 8 * np.finfo(float).eps) * amax
    lam, W = lam[keep], W[:, keep]
    order = np.argsort(-np.abs(lam))
    return lr.LowRankFactor(Q @ W[:, order], np.diag(lam[order]))


def duplicate_column_factor():
    rng = np.random.default_rng(22)
    a, b = rng.standard_normal((2, 40, 1))
    return lr.LowRankFactor(np.hstack([a, b, a, 2 * b, a - b]),
                            np.diag([1.0, 2.0, 0.5, -1.0, 3.0]))


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


@pytest.mark.parametrize("tol", [-1e-3, np.nan])
def test_compress_rejects_bad_tolerance(tol):
    # a NaN tolerance would keep no eigenvalue and return the zero factor
    with pytest.raises(ValueError, match="nonnegative"):
        lr.compress(random_psd_factor(20, 4, seed=3), tol)


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


@pytest.mark.parametrize("F, tol", [
    (random_psd_factor(60, 12, seed=20), 1e-10),
    (random_sym_factor(50, 8, seed=21), 1e-10),
    (duplicate_column_factor(), 0.0),
    (random_sym_factor(1, 6, seed=23), 0.0),
    (random_sym_factor(3, 6, seed=24), 0.0),
], ids=["random", "indefinite", "duplicate-columns", "wide-n1", "wide-n3"])
def test_compress_matches_scipy_qr_reference(F, tol):
    L0, D0 = F.L.copy(), F.D.copy()
    Fc, Fr = lr.compress(F, tol), reference_compress(F, tol)
    assert np.array_equal(F.L, L0) and np.array_equal(F.D, D0)
    assert Fc.rank == Fr.rank
    assert np.abs(Fc.L.T @ Fc.L - np.eye(Fc.rank)).max() <= 1e-13
    X = Fr.to_dense()
    assert np.linalg.norm(Fc.to_dense() - X, 2) <= 1e-12 * np.linalg.norm(X, 2)


@pytest.mark.parametrize("n, k", [(30, 7), (5, 9)])
def test_thin_qr_in_place(n, k):
    # an A in Fortran order holds the reflectors when it may be
    # overwritten, and q_times writes into a given output
    A = np.asfortranarray(np.random.default_rng(11).standard_normal((n, k)))
    R, q_times = lr._thin_qr(A)
    W = np.random.default_rng(12).standard_normal((min(n, k), 3))
    QW = q_times(W)
    B = A.copy(order="F")
    R2, q_times2 = lr._thin_qr(B, overwrite_a=True)
    assert not np.array_equal(A, B)
    out = np.empty((n, 3), order="F")
    assert q_times2(W, out=out) is out
    assert np.array_equal(R, R2) and np.array_equal(QW, out)
    assert np.allclose(q_times(R), A)


def test_compress_zero_and_rank_zero():
    Z = lr.zero_factor(10)
    assert lr.compress(Z, 1e-10).rank == 0
    F = lr.LowRankFactor(np.zeros((10, 3)), np.eye(3))
    assert lr.compress(F, 1e-10).rank == 0


# -- add (the test-side concatenation) ---------------------------------------

def test_add_zero_identity():
    F = random_psd_factor(15, 4, seed=5)
    Z = lr.zero_factor(15)
    assert np.allclose(add(F, Z).to_dense(), F.to_dense())
    assert np.allclose(add(Z, F).to_dense(), F.to_dense())


def test_add_concatenates_and_sums():
    F1 = random_sym_factor(25, 3, seed=6)
    F2 = random_sym_factor(25, 5, seed=7)
    F = add(F1, F2)
    assert F.rank == 8
    assert np.allclose(F.to_dense(), F1.to_dense() + F2.to_dense(), atol=1e-14)


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        add(lr.zero_factor(3), lr.zero_factor(4))


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
                add(F, random_sym_factor(30, 2, seed=17)),
                lr.apply_exp_G(0.2, lr.compress(F, 0.0), B, np.eye(2))):
        X = out.to_dense()
        assert np.abs(X - X.T).max() <= 1e-13 * max(np.abs(X).max(), 1e-300)


# -- properties (Hypothesis) ---------------------------------------------------

@PROPERTY
@given(**SIZES)
def test_property_compress_is_idempotent(n, r, seed):
    Fc = lr.compress(random_sym_factor(n, r, seed), 1e-10)
    Fcc = lr.compress(Fc, 1e-10)
    assert Fcc.rank == Fc.rank
    X = Fc.to_dense()
    assert np.linalg.norm(Fcc.to_dense() - X, 2) <= 1e-13 * np.linalg.norm(X, 2)


@PROPERTY
@given(r2=st.integers(0, 8), **SIZES)
def test_property_concatenation_then_compress_is_the_dense_sum(n, r, r2, seed):
    F1 = random_sym_factor(n, r, seed)
    F2 = random_sym_factor(n, r2, seed + 1)
    X1, X2 = F1.to_dense(), F2.to_dense()
    Fc = lr.compress(add(F1, F2), 0.0)
    # relative to the parts: the sum may cancel, the roundoff does not
    scale = np.linalg.norm(X1, 2) + np.linalg.norm(X2, 2)
    assert np.linalg.norm(Fc.to_dense() - (X1 + X2), 2) <= 1e-12 * scale


@PROPERTY
@given(m=st.integers(1, 3), t=st.floats(0.0, 10.0), **SIZES)
def test_property_exp_g_then_compress_keeps_psd(n, r, m, t, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((r, r))
    F = lr.LowRankFactor(rng.standard_normal((n, r)), G @ G.T)
    B = rng.standard_normal((n, m))
    out = lr.compress(lr.apply_exp_G(t, F, B, np.eye(m)), 1e-10)
    lam = np.diag(out.D)
    assert out.rank > 0
    assert lam.min() >= -1e-12 * lam.max()



@PROPERTY
@given(n=st.integers(1, 30), r=st.integers(0, 6), q=st.integers(0, 6),
       m=st.integers(1, 3), t=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_exp_g_matches_dense_formula(n, r, q, m, t, seed):
    # (I + t X B R^-1 B^T)^-1 X on X = L D L^T with D = G G^T of rank at
    # most min(r, q), and SPD R; same bound as the fixed Woodbury test
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((r, min(r, q)))
    F = lr.LowRankFactor(rng.standard_normal((n, r)), G @ G.T)
    B = rng.standard_normal((n, m))
    A = rng.standard_normal((m, m))
    R = A @ A.T + np.eye(m)
    X = F.to_dense()
    dense = np.linalg.solve(np.eye(n) + t * X @ B @ np.linalg.solve(R, B.T), X)
    out = lr.apply_exp_G(t, F, B, R)
    assert (np.linalg.norm(out.to_dense() - dense, 2)
            <= 1e-10 * np.linalg.norm(dense, 2))
