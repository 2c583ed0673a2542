import numpy as np
import pytest

from mslqr import assembly as asm
from mslqr import mesh as mm
from mslqr.dre import (FlowCache, SolverConfig, apply_exp_F, simulate_closed_loop,
                       solve_dre, strang_step)
from mslqr.lowrank import LowRankFactor, compress, zero_factor


def unit_square_level(j):
    m = mm.build_base_mesh(mm.unit_square())
    for _ in range(j):
        m = mm.refine_uniform(m)
    return m


def grid_squares():
    return [(j / 4, j / 4, j / 4 + 1 / 8, j / 4 + 1 / 8) for j in (1, 2, 3)]


def small_system(level=1, seed=51):
    mesh = unit_square_level(level)
    kappa = asm.kappa_random_grid(2 ** -3, 1e-2, 1.0, seed=seed)
    return asm.LqrSystem(M=asm.assemble_mass(mesh),
                         S=asm.assemble_stiffness(mesh, kappa),
                         B=asm.assemble_input_squares(mesh, grid_squares()),
                         C=asm.assemble_output_mean(mesh))


def scalar_system(m=1.0, a=2.0, b=1.5, c=0.8, q=1.0, rho=1.0):
    import scipy.sparse as sp
    return asm.LqrSystem(M=sp.csr_matrix([[m]]), S=sp.csr_matrix([[a]]),
                         B=np.array([[b]]), C=np.array([[c]]),
                         Q=np.array([[q]]), R=np.array([[rho]]))


def riccati_rhs(system):
    """Dense right-hand side of the matrix Riccati equation (oracle)."""
    M = system.M.toarray()
    S = system.S.toarray()
    Minv = np.linalg.inv(M)
    A = -S
    CQC = Minv @ system.C.T @ system.Q @ system.C @ Minv
    BRB = system.B @ np.linalg.solve(system.R, system.B.T)

    def rhs(X):
        return X @ A @ Minv + Minv @ A @ X + CQC - X @ BRB @ X

    return rhs


def rk4_riccati(system, T, n_steps):
    """Classical 4-stage explicit integration of the dense Riccati ODE."""
    rhs = riccati_rhs(system)
    X = np.zeros((system.n, system.n))
    h = T / n_steps
    for _ in range(n_steps):
        k1 = rhs(X)
        k2 = rhs(X + 0.5 * h * k1)
        k3 = rhs(X + 0.5 * h * k2)
        k4 = rhs(X + h * k3)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        X = 0.5 * (X + X.T)
    return X


# -- affine flow -----------------------------------------------------------

def test_exp_f_time_zero_is_identity():
    system = small_system()
    cfg = SolverConfig(T=1.0, n_t=8)
    rng = np.random.default_rng(0)
    F = LowRankFactor(rng.standard_normal((system.n, 3)), np.eye(3))
    out = apply_exp_F(0.0, F, system, cfg)
    assert np.allclose(out.to_dense(), F.to_dense())


def test_exp_f_scalar_decay():
    # no output term: pure propagation x -> exp(-2 t a / m) x
    system = scalar_system(m=2.0, a=3.0, c=0.0, q=0.0)
    cfg = SolverConfig(T=1.0, n_t=1, substeps=256)
    F = LowRankFactor(np.array([[1.0]]), np.array([[0.9]]))
    t = 0.5
    out = apply_exp_F(t, F, system, cfg)
    exact = 0.9 * np.exp(-2 * t * 3.0 / 2.0)
    assert out.to_dense()[0, 0] == pytest.approx(exact, rel=1e-4)


def test_exp_f_gramian_only():
    system = small_system()
    cfg = SolverConfig(T=1.0, n_t=8, substeps=4)
    out = apply_exp_F(cfg.tau / 2, zero_factor(system.n), system, cfg)
    nodes = cfg.substeps + 1
    assert 0 < out.rank <= nodes * system.p
    lam = np.linalg.eigvalsh(out.D)
    assert lam.min() >= -1e-12 * lam.max()


def test_exp_f_semigroup_composition():
    system = small_system()
    cfg = SolverConfig(T=1.0, n_t=16, substeps=4, compress_tol=1e-10)
    cache = FlowCache(system, cfg)
    rng = np.random.default_rng(1)
    L = rng.standard_normal((system.n, 4))
    F = LowRankFactor(L, np.diag(rng.uniform(0.5, 1.0, 4)))
    tau = cfg.tau
    once = apply_exp_F(tau, F, system, cfg, cache)
    twice = apply_exp_F(tau / 2,
                        apply_exp_F(tau / 2, F, system, cfg, cache),
                        system, cfg, cache)
    X1, X2 = once.to_dense(), twice.to_dense()
    scale = np.linalg.norm(X1, 2)
    assert np.linalg.norm(X1 - X2, 2) <= 10 * cfg.compress_tol * scale


# -- Strang stepping --------------------------------------------------------

def test_strang_scalar_against_closed_form_subflows():
    m, a, b, c, q, rho = 1.0, 2.0, 1.5, 0.8, 1.0, 1.0
    system = scalar_system(m, a, b, c, q, rho)
    cfg = SolverConfig(T=1.0, n_t=1, substeps=512, compress_tol=0.0)
    tau = 0.1
    lam = 2 * a / m
    gram = c * c * q / (m * m)

    def exact_F(t, x):
        return np.exp(-lam * t) * x + gram * (1 - np.exp(-lam * t)) / lam

    def exact_G(t, x):
        kap = b * b / rho
        return x / (1 + t * kap * x)

    x0 = 0.7
    expected = exact_F(tau / 2, exact_G(tau, exact_F(tau / 2, x0)))
    F = LowRankFactor(np.array([[1.0]]), np.array([[x0]]))
    out = strang_step(tau, F, system, cfg)
    assert out.to_dense()[0, 0] == pytest.approx(expected, rel=1e-6)


def test_strang_no_input_equals_affine_flow():
    base = small_system()
    system = asm.LqrSystem(M=base.M, S=base.S, B=np.zeros((base.n, 1)),
                           C=base.C)
    cfg = SolverConfig(T=0.5, n_t=8, substeps=4)
    cache = FlowCache(system, cfg)
    rng = np.random.default_rng(2)
    F = LowRankFactor(rng.standard_normal((system.n, 3)),
                      np.diag(rng.uniform(0.1, 1.0, 3)))
    stepped = strang_step(cfg.tau, F, system, cfg, cache)
    direct = apply_exp_F(cfg.tau, F, system, cfg, cache)
    X1, X2 = stepped.to_dense(), direct.to_dense()
    assert np.linalg.norm(X1 - X2, 2) <= 1e-9 * np.linalg.norm(X2, 2)


def test_zero_weight_zero_start_stays_rank_zero():
    system = small_system()
    system.Q = np.zeros((1, 1))
    cfg = SolverConfig(T=1.0, n_t=16, substeps=2)
    sol = solve_dre(system, zero_factor(system.n), cfg)
    assert sol.rank_history == [0] * (cfg.n_t + 1)
    assert sol.final.rank == 0


# -- full solves ------------------------------------------------------------

def test_solve_matches_dense_oracle():
    system = small_system(level=1, seed=52)
    cfg = SolverConfig(T=1.0, n_t=128, substeps=4, compress_tol=1e-12)
    sol = solve_dre(system, zero_factor(system.n), cfg)
    X_ref = rk4_riccati(system, 1.0, 4096)
    err = np.linalg.norm(sol.final.to_dense() - X_ref, 2)
    assert err / np.linalg.norm(X_ref, 2) <= 1e-4


def test_solution_stays_psd():
    system = small_system(level=1, seed=53)
    cfg = SolverConfig(T=1.0, n_t=32, substeps=2)
    sol = solve_dre(system, zero_factor(system.n), cfg,
                    store_checkpoints=True)
    for cp in sol.checkpoints:
        if cp.rank:
            lam = np.linalg.eigvalsh(cp.D)
            assert lam.min() >= -1e-10 * max(lam.max(), 1e-300)
    assert len(sol.rank_history) == cfg.n_t + 1
    assert sol.timings["total"] > 0


def test_solve_is_repeated_strang_steps():
    system = small_system(level=1, seed=54)
    cfg = SolverConfig(T=1.0, n_t=16, substeps=2)
    sol = solve_dre(system, zero_factor(system.n), cfg)
    cache = FlowCache(system, cfg)
    X = compress(zero_factor(system.n), cfg.compress_tol)
    ranks = [X.rank]
    for _ in range(cfg.n_t):
        X = strang_step(cfg.tau, X, system, cfg, cache)
        ranks.append(X.rank)
    assert np.array_equal(sol.final.L, X.L)
    assert np.array_equal(sol.final.D, X.D)
    assert sol.rank_history == ranks


def test_solver_deterministic():
    system = small_system(level=1, seed=54)
    cfg = SolverConfig(T=1.0, n_t=16, substeps=2)
    s1 = solve_dre(system, zero_factor(system.n), cfg)
    s2 = solve_dre(system, zero_factor(system.n), cfg)
    assert np.array_equal(s1.final.to_dense(), s2.final.to_dense())
    assert s1.rank_history == s2.rank_history


def test_verbose_logging(capfd):
    system = small_system(level=1, seed=55)
    cfg = SolverConfig(T=1.0, n_t=4, substeps=2)
    solve_dre(system, zero_factor(system.n), cfg, verbose=True)
    err = capfd.readouterr().err
    lines = [l for l in err.strip().splitlines() if l]
    assert len(lines) == 4
    assert all(len(l.split("\t")) == 4 for l in lines)


# -- closed loop -----------------------------------------------------------

def test_closed_loop_zero_feedback_is_pure_decay():
    system = small_system(level=1, seed=56)
    cfg = SolverConfig(T=1.0, n_t=32, substeps=2)
    zeros = [zero_factor(system.n)] * (cfg.n_t + 1)
    x0 = np.ones(system.n)
    res = simulate_closed_loop(system, zeros, x0, cfg)
    assert np.all(res.inputs == 0.0)
    energy = [x @ (system.M @ x) for x in res.states.T]
    assert all(e2 <= e1 + 1e-14 for e1, e2 in zip(energy, energy[1:]))


def test_closed_loop_zero_state_zero_cost():
    system = small_system(level=1, seed=57)
    cfg = SolverConfig(T=1.0, n_t=8, substeps=2)
    sol = solve_dre(system, zero_factor(system.n), cfg,
                    store_checkpoints=True)
    res = simulate_closed_loop(system, sol, np.zeros(system.n), cfg)
    assert res.cost == 0.0
    assert np.all(res.states == 0.0)


def test_feedback_beats_zero_input():
    system = small_system(level=2, seed=58)
    cfg = SolverConfig(T=1.0, n_t=64, substeps=2)
    sol = solve_dre(system, zero_factor(system.n), cfg,
                    store_checkpoints=True)
    x0 = np.ones(system.n)
    J_fb = simulate_closed_loop(system, sol, x0, cfg).cost
    J_0 = simulate_closed_loop(system, None, x0, cfg).cost
    assert J_fb <= J_0


def test_closed_loop_checkpoint_validation():
    system = small_system(level=1, seed=59)
    cfg = SolverConfig(T=1.0, n_t=8, substeps=2)
    sol = solve_dre(system, zero_factor(system.n), cfg)   # no checkpoints
    with pytest.raises(ValueError):
        simulate_closed_loop(system, sol, np.ones(system.n), cfg)
    with pytest.raises(ValueError):
        simulate_closed_loop(system, [zero_factor(system.n)] * 3,
                             np.ones(system.n), cfg)


def test_solver_rejects_mismatched_factor():
    system = small_system(level=1, seed=60)
    cfg = SolverConfig(T=1.0, n_t=4, substeps=2)
    with pytest.raises(ValueError):
        solve_dre(system, zero_factor(system.n + 1), cfg)
    with pytest.raises(ValueError):
        apply_exp_F(-1.0, zero_factor(system.n), system, cfg)
    with pytest.raises(ValueError):
        strang_step(0.0, zero_factor(system.n), system, cfg)


def test_non_finite_values_raise():
    system = small_system()
    cfg = SolverConfig(T=0.1, n_t=4, substeps=2)
    X0 = LowRankFactor(np.full((system.n, 1), np.nan), np.eye(1))
    with pytest.raises(FloatingPointError, match="non-finite"):
        solve_dre(system, X0, cfg)
    # a NaN output weight first shows in the output Gramian of step 1
    bad = asm.LqrSystem(M=system.M, S=system.S, B=system.B, C=system.C,
                        Q=np.nan)
    with pytest.raises(FloatingPointError, match="Strang step 1 of 4"):
        solve_dre(bad, zero_factor(system.n), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(T=0.0)
    with pytest.raises(ValueError):
        SolverConfig(n_t=0)
    with pytest.raises(ValueError):
        SolverConfig(substeps=0)
    with pytest.raises(ValueError):
        SolverConfig(compress_tol=-1e-3)
    with pytest.raises(ValueError, match="compress_tol"):
        SolverConfig(compress_tol=1.0)
