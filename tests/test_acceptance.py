"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  The convergence studies
use the desk-scale presets (coefficient grid 2^-5, reference level 5) so
the whole suite completes in minutes on one core.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mslqr import assembly as asm
from mslqr import lod
from mslqr import mesh as mm
from mslqr import norms
from mslqr.bench import build_system, preset_config, run_experiment
from mslqr.dre import SolverConfig, simulate_closed_loop, solve_dre
from mslqr.lowrank import LowRankFactor, apply_exp_G, compress, zero_factor

from lod_reference import global_corrector_basis


def report(criterion, detail):
    print(f"\ncriterion {criterion}: PASS  [{detail}]")


def mesh_chain(j_fine, domain=mm.unit_square):
    m = mm.build_base_mesh(domain())
    chain = [m]
    for _ in range(j_fine):
        m = mm.refine_uniform(m)
        chain.append(m)
    return chain


def order_over_last_two(errors, H):
    return float(np.log(errors[-3] / errors[-1]) / np.log(H[-3] / H[-1]))


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    cfg = preset_config("grid")
    cfg.output = str(tmp_path_factory.mktemp("acc") / "grid.csv")
    t0 = time.perf_counter()
    rec = run_experiment(cfg)
    return rec, time.perf_counter() - t0


@pytest.fixture(scope="module")
def stripes_run(tmp_path_factory):
    cfg = preset_config("stripes")
    cfg.output = str(tmp_path_factory.mktemp("acc") / "stripes.csv")
    t0 = time.perf_counter()
    rec = run_experiment(cfg)
    return rec, time.perf_counter() - t0


def test_criterion_1_grid_convergence(grid_run):
    """Scaled random-coefficient study: multiscale orders and dominance."""
    rec, wall = grid_run
    H = [l.H for l in rec.levels]
    assert [l.n_coarse for l in rec.levels] == [1, 9, 49, 225]
    assert rec.n_ref == 3969

    o_l2 = order_over_last_two(rec.errors("err_L2_lod"), H)
    assert o_l2 >= 1.5
    o_v = order_over_last_two(rec.errors("err_V_lod"), H)
    assert o_v >= 0.8
    for lvl in rec.levels:
        assert lvl.err_L2_lod <= lvl.err_L2_fem
    assert wall <= 600.0
    report(1, f"L2 order {o_l2:.2f} >= 1.5, V order {o_v:.2f} >= 0.8, "
              f"multiscale <= plain FEM at all levels, {wall:.0f}s")


def test_criterion_2_stripes_stagnation(stripes_run):
    """Unresolved thin stripes stall plain FEM; the corrected basis does not."""
    rec, wall = stripes_run
    cfg = rec.config
    H = [l.H for l in rec.levels]
    fem = rec.errors("err_L2_fem")
    fem_orders = [np.log2(fem[i] / fem[i + 1]) for i in range(len(fem) - 1)]
    unresolved = [o for i, o in enumerate(fem_orders)
                  if H[i + 1] > cfg.stripe_width]
    assert unresolved, "no unresolved levels in the study"
    assert max(unresolved) <= 1.0
    o_l2 = order_over_last_two(rec.errors("err_L2_lod"), H)
    assert o_l2 >= 1.5
    for lvl in rec.levels:
        assert lvl.err_L2_lod <= lvl.err_L2_fem
    report(2, f"FEM orders {', '.join(f'{o:.2f}' for o in unresolved)} <= 1.0 "
              f"while unresolved; multiscale order {o_l2:.2f} >= 1.5")


def test_criterion_3_splitting_order():
    """Strang order 2.0 +/- 0.3 against a dense 4th-order explicit oracle."""
    t_start = time.perf_counter()
    chain = mesh_chain(1)
    mesh = chain[1]
    kappa = asm.kappa_random_grid(2 ** -5, 1e-3, 1.0, seed=1)
    system = build_system(mesh, kappa, "unit_square")
    assert system.n == 9

    M = system.M.toarray()
    Minv = np.linalg.inv(M)
    A = -system.S.toarray()
    CQC = Minv @ system.C.T @ system.Q @ system.C @ Minv
    BRB = system.B @ np.linalg.solve(system.R, system.B.T)

    def rhs(X):
        return X @ A @ Minv + Minv @ A @ X + CQC - X @ BRB @ X

    X = np.zeros((9, 9))
    h = 1.0 / 4096
    for _ in range(4096):
        k1 = rhs(X)
        k2 = rhs(X + 0.5 * h * k1)
        k3 = rhs(X + 0.5 * h * k2)
        k4 = rhs(X + h * k3)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        X = 0.5 * (X + X.T)
    ref_norm = np.linalg.norm(X, 2)

    errs = []
    for n_t in (16, 32, 64):
        cfg = SolverConfig(T=1.0, n_t=n_t)
        sol = solve_dre(system, zero_factor(9), cfg)
        errs.append(np.linalg.norm(sol.final.to_dense() - X, 2) / ref_norm)
    order = np.log2(errs[0] / errs[2]) / 2
    wall = time.perf_counter() - t_start
    assert 1.7 <= order <= 2.3
    assert wall <= 30.0
    report(3, f"temporal order {order:.3f} in [1.7, 2.3], {wall:.1f}s")


def test_criterion_4_lowrank_oracles():
    """Rank-structured kernels against dense linear algebra."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(7)

    # nonlinear flow vs dense Woodbury at n <= 20
    n, r, m = 20, 5, 3
    L = rng.standard_normal((n, r))
    F = LowRankFactor(L, np.diag(rng.uniform(0.2, 1.0, r)))
    B = rng.standard_normal((n, m))
    R = np.eye(m)
    t = 0.4
    Xd = F.to_dense()
    dense = np.linalg.solve(np.eye(n) + t * Xd @ B @ B.T, Xd)
    got = apply_exp_G(t, F, B, R).to_dense()
    rel_g = np.linalg.norm(got - dense, 2) / np.linalg.norm(dense, 2)
    assert rel_g <= 1e-10

    # exact compression reconstruction
    F2 = LowRankFactor(rng.standard_normal((50, 8)),
                       np.diag(rng.standard_normal(8)))
    X2 = F2.to_dense()
    rel_c = (np.linalg.norm(compress(F2, 0.0).to_dense() - X2, 2)
             / np.linalg.norm(X2, 2))
    assert rel_c <= 1e-12

    # both norm routines vs dense eigen/SVD oracles at n <= 100
    chain = mesh_chain(2)
    coarse, fine = chain[1], chain[2]
    kappa = asm.kappa_random_grid(2 ** -3, 0.1, 1.0, seed=3)
    M = asm.assemble_mass(fine)
    S = asm.assemble_stiffness(fine, kappa)
    P = mm.prolongation(coarse, fine)
    F_h = LowRankFactor(rng.standard_normal((fine.n_free, 4)),
                        np.diag(rng.uniform(0.2, 1.0, 4)))
    F_c = LowRankFactor(rng.standard_normal((coarse.n_free, 3)),
                        np.diag(rng.uniform(0.2, 1.0, 3)))
    Delta = F_h.to_dense() - (P @ F_c.L) @ F_c.D @ (P @ F_c.L).T
    L_M = np.linalg.cholesky(M.toarray())
    l2_dense = np.abs(np.linalg.eigvalsh(L_M.T @ Delta @ L_M)).max()
    L_S = np.linalg.cholesky(S.toarray())
    core = L_S.T @ Delta @ M.toarray() @ np.linalg.inv(L_S.T)
    v_dense = np.linalg.svd(core, compute_uv=False).max()
    l2 = norms.l2_operator_error(F_h, F_c, P, norms.SparseCholesky(M))
    v = norms.v_operator_error(F_h, F_c, P, M, norms.SparseCholesky(S))
    rel_l2 = abs(l2 - l2_dense) / l2_dense
    rel_v = abs(v - v_dense) / v_dense
    assert rel_l2 <= 1e-10
    assert rel_v <= 1e-10

    wall = time.perf_counter() - t_start
    assert wall <= 10.0
    report(4, f"flow {rel_g:.1e}, compression {rel_c:.1e}, "
              f"norms {rel_l2:.1e}/{rel_v:.1e}, {wall:.1f}s")


def test_criterion_5_lod_structural_suite():
    """Kernel property, full-patch orthogonality, corrector decay."""
    t_start = time.perf_counter()
    chain = mesh_chain(6)
    kappa = asm.kappa_random_grid(2 ** -5, 1e-3, 1.0, seed=1)

    # kernel property of the localized build (16x16 coarse / 64x64 fine)
    coarse, fine = chain[3], chain[5]
    system = build_system(fine, kappa, "unit_square")
    I_free = lod.clement_interpolation(fine, coarse)
    basis = lod.build_lod_basis(fine, coarse, kappa,
                                lod.default_patch_radius(coarse), system)
    P_free = mm.prolongation(coarse, fine)
    kdef = np.abs(I_free @ (P_free - basis.Rh)).max() / np.abs(basis.Rh).max()
    assert kdef <= 1e-10

    # 16x16 coarse / 128x128 fine: saturated-patch construction
    coarse, fine = chain[3], chain[6]
    system = build_system(fine, kappa, "unit_square")
    I_free = lod.clement_interpolation(fine, coarse)
    glob = global_corrector_basis(fine, coarse, kappa, system)
    P_free = mm.prolongation(coarse, fine)
    kdef_g = (np.abs(I_free @ (P_free - glob.Rh)).max()
              / np.abs(glob.Rh).max())
    assert kdef_g <= 1e-10

    S, M = system.S, system.M
    nH = coarse.n_free
    lu = splu(sp.bmat([[M, I_free.T], [I_free, None]], format="csc"))
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(nH)
        w0 = rng.standard_normal(fine.n_free)
        w = lu.solve(np.concatenate([M @ w0, np.zeros(nH)]))[: fine.n_free]
        rv = glob.Rh @ v
        bound = np.sqrt(rv @ (S @ rv)) * np.sqrt(w @ (S @ w))
        worst = max(worst, abs(rv @ (S @ w)) / bound)
    assert worst <= 1e-9

    # corrector decay on the same 16x16 / 128x128 preset, central element
    cent = coarse.vertices[coarse.triangles].mean(axis=1)
    K = int(np.argmin(np.abs(cent - 0.5).max(axis=1)))
    e = lod.corrector_decay_profile(fine, coarse, kappa, K, k_max=4)
    assert all(e[i + 1] <= e[i] + 1e-12 for i in range(len(e) - 1))
    ratio = e[3] / e[0]
    assert ratio <= 0.1

    wall = time.perf_counter() - t_start
    assert wall <= 120.0
    report(5, f"kernel {max(kdef, kdef_g):.1e} <= 1e-10, orthogonality "
              f"{worst:.1e} <= 1e-9, decay e4/e1 = {ratio:.3f} <= 0.1, "
              f"{wall:.0f}s")


def test_criterion_6_riccati_structure():
    """Symmetric PSD factors at every step; zero weight keeps rank zero."""
    chain = mesh_chain(5)
    fine = chain[5]
    kappa = asm.kappa_random_grid(2 ** -5, 1e-3, 1.0, seed=1)
    system = build_system(fine, kappa, "unit_square")
    cfg = SolverConfig(T=1.0, n_t=256)

    min_rel = 0.0
    for j in range(4):
        coarse = chain[j]
        P = mm.prolongation(coarse, fine)
        M_H = P.T @ system.M @ P
        S_H = P.T @ system.S @ P
        coarse_sys = asm.LqrSystem(M=(0.5 * (M_H + M_H.T)).tocsr(),
                                   S=(0.5 * (S_H + S_H.T)).tocsr(),
                                   B=P.T @ system.B, C=system.C @ P)
        sol = solve_dre(coarse_sys, zero_factor(coarse_sys.n), cfg,
                        store_checkpoints=True)
        for cp in sol.checkpoints:
            assert np.array_equal(cp.D, cp.D.T)          # symmetric slot
            if cp.rank:
                lam = np.linalg.eigvalsh(cp.D)
                rel = lam.min() / max(lam.max(), 1e-300)
                min_rel = min(min_rel, rel)
                assert rel >= -1e-10

    # multiscale solve at the finest preset level
    coarse = chain[3]
    basis = lod.build_lod_basis(fine, coarse, kappa, 4, system)
    sol = solve_dre(basis.system(), zero_factor(basis.n_coarse), cfg,
                    store_checkpoints=True)
    for cp in sol.checkpoints:
        assert np.array_equal(cp.D, cp.D.T)
        if cp.rank:
            lam = np.linalg.eigvalsh(cp.D)
            assert lam.min() / lam.max() >= -1e-10

    # no output weight and zero start: exactly rank zero forever
    zero_q = asm.LqrSystem(M=system.M, S=system.S, B=system.B, C=system.C,
                           Q=np.zeros((1, 1)))
    sol0 = solve_dre(zero_q, zero_factor(system.n),
                     SolverConfig(T=1.0, n_t=32))
    assert sol0.rank_history == [0] * 33

    report(6, f"PSD to {min_rel:.1e} >= -1e-10 at every step on levels 0-3 "
              f"and the multiscale solve; zero-weight run stays rank 0")


def test_criterion_7_closed_loop_cost():
    """Feedback from the Riccati factors beats the uncontrolled system."""
    chain = mesh_chain(3)
    mesh = chain[3]
    kappa = asm.kappa_random_grid(2 ** -5, 1e-3, 1.0, seed=1)
    system = build_system(mesh, kappa, "unit_square")
    assert system.n == 225
    cfg = SolverConfig(T=1.0, n_t=256)
    sol = solve_dre(system, zero_factor(system.n), cfg,
                    store_checkpoints=True)
    x0 = np.ones(system.n)
    J_fb = simulate_closed_loop(system, sol, x0, cfg).cost
    J_0 = simulate_closed_loop(system, None, x0, cfg).cost
    assert J_fb <= J_0
    report(7, f"J(feedback) = {J_fb:.5f} <= J(zero input) = {J_0:.5f}")
