import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from hypothesis import given, settings
from hypothesis import strategies as st

from mslqr import assembly as asm
from mslqr import bench, dre, norms
from mslqr import mesh as mm
from mslqr.dre import (DreSolution, FlowCache, SolverConfig, apply_exp_F,
                       simulate_closed_loop, solve_dre, strang_step)
from mslqr.lowrank import LowRankFactor, apply_exp_G, compress, zero_factor


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

def full_space_exp_F(t, F, system, cfg):
    """Reference affine flow over t in the full space: the factor and the
    output snapshots of a dense W = M^-1 C^T propagated together by
    Crank-Nicolson substeps of the solver's length tau / (2 substeps), the
    snapshots weighted by the trapezoidal rule, compressed once."""
    has_gram = system.p > 0 and np.any(system.Q)
    r = F.rank
    if r == 0 and not has_gram:
        return zero_factor(system.n)
    n_steps = max(1, int(round(t / (0.5 * cfg.tau / cfg.substeps))))
    dt = t / n_steps
    lu, Mminus = dre.crank_nicolson_ops(system, dt)
    W = (np.linalg.solve(system.M.toarray(), system.C.T) if has_gram
         else np.zeros((system.n, 0)))
    V = dre._gather(np.hstack([F.L, W]), system.order)
    snaps = [W]
    for _ in range(n_steps):
        V = lu.solve(Mminus @ V)
        snaps.append(dre._scatter(V[:, r:], system.order))
    blocks_L = [dre._scatter(V[:, :r], system.order)] if r else []
    blocks_D = [F.D] if r else []
    if has_gram:
        w = np.full(n_steps + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        for wj, Z in zip(w, snaps):
            blocks_L.append(Z)
            blocks_D.append(wj * system.Q)
    out = LowRankFactor(np.hstack(blocks_L), sla.block_diag(*blocks_D))
    return compress(out, cfg.compress_tol)


def full_space_strang_step(F, system, cfg):
    """Reference Strang step with `full_space_exp_F` as the affine flow."""
    Y = full_space_exp_F(0.5 * cfg.tau, F, system, cfg)
    Y = compress(apply_exp_G(cfg.tau, Y, system.B, system.R),
                 cfg.compress_tol)
    return full_space_exp_F(0.5 * cfg.tau, Y, system, cfg)


def test_exp_f_scalar_decay():
    # no output term: pure propagation x -> exp(-2 t a / m) x
    system = scalar_system(m=2.0, a=3.0, c=0.0, q=0.0)
    cfg = SolverConfig(T=1.0, n_t=1, substeps=256)
    F = LowRankFactor(np.array([[1.0]]), np.array([[0.9]]))
    flow = FlowCache(system, cfg, F)
    out = flow.lift(apply_exp_F(flow.coordinates(F), flow))
    exact = 0.9 * np.exp(-2 * 0.5 * 3.0 / 2.0)
    assert out.to_dense()[0, 0] == pytest.approx(exact, rel=1e-4)


def test_exp_f_gramian_only():
    system = small_system()
    cfg = SolverConfig(T=1.0, n_t=8, substeps=4)
    X0 = zero_factor(system.n)
    flow = FlowCache(system, cfg, X0)
    out = apply_exp_F(flow.coordinates(X0), flow)
    nodes = cfg.substeps + 1
    assert 0 < out.rank <= nodes * system.p
    lam = np.linalg.eigvalsh(out.D)
    assert lam.min() >= -1e-12 * lam.max()
    want = full_space_exp_F(cfg.tau / 2, X0, system, cfg)
    assert out.rank == want.rank
    X_got, X_want = flow.lift(out).to_dense(), want.to_dense()
    assert (np.linalg.norm(X_got - X_want, 2)
            <= 1e-12 * np.linalg.norm(X_want, 2))


def test_exp_f_semigroup_composition():
    # two half-steps of the flow compose to the full-space flow over tau
    system = small_system()
    cfg = SolverConfig(T=1.0, n_t=16, substeps=4, compress_tol=1e-10)
    rng = np.random.default_rng(1)
    L = rng.standard_normal((system.n, 4))
    F = LowRankFactor(L, np.diag(rng.uniform(0.5, 1.0, 4)))
    flow = FlowCache(system, cfg, F)
    once = full_space_exp_F(cfg.tau, F, system, cfg)
    twice = flow.lift(apply_exp_F(apply_exp_F(flow.coordinates(F), flow),
                                  flow))
    X1, X2 = once.to_dense(), twice.to_dense()
    scale = np.linalg.norm(X1, 2)
    assert np.linalg.norm(X1 - X2, 2) <= 10 * cfg.compress_tol * scale


def test_flow_cache_keeps_no_mass_factor():
    # the constructor factors M for W = M^-1 C^T and M + dt/2 S for the
    # snapshots, and keeps neither factor, nor M - dt/2 S, nor W
    system = small_system()
    flow = FlowCache(system, SolverConfig(T=1.0, n_t=16),
                     zero_factor(system.n))
    held = [name for name, value in vars(flow).items()
            if type(value).__name__ == "SuperLU" or sp.issparse(value)]
    assert held == []
    assert set(vars(flow)) == {"cfg", "order", "U", "T", "gramian", "B",
                               "R"}
    m = flow.dim
    assert flow.U.shape == (system.n, m) and flow.T.shape == (m, m)


def counting_splu(monkeypatch):
    """Route dre's splu through a counter; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(dre, "splu", counted)
    return calls


@pytest.mark.parametrize("n_t", [4, 16])
def test_solve_factors_twice(monkeypatch, n_t):
    # one mass factor for W = M^-1 C^T, one Crank-Nicolson step matrix
    system = small_system()
    assert system.p > 0
    calls = counting_splu(monkeypatch)
    solve_dre(system, zero_factor(system.n), SolverConfig(T=1.0, n_t=n_t))
    assert len(calls) == 2


def test_warm_cache_factors_nothing(monkeypatch):
    system = small_system()
    cfg = SolverConfig(T=1.0, n_t=8, substeps=4)
    F = LowRankFactor(np.random.default_rng(4).standard_normal((system.n, 2)),
                      np.eye(2))
    flow = FlowCache(system, cfg, F)
    Y = flow.coordinates(F)
    calls = counting_splu(monkeypatch)
    apply_exp_F(Y, flow)
    strang_step(Y, flow)
    assert calls == []


def random_system(n, p, seed):
    """Small LQR system with random SPD M and S and a PSD output weight."""
    rng = np.random.default_rng(seed)

    def spd(shift):
        A = rng.standard_normal((n, n))
        return sp.csr_matrix(A @ A.T / n + shift * np.eye(n))

    G = rng.standard_normal((p, p))
    return asm.LqrSystem(M=spd(1.0), S=spd(0.1),
                         B=rng.standard_normal((n, 1)),
                         C=rng.standard_normal((p, n)), Q=G @ G.T / p)


@settings(max_examples=40)
@given(n=st.integers(1, 24), p=st.integers(1, 3), r=st.integers(0, 6),
       substeps=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_cached_gramian_matches_snapshot_flow(n, p, r, substeps, seed):
    # the half-step with the flow's Gramian, formed once in coordinates,
    # against the full-space flow that propagates the factor and the output
    # snapshots together
    system = random_system(n, p, seed)
    cfg = SolverConfig(T=1.0, n_t=8, substeps=substeps)
    rng = np.random.default_rng(seed + 1)
    F = LowRankFactor(rng.standard_normal((n, r)),
                      np.diag(rng.uniform(0.1, 1.0, r)))
    flow = FlowCache(system, cfg, F)
    got = apply_exp_F(flow.coordinates(F), flow)
    want = full_space_exp_F(cfg.tau / 2, F, system, cfg)
    assert got.rank == want.rank
    X_got, X_want = flow.lift(got).to_dense(), want.to_dense()
    assert (np.linalg.norm(X_got - X_want, 2)
            <= 1e-12 * np.linalg.norm(X_want, 2))


@pytest.mark.parametrize("q, extra", [(1.0, 1), (0.0, 0)])
def test_solve_compresses_the_gramian_once(monkeypatch, q, extra):
    system = small_system()
    system.Q = np.array([[q]])
    cfg = SolverConfig(T=1.0, n_t=6, substeps=2)
    calls = []

    def counting_compress(F, tol):
        calls.append(tol)
        return compress(F, tol)

    rng = np.random.default_rng(3)
    X0 = LowRankFactor(rng.standard_normal((system.n, 2)), np.eye(2))
    monkeypatch.setattr(dre, "compress", counting_compress)
    solve_dre(system, X0, cfg)
    # one for X0, three per Strang step, plus one Gramian at tol = 0
    assert len(calls) == 1 + 3 * cfg.n_t + extra
    assert calls.count(0.0) == extra


# -- Strang stepping --------------------------------------------------------

def test_strang_scalar_against_closed_form_subflows():
    m, a, b, c, q, rho = 1.0, 2.0, 1.5, 0.8, 1.0, 1.0
    system = scalar_system(m, a, b, c, q, rho)
    # 51 substeps of 0.05/51 per half-step
    cfg = SolverConfig(T=0.1, n_t=1, substeps=51, compress_tol=0.0)
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
    flow = FlowCache(system, cfg, F)
    out = flow.lift(strang_step(flow.coordinates(F), flow))
    assert out.to_dense()[0, 0] == pytest.approx(expected, rel=1e-6)


def test_strang_no_input_equals_affine_flow():
    base = small_system()
    system = asm.LqrSystem(M=base.M, S=base.S, B=np.zeros((base.n, 1)),
                           C=base.C)
    cfg = SolverConfig(T=0.5, n_t=8, substeps=4)
    rng = np.random.default_rng(2)
    F = LowRankFactor(rng.standard_normal((system.n, 3)),
                      np.diag(rng.uniform(0.1, 1.0, 3)))
    flow = FlowCache(system, cfg, F)
    stepped = flow.lift(strang_step(flow.coordinates(F), flow))
    direct = full_space_exp_F(cfg.tau, F, system, cfg)
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


@settings(max_examples=6)
@given(n=st.integers(1, 8), p=st.integers(1, 3), m=st.integers(1, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_property_solve_matches_dense_oracle(n, p, m, seed):
    # low-rank Strang splitting on small random SPD systems agrees with
    # the dense Runge-Kutta integration of the Riccati equation, within
    # the bound of test_solve_matches_dense_oracle (the largest error over
    # 480 such systems was 3.7e-5)
    rng = np.random.default_rng(seed)
    base = random_system(n, p, seed)
    system = asm.LqrSystem(M=base.M, S=base.S,
                           B=rng.standard_normal((n, m)) / np.sqrt(n),
                           C=base.C / np.sqrt(n), Q=base.Q)
    cfg = SolverConfig(T=0.5, n_t=128, substeps=4, compress_tol=1e-12)
    sol = solve_dre(system, zero_factor(n), cfg)
    X_ref = rk4_riccati(system, cfg.T, 1024)
    err = np.linalg.norm(sol.final.to_dense() - X_ref, 2)
    assert err <= 1e-4 * np.linalg.norm(X_ref, 2)


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
    # the solve steps coordinates in the span of its snapshots with the
    # same strang_step; full-space stepping gives the same operator, but
    # its columns may differ in sign (test_solve_matches_full_space_steps)
    system = small_system(level=1, seed=54)
    cfg = SolverConfig(T=1.0, n_t=16, substeps=2)
    sol = solve_dre(system, zero_factor(system.n), cfg)
    X = compress(zero_factor(system.n), cfg.compress_tol)
    flow = FlowCache(system, cfg, X)
    assert sol.subspace_dim == flow.dim > 0
    Y = flow.coordinates(X)
    ranks = [Y.rank]
    for _ in range(cfg.n_t):
        Y = strang_step(Y, flow)
        ranks.append(Y.rank)
    final = flow.lift(Y)
    assert np.array_equal(sol.final.L, final.L)
    assert np.array_equal(sol.final.D, final.D)
    assert sol.rank_history == ranks


@settings(max_examples=40)
@given(n=st.integers(1, 24), p=st.integers(1, 3), r=st.integers(0, 4),
       q_zero=st.booleans(), substeps=st.integers(1, 4),
       n_t=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_matches_full_space_steps(n, p, r, q_zero, substeps, n_t,
                                        seed):
    # every factor of a run lies in the span of its snapshots, so stepping
    # in that span gives the full-space factors to roundoff, also when the
    # (2 n_t substeps + 1) p snapshot columns outnumber the unknowns
    system = random_system(n, p, seed)
    if q_zero:
        system.Q = np.zeros((p, p))
    cfg = SolverConfig(T=1.0, n_t=n_t, substeps=substeps)
    rng = np.random.default_rng(seed + 1)
    X0 = LowRankFactor(rng.standard_normal((n, r)),
                       np.diag(rng.uniform(0.1, 1.0, r)))
    sol = solve_dre(system, X0, cfg, store_checkpoints=True)
    X = compress(X0, cfg.compress_tol)
    want, ranks = [X], [X.rank]
    for _ in range(n_t):
        X = full_space_strang_step(X, system, cfg)
        want.append(X)
        ranks.append(X.rank)
    assert sol.rank_history == ranks
    assert sol.subspace_dim <= n
    for got, ref in zip(sol.checkpoints + [sol.final], want + [X]):
        X_got, X_want = got.to_dense(), ref.to_dense()
        assert (np.linalg.norm(X_got - X_want, 2)
                <= 1e-12 * np.linalg.norm(X_want, 2))


def grid_reference_system():
    """The desk-grid reference system: the `grid` preset on level 5
    (n=3969), factored in the mesh's nested-dissection order."""
    chain = [mm.build_base_mesh(mm.unit_square())]
    for _ in range(5):
        chain.append(mm.refine_uniform(chain[-1]))
    kappa = bench.build_kappa(bench.preset_config("grid"))
    return bench.build_system(chain[5], kappa, "unit_square")


def test_reference_solve_steps_snapshot_columns(monkeypatch):
    # the desk-grid reference shape (n=3969, n_t=16): the step factor
    # serves only the snapshot pass, one call of p + rank X0 columns per
    # substep (128 columns here; 312 when T was formed by pushing U's m
    # columns through the step factor, 1985 with full-space stepping), and
    # the mass factor takes p columns
    system = grid_reference_system()
    cfg = SolverConfig(T=1.0, n_t=16, substeps=4)
    factors = []

    class Counted:
        def __init__(self, lu):
            self.lu, self.columns = lu, []
            factors.append(self)

        def solve(self, rhs):
            self.columns.append(rhs.shape[1])
            return self.lu.solve(rhs)

    monkeypatch.setattr(dre, "splu", lambda *a, **kw: Counted(splu(*a, **kw)))
    sol = solve_dre(system, zero_factor(system.n), cfg)
    mass, step = factors
    p, K = system.p, 2 * cfg.n_t * cfg.substeps
    assert mass.columns == [p]
    assert step.columns == [p] * K
    assert sum(step.columns) == 128
    assert 0 < sol.subspace_dim < 100
    assert 0 < sol.timings["setup"] < sol.timings["total"]
    assert sol.rank_history[-1] == sol.final.rank > 0


def reachable_snapshots(system, cfg, X):
    """The snapshots Phi^k [W, X.L], k = 0..2 n_t substeps, in the system's
    order, with a dense W = M^-1 C^T (none without an output term) and
    Crank-Nicolson substeps of length tau / (2 substeps)."""
    has_gram = system.p > 0 and np.any(system.Q)
    W = (splu(system.M.tocsc()).solve(system.C.T) if has_gram
         else np.zeros((system.n, 0)))
    lu, Mminus = dre.crank_nicolson_ops(system, 0.5 * cfg.tau / cfg.substeps)
    V = dre._gather(np.hstack([W, X.L]), system.order)
    snaps = [V]
    for _ in range(2 * cfg.n_t * cfg.substeps):
        V = lu.solve(Mminus @ V)
        snaps.append(V)
    return [dre._scatter(Z, system.order) for Z in snaps]


def neumann_system(domain, level, p, seed):
    """All-nodes (Neumann) system: S is singular, with the constants in
    its kernel."""
    mesh = mm.build_base_mesh(domain())
    for _ in range(level):
        mesh = mm.refine_uniform(mesh)
    rng = np.random.default_rng(seed)
    kappa = asm.kappa_random_grid(2 ** -2, 1e-2, 1.0, seed=seed)
    n = mesh.n_vertices
    G = rng.standard_normal((p, p))
    return asm.LqrSystem(M=asm.assemble_mass(mesh, all_nodes=True),
                         S=asm.assemble_stiffness(mesh, kappa, all_nodes=True),
                         B=rng.standard_normal((n, 1)),
                         C=rng.standard_normal((p, n)), Q=G @ G.T / p)


def check_propagator_on_snapshots(system, cfg, X):
    # T maps the coordinates of every snapshot a half-step propagates,
    # z_k with k <= K - substeps, to those of z_{k + substeps}; the whole
    # matrix may differ from U^T Phi^substeps U along the last substeps
    # snapshots, which no run propagates, so it is not compared
    flow = FlowCache(system, cfg, X)
    m, s = flow.dim, cfg.substeps
    assert flow.T.shape == (m, m)
    if m == 0:
        return
    coords = [flow.coordinates(LowRankFactor(Z, np.eye(Z.shape[1]))).L
              for Z in reachable_snapshots(system, cfg, X)]
    for k in range(len(coords) - s):
        want = coords[k + s]
        err = np.linalg.norm(flow.T @ coords[k] - want, 2)
        assert err <= 1e-12 * max(np.linalg.norm(coords[k], 2),
                                  np.linalg.norm(want, 2))
    # |r| <= 1 on the pencil's eigenvalues: T does not grow the norm of
    # U^T M U
    Us = dre._scatter(flow.U, system.order)
    Mh = Us.T @ (system.M @ Us)
    G = sla.cholesky(0.5 * (Mh + Mh.T))
    assert np.linalg.norm(G @ flow.T @ np.linalg.inv(G), 2) <= 1 + 1e-12


@settings(max_examples=40)
@given(n=st.integers(1, 24), p=st.integers(1, 3), r=st.integers(0, 4),
       q_zero=st.booleans(), substeps=st.integers(1, 4),
       n_t=st.integers(1, 6),
       neumann=st.sampled_from([None, (mm.unit_square, 0),
                                (mm.unit_square, 1), (mm.l_shape, 0)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_half_step_propagator_on_reachable_snapshots(n, p, r, q_zero,
                                                      substeps, n_t, neumann,
                                                      seed):
    system = (random_system(n, p, seed) if neumann is None
              else neumann_system(*neumann, p, seed))
    if q_zero:
        system.Q = np.zeros((p, p))
    cfg = SolverConfig(T=1.0, n_t=n_t, substeps=substeps)
    rng = np.random.default_rng(seed + 1)
    X = LowRankFactor(rng.standard_normal((system.n, r)),
                      np.diag(rng.uniform(0.1, 1.0, r)))
    check_propagator_on_snapshots(system, cfg, X)


def test_half_step_propagator_on_reference_snapshots():
    system = grid_reference_system()
    check_propagator_on_snapshots(system, SolverConfig(T=1.0, n_t=16),
                                  zero_factor(system.n))


def test_solver_deterministic():
    system = small_system(level=1, seed=54)
    cfg = SolverConfig(T=1.0, n_t=16, substeps=2)
    s1 = solve_dre(system, zero_factor(system.n), cfg)
    s2 = solve_dre(system, zero_factor(system.n), cfg)
    assert np.array_equal(s1.final.to_dense(), s2.final.to_dense())
    assert s1.rank_history == s2.rank_history


# -- closed loop -----------------------------------------------------------

def test_closed_loop_zero_feedback_is_pure_decay():
    system = small_system(level=1, seed=56)
    cfg = SolverConfig(T=1.0, n_t=32, substeps=2)
    zeros = [zero_factor(system.n)] * (cfg.n_t + 1)
    sol = DreSolution(zeros[-1], zeros, [0] * (cfg.n_t + 1), {}, cfg)
    x0 = np.ones(system.n)
    res = simulate_closed_loop(system, sol, x0, cfg)
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
    zeros = [zero_factor(system.n)] * 3
    short = DreSolution(zeros[-1], zeros, [0] * 3, {}, cfg)
    with pytest.raises(ValueError):
        simulate_closed_loop(system, short, np.ones(system.n), cfg)


def test_closed_loop_rejects_solution_of_another_config(monkeypatch):
    system = small_system(level=1, seed=59)
    cfg = SolverConfig(T=1.0, n_t=8, substeps=2)
    sol = solve_dre(system, zero_factor(system.n), cfg,
                    store_checkpoints=True)
    calls = counting_splu(monkeypatch)
    # T=2.0 keeps the checkpoint count, so only the config check catches it
    for other in (SolverConfig(T=2.0, n_t=8, substeps=2),
                  SolverConfig(T=1.0, n_t=16, substeps=2)):
        with pytest.raises(ValueError, match="solved with T=1.0, n_t=8"):
            simulate_closed_loop(system, sol, np.ones(system.n), other)
    assert calls == []


@pytest.mark.parametrize("x0, match", [
    (np.ones(8), r"x0 has shape \(8,\), but the system has 9 unknowns"),
    (np.r_[np.ones(8), np.nan], "x0 must be finite")])
def test_closed_loop_refuses_bad_x0_before_factoring(monkeypatch, x0, match):
    system = small_system(level=1, seed=59)
    cfg = SolverConfig(T=1.0, n_t=8, substeps=2)
    calls = counting_splu(monkeypatch)
    with pytest.raises(ValueError, match=match):
        simulate_closed_loop(system, None, x0, cfg)
    assert calls == []


def test_solver_rejects_mismatched_factor(monkeypatch):
    system = small_system(level=1, seed=60)
    cfg = SolverConfig(T=1.0, n_t=4, substeps=2)
    calls = counting_splu(monkeypatch)
    with pytest.raises(ValueError, match="does not match the system size"):
        solve_dre(system, zero_factor(system.n + 1), cfg)
    with pytest.raises(ValueError, match="does not match the system size"):
        FlowCache(system, cfg, zero_factor(system.n + 1))
    assert calls == []


def test_non_finite_values_raise(monkeypatch):
    system = small_system()
    cfg = SolverConfig(T=0.1, n_t=4, substeps=2)
    X0 = LowRankFactor(np.full((system.n, 1), np.nan), np.eye(1))
    with pytest.raises(FloatingPointError, match="non-finite"):
        solve_dre(system, X0, cfg)
    # a NaN output weight is refused by the system, before any solve
    with pytest.raises(ValueError, match="^Q holds a NaN or an Inf$"):
        asm.LqrSystem(M=system.M, S=system.S, B=system.B, C=system.C,
                      Q=np.nan)

    # a stage handed a NaN factor is named too
    def poisoned(F):
        return LowRankFactor(np.full_like(F.L, np.nan), F.D)

    with monkeypatch.context() as m:
        m.setattr(dre, "apply_exp_G", lambda t, F, B, R: poisoned(F))
        with pytest.raises(FloatingPointError,
                           match="Strang step 1 of 4, quadratic flow"):
            solve_dre(system, zero_factor(system.n), cfg)
    real_exp_F, calls = dre.apply_exp_F, []

    def fourth_call_poisoned(F, flow):
        calls.append(F)
        return real_exp_F(poisoned(F) if len(calls) == 4 else F, flow)

    monkeypatch.setattr(dre, "apply_exp_F", fourth_call_poisoned)
    with pytest.raises(FloatingPointError,
                       match="Strang step 2 of 4, second affine half-step"):
        solve_dre(system, zero_factor(system.n), cfg)


def test_config_validation(monkeypatch):
    with pytest.raises(ValueError):
        SolverConfig(T=0.0)
    for T in (np.nan, np.inf):
        with pytest.raises(ValueError, match="T must be"):
            SolverConfig(T=T)
    with pytest.raises(ValueError):
        SolverConfig(n_t=0)
    with pytest.raises(ValueError):
        SolverConfig(substeps=0)
    with pytest.raises(ValueError):
        SolverConfig(compress_tol=-1e-3)
    with pytest.raises(ValueError, match="compress_tol"):
        SolverConfig(compress_tol=1.0)
    # a fractional, boolean or string step count is refused before any
    # factorization, in one line that names the field
    calls = counting_splu(monkeypatch)
    for name, value in [("n_t", 2.5), ("n_t", True), ("n_t", np.float64(4)),
                        ("n_t", "4"), ("substeps", 1.5),
                        ("substeps", False)]:
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, got "):
            SolverConfig(**{name: value})
    assert calls == []
    assert SolverConfig(n_t=np.int64(4), substeps=np.int32(2)).tau == 0.25


def test_dissection_order_fills_less_than_colamd():
    # nested dissection fills less than minimum degree, which fills less
    # than SuperLU's default COLAMD
    mesh = unit_square_level(5)
    M = asm.assemble_mass(mesh)
    fills = [lu.L.nnz + lu.U.nnz for lu in (
        asm.factor_spd(M, mesh.dissection_order, splu=splu),
        asm.factor_spd(M, splu=splu), splu(M.tocsc()))]
    assert fills[0] < fills[1] < fills[2]
    assert fills[0] < 251_152


def test_dissection_path_matches_mmd_path(monkeypatch):
    # the level-4 grid matrices, once as a mesh-assembled system (factored
    # in the mesh's nested-dissection order) and once built by hand
    # (minimum degree)
    chain = [mm.build_base_mesh(mm.unit_square())]
    for _ in range(4):
        chain.append(mm.refine_uniform(chain[-1]))
    kappa = bench.build_kappa(bench.preset_config("grid"))
    fast = bench.build_system(chain[4], kappa, "unit_square")
    slow = asm.LqrSystem(M=fast.M, S=fast.S, B=fast.B, C=fast.C)
    assert fast.order is not None and slow.order is None
    specs = []

    def spied(A, **kwargs):
        specs.append(kwargs.get("permc_spec", "COLAMD"))
        return splu(A, **kwargs)

    monkeypatch.setattr(dre, "splu", spied)
    cfg = SolverConfig(T=1.0, n_t=16)
    x0 = np.random.default_rng(7).uniform(0.5, 1.5, fast.n)
    out = []
    for system in (fast, slow):
        sol = solve_dre(system, zero_factor(system.n), cfg,
                        store_checkpoints=True)
        out.append((sol.final, simulate_closed_loop(system, sol, x0,
                                                    cfg).cost))
    # mass factor, step factor and closed-loop step factor on each path
    assert specs == ["NATURAL"] * 3 + ["MMD_AT_PLUS_A"] * 3
    (F_fast, cost_fast), (F_slow, cost_slow) = out
    X_fast, X_slow = F_fast.to_dense(), F_slow.to_dense()
    assert (np.linalg.norm(X_fast - X_slow)
            <= 1e-12 * np.linalg.norm(X_slow))
    assert abs(cost_fast - cost_slow) <= 1e-12 * abs(cost_slow)

    P = mm.prolongation(chain[2], chain[4])
    coarse = solve_dre(asm.restrict_system(fast, P), zero_factor(P.shape[1]),
                       cfg).final
    err_nd = norms.l2_operator_error(
        F_fast, coarse, P, norms.SparseCholesky(fast.M, fast.order))
    err_mmd = norms.l2_operator_error(
        F_fast, coarse, P, norms.SparseCholesky(fast.M))
    assert abs(err_nd - err_mmd) <= 1e-12 * err_mmd
