"""Low-rank Strang splitting for the matrix differential Riccati equation.

The equation M X' M = M X A + A^T X M + C^T Q C - M X B R^-1 B^T X M
(A = -S) is split into its affine and quadratic parts.  The affine flow
propagates factor columns by solving M v' = -S v with Crank-Nicolson
substeps and accumulates the output Gramian by a trapezoidal rule whose
nodes sit on the same substep grid; flow time and quadrature therefore
share one SPD factorization of (M + dt/2 S) per run and the discrete
affine flow composes exactly (two half-steps equal one full step).  The
quadratic flow is the closed-form rank-r update from the low-rank algebra.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import splu

from .assembly import LqrSystem
from .lowrank import LowRankFactor, apply_exp_G, compress, zero_factor
from .runtime import single_thread_blas


@dataclass
class SolverConfig:
    """Time discretization knobs for one Riccati solve.

    ``substeps`` is the number of Crank-Nicolson intervals inside each
    half-step of the splitting; the output-Gramian quadrature uses the same
    grid.
    """

    T: float = 1.0
    n_t: int = 256
    substeps: int = 4
    compress_tol: float = 1e-10

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError(f"T must be positive, got {self.T!r}")
        if self.n_t < 1 or self.substeps < 1:
            raise ValueError("n_t and substeps must be at least 1")
        if not 0 <= self.compress_tol < 1:
            raise ValueError(
                f"compress_tol must lie in [0, 1), got {self.compress_tol!r}")

    @property
    def tau(self) -> float:
        return self.T / self.n_t


def crank_nicolson_ops(system: LqrSystem, dt: float):
    """Factorized M + dt/2 S and the matrix M - dt/2 S of one
    Crank-Nicolson step of M x' = -S x."""
    try:
        lu = splu((system.M + (0.5 * dt) * system.S).tocsc())
    except RuntimeError as exc:  # pragma: no cover - guarded
        raise np.linalg.LinAlgError("singular implicit-step matrix") from exc
    return lu, (system.M - (0.5 * dt) * system.S).tocsr()


class FlowCache:
    """Factorizations and constant columns reused across a whole run."""

    def __init__(self, system: LqrSystem, cfg: SolverConfig):
        self.system = system
        self.cfg = cfg
        self.dt_base = (0.5 * cfg.tau) / cfg.substeps
        self._ops = {}
        self.lu_mass = splu(system.M.tocsc())
        if system.p > 0 and np.any(system.Q):
            self.W = self.lu_mass.solve(np.ascontiguousarray(system.C.T))
        else:
            self.W = None

    def step_ops(self, dt: float):
        key = float(dt)
        if key not in self._ops:
            self._ops[key] = crank_nicolson_ops(self.system, dt)
        return self._ops[key]


def apply_exp_F(t: float, F: LowRankFactor, system: LqrSystem,
                cfg: SolverConfig, cache: FlowCache | None = None
                ) -> LowRankFactor:
    """Affine Riccati flow: propagated factor plus the output Gramian.

    The propagated part solves M v' = -S v for the factor columns; the
    Gramian adds trapezoid nodes Phi_s M^-1 C^T with core weights w Q.
    The result is compressed at the configured tolerance.
    """
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    if cache is None:
        cache = FlowCache(system, cfg)
    if t == 0.0:
        return F.copy()
    has_gram = cache.W is not None
    r = F.rank
    if r == 0 and not has_gram:
        return zero_factor(system.n)

    n_steps = max(1, int(round(t / cache.dt_base)))
    dt = t / n_steps
    lu, Mminus = cache.step_ops(dt)

    parts = []
    if r:
        parts.append(F.L)
    if has_gram:
        parts.append(cache.W)
    V = np.hstack(parts)
    snaps = [cache.W.copy()] if has_gram else None
    for _ in range(n_steps):
        V = lu.solve(Mminus @ V)
        if has_gram:
            snaps.append(V[:, r:].copy())

    blocks_L = [V[:, :r]] if r else []
    blocks_D = [F.D] if r else []
    if has_gram:
        w = np.full(n_steps + 1, dt)
        w[0] = w[-1] = 0.5 * dt
        for wj, Z in zip(w, snaps):
            blocks_L.append(Z)
            blocks_D.append(wj * system.Q)
    out = LowRankFactor(np.hstack(blocks_L), sla.block_diag(*blocks_D))
    return compress(out, cfg.compress_tol)


def strang_step(tau: float, F: LowRankFactor, system: LqrSystem,
                cfg: SolverConfig, cache: FlowCache | None = None
                ) -> LowRankFactor:
    """One step exp(tau/2 F) exp(tau G) exp(tau/2 F), compressed between
    the stages."""
    if tau <= 0:
        raise ValueError("step size must be positive")
    if cache is None:
        cache = FlowCache(system, cfg)
    Y = apply_exp_F(0.5 * tau, F, system, cfg, cache)
    Y = compress(apply_exp_G(tau, Y, system.B, system.R), cfg.compress_tol)
    return apply_exp_F(0.5 * tau, Y, system, cfg, cache)


@dataclass
class DreSolution:
    """Result of one Riccati solve."""

    final: LowRankFactor
    checkpoints: list | None
    rank_history: list
    timings: dict
    config: SolverConfig


def solve_dre(system: LqrSystem, X0: LowRankFactor, cfg: SolverConfig,
              store_checkpoints: bool = False,
              verbose: bool = False) -> DreSolution:
    """Integrate the Riccati equation from X0 over [0, T] with n_t Strang
    steps.  Checkpoints (one factor per step, including the initial one)
    are stored only on request; they are needed for closed-loop simulation.
    A NaN or Inf raises FloatingPointError, naming the failing step.
    """
    if X0.n != system.n:
        raise ValueError("initial factor does not match the system size")
    with single_thread_blas():
        wall0 = time.perf_counter()
        cache = FlowCache(system, cfg)
        timings = {"setup": time.perf_counter() - wall0}
        X = compress(X0, cfg.compress_tol)
        ranks = [X.rank]
        cps = [X.copy()] if store_checkpoints else None
        for j in range(cfg.n_t):
            try:
                X = strang_step(cfg.tau, X, system, cfg, cache)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"Strang step {j + 1} of {cfg.n_t}: {exc}") from exc
            ranks.append(X.rank)
            if store_checkpoints:
                cps.append(X.copy())
            if verbose:
                print(f"{j + 1}\t{(j + 1) * cfg.tau:.6g}\t{X.rank}\t"
                      f"{time.perf_counter() - wall0:.3f}",
                      file=sys.stderr)
        timings["total"] = time.perf_counter() - wall0
        return DreSolution(X, cps, ranks, timings, cfg)


@dataclass
class ClosedLoopResult:
    times: np.ndarray
    states: np.ndarray      # (n, n_t + 1)
    inputs: np.ndarray      # (m, n_t)
    outputs: np.ndarray     # (p, n_t + 1)
    cost: float


def simulate_closed_loop(system: LqrSystem, solution, x0: np.ndarray,
                         cfg: SolverConfig) -> ClosedLoopResult:
    """Simulate M x' = -S x + B u with the stored feedback law.

    The input is held piecewise constant per step using the Riccati factor
    at the reflected time, u_j = -R^-1 B^T X(T - t_j) M x_j; passing
    ``solution=None`` runs the uncontrolled system.  The realized cost
    integrates <Q y, y> + <R u, u> by the trapezoidal rule (the input held
    constant on the final interval).
    """
    if solution is None:
        cps = None
    else:
        cps = solution.checkpoints if isinstance(solution, DreSolution) else solution
        if cps is None:
            raise ValueError("closed-loop simulation needs stored checkpoints")
        if len(cps) != cfg.n_t + 1:
            raise ValueError(f"expected {cfg.n_t + 1} checkpoints, "
                             f"got {len(cps)}")
    tau = cfg.tau
    lu, Mminus = crank_nicolson_ops(system, tau)
    x = np.asarray(x0, dtype=float).copy()
    states = [x.copy()]
    inputs = []
    for j in range(cfg.n_t):
        if cps is None:
            u = np.zeros(system.m)
        else:
            Xf = cps[cfg.n_t - j]
            if Xf.rank:
                v = Xf.L @ (Xf.D @ (Xf.L.T @ (system.M @ x)))
            else:
                v = np.zeros(system.n)
            u = -sla.solve(system.R, system.B.T @ v, assume_a="pos")
        inputs.append(u)
        x = lu.solve(Mminus @ x + tau * (system.B @ u))
        states.append(x.copy())
    states = np.column_stack(states)
    inputs = (np.column_stack(inputs) if inputs
              else np.zeros((system.m, 0)))
    outputs = system.C @ states
    u_nodes = np.column_stack([inputs, inputs[:, -1]]) if cfg.n_t else inputs
    g = (np.einsum("it,ij,jt->t", outputs, system.Q, outputs)
         + np.einsum("it,ij,jt->t", u_nodes, system.R, u_nodes))
    cost = float(np.trapezoid(g, dx=tau))
    times = np.arange(cfg.n_t + 1) * tau
    return ClosedLoopResult(times, states, inputs, outputs, cost)
