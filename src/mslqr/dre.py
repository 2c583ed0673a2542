"""Low-rank Strang splitting for the matrix differential Riccati equation.

The equation M X' M = M X A + A^T X M + C^T Q C - M X B R^-1 B^T X M
(A = -S) is split into its affine and quadratic parts.  The affine flow
propagates factor columns by solving M v' = -S v with Crank-Nicolson
substeps and accumulates the output Gramian by a trapezoidal rule whose
nodes sit on the same substep grid; flow time and quadrature therefore
share one SPD factorization of (M + dt/2 S) per run and the discrete
affine flow composes exactly (two half-steps equal one full step).  The
output Gramian of a flow length does not depend on the factor, so it is
computed once per run and each affine step only propagates the factor's
own columns.  The quadratic flow is the closed-form rank-r update from the
low-rank algebra.

M + dt/2 S and M are factored by the one SPD rule, `factor_spd`, with
diagonal pivots.  A system assembled on a mesh is factored in the mesh's
nested-dissection order: both matrices are permuted once, and the state
stays permuted through all substeps of a flow, so it is gathered once and
scattered once.  At n=3969 the step factor holds 187,316 nonzeros against
199,788 with minimum degree and 251,152 with SuperLU's default COLAMD.
Systems built without a mesh (restricted, corrected or by hand) take
minimum degree, which fills far less than COLAMD once a corrected system
fills in: 305,538 against 437,762 nonzeros on the level-4 corrected
Crank-Nicolson matrix (n=961, 135 nonzeros per row).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import splu

from .assembly import LqrSystem, factor_spd, permuted
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
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T!r}")
        if self.n_t < 1 or self.substeps < 1:
            raise ValueError("n_t and substeps must be at least 1")
        if not 0 <= self.compress_tol < 1:
            raise ValueError(
                f"compress_tol must lie in [0, 1), got {self.compress_tol!r}")

    @property
    def tau(self) -> float:
        return self.T / self.n_t


def _gather(X: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """Rows of X in the factor order."""
    return np.ascontiguousarray(X if order is None else X[order])


def _scatter(X: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """Rows of X, given in the factor order, back in the system's order."""
    if order is None:
        return X
    out = np.empty_like(X)
    out[order] = X
    return out


def crank_nicolson_ops(system: LqrSystem, dt: float):
    """Factorized M + dt/2 S and the matrix M - dt/2 S of one
    Crank-Nicolson step of M x' = -S x, both in the factor order: the
    system's `LqrSystem.order`, or its own numbering without a mesh."""
    order = system.order
    return (factor_spd(system.M + (0.5 * dt) * system.S, order, splu=splu),
            permuted(system.M - (0.5 * dt) * system.S, order))


class FlowCache:
    """Factorizations and output Gramians reused across a whole run.

    `solve_dre` builds one per run; `apply_exp_F` and `strang_step` step
    with it and read the system and configuration it holds.
    """

    def __init__(self, system: LqrSystem, cfg: SolverConfig):
        self.system = system
        self.cfg = cfg
        self.dt_base = (0.5 * cfg.tau) / cfg.substeps
        self.order = system.order
        self._ops = {}
        self._gramians = {}
        if system.p > 0 and np.any(system.Q):
            # W = M^-1 C^T in the factor order; the mass factor is dropped
            # at once: at n=65025 it holds 4.92M nonzeros, and no later
            # step uses it
            self.W = factor_spd(system.M, self.order, splu=splu).solve(
                _gather(system.C.T, self.order))
        else:
            self.W = None

    def step_ops(self, dt: float):
        key = float(dt)
        if key not in self._ops:
            self._ops[key] = crank_nicolson_ops(self.system, dt)
        return self._ops[key]

    def substeps(self, t: float):
        """Number and length of the Crank-Nicolson substeps over [0, t]."""
        n_steps = max(1, int(round(t / self.dt_base)))
        return n_steps, t / n_steps

    def states(self, t: float, V: np.ndarray):
        """Yield the columns V propagated to each node of the substep grid
        of [0, t], starting with V itself; V and the states are in the
        factor order."""
        n_steps, dt = self.substeps(t)
        lu, Mminus = self.step_ops(dt)
        yield V
        for _ in range(n_steps):
            V = lu.solve(Mminus @ V)
            yield V

    def propagate(self, t: float, V: np.ndarray) -> np.ndarray:
        """The columns V propagated over [0, t], in the system's order."""
        for V in self.states(t, _gather(V, self.order)):
            pass
        return _scatter(V, self.order)

    def gramian(self, t: float) -> LowRankFactor | None:
        """Output Gramian sum_j w_j Phi_j W Q W^T Phi_j^T of the flow over
        [0, t] (trapezoid weights w on the substep grid), or None without an
        output term.  Computed once per t and compressed at tolerance zero,
        so only roundoff-level spectrum is dropped."""
        if self.W is None:
            return None
        key = float(t)
        if key not in self._gramians:
            snaps = list(self.states(t, self.W))
            _, dt = self.substeps(t)
            w = np.full(len(snaps), dt)
            w[0] = w[-1] = 0.5 * dt
            G = LowRankFactor(_scatter(np.hstack(snaps), self.order),
                              sla.block_diag(*(wj * self.system.Q for wj in w)))
            self._gramians[key] = compress(G, 0.0)
        return self._gramians[key]


def apply_exp_F(t: float, F: LowRankFactor, cache: FlowCache
                ) -> LowRankFactor:
    """Affine Riccati flow: propagated factor plus the output Gramian.

    The propagated part solves M v' = -S v for the factor columns; the
    Gramian (`FlowCache.gramian`, computed once per t) sums trapezoid
    nodes Phi_s M^-1 C^T with core weights w Q.  The result is compressed
    at the configured tolerance.
    """
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    if t == 0.0:
        return F.copy()
    G = cache.gramian(t)
    blocks_L, blocks_D = [], []
    if F.rank:
        blocks_L.append(cache.propagate(t, F.L))
        blocks_D.append(F.D)
    if G is not None:
        blocks_L.append(G.L)
        blocks_D.append(G.D)
    if not blocks_L:
        return zero_factor(cache.system.n)
    out = LowRankFactor(np.hstack(blocks_L), sla.block_diag(*blocks_D))
    return compress(out, cache.cfg.compress_tol)


def strang_step(tau: float, F: LowRankFactor, cache: FlowCache
                ) -> LowRankFactor:
    """One step exp(tau/2 F) exp(tau G) exp(tau/2 F), compressed between
    the stages.  A NaN or Inf raises FloatingPointError naming the stage."""
    if tau <= 0:
        raise ValueError("step size must be positive")
    system, tol = cache.system, cache.cfg.compress_tol
    stage = "first affine half-step"
    try:
        Y = apply_exp_F(0.5 * tau, F, cache)
        stage = "quadratic flow"
        Y = compress(apply_exp_G(tau, Y, system.B, system.R), tol)
        stage = "second affine half-step"
        return apply_exp_F(0.5 * tau, Y, cache)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{stage}: {exc}") from exc


@dataclass
class DreSolution:
    """Result of one Riccati solve."""

    final: LowRankFactor
    checkpoints: list | None
    rank_history: list
    timings: dict
    config: SolverConfig


def solve_dre(system: LqrSystem, X0: LowRankFactor, cfg: SolverConfig,
              store_checkpoints: bool = False) -> DreSolution:
    """Integrate the Riccati equation from X0 over [0, T] with n_t Strang
    steps.  Checkpoints (one factor per step, including the initial one)
    are stored only on request; they are needed for closed-loop simulation.
    A NaN or Inf raises FloatingPointError, naming the failing step and
    its stage.
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
                X = strang_step(cfg.tau, X, cache)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"Strang step {j + 1} of {cfg.n_t}, {exc}") from exc
            ranks.append(X.rank)
            if store_checkpoints:
                cps.append(X.copy())
        timings["total"] = time.perf_counter() - wall0
        return DreSolution(X, cps, ranks, timings, cfg)


@dataclass
class ClosedLoopResult:
    times: np.ndarray
    states: np.ndarray      # (n, n_t + 1)
    inputs: np.ndarray      # (m, n_t)
    outputs: np.ndarray     # (p, n_t + 1)
    cost: float


def simulate_closed_loop(system: LqrSystem, solution: DreSolution | None,
                         x0: np.ndarray, cfg: SolverConfig
                         ) -> ClosedLoopResult:
    """Simulate M x' = -S x + B u with the stored feedback law.

    The input is held piecewise constant per step using the Riccati factor
    at the reflected time, u_j = -R^-1 B^T X(T - t_j) M x_j, read off the
    checkpoints of ``solution`` (a `solve_dre` result with
    ``store_checkpoints=True``); passing ``solution=None`` runs the
    uncontrolled system.  The realized cost integrates <Q y, y> + <R u, u>
    by the trapezoidal rule (the input held constant on the final
    interval).  An x0 that is not a finite vector of length n raises
    ValueError before anything is factored.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (system.n,):
        raise ValueError(f"x0 has shape {x.shape}, but the system has "
                         f"{system.n} unknowns")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if solution is None:
        cps = None
    else:
        solved = solution.config
        if (solved.T, solved.n_t) != (cfg.T, cfg.n_t):
            raise ValueError(f"solution was solved with T={solved.T!r}, "
                             f"n_t={solved.n_t}, not T={cfg.T!r}, "
                             f"n_t={cfg.n_t}")
        cps = solution.checkpoints
        if cps is None:
            raise ValueError("closed-loop simulation needs stored checkpoints")
        if len(cps) != cfg.n_t + 1:
            raise ValueError(f"expected {cfg.n_t + 1} checkpoints, "
                             f"got {len(cps)}")
    tau = cfg.tau
    order = system.order
    lu, Mminus = crank_nicolson_ops(system, tau)
    B = _gather(system.B, order)
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
        x = _scatter(lu.solve(Mminus @ _gather(x, order) + tau * (B @ u)),
                     order)
        states.append(x.copy())
    states = np.column_stack(states)
    inputs = np.column_stack(inputs)
    outputs = system.C @ states
    u_nodes = np.column_stack([inputs, inputs[:, -1]])
    g = (np.einsum("it,ij,jt->t", outputs, system.Q, outputs)
         + np.einsum("it,ij,jt->t", u_nodes, system.R, u_nodes))
    cost = float(np.trapezoid(g, dx=tau))
    times = np.arange(cfg.n_t + 1) * tau
    return ClosedLoopResult(times, states, inputs, outputs, cost)
