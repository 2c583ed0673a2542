"""Low-rank Strang splitting for the matrix differential Riccati equation.

The equation M X' M = M X A + A^T X M + C^T Q C - M X B R^-1 B^T X M
(A = -S) is split into its affine and quadratic parts.  The affine flow
propagates factor columns by Crank-Nicolson substeps Phi of M v' = -S v
and adds the output Gramian, summed by a trapezoidal rule whose nodes sit
on the same substep grid, so one SPD factorization of (M + dt/2 S) serves
both.  The quadratic flow is the closed-form rank-r update from the
low-rank algebra.

Every factor of a run lies in the span of the snapshots
Phi^k [M^-1 C^T, X0.L] over the run's 2 n_t substeps substeps, so a run
steps in that span.  Its `FlowCache` streams the p + rank(X0) snapshot
columns through the step factor once, and that pass is the factor's only
use.  The affine half-step becomes an m x m propagator T, formed from the
Galerkin pencil (U^T S U, U^T M U) of the span, and an m-dimensional
Gramian factor; `strang_step` then steps m-dimensional coordinates.
Projecting onto a subspace that holds the solution follows Koskela and
Mena, "A structure preserving Krylov subspace method for large scale
differential Riccati equations" (2017).  On the `grid` reference system
(n=3969) the step factor solves 128 columns at n_t=16 (m=46) and 2048 at
n_t=256 (m=57), against 1985 and 35881 for full-space stepping, which
propagates all r factor columns through every substep.

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
from numbers import Integral

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import splu

from .assembly import LqrSystem, factor_spd, permuted
from .lowrank import (LowRankFactor, _thin_qr, apply_exp_G, compress,
                      zero_factor)
from .runtime import single_thread_blas


@dataclass
class SolverConfig:
    """Time discretization knobs for one Riccati solve.

    ``substeps`` is the number of Crank-Nicolson intervals inside each
    half-step of the splitting; the output-Gramian quadrature uses the same
    grid.  ``n_t`` and ``substeps`` must be integers of at least 1.
    """

    T: float = 1.0
    n_t: int = 256
    substeps: int = 4
    compress_tol: float = 1e-10

    def __post_init__(self):
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T!r}")
        for name in ("n_t", "substeps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


# Directions of the snapshot basis whose singular value is below this share
# of the largest are dropped.  On the `grid` reference system (n=3969) it
# keeps m=46 columns at n_t=16 and m=57 at n_t=256, and every checkpoint
# stays within 6.8e-14 and 2.3e-14 of full-space stepping (spectral norm,
# relative).  4.2e-8, the singular-value equivalent of `compress`'s 8 eps
# floor, keeps m=25-26 but moves the early checkpoints by up to 1.2e-8.
_SPAN_FLOOR = 1e-15
# Snapshot columns collected between two truncated SVDs of the snapshot
# pass, which is all this sizes; the two buffers hold m plus one to two
# chunks of columns.  On the `grid` reference system the snapshot pass at
# n_t=256 took 1.28 s with 16 columns, 1.10 s with 32 and 1.01 s with 64;
# the `desk-grid` benchmark's (n_t=16) median peak RSS was 2.7% above the
# full-space stepping before it with 16 and 5.2% above with 32 (ten
# alternating pairs each).
_SPAN_CHUNK = 16


class FlowCache:
    """The affine half-step flow of one run, in the span of its snapshots.

    With X the initial factor and W = M^-1 C^T, every factor of a run lies
    in the span of the snapshots Phi^k [W, X.L], k = 0..K, of the
    Crank-Nicolson substep Phi (dt = tau / (2 substeps)) over the
    K = 2 n_t substeps substeps of the run: an affine half-step propagates
    the factor by Phi^substeps and appends the Gramian's columns Phi^j W,
    j <= substeps, the quadratic flow keeps L, and `compress` recombines
    columns.  The constructor factors M for W and drops the factor, factors
    the step matrix once, and streams the snapshots through it, p + rank(X)
    columns per substep, with the columns of [W, X.L] scaled to unit norm.
    Every `_SPAN_CHUNK` columns, U Sigma of the snapshots so far and the new
    columns go through one thin QR and an SVD of its R, truncated at
    `_SPAN_FLOOR` times the largest singular value; the orthonormal basis
    U (factor order) has the m columns left at the end.

    The step factor serves only that pass.  The half-step propagator T
    comes from the Galerkin pencil of the span: with the Ritz pairs
    (theta, V) of (U^T S U, U^T M U), each Crank-Nicolson substep scales
    V's columns by r = (1 - dt/2 theta) / (1 + dt/2 theta), so
    T = V diag(r^substeps) V^T (U^T M U).  Every vector a half-step
    propagates is the coordinate vector of a combination of snapshots
    z_k with k <= K - substeps, which Phi maps into span U; there the
    Galerkin substep is U^T Phi U, and T agrees with
    U^T Phi^substeps U.  The two differ only along the last substeps
    snapshots, which no run propagates.  |r| <= 1, so T does not grow
    the U^T M U norm.

    A flow steps coordinates Y with L = U Y (`coordinates`, `lift`).  It
    keeps U, T, the output Gramian sum_j w_j (U^T Phi^j W) Q (U^T Phi^j W)^T
    of a half-step (trapezoid weights w on the substep grid, compressed at
    tolerance zero; None without an output term), U^T B and R, and no
    factorization.
    """

    def __init__(self, system: LqrSystem, cfg: SolverConfig,
                 X: LowRankFactor):
        if X.n != system.n:
            raise ValueError("initial factor does not match the system size")
        self.cfg, self.order = cfg, system.order
        n_sub = cfg.substeps
        dt = (0.5 * cfg.tau) / n_sub
        if system.p > 0 and np.any(system.Q):
            # W = M^-1 C^T in the factor order; the mass factor is dropped
            # at once: at n=65025 it holds 4.92M nonzeros
            W = factor_spd(system.M, self.order, splu=splu).solve(
                _gather(system.C.T, self.order))
        else:
            W = np.zeros((system.n, 0))
        p = W.shape[1]
        lu, Mminus = crank_nicolson_ops(system, dt)
        V = np.hstack([W, _gather(X.L, self.order)])
        scale = np.linalg.norm(V, axis=0)
        scale[scale == 0] = 1.0
        V = V / scale
        w = V.shape[1]
        chunk = max(_SPAN_CHUNK, w)
        # the basis is rewritten from one buffer into the other, and a
        # buffer is only replaced, never copied, when it grows
        bufs = [np.empty((system.n, 2 * chunk if w else 0), order="F"),
                np.empty((system.n, 0), order="F")]
        sig, c = np.zeros(0), 0
        gram = [V[:, :p] * scale[:p]]
        for k in range(2 * cfg.n_t * n_sub + 1 if w else 0):
            if k:
                V = lu.solve(Mminus @ V)
                if p and k <= n_sub:
                    gram.append(V[:, :p] * scale[:p])
            if c + w > chunk:
                sig, c = _absorb(bufs, sig.size + c, chunk), 0
            bufs[0][:, sig.size + c:sig.size + c + w] = V
            c += w
        if w:
            sig = _absorb(bufs, sig.size + c, 0)
        del lu, Mminus
        m = sig.size
        self.U = bufs[0][:, :m]
        self.U /= sig
        # T from the Galerkin pencil (U^T S U, U^T M U) of the span
        self.T = np.zeros((m, m))
        if m:
            Us = _scatter(self.U, self.order)
            Mh, Sh = Us.T @ (system.M @ Us), Us.T @ (system.S @ Us)
            Mh, Sh = 0.5 * (Mh + Mh.T), 0.5 * (Sh + Sh.T)
            theta, V = sla.eigh(Sh, Mh)
            r = (1 - (0.5 * dt) * theta) / (1 + (0.5 * dt) * theta)
            self.T = (V * r ** n_sub) @ (V.T @ Mh)
        self.gramian = None
        if p and m:
            weights = np.full(n_sub + 1, dt)
            weights[0] = weights[-1] = 0.5 * dt
            core = sla.block_diag(*(wj * system.Q for wj in weights))
            try:
                self.gramian = compress(
                    LowRankFactor(self.U.T @ np.hstack(gram), core), 0.0)
            except FloatingPointError as exc:
                raise FloatingPointError(f"output Gramian: {exc}") from exc
        self.B = self.U.T @ _gather(system.B, self.order)
        self.R = system.R

    @property
    def dim(self) -> int:
        return self.U.shape[1]

    def coordinates(self, F: LowRankFactor) -> LowRankFactor:
        """Coordinates of a factor whose columns lie in the span of U."""
        return LowRankFactor(self.U.T @ _gather(F.L, self.order), F.D)

    def lift(self, F: LowRankFactor) -> LowRankFactor:
        return LowRankFactor(_scatter(self.U @ F.L, self.order), F.D.copy())


def _absorb(bufs: list, k: int, spare: int) -> np.ndarray:
    """Truncated SVD of bufs[0][:, :k]: write U Sigma to the other buffer,
    with room for ``spare`` more columns, swap the two and return the kept
    singular values; directions below `_SPAN_FLOOR` times the largest are
    dropped."""
    R, q_times = _thin_qr(bufs[0][:, :k], overwrite_a=True)
    P, sig, _ = np.linalg.svd(R)
    sig = sig[sig > _SPAN_FLOOR * sig[0]]
    if bufs[1].shape[1] < sig.size + spare:
        bufs[1] = np.empty((bufs[1].shape[0], sig.size + 2 * spare),
                           order="F")
    q_times(P[:, :sig.size] * sig, out=bufs[1][:, :sig.size])
    bufs.reverse()
    return sig


def apply_exp_F(F: LowRankFactor, flow: FlowCache) -> LowRankFactor:
    """Affine Riccati flow over tau/2 of a factor in ``flow``'s
    coordinates: the factor propagated by the flow's half-step propagator
    T (see `FlowCache`), plus the output Gramian, compressed at the
    configured tolerance."""
    blocks_L, blocks_D = [], []
    if F.rank:
        blocks_L.append(flow.T @ F.L)
        blocks_D.append(F.D)
    if flow.gramian is not None:
        blocks_L.append(flow.gramian.L)
        blocks_D.append(flow.gramian.D)
    if not blocks_L:
        return zero_factor(flow.dim)
    out = LowRankFactor(np.hstack(blocks_L), sla.block_diag(*blocks_D))
    return compress(out, flow.cfg.compress_tol)


def strang_step(F: LowRankFactor, flow: FlowCache) -> LowRankFactor:
    """One step exp(tau/2 F) exp(tau G) exp(tau/2 F) of a factor in
    ``flow``'s coordinates, compressed between the stages.  A NaN or Inf
    raises FloatingPointError naming the stage."""
    tol = flow.cfg.compress_tol
    stage = "first affine half-step"
    try:
        Y = apply_exp_F(F, flow)
        stage = "quadratic flow"
        Y = compress(apply_exp_G(flow.cfg.tau, Y, flow.B, flow.R), tol)
        stage = "second affine half-step"
        return apply_exp_F(Y, flow)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{stage}: {exc}") from exc


@dataclass
class DreSolution:
    """Result of one Riccati solve; ``subspace_dim`` is the dimension m of
    the snapshot span the run was stepped in, and ``timings`` holds the
    seconds of its ``setup`` (compressing X0 and building the `FlowCache`)
    and its ``total``."""

    final: LowRankFactor
    checkpoints: list | None
    rank_history: list
    timings: dict
    config: SolverConfig
    subspace_dim: int = 0


def solve_dre(system: LqrSystem, X0: LowRankFactor, cfg: SolverConfig,
              store_checkpoints: bool = False) -> DreSolution:
    """Integrate the Riccati equation from X0 over [0, T] with n_t Strang
    steps.  Checkpoints (one factor per step, including the initial one)
    are stored only on request; they are needed for closed-loop simulation.
    A NaN or Inf raises FloatingPointError, naming the failing step and
    its stage.
    """
    with single_thread_blas():
        wall0 = time.perf_counter()
        X = compress(X0, cfg.compress_tol)
        flow = FlowCache(system, cfg, X)
        timings = {"setup": time.perf_counter() - wall0}
        ranks = [X.rank]
        cps = [X.copy()] if store_checkpoints else None
        Y = flow.coordinates(X)
        for j in range(cfg.n_t):
            try:
                Y = strang_step(Y, flow)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"Strang step {j + 1} of {cfg.n_t}, {exc}") from exc
            ranks.append(Y.rank)
            if store_checkpoints:
                cps.append(flow.lift(Y))
        timings["total"] = time.perf_counter() - wall0
        return DreSolution(flow.lift(Y), cps, ranks, timings, cfg, flow.dim)


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
