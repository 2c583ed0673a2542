"""The benchmark workloads: inputs made from a seed, one iteration, checks.

Each workload has three parts.  ``setup(seed, tmp)`` builds the inputs (the
seed is the coefficient seed, ``[kappa] seed`` in a config file).
``iterate(state)`` is the timed unit of work.  ``inspect(state, raw)`` runs untimed after every iteration and
returns the iteration's non-timing values, an exact digest of its outputs,
and the invariants it broke.

Every call into the package goes through a module attribute
(``lod.build_lod_basis``, not an imported name) so that a traced run sees it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp

from mslqr import bench, dre, lod, lowrank, mesh
from mslqr.assembly import LqrSystem

# relative tolerance for values compared with the recorded ones
RTOL = 1e-10

# scaled-down `grid` preset: the shipped study (j_max=3, n_t=256) takes
# about 44 s, longer than one run; these two knobs bring one iteration to
# about 3 s while the reference solve keeps n=3969 and most of the time
DESK_GRID_J_MAX = 1
DESK_GRID_N_T = 16

# (coarse level, patch radius) on the level-6 fine mesh: radius 1 keeps
# every patch at most 13 of the 128 coarse elements, tiny next to the fine
# mesh; level 3 would take 4.4 s more per iteration
LOD_FINE_LEVEL = 6
LOD_LEVELS = ((2, 1),)

# (coarse level, time steps) on the level-5 reference mesh
RICCATI_REF_LEVEL = 5
RICCATI_LEVELS = ((3, 64), (4, 16))
RICCATI_PATCH_RADIUS = 3


@dataclass(frozen=True)
class Workload:
    setup: Callable
    iterate: Callable
    inspect: Callable
    setup_repeats: int = 5


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _probe(n, salt):
    """Fixed pseudo-random vector used to fingerprint matrices of size n."""
    return np.random.default_rng([2017, n, salt]).standard_normal(n)


def _matrix_values(prefix, A) -> dict:
    """Order-independent float summary of a sparse matrix."""
    A = sp.csr_matrix(A)
    u, v = _probe(A.shape[0], 0), _probe(A.shape[1], 1)
    return {f"{prefix}.nnz": int(A.nnz),
            f"{prefix}.sum": float(A.data.sum()),
            f"{prefix}.sumsq": float((A.data ** 2).sum()),
            f"{prefix}.uAv": float(u @ (A @ v))}


def _factor_values(prefix, F) -> dict:
    """Float summary of X = L D L^T computed without forming X."""
    u, v = _probe(F.n, 0), _probe(F.n, 1)
    G = F.L.T @ F.L
    return {f"{prefix}.rank": int(F.rank),
            f"{prefix}.trace": float(np.trace(G @ F.D)),
            f"{prefix}.frob2": float(np.trace(G @ F.D @ G @ F.D)),
            f"{prefix}.uXv": float((F.L.T @ u) @ F.D @ (F.L.T @ v))}


def compare(values: dict, expected: dict) -> list:
    """Names of values that differ from the expected ones by more than
    RTOL."""
    if set(values) != set(expected):
        return [f"value names differ: {sorted(set(values) ^ set(expected))}"]
    bad = []
    for key, want in expected.items():
        got = values[key]
        if isinstance(want, int) and isinstance(got, int):
            ok = got == want
        else:
            ok = abs(got - want) <= RTOL * max(abs(got), abs(want))
        if not ok:
            bad.append(f"{key}: {got!r} != recorded {want!r}")
    return bad


def _grid_config(seed):
    return replace(bench.preset_config("grid"), seed=seed)


def _mesh_chain(level):
    chain = [mesh.build_base_mesh(mesh.unit_square())]
    for _ in range(level):
        chain.append(mesh.refine_uniform(chain[-1]))
    return chain


# -- desk-grid ----------------------------------------------------------------

def _desk_grid_setup(seed, tmp):
    base = _grid_config(seed)
    return replace(base, j_max=DESK_GRID_J_MAX,
                   solver=replace(base.solver, n_t=DESK_GRID_N_T),
                   output=str(tmp / "grid.csv"))


def _desk_grid_iterate(cfg):
    return bench.run_experiment(cfg)


def _desk_grid_inspect(cfg, record):
    values = {"n_ref": record.n_ref, "rank_reference": record.rank_reference}
    problems = []
    for j, lvl in enumerate(record.levels, start=cfg.j_min):
        for key in ("err_L2_fem", "err_L2_lod", "err_V_fem", "err_V_lod"):
            e = getattr(lvl, key)
            values[f"level{j}.{key}"] = e
            if not (np.isfinite(e) and e > 0):
                problems.append(f"level {j}: {key} = {e!r}")
        values[f"level{j}.n_coarse"] = lvl.n_coarse
        values[f"level{j}.rank_final"] = lvl.rank_final
        if not lvl.err_L2_lod <= lvl.err_L2_fem:
            problems.append(f"level {j}: err_L2_lod {lvl.err_L2_lod!r} > "
                            f"err_L2_fem {lvl.err_L2_fem!r}")
    for name, orders in record.orders.items():
        for i, v in enumerate(orders):
            values[f"{name}.{i}"] = v

    # the CSV must carry the same non-timing numbers as the record
    with open(cfg.output) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header, rows = lines[0].split(","), lines[1:]
    keep = [i for i, c in enumerate(header) if c not in bench.TIMING_COLUMNS]
    csv_rows = [[row.split(",")[i] for i in keep] for row in rows]
    rec_rows = [[lvl.row().split(",")[i] for i in keep]
                for lvl in record.levels]
    if csv_rows != rec_rows:
        problems.append("CSV rows differ from the returned record")
    return values, _digest(sorted(values.items()), csv_rows), problems


# -- lod-fine6 ----------------------------------------------------------------

def _lod_setup(seed, tmp):
    chain = _mesh_chain(LOD_FINE_LEVEL)
    kappa = bench.build_kappa(_grid_config(seed))
    system = bench.build_system(chain[-1], kappa, "unit_square")
    return {"chain": chain, "kappa": kappa, "system": system, "checks": {}}


def _lod_iterate(state):
    fine = state["chain"][-1]
    return [lod.build_lod_basis(fine, state["chain"][j], state["kappa"], k,
                                state["system"])
            for j, k in LOD_LEVELS]


def _lod_inspect(state, bases):
    values, problems, arrays = {}, [], []
    fine = state["chain"][-1]
    for (j, k), basis in zip(LOD_LEVELS, bases):
        pre = f"level{j}"
        values.update(_matrix_values(f"{pre}.Rh", basis.Rh))
        values.update(_matrix_values(f"{pre}.S_ms", basis.S_ms))
        values[f"{pre}.patch_min"] = basis.stats["patch_elements_min"]
        values[f"{pre}.patch_max"] = basis.stats["patch_elements_max"]
        arrays += [basis.Rh.data, basis.Rh.indices, basis.Rh.indptr,
                   basis.S_ms.data]
        if not np.isfinite(basis.Rh.data).all():
            problems.append(f"{pre}: Rh has non-finite entries")
            continue
        if np.linalg.eigvalsh(basis.S_ms.toarray()).min() <= 0:
            problems.append(f"{pre}: S_ms is not positive definite")
        # correctors lie in the kernel of the quasi-interpolation
        if j not in state["checks"]:
            coarse = state["chain"][j]
            I_free = lod.clement_interpolation(fine, coarse)
            P_free = mesh.prolongation(coarse, fine)
            state["checks"][j] = (I_free, P_free, abs(I_free @ P_free).max())
        I_free, P_free, scale = state["checks"][j]
        leak = abs(I_free @ (P_free - basis.Rh)).max()
        if leak > 1e-8 * scale:
            problems.append(f"{pre}: I_H applied to the correctors is "
                            f"{leak:.3e}, not zero")
    return values, _digest(sorted(values.items()), *arrays), problems


# -- riccati-ms ---------------------------------------------------------------

def _galerkin(system, P):
    M_H = P.T @ system.M @ P
    S_H = P.T @ system.S @ P
    return LqrSystem(M=0.5 * (M_H + M_H.T).tocsr(),
                     S=0.5 * (S_H + S_H.T).tocsr(),
                     B=P.T @ system.B, C=system.C @ P)


def _riccati_setup(seed, tmp):
    chain = _mesh_chain(RICCATI_REF_LEVEL)
    cfg = _grid_config(seed)
    kappa = bench.build_kappa(cfg)
    fine = chain[-1]
    system = bench.build_system(fine, kappa, "unit_square")
    rng = np.random.default_rng(seed)
    cases = []
    for j, n_t in RICCATI_LEVELS:
        coarse = chain[j]
        basis = lod.build_lod_basis(fine, coarse, kappa, RICCATI_PATCH_RADIUS,
                                    system)
        solver = replace(cfg.solver, n_t=n_t)
        # a positive state of mean about one, as in the closed-loop
        # acceptance test: the feedback then lowers the cost by about 2e-6
        # relative at these step counts, a margin far above roundoff
        x0 = rng.uniform(0.5, 1.5, coarse.n_free)
        gal = _galerkin(system, mesh.prolongation(coarse, fine))
        cases.append((f"level{j}.lod", basis.system(), solver, x0))
        cases.append((f"level{j}.fem", gal, solver, x0))
    return {"cases": cases, "uncontrolled": {}}


def _solve_and_simulate(system, solver, x0):
    sol = dre.solve_dre(system, lowrank.zero_factor(system.n), solver,
                        store_checkpoints=True)
    loop = dre.simulate_closed_loop(system, sol, x0, solver)
    return sol.final, loop.cost


def _riccati_iterate(state):
    return [_solve_and_simulate(system, solver, x0)
            for _, system, solver, x0 in state["cases"]]


def _riccati_inspect(state, results):
    values, problems, arrays = {}, [], []
    for (name, system, solver, x0), (F, cost) in zip(state["cases"], results):
        arrays += [F.L, F.D, np.array([cost])]
        values.update(_factor_values(name, F))
        values[f"{name}.cost"] = cost
        if not (np.isfinite(F.L).all() and np.isfinite(F.D).all()):
            problems.append(f"{name}: non-finite factor")
            continue
        lam = np.linalg.eigvalsh(0.5 * (F.D + F.D.T))
        if lam.size and lam.min() < -1e-12 * np.abs(lam).max():
            problems.append(f"{name}: factor is not PSD "
                            f"(min eigenvalue {lam.min():.3e})")
        if name not in state["uncontrolled"]:
            state["uncontrolled"][name] = dre.simulate_closed_loop(
                system, None, x0, solver).cost
        free = state["uncontrolled"][name]
        if not 0 < cost < free:
            problems.append(f"{name}: controlled cost {cost!r} not in "
                            f"(0, uncontrolled cost {free!r})")
    return values, _digest(sorted(values.items()), *arrays), problems


WORKLOADS = {
    # its set-up is only the imports, about 0.4 s; more repeats steady the
    # median
    "desk-grid": Workload(_desk_grid_setup, _desk_grid_iterate,
                          _desk_grid_inspect, setup_repeats=15),
    "lod-fine6": Workload(_lod_setup, _lod_iterate, _lod_inspect),
    # its setup builds two LOD bases, about 13 s, so it sets up only twice;
    # run by hand, it is not in BENCHMARK.json (see README.md)
    "riccati-ms": Workload(_riccati_setup, _riccati_iterate,
                           _riccati_inspect, setup_repeats=2),
}
