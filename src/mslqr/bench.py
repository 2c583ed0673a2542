"""Config-driven convergence experiments with CSV output.

An experiment builds a fine reference discretization, solves the Riccati
equation there, and for every coarse level solves both the plain coarse
Galerkin problem (matrices restricted through the prolongation) and the
corrected multiscale problem, comparing the lifted solutions to the
reference in the L2- and energy-equivalent operator norms at the final
time.  Results stream into a CSV file, one row per level, with observed
convergence orders appended as comment lines.
"""

from __future__ import annotations

import configparser
import re
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import mesh as mesh_mod
from .assembly import (CoefficientField, LqrSystem, assemble_input_squares,
                       assemble_mass, assemble_output_mean,
                       assemble_stiffness, dump_kappa, kappa_constant,
                       kappa_random_grid, kappa_stripes, restrict_system)
from .dre import SolverConfig, solve_dre
from .lod import build_lod_basis, default_patch_radius
from .lowrank import zero_factor
from .mesh import build_base_mesh, prolongation, refine_uniform
from .norms import (SparseCholesky, l2_operator_error, make_lifted_pair,
                    v_operator_error)
from .runtime import single_thread_blas

CSV_COLUMNS = ["H", "n_coarse", "err_L2_fem", "err_L2_lod", "err_V_fem",
               "err_V_lod", "time_lod_setup", "time_solve_fem",
               "time_solve_lod", "rank_final"]

TIMING_COLUMNS = {"time_lod_setup", "time_solve_fem", "time_solve_lod"}


@dataclass
class ExperimentConfig:
    """Full description of one convergence study."""

    preset: str = "grid"
    domain_kind: str = "unit_square"
    j_min: int = 0
    j_max: int = 3
    j_ref: int = 5
    k: int | None = None                 # patch radius override
    kappa_type: str = "random_grid"      # random_grid | stripes | constant
    epsilon: float = 2.0 ** -5
    kappa_lo: float = 1e-3
    kappa_hi: float = 1.0
    seed: int = 1
    n_stripes: int = 7
    stripe_width: float = 2.0 ** -5
    stripe_value: float = 1e-2
    background: float = 1.0
    constant_value: float = 1.0
    workers: int = 1                     # thread pool for corrector solves
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: str = "results.csv"

    def validate(self):
        if not 0 <= self.j_min <= self.j_max:
            raise ValueError("need 0 <= j_min <= j_max")
        if self.j_ref <= self.j_max:
            raise ValueError("reference level must exceed the coarsest levels")
        if self.domain_kind not in mesh_mod.DOMAINS:
            raise ValueError(f"unknown domain {self.domain_kind!r}")
        control_squares(self.domain_kind)
        if self.k is not None and self.k < 1:
            raise ValueError("patch radius must be at least 1")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        return self


def _desk_grid():
    return ExperimentConfig(preset="grid", output="grid.csv")


def _desk_stripes():
    return ExperimentConfig(preset="stripes", kappa_type="stripes",
                            output="stripes.csv")


def _desk_lshape():
    return ExperimentConfig(preset="lshape", domain_kind="l_shape",
                            j_min=0, j_max=2, j_ref=4, output="lshape.csv")


def _full_grid():
    return replace(_desk_grid(), preset="grid-full", epsilon=2.0 ** -7,
                   j_max=6, j_ref=7, output="grid_full.csv")


def _full_stripes():
    return replace(_desk_stripes(), preset="stripes-full",
                   stripe_width=2.0 ** -7, j_max=6, j_ref=7,
                   output="stripes_full.csv")


def _full_lshape():
    return replace(_desk_lshape(), preset="lshape-full", epsilon=2.0 ** -7,
                   j_max=6, j_ref=7, output="lshape_full.csv")


PRESETS = {
    "grid": (_desk_grid,
             "unit square, random checkerboard coefficient (desk scale)"),
    "stripes": (_desk_stripes,
                "unit square, 7 thin low-diffusion stripes (desk scale)"),
    "lshape": (_desk_lshape,
               "L-shaped domain, random checkerboard coefficient (desk scale)"),
    "grid-full": (_full_grid,
                  "unit square, random coefficient on a 2^-7 grid (full scale)"),
    "stripes-full": (_full_stripes,
                     "unit square, stripes of width 2^-7 (full scale)"),
    "lshape-full": (_full_lshape,
                    "L-shaped domain at full scale"),
}


def preset_config(name: str) -> ExperimentConfig:
    try:
        factory, _ = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; "
                         f"known: {', '.join(sorted(PRESETS))}") from None
    return factory()


def build_kappa(cfg: ExperimentConfig) -> CoefficientField:
    if cfg.kappa_type == "random_grid":
        return kappa_random_grid(cfg.epsilon, cfg.kappa_lo, cfg.kappa_hi,
                                 cfg.seed)
    if cfg.kappa_type == "stripes":
        return kappa_stripes(cfg.n_stripes, cfg.stripe_width,
                             cfg.background, cfg.stripe_value)
    if cfg.kappa_type == "constant":
        return kappa_constant(cfg.constant_value)
    raise ValueError(f"unknown coefficient type {cfg.kappa_type!r}")


def control_squares(domain_kind: str):
    if domain_kind == "unit_square":
        return [(j / 4, j / 4, j / 4 + 1 / 8, j / 4 + 1 / 8) for j in (1, 2, 3)]
    if domain_kind == "l_shape":
        return [(0.65, 0.65, 0.85, 0.85)]
    raise ValueError(f"no control preset for domain {domain_kind!r}")


def build_system(mesh, kappa, domain_kind: str) -> LqrSystem:
    """Assemble the preset input/output operators on one mesh.

    Unit square: three square control patches, global-integral output.
    L-shape: one control square, output is the mean over [0.15, 0.35]^2.
    """
    B = assemble_input_squares(mesh, control_squares(domain_kind))
    if domain_kind == "unit_square":
        C = assemble_output_mean(mesh)
    else:
        obs = (0.15, 0.15, 0.35, 0.35)
        area = (obs[2] - obs[0]) * (obs[3] - obs[1])
        C = assemble_input_squares(mesh, [obs]).T / area
    return LqrSystem(M=assemble_mass(mesh),
                     S=assemble_stiffness(mesh, kappa), B=B, C=C)


@dataclass
class LevelResult:
    H: float
    n_coarse: int
    err_L2_fem: float
    err_L2_lod: float
    err_V_fem: float
    err_V_lod: float
    time_lod_setup: float
    time_solve_fem: float
    time_solve_lod: float
    rank_final: int                      # final rank of the multiscale solve

    def row(self):
        vals = []
        for name in CSV_COLUMNS:
            v = getattr(self, name)
            if name in TIMING_COLUMNS:
                vals.append(f"{v:.3f}")
            elif isinstance(v, int):
                vals.append(str(v))
            else:
                vals.append(repr(float(v)))
        return ",".join(vals)


@dataclass
class ConvergenceRecord:
    config: ExperimentConfig
    levels: list
    orders: dict
    n_ref: int
    k_levels: list
    time_reference: float
    rank_reference: int

    def errors(self, key: str):
        return [getattr(l, key) for l in self.levels]


RANK_SANITY_BOUND = 120


def _rank_sanity(rank: int, what: str) -> None:
    """Desk-scale runs are expected to stay well below rank 120; larger
    ranks are logged as a warning, never treated as an error."""
    if rank > RANK_SANITY_BOUND:
        warnings.warn(f"{what} solution rank {rank} exceeds the expected "
                      f"desk-scale bound {RANK_SANITY_BOUND}",
                      RuntimeWarning, stacklevel=2)


def observed_order(errors, H) -> list:
    """Observed convergence orders log(e_j/e_{j+1}) / log(H_j/H_{j+1})."""
    if len(errors) != len(H) or len(errors) < 2:
        raise ValueError("need matching error/meshwidth lists of length >= 2")
    if any(e <= 0 for e in errors) or any(h <= 0 for h in H):
        raise ValueError("errors and meshwidths must be positive")
    return [float(np.log(errors[i] / errors[i + 1])
                  / np.log(H[i] / H[i + 1]))
            for i in range(len(errors) - 1)]


def _metadata_lines(cfg: ExperimentConfig, n_ref, k_levels):
    s = cfg.solver
    if cfg.kappa_type == "random_grid":
        kdesc = (f"kappa=random_grid epsilon={cfg.epsilon!r} "
                 f"lo={cfg.kappa_lo!r} hi={cfg.kappa_hi!r} seed={cfg.seed}")
    elif cfg.kappa_type == "stripes":
        kdesc = (f"kappa=stripes n={cfg.n_stripes} width={cfg.stripe_width!r} "
                 f"background={cfg.background!r} value={cfg.stripe_value!r}")
    else:
        kdesc = f"kappa=constant value={cfg.constant_value!r}"
    return [
        "# mslqr convergence study",
        f"# preset={cfg.preset} domain={cfg.domain_kind}",
        f"# {kdesc}",
        f"# T={s.T!r} n_t={s.n_t} substeps={s.substeps} "
        f"compress_tol={s.compress_tol!r}",
        f"# j_ref={cfg.j_ref} n_ref={n_ref} "
        f"k_levels={','.join(str(k) for k in k_levels)}",
    ]


def run_experiment(cfg: ExperimentConfig, log=None) -> ConvergenceRecord:
    """Run one convergence study and stream the CSV to cfg.output."""
    cfg.validate()
    with single_thread_blas():
        return _run_experiment(cfg, log)


def _run_experiment(cfg: ExperimentConfig, log) -> ConvergenceRecord:
    say = log if log is not None else (lambda msg: None)

    kappa = build_kappa(cfg)       # a bad [kappa] fails before any mesh
    domain = mesh_mod.DOMAINS[cfg.domain_kind]()
    chain = [build_base_mesh(domain)]
    for _ in range(cfg.j_ref):
        chain.append(refine_uniform(chain[-1]))
    fine = chain[cfg.j_ref]
    system = build_system(fine, kappa, cfg.domain_kind)
    say(f"reference level {cfg.j_ref}: n = {system.n}")

    t0 = time.perf_counter()
    ref = solve_dre(system, zero_factor(system.n), cfg.solver)
    time_reference = time.perf_counter() - t0
    say(f"reference solve: rank {ref.final.rank}, {time_reference:.1f}s")
    _rank_sanity(ref.final.rank, "reference")

    chol_M = SparseCholesky(system.M)
    chol_S = SparseCholesky(system.S)

    k_levels = [cfg.k if cfg.k is not None else default_patch_radius(chain[j])
                for j in range(cfg.j_min, cfg.j_max + 1)]
    levels = []
    path = cfg.output
    with open(path, "w") as out:
        for line in _metadata_lines(cfg, system.n, k_levels):
            out.write(line + "\n")
        out.write(",".join(CSV_COLUMNS) + "\n")
        for j in range(cfg.j_min, cfg.j_max + 1):
            coarse = chain[j]
            P = prolongation(coarse, fine)
            coarse_sys = restrict_system(system, P)

            t0 = time.perf_counter()
            fem = solve_dre(coarse_sys, zero_factor(coarse_sys.n), cfg.solver)
            time_fem = time.perf_counter() - t0

            k_j = k_levels[j - cfg.j_min]
            t0 = time.perf_counter()
            basis = build_lod_basis(fine, coarse, kappa, k_j, system,
                                    workers=cfg.workers)
            time_setup = time.perf_counter() - t0
            t0 = time.perf_counter()
            lod_sol = solve_dre(basis.system(), zero_factor(basis.n_coarse),
                                cfg.solver)
            time_lod = time.perf_counter() - t0
            _rank_sanity(lod_sol.final.rank, f"level-{j} multiscale")

            fem_pair = make_lifted_pair(ref.final, fem.final, P,
                                        system.M, system.S,
                                        chol_M=chol_M, chol_S=chol_S)
            lod_pair = make_lifted_pair(ref.final, lod_sol.final, basis.Rh,
                                        system.M, system.S,
                                        chol_M=chol_M, chol_S=chol_S)
            res = LevelResult(
                H=coarse.pitch, n_coarse=coarse_sys.n,
                err_L2_fem=l2_operator_error(fem_pair),
                err_L2_lod=l2_operator_error(lod_pair),
                err_V_fem=v_operator_error(fem_pair),
                err_V_lod=v_operator_error(lod_pair),
                time_lod_setup=time_setup, time_solve_fem=time_fem,
                time_solve_lod=time_lod, rank_final=lod_sol.final.rank)
            levels.append(res)
            say(f"level {j}: H={res.H:g} n={res.n_coarse} "
                f"L2 fem/lod = {res.err_L2_fem:.3e}/{res.err_L2_lod:.3e} "
                f"V fem/lod = {res.err_V_fem:.3e}/{res.err_V_lod:.3e} "
                f"(k={k_j})")
            out.write(res.row() + "\n")
            out.flush()

        orders = {}
        if len(levels) >= 2:
            H = [l.H for l in levels]
            for key in ("err_L2_fem", "err_L2_lod", "err_V_fem", "err_V_lod"):
                errs = [getattr(l, key) for l in levels]
                orders["order_" + key[4:]] = observed_order(errs, H)
            for name, vals in orders.items():
                line = f"# {name}=" + ",".join(f"{v:.4f}" for v in vals)
                out.write(line + "\n")
                say(line[2:])

    return ConvergenceRecord(cfg, levels, orders, system.n, k_levels,
                             time_reference, ref.final.rank)


# -- config file parsing ------------------------------------------------------

def _parse_number(text: str) -> float:
    """Float literals plus the dyadic shorthand 2^-k / 2**-k."""
    text = text.strip()
    m = re.fullmatch(r"2\s*(?:\^|\*\*)\s*(-?\d+)", text)
    if m:
        return 2.0 ** int(m.group(1))
    return float(text)


# (section, key) -> (attribute, cast); configparser lowercases keys, and
# [solver] attributes are SolverConfig fields
_CONFIG_KEYS = {
    ("experiment", "preset"): ("preset", str),
    ("experiment", "domain"): ("domain_kind", str),
    ("experiment", "j_min"): ("j_min", int),
    ("experiment", "j_max"): ("j_max", int),
    ("experiment", "j_ref"): ("j_ref", int),
    ("experiment", "k"): ("k", int),
    ("experiment", "workers"): ("workers", int),
    ("experiment", "output"): ("output", str),
    ("kappa", "type"): ("kappa_type", str),
    ("kappa", "epsilon"): ("epsilon", _parse_number),
    ("kappa", "lo"): ("kappa_lo", _parse_number),
    ("kappa", "hi"): ("kappa_hi", _parse_number),
    ("kappa", "seed"): ("seed", int),
    ("kappa", "n_stripes"): ("n_stripes", int),
    ("kappa", "width"): ("stripe_width", _parse_number),
    ("kappa", "value"): ("stripe_value", _parse_number),
    ("kappa", "background"): ("background", _parse_number),
    ("kappa", "constant"): ("constant_value", _parse_number),
    ("solver", "t"): ("T", _parse_number),
    ("solver", "n_t"): ("n_t", int),
    ("solver", "substeps"): ("substeps", int),
    ("solver", "quad_nodes"): ("quad_nodes", int),   # old alias, see below
    ("solver", "compress_tol"): ("compress_tol", _parse_number),
}


def parse_config(path: str) -> ExperimentConfig:
    """Read a key = value config file with [experiment], [kappa] and
    [solver] sections; unspecified keys fall back to the preset, and
    unknown sections or keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        parser.read_file(fh)

    values = {}
    for section in parser.sections():
        if section not in {sec for sec, _ in _CONFIG_KEYS}:
            raise ValueError(f"unknown config section [{section}]")
        for key, text in parser.items(section):
            if (section, key) not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} in [{section}]")
            attr, cast = _CONFIG_KEYS[section, key]
            try:
                values[section, attr] = cast(text)
            except ValueError:
                raise ValueError(f"bad value {text!r} for {key!r} in "
                                 f"[{section}]") from None

    cfg = preset_config(values.get(("experiment", "preset"), "grid"))
    solver = {}
    for (section, attr), value in values.items():
        if section == "solver":
            solver[attr] = value
        else:
            setattr(cfg, attr, value)
    # quad_nodes was a second knob on the same substep grid
    if "quad_nodes" in solver:
        solver["substeps"] = max(solver.get("substeps", cfg.solver.substeps),
                                 solver.pop("quad_nodes"))
    cfg.solver = replace(cfg.solver, **solver)
    return cfg.validate()


def write_kappa_grid(cfg: ExperimentConfig, out_path: str) -> None:
    dump_kappa(build_kappa(cfg), out_path)
