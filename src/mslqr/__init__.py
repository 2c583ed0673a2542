"""Multiscale finite element LQR / differential Riccati benchmark library.

Solves linear-quadratic regulator Riccati equations whose state equation
carries a rough diffusion coefficient: P1 finite elements on nested
triangulations, a corrected (multiscale) coarse basis built from localized
fine-scale problems, a low-rank splitting time integrator, and operator
norm error evaluation between discretization levels.
"""

from .assembly import (CoefficientField, LqrSystem, assemble_input_squares,
                       assemble_mass, assemble_output_mean,
                       assemble_stiffness, dump_kappa, kappa_constant,
                       kappa_random_grid, kappa_stripes, restrict_system)
from .bench import (ExperimentConfig, PRESETS, observed_order, parse_config,
                    preset_config, run_experiment)
from .dre import (DreSolution, FlowCache, SolverConfig, apply_exp_F,
                  simulate_closed_loop, solve_dre, strang_step)
from .lod import (LodBasis, build_lod_basis, clement_interpolation,
                  corrector_decay_profile, default_patch_radius,
                  patch_elements)
from .lowrank import LowRankFactor, apply_exp_G, compress, zero_factor
from .mesh import (Domain, TriMesh, build_base_mesh, l_shape, prolongation,
                   refine_uniform, u_shape, unit_square)
from .norms import SparseCholesky, l2_operator_error, v_operator_error
from .runtime import pin_blas

pin_blas()

__version__ = "0.1.0"
