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
                       kappa_random_grid, kappa_stripes, load_kappa,
                       restrict_system)
from .bench import (ExperimentConfig, PRESETS, observed_order, parse_config,
                    preset_config, run_experiment)
from .dre import (DreSolution, SolverConfig, apply_exp_F, simulate_closed_loop,
                  solve_dre, strang_step)
from .lod import (LodBasis, build_lod_basis, clement_interpolation,
                  corrector_decay_profile, default_patch_radius,
                  load_lod_basis, patch_elements, save_lod_basis)
from .lowrank import (LowRankFactor, add, apply_exp_G, compress, dump_factor,
                      load_factor, zero_factor)
from .mesh import (Domain, TriMesh, build_base_mesh, dump_mesh, l_shape,
                   prolongation, refine_uniform, shape_regularity,
                   u_shape, unit_square)
from .norms import (LiftedPair, SparseCholesky, l2_operator_error,
                    make_lifted_pair, v_operator_error)

__version__ = "0.1.0"
