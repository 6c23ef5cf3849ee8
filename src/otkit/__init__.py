"""otkit: optimal k-thresholding toolkit for sparse linear inverse problems.

Heavy-ball accelerated optimal-k-thresholding algorithms (exact and relaxed,
with and without the pursuit re-fit), their inner solvers, the convergence
constants and parameter windows of the underlying analysis, and a seeded
phase-transition benchmark harness.
"""

from .algorithms import (ALL_VARIANTS, AlgorithmConfig, RunResult, config_for,
                         run)
from .bench import (EnsembleSpec, GridResult, TrialRecord, equiangular_frame,
                    generate_instance, run_trial, success_grid,
                    transition_curve, transition_point, trial_seed,
                    write_transition_csv, write_trials_csv)
from .bounds import (BoundConstants, RICProfile, convergence_envelope,
                     gamma_sharp_omega, gamma_star, gamma_star_omega,
                     geometric_envelope, hbot_constants, hbrot_constants,
                     l2_bound_g, parameter_window, ric_exact, ric_profile,
                     s_of_k, xi_q)
from .core import (IterateTrace, ProblemInstance, hard_threshold,
                   load_matrix_csv, load_vector_csv, save_matrix_csv,
                   save_vector_csv, support, top_k_indices)
from .errors import EnumerationGuardError, ParameterWindowError
from .subproblems import (least_squares_on_support, project_capped_simplex,
                          solve_binary_ot, solve_relaxed_ot)

__version__ = "0.1.0"
