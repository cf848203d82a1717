"""gSQG point vortices: dynamics, self-similar triples, stability, sweeps."""

__version__ = "0.1.0"

from .kernel import (ALPHA_GUARD, ConservedQuantities, DomainError,
                     SingularityError, VortexState, conserved,
                     coupling_constant, rhs)
from .integrator import (IntegratorConfig, Status, Trajectory,
                         collapse_time_fit, integrate, integrate_collapse)
from .selfsimilar import (Classification, SelfSimilarMotion, TripleConfig,
                          center, check_H_L_zero, classify,
                          motion_from_config, reference_time,
                          selfsimilar_rate, zeta, RATE_TOL, SS_TOL)
from .stability import (EIG_TOL, HypothesisReport, MuRoots, StabilityMatrix,
                        eigen4, hypothesis_a_check, l_matrix,
                        mu_coefficients, mu_roots, propagator_norm)
from .search import (ReducedParams, SweepRecord, SweepResult, cardano_discriminant,
                     cardano_y, oriented_config, reduced_config, sweep, sweep_csv,
                     x_interval, y_from_x)
from .burstsim import (BurstDiagnostics, BurstScenario, collapse_scenario,
                       convergence_study, make_burst_initial, run_burst)

__all__ = [name for name in dir() if not name.startswith("_")]
