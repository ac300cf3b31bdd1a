"""Two-layer gravity-capillary solitary waves.

Dispersion analysis, cubic-NLS reduction coefficients, explicit soliton
and test-profile construction, direct minimization of the constrained
wave-energy objective on periodic spectral grids, and an independent
elliptic oracle for the kinetic-energy functional.
"""

from .dispersion import (AssumptionReport, CriticalPoint, Params,
                         eval_PF, eval_a, eval_fbar, eval_g,
                         eval_lambda, find_critical, locate_branch_crossing,
                         refine_degenerate)
from .fieldops import (FunctionalBreakdown, PeriodicGrid, ProfilePair,
                       build_eta_star, eps_of_mu, eval_J, eval_L_trunc,
                       grad_J, make_grid, mu_of_eps,
                       suggest_carrier_multiple, write_profile_csv)
from .nls import (NlsCoefficients, SolitonProfile, build_soliton,
                  check_focusing, compute_a3, compute_a4,
                  compute_coefficients, eval_alpha)
from .dno import DnoSolution, StripGrid, eval_L_exact
from .minimizer import (MinimizeConfig, MinimizeResult, SpeedFit, minimize,
                        speed_expansion_check)

__all__ = [
    "AssumptionReport", "CriticalPoint", "Params", "eval_PF", "eval_a",
    "eval_fbar", "eval_g", "eval_lambda", "find_critical",
    "locate_branch_crossing", "refine_degenerate",
    "FunctionalBreakdown", "PeriodicGrid", "ProfilePair", "build_eta_star",
    "eps_of_mu", "eval_J", "eval_L_trunc", "grad_J", "make_grid",
    "mu_of_eps", "suggest_carrier_multiple",
    "write_profile_csv",
    "NlsCoefficients", "SolitonProfile", "build_soliton", "check_focusing",
    "compute_a3", "compute_a4", "compute_coefficients", "eval_alpha",
    "DnoSolution", "StripGrid", "eval_L_exact",
    "MinimizeConfig", "MinimizeResult", "SpeedFit", "minimize",
    "speed_expansion_check",
]

__version__ = "0.1.0"
