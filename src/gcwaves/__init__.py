"""Two-layer gravity-capillary solitary waves.

Dispersion analysis, cubic-NLS reduction coefficients, explicit soliton
and test-profile construction, direct minimization of the constrained
wave-energy objective on periodic spectral grids, and an independent
elliptic oracle for the kinetic-energy functional.

The top level exports the names the benchmark and the scripts use;
everything else is imported from its own module (``gcwaves.fieldops``,
``gcwaves.minimizer``, ...).
"""

from .dispersion import CriticalPoint, Params, eval_lambda, find_critical
from .fieldops import ProfilePair
from .nls import NlsCoefficients, compute_coefficients
from .dno import StripGrid

__all__ = [
    "CriticalPoint", "Params", "eval_lambda", "find_critical",
    "ProfilePair", "NlsCoefficients", "compute_coefficients", "StripGrid",
]

__version__ = "0.1.0"
