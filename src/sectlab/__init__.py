"""sectlab: numerical integral geometry of sections of convex bodies.

Exact log-domain special constants, star-body and density oracles,
Haar-distributed subspaces, reproducible Monte Carlo estimators for
section functionals, and a verification suite that checks every
computable identity and inequality of the theory with explicit error
control.
"""

from .constants import (gamma_within_bounds, growth_ratio, log_ball_volume, log_bp_constant,
                        log_gamma_nk)
from .estimates import CheckReport, Estimate
from .bodies import (Ellipsoid, HPolytope, LpBall, StarBody, body_from_json,
                     body_from_spec, centered_simplex, cube, linear_image, translate)
from .grassmann import Frame, sample_haar
from .measures import (DensityOracle, GaussianDensity, LebesgueDensity, RadialExpDensity,
                       density_from_json, density_from_spec, measure_of_body)
from .sampler import StreamHandle, sample_restricted, simplex_volume, uniform_in_body
from .functionals import dual_affine_quermass
from .verifier import CHECKS, SuiteConfig, SuiteResult, run_suite

__version__ = "0.1.0"
