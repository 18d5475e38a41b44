"""Closed graphs of prescribed Weingarten curvature in warped products.

A numerical library for finding height fields z on a flat torus whose
graph in the warped product (t_lo, t_hi) x_h T^n has normalized r-th mean
curvature equal to a prescribed positive function, via damped Newton
inside a homotopy continuation, together with desk-scale verification of
every structural hypothesis the construction rests on (mean-convex
leaves, barrier levels, cone admissibility, gauge decay).
"""

from .ambient import WarpingProfile, ambient_curvature, kappa
from .curvature import (CurvatureSpec, check_structural, f_eval, f_grad,
                        in_cone)
from .errors import (BarrierViolation, BisectError, ConeError, ConfigError,
                     ContinuationStall, DomainError, FrameError, GaugeError,
                     NewtonStall, ProfileError, ShapeError, ValidationError,
                     WarpcurveError)
from .geometry import (compute_geometry, special_frame_deviations,
                       support_identity_check)
from .grid import NodeField, l2_norm, make_grid, random_smooth
from .oracle import OracleReport, fd_gradcheck
from .problem import (Gauge, HomotopyProblem, barrier_crossings,
                      build_custom_prescription, build_homotopy, build_phi,
                      build_prescription)
from .solver import (SolverConfig, assemble_jacobian, build_manufactured,
                     continuation, manufactured_residual_norm, newton_solve,
                     residual)

__version__ = "0.1.0"
