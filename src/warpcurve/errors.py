"""Exception taxonomy shared by all warpcurve modules.

Each class maps to a distinct CLI exit code (see warpcurve.cli.EXIT_CODES).
"""


class WarpcurveError(Exception):
    """Base class for all library errors."""


class DomainError(WarpcurveError):
    """A height value left the open ambient interval (t_lo, t_hi)."""


class ProfileError(WarpcurveError):
    """The warping function violates positivity or mean convexity."""


class ConfigError(WarpcurveError):
    """Invalid or inconsistent construction parameters."""


class ShapeError(WarpcurveError):
    """A node field does not match the grid it claims to live on."""


class ConeError(WarpcurveError):
    """Principal curvatures left the Garding cone (inadmissible state)."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class FrameError(WarpcurveError):
    """Special frame undefined: the base gradient vanishes at the node."""


class ValidationError(WarpcurveError):
    """A prescription hypothesis failed; carries the letter and witness."""

    def __init__(self, hypothesis, t, node, detail):
        self.hypothesis = hypothesis
        self.t = t
        self.node = node
        super().__init__(f"hypothesis ({hypothesis}) violated at t={t!r}, "
                         f"node={node!r}: {detail}")


class GaugeError(WarpcurveError):
    """The decaying gauge is not strictly decreasing, or eps_phi is invalid.

    Raise eps_phi when phi' >= 0 at a finite phi; lower it when phi
    underflows to 0 or overflows, so the sign of phi' is lost
    (problem.build_phi names which)."""


class BisectError(WarpcurveError):
    """No sign change bracketing a crossing height at some node."""


class NewtonStall(WarpcurveError):
    """Newton at fixed s failed: it ran out of iterations or backtracking
    halvings, its corrections contracted by a ratio Theta above theta_max,
    or the linear step was non-finite (solver.newton_solve)."""


class ContinuationStall(WarpcurveError):
    """Continuation step fell below ds_min before reaching s = 1."""


class BarrierViolation(WarpcurveError):
    """An accepted iterate left the open slab (t_minus, t_plus)."""
