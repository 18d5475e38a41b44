"""Warping profiles h(t) on an open interval and the ambient quantities
derived pointwise from them: the fiber principal curvature kappa = h'/h,
which is also the radial curvature level k(t) = f(kappa, ..., kappa) of
every normalized curvature function (warpcurve.curvature), and the
sectional curvature coefficients of the warped metric
dt^2 + h^2(t) dsigma^2.

Profiles are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import numpy as np
# scipy.interpolate loads on first use, as only tables need it: it pulls
# in optimize, spatial and special, whose memory and start-up time the
# closed-form profiles are spared
import scipy

from .errors import ConfigError, DomainError, ProfileError

KINDS = ("cosh", "exp", "power", "custom-table")

# interior points of the h > 0, kappa > 0 scan (WarpingProfile.scan)
_SCAN = 1024


class WarpingProfile:
    """The warping function h, its first two derivatives, and its
    antiderivative, on an explicit open interval (t_lo, t_hi).

    Built-in kinds: ``cosh`` (h = cosh t on a subinterval of [0, inf)),
    ``exp`` (h = e^t, constant kappa = 1), ``power`` (h = t^p, p > 0,
    decreasing kappa = p/t).  ``custom-table`` interpolates samples with a
    not-a-knot cubic spline; its derivatives come from the spline, and
    h > 0 and kappa > 0 are vetted on the 1024-point scan.
    """

    def __init__(self, kind, params, t_lo, t_hi, _spline=None):
        if kind not in KINDS:
            raise ConfigError(f"unknown profile kind {kind!r}")
        if not (t_lo < t_hi):
            raise ConfigError("profile needs an explicit interval t_lo < t_hi")
        self.kind = kind
        self.params = tuple(float(p) for p in params)
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        # an infinite end or exponent passes the order and sign checks and
        # fails later under another name (t^inf underflows h to 0)
        for name, value in (("t_lo", self.t_lo), ("t_hi", self.t_hi)):
            if not np.isfinite(value):
                raise ConfigError(f"profile {name} must be finite, "
                                  f"got {value!r}")
        self._spline = _spline
        if kind == "power":
            if not self.params or not 0 < self.params[0] < np.inf:  # NaN too
                raise ConfigError(f"power profile needs a finite exponent "
                                  f"p > 0, got {self.params}")
            if self.t_lo < 0:
                raise ProfileError("power profile lives on (0, inf)")
        if kind == "custom-table" and _spline is None:
            raise ConfigError("custom-table profile requires samples; "
                              "use WarpingProfile.from_table")
        self._check_ends()
        if kind == "custom-table":
            self._antideriv = _spline.antiderivative()
            self._scan_table()

    # -- constructors ------------------------------------------------------

    @classmethod
    def cosh(cls, t_lo, t_hi):
        return cls("cosh", (), t_lo, t_hi)

    @classmethod
    def exp(cls, t_lo, t_hi):
        return cls("exp", (), t_lo, t_hi)

    @classmethod
    def power(cls, p, t_lo, t_hi):
        return cls("power", (p,), t_lo, t_hi)

    @classmethod
    def from_table(cls, ts, hs, t_lo=None, t_hi=None):
        ts = np.asarray(ts, dtype=float)
        hs = np.asarray(hs, dtype=float)
        if ts.ndim != 1 or ts.shape != hs.shape or ts.size < 4:
            raise ConfigError("table needs matching 1-d arrays, >= 4 samples")
        for name, arr in (("abscissae", ts), ("values", hs)):
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"table {name} must be finite, got "
                                  f"{arr.tolist()}")
        if not np.all(np.diff(ts) > 0):
            raise ConfigError("table abscissae must be strictly increasing")
        spline = scipy.interpolate.CubicSpline(ts, hs, bc_type="not-a-knot")
        if t_lo is None:
            t_lo = ts[0]
        if t_hi is None:
            t_hi = ts[-1]
        if t_lo < ts[0] or t_hi > ts[-1]:
            raise ConfigError("requested interval exceeds the table range")
        return cls("custom-table", (), t_lo, t_hi, _spline=spline)

    def _check_ends(self):
        """Refuse an end where h, h' or h'' overflows.

        The validation lattices come within 1e-9 (t_hi - t_lo) of the ends,
        so an overflow there reaches them as a NaN that a hypothesis or a
        verify row would be blamed for.  Evaluated with overflow raised;
        t = 0 is skipped, as it is the open end of a power profile, where
        h' or h'' may have a pole.
        """
        with np.errstate(over="raise"):
            for name, t in (("t_lo", self.t_lo), ("t_hi", self.t_hi)):
                try:
                    ok = t == 0 or np.isfinite(
                        self._values(np.float64(t))).all()
                except FloatingPointError:
                    ok = False
                if not ok:
                    p = (f", p = {self.params[0]!r}"
                         if self.kind == "power" else "")
                    raise ConfigError(
                        f"{self.kind} profile overflows at {name} = {t!r}"
                        f"{p}: h, h' or h'' is not a finite float there")

    def _scan_table(self):
        (h, t_h), (kap, t_kap) = self.scan()
        if not h > 0:
            raise ProfileError(f"tabulated h <= 0 near t={t_h:.6g}")
        if not kap > 0:
            raise ProfileError(
                f"tabulated profile has kappa <= 0 near t={t_kap:.6g}")

    def scan(self):
        """(min h, t) and (min kappa, t) on linspace(t_lo, t_hi, 1026)
        without its ends, each t the first attaining it, NaN first: tables
        are vetted on it at construction, and verify tabulates it."""
        t = np.linspace(self.t_lo, self.t_hi, _SCAN + 2)[1:-1]
        h, h1, _ = self._values(t)
        kap = h1 / h
        i, j = int(np.argmin(h)), int(np.argmin(kap))
        return (float(h[i]), float(t[i])), (float(kap[j]), float(t[j]))

    # -- pointwise evaluation ----------------------------------------------

    def _check_domain(self, t):
        t = np.asarray(t, dtype=float)
        # one min and one max: a NaN propagates through both and fails the
        # comparison, as an infinite end does; an empty t passes
        if not (self.t_lo < t.min(initial=np.inf)
                and t.max(initial=-np.inf) < self.t_hi):
            raise DomainError(
                f"t outside profile interval ({self.t_lo:.6g}, {self.t_hi:.6g})")
        return t

    def eval(self, t):
        """Return (h, h', h'') at t; t may be a scalar or an array."""
        scalar = np.isscalar(t) or np.ndim(t) == 0
        h, h1, h2 = self._values(self._check_domain(t))
        if np.any(h <= 0):
            raise ProfileError("h(t) <= 0 inside the queried interval")
        if scalar:
            return float(h), float(h1), float(h2)
        return h, h1, h2

    def _values(self, t):
        """(h, h', h'') at heights t inside the interval, unchecked."""
        if self.kind == "cosh":
            h = np.cosh(t)
            h1 = np.sinh(t)
            h2 = h
        elif self.kind == "exp":
            h = np.exp(t)
            h1 = h
            h2 = h
        elif self.kind == "power":
            p = self.params[0]
            h = t ** p
            h1 = p * t ** (p - 1.0)
            h2 = p * (p - 1.0) * t ** (p - 2.0)
        else:
            h = self._spline(t)
            h1 = self._spline(t, 1)
            h2 = self._spline(t, 2)
        return h, h1, h2

    def antiderivative(self, t):
        """An antiderivative H of h (closed form for built-in kinds)."""
        scalar = np.isscalar(t) or np.ndim(t) == 0
        t = self._check_domain(t)
        if self.kind == "cosh":
            H = np.sinh(t)
        elif self.kind == "exp":
            H = np.exp(t)
        elif self.kind == "power":
            p = self.params[0]
            H = t ** (p + 1.0) / (p + 1.0)
        else:
            H = self._antideriv(t)
        return float(H) if scalar else H


# -- module-level operations ------------------------------------------------

def kappa(profile, t):
    """Principal curvature h'/h of the slice {t} x M (must be positive)."""
    h, h1, _ = profile.eval(t)
    return k_level(h, h1)


def k_level(h, h1):
    """kappa = h'/h from h and h' at the heights, for callers that already
    hold the profile values; ProfileError where it is not positive.

    It is the slices' curvature level f(kappa, ..., kappa) for every order
    r: f is homogeneous of degree one with f(1, ..., 1) = 1.
    """
    kap = h1 / h
    if np.any(np.asarray(kap) <= 0):
        raise ProfileError(
            "kappa = h'/h <= 0: profile violates mean convexity of the leaves")
    return kap


def ambient_curvature(profile, t):
    """Sectional curvature coefficients of the warped metric at level t.

    Returns (c_radial, c_tangential) = (h''/h, -(h'/h)^2): the radial
    coefficient multiplies the dt wedge forms, the tangential one is the
    flat-base value (the base curvature forms vanish on the torus).
    """
    h, h1, h2 = profile.eval(t)
    return h2 / h, -((h1 / h) ** 2)
