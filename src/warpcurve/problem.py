"""Prescriptions, barrier levels, the decaying gauge, and the homotopy.

The target equation prescribes f(lam) = psi(z, u).  The homotopy

    Psi(s, t, u) = s psi(t, u) + (1 - s) phi(t) k(t)

connects it (s = 1) to a problem with the exact constant solution t0
(s = 0), where k(t) = kappa(t) = h'/h is the radial curvature level (the
normalized f takes the value kappa at (kappa, ..., kappa), see
warpcurve.curvature) and phi is a positive decreasing gauge with
phi(t0) = 1.

The built-in prescription family is

    psi(t, u) = (c0 + eps * g(u)) / h(t),

with g a product of integer-frequency cosines: a Prescription, built by
build_prescription.  For it h * psi is t-independent, so the decay
hypothesis d/dt (h psi) <= 0 holds with equality.  The paper's general
psi is a CustomPrescription, built by build_custom_prescription from a
psi_fn and its exact t-derivative psi_t_fn; its decay is checked up to a
rounding slack.  Each form is its own type, with its own psi, psi_pair,
(c) lattice and slack and separable key.  The gauge is the explicit
closed form

    phi(t) = k(t0) h(t0) exp(eps_phi (t0 - t)) / (k(t) h(t)),

which turns the homotopy drift condition at s = 0 into the identity
d/dt (phi k) + kappa (phi k) = -eps_phi * phi k < 0.

psi is evaluated in one place, each form's psi / psi_pair, at heights t
over a flat node index / all nodes, from values the caller already holds (the
solver passes the geometry's h, h').  Each hypothesis margin is computed
once, here, as a CheckRow with the first witness of its value, by one
reducer, _reduce (the point np.argmin or np.argmax picks on the full
lattice, stacked over s for the homotopy, NaN first): hypothesis_rows
for positivity and (a)-(c), which validation raises from;
HomotopyProblem.gauge_report for the gauge's (a)-(d) and phi(t0) = 1,
and homotopy_report for (ii)-(v).  verify only tabulates them.

For the radial-decay form these margins cost T + M work on a T x M
lattice, not T * M.  At a fixed (s, t) every lattice entry is a rounded
monotone function of the node's h psi = c0 + eps g(u): psi = (h psi)/h,
psi - k, k - psi, Psi = s psi + (1 - s) psi0, Psi - k and k - Psi
(homotopy (iii), (iv) at t_minus, t_plus).  This needs two
preconditions: h > 0, which profile.eval enforces, and s >= 0, which
holds on S_LATTICE.  Rounded division by h > 0, subtraction of or from
a t-constant and multiplication by s >= 0 never reverse an order.  So
the worst node of every t-row is the node where h psi is smallest or
largest; NaN included, which np.argmin and np.argmax both pick first.
_rows evaluates those two columns, takes the first t-row holding the
extreme, and recomputes that one row over all nodes.  Its first argmin
is the witness np.argmin over the whole lattice gives, rounding ties
between different h psi values included.  The decay (c) and the drift
(v) are node-independent for this form and are evaluated as t-columns.
Custom forms are evaluated on the whole lattice.

The same argument makes barrier_crossings cost two root-finds instead of
M.  F = psi - k = (h psi - h k)/h is, at every t, a rounded
nondecreasing function of the node's h psi, so the lowest and highest
crossings belong to the first argmin and argmax of h psi, and only
those two nodes are root-found.  F(t_minus) and F(t_plus) are monotone
in it too, so the bracket's sign check passes at those two nodes
exactly when it passes at all of them; only when it does not are both
ends recomputed over every node, so that BisectError names the first
failing node of the full check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ambient
from .errors import (BisectError, ConfigError, GaugeError, ValidationError)

T_LATTICE = 257            # t-points of the validation lattice
S_LATTICE = (0.0, 0.25, 0.5, 0.75, 1.0)
CUSTOM_C_SLACK = 1e-10     # rounding slack of h' psi + h psi_t on custom forms
_ROOT_ULPS = 4             # crossing brackets end at most this many ulps wide
_ROOT_MAX_ITERS = 100      # cap on the root-finding passes over the nodes
_MARGIN_FACTOR = 0.5       # how far beyond the barriers (a)/(b) are sampled
_STRICT = "> 0 (strict lattice)"   # requirement of the homotopy rows


def angular_mode(mode, n, N):
    """The n integer frequencies of an angular mode, each resolved by N
    nodes per axis: |m| <= N/2, as a higher one samples the same cosine
    as a lower one.  One value at n = 2 means (m, 0).  A frequency must be
    a finite number equal to an integer (1.0 is 1)."""
    freqs = np.atleast_1d(mode).tolist()
    # Python numbers: a float's % 1 is NaN at NaN and inf, and an int of
    # any size is exact, so nothing overflows or warns
    if not all(isinstance(m, (int, float)) and m % 1 == 0 for m in freqs):
        raise ConfigError(f"angular mode needs integer frequencies, "
                          f"got {mode!r}")
    freqs = tuple(int(m) for m in freqs) + (0,) * (n == 2 and len(freqs) == 1)
    if len(freqs) != n:
        raise ConfigError(f"angular mode needs {n} frequencies, got {freqs}")
    if any(2 * abs(m) > N for m in freqs):
        raise ConfigError(f"angular mode needs |m| <= N/2 = {N / 2:g} for "
                          f"N = {N} nodes per axis, got {mode!r}")
    return freqs


def radial_decay_inputs(c0, eps, mode, n, N):
    """The one check of the radial-decay inputs: c0 finite and > 0, eps
    finite, and the mode as angular_mode returns it for n and N."""
    # each comparison is False on NaN too
    for need, ok, value in (("c0 > 0", 0 < c0 < np.inf, c0),
                            ("eps", abs(eps) < np.inf, eps)):
        if not ok:
            raise ConfigError(f"radial-decay prescription needs a finite "
                              f"{need}, got {value!r}")
    return angular_mode(mode, n, N)


def check_slab(profile, t_minus, t_plus):
    """The barrier slab must lie inside the profile interval, in order."""
    if not (profile.t_lo < t_minus < t_plus < profile.t_hi):
        raise ConfigError(
            f"need t_lo < t_minus < t_plus < t_hi, got "
            f"({profile.t_lo}, {t_minus}, {t_plus}, {profile.t_hi})")


def _angular_field(grid, mode):
    """Product of per-axis cosines with integer frequencies, flat order."""
    X = grid.coords() * (2.0 * np.pi / grid.L)
    out = np.ones(grid.shape)
    for d, m in enumerate(angular_mode(mode, grid.n, grid.N)):
        out = out * np.cos(m * X[d])        # cos(0 X) is exactly 1
    return grid.flatten(out)


@dataclass
class CheckRow:
    """One checked condition: worst value, requirement and verdict.

    witness is the first lattice point attaining the value -- (t, node)
    for the prescription hypotheses, (s, t, node) for the homotopy
    conditions, (t,) for the gauge and profile scans -- and None for
    checks without one.
    """

    name: str
    value: float
    requirement: str
    passed: bool
    witness: tuple = None

    @classmethod
    def against(cls, name, value, requirement, witness=None):
        """The row whose verdict is its requirement: the leading ">", "<"
        or "<=" applied to the number after it ("> 0 (strict lattice)"
        reads > 0).  A NaN value fails every requirement."""
        op, bound = requirement.split()[:2]
        value, bound = float(value), float(bound)
        passed = {">": value > bound, "<": value < bound,
                  "<=": value <= bound}[op]
        return cls(name, value, requirement, passed, witness)

    def format(self, width):
        mark = "pass" if self.passed else "FAIL"
        return (f"{self.name:<{width}s} {self.value: .17g}  "
                f"[{self.requirement}]  {mark}")


@dataclass
class _PrescriptionSlab:
    """What both prescription forms hold: the profile, the curvature spec
    and the grid, which must have the same n, and the barrier slab.

    Each form supplies psi at heights t over the nodes a flat index
    selects and psi_pair over all nodes, t broadcasting against them,
    from the caller's profile values h = h(t) and h1 = h'(t); the
    lattice d/dt (h psi) of hypothesis (c), its slack c_slack, and the
    separable_key the margins are reduced by (see the module docstring).
    """

    profile: object = field(repr=False)
    spec: object = field(repr=False)
    grid: object = field(repr=False)
    t_minus: float
    t_plus: float

    def __post_init__(self):
        if self.spec.n != self.grid.n:
            raise ConfigError(f"curvature spec n = {self.spec.n} does not "
                              f"match the grid's n = {self.grid.n}")


@dataclass
class Prescription(_PrescriptionSlab):
    """The radial-decay prescription psi = (c0 + eps g(u)) / h.

    h_psi = c0 + eps g(u) is stored once, read-only, in flat node order
    (axis 0 fastest).  Constructed directly, a Prescription checks only
    the spec's n and the mode (angular_mode); build_prescription also
    checks the slab (check_slab) and the inputs (radial_decay_inputs) and
    verifies the existence hypotheses.
    """

    c0: float
    eps: float
    mode: tuple
    h_psi: np.ndarray = field(default=None, init=False, repr=False)

    c_slack = 0.0       # h psi is exactly t-independent

    def __post_init__(self):
        super().__post_init__()
        self.h_psi = self.c0 + self.eps * _angular_field(self.grid, self.mode)
        self.h_psi.flags.writeable = False

    def psi(self, t, h, node):
        """psi at heights t over the selected nodes, from h = h(t)."""
        return self.h_psi[node] / h

    def psi_pair(self, t, h, h1):
        """(psi, d_t psi) at heights t over all nodes."""
        num = self.h_psi
        return num / h, -(h1 / h) * num / h

    def dt_h_psi_lattice(self, tarr):
        """d/dt (h psi) on (t-lattice) x nodes: one column of zeros, as
        h psi = c0 + eps g(u) is exactly t-independent."""
        return np.zeros((len(tarr), 1))

    def separable_key(self):
        """h psi, which each lattice row is monotone in."""
        return self.h_psi


@dataclass
class CustomPrescription(_PrescriptionSlab):
    """A prescription psi_fn(t, x) with its exact t derivative
    psi_t_fn(t, x), x the node coordinates, shape (n, size) in flat node
    order; psi sees x[:, node], so x[d] broadcasts against t.
    Constructed directly it checks only the spec's n;
    build_custom_prescription also checks the slab and verifies the
    existence hypotheses.
    """

    psi_fn: object = field(repr=False)
    psi_t_fn: object = field(repr=False)
    coords: np.ndarray = field(default=None, init=False, repr=False)

    c_slack = CUSTOM_C_SLACK

    def __post_init__(self):
        super().__post_init__()
        self.coords = np.stack([self.grid.flatten(c)
                                for c in self.grid.coords()])

    def psi(self, t, h, node):
        """psi at heights t over the selected nodes."""
        return self.psi_fn(t, self.coords[:, node])

    def psi_pair(self, t, h, h1):
        """(psi, d_t psi) at heights t over all nodes, each broadcast to
        t's shape against the nodes: a psi_fn or psi_t_fn may return a
        constant, which psi_of at s = 1 passes on unmixed."""
        shape = np.broadcast_shapes(np.shape(t), self.coords.shape[1:])
        return tuple(np.broadcast_to(fn(t, self.coords), shape)
                     for fn in (self.psi_fn, self.psi_t_fn))

    def dt_h_psi_lattice(self, tarr):
        """d/dt (h psi) on (t-lattice) x nodes, as h' psi + h psi_t."""
        t, h, h1 = _column(self.profile, tarr)
        psi, psi_t = self.psi_pair(t, h, h1)
        return h1 * psi + h * psi_t

    def separable_key(self):
        """None: the margins are reduced over the whole lattice."""
        return None


def _column(profile, tarr):
    """A t-lattice as a column, with h and h' there."""
    t = np.asarray(tarr)[:, None]
    h, h1, _ = profile.eval(t)
    return t, h, h1


def _rows(lattice, key):
    """The t-rows of a (t-rows, nodes) lattice that hold its first minimum.

    lattice(rows, node) evaluates the rows a slice selects at a flat node
    index.  Returns (index of the first row returned, those rows over all
    nodes).  Without a key that is the whole lattice.  With the key of
    Prescription.separable_key, every row is monotone in it: the two
    columns at its argmin and argmax hold each row's minimum (or first
    NaN), so only they and the first row attaining the least of these
    are evaluated.
    """
    if key is None:
        return 0, lattice(slice(None), slice(None))
    ext = lattice(slice(None), np.array([np.argmin(key), np.argmax(key)]))
    row_min = np.take_along_axis(ext, np.argmin(ext, axis=1)[:, None], axis=1)
    it = int(np.argmin(row_min))
    return it, lattice(slice(it, it + 1), slice(None))


def _reduce(slices, tarr, pick=np.argmin, svals=None):
    """Value at the first point pick selects on a row's lattice, and where.

    slices are the pairs (first row index, rows) that _rows returns, the
    rows running over the heights tarr: one pair per s in svals, or a
    single one without svals.  The value and its witness -- (t, node) on
    a (t, node) lattice, (t,) on a t-lattice, s prepended with svals --
    are those pick (np.argmin or np.argmax) gives over the stacked full
    lattices, NaN first, but only one slice is held at a time.
    """
    values, where = [], []
    for it0, a in slices:
        pos = np.unravel_index(int(pick(a)), a.shape)
        values.append(a[pos])
        where.append((float(tarr[it0 + pos[0]]),)
                     + tuple(int(i) for i in pos[1:]))
    k = int(pick(values))       # the first slice holding the pick
    return float(values[k]), \
        where[k] if svals is None else (svals[k],) + where[k]


def build_prescription(profile, spec, grid, c0, eps, mode, *, t_minus,
                       t_plus):
    """Construct the radial-decay Prescription and verify the existence
    hypotheses (_validate_prescription).  The slab and the inputs are
    checked first, by check_slab and radial_decay_inputs, the checks the
    CLI runs at load."""
    check_slab(profile, t_minus, t_plus)
    radial_decay_inputs(c0, eps, mode, grid.n, grid.N)
    p = Prescription(profile=profile, spec=spec, grid=grid,
                     t_minus=float(t_minus), t_plus=float(t_plus),
                     c0=float(c0), eps=float(eps), mode=mode)
    _validate_prescription(p)
    return p


def build_custom_prescription(profile, spec, grid, psi_fn, psi_t_fn, *,
                              t_minus, t_plus):
    """Construct a CustomPrescription and verify the existence
    hypotheses (_validate_prescription), after check_slab."""
    check_slab(profile, t_minus, t_plus)
    p = CustomPrescription(profile=profile, spec=spec, grid=grid,
                           t_minus=float(t_minus), t_plus=float(t_plus),
                           psi_fn=psi_fn, psi_t_fn=psi_t_fn)
    _validate_prescription(p)
    return p


def validation_lattices(p):
    """t-lattices used by the hypothesis checks: (below, slab, above)."""
    lo, hi = p.profile.t_lo, p.profile.t_hi
    inset = 1e-9 * (hi - lo)
    width = _MARGIN_FACTOR * (p.t_plus - p.t_minus)
    below = np.linspace(max(lo + inset, p.t_minus - width), p.t_minus, 65)
    above = np.linspace(p.t_plus, min(hi - inset, p.t_plus + width), 65)
    slab = np.linspace(p.t_minus, p.t_plus, T_LATTICE)
    return below, slab, above


def hypothesis_rows(p):
    """Positivity and hypotheses (a)-(c) on the validation lattices.

    Yields one CheckRow per hypothesis, in the order validation checks
    them, each with its worst lattice value and first (t, node) witness.
    Each lattice is evaluated when its row is drawn, so validation, which
    stops at the first failed row, evaluates none after it.
    """
    below, slab, above = validation_lattices(p)
    key = p.separable_key()
    t, h, _ = _column(p.profile, slab)
    value, w = _reduce(
        [_rows(lambda r, node: p.psi(t[r], h[r], node), key)], slab)
    yield CheckRow.against("prescription: min psi on slab", value, "> 0", w)
    t, h, h1 = _column(p.profile, below)
    k = ambient.k_level(h, h1)
    value, w = _reduce(
        [_rows(lambda r, node: p.psi(t[r], h[r], node) - k[r], key)], below)
    yield CheckRow.against("hypothesis (a): min psi - k, t <= t_minus", value,
                           "> 0", w)
    t, h, h1 = _column(p.profile, above)
    k = ambient.k_level(h, h1)
    value, w = _reduce(
        [_rows(lambda r, node: k[r] - p.psi(t[r], h[r], node), key)], above)
    yield CheckRow.against("hypothesis (b): min k - psi, t >= t_plus", value,
                           "> 0", w)
    value, w = _reduce([(0, p.dt_h_psi_lattice(slab))], slab, np.argmax)
    yield CheckRow.against("hypothesis (c): max d/dt(h psi) on slab", value,
                           f"<= {p.c_slack:g}", w)


# ValidationError letter and detail of each hypothesis_rows row, by name
_FAILURES = {
    "prescription: min psi on slab": ("positivity", "psi = {:.6g} <= 0"),
    "hypothesis (a): min psi - k, t <= t_minus":
        ("a", "psi - k = {:.6g} <= 0 (need psi > k)"),
    "hypothesis (b): min k - psi, t >= t_plus":
        ("b", "k - psi = {:.6g} <= 0 (need psi < k)"),
    "hypothesis (c): max d/dt(h psi) on slab":
        ("c", "d/dt(h psi) = {:.6g} > 0")}


def _validate_prescription(p):
    """Check, in order, positivity of psi on the slab, (a) psi > k at and
    below t_minus, (b) psi < k at and above t_plus, (c) d/dt (h psi) <= 0
    on [t_minus, t_plus].  Raises ValidationError naming the first failed
    hypothesis with a witnessing (t, node)."""
    for row in hypothesis_rows(p):
        if not row.passed:
            letter, detail = _FAILURES[row.name]
            t, node = row.witness
            raise ValidationError(letter, t=t, node=node,
                                  detail=detail.format(row.value))


def barrier_crossings(p):
    """Per-node root of F = psi(t, u) - k(t) on [t_minus, t_plus].

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971), vectorized over
    the nodes: each bracket [lo, hi] with F(lo) > 0 > F(hi) shrinks to
    the secant point, and the F value of an end kept twice in a row is
    halved, so that both ends converge.  The secant point is held half the
    stopping width inside the bracket, so a root within rounding of an end
    still closes it.  A node is done when its bracket is at most
    _ROOT_ULPS ulps wide (the crossing is its midpoint) or F is 0 at the
    secant point (the crossing is that point).  Returns the lowest and
    highest crossing heights: the tightest constant-slice barriers
    compatible with the maximum principle.

    For radial-decay only the first argmin and argmax of
    p.separable_key() are root-found: at every t, F = (h psi - h k)/h is
    a rounded nondecreasing function of the key h psi, so those nodes
    cross lowest and highest.  F at the bracket ends is monotone in it
    too, so the sign check passes at those two nodes exactly when it
    passes at all of them.  Where it does not (a NaN included), both ends
    are recomputed over every node, and BisectError names the first
    failing node of the full check, rounding ties included.  Custom forms
    root-find every node.
    """
    key = p.separable_key()
    every = np.arange(p.grid.size)
    nodes = every if key is None else np.array([np.argmin(key),
                                                np.argmax(key)])

    def F(t):
        h, h1, _ = p.profile.eval(t)
        return np.asarray(p.psi(t, h, nodes)) - ambient.k_level(h, h1)

    def ends():
        lo, hi = np.full(nodes.size, p.t_minus), np.full(nodes.size, p.t_plus)
        return lo, hi, F(lo), F(hi)

    lo, hi, Flo, Fhi = ends()
    if nodes is not every and not (np.all(Flo > 0) and np.all(Fhi < 0)):
        nodes = every
        lo, hi, Flo, Fhi = ends()
    # written so that a NaN F fails it: NaN compares False both ways
    lo_ok, hi_ok = Flo > 0, Fhi < 0
    if not (np.all(lo_ok) and np.all(hi_ok)):
        # argmin/argmax name the first NaN when there is one
        bad = int(np.argmin(Flo)) if not np.all(lo_ok) else int(np.argmax(Fhi))
        raise BisectError(f"no sign change for the crossing at node {bad}")
    picked, cross = nodes, np.empty(p.grid.size)
    lo_kept = hi_kept = np.zeros(nodes.size, dtype=bool)
    for _ in range(_ROOT_MAX_ITERS):
        tol = _ROOT_ULPS * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        done = hi - lo <= tol
        cross[nodes[done]] = 0.5 * (lo + hi)[done]
        keep = ~done
        nodes, lo, hi, Flo, Fhi, lo_kept, hi_kept, tol = (
            a[keep] for a in (nodes, lo, hi, Flo, Fhi, lo_kept, hi_kept, tol))
        if nodes.size == 0:
            break
        c = np.clip((lo * Fhi - hi * Flo) / (Fhi - Flo),
                    lo + 0.5 * tol, hi - 0.5 * tol)
        c = np.where(np.isnan(c), 0.5 * (lo + hi), c)
        Fc = F(c)
        # F = 0 moves both ends onto c; a NaN moves hi, as bisection did
        up = Fc >= 0
        down = ~(Fc > 0)
        Fhi = np.where(up & hi_kept, 0.5 * Fhi, Fhi)
        Flo = np.where(down & lo_kept, 0.5 * Flo, Flo)
        lo, Flo = np.where(up, c, lo), np.where(up, Fc, Flo)
        hi, Fhi = np.where(down, c, hi), np.where(down, Fc, Fhi)
        lo_kept, hi_kept = down, up
    cross[nodes] = 0.5 * (lo + hi)
    return float(cross[picked].min()), float(cross[picked].max())


# -- gauge -------------------------------------------------------------------

@dataclass
class Gauge:
    """Explicit decreasing gauge phi with phi(t0) = 1."""

    profile: object = field(repr=False)
    t0: float
    eps_phi: float
    k0h0: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self):
        h0, h1, _ = self.profile.eval(self.t0)
        self.k0h0 = ambient.k_level(h0, h1) * h0

    def phi(self, t):
        h, h1, _ = self.profile.eval(t)
        k = ambient.k_level(h, h1)
        return self.k0h0 * np.exp(self.eps_phi * (self.t0 - t)) / (k * h)

    def phi_prime(self, t):
        h, h1, h2 = self.profile.eval(t)
        kap = h1 / h
        kap_prime = h2 / h - kap * kap
        return self.phi(t) * (-self.eps_phi - kap - kap_prime / kap)

    def psi0(self, t, h):
        """The s = 0 prescription phi(t) k(t) = k0 h0 e^{eps(t0-t)} / h(t)."""
        return self.k0h0 * np.exp(self.eps_phi * (self.t0 - t)) / h

    def psi0_pair(self, t, h, h1):
        """(psi0, d_t psi0) from h = h(t) and h1 = h'(t)."""
        psi0 = self.psi0(t, h)
        return psi0, -(self.eps_phi + h1 / h) * psi0


def build_phi(profile, t_minus, t_plus, t0, eps_phi):
    """Construct the gauge, anchored at t0 (None: the slab's midpoint);
    GaugeError if it fails to decrease strictly."""
    if t0 is None:
        t0 = 0.5 * (t_minus + t_plus)
    if not (t_minus < t0 < t_plus):
        raise ConfigError(f"anchor t0 = {t0} must lie in ({t_minus}, {t_plus})")
    if not 0 <= eps_phi < np.inf:       # False on NaN too
        raise GaugeError(f"decay rate eps_phi must be finite and "
                         f"nonnegative, got {eps_phi!r}")
    # eps_phi = 0 is admitted so the verify table can exhibit the homotopy (v)
    # failure as a negative control; a solve does not depend on (v)
    g = Gauge(profile=profile, t0=float(t0), eps_phi=float(eps_phi))
    lo, hi = profile.t_lo, profile.t_hi
    inset = 1e-9 * (hi - lo)
    t = np.linspace(lo + inset, hi - inset, T_LATTICE)
    # an exp(eps_phi (t0 - t)) out of the float range is named, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        dphi, (bad,) = _reduce([(0, g.phi_prime(t))], t, np.argmax)
        if dphi < 0:        # False on NaN too
            return g
        phi = float(g.phi(bad))
    # phi' = phi * (-eps_phi - kappa - kappa'/kappa): at phi = 0, or at a
    # phi that overflowed to inf * 0 or NaN, its sign is lost, and a larger
    # rate pushes exp(eps_phi (t0 - t)) further out of range
    if phi == 0 or (np.isnan(dphi) and not np.isfinite(phi)):
        flow = "underflows" if phi == 0 else "overflows"
        raise GaugeError(
            f"phi = {phi:.6g} {flow} near t = {bad:.6g}, so phi' = "
            f"{dphi:.6g} is not < 0; lower eps_phi")
    raise GaugeError(
        f"phi' = {dphi:.6g} >= 0 near t = {bad:.6g}; raise eps_phi")


# -- homotopy ----------------------------------------------------------------

@dataclass
class HomotopyProblem:
    """The full continuation problem: prescription, gauge, and anchor.

    Each input is stored once: the profile, spec and grid are the
    prescription's, the anchor t0 and decay rate eps_phi the gauge's.
    """

    prescription: _PrescriptionSlab
    gauge: Gauge

    @property
    def profile(self):
        return self.prescription.profile

    @property
    def spec(self):
        return self.prescription.spec

    @property
    def grid(self):
        return self.prescription.grid

    @property
    def t0(self):
        return self.gauge.t0

    @property
    def eps_phi(self):
        return self.gauge.eps_phi

    @property
    def t_minus(self):
        return self.prescription.t_minus

    @property
    def t_plus(self):
        return self.prescription.t_plus

    def psi_of(self, s, zvals, h, h1):
        """(Psi, d_t Psi) per node at homotopy parameter s.

        h and h1 are h and h' at the heights zvals (the geometry's).  At
        s = 1 the gauge pair's weight is 0, and the pair is not computed:
        Psi is the prescription's (1 psi + 0 psi0 is psi bit for bit
        wherever psi0 is finite, up to the sign of a zero).
        """
        f, u = self.grid.flatten, self.grid.unflatten
        t, h, h1 = f(zvals), f(h), f(h1)
        psi, psi_t = self.prescription.psi_pair(t, h, h1)
        if s == 1.0:
            return u(psi), u(psi_t)
        psi0, psi0_t = self.gauge.psi0_pair(t, h, h1)
        return u(_blend(s, psi, psi0)), u(_blend(s, psi_t, psi0_t))

    def drift_lattice(self, s, tarr):
        """d_t Psi + kappa Psi on (t-lattice) x nodes (homotopy condition (v)).

        Evaluated through the exact reduction s d_t(h psi)/h - (1-s)
        eps_phi phi k, so equalities in the decay hypothesis show up as
        literal zeros instead of rounding noise.
        """
        t, h, _ = _column(self.profile, tarr)
        return s * (self.prescription.dt_h_psi_lattice(tarr) / h) \
            + (1.0 - s) * (-self.eps_phi) * self.gauge.psi0(t, h)

    def homotopy_report(self):
        """CheckRows of the homotopy conditions (ii)-(v) on the lattice.

        Each row's witness is the first (s, t, node) attaining its margin.

        Conditions (ii)-(iv) are strict for every s in the lattice, and so
        is (v) for s < 1; the s = 1 slice of (v) reduces to the decay
        hypothesis (c), which itself admits equality, so that slice is
        checked with the (c) slack instead.
        """
        p = self.prescription
        _, slab, _ = validation_lattices(p)
        key = p.separable_key()

        def psi_margin(tarr, margin):
            t, h, _ = _column(self.profile, tarr)
            psi0 = self.gauge.psi0(t, h)
            # s >= 0 keeps each row monotone in the key
            return _reduce((_rows(lambda r, node: margin(_blend(
                s, p.psi(t[r], h[r], node), psi0[r])), key)
                for s in S_LATTICE), tarr, svals=S_LATTICE)

        k_lo = ambient.kappa(self.profile, p.t_minus)
        k_hi = ambient.kappa(self.profile, p.t_plus)
        rows = []
        for name, tarr, margin in (
                ("homotopy (ii): Psi > 0", slab, lambda v: v),
                ("homotopy (iii): Psi(s, t_minus) > k", np.array([p.t_minus]),
                 lambda v: v - k_lo),
                ("homotopy (iv): Psi(s, t_plus) < k", np.array([p.t_plus]),
                 lambda v: k_hi - v)):
            value, w = psi_margin(tarr, margin)
            rows.append(CheckRow.against(name, value, _STRICT, w))

        strict_s = [s for s in S_LATTICE if s < 1.0]
        m5, w5 = _reduce(((0, -self.drift_lattice(s, slab)) for s in strict_s),
                         slab, svals=strict_s)
        end, _ = _reduce([(0, self.drift_lattice(1.0, slab))], slab, np.argmax)
        # an explicit verdict: the printed requirement states the strict
        # slices s < 1, and the s = 1 slice must also meet the (c) slack
        rows.append(CheckRow("homotopy (v): d_t Psi + kappa Psi < 0", m5,
                             _STRICT, m5 > 0 and end <= p.c_slack, w5))
        return rows

    def gauge_report(self):
        """CheckRows of the gauge properties (a)-(d) and phi(t0) = 1.

        (a) phi > 0 on the slab, (b) phi > 1 below it, (c) phi < 1 above
        it, (d) phi' < 0 on all three validation lattices; each row's
        witness is the first (t,) attaining its value.
        """
        g = self.gauge
        below, slab, above = validation_lattices(self.prescription)
        full = np.concatenate([below, slab, above])
        t0 = np.array([g.t0])
        a, wa = _reduce([(0, g.phi(slab))], slab)
        b, wb = _reduce([(0, g.phi(below) - 1.0)], below)
        c, wc = _reduce([(0, 1.0 - g.phi(above))], above)
        d, wd = _reduce([(0, g.phi_prime(full))], full, np.argmax)
        e, we = _reduce([(0, np.abs(g.phi(t0) - 1.0))], t0, np.argmax)
        return [CheckRow.against("gauge (a): min phi", a, "> 0", wa),
                CheckRow.against("gauge (b): min phi - 1, t <= t_minus", b,
                                 "> 0", wb),
                CheckRow.against("gauge (c): min 1 - phi, t >= t_plus", c,
                                 "> 0", wc),
                CheckRow.against("gauge (d): max phi'", d, "< 0", wd),
                CheckRow.against("gauge: |phi(t0) - 1|", e, "<= 1e-14", we)]


def _blend(s, a, a0):
    """s a + (1 - s) a0: the homotopy's mix of a psi and a psi0 term."""
    return s * a + (1.0 - s) * a0


def build_homotopy(prescription, t0=None, eps_phi=0.1):
    """Attach the gauge and anchor to a validated prescription."""
    p = prescription
    gauge = build_phi(p.profile, p.t_minus, p.t_plus, t0=t0, eps_phi=eps_phi)
    return HomotopyProblem(prescription=p, gauge=gauge)
