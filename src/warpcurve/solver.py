"""Residual, sparse Jacobian, damped Newton, and continuation in s.

The discrete problem at homotopy parameter s is, per node,

    R(z) = f(lam(z)) - Psi(s, z, u) = 0,

with lam the principal curvatures of the graph of z.  The analytic
Jacobian differentiates the eigenvalue composite through the generalized
eigenproblem a v = lam g v: with g-orthonormal eigenvectors v_i,

    d f(lam) = sum_i f_i v_i^T (da - lam_i dg) v_i,

which needs no matrix square roots and stays smooth through eigenvalue
crossings because f is symmetric.  Writing M = sum f_i v_i v_i^T and
M2 = sum f_i lam_i v_i v_i^T (GraphGeometry.frame_sum, in components),
the per-node sensitivities to (z, grad z, hess z) are one coefficient per
stencil operator.  J is assembled straight into the grid's fixed CSR
layout (TorusGrid.stencil_pattern: row i holds the columns i + o in
footprint order), its entry at offset o being the sum of coefficient
times operator weight at o, the weights derived by the grid from its
stencil tables.  The colored finite-difference Jacobian writes into the
same layout; TorusGrid.pattern_matrix builds both.

Each Newton step solves J delta = -R.  At n = 1 J is a periodic band
matrix: the band of half-width b (the stencil radius) plus b wrapped
entries in the corners of the first and last b rows.  Its data in the
fixed layout go straight into LAPACK band storage, and the corners are a
rank-2b Woodbury correction (Temperton, J. Comput. Phys. 19, 1975; Hager,
SIAM Rev. 31, 1989): one band solve with 1 + 2b right-hand sides, then a
2b x 2b solve.  A singular band part or a non-finite result falls back to
the sparse direct solve.  At n = 2 the step is GMRES preconditioned by
the circulant part of J: the periodic stencils are circulant, so the mean
coefficient per stencil offset (the column means of J's data in the fixed
layout) is inverted exactly by the 2D FFT.  The tolerance is tight (1e-12
relative) so Newton counts and iterates are those of the direct solve, to
which the step falls back when GMRES misses it or the symbol is singular.

Continuation starts from the exact constant solution z = t0 at s = 0 and
tries the whole interval first (ds0 = 1).  Its step control reads
Newton's contraction rate (Deuflhard, "Newton Methods for Nonlinear
Problems", 2004): Newton abandons the step as soon as two successive
undamped corrections give Theta_k = |Delta_k|_inf / |Delta_{k-1}|_inf
> 1/2, after two linear solves rather than a run to its iteration or
backtracking budget.  That and any other NewtonStall halve ds; after a
step whose first contraction Theta_1 is <= 1/4, ds doubles, clamped to
land on s = 1.  Every accepted state is asserted to lie in the barrier
slab and the cone; its monitors (residual, cone margin, gradient,
curvature) are read from the evaluation Newton ended on.  When the step
falls below ds_min, the ContinuationStall is raised from the last
NewtonStall and repeats its message, so the cause is named.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import curvature
from .errors import (BarrierViolation, ConeError, ConfigError,
                     ContinuationStall, DomainError, NewtonStall)
from .geometry import compute_geometry, geometry_from_derivatives
from .grid import NodeField

_THETA_MAX = 0.5       # continuation abandons a step once Theta_k > this
_THETA_GROW = 0.25     # and doubles ds after a step with Theta_1 <= this


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10     # residual sup-norm target
    max_newton: int = 30
    max_halvings: int = 20        # backtracking budget per Newton step
    ds0: float = 1.0              # first continuation step: the whole way
    ds_min: float = 1e-4
    jacobian_mode: str = "analytic"   # or "fd-colored"
    fd_step: float = 1e-6             # scaled by (1 + |z|_inf)

    def __post_init__(self):
        for name in ("newton_tol", "ds0", "ds_min", "fd_step"):
            value = getattr(self, name)
            if not 0 < value < np.inf:          # False on NaN too
                raise ConfigError(f"solver {name} must be finite and "
                                  f"positive, got {value!r}")
        if self.ds0 > 1.0:
            raise ConfigError("initial continuation step must be <= 1")
        if self.jacobian_mode not in ("analytic", "fd-colored"):
            raise ConfigError(f"unknown jacobian mode {self.jacobian_mode!r}")


@dataclass
class _EvalState:
    geom: object
    fvals: np.ndarray
    psi: np.ndarray
    psi_t: np.ndarray
    res: np.ndarray


def _evaluate(zvals, s, hp):
    geom = compute_geometry(zvals, hp.grid, hp.profile)
    fvals = curvature.f_eval(hp.spec, geom.lam)
    psi, psi_t = hp.psi_of(s, zvals, geom.h, geom.h1)
    return _EvalState(geom=geom, fvals=fvals, psi=psi, psi_t=psi_t,
                      res=fvals - psi)


def residual(z, s, hp):
    """Per-node f(lam(z)) - Psi(s, z, u) as a NodeField."""
    zvals = z.values if isinstance(z, NodeField) else np.asarray(z, float)
    state = _evaluate(zvals, s, hp)
    return NodeField(state.res, hp.grid)


def _jacobian_coefficients(state, hp):
    """Per-node coefficients of J on the operators of grid.stencil_pattern().

    Returns one grid-shaped array per operator: identity (the z
    sensitivity minus d_t Psi), d1 per axis, d2 per axis and, at n = 2,
    d11, in the order of the pattern's weight rows.
    """
    geom = state.geom
    n = hp.grid.n
    h, h1, h2, W = geom.h, geom.h1, geom.h2, geom.W
    rng = range(n)
    p = [geom.grad[..., d] for d in rng]
    H = geom.hess
    # f_eval has checked the cone at these eigenvalues already
    fi = curvature.f_grad(hp.spec, geom.lam)
    fl = fi * geom.lam
    M = geom.frame_sum(fi)
    M2 = geom.frame_sum(fl)
    sfl = fl.sum(axis=-1)
    Mp = [sum(M[i][j] * p[j] for j in rng) for i in rng]
    M2p = [sum(M2[i][j] * p[j] for j in rng) for i in rng]
    MH = sum(M[i][j] * H[..., i, j] for i in rng for j in rng)
    pMp = sum(p[i] * M[i][j] * p[j] for i in rng for j in rng)
    trM = sum(M[i][i] for i in rng)
    trM2 = sum(M2[i][i] for i in rng)
    c_z = (-h1 * MH + 2.0 * h2 * pMp + (2.0 * h * h1 ** 2 + h ** 2 * h2) * trM) \
        / W - sfl * h * h1 / W ** 2 - 2.0 * h * h1 * trM2
    c_grad = [(4.0 * h1 / W) * Mp[d] - p[d] * (sfl / W ** 2) - 2.0 * M2p[d]
              for d in rng]
    # c_hess = -(h / W) M; the symmetric cross entries share one stencil
    c_hess = [-(h / W) * M[d][d] for d in rng]
    if n == 2:
        c_hess.append(-(h / W) * (2.0 * M[0][1]))
    return [c_z - state.psi_t] + c_grad + c_hess


def _analytic_jacobian(state, hp):
    grid = hp.grid
    coef = [grid.flatten(c) for c in _jacobian_coefficients(state, hp)]
    weights = grid.stencil_pattern()[2]
    data = np.empty((weights.shape[1], grid.size))
    for k, col in enumerate(weights.T):
        # entry at offset k = sum of coefficient * weight over the operators
        # with a stencil there, added one product at a time in operator
        # order (no fused multiply-add), as summing diag(c) @ operator does
        terms = [c * w for c, w in zip(coef, col) if w != 0.0]
        data[k] = terms[0]
        for t in terms[1:]:
            data[k] += t
    return grid.pattern_matrix(data.T)


def _fd_colored_jacobian(zvals, s, hp, step):
    grid = hp.grid
    colors, ncol = grid.coloring()
    indices = grid.stencil_pattern()[0]
    # color of the column at each (row, offset) slot of the layout
    slot_colors = colors[indices].reshape(grid.size, -1)
    data = np.empty(slot_colors.shape)
    for c in range(ncol):
        pert = grid.unflatten(step * (colors == c))
        rp = grid.flatten(_evaluate(zvals + pert, s, hp).res)
        rm = grid.flatten(_evaluate(zvals - pert, s, hp).res)
        # each row meets at most one column of a color: its difference
        # quotient is the entry at that column's slot
        dr = (rp - rm) / (2.0 * step)
        np.copyto(data, dr[:, None], where=slot_colors == c)
    return grid.pattern_matrix(data)


def assemble_jacobian(z, s, hp, mode="analytic", cfg=None):
    """Sparse Jacobian of the residual at z (stencil-footprint sparsity)."""
    cfg = cfg or SolverConfig()
    zvals = z.values if isinstance(z, NodeField) else np.asarray(z, float)
    if mode == "analytic":
        return _analytic_jacobian(_evaluate(zvals, s, hp), hp)
    if mode != "fd-colored":
        raise ConfigError(f"unknown jacobian mode {mode!r}")
    step = cfg.fd_step * (1.0 + float(np.abs(zvals).max()))
    for attempt in range(4):
        try:
            return _fd_colored_jacobian(zvals, s, hp, step)
        except ConeError:
            if attempt == 3:
                raise
            step /= 10.0


@dataclass
class NewtonStats:
    iterations: int
    residual_norms: list
    halvings: int
    converged: bool
    # first contraction |Delta_1| / |Delta_0| of the undamped corrections;
    # 0 when Newton took at most one iteration
    theta0: float = 0.0
    # the evaluation of the returned iterate, read by the step monitors
    state: _EvalState = field(default=None, repr=False, compare=False)

    @property
    def quadratic_constant(self):
        """max r_{k+1} / r_k^2 over the tail pairs above rounding floor."""
        rs = [r for r in self.residual_norms if r > 5e-15]
        pairs = [(rs[i], rs[i + 1]) for i in range(len(rs) - 1)]
        tail = pairs[-3:]
        if not tail:
            return 0.0
        return max(rb / ra ** 2 for ra, rb in tail)


def _circulant_symbol(J, grid):
    """Fourier symbol of the circulant part of J (n = 2).

    J is in the grid's stencil layout, so column k of its data holds every
    row's entry at offset k; the column means are the stencil of the
    constant-coefficient operator nearest J, which the 2D DFT
    diagonalizes exactly.
    """
    foot = np.array(grid.stencil_footprint()) % grid.N
    kernel = np.zeros(grid.shape)
    kernel[tuple(foot.T)] = J.data.reshape(grid.size, len(foot)).mean(axis=0)
    # (C x)_i = sum_o kernel[o] x_{i+o} is a correlation, so its symbol is
    # the conjugate transform of the (real) kernel
    return np.conj(np.fft.fftn(kernel))


def _cyclic_band_solve(J, rhs):
    """Solve J x = rhs for a periodic band J (n = 1) in the fixed layout.

    Column k of J's data holds offset o = k - b.  J = A + P C P^T, with A
    the band part, P selecting the b first and the b last nodes S and C
    the entries of J between them that cross the seam, so by Woodbury
    x = y - Z (I + C Z_S)^{-1} C y_S with A [y, Z] = [rhs, P].
    """
    size = J.shape[0]
    D = J.data.reshape(size, -1)
    b = D.shape[1] // 2
    # LAPACK band storage: ab[b - o, j] = J[j - o, j]
    ab = np.zeros((2 * b + 1, size))
    for k in range(2 * b + 1):
        o = k - b
        lo, hi = max(o, 0), size + min(o, 0)
        ab[b - o, lo:hi] = D[lo - o:hi - o, k]
    S = np.r_[0:b, size - b:size]
    # signed offset between the nodes of S; the b first and the b last
    # meet only across the seam
    p, q = np.indices((2 * b, 2 * b))
    o = (S[q] - S[p] + b) % size - b
    cross = (np.abs(o) <= b) & ((p < b) != (q < b))
    C = np.zeros((2 * b, 2 * b))
    C[cross] = D[S[p[cross]], o[cross] + b]
    B = np.zeros((size, 1 + 2 * b))
    B[:, 0] = rhs
    B[S, np.arange(1, 2 * b + 1)] = 1.0
    Y = sla.solve_banded((b, b), ab, B, check_finite=False)
    y, Z = Y[:, 0], Y[:, 1:]
    cap = np.eye(2 * b) + C @ Z[S]
    return y - Z @ np.linalg.solve(cap, C @ y[S])


def _linear_step(J, rhs, grid):
    """Solve J delta = rhs: a cyclic band solve at n = 1, FFT-preconditioned
    GMRES at n = 2, each with a direct fallback (see the module docstring)."""
    if grid.n == 1:
        try:
            delta = _cyclic_band_solve(J, rhs)
        except np.linalg.LinAlgError:      # singular band or corner system
            pass
        else:
            if np.all(np.isfinite(delta)):
                return delta
    else:
        sym = _circulant_symbol(J, grid)
        if np.all(np.isfinite(sym)) and np.all(sym != 0):
            def apply_inverse(r):
                rhat = np.fft.fftn(grid.unflatten(r))
                return grid.flatten(np.fft.ifftn(rhat / sym).real)

            M = spla.LinearOperator(J.shape, matvec=apply_inverse,
                                    dtype=float)
            # tight enough that Newton counts and iterates match spsolve
            delta, info = spla.gmres(J, rhs, M=M, rtol=1e-12, restart=50,
                                     maxiter=4)
            if info == 0:
                return delta
    return spla.spsolve(J.tocsc(), rhs)


def _check_barrier(zvals, barrier):
    if barrier is None:
        return
    lo, hi = barrier
    zmin, zmax = float(zvals.min()), float(zvals.max())
    if not (lo < zmin and zmax < hi):
        raise BarrierViolation(
            f"iterate range [{zmin:.6g}, {zmax:.6g}] leaves the open slab "
            f"({lo:.6g}, {hi:.6g})")


def newton_solve(z0, s, hp, cfg=None, barrier=None, theta_max=None):
    """Damped Newton at fixed s; every accepted iterate stays admissible.

    Backtracks (up to cfg.max_halvings) while the trial is inadmissible,
    leaves the profile interval, or fails to decrease the residual
    sup-norm.  When barrier levels are supplied, every accepted iterate is
    asserted to stay strictly inside them.  When theta_max is given (the
    continuation does), a NewtonStall is raised as soon as the undamped
    corrections contract by a ratio above it.
    """
    cfg = cfg or SolverConfig()
    zvals = (z0.values if isinstance(z0, NodeField) else np.asarray(z0, float)
             ).copy()
    state = _evaluate(zvals, s, hp)   # ConeError here = inadmissible start
    _check_barrier(zvals, barrier)
    rnorm = float(np.abs(state.res).max())
    norms = [rnorm]
    iters = 0
    halvings = 0
    dnorm = theta0 = 0.0
    while not rnorm <= cfg.newton_tol:      # a NaN residual never converges
        if iters >= cfg.max_newton:
            raise NewtonStall(
                f"no convergence in {cfg.max_newton} iterations at s={s:.6g} "
                f"(residual {rnorm:.3e})")
        if cfg.jacobian_mode == "analytic":
            J = _analytic_jacobian(state, hp)
        else:
            J = assemble_jacobian(zvals, s, hp, "fd-colored", cfg)
        delta = _linear_step(J, -hp.grid.flatten(state.res), hp.grid)
        if not np.all(np.isfinite(delta)):
            raise NewtonStall(f"non-finite linear step at s={s:.6g} "
                              f"(residual {rnorm:.3e})")
        dnorm_prev, dnorm = dnorm, float(np.abs(delta).max())
        if iters > 0:
            theta = dnorm / dnorm_prev
            if iters == 1:
                theta0 = theta
            if theta_max is not None and theta > theta_max:
                raise NewtonStall(
                    f"Newton contraction theta={theta:.3g} > {theta_max:g} "
                    f"at s={s:.6g} (residual {rnorm:.3e})")
        delta = hp.grid.unflatten(delta)
        alpha = 1.0
        accepted = False
        for _ in range(cfg.max_halvings + 1):
            trial = zvals + alpha * delta
            try:
                tstate = _evaluate(trial, s, hp)
            except (ConeError, DomainError):
                alpha *= 0.5
                halvings += 1
                continue
            tnorm = float(np.abs(tstate.res).max())
            if tnorm < rnorm:
                zvals, state, rnorm = trial, tstate, tnorm
                accepted = True
                break
            alpha *= 0.5
            halvings += 1
        if not accepted:
            raise NewtonStall(
                f"backtracking exhausted at s={s:.6g} (residual {rnorm:.3e})")
        _check_barrier(zvals, barrier)
        iters += 1
        norms.append(rnorm)
    return (NodeField(zvals, hp.grid),
            NewtonStats(iterations=iters, residual_norms=norms,
                        halvings=halvings, converged=True, theta0=theta0,
                        state=state))


@dataclass
class StepRecord:
    s: float
    ds: float
    newton_iters: int
    residual: float
    z_min: float
    z_max: float
    cone_margin: float
    grad_max: float
    lam1_max: float


@dataclass
class SolveReport:
    steps: list = field(default_factory=list)
    verdict: str = "incomplete"

    @property
    def s_values(self):
        return [st.s for st in self.steps]

    @property
    def final(self):
        return self.steps[-1]

    def csv_header(self):
        return ("s,ds,newton_iters,residual,z_min,z_max,cone_margin,"
                "grad_max,lam1_max")

    def csv_rows(self):
        for st in self.steps:
            yield (f"{st.s:.17g},{st.ds:.17g},{st.newton_iters},"
                   f"{st.residual:.17g},{st.z_min:.17g},{st.z_max:.17g},"
                   f"{st.cone_margin:.17g},{st.grad_max:.17g},"
                   f"{st.lam1_max:.17g}")


def _monitors(state, hp):
    """Step monitors of an accepted state, from Newton's evaluation of it."""
    zvals = state.geom.z
    margin = curvature.cone_margin(hp.spec, state.geom.lam)
    return (float(np.abs(state.res).max()), float(zvals.min()),
            float(zvals.max()), float(np.min(margin)),
            state.geom.grad_sup, float(state.geom.lam[..., 0].max()))


def continuation(hp, cfg=None):
    """Track the solution branch from (s=0, z=t0) to s=1.

    The first step tries s = cfg.ds0 (by default s = 1 at once).  Newton
    abandons a step as soon as a correction fails to contract by 1/2
    (Theta > 1/2); that and any other NewtonStall halve ds, and below
    ds_min a ContinuationStall names the last stall.  After an accepted
    step whose first contraction Theta_1 is <= 1/4, ds doubles, clamped
    so that s = 1 is hit exactly.  Accepted states are asserted to stay
    inside the barrier slab and the admissibility cone.
    """
    cfg = cfg or SolverConfig()
    barrier = (hp.t_minus, hp.t_plus)
    report = SolveReport()
    z = NodeField.constant(hp.grid, hp.t0)
    z, stats = newton_solve(z, 0.0, hp, cfg, barrier=barrier)
    res, zmin, zmax, margin, gmax, lmax = _monitors(stats.state, hp)
    stats.state = None              # not held through the next solve
    report.steps.append(StepRecord(0.0, 0.0, stats.iterations, res, zmin,
                                   zmax, margin, gmax, lmax))
    s = 0.0
    ds = cfg.ds0
    while s < 1.0:
        s_try = min(s + ds, 1.0)
        try:
            z_new, stats = newton_solve(z, s_try, hp, cfg, barrier=barrier,
                                        theta_max=_THETA_MAX)
        except NewtonStall as exc:
            ds *= 0.5
            if ds < cfg.ds_min:
                raise ContinuationStall(
                    f"step fell below ds_min = {cfg.ds_min:.3e} at s = {s:.6g}"
                    f": {exc}") from exc
            continue
        z = z_new
        step_ds = s_try - s
        s = s_try
        res, zmin, zmax, margin, gmax, lmax = _monitors(stats.state, hp)
        stats.state = None
        if margin <= 0:
            raise ConeError(f"accepted state left the cone at s={s:.6g}")
        report.steps.append(StepRecord(s, step_ds, stats.iterations, res,
                                       zmin, zmax, margin, gmax, lmax))
        if stats.theta0 <= _THETA_GROW:
            ds = min(2.0 * ds, 1.0 - s)
    report.verdict = "converged"
    return z, report


# -- manufactured solutions ---------------------------------------------------

class ManufacturedProblem:
    """Prescription tabulated from an exact height field (unsafe mode).

    psi is a function of u alone (t-independent), so d_t Psi = 0; it
    generally violates the decay hypothesis, which is the point: it gives
    exact nonconstant solutions for convergence-order studies.
    """

    unsafe = True

    def __init__(self, grid, profile, spec, psi_values, t_minus, t_plus):
        self.grid = grid
        self.profile = profile
        self.spec = spec
        self.psi_values = np.asarray(psi_values, dtype=float)
        self.t_minus = float(t_minus)
        self.t_plus = float(t_plus)
        self.t0 = 0.5 * (t_minus + t_plus)

    def psi_of(self, s, zvals, h, h1):
        zeros = np.zeros_like(self.psi_values)
        return self.psi_values, zeros


def manufactured_field(grid, center=1.0, amplitude=0.01, freqs=None):
    """Exact height field with analytic derivatives.

    n=1: z = c + A sin(m0 x);  n=2: z = c + A sin(m0 x) cos(m1 y), with
    x, y scaled to period L.  Returns (z, grad, hess) in grid layout.
    """
    if freqs is None:
        freqs = (1,) * grid.n
    w = 2.0 * np.pi / grid.L
    X = grid.coords()
    if grid.n == 1:
        a = freqs[0] * w
        x = a * X[0]
        z = center + amplitude * np.sin(x)
        grad = (amplitude * a * np.cos(x))[None]
        hess = (-amplitude * a * a * np.sin(x))[None, None]
        return z, grad, hess
    a = freqs[0] * w
    b = freqs[1] * w
    x = a * X[0]
    y = b * X[1]
    sx, cx = np.sin(x), np.cos(x)
    sy, cy = np.sin(y), np.cos(y)
    z = center + amplitude * sx * cy
    grad = np.stack([amplitude * a * cx * cy, -amplitude * b * sx * sy])
    hxx = -amplitude * a * a * sx * cy
    hyy = -amplitude * b * b * sx * cy
    hxy = -amplitude * a * b * cx * sy
    hess = np.stack([np.stack([hxx, hxy]), np.stack([hxy, hyy])])
    return z, grad, hess


def build_manufactured(grid, profile, spec, center=1.0, amplitude=0.01,
                       freqs=None):
    """Manufactured problem: z_m plus the psi that makes it exact.

    The prescription is f(lam) of the *continuum* geometry of z_m (exact
    analytic derivatives), so the discrete residual at z_m is pure stencil
    truncation error.
    """
    z, grad, hess = manufactured_field(grid, center, amplitude, freqs)
    geom = geometry_from_derivatives(z, grad, hess, grid, profile)
    psi = curvature.f_eval(spec, geom.lam)
    span = max(3.0 * amplitude, 1e-3)
    hp = ManufacturedProblem(grid, profile, spec, psi,
                             t_minus=center - span, t_plus=center + span)
    return NodeField(z, grid), hp


def manufactured_residual_norm(grid, profile, spec, center=1.0,
                               amplitude=0.01, freqs=None):
    """Sup-norm of the discrete residual at the manufactured solution."""
    z, hp = build_manufactured(grid, profile, spec, center, amplitude, freqs)
    return float(np.abs(residual(z, 1.0, hp).values).max())
