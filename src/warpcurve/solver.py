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
stencil operator.  J is built as its data in the grid's fixed CSR layout
(TorusGrid.stencil_pattern: row i holds the columns i + o in footprint
order), (size x offsets), as one product: coefficients (size x
operators) times the weights (operators x offsets) of the operator table
the residual's derivatives apply.  It stays layout data until a matrix
is needed: the n = 1 band solve reads the data directly, and
TorusGrid.pattern_matrix wraps it for GMRES, the sparse fallback and
assemble_jacobian.  Newton uses this analytic J only.  The colored
finite-difference Jacobian built here (_fd_colored_jacobian, reached
through oracle.fd_colored_jacobian) is the entrywise reference the tests
check it against, in the same layout.  verify checks J by directional
probes of the residual instead.

Each Newton step solves J delta = -R.  At n = 1 J is a periodic band
matrix: the band of half-width b (the stencil radius) plus b wrapped
entries in the corners of the first and last b rows.  Its data in the
fixed layout go straight into LAPACK band storage, and the corners are a
rank-2b Woodbury correction (Temperton, J. Comput. Phys. 19, 1975; Hager,
SIAM Rev. 31, 1989): one band solve with 1 + 2b right-hand sides, then a
2b x 2b solve; the seam's index structure is cached per (size, b).  A
singular band part or a non-finite result falls back to the sparse
direct solve.  At n = 2 the step is GMRES (_gmres), cycles of at most 50
steps right-preconditioned by the circulant part of J (T. Chan, SIAM
J. Sci. Stat. Comput. 9, 1988): the periodic stencils are circulant, so
the mean coefficient per stencil offset (the column means of J's data in
the fixed layout) is inverted exactly by the 2D FFT.  That kernel is
real, so its symbol is the real-FFT half spectrum and the preconditioner
is rfftn, a product with the reciprocal symbol, and irfftn.  Right
preconditioning leaves the residual GMRES minimizes the true one; a step
is accepted only when the true residual meets the tight tolerance (1e-12
relative), so Newton counts and iterates are those of the direct solve.
A first cycle that misses it is followed by one refinement cycle from
the true residual; the step falls back to the direct solve when that
misses too or the symbol is singular.
Every inner product and norm is a NumPy reduction, not BLAS, whose
summation order would follow the BLAS thread count (Demmel & Nguyen,
ARITH 2013), so the step is independent of it.

Continuation starts from the exact constant solution z = t0 at s = 0 and
tries the whole interval first (ds0 = 1).  Its step control reads
Newton's contraction rate (Deuflhard, "Newton Methods for Nonlinear
Problems", 2004): Newton abandons the step as soon as two successive
undamped corrections give Theta_k = |Delta_k|_inf / |Delta_{k-1}|_inf
> 1/2, after two linear solves rather than a run to its iteration or
backtracking budget.  That, any other NewtonStall and a Newton iterate
that leaves the barrier slab (BarrierViolation) halve ds; after a step
whose first contraction Theta_1 is <= 1/4, ds doubles, clamped to land
on s = 1.  Every accepted state is asserted to lie in the barrier slab
(newton_solve) and the cone.  The cone assertion is curvature.f_eval's
alone: it raises ConeError on every evaluation with a non-positive
margin, so Newton never accepts a state outside the cone.  The monitors
of an accepted state (residual, cone margin, gradient, curvature) are
read from the evaluation Newton ended on.  Each step, at the next s
or after a halving, starts from that evaluation: the geometry and f of
a z do not depend on s, so only Psi is computed again, and Newton
releases the evaluation once it has moved past it.  When the step falls
below ds_min, the ContinuationStall is raised from the last cause and
repeats its message, so the cause is named.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np
# scipy.fft loads on first use (only the n = 2 step needs it), to keep it
# out of the memory and start-up of n = 1 runs and verify
import scipy
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import curvature
from .errors import (BarrierViolation, ConeError, ConfigError,
                     ContinuationStall, DomainError, NewtonStall)
from .geometry import compute_geometry, geometry_from_derivatives
from .grid import NodeField, field_values

_THETA_MAX = 0.5       # continuation abandons a step once Theta_k > this
_THETA_GROW = 0.25     # and doubles ds after a step with Theta_1 <= this
_MAX_HALVINGS = 20     # backtracking budget per Newton step
_GMRES_STEPS = 50      # Arnoldi steps per GMRES cycle
_GMRES_CYCLES = 2      # the first cycle and one refinement cycle
_GMRES_RTOL = 1e-12    # the relative residual target
_MANUFACTURED_AMPLITUDE = 0.01   # of build_manufactured's exact solution


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10     # residual sup-norm target
    max_newton: int = 30
    ds0: float = 1.0              # first continuation step: the whole way
    ds_min: float = 1e-4

    def __post_init__(self):
        for name in ("newton_tol", "ds0", "ds_min"):
            value = getattr(self, name)
            if not 0 < value < np.inf:          # False on NaN too
                raise ConfigError(f"solver {name} must be finite and "
                                  f"positive, got {value!r}")
        if not isinstance(self.max_newton, (int, np.integer)) \
                or self.max_newton < 1:
            raise ConfigError(f"solver max_newton must be an integer >= 1, "
                              f"got {self.max_newton!r}")
        if self.ds0 > 1.0:
            raise ConfigError("initial continuation step must be <= 1")


@dataclass
class _EvalState:
    geom: object
    fvals: np.ndarray
    psi_t: np.ndarray
    res: np.ndarray


def _evaluate(zvals, s, hp, at=None):
    """The residual's evaluation at (z, s).  at, an evaluation of the same
    z at any s, lends its geometry and f, which do not depend on s, so
    only Psi is computed again."""
    if at is None:
        geom = compute_geometry(zvals, hp.grid, hp.profile)
        fvals = curvature.f_eval(hp.spec, geom.lam)
    else:
        geom, fvals = at.geom, at.fvals
    psi, psi_t = hp.psi_of(s, zvals, geom.h, geom.h1)
    return _EvalState(geom=geom, fvals=fvals, psi_t=psi_t, res=fvals - psi)


def residual(z, s, hp):
    """Per-node f(lam(z)) - Psi(s, z, u) as a NodeField."""
    state = _evaluate(field_values(z), s, hp)
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
    p = geom._grad                     # components, grid layout
    H = geom._hess
    # f_eval has checked the cone at these eigenvalues already
    fi = curvature.f_grad(hp.spec, geom.lam)
    fl = fi * geom.lam
    M = geom.frame_sum(fi)
    M2 = geom.frame_sum(fl)
    sfl = fl.sum(axis=-1)
    Mp = [sum(M[i][j] * p[j] for j in rng) for i in rng]
    M2p = [sum(M2[i][j] * p[j] for j in rng) for i in rng]
    MH = sum(M[i][j] * H[i][j] for i in rng for j in rng)
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
    """J's data in the fixed layout, (size x offsets): row i holds the
    entries at the columns i + o, o over the stencil footprint.
    grid.pattern_matrix makes it a CSR matrix where one is needed."""
    grid = hp.grid
    coef = [grid.flatten(c) for c in _jacobian_coefficients(state, hp)]
    # (size x operators) coefficients times (operators x offsets) weights
    return np.stack(coef, axis=1) @ grid.stencil_pattern()[2]


def _fd_colored_jacobian(zvals, s, hp, step):
    grid = hp.grid
    colors, ncol = grid.coloring()
    indices = grid.stencil_pattern()[0]
    # color of the column at each (row, offset) slot of the layout
    slot_colors = colors[indices].reshape(grid.size, -1)
    dr = np.empty((ncol, grid.size))
    for c in range(ncol):
        pert = grid.unflatten(step * (colors == c))
        rp = grid.flatten(_evaluate(zvals + pert, s, hp).res)
        rm = grid.flatten(_evaluate(zvals - pert, s, hp).res)
        dr[c] = (rp - rm) / (2.0 * step)
    # each row meets at most one column of a color: the entry at a slot is
    # its row's difference quotient for the color of the slot's column
    return grid.pattern_matrix(dr[slot_colors, np.arange(grid.size)[:, None]])


def assemble_jacobian(z, s, hp):
    """Sparse analytic Jacobian of the residual at z, in the fixed layout."""
    return hp.grid.pattern_matrix(
        _analytic_jacobian(_evaluate(field_values(z), s, hp), hp))


@dataclass
class NewtonStats:
    iterations: int
    residual_norms: list
    halvings: int
    # Newton steps whose linear system went to the spsolve fallback
    fallbacks: int
    # first contraction |Delta_1| / |Delta_0| of the undamped corrections;
    # 0 when Newton took at most one iteration
    theta0: float
    # the evaluation of the returned iterate, read by the step monitors and
    # lent to the next solve from the same iterate (newton_solve's at)
    state: _EvalState = field(repr=False, compare=False)


def _circulant_symbol(D, grid):
    """Half Fourier symbol of the circulant part of J (n = 2).

    D is J's data in the grid's stencil layout, so its column k holds
    every row's entry at offset k; the column means are the stencil of the
    constant-coefficient operator nearest J, which the 2D DFT
    diagonalizes exactly.  The kernel is real, so the real-FFT half
    spectrum (the last axis cut to N // 2 + 1) holds the whole symbol.
    """
    foot = np.array(grid.stencil_footprint()) % grid.N
    kernel = np.zeros(grid.shape)
    kernel[tuple(foot.T)] = D.mean(axis=0)
    # (C x)_i = sum_o kernel[o] x_{i+o} is a correlation, so its symbol is
    # the conjugate transform of the (real) kernel
    return np.conj(scipy.fft.rfftn(kernel))


def _circulant_preconditioner(sym, grid):
    """r -> C^{-1} r for the circulant C of half symbol sym, by real FFT."""
    inv_half = 1.0 / sym

    def apply(r):
        rhat = scipy.fft.rfftn(grid.unflatten(r))
        rhat *= inv_half
        return grid.flatten(
            scipy.fft.irfftn(rhat, s=grid.shape, overwrite_x=True))
    return apply


def _norm(v):
    # a NumPy reduction, not BLAS: its summation order does not depend on
    # the BLAS thread count (nor does any other reduction of _gmres)
    return float(np.sqrt((v * v).sum()))


def _gmres(J, rhs, precond):
    """Right-preconditioned GMRES (Saad & Schultz, 1986), at most
    _GMRES_CYCLES cycles.

    Each cycle minimizes |r - J x| over x = precond(Krylov space of
    J precond) for the current residual r, with modified Gram-Schmidt and
    Givens rotations, for at most _GMRES_STEPS steps, stopping once the
    rotated residual estimate meets _GMRES_RTOL |rhs|.  x is accepted
    only when the true residual rhs - J x does.  A cycle that misses is
    followed by one more from the true residual: one step of iterative
    refinement (Higham, "Accuracy and Stability of Numerical
    Algorithms", SIAM 2002, ch. 12), which reaches the target where
    rounding in J x, about eps |J| |x| with J's entries growing like
    1/dx^2, leaves the first cycle's x just short of it (N >= 256).
    Returns (x, converged); a miss after both cycles falls back to the
    direct solve in _linear_step.  Measured Newton steps take at most 10
    of the 50 steps per cycle.
    """
    tol = _GMRES_RTOL * _norm(rhs)
    if tol == 0:
        return np.zeros_like(rhs), True
    x, r = None, rhs
    for _ in range(_GMRES_CYCLES):
        dx = precond(_gmres_cycle(J, r, precond, tol))
        x = dx if x is None else x + dx
        r = rhs - J @ x
        if _norm(r) <= tol:
            return x, True
    return x, False


def _gmres_cycle(J, r, precond, tol):
    """One GMRES cycle for J precond u = r, stopped at the estimate tol;
    returns u.  |r| > tol on entry."""
    beta = _norm(r)
    m = min(_GMRES_STEPS, r.size)
    H = np.zeros((m, m))                # the rotated Hessenberg matrix
    g = np.zeros(m + 1)
    g[0] = beta
    V = [r / beta]                      # the Krylov basis, at most m + 1
    cs, sn = np.zeros(m), np.zeros(m)
    for j in range(m):
        w = J @ precond(V[j])
        for i in range(j + 1):
            H[i, j] = (V[i] * w).sum()
            w -= H[i, j] * V[i]
        hn = _norm(w)
        for i in range(j):              # the earlier rotations
            H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                    cs[i] * H[i + 1, j] - sn[i] * H[i, j])
        rho = np.hypot(H[j, j], hn)
        cs[j], sn[j] = H[j, j] / rho, hn / rho
        H[j, j] = rho
        g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
        # |g[j + 1]| is the residual norm of the current x; breakdown
        # (hn = 0) and NaN end the cycle too
        if not abs(g[j + 1]) > tol:
            break
        V.append(w / hn)
    k = j + 1
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):       # back substitution, H upper
        y[i] = (g[i] - (H[i, i + 1:k] * y[i + 1:k]).sum()) / H[i, i]
    u = y[0] * V[0]
    for i in range(1, k):
        u += y[i] * V[i]
    return u


@functools.lru_cache(maxsize=None)
def _seam(size, b):
    """The seam structure of _cyclic_band_solve, per (size, b): the nodes
    S, the mask of the (2b x 2b) entries of C that cross the seam, and
    their flat index into J's (size x (2b + 1)) data."""
    S = np.r_[0:b, size - b:size]
    # signed offset between the nodes of S; the b first and the b last
    # meet only across the seam
    p, q = np.indices((2 * b, 2 * b))
    o = (S[q] - S[p] + b) % size - b
    cross = (np.abs(o) <= b) & ((p < b) != (q < b))
    gather = S[p[cross]] * (2 * b + 1) + o[cross] + b
    for arr in (S, cross, gather):
        arr.flags.writeable = False
    return S, cross, gather


def _cyclic_band_solve(D, rhs):
    """Solve J x = rhs for a periodic band J (n = 1) from its data D.

    D is J's data in the fixed layout, (size x (2b + 1)): column k holds
    offset o = k - b.  J = A + P C P^T, with A the band part, P selecting
    the b first and the b last nodes S and C the entries of J between
    them that cross the seam, so by Woodbury
    x = y - Z (I + C Z_S)^{-1} C y_S with A [y, Z] = [rhs, P].
    """
    size = D.shape[0]
    b = D.shape[1] // 2
    # LAPACK band storage: ab[b - o, j] = J[j - o, j]
    ab = np.zeros((2 * b + 1, size))
    for k in range(2 * b + 1):
        o = k - b
        lo, hi = max(o, 0), size + min(o, 0)
        ab[b - o, lo:hi] = D[lo - o:hi - o, k]
    S, cross, gather = _seam(size, b)
    C = np.zeros((2 * b, 2 * b))
    C[cross] = D.ravel()[gather]
    B = np.zeros((size, 1 + 2 * b))
    B[:, 0] = rhs
    B[S, np.arange(1, 2 * b + 1)] = 1.0
    Y = sla.solve_banded((b, b), ab, B, check_finite=False)
    y, Z = Y[:, 0], Y[:, 1:]
    cap = np.eye(2 * b) + C @ Z[S]
    return y - Z @ np.linalg.solve(cap, C @ y[S])


def _linear_step(D, rhs, grid):
    """Solve J delta = rhs, J given by its data D in the fixed layout: a
    cyclic band solve at n = 1, FFT-preconditioned GMRES at n = 2, each
    with a direct fallback (see the module docstring).  Only GMRES and
    the fallback build the CSR matrix.  Returns (delta, fell_back), the
    latter True when delta came from the fallback."""
    if grid.n == 1:
        try:
            delta = _cyclic_band_solve(D, rhs)
        except np.linalg.LinAlgError:      # singular band or corner system
            pass
        else:
            if np.all(np.isfinite(delta)):
                return delta, False
    J = grid.pattern_matrix(D)
    if grid.n == 2:
        sym = _circulant_symbol(D, grid)
        if np.all(np.isfinite(sym)) and np.all(sym != 0):
            # tight enough that Newton counts and iterates match spsolve
            delta, converged = _gmres(J, rhs,
                                      _circulant_preconditioner(sym, grid))
            if converged:
                return delta, False
    return spla.spsolve(J.tocsc(), rhs), True


def _check_barrier(zvals, hp):
    lo, hi = hp.t_minus, hp.t_plus
    zmin, zmax = float(zvals.min()), float(zvals.max())
    if not (lo < zmin and zmax < hi):
        raise BarrierViolation(
            f"iterate range [{zmin:.6g}, {zmax:.6g}] leaves the open slab "
            f"({lo:.6g}, {hi:.6g})")


def newton_solve(z0, s, hp, cfg=None, theta_max=None, at=None):
    """Damped Newton at fixed s; every accepted iterate stays admissible.

    Backtracks (up to _MAX_HALVINGS times) while the trial is inadmissible,
    leaves the profile interval, or fails to decrease the residual
    sup-norm.  The start and every accepted iterate are asserted to lie
    strictly inside hp's barrier slab (t_minus, t_plus); BarrierViolation
    names the iterate's range otherwise.  When theta_max is given (the
    continuation does), a NewtonStall is raised as soon as the undamped
    corrections contract by a ratio above it.

    at, the NewtonStats of a solve that returned z0 (the continuation's
    last accepted step), lends its evaluation at.state to the start, whose
    geometry and f do not depend on s (see _evaluate).  Once Newton
    accepts an iterate it has moved past z0, and at.state is released, so
    that the evaluation is not held through the solve.
    """
    cfg = cfg or SolverConfig()
    zvals = field_values(z0).copy()
    # ConeError here = inadmissible start
    state = _evaluate(zvals, s, hp, at=None if at is None else at.state)
    _check_barrier(zvals, hp)
    rnorm = float(np.abs(state.res).max())
    norms = [rnorm]
    iters = 0
    halvings = fallbacks = 0
    dnorm = theta0 = 0.0
    while not rnorm <= cfg.newton_tol:      # a NaN residual never converges
        if iters >= cfg.max_newton:
            raise NewtonStall(
                f"no convergence in {cfg.max_newton} iterations at s={s:.6g} "
                f"(residual {rnorm:.3e})")
        delta, fell_back = _linear_step(_analytic_jacobian(state, hp),
                                        -hp.grid.flatten(state.res), hp.grid)
        fallbacks += fell_back
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
        for _ in range(_MAX_HALVINGS + 1):
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
        if at is not None:                # moved past z0: end the loan
            at.state = None
        _check_barrier(zvals, hp)
        iters += 1
        norms.append(rnorm)
    return (NodeField(zvals, hp.grid),
            NewtonStats(iterations=iters, residual_norms=norms,
                        halvings=halvings, fallbacks=fallbacks,
                        theta0=theta0, state=state))


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


# the columns of steps.csv, in StepRecord's field order
_STEP_COLUMNS = tuple(f.name for f in fields(StepRecord))


@dataclass
class SolveReport:
    steps: list
    # continuation returns a report only once s = 1 is reached
    verdict = "converged"

    @property
    def s_values(self):
        return [st.s for st in self.steps]

    @property
    def final(self):
        return self.steps[-1]

    def csv_header(self):
        return ",".join(_STEP_COLUMNS)

    def csv_rows(self):
        # %.17g prints the integer newton_iters as its digits
        for st in self.steps:
            yield ",".join(f"{getattr(st, c):.17g}" for c in _STEP_COLUMNS)


def _monitors(stats, hp, s, ds):
    """The StepRecord of the state Newton accepted at s, a step ds after
    the last, read from Newton's evaluation of it, stats.state."""
    state = stats.state
    zvals = state.geom.z
    margin = curvature.cone_margin(hp.spec, state.geom.lam)
    return StepRecord(s, ds, stats.iterations, float(np.abs(state.res).max()),
                      float(zvals.min()), float(zvals.max()),
                      float(np.min(margin)), state.geom.grad_sup,
                      float(state.geom.lam[..., 0].max()))


def continuation(hp, cfg=None):
    """Track the solution branch from (s=0, z=t0) to s=1.

    The first step tries s = cfg.ds0 (by default s = 1 at once).  Newton
    abandons a step as soon as a correction fails to contract by 1/2
    (Theta > 1/2); that, any other NewtonStall and a Newton iterate that
    leaves the barrier slab halve ds, and below ds_min a
    ContinuationStall names the last cause.  After an accepted step whose
    first contraction Theta_1 is <= 1/4, ds doubles, clamped so that
    s = 1 is hit exactly.  Accepted states stay inside the barrier slab,
    which newton_solve asserts, and the admissibility cone, which is
    curvature.f_eval's to assert: it raises ConeError on every evaluation
    with a non-positive margin, Newton halves a trial that fails it, and
    a start that fails it ends the solve, so no cone check is repeated
    here.  Each step starts from the evaluation Newton accepted last: the
    same z, so only Psi changes.
    """
    cfg = cfg or SolverConfig()
    report = SolveReport(steps=[])
    z = NodeField.constant(hp.grid, hp.t0)
    z, stats = newton_solve(z, 0.0, hp, cfg)
    report.steps.append(_monitors(stats, hp, 0.0, 0.0))
    s = 0.0
    ds = cfg.ds0
    while s < 1.0:
        s_try = min(s + ds, 1.0)
        try:
            z_new, stats = newton_solve(z, s_try, hp, cfg,
                                        theta_max=_THETA_MAX, at=stats)
        except (NewtonStall, BarrierViolation) as exc:
            ds *= 0.5
            if ds < cfg.ds_min:
                cause = exc if isinstance(exc, NewtonStall) \
                    else f"barrier exit: {exc}"
                raise ContinuationStall(
                    f"step fell below ds_min = {cfg.ds_min:.3e} at s = {s:.6g}"
                    f": {cause}") from exc
            continue
        report.steps.append(_monitors(stats, hp, s_try, s_try - s))
        z, s = z_new, s_try
        if stats.theta0 <= _THETA_GROW:
            ds = min(2.0 * ds, 1.0 - s)
    return z, report


# -- manufactured solutions ---------------------------------------------------

class ManufacturedProblem:
    """Prescription tabulated from an exact height field, never checked
    against the existence hypotheses that build_prescription verifies;
    Newton still keeps its iterates inside the slab (t_minus, t_plus).

    psi is a function of u alone (t-independent), so d_t Psi = 0; it
    generally violates the decay hypothesis, which is the point: it gives
    exact nonconstant solutions for convergence-order studies.
    """

    def __init__(self, grid, profile, spec, psi_values, t_minus, t_plus):
        self.grid = grid
        self.profile = profile
        self.spec = spec
        self.psi_values = np.asarray(psi_values, dtype=float)
        self.t_minus = float(t_minus)
        self.t_plus = float(t_plus)
        self.t0 = 0.5 * (t_minus + t_plus)

    def psi_of(self, s, zvals, h, h1):
        return self.psi_values, np.zeros_like(self.psi_values)


def manufactured_field(grid, center, amplitude):
    """Exact height field with analytic derivatives.

    n=1: z = c + A sin(w x);  n=2: z = c + A sin(w x) cos(w y), with
    w = 2 pi / L, one period per axis.  Returns (z, grad, hess) in grid
    layout.
    """
    w = 2.0 * np.pi / grid.L
    X = grid.coords()
    x = w * X[0]
    if grid.n == 1:
        z = center + amplitude * np.sin(x)
        grad = (amplitude * w * np.cos(x))[None]
        hess = (-amplitude * w * w * np.sin(x))[None, None]
        return z, grad, hess
    y = w * X[1]
    sx, cx = np.sin(x), np.cos(x)
    sy, cy = np.sin(y), np.cos(y)
    z = center + amplitude * sx * cy
    grad = np.stack([amplitude * w * cx * cy, -amplitude * w * sx * sy])
    hxx = -amplitude * w * w * sx * cy      # = hyy
    hxy = -amplitude * w * w * cx * sy
    hess = np.stack([np.stack([hxx, hxy]), np.stack([hxy, hxx])])
    return z, grad, hess


def build_manufactured(grid, profile, spec):
    """Manufactured problem: z_m = manufactured_field of amplitude
    _MANUFACTURED_AMPLITUDE, centred at height 1, plus the psi that makes
    it exact.

    The prescription is f(lam) of the *continuum* geometry of z_m (exact
    analytic derivatives), so the discrete residual at z_m is pure stencil
    truncation error.
    """
    center = 1.0
    z, grad, hess = manufactured_field(grid, center, _MANUFACTURED_AMPLITUDE)
    geom = geometry_from_derivatives(z, grad, hess, grid, profile)
    psi = curvature.f_eval(spec, geom.lam)
    span = 3.0 * _MANUFACTURED_AMPLITUDE
    hp = ManufacturedProblem(grid, profile, spec, psi,
                             t_minus=center - span, t_plus=center + span)
    return NodeField(z, grid), hp


def manufactured_residual_norm(grid, profile, spec):
    """Sup-norm of the discrete residual at build_manufactured's exact
    solution."""
    z, hp = build_manufactured(grid, profile, spec)
    return float(np.abs(residual(z, 1.0, hp).values).max())
