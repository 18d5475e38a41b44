"""Extrinsic geometry of the graph {(z(u), u)} in the warped product.

All quantities are computed per node from (z, grad z, hess z) and the
profile values h(z), h'(z):

    W       = sqrt(h^2 + |grad z|^2)
    g_ij    = h^2 delta_ij + z_i z_j
    g^ij    = delta_ij / h^2 - z_i z_j / (h^2 W^2)
    a_ij    = (-h z_ij + 2 h' z_i z_j + h^2 h' delta_ij) / W
    A       = g^{-1} a                      (shape operator)
    lam     = eigenvalues of g^{-1/2} a g^{-1/2}, sorted descending
    nu0     = <N, e_0> = -h / W             (downward orientation)
    tau     = -h nu0 = h^2 / W              (support function)
    eta     = -H(z), H an antiderivative of h

Eigenvalues come from the symmetrized form, which is similar to A, so
they are real and equal to the principal curvatures.  The inverse square
root of the rank-one-updated metric has the cancellation-free closed form

    g^{-1/2} = I/h - (p p^T) / (W h (W + h)),   p = grad z.

The Newton path needs only h, h', h'', W, the derivatives, lam and, at
n = 2, the g-orthonormal eigenvectors, so those are built per node from
scalar components with no batched linear algebra; h^2 and the products
of the gradient's components are formed once and shared by W, g^{-1/2}
and a.  At n = 1, lam = a / W^2.  At
n = 2 the symmetrized form [[p, q], [q, r]] is diagonalized in closed
form the way LAPACK's dlaev2 does it: the eigenvalue of larger magnitude
is (p + r)/2 +- rad with the sign of p + r, the other is det / that one
(no cancellation), and the eigenvector of the larger eigenvalue is
(p - r + 2 rad, 2q) or (2q, 2 rad - p + r), whichever avoids
cancellation.  The matrices g, g^{-1}, a, A, the symmetrized form, nu0,
tau and eta are not read on the Newton path, so they are built on first
access, g, g^{-1} and a from the components Newton formed.

The derivative of f(lam) in the form is one frame sum, sum_k f_k v_k v_k^T
(n = 2): over the g-orthonormal eigenvectors for Newton
(GraphGeometry.frame_sum), over the eig2_sym eigenvectors of a raw
symmetric matrix for verification (matrix_derivative).  At n = 1 it is
f_1 s^2 with f_1 = 1, which the solver forms in closed form.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import curvature
from .errors import ConfigError, FrameError
from .grid import field_values

_FRAME_TOL = 1e-10


def eig2_sym(p, q, r):
    """Eigenpairs of the symmetric 2x2 matrices [[p, q], [q, r]].

    Returns (lam_max, lam_min, c, s): eigenvalues sorted descending and the
    unit eigenvector (c, s) of lam_max; (-s, c) belongs to lam_min.  At a
    multiple eigenvalue (q = 0, p = r) the eigenvector is (1, 0).
    """
    sm = p + r
    df = p - r
    tq = 2.0 * q
    rt = np.hypot(df, tq)                       # = lam_max - lam_min
    # the eigenvalue of larger magnitude, then the other as det / it
    big = 0.5 * (sm + np.copysign(rt, sm))
    det = p * r - q * q
    nz = big != 0.0
    other = np.divide(det, big, out=np.zeros_like(big), where=nz)
    # max/min rather than the sign of p + r: at a double eigenvalue the
    # quotient may land one ulp on either side
    lam_max = np.maximum(big, other)
    lam_min = np.minimum(big, other)
    # ([[p, q], [q, r]] - lam_max) (x, y) = 0: of its two solutions, take
    # the one whose entries add rather than cancel
    pos = df >= 0.0
    x = np.where(pos, df + rt, tq)
    y = np.where(pos, tq, rt - df)
    nrm = np.hypot(x, y)
    umbilic = nrm == 0.0
    nrm[umbilic] = 1.0
    c = x / nrm
    c[umbilic] = 1.0
    return lam_max, lam_min, c, y / nrm


class GraphGeometry:
    """Per-node extrinsic data of a graph (grid axes first, matrix axes last).

    grad is (*shape, n), hess (*shape, n, n), lam (*shape, n) descending;
    g, g_inv, a, A, atilde are (*shape, n, n), built from the
    components of p p^T and g^{-1/2} that geometry_from_derivatives formed.
    """

    def __init__(self, grid, profile, z, grad, hess, h, h1, h2, W, lam,
                 frame, inv_sqrt, outer_p):
        self.grid = grid
        self.profile = profile
        self.z = z
        self._grad = grad              # grid layout (n, *shape)
        self._hess = hess              # grid layout (n, n, *shape)
        self.h = h
        self.h1 = h1
        self.h2 = h2
        self.W = W
        self.lam = lam
        self._frame = frame            # (c, s) of lam_max at n = 2
        self._inv_sqrt = inv_sqrt      # _inv_sqrt_metric's components
        self._outer_p = outer_p        # _outer(grad)'s components

    @property
    def grad(self):
        return np.moveaxis(self._grad, 0, -1)

    @property
    def hess(self):
        return np.moveaxis(self._hess, (0, 1), (-2, -1))

    @property
    def grad_sup(self):
        return float(np.sqrt(sum(p * p for p in self._grad)).max())

    def frame_sum(self, w):
        """sum_k w_k v_k v_k^T over the g-orthonormal eigenvectors v_k, at
        n = 2 (at n = 1 the sum is w s^2, s = g^{-1/2}, which the solver
        forms itself).

        w is (*shape, 2), matched to lam; the result is _frame_sum's.
        """
        return _frame_sum(w, self._eigvec_g)

    @cached_property
    def _eigvec_g(self):
        # components V[i][k] of v_k = g^{-1/2} q_k, with q_0 = (c, s) and
        # q_1 = (-s, c)
        s00, s01, s11 = self._inv_sqrt
        c, s = self._frame
        return [[s00 * c + s01 * s, s01 * c - s00 * s],
                [s01 * c + s11 * s, s11 * c - s01 * s]]

    # -- fields read by verification only, built on first access ---------

    @cached_property
    def g(self):
        return _sym(_identity_plus(self.h * self.h, 1.0, self._outer_p))

    @cached_property
    def g_inv(self):
        h, W = self.h, self.W
        return _sym(_identity_plus(1.0 / (h * h), -1.0 / (h * h * W * W),
                                   self._outer_p))

    @cached_property
    def _second(self):
        # _second_form's components, as geometry_from_derivatives forms them
        h = self.h
        return _second_form(h, h * h, self.h1, self.W, self._outer_p,
                            self._hess)

    @cached_property
    def a(self):
        return _sym(self._second)

    @cached_property
    def A(self):
        return self.g_inv @ self.a

    @cached_property
    def atilde(self):
        return _sym(_symmetrized_form(self._second, self._inv_sqrt))

    @cached_property
    def nu0(self):
        return -self.h / self.W

    @cached_property
    def tau(self):
        return self.h * self.h / self.W

    @cached_property
    def eta(self):
        return np.asarray(-self.profile.antiderivative(self.z), dtype=float)


def _frame_sum(w, V):
    """sum_k w_k v_k v_k^T from the components V[i][k] of the vectors v_k.

    w is (..., n), matched to the v_k.  Returns the symmetric result as an
    n x n nested list of arrays (the off-diagonal entries are one shared
    array).  Newton's M (GraphGeometry.frame_sum) and matrix_derivative
    are this one sum over two frames.
    """
    rng = range(len(V))
    M = [[None for _ in rng] for _ in rng]
    for i in rng:
        for j in range(i, len(V)):
            M[i][j] = M[j][i] = sum(w[..., k] * V[i][k] * V[j][k]
                                    for k in rng)
    return M


def matrix_derivative(spec, m):
    """Derivative of f(eigenvalues of m) in the symmetric matrices m.

    m is (..., 2, 2), at spec.n = 2: verify checks Newton's frame sum
    through it at n = 2 only.  Returns the (..., 2, 2) frame sum of
    f_grad(lam) over the eig2_sym eigenpairs (lam_k, q_k) of m.  f is
    symmetric, so f_1 - f_2 = O(lam_1 - lam_2) and the sum stays
    smooth through repeated eigenvalues with no limit rule.  On the
    symmetrized form it is Newton's M seen through g^{1/2}:
    frame_sum(f_grad(lam)) = g^{-1/2} matrix_derivative(atilde) g^{-1/2}.
    """
    m = np.asarray(m, dtype=float)
    if spec.n != 2 or m.shape[-2:] != (2, 2):
        raise ConfigError(f"matrix_derivative needs (..., 2, 2) matrices at "
                          f"n = 2, got shape {m.shape} at n = {spec.n}")
    # one flat batch, so that a single matrix takes the array path too
    flat = m.reshape(-1, 2, 2)
    lam_max, lam_min, c, s = eig2_sym(flat[:, 0, 0], flat[:, 0, 1],
                                      flat[:, 1, 1])
    lam = np.stack([lam_max, lam_min], axis=-1)
    M = _frame_sum(curvature.f_grad(spec, lam), [[c, -s], [s, c]])
    return np.moveaxis(np.array(M), -1, 0).reshape(m.shape)


# Per-node symmetric n x n quantities as lists of their upper-triangle
# components: [m] at n = 1, [m00, m01, m11] at n = 2.

def _sym(comps):
    """(*shape, n, n) matrices from upper-triangle components."""
    if len(comps) == 1:
        return comps[0][..., None, None]
    m00, m01, m11 = comps
    return np.moveaxis(np.array([[m00, m01], [m01, m11]]), (0, 1), (-2, -1))


def _outer(grad):
    """p p^T, p = grad z."""
    if len(grad) == 1:
        return [grad[0] * grad[0]]
    p0, p1 = grad
    return [p0 * p0, p0 * p1, p1 * p1]


def _identity_plus(d, c, pp):
    """d I + c p p^T, from pp = _outer(p); off the diagonal it adds I's
    zero, as the dense form does, to keep that form's signs of zero."""
    if len(pp) == 1:
        return [d + c * pp[0]]
    pp00, pp01, pp11 = pp
    return [d + c * pp00, 0.0 + c * pp01, d + c * pp11]


def _inv_sqrt_metric(h, W, pp):
    """g^{-1/2} = I/h - p p^T / (W h (W + h)), from pp = _outer(p)."""
    c = 1.0 / (W * h * (W + h))
    if len(pp) == 1:
        return [1.0 / h - pp[0] * c]
    pp00, pp01, pp11 = pp
    ih = 1.0 / h
    return [ih - pp00 * c, -pp01 * c, ih - pp11 * c]


def _second_form(h, hh, h1, W, pp, hess):
    """a = (-h hess + 2 h' p p^T + h^2 h' I) / W, from hh = h^2 and
    pp = _outer(p)."""
    diag = hh * h1
    if len(pp) == 1:
        return [(-h * hess[0, 0] + 2.0 * h1 * pp[0] + diag) / W]
    pp00, pp01, pp11 = pp
    return [(-h * hess[0, 0] + 2.0 * h1 * pp00 + diag) / W,
            (-h * hess[0, 1] + 2.0 * h1 * pp01) / W,
            (-h * hess[1, 1] + 2.0 * h1 * pp11 + diag) / W]


def _symmetrized_form(a, S):
    """g^{-1/2} a g^{-1/2}, whose eigenvalues are the curvatures, from the
    components of a (_second_form) and of g^{-1/2} (_inv_sqrt_metric)."""
    if len(S) == 1:
        return [S[0] * a[0] * S[0]]
    s00, s01, s11 = S
    a00, a01, a11 = a
    # rows of g^{-1/2} a, then times g^{-1/2} (symmetric by construction)
    t00 = s00 * a00 + s01 * a01
    t01 = s00 * a01 + s01 * a11
    t10 = s01 * a00 + s11 * a01
    t11 = s01 * a01 + s11 * a11
    m01 = 0.5 * (t00 * s01 + t01 * s11 + t10 * s00 + t11 * s01)
    return [t00 * s00 + t01 * s01, m01, t10 * s01 + t11 * s11]


def geometry_from_derivatives(zvals, grad, hess, grid, profile):
    """Build the geometry from explicit derivative fields.

    grad and hess use the grid layout (n, ...) and (n, n, ...); the solver
    passes discrete stencils here, the manufactured-solution harness passes
    exact analytic derivatives.
    """
    h, h1, h2 = (np.asarray(v) for v in profile.eval(zvals))
    grad = np.asarray(grad)
    hess = np.asarray(hess)
    # h^2 and the products of the gradient components, formed once
    hh, pp = h * h, _outer(grad)
    W = np.sqrt(hh + (pp[0] if len(pp) == 1 else pp[0] + pp[2]))
    # at n = 1 the curvature is s a s with the scalar s = g^{-1/2} = 1/W in
    # its rank-one form: at fine 1D grids the residual's rounding floor is
    # near newton_tol, so this evaluation order is kept to keep 1D
    # iterates, and Newton counts, unchanged to the last bit
    S = _inv_sqrt_metric(h, W, pp)
    a = _second_form(h, hh, h1, W, pp, hess)
    st = _symmetrized_form(a, S)
    if grid.n == 1:
        lam, frame = st[0][..., None], None
    else:
        lam_max, lam_min, c, s = eig2_sym(*st)
        lam = np.stack([lam_max, lam_min], axis=-1)
        frame = (c, s)
    return GraphGeometry(grid, profile, np.asarray(zvals, dtype=float), grad,
                         hess, h, h1, h2, W, lam, frame, S, pp)


def compute_geometry(z, grid, profile):
    """Geometry of a discrete height field (stencil derivatives).

    Raises DomainError if any height leaves the profile interval.
    """
    zvals = field_values(z)
    return geometry_from_derivatives(
        zvals, grid.gradient(zvals), grid.hessian(zvals), grid, profile)


def special_frame_deviations(geom, idx):
    """Recompute the shape operator in the gradient-aligned frame.

    idx holds one index array per grid axis.  At each of its nodes the
    coordinates are rotated so axis 1 follows grad z, the special frame
    formulas (diagonal metric) are evaluated, and the maximum deviation
    from the rotated general-formula operator g^{-1} a is returned.
    Raises FrameError at the first node where grad z vanishes.
    """
    grad = geom.grad[idx]
    norm = np.sqrt((grad ** 2).sum(axis=-1))
    bad = norm < _FRAME_TOL
    if np.any(bad):
        k = int(np.argmax(bad))
        node = tuple(int(i[k]) for i in idx)
        raise FrameError(f"|grad z| = {norm[k]:.3e} at node {node}: "
                         "special frame undefined")
    n = geom.grid.n
    if n == 1:
        R = np.where(grad > 0, 1.0, -1.0)[..., None]
    else:
        e0, e1 = (grad / norm[:, None]).T
        R = np.stack([np.stack([e0, e1], axis=-1),
                      np.stack([-e1, e0], axis=-1)], axis=-2)
    Rt = np.swapaxes(R, -1, -2)
    Ht = R @ geom.hess[idx] @ Rt
    h, h1, W = geom.h[idx], geom.h1[idx], geom.W[idx]
    z1 = norm
    A_sp = np.empty(Ht.shape)
    A_sp[:, 0, 0] = (-h * Ht[:, 0, 0] + 2.0 * h1 * z1 * z1 + h * h * h1) \
        / W ** 3
    for j in range(1, n):
        A_sp[:, 0, j] = -h * Ht[:, 0, j] / W ** 3
        A_sp[:, j, 0] = -Ht[:, j, 0] / (h * W)
    for i in range(1, n):
        for j in range(1, n):
            A_sp[:, i, j] = (-h * Ht[:, i, j]
                             + (h * h * h1 if i == j else 0.0)) / (h * h * W)
    return np.abs(A_sp - R @ geom.A[idx] @ Rt).max(axis=(-2, -1))


def support_identity_check(geom):
    """Discrete residuals of the support-function gradient identities.

    err_eta: base identity  d_i(eta o z) = -h(z) z_i.
    err_tau: surface identity  grad tau = -A(grad eta), with surface
    gradients expressed through g^{-1} in base coordinates.

    Both vanish in the continuum, so the returned values are pure stencil
    truncation errors, O(dx^order).
    """
    grid = geom.grid
    Deta = np.moveaxis(grid.gradient(geom.eta), 0, -1)
    err_eta = float(np.abs(Deta + geom.h[..., None] * geom.grad).max())
    Dtau = np.moveaxis(grid.gradient(geom.tau), 0, -1)
    lhs = np.einsum("...ij,...j->...i", geom.g_inv, Dtau)
    rhs = -np.einsum("...ij,...j->...i", geom.A,
                     np.einsum("...ij,...j->...i", geom.g_inv, Deta))
    err_tau = float(np.abs(lhs - rhs).max())
    return err_eta, err_tau


def fields_csv(geom):
    """CSV dump of (W, lambda_max, lambda_min, tau) keyed by coordinates.

    One row per node in flat (F) order, axis 0 fastest; every value is
    written with %.17g, so it reads back exactly.

    Each column formats each of its distinct values once, in one %
    operation, and the rows index those strings by np.unique's inverse:
    the coordinates repeat N values each, and a cos-mode solve keeps its
    reflection symmetries bit for bit, so W, lambda and tau repeat too.
    The keys are the int64 bit patterns, not the floats.  %.17g is a
    function of the bits, so one string per bit pattern is exact, while
    float keys would merge -0.0 with 0.0 (printed -0 and 0) and np.unique
    merges NaNs.  The text is thus a value-by-value dump for any input.
    """
    grid = geom.grid
    named = [(f"u{d}", u) for d, u in enumerate(grid.coords())] + [
        ("W", geom.W), ("lambda_max", geom.lam[..., 0]),
        ("lambda_min", geom.lam[..., -1]), ("tau", geom.tau)]
    k = len(named)
    parts = [",".join(name for name, _ in named) + "\n"]
    parts += [None] * (grid.size * k)
    for j, (_, col) in enumerate(named):
        bits, inv = np.unique(grid.flatten(col).view(np.int64),
                              return_inverse=True)
        # "\0" never occurs in %.17g output, so it splits the one text
        fmt = "%.17g\n\0" if j == k - 1 else "%.17g,\0"
        text = (fmt * len(bits)) % tuple(bits.view(np.float64).tolist())
        strings = np.array(text.split("\0"), dtype=object)
        parts[1 + j::k] = strings[inv].tolist()
    return "".join(parts)
