import numpy as np
import pytest
from hypothesis import settings

import warpcurve as wc

# every property test draws the same examples on every run, so two runs of
# the suite, on one commit or on two, differ only by the code; a test's own
# @settings keeps its example count and inherits this
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

SINH1 = 1.1752011936438014568823818506       # sinh(1), 30 digits
COSH1 = 1.5430806348152437784779056208
TANH1 = 0.7615941559557648881194582826


@pytest.fixture(scope="session")
def cosh_profile():
    return wc.WarpingProfile.cosh(0.2, 3.0)


@pytest.fixture(scope="session")
def exp_profile():
    return wc.WarpingProfile.exp(-2.0, 2.0)


def make_problem(n=1, N=256, r=1, eps=0.0, t_minus=0.5, t_plus=1.6,
                 t0=None, eps_phi=0.1, order=2, profile=None):
    """Canonical cosh problem with the crossing exactly at t = 1."""
    profile = profile or wc.WarpingProfile.cosh(0.2, 3.0)
    grid = wc.make_grid(n, N, order=order)
    spec = wc.CurvatureSpec(n=n, r=r)
    mode = 1 if n == 1 else (1, 1)
    p = wc.build_prescription(profile, spec, grid, c0=np.sinh(1.0), eps=eps,
                              mode=mode, t_minus=t_minus, t_plus=t_plus)
    return wc.build_homotopy(p, t0=t0, eps_phi=eps_phi)


def fields_csv_by_node(geom):
    """fields.csv written one node at a time, in flat (F) order."""
    grid = geom.grid
    X = grid.coords()
    out = [",".join(f"u{d}" for d in range(grid.n))
           + ",W,lambda_max,lambda_min,tau\n"]
    for i in range(grid.size):
        node = np.unravel_index(i, grid.shape, order="F")
        cs = ",".join(format(X[d][node], ".17g") for d in range(grid.n))
        out.append(f"{cs},{geom.W[node]:.17g},{geom.lam[node][0]:.17g},"
                   f"{geom.lam[node][-1]:.17g},{geom.tau[node]:.17g}\n")
    return "".join(out)


def quadratic_constant(norms):
    """max r_{k+1} / r_k^2 over the last three pairs of Newton residual
    norms above the rounding floor: bounded under quadratic convergence."""
    rs = [r for r in norms if r > 5e-15]
    return max(rb / ra ** 2 for ra, rb in list(zip(rs, rs[1:]))[-3:])


def inv_sqrt(m):
    """m^{-1/2} of symmetric positive definite matrices (..., n, n), from
    their eigendecomposition."""
    w, U = np.linalg.eigh(m)
    return (U / np.sqrt(w)[..., None, :]) @ np.swapaxes(U, -1, -2)
