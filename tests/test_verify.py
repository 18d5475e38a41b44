import re

import numpy as np
import pytest

import warpcurve as wc
from warpcurve import verify
from warpcurve.grid import NodeField, random_smooth
from warpcurve.oracle import fd_colored_jacobian
from warpcurve.solver import assemble_jacobian

from conftest import make_problem


def test_special_frame_row_with_no_sloped_node_reads_zero(cosh_profile):
    grid = wc.make_grid(2, 16)
    geom = wc.compute_geometry(NodeField.constant(grid, 1.0), grid,
                               cosh_profile)
    row = verify._special_frame_row(geom, np.random.default_rng(3))
    assert row.name == "geometry: special frame dev, 0 nodes"
    assert row.value == 0.0 and row.passed


@pytest.mark.parametrize("n", [1, 2])
def test_special_frame_row_counts_the_sloped_nodes(cosh_profile, n):
    grid = wc.make_grid(n, 32)
    z = 1.0 + random_smooth(grid, np.random.default_rng(5), 0.1)
    geom = wc.compute_geometry(z, grid, cosh_profile)
    row = verify._special_frame_row(geom, np.random.default_rng(9))
    idx = tuple(np.random.default_rng(9).integers(32, size=(400, n)).T)
    sloped = np.sqrt((geom.grad[idx] ** 2).sum(axis=-1)) >= 1e-8
    assert row.name == f"geometry: special frame dev, {sloped.sum()} nodes"
    assert 0.0 < row.value <= 1e-10 and row.passed


@pytest.mark.parametrize("N", [16, 33, 48, 64, 100, 128])
@pytest.mark.parametrize("n", [1, 2])
def test_one_node_draw_equals_the_sequential_draws(n, N):
    # the verify rows draw their nodes in one call; a seed must give the
    # nodes, and leave the generator in the state, of one draw per node
    seq, one = np.random.default_rng(N + n), np.random.default_rng(N + n)
    nodes = np.array([seq.integers(N, size=n) for _ in range(400)])
    assert np.array_equal(one.integers(N, size=(400, n)), nodes)
    assert np.array_equal(one.integers(N, size=(50, 2)),
                          [seq.integers(N, size=2) for _ in range(50)])
    assert one.uniform() == seq.uniform()


_ROWS_1D = [
    "profile: min h on domain scan",
    "profile: min kappa on domain scan",
    "prescription: min psi on slab",
    "hypothesis (a): min psi - k, t <= t_minus",
    "hypothesis (b): min k - psi, t >= t_plus",
    "hypothesis (c): max d/dt(h psi) on slab",
    "gauge (a): min phi",
    "gauge (b): min phi - 1, t <= t_minus",
    "gauge (c): min 1 - phi, t >= t_plus",
    "gauge (d): max phi'",
    "gauge: |phi(t0) - 1|",
    "homotopy (ii): Psi > 0",
    "homotopy (iii): Psi(s, t_minus) > k",
    "homotopy (iv): Psi(s, t_plus) < k",
    "homotopy (v): d_t Psi + kappa Psi < 0",
    "curvature: Euler |sum f_i lam_i - f|",
    "curvature: midpoint concavity violation",
    "curvature: min sum f_i on slab",
    "curvature: min sum f_i lam_i on slab",
    "curvature: min f_i on slab",
    "curvature: Schur ordering violation",
    "curvature: homogeneity |f(c lam) - c f|",
    "oracle: f_grad vs FD, 200 cone points",
    "geometry: umbilic slice |lam - kappa|",
    "geometry: det g identity rel err",
    "geometry: orientation nu0 W = -h",
    "geometry: special frame dev, <k> nodes",
    "geometry: support eta error ratio N->2N",
    "geometry: support tau error ratio N->2N",
    "oracle: analytic J v vs FD, 3 states x 2 probes",
]
# n = 2 adds the permutation, matrix-derivative and eig2 rows
_ROWS_2D = (_ROWS_1D[:22] + ["curvature: permutation symmetry"]
            + _ROWS_1D[22:23] + ["oracle: matrix derivative vs FD"]
            + _ROWS_1D[23:27] + ["oracle: eig2 vs eigh eigenvalues"]
            + _ROWS_1D[27:])


@pytest.mark.parametrize("n, N, r, names", [(1, 64, 1, _ROWS_1D),
                                            (2, 16, 2, _ROWS_2D)])
def test_condition_table_row_names_are_pinned(n, N, r, names):
    # the benchmark's verify workload requires these 33 rows at n = 2; a
    # renamed or dropped row fails here rather than in the benchmark
    hp = make_problem(n=n, N=N, r=r, eps=0.1, t_plus=1.5)
    rows = verify.build_condition_table(hp)
    got = [re.sub(r"\d+ nodes$", "<k> nodes", row.name) for row in rows]
    assert got == names
    assert len(_ROWS_2D) == 33 and all(row.passed for row in rows)


def _flip_first_grad(state, hp, coef):
    return [coef[0], -coef[1]] + coef[2:]


def _halve_cross(state, hp, coef):
    # c_hess of d11 is -(h / W) (2 M_01): drop the factor 2
    return coef[:-1] + [0.5 * coef[-1]]


def _drop_psi_t(state, hp, coef):
    # the identity coefficient is c_z - psi_t
    return [coef[0] + state.psi_t] + coef[1:]


def _entrywise_error(hp, seed=12345, states=3):
    """The analytic J against the colored-FD one, entry by entry.

    oracle.fd_colored_jacobian at the probe row's seeded states; both
    Jacobians are in the grid's fixed layout.
    """
    rng = np.random.default_rng(seed + 3)
    amp = 0.04 * (hp.t_plus - hp.t_minus)
    worst = 0.0
    for _ in range(states):
        z = hp.t0 + random_smooth(hp.grid, rng, amp)
        s = float(rng.uniform(0.0, 1.0))
        Ja = assemble_jacobian(z, s, hp)
        Jf = fd_colored_jacobian(z, s, hp)
        assert np.array_equal(Ja.indices, Jf.indices)
        assert np.array_equal(Ja.indptr, Jf.indptr)
        worst = max(worst, float(np.abs(Ja.data - Jf.data).max()
                                 / np.abs(Ja.data).max()))
    return worst


_FAULT_CASES = [(2, None), (2, _flip_first_grad), (2, _halve_cross),
                (2, _drop_psi_t), (1, None), (1, _flip_first_grad),
                (1, _drop_psi_t)]          # n = 1 has no cross term to halve


@pytest.mark.parametrize(
    "n, fault", _FAULT_CASES,
    ids=[("n1-" if n == 1 else "") + getattr(f, "__name__", "None")
         for n, f in _FAULT_CASES])
def test_jacobian_row_fails_on_each_seeded_fault(monkeypatch, n, fault):
    # the probe row and the entrywise reference difference the residual,
    # which the faults leave alone: a fault misses the 1e-6 bound by 10x
    hp = (make_problem(n=2, N=16, r=2, eps=0.1, t_plus=1.5) if n == 2
          else make_problem(n=1, N=256, r=1, eps=0.1, t_plus=1.5))
    if fault is not None:
        exact = wc.solver._jacobian_coefficients
        monkeypatch.setattr(wc.solver, "_jacobian_coefficients",
                            lambda state, hp: fault(state, hp,
                                                    exact(state, hp)))
    (row,) = verify.jacobian_rows(hp, seed=12345)
    assert row.name == "oracle: analytic J v vs FD, 3 states x 2 probes"
    entrywise = _entrywise_error(hp)
    assert row.passed == (fault is None), row.value
    if fault is None:
        assert row.value <= 1e-7 and entrywise <= 1e-7
    else:
        assert row.value >= 1e-5 and entrywise >= 1e-5, (row.value,
                                                         entrywise)


def test_jacobian_row_passes_a_correct_jacobian_at_n512():
    # the step scales with dx^2, so the probe error does not grow with N;
    # the entrywise comparison, whose step is a fixed 1e-6 (1 + |z|),
    # reads 2.2e-6 here
    hp = make_problem(n=2, N=512, r=2, eps=0.1, t_plus=1.5)
    (row,) = verify.jacobian_rows(hp, seed=12345, states=1)
    assert row.passed and row.value <= 1e-7, row.value


def test_jacobian_probe_states_are_halved_into_the_cone():
    # on this wide slab the second drawn state, t0 + a field of amplitude
    # 0.04 (t_plus - t_minus), leaves Gamma_1; verify used to exit with
    # that ConeError while the solve on the same problem succeeds
    prof = wc.WarpingProfile.exp(-1.936, 0.566)
    p = wc.build_prescription(prof, wc.CurvatureSpec(1, 1),
                              wc.make_grid(1, 32), c0=0.5, eps=0.05, mode=1,
                              t_minus=-1.7255, t_plus=0.2389)
    hp = wc.build_homotopy(p)
    rng = np.random.default_rng(12345 + 3)      # jacobian_rows' draws
    amp = 0.04 * (hp.t_plus - hp.t_minus)
    (dz0, s0), (dz1, s1) = [(random_smooth(hp.grid, rng, amp),
                             rng.uniform(0.0, 1.0)) for _ in range(2)]
    assemble_jacobian(hp.t0 + dz0, s0, hp)
    with pytest.raises(wc.ConeError):
        assemble_jacobian(hp.t0 + dz1, s1, hp)
    rows = verify.build_condition_table(hp, seed=12345)
    assert len(rows) == 30 and all(r.passed for r in rows)
    probe, = [r for r in rows if r.name.startswith("oracle: analytic J v")]
    assert probe.value <= 1e-7
