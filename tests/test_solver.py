import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import warpcurve as wc
from warpcurve import curvature, solver
from warpcurve.geometry import eig2_sym
from warpcurve.grid import NodeField, random_smooth
from warpcurve.oracle import fd_colored_jacobian, fd_jacobian
from warpcurve.solver import (SolverConfig, _linear_step, assemble_jacobian,
                              build_manufactured, continuation,
                              manufactured_residual_norm, newton_solve,
                              residual)
from warpcurve.verify import build_condition_table

from conftest import SINH1, inv_sqrt, make_problem, quadratic_constant


@pytest.fixture(scope="module")
def hp1():
    return make_problem(n=1, N=256)          # eps=0, t0 = 1.05


@pytest.fixture(scope="module")
def hp1_wavy():
    return make_problem(n=1, N=256, eps=0.1, t_plus=1.5)   # t0 = 1


def test_residual_zero_at_s0_constant(hp1):
    z = NodeField.constant(hp1.grid, hp1.t0)
    assert np.abs(residual(z, 0.0, hp1).values).max() <= 1e-14


def test_residual_zero_at_s1_crossing(hp1):
    z = NodeField.constant(hp1.grid, 1.0)
    assert np.abs(residual(z, 1.0, hp1).values).max() <= 1e-14


def test_residual_positive_above_crossing(hp1):
    z = NodeField.constant(hp1.grid, 1.1)
    r = residual(z, 1.0, hp1).values
    # tanh(1.1) - sinh(1)/cosh(1.1), frozen from 30-digit evaluation
    assert np.abs(r - 0.09616091838644745).max() <= 1e-14
    assert np.all(r > 0)


def test_residual_errors(hp1):
    grid = hp1.grid
    with pytest.raises(wc.DomainError):
        residual(NodeField.constant(grid, 3.5), 1.0, hp1)
    # a state outside the cone: at the bottom of a strong dip the graph
    # curves away from the downward normal, so lambda goes negative
    u = grid.coords()[0]
    z = 1.2 + 0.8 * np.cos(u)
    with pytest.raises(wc.ConeError) as exc:
        residual(NodeField(z, grid), 1.0, hp1)
    assert exc.value.node is not None


def test_jacobian_row_sums_at_constant_slice(hp1):
    # derivative stencils annihilate constants, so row sums equal the
    # zeroth-order coefficient k' - d_t Psi
    z = NodeField.constant(hp1.grid, hp1.t0)
    J = assemble_jacobian(z, 0.0, hp1)
    rowsums = np.asarray(J @ np.ones(hp1.grid.size))
    t0 = hp1.t0
    kap = np.tanh(t0)
    kprime = 1.0 / np.cosh(t0) ** 2
    expected = kprime + (hp1.eps_phi + kap) * kap   # = -phi'(t0) k(t0)
    assert np.abs(rowsums - expected).max() <= 1e-12
    assert expected > 0


def test_jacobian_sparsity_tridiagonal_periodic(hp1):
    z = NodeField.constant(hp1.grid, hp1.t0)
    J = assemble_jacobian(z, 0.5, hp1).tocsr()
    nnz_per_row = np.diff(J.indptr)
    assert nnz_per_row.max() <= 3


def test_analytic_vs_colored_fd_jacobian(hp1_wavy):
    rng = np.random.default_rng(17)
    grid = hp1_wavy.grid
    worst = 0.0
    for _ in range(5):
        z = NodeField(hp1_wavy.t0 + random_smooth(grid, rng, 0.05), grid)
        s = float(rng.uniform(0, 1))
        Ja = assemble_jacobian(z, s, hp1_wavy)
        Jf = fd_colored_jacobian(z, s, hp1_wavy)
        diff = np.abs((Ja - Jf).toarray()).max() / np.abs(Ja.data).max()
        worst = max(worst, diff)
    assert worst <= 1e-6


def test_newton_zero_iterations_at_exact_solution(hp1):
    z0 = NodeField.constant(hp1.grid, hp1.t0)
    z, stats = newton_solve(z0, 0.0, hp1)
    assert stats.iterations == 0
    assert np.array_equal(z.values, z0.values)


def test_newton_uniqueness_at_s0(hp1):
    u = hp1.grid.coords()[0]
    z0 = NodeField(hp1.t0 + 0.05 * np.sin(u), hp1.grid)
    z, stats = newton_solve(z0, 0.0, hp1)
    assert np.abs(z.values - hp1.t0).max() <= 1e-8
    norms = stats.residual_norms
    assert all(b < a for a, b in zip(norms, norms[1:]))   # monotone damping
    assert quadratic_constant(norms) < 100.0


def test_newton_stall_on_iteration_budget(hp1_wavy):
    z0 = NodeField.constant(hp1_wavy.grid, hp1_wavy.t0)
    cfg = SolverConfig(max_newton=1, newton_tol=1e-14)
    with pytest.raises(wc.NewtonStall):
        newton_solve(z0, 1.0, hp1_wavy, cfg)


def test_newton_barrier_assertion(hp1):
    # every Newton solve asserts hp's own open slab (t_minus, t_plus)
    for level in (hp1.t_minus, hp1.t_plus + 0.1):
        z0 = NodeField.constant(hp1.grid, level)
        with pytest.raises(wc.BarrierViolation, match="leaves the open slab "
                           r"\(0\.5, 1\.6\)"):
            newton_solve(z0, 0.0, hp1)


def test_continuation_reaches_one_with_strictly_increasing_s(hp1):
    z, report = continuation(hp1)
    s = report.s_values
    assert s[0] == 0.0 and s[-1] == 1.0
    assert all(b > a for a, b in zip(s, s[1:]))
    assert np.abs(z.values - 1.0).max() <= 1e-8
    assert report.final.residual <= 1e-10
    assert report.verdict == "converged"


def test_continuation_wavy_stays_in_crossing_interval(hp1_wavy):
    lo, hi = wc.barrier_crossings(hp1_wavy.prescription)
    z, report = continuation(hp1_wavy)
    for st in report.steps:
        assert lo < st.z_min and st.z_max < hi
        assert st.cone_margin > 0
    assert report.final.residual <= 1e-10


def _decaying_psi(t, x):
    # h psi = (sinh 1 + 0.1 cos u) e^{-0.2 (t - 1)} decreases strictly in t
    return (SINH1 + 0.1 * np.cos(x[-1])) * np.exp(-0.2 * (t - 1.0)) \
        / np.cosh(t)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_custom_prescription_solves_between_its_crossings(cosh_profile, n,
                                                          N):
    # a psi not of the radial-decay form reaches the solver and the
    # crossings through its psi and psi_pair alone
    p = wc.build_custom_prescription(
        cosh_profile, wc.CurvatureSpec(n, 1), wc.make_grid(n, N),
        _decaying_psi, lambda t, x: -(0.2 + np.tanh(t)) * _decaying_psi(t, x),
        t_minus=0.5, t_plus=1.5)
    lo, hi = wc.barrier_crossings(p)
    z, report = continuation(wc.build_homotopy(p))
    assert report.verdict == "converged"
    assert report.final.residual <= 1e-10
    for st in report.steps:
        assert lo < st.z_min and st.z_max < hi
    assert report.final.z_max - report.final.z_min > 0.05


def test_continuation_stall_surfaces(hp1_wavy):
    # one iteration cannot reach 1e-14 at any ds
    cfg = SolverConfig(max_newton=1, newton_tol=1e-14, ds_min=1e-2)
    with pytest.raises(wc.ContinuationStall):
        continuation(hp1_wavy, cfg)


def test_step_doubling_after_easy_successes(hp1, monkeypatch):
    # from a short first step, ds doubles after every step whose first
    # contraction is <= 1/4, and the last step is clamped onto s = 1
    thetas = []
    newton = solver.newton_solve

    def recording(*args, **kwargs):
        z, stats = newton(*args, **kwargs)
        thetas.append(stats.theta0)
        return z, stats

    monkeypatch.setattr(solver, "newton_solve", recording)
    _, report = continuation(hp1, SolverConfig(ds0=0.1))
    assert 0.0 < max(thetas) <= 0.25
    s, ds, expected = 0.0, 0.1, []
    while s < 1.0:
        s_next = min(s + ds, 1.0)
        expected.append((s_next, s_next - s))
        s, ds = s_next, min(2.0 * ds, 1.0 - s_next)
    assert [(st.s, st.ds) for st in report.steps[1:]] == expected
    assert [st.ds for st in report.steps[1:]] == pytest.approx(
        [0.1, 0.2, 0.4, 0.3], abs=1e-15)


def test_constant_solution_is_stencil_exact(hp1):
    for N in (128, 256):
        hp = make_problem(n=1, N=N)
        z = NodeField.constant(hp.grid, 1.0)
        assert np.abs(residual(z, 1.0, hp).values).max() <= 1e-13


def test_manufactured_residual_order(cosh_profile):
    spec = wc.CurvatureSpec(1, 1)
    errs = [manufactured_residual_norm(wc.make_grid(1, N), cosh_profile, spec)
            for N in (64, 128)]
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_manufactured_newton_polish(cosh_profile):
    grid = wc.make_grid(1, 128)
    spec = wc.CurvatureSpec(1, 1)
    zm, hp = build_manufactured(grid, cosh_profile, spec)
    z, stats = newton_solve(zm, 1.0, hp)
    # the discrete solution is O(dx^2) from the manufactured field
    assert np.abs(z.values - zm.values).max() <= 10 * grid.dx ** 2
    assert stats.iterations <= 3


def test_mesh_independent_newton_counts():
    iters = []
    for N in (128, 256):
        hp = make_problem(n=1, N=N, eps=0.1, t_plus=1.5)
        z0 = NodeField.constant(hp.grid, hp.t0)
        _, stats = newton_solve(z0, 1.0, hp)
        iters.append(stats.iterations)
    assert abs(iters[0] - iters[1]) <= 2


def test_jacobian_modes_give_same_newton_iterates():
    # warm start as inside continuation: converged at s=0.9, step to s=1
    hp = make_problem(n=1, N=256, eps=0.1, t_plus=1.5)
    zprev, _ = newton_solve(NodeField.constant(hp.grid, hp.t0), 0.9, hp)

    def first_iterates(jacobian, k=3):
        z = zprev.values.copy()
        out = []
        for _ in range(k):
            r = residual(z, 1.0, hp).values
            J = jacobian(z, 1.0, hp)
            z = z + hp.grid.unflatten(
                spla.spsolve(J.tocsc(), -hp.grid.flatten(r)))
            out.append(z.copy())
        return out

    za = first_iterates(assemble_jacobian)
    zf = first_iterates(fd_colored_jacobian)
    for a, b in zip(za, zf):
        assert np.abs(a - b).max() <= 1e-8


def test_solver_config_validation():
    with pytest.raises(wc.ConfigError):
        SolverConfig(newton_tol=-1.0)
    with pytest.raises(wc.ConfigError):
        SolverConfig(ds0=2.0)


@pytest.mark.parametrize("name", ["newton_tol", "ds0", "ds_min"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_solver_config_rejects_non_finite_tolerances(name, value):
    with pytest.raises(wc.ConfigError, match=name):
        SolverConfig(**{name: value})


def test_nan_tolerance_cannot_fake_convergence():
    # a NaN newton_tol used to pass every `residual <= tol` test unread,
    # so the continuation returned z = t0 unsolved as "converged"
    hp = make_problem(n=1, N=64, eps=0.1, t_plus=1.5)
    with pytest.raises(wc.ConfigError, match="newton_tol"):
        continuation(hp, SolverConfig(newton_tol=np.nan))
    z, report = continuation(hp, SolverConfig())
    assert report.verdict == "converged" and report.final.residual <= 1e-10


@pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
def test_nan_residual_never_counts_as_converged():
    # an unvalidated NaN prescription used to end in "converged", residual
    # nan (a NaN c0 is refused as input, so the NaN comes in through eps;
    # build_prescription refuses it, so it is built directly)
    grid = wc.make_grid(1, 64)
    p = wc.problem.Prescription(wc.WarpingProfile.cosh(0.2, 3.0),
                                wc.CurvatureSpec(1, 1), grid, c0=1.0,
                                eps=np.nan, mode=(1,), t_minus=0.5,
                                t_plus=1.5)
    hp = wc.build_homotopy(p)
    with pytest.raises(wc.NewtonStall, match="residual nan"):
        newton_solve(NodeField.constant(grid, hp.t0), 1.0, hp)
    with pytest.raises(wc.NewtonStall, match="residual nan"):
        continuation(hp)


def test_report_csv_round_trip(hp1):
    _, report = continuation(hp1)
    rows = list(report.csv_rows())
    assert len(rows) == len(report.steps)
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == len(report.csv_header().split(","))


# -- the Newton linear step -----------------------------------------------------

@pytest.fixture(scope="module")
def hp2_wavy():
    return make_problem(n=2, N=32, r=2, eps=0.1, t_plus=1.5)


# the analytic J and its colored-FD reference
_JACOBIANS = pytest.mark.parametrize(
    "jacobian", [assemble_jacobian, fd_colored_jacobian],
    ids=["analytic", "colored-fd"])


def _wavy_system(hp, jacobian=assemble_jacobian, seed=5):
    rng = np.random.default_rng(seed)
    z = NodeField(hp.t0 + random_smooth(hp.grid, rng, 0.05), hp.grid)
    J = jacobian(z, 0.5, hp)
    return J, -hp.grid.flatten(residual(z, 0.5, hp).values)


def _data(J, grid):
    """The fixed-layout data _linear_step takes, of a CSR J in that layout."""
    return J.data.reshape(grid.size, -1)


def _forbidden(*args, **kwargs):
    raise AssertionError("this solver must not be called")


def _gmres_misses(J, rhs, precond, **kwargs):
    return np.zeros_like(rhs), False


@pytest.mark.parametrize("order", [2, 4])
@_JACOBIANS
def test_krylov_step_matches_direct_solve(order, jacobian, monkeypatch):
    hp = make_problem(n=2, N=32, r=2, eps=0.1, t_plus=1.5, order=order)
    J, rhs = _wavy_system(hp, jacobian)
    direct = spla.spsolve(J.tocsc(), rhs)
    monkeypatch.setattr(spla, "spsolve", _forbidden)   # Krylov path only
    delta, fell_back = _linear_step(_data(J, hp.grid), rhs, hp.grid)
    assert not fell_back
    assert np.abs(delta - direct).max() <= 1e-10 * np.abs(direct).max()


def test_krylov_failure_falls_back_to_direct_solve(hp2_wavy, monkeypatch):
    J, rhs = _wavy_system(hp2_wavy)
    monkeypatch.setattr(solver, "_gmres", _gmres_misses)
    delta, fell_back = _linear_step(_data(J, hp2_wavy.grid), rhs,
                                    hp2_wavy.grid)
    assert fell_back
    assert np.array_equal(delta, spla.spsolve(J.tocsc(), rhs))


def test_one_dimensional_step_is_a_direct_solve(monkeypatch):
    # the cyclic band solve, with neither GMRES nor the sparse fallback
    for order in (2, 4):
        hp = make_problem(n=1, N=256, eps=0.1, t_plus=1.5, order=order)
        for jacobian in (assemble_jacobian, fd_colored_jacobian):
            J, rhs = _wavy_system(hp, jacobian)
            direct = spla.spsolve(J.tocsc(), rhs)
            with monkeypatch.context() as m:
                m.setattr(spla, "gmres", _forbidden)
                m.setattr(solver, "_gmres", _forbidden)
                m.setattr(spla, "spsolve", _forbidden)
                delta, fell_back = _linear_step(_data(J, hp.grid), rhs,
                                                hp.grid)
            assert not fell_back
            assert np.abs(delta - direct).max() \
                <= 1e-10 * np.abs(direct).max()


def _preconditioner(hp, J):
    """The preconditioner _linear_step hands to _gmres."""
    return solver._circulant_preconditioner(
        solver._circulant_symbol(_data(J, hp.grid), hp.grid), hp.grid)


def test_gmres_of_a_zero_rhs_is_zero(hp2_wavy):
    J, rhs = _wavy_system(hp2_wavy)
    x, converged = solver._gmres(J, np.zeros_like(rhs),
                                 _preconditioner(hp2_wavy, J))
    assert converged
    assert np.array_equal(x, np.zeros_like(rhs))


def test_gmres_reports_an_unreachable_tolerance(hp2_wavy):
    J, rhs = _wavy_system(hp2_wavy)
    applies = []

    def mean_free(r):
        applies.append(1)
        return r - r.mean()

    # a preconditioner that removes the mean leaves J's range over it
    # short of rhs, so neither cycle reaches 1e-12; a cycle applies the
    # preconditioner once per step and once to form its correction, and
    # only the one refinement cycle follows the first
    x, converged = solver._gmres(J, rhs, mean_free)
    assert not converged
    assert len(applies) == solver._GMRES_CYCLES * (solver._GMRES_STEPS + 1)
    assert np.all(np.isfinite(x))


def test_gmres_refines_a_first_cycle_that_misses(hp2_wavy):
    J, rhs = _wavy_system(hp2_wavy)
    applies = []

    def unpreconditioned(r):
        applies.append(1)
        return r

    # without the circulant preconditioner the first cycle's 50 steps
    # stop short of 1e-12; the refinement cycle from the true residual
    # reaches it
    x, converged = solver._gmres(J, rhs, unpreconditioned)
    assert converged
    assert solver._GMRES_STEPS + 1 < len(applies) \
        <= solver._GMRES_CYCLES * (solver._GMRES_STEPS + 1)
    assert solver._norm(rhs - J @ x) <= 1e-12 * solver._norm(rhs)


@pytest.mark.parametrize("mode", [(1, 1), (1, 2), (2, 1), (2, 2)],
                         ids=["1x1", "1x2", "2x1", "2x2"])
def test_gmres_converges_within_half_its_cycle(mode, monkeypatch):
    # the benchmark's solve2d problems (n = 2, r = 2, N = 128, slab
    # (0.5, 1.5)) at eps 0.15, one per mode: every Krylov step converges
    # in at most half of a cycle
    g = wc.make_grid(2, 128)
    p = wc.build_prescription(wc.WarpingProfile.cosh(0.2, 3.0),
                              wc.CurvatureSpec(2, 2), g, c0=SINH1, eps=0.15,
                              mode=mode, t_minus=0.5, t_plus=1.5)
    gmres, solves = solver._gmres, []

    def counted(J, rhs, precond):
        applies = []
        x, converged = gmres(J, rhs,
                             lambda r: applies.append(1) or precond(r))
        # one apply per Arnoldi step, and one to form x
        solves.append((len(applies) - 1, converged))
        return x, converged

    monkeypatch.setattr(solver, "_gmres", counted)
    continuation(wc.build_homotopy(p, eps_phi=0.1))
    assert solves and all(converged for _, converged in solves)
    assert max(steps for steps, _ in solves) <= solver._GMRES_STEPS // 2


@pytest.mark.parametrize("order", [2, 4])
def test_gmres_matches_the_direct_solve(order):
    # an odd N: the half spectrum's inverse needs the grid shape
    hp = make_problem(n=2, N=25, r=2, eps=0.1, t_plus=1.5, order=order)
    J, rhs = _wavy_system(hp)
    direct = spla.spsolve(J.tocsc(), rhs)
    x, converged = solver._gmres(J, rhs, _preconditioner(hp, J))
    assert converged
    assert np.abs(x - direct).max() <= 1e-10 * np.abs(direct).max()


def _bench_problem(N, mode, eps):
    """An n = 2, r = 2 problem of the benchmark's setup at N nodes."""
    p = wc.build_prescription(wc.WarpingProfile.cosh(0.2, 3.0),
                              wc.CurvatureSpec(2, 2), wc.make_grid(2, N),
                              c0=SINH1, eps=eps, mode=mode, t_minus=0.5,
                              t_plus=1.5)
    return wc.build_homotopy(p, eps_phi=0.1)


def test_a_fine_two_dimensional_continuation_needs_no_direct_solve(
        monkeypatch):
    # at N = 256 rounding in J x leaves a first GMRES cycle's true residual
    # just above 1e-12 |rhs|; the refinement cycle meets it, where the
    # direct fallback took about 5x the whole solve
    monkeypatch.setattr(spla, "spsolve", _forbidden)
    stats = []
    newton = solver.newton_solve

    def recording(*args, **kwargs):
        z, st = newton(*args, **kwargs)
        stats.append(st)
        return z, st

    monkeypatch.setattr(solver, "newton_solve", recording)
    _, report = solver.continuation(_bench_problem(256, (3, 3), 0.3))
    assert report.verdict == "converged"
    assert [s.newton_iters for s in report.steps] == [0, 4]
    assert [st.fallbacks for st in stats] == [0, 0]


def test_an_n512_linear_step_meets_the_tolerance_without_fallback(
        monkeypatch):
    # the second Newton step of this continuation misses the tolerance
    # after one GMRES cycle; the run stops after that step
    class Stop(Exception):
        pass

    solves = []

    def second_only(D, rhs, grid):
        delta, fell_back = _linear_step(D, rhs, grid)
        solves.append(solver._norm(rhs - grid.pattern_matrix(D) @ delta)
                      / solver._norm(rhs))
        if len(solves) == 2:
            raise Stop
        return delta, fell_back

    monkeypatch.setattr(spla, "spsolve", _forbidden)
    monkeypatch.setattr(solver, "_linear_step", second_only)
    with pytest.raises(Stop):
        solver.continuation(_bench_problem(512, (1, 1), 0.1))
    assert max(solves) <= 1e-12


_ROOT = Path(__file__).resolve().parent.parent
_THREADED_CONTINUATION = """
import sys
from conftest import make_problem
from warpcurve.solver import continuation
z, _ = continuation(make_problem(n=2, N=101, r=2, eps=0.1, t_plus=1.5))
sys.stdout.buffer.write(z.values.tobytes())
"""


def test_two_dimensional_continuation_is_independent_of_the_thread_count():
    # 101^2 = 10201 unknowns: the smallest grid on which a BLAS dot product
    # in the Krylov step was measured to differ between 1 and 2 threads
    path = os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "tests")])
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _THREADED_CONTINUATION], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err.decode()[-2000:]
    assert len(outs[0][0]) == 8 * 101 ** 2
    assert outs[0][0] == outs[1][0]


def _band_singular(*args, **kwargs):
    raise np.linalg.LinAlgError("singular matrix")


def _band_nan(l_and_u, ab, b, **kwargs):
    return np.full(b.shape, np.nan)


@pytest.mark.parametrize("band", [_band_singular, _band_nan])
def test_band_failure_falls_back_to_direct_solve(hp1_wavy, band,
                                                 monkeypatch):
    J, rhs = _wavy_system(hp1_wavy)
    z0 = NodeField.constant(hp1_wavy.grid, hp1_wavy.t0)
    _, clean = newton_solve(z0, 1.0, hp1_wavy)
    assert clean.fallbacks == 0
    solve_banded = solver.sla.solve_banded
    monkeypatch.setattr(solver.sla, "solve_banded", band)
    delta, fell_back = _linear_step(_data(J, hp1_wavy.grid), rhs,
                                    hp1_wavy.grid)
    assert fell_back
    assert np.array_equal(delta, spla.spsolve(J.tocsc(), rhs))
    # a band failure in the first Newton step only: one fallback
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(1)
        return (band if len(calls) == 1 else solve_banded)(*args, **kwargs)

    monkeypatch.setattr(solver.sla, "solve_banded", first_fails)
    _, stats = newton_solve(z0, 1.0, hp1_wavy)
    assert stats.fallbacks == 1
    assert stats.iterations == clean.iterations > 1


def test_krylov_continuation_matches_direct_continuation(hp2_wavy,
                                                         monkeypatch):
    z, report = continuation(hp2_wavy)
    monkeypatch.setattr(solver, "_gmres", _gmres_misses)
    zd, reportd = continuation(hp2_wavy)
    iters = [st.newton_iters for st in report.steps]
    assert iters == [st.newton_iters for st in reportd.steps]
    assert sum(iters) > 0
    assert np.abs(z.values - zd.values).max() <= 1e-10


def test_step_records_match_a_fresh_evaluation(hp1_wavy, monkeypatch):
    # the monitors of each accepted state, as a new evaluation there gives
    accepted = []
    newton = solver.newton_solve

    def recording(z0, s, hp, cfg=None, **kwargs):
        z, stats = newton(z0, s, hp, cfg, **kwargs)
        accepted.append((s, z.values.copy(), stats.iterations))
        return z, stats

    monkeypatch.setattr(solver, "newton_solve", recording)
    _, report = continuation(hp1_wavy, SolverConfig(ds0=0.1))
    assert len(accepted) == len(report.steps) > 2
    s_prev = 0.0
    for (s, z, iters), rec in zip(accepted, report.steps):
        state = solver._evaluate(z, s, hp1_wavy)
        lam = state.geom.lam
        margin = curvature.cone_margin(hp1_wavy.spec, lam)
        assert rec == solver.StepRecord(
            s, s - s_prev, iters, float(np.abs(state.res).max()),
            float(z.min()), float(z.max()), float(np.min(margin)),
            state.geom.grad_sup, float(lam[..., 0].max()))
        s_prev = s


def test_non_finite_linear_step_is_named(hp1_wavy, monkeypatch):
    monkeypatch.setattr(solver, "_linear_step",
                        lambda J, rhs, grid: (np.full_like(rhs, np.nan),
                                              False))
    z0 = NodeField.constant(hp1_wavy.grid, hp1_wavy.t0)
    with pytest.raises(wc.NewtonStall, match="non-finite linear step at s=1"):
        newton_solve(z0, 1.0, hp1_wavy)


# -- fixed-pattern Jacobian assembly ------------------------------------------

def _reference_jacobian(state, hp):
    """J as a sum of diags(coefficient) @ stencil operator, with the
    per-node sensitivities contracted by einsum over full matrices."""
    geom = state.geom
    grid = hp.grid
    h, h1, h2, W = geom.h, geom.h1, geom.h2, geom.W
    p = geom.grad
    fi = curvature.f_grad(hp.spec, state.geom.lam)
    lam = geom.lam
    if grid.n == 1:
        Q = np.ones(lam.shape + (1,))
    else:
        _, _, c, s = eig2_sym(geom.atilde[..., 0, 0], geom.atilde[..., 0, 1],
                              geom.atilde[..., 1, 1])
        Q = np.stack([np.stack([c, -s], axis=-1),
                      np.stack([s, c], axis=-1)], axis=-2)
    V = inv_sqrt(geom.g) @ Q                   # g-orthonormal eigenvectors
    M = np.einsum("...ik,...k,...jk->...ij", V, fi, V)
    M2 = np.einsum("...ik,...k,...jk->...ij", V, fi * lam, V)
    sfl = (fi * lam).sum(axis=-1)
    Mp = np.einsum("...ij,...j->...i", M, p)
    M2p = np.einsum("...ij,...j->...i", M2, p)
    c_hess = -(h / W)[..., None, None] * M
    c_grad = (4.0 * h1 / W)[..., None] * Mp \
        - p * (sfl / W ** 2)[..., None] - 2.0 * M2p
    MH = np.einsum("...ij,...ij->...", M, geom.hess)
    pMp = np.einsum("...i,...ij,...j->...", p, M, p)
    trM = np.einsum("...ii->...", M)
    trM2 = np.einsum("...ii->...", M2)
    c_z = (-h1 * MH + 2.0 * h2 * pMp + (2.0 * h * h1 ** 2 + h ** 2 * h2) * trM) \
        / W - sfl * h * h1 / W ** 2 - 2.0 * h * h1 * trM2
    flat = grid.flatten
    J = sp.diags(flat(c_z - state.psi_t), format="csr")
    for d in range(grid.n):
        J = J + sp.diags(flat(c_grad[..., d])) @ grid.d1_matrix(d)
        J = J + sp.diags(flat(c_hess[..., d, d])) @ grid.d2_matrix(d)
    if grid.n == 2:
        J = J + sp.diags(flat(2.0 * c_hess[..., 0, 1])) @ grid.d11_matrix()
    return J.tocsr()


def _reference_symbol(J, grid):
    """Circulant symbol from offset-binned COO entries of any sparse J."""
    N = grid.N
    coo = J.tocoo()
    off = (coo.col % N - coo.row % N) % N \
        + N * ((coo.col // N - coo.row // N) % N)
    kernel = np.bincount(off, weights=coo.data, minlength=grid.size)
    return np.conj(np.fft.fftn(grid.unflatten(kernel / grid.size)))


def _wavy_state(n, order, seed=11, N=None):
    N = N or (64 if n == 1 else 24)
    hp = make_problem(n=n, N=N, r=n, eps=0.1, t_plus=1.5, order=order)
    rng = np.random.default_rng(seed)
    z = hp.t0 + random_smooth(hp.grid, rng, 0.05)
    return hp, z, solver._evaluate(z, 0.6, hp)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [1, 2])
def test_pattern_jacobian_matches_operator_sum(n, order):
    hp, _, state = _wavy_state(n, order)
    J = hp.grid.pattern_matrix(solver._analytic_jacobian(state, hp))
    ref = _reference_jacobian(state, hp)
    assert J.nnz == hp.grid.size * len(hp.grid.stencil_footprint())
    diff = np.abs((J - ref).toarray()).max()
    assert diff <= 1e-13 * np.abs(ref.data).max()


@pytest.mark.parametrize("n", [1, 2])
def test_fd_colored_jacobian_shares_the_pattern(n):
    hp, z, _ = _wavy_state(n, 2)
    J = fd_colored_jacobian(z, 0.6, hp)
    indices, indptr, _ = hp.grid.stencil_pattern()
    assert np.array_equal(J.indices, indices)
    assert np.array_equal(J.indptr, indptr)


@pytest.mark.parametrize("n", [1, 2])
def test_profile_is_evaluated_once_per_evaluate(n, monkeypatch):
    hp, z, _ = _wavy_state(n, 2)
    calls = {"eval": 0, "psi_of": 0}
    profile_eval, psi_of = wc.WarpingProfile.eval, type(hp).psi_of

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(wc.WarpingProfile, "eval",
                        counted("eval", profile_eval))
    monkeypatch.setattr(type(hp), "psi_of", counted("psi_of", psi_of))
    solver._evaluate(z, 0.6, hp)
    assert calls == {"eval": 1, "psi_of": 1}


@pytest.mark.parametrize("n", [1, 2])
def test_f_grad_is_computed_only_for_the_analytic_jacobian(n, monkeypatch):
    hp, z, _ = _wavy_state(n, 2)
    calls = []
    f_grad = curvature.f_grad
    monkeypatch.setattr(curvature, "f_grad",
                        lambda *a: calls.append(a) or f_grad(*a))
    solver._evaluate(z, 0.6, hp)
    fd_colored_jacobian(z, 0.6, hp)
    assert calls == []
    assemble_jacobian(z, 0.6, hp)
    assert len(calls) == 1


# N = 32 at order 2: blocks of 3 and 4 nodes per axis
@pytest.mark.parametrize("n,order,N", [(1, 2, 64), (1, 4, 64), (2, 2, 24),
                                       (2, 4, 24), (2, 2, 32)],
                         ids=["1-2", "1-4", "2-2", "2-4", "2-2-N32"])
def test_fd_colored_jacobian_equals_one_color_per_column(n, order, N):
    # row i of the residual reads only its footprint, so the colored
    # difference quotients are the dense one-column ones, bit for bit, and
    # the dense quotients off the footprint are exactly zero
    hp, z, _ = _wavy_state(n, order, N=N)
    J = fd_colored_jacobian(z, 0.6, hp).toarray()
    dense = fd_jacobian(z, 0.6, hp)
    assert np.array_equal(J, dense)
    indices, indptr, _ = hp.grid.stencil_pattern()
    footprint = sp.csr_matrix((np.ones(indices.size), indices, indptr),
                              shape=dense.shape).toarray() > 0
    assert np.all(dense[~footprint] == 0.0)


def test_fd_colored_jacobian_evaluates_twice_per_color(monkeypatch):
    hp, z, _ = _wavy_state(2, 2, N=64)
    calls = []
    evaluate = solver._evaluate
    monkeypatch.setattr(solver, "_evaluate",
                        lambda *a: calls.append(1) or evaluate(*a))
    fd_colored_jacobian(z, 0.6, hp)
    assert len(calls) == 2 * 16


@pytest.mark.parametrize("order", [2, 4])
@_JACOBIANS
def test_pattern_symbol_matches_binned_symbol(order, jacobian):
    hp, z, _ = _wavy_state(2, order)
    J = jacobian(z, 0.6, hp)
    sym = solver._circulant_symbol(_data(J, hp.grid), hp.grid)
    ref = _reference_symbol(J, hp.grid)[:, :hp.grid.N // 2 + 1]
    assert np.abs(sym - ref).max() <= 1e-13 * np.abs(ref).max()


def test_pattern_is_cached_and_read_only():
    grid = wc.make_grid(2, 16)
    indices, indptr, weights = grid.stencil_pattern()
    assert grid.stencil_pattern()[0] is indices
    with pytest.raises(ValueError):
        indices[0] = 0
    J = grid.pattern_matrix(np.ones((grid.size, weights.shape[1])))
    J.sort_indices()                           # mutates J's own copy only
    assert np.array_equal(grid.stencil_pattern()[0], indices)


# -- failure causes and solution convergence ------------------------------------

def test_continuation_stall_names_the_newton_stall():
    # newton_tol below the rounding floor: Newton backtracks until exhausted
    hp = make_problem(n=1, N=32)
    with pytest.raises(wc.ContinuationStall) as exc:
        continuation(hp, SolverConfig(newton_tol=1e-16))
    cause = exc.value.__cause__
    assert isinstance(cause, wc.NewtonStall)
    assert "backtracking exhausted" in str(cause)
    assert str(cause) in str(exc.value)


@pytest.mark.parametrize("order,least", [(2, 1.9), (4, 3.8)])
@pytest.mark.parametrize("n,r,Ns", [(1, 1, (32, 64, 128, 256)),
                                    (2, 2, (16, 32, 64))])
def test_manufactured_solution_error_order(cosh_profile, n, r, Ns, order,
                                           least):
    # Newton from the constant start; the error max |z_h - z_m| of the
    # discrete solution must fall at the stencil order
    cfg = SolverConfig(newton_tol=1e-12)
    errs = []
    for N in Ns:
        grid = wc.make_grid(n, N, order=order)
        zm, hp = build_manufactured(grid, cosh_profile, wc.CurvatureSpec(n, r))
        z, _ = newton_solve(NodeField.constant(grid, hp.t0), 1.0, hp, cfg)
        errs.append(np.abs(z.values - zm.values).max())
    for coarse, fine in zip(errs, errs[1:]):
        assert np.log2(coarse / fine) >= least


def _floor_problem(mode, eps):
    profile = wc.WarpingProfile.cosh(0.2, 3.0)
    grid = wc.make_grid(1, 2048)
    p = wc.build_prescription(profile, wc.CurvatureSpec(1, 1), grid,
                              c0=np.sinh(1.0), eps=eps, mode=mode,
                              t_minus=0.5, t_plus=1.5)
    return wc.build_homotopy(p, eps_phi=0.1)


@pytest.mark.parametrize("mode,eps", [(2, 0.02), (2, -0.02), (4, 0.03)])
def test_one_dimensional_cases_at_the_tolerance_floor(mode, eps):
    # N = 2048 residuals round near newton_tol (the 0.1-step schedule ended
    # these cases within 30% of it; the full step ends them near 2e-11), so
    # a last-bit change in the 1D arithmetic shows up here first
    _, report = continuation(_floor_problem(mode, eps))
    assert [st.newton_iters for st in report.steps] == [0, 3]
    assert report.final.s == 1.0
    assert report.final.residual <= SolverConfig().newton_tol


# -- contraction-rate step control ---------------------------------------------

def test_a_step_that_does_not_contract_is_subdivided(hp1_wavy, monkeypatch):
    z_ref, _ = continuation(hp1_wavy)
    step = solver._linear_step
    deltas = []

    def stuck(J, rhs, grid):
        deltas.append(step(J, rhs, grid)[0])
        # s = 0 needs no iteration, so calls 1 and 2 are the first s = 1
        # attempt: its second correction is as long as its first
        return (deltas[0].copy() if len(deltas) == 2 else deltas[-1]), False

    stalls = []
    newton = solver.newton_solve

    def recording(z0, s, hp, cfg=None, **kwargs):
        solves = len(deltas)
        try:
            return newton(z0, s, hp, cfg, **kwargs)
        except wc.NewtonStall as exc:
            stalls.append((s, len(deltas) - solves, str(exc)))
            raise

    monkeypatch.setattr(solver, "_linear_step", stuck)
    monkeypatch.setattr(solver, "newton_solve", recording)
    z, report = continuation(hp1_wavy)
    assert len(stalls) == 1
    s, solves, message = stalls[0]
    assert s == 1.0 and solves <= 2
    assert "Newton contraction theta=1 > 0.5 at s=1" in message
    assert report.steps[1].ds < 1.0
    assert report.final.s == 1.0
    assert np.abs(z.values - z_ref.values).max() <= 1e-10


def test_an_iteration_budget_below_the_full_step_subdivides():
    # the full step needs 3 Newton iterations on this case
    cfg = SolverConfig(max_newton=2)
    _, report = continuation(_floor_problem(2, 0.02), cfg)
    assert report.steps[1].ds < 1.0
    assert report.final.s == 1.0
    assert report.final.residual <= cfg.newton_tol


def test_a_crossing_far_from_the_anchor_needs_subdivision(monkeypatch):
    # psi crosses k near t = 2.85, the top of a wide slab, far from the
    # anchor t0 = 1.58: the full step's corrections contract by more than
    # 1/2, so the continuation halves it
    profile = wc.WarpingProfile.cosh(0.2, 3.0)
    spec = wc.CurvatureSpec(1, 1)
    kwargs = dict(c0=np.sinh(2.85), eps=0.05, mode=2, t_minus=0.21,
                  t_plus=2.95)
    small = wc.build_prescription(profile, spec, wc.make_grid(1, 64), **kwargs)
    rows = build_condition_table(wc.build_homotopy(small), seed=12345)
    assert all(r.passed for r in rows)
    p = wc.build_prescription(profile, spec, wc.make_grid(1, 256), **kwargs)
    stalls = []
    newton = solver.newton_solve

    def recording(*args, **kw):
        try:
            return newton(*args, **kw)
        except wc.NewtonStall as exc:
            stalls.append(str(exc))
            raise

    monkeypatch.setattr(solver, "newton_solve", recording)
    z, report = continuation(wc.build_homotopy(p))
    assert len(stalls) == 1 and "Newton contraction" in stalls[0]
    assert [st.ds for st in report.steps[1:]] == [0.5, 0.5]
    assert [st.newton_iters for st in report.steps] == [0, 5, 4]
    assert report.final.residual <= SolverConfig().newton_tol
    lo, hi = wc.barrier_crossings(p)
    assert lo <= z.values.min() and z.values.max() <= hi


def test_standalone_newton_has_no_contraction_check(cosh_profile,
                                                    monkeypatch):
    # at the far crossing (c0 = sinh 2.85 puts it near t = 2.85) the first
    # step from the constant start at t0 contracts by less than 1/2
    grid = wc.make_grid(1, 256)
    p = wc.build_prescription(cosh_profile, wc.CurvatureSpec(1, 1), grid,
                              c0=np.sinh(2.85), eps=0.05, mode=2,
                              t_minus=0.21, t_plus=2.95)
    hp = wc.build_homotopy(p)
    z0 = NodeField.constant(grid, hp.t0)
    step = solver._linear_step
    norms = []

    def recording(J, rhs, grid):
        delta, fell_back = step(J, rhs, grid)
        norms.append(np.abs(delta).max())
        return delta, fell_back

    monkeypatch.setattr(solver, "_linear_step", recording)
    z, stats = newton_solve(z0, 1.0, hp)
    assert max(b / a for a, b in zip(norms, norms[1:])) > 0.5
    assert stats.residual_norms[-1] <= 1e-10
    with pytest.raises(wc.NewtonStall, match="Newton contraction"):
        newton_solve(z0, 1.0, hp, theta_max=solver._THETA_MAX)


# -- reused evaluations, barrier exits and cached structure -------------------

@pytest.mark.parametrize("n", [1, 2])
def test_an_evaluation_lent_from_another_s_equals_a_fresh_one(n):
    hp, z, _ = _wavy_state(n, 2)
    lent = solver._evaluate(z, 0.3, hp)
    got = solver._evaluate(z, 0.6, hp, at=lent)
    fresh = solver._evaluate(z, 0.6, hp)
    assert got.geom is lent.geom
    for name in ("fvals", "psi_t", "res"):
        assert getattr(got, name).tobytes() == getattr(fresh, name).tobytes()
    assert got.geom.lam.tobytes() == fresh.geom.lam.tobytes()
    J, Jf = (solver._analytic_jacobian(st, hp) for st in (got, fresh))
    assert J.tobytes() == Jf.tobytes()


def test_the_loan_ends_once_newton_moves_past_it(hp1_wavy):
    z0 = NodeField.constant(hp1_wavy.grid, hp1_wavy.t0)
    z, stats = newton_solve(z0, 0.0, hp1_wavy)
    assert stats.iterations == 0
    z1, stats1 = newton_solve(z, 1.0, hp1_wavy, at=stats)
    assert stats1.iterations > 0 and stats.state is None
    z2, _ = newton_solve(z, 1.0, hp1_wavy)
    assert np.array_equal(z1.values, z2.values)


def _barrier_exit_problem():
    # a Newton iterate of the full step dips below t_minus = 1.1741
    prof = wc.WarpingProfile.exp(-0.038, 2.994)
    p = wc.build_prescription(prof, wc.CurvatureSpec(1, 1),
                              wc.make_grid(1, 256), c0=3.8176, eps=0.5486,
                              mode=1, t_minus=1.1741, t_plus=1.6241)
    return p, wc.build_homotopy(p)


def test_a_barrier_exit_inside_a_step_halves_ds():
    p, hp = _barrier_exit_problem()
    z, report = continuation(hp)
    assert [st.newton_iters for st in report.steps] == [0, 4, 4]
    assert [st.s for st in report.steps] == [0.0, 0.5, 1.0]
    assert report.final.residual <= SolverConfig().newton_tol
    lo, hi = wc.barrier_crossings(p)
    for st in report.steps:
        assert hp.t_minus < st.z_min and st.z_max < hp.t_plus
    assert lo <= z.values.min() and z.values.max() <= hi
    # the same run from ds0 = 0.5 has no barrier exit to recover from
    zh, _ = continuation(hp, SolverConfig(ds0=0.5))
    assert np.array_equal(z.values, zh.values)


def test_a_continuation_stall_names_a_barrier_exit():
    _, hp = _barrier_exit_problem()
    with pytest.raises(wc.ContinuationStall) as exc:
        continuation(hp, SolverConfig(ds_min=0.6))
    assert isinstance(exc.value.__cause__, wc.BarrierViolation)
    assert "barrier exit: iterate range" in str(exc.value)
    assert str(exc.value.__cause__) in str(exc.value)


def test_seam_and_stencil_caches_hold_per_grid():
    # grids of different N and order, interleaved in one process
    hps = [make_problem(n=1, N=N, eps=0.1, t_plus=1.5, order=order)
           for N, order in ((64, 2), (96, 4), (64, 4))]
    first = []
    for rep in range(2):
        for hp in hps:
            J, rhs = _wavy_system(hp)
            delta = solver._cyclic_band_solve(_data(J, hp.grid), rhs)
            direct = spla.spsolve(J.tocsc(), rhs)
            assert np.abs(delta - direct).max() \
                <= 1e-10 * np.abs(direct).max()
            z = hp.t0 + random_smooth(hp.grid, np.random.default_rng(3), 0.05)
            grad = hp.grid.gradient(z)[0]
            ref = hp.grid.d1_matrix(0) @ hp.grid.flatten(z)
            assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()
            if rep == 0:
                first.append((delta, grad))
            else:
                a, b = first.pop(0)
                assert np.array_equal(a, delta) and np.array_equal(b, grad)
