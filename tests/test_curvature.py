import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warpcurve as wc
from warpcurve import curvature, verify
from warpcurve.curvature import (CurvatureSpec, check_structural, f_eval,
                                 f_grad, in_cone, sample_cone, sym_poly)
from warpcurve.geometry import matrix_derivative
from warpcurve.oracle import GRAD_STEP, fd_gradcheck

from conftest import inv_sqrt


def test_spec_validation():
    with pytest.raises(wc.ConfigError):
        CurvatureSpec(n=1, r=2)
    with pytest.raises(wc.ConfigError):
        CurvatureSpec(n=0, r=0)
    assert CurvatureSpec(n=2, r=2).normalization == 1.0
    assert CurvatureSpec(n=2, r=1).normalization == 2.0
    # the torus base has n = 1 or 2, and so has every curvature function
    with pytest.raises(wc.ConfigError, match="^dimension n must be 1 or 2, "
                                             "got 3$"):
        CurvatureSpec(n=3, r=1)
    with pytest.raises(wc.ConfigError, match="need n in \\(1, 2\\)"):
        sym_poly(np.ones(3), 1)


def test_sym_poly_values():
    assert sym_poly([1.0, 2.0], 2) == pytest.approx(2.0)
    assert sym_poly([1.0, 1.0], 1) == pytest.approx(2.0)
    assert sym_poly([0.3, -0.1], 2) == pytest.approx(-0.03, rel=1e-14)
    # S_0 = 1 is no order the cone margin reads
    with pytest.raises(wc.ConfigError, match="1 <= q <= n, got n = 2, q = 0"):
        sym_poly([5.0, -2.0], 0)


_SPECIAL = [0.0, -0.0, 1.5, -2.25, 1e-300, np.nan, np.inf, -np.inf]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# inf - inf and 0 * inf are NaN on both paths
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
def test_unrolled_sym_poly_is_the_recurrence_bit_for_bit(n):
    # every n-tuple of special values, batched and one point at a time
    grid = np.meshgrid(*[np.array(_SPECIAL)] * n, indexing="ij")
    lam = np.stack([g.ravel() for g in grid], axis=-1)
    for q in range(1, n + 1):
        ref = curvature._sym_poly_recurrence(lam, q)
        assert _bits(sym_poly(lam, q)) == _bits(ref)
        assert _bits(sym_poly(lam.reshape(-1, 4, n), q)) \
            == _bits(ref.reshape(-1, 4))
        for point, value in zip(lam, ref):
            got = sym_poly(point, q)
            assert type(got) is float and _bits(got) == _bits(value)
    for q in range(n):
        ref = np.stack([curvature._sym_poly_recurrence(
            lam[:, np.arange(n) != i], q) for i in range(n)], axis=-1)
        assert _bits(curvature._sym_poly_reduced(lam, q)) == _bits(ref)
        assert _bits(curvature._sym_poly_reduced(lam[0], q)) == _bits(ref[0])
    with pytest.raises(wc.ConfigError):
        sym_poly(lam, n + 1)


def test_in_cone_cases():
    for r in (1, 2):
        assert in_cone(CurvatureSpec(2, r), [1.0, 1.0])
    assert not in_cone(CurvatureSpec(2, 2), [3.0, -0.1])
    assert in_cone(CurvatureSpec(2, 1), [3.0, -0.1])


def test_f_eval_normalization_and_values():
    for r in (1, 2):
        spec = CurvatureSpec(2, r)
        assert f_eval(spec, [0.7, 0.7]) == pytest.approx(0.7, rel=1e-15)
    assert f_eval(CurvatureSpec(2, 2), [1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(wc.ConeError):
        f_eval(CurvatureSpec(2, 2), [1.0, -1.0])


@pytest.mark.parametrize("n, r", [(1, 1), (2, 1), (2, 2)])
def test_f_at_kappa_times_ones_is_kappa_bit_for_bit(n, r):
    # the problem layer takes the radial level f(kappa, ..., kappa) to be
    # kappa itself (ambient.k_level): S_1 / 1, (kappa + kappa) / 2 and the
    # root of fl(kappa^2) are exact, on the batch path (sqrt) and on the
    # single-point path (libm pow)
    spec = CurvatureSpec(n, r)
    t = np.random.default_rng(11).uniform(0.2, 3.0, 20000)
    kap = np.concatenate([np.geomspace(1e-150, 1e150, 20001), np.tanh(t),
                          2.0 / t, 0.5 / t])
    assert np.array_equal(f_eval(spec, np.stack([kap] * n, axis=-1)), kap)
    single = kap[::13]
    assert [f_eval(spec, np.full(n, k)) for k in single] == single.tolist()


def test_f_at_n1_is_lam_with_derivative_one_bit_for_bit():
    # the n = 1 Newton Jacobian takes f(lam) = lam and f_1 = 1 in closed
    # form (solver._jacobian_coefficients) and calls no f_grad
    spec = CurvatureSpec(1, 1)
    rng = np.random.default_rng(23)
    lam = np.concatenate([sample_cone(spec, rng, 2000, 1e-3, 1e3),
                          np.geomspace(1e-300, 1e300, 601)[:, None]])
    assert f_grad(spec, lam).tobytes() == np.ones(lam.shape).tobytes()
    assert f_eval(spec, lam).tobytes() == lam[:, 0].tobytes()
    single = lam[::13]
    assert [f_eval(spec, point) for point in single] == single[:, 0].tolist()
    assert all(f_grad(spec, point).tolist() == [1.0] for point in single)


def test_f_grad_closed_form_and_fd():
    spec = CurvatureSpec(2, 1)
    g = f_grad(spec, np.array([0.4, 2.0]))
    assert np.allclose(g, [0.5, 0.5])           # f linear: f_i = 1/n
    spec2 = CurvatureSpec(2, 2)
    g2 = f_grad(spec2, np.array([1.0, 4.0]))
    assert np.allclose(g2, [1.0, 0.25], rtol=1e-14)
    rep = wc.fd_gradcheck(spec2, np.array([1.0, 4.0]))
    assert rep.max_rel_err <= 1e-7


def test_f_grad_schur_ordering():
    # descending lambda gives ascending f_i
    spec = CurvatureSpec(2, 2)
    rng = np.random.default_rng(5)
    lam = np.sort(sample_cone(spec, rng, 300, 0.5, 2.0), axis=-1)[:, ::-1]
    g = f_grad(spec, lam)
    assert np.all(g[:, 0] <= g[:, 1] + 1e-14)


def test_f_grad_euler_relation_with_a_dominant_eigenvalue():
    # S_1(lam|1) = lam_0 must not be formed as (lam_0 + lam_1) - lam_1,
    # which loses about ulp(372) of the small entry
    spec = CurvatureSpec(2, 2)
    lam = np.array([1.596e-3, 372.1])
    assert abs((f_grad(spec, lam) * lam).sum() - f_eval(spec, lam)) <= 1e-12


def test_matrix_derivative_diagonal_and_umbilic():
    spec = CurvatureSpec(2, 2)
    F = matrix_derivative(spec, np.diag([3.0, 1.0]))
    fi = f_grad(spec, np.array([3.0, 1.0]))
    assert np.allclose(F, np.diag(fi), atol=1e-14)
    F_umb = matrix_derivative(spec, np.diag([0.8, 0.8]))
    assert np.allclose(F_umb, 0.5 * f_grad(spec, [0.8, 0.8])[0] * 2 * np.eye(2),
                       atol=1e-13)
    # nearly repeated eigenvalues with no limit rule: f is symmetric, so
    # f_1 - f_2 = O(lam_1 - lam_2) and the frame sum stays within O(gap)
    # of f_1 I however badly the eigenvectors are determined
    m = np.array([[0.8 + 5e-13, 1e-13], [1e-13, 0.8]])
    F_near = matrix_derivative(spec, m)
    assert np.allclose(F_near, F_umb, atol=1e-12)
    th = 0.3
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    for k in range(3, 16):
        gap = 10.0 ** -k
        F = matrix_derivative(spec, R @ np.diag([0.8 + gap, 0.8]) @ R.T)
        assert np.abs(F - F_umb).max() <= gap + 1e-12


def test_matrix_derivative_n1_and_unsupported_dimensions():
    # verify checks the frame sum at n = 2 only, so n = 1 is refused
    with pytest.raises(wc.ConfigError, match=re.escape(
            "matrix_derivative needs (..., 2, 2) matrices at n = 2, got "
            "shape (2, 1, 1) at n = 1")):
        matrix_derivative(CurvatureSpec(1, 1), np.array([[[0.7]], [[2.5]]]))
    with pytest.raises(wc.ConfigError):
        matrix_derivative(CurvatureSpec(3, 2), np.eye(3))
    with pytest.raises(wc.ConfigError):
        matrix_derivative(CurvatureSpec(2, 2), np.eye(3))


def _fd_matrix_derivative(spec, m, step=1e-6):
    out = np.empty_like(m)
    n = m.shape[0]
    for k in range(n):
        for l in range(k, n):
            E = np.zeros_like(m)
            E[k, l] = E[l, k] = 1.0
            lp = np.linalg.eigvalsh(m + step * E)[::-1]
            lm = np.linalg.eigvalsh(m - step * E)[::-1]
            d = (f_eval(spec, lp) - f_eval(spec, lm)) / (2 * step)
            out[k, l] = out[l, k] = d / (2.0 if k != l else 1.0)
    return out


def test_matrix_derivative_matches_fd_on_random_cone_matrices():
    spec = CurvatureSpec(2, 2)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        lam = sample_cone(spec, rng, 1, 0.5, 2.0)[0]
        th = rng.uniform(0, 2 * np.pi)
        Q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        m = (Q * lam) @ Q.T
        F = matrix_derivative(spec, m)
        fd = _fd_matrix_derivative(spec, m)
        worst = max(worst, np.abs(F - fd).max() / np.abs(F).max())
    assert worst <= 1e-6


def test_stacked_matrix_derivative_equals_per_matrix_calls():
    spec = CurvatureSpec(2, 2)
    m = verify._random_cone_matrices(spec, np.random.default_rng(12), 60)
    # near-umbilic and umbilic matrices, whose eigenvectors are arbitrary
    m = np.concatenate([m, [[[0.8 + 5e-13, 1e-13], [1e-13, 0.8]],
                            np.diag([0.8, 0.8])]])
    F = matrix_derivative(spec, m)
    for k in range(len(m)):
        Fk = matrix_derivative(spec, m[k])
        assert np.abs(F[k] - Fk).max() <= 1e-14 * np.abs(Fk).max()
    grid = matrix_derivative(spec, m.reshape(2, 31, 2, 2))
    assert np.array_equal(grid.reshape(F.shape), F)


def test_verify_stacked_fd_matches_the_per_matrix_reference():
    spec = CurvatureSpec(2, 2)
    m = verify._random_cone_matrices(spec, np.random.default_rng(13), 20)
    fd = verify._fd_matrix_derivative(spec, m)
    for k in range(len(m)):
        ref = _fd_matrix_derivative(spec, m[k])
        assert np.abs(fd[k] - ref).max() <= 1e-8 * np.abs(ref).max()


def test_frame_sum_is_the_matrix_derivative_through_the_metric():
    # Newton's M = frame_sum(f_grad) over the g-orthonormal frame equals
    # g^{-1/2} F g^{-1/2} with F = matrix_derivative of the symmetrized
    # form: the verify row on matrix_derivative checks Newton's M
    prof = wc.WarpingProfile.cosh(0.2, 3.0)
    grid = wc.make_grid(2, 16)
    spec = CurvatureSpec(2, 2)
    z = 1.0 + wc.random_smooth(grid, np.random.default_rng(8), 0.15)
    geom = wc.compute_geometry(z, grid, prof)
    fi = f_grad(spec, geom.lam)
    M = np.array(geom.frame_sum(fi))              # (2, 2, *shape)
    M = np.moveaxis(M, (0, 1), (-2, -1))
    F = matrix_derivative(spec, geom.atilde)
    S = inv_sqrt(geom.g)
    ref = S @ F @ S
    scale = np.abs(ref).max(axis=(-2, -1))
    assert (np.abs(M - ref).max(axis=(-2, -1)) / scale).max() <= 3e-14
    # trace identity: F : atilde = sum f_i lam_i = f (Euler)
    contraction = (F * geom.atilde).sum(axis=(-2, -1))
    assert np.abs(contraction / f_eval(spec, geom.lam) - 1.0).max() <= 1e-13
    # umbilic slice: every node has lam1 = lam2, so F = f_1 * identity
    geom_c = wc.compute_geometry(np.full(grid.shape, 1.0), grid, prof)
    F = matrix_derivative(spec, geom_c.atilde)
    fi = f_grad(spec, geom_c.lam)
    assert np.abs(F - fi[..., :1, None] * np.eye(2)).max() <= 1e-14


def test_permutation_symmetry_and_homogeneity():
    spec = CurvatureSpec(2, 2)
    rng = np.random.default_rng(2)
    lam = sample_cone(spec, rng, 2000, 0.5, 2.0)
    assert np.abs(f_eval(spec, lam[:, ::-1]) - f_eval(spec, lam)).max() <= 1e-14
    c = rng.uniform(0.25, 4.0, size=2000)
    hom = np.abs(f_eval(spec, c[:, None] * lam) - c * f_eval(spec, lam))
    assert (hom / np.abs(c * f_eval(spec, lam))).max() <= 1e-12


def test_monotonicity_at_many_cone_points():
    for spec in (CurvatureSpec(1, 1), CurvatureSpec(2, 1), CurvatureSpec(2, 2)):
        rng = np.random.default_rng(spec.n * 7 + spec.r)
        lam = sample_cone(spec, rng, 10000, 0.3, 3.0)
        assert np.all(f_grad(spec, lam) > 0)


def test_check_structural_reports():
    rep1 = check_structural(CurvatureSpec(2, 1), 1.0, 1.0)
    assert rep1.min_sum_fi == pytest.approx(1.0, abs=1e-14)   # f linear
    assert rep1.euler_violation <= 1e-12
    rep2 = check_structural(CurvatureSpec(2, 2), 1.0, 1.0)
    assert rep2.min_sum_fi >= 1.0 - 1e-12
    assert rep2.euler_violation <= 1e-12
    assert rep2.concavity_violation <= 1e-12
    assert rep2.schur_violation <= 1e-12
    assert rep2.min_fi > 0
    with pytest.raises(wc.ConfigError):
        check_structural(CurvatureSpec(2, 2), 2.0, 1.0)


def test_structural_report_is_deterministic():
    a = check_structural(CurvatureSpec(2, 2), 0.5, 2.0, seed=42)
    b = check_structural(CurvatureSpec(2, 2), 0.5, 2.0, seed=42)
    assert a.min_sum_fi == b.min_sum_fi
    assert a.min_sum_fi_lambda == b.min_sum_fi_lambda


def test_cone_error_carries_node():
    spec = CurvatureSpec(2, 2)
    lam = np.ones((4, 4, 2))
    lam[1, 2] = [1.0, -1.0]
    with pytest.raises(wc.ConeError,
                       match=r"at node \(1, 2\): margin -1\.000e\+00$") as exc:
        f_eval(spec, lam)
    assert exc.value.node == (1, 2)
    assert all(type(i) is int for i in exc.value.node)


def test_a_nan_margin_is_a_cone_error():
    # in_cone says False on NaN; the evaluations raise, naming the node
    spec = CurvatureSpec(2, 2)
    assert not in_cone(spec, [np.nan, 1.0])
    for fn in (f_eval, f_grad):
        with pytest.raises(wc.ConeError, match="margin nan$") as exc:
            fn(spec, [np.nan, 1.0])
        assert exc.value.node is None
    lam = np.ones((4, 4, 2))
    lam[1, 2] = [np.nan, 1.0]
    lam[3, 0] = [1.0, -1.0]
    for fn in (f_eval, f_grad):
        with pytest.raises(wc.ConeError,
                           match=r"at node \(1, 2\): margin nan$") as exc:
            fn(spec, lam)
        assert exc.value.node == (1, 2)
        assert all(type(i) is int for i in exc.value.node)


# Rounding floors of the checks below at a point lam, scaled by f(c lam):
# EPS c max|lam| for f(c lam) - c f(lam), EPS max|lam| / step for the
# central difference.  Over seeds 0-2999 of the test body the measured
# ratios to these floors peak at 1.61 and 1.66, at points sample_cone
# rescales near the (2, 1) cone boundary to |lam| up to 9.4e5.
_FLOOR_FACTOR = 4.0
_EPS = np.finfo(float).eps


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       nr=st.sampled_from([(1, 1), (2, 1), (2, 2)]))
def test_gradient_euler_and_homogeneity_on_random_cone_points(seed, nr):
    # absolute bounds for |lam| = O(1), each point's rounding floor beyond
    spec = CurvatureSpec(*nr)
    rng = np.random.default_rng(seed)
    lam = sample_cone(spec, rng, 200, 0.5, 2.0)
    size = np.abs(lam).max(axis=-1)
    floor = _FLOOR_FACTOR * _EPS * size / GRAD_STEP
    small = floor <= 1e-6          # one batch; the rare large points singly
    assert fd_gradcheck(spec, lam[small]).max_rel_err <= 1e-6
    for x, bound in zip(lam[~small], floor[~small]):
        assert fd_gradcheck(spec, x).max_rel_err <= bound
    euler = (f_grad(spec, lam) * lam).sum(axis=-1) - f_eval(spec, lam)
    assert np.abs(euler).max() <= 1e-12
    c = rng.uniform(0.5, 2.0, size=200)
    hom = f_eval(spec, lam * c[:, None]) - c * f_eval(spec, lam)
    assert np.all(np.abs(hom)
                  <= np.maximum(1e-12, _FLOOR_FACTOR * _EPS * c * size))
