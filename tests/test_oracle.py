import numpy as np
import pytest

import warpcurve as wc
from warpcurve import oracle, problem, solver, verify
from warpcurve.curvature import sample_cone
from warpcurve.grid import NodeField, random_smooth
from warpcurve.oracle import (eig2_oracle, fd_colored_jacobian, fd_gradcheck,
                              fd_jacobian)
from warpcurve.solver import assemble_jacobian, residual

from conftest import make_problem


@pytest.fixture(scope="module")
def hp_small():
    return make_problem(n=1, N=32, eps=0.1, t_plus=1.5)


def test_fd_jacobian_certifies_analytic_mode(hp_small):
    z = NodeField.constant(hp_small.grid, hp_small.t0)
    Ja = assemble_jacobian(z, 0.0, hp_small).toarray()
    Jf = fd_jacobian(z, 0.0, hp_small)
    assert np.abs(Ja - Jf).max() / np.abs(Ja).max() <= 1e-6


def test_fd_jacobian_n2(hp_small):
    hp = make_problem(n=2, N=16, r=2, eps=0.1, t_plus=1.5)
    rng = np.random.default_rng(23)
    z = NodeField(hp.t0 + random_smooth(hp.grid, rng, 0.05), hp.grid)
    Ja = assemble_jacobian(z, 0.8, hp).toarray()
    Jf = fd_jacobian(z, 0.8, hp)
    assert np.abs(Ja - Jf).max() / np.abs(Ja).max() <= 1e-6


# each FD reference and the builder its ConeError retry wraps
_FD_BUILDERS = pytest.mark.parametrize(
    "fd, owner, builder",
    [(fd_jacobian, oracle, "_fd_dense"),
     (fd_colored_jacobian, solver, "_fd_colored_jacobian")],
    ids=["dense", "colored"])


@_FD_BUILDERS
def test_fd_step_shrinks_tenfold_on_a_cone_error(hp_small, monkeypatch, fd,
                                                 owner, builder):
    z = NodeField(hp_small.t0 + random_smooth(
        hp_small.grid, np.random.default_rng(5), 0.05), hp_small.grid)
    s0 = 1e-6 * (1.0 + np.abs(z.values).max())
    steps = []

    def fake(zvals, s, hp, step):
        steps.append(step)
        if step > s0 / 50:
            raise wc.ConeError("a probe left the cone")
        return "J"

    monkeypatch.setattr(owner, builder, fake)
    assert fd(z, 0.5, hp_small) == "J"
    assert steps == pytest.approx([s0, s0 / 10, s0 / 100], rel=1e-15)


@pytest.mark.parametrize("check", [
    lambda hp, z: fd_colored_jacobian(z, 0.5, hp),
    lambda hp, z: fd_jacobian(z, 0.5, hp),
    lambda hp, z: verify.jacobian_rows(hp, seed=12345)],
    ids=["colored", "dense", "probes"])
def test_every_fd_check_of_j_raises_on_a_non_finite_residual(
        hp_small, monkeypatch, check):
    # one residual difference, one policy: a NaN psi at one node is a
    # ShapeError in each, not a NaN entry of the colored reference
    psi_of = problem.HomotopyProblem.psi_of

    def nan_at_one_node(self, *args):
        psi, psi_t = psi_of(self, *args)
        psi = psi.copy()
        psi[3] = np.nan
        return psi, psi_t

    monkeypatch.setattr(problem.HomotopyProblem, "psi_of", nan_at_one_node)
    z = NodeField.constant(hp_small.grid, hp_small.t0)
    with pytest.raises(wc.ShapeError, match="non-finite"):
        check(hp_small, z)


@_FD_BUILDERS
def test_fd_cone_error_survives_four_steps(hp_small, monkeypatch, fd, owner,
                                           builder):
    steps = []

    def fake(zvals, s, hp, step):
        steps.append(step)
        raise wc.ConeError("a probe left the cone")

    monkeypatch.setattr(owner, builder, fake)
    z = NodeField.constant(hp_small.grid, hp_small.t0)
    s0 = 1e-6 * (1.0 + hp_small.t0)
    with pytest.raises(wc.ConeError):
        fd(z, 0.5, hp_small)
    assert steps == pytest.approx([s0, s0 / 10, s0 / 100, s0 / 1000],
                                  rel=1e-15)


def test_linearity_probe(hp_small):
    rng = np.random.default_rng(3)
    z = NodeField(hp_small.t0 + random_smooth(hp_small.grid, rng, 0.04),
                  hp_small.grid)
    J = assemble_jacobian(z, 1.0, hp_small)
    v = random_smooth(hp_small.grid, rng, 1.0)
    r0 = residual(z, 1.0, hp_small).values
    errs = []
    for d in (1e-3, 5e-4, 2.5e-4):
        r1 = residual(NodeField(z.values + d * v, hp_small.grid), 1.0,
                      hp_small).values
        lin = r0 + d * hp_small.grid.unflatten(J @ hp_small.grid.flatten(v))
        errs.append(np.abs(r1 - lin).max())
    for a, b in zip(errs, errs[1:]):
        assert 3.2 <= a / b <= 4.8          # O(delta^2) remainder


def test_zero_perturbation_gives_zero_difference(hp_small):
    z = NodeField.constant(hp_small.grid, 1.0)
    r1 = residual(z, 0.5, hp_small).values
    r2 = residual(NodeField(z.values.copy(), z.grid), 0.5, hp_small).values
    assert np.array_equal(r1, r2)


def test_f_grad_at_r1_is_one_over_n():
    # f = (lam_1 + ... + lam_n) / n is linear for r = 1: every f_i is 1/n
    for n in (1, 2):
        lam = sample_cone(wc.CurvatureSpec(n, 1), np.random.default_rng(n),
                          50, 0.5, 2.0)
        grad = wc.f_grad(wc.CurvatureSpec(n, 1), lam)
        assert grad.shape == lam.shape and np.all(grad == 1.0 / n)


def test_gradcheck_example_point():
    rep = fd_gradcheck(wc.CurvatureSpec(2, 2), np.array([1.0, 4.0]))
    assert rep.max_rel_err <= 1e-7


def test_gradcheck_random_sweep_is_reproducible():
    spec = wc.CurvatureSpec(2, 2)
    lam = sample_cone(spec, np.random.default_rng(777), 1000, 0.5, 2.0)
    worst = max(fd_gradcheck(spec, lam[i]).max_rel_err for i in range(1000))
    assert worst <= 1e-6
    lam2 = sample_cone(spec, np.random.default_rng(777), 1000, 0.5, 2.0)
    assert np.array_equal(lam, lam2)        # fixed seed, bit-identical


def test_gradcheck_cone_margin():
    spec = wc.CurvatureSpec(2, 2)
    with pytest.raises(wc.ConeError):
        fd_gradcheck(spec, np.array([1.0, 1e-7]))


def test_gradcheck_batch_rejects_a_boundary_point_before_evaluating(
        monkeypatch):
    spec = wc.CurvatureSpec(2, 2)
    lam = sample_cone(spec, np.random.default_rng(4), 6, 0.5, 2.0)
    lam = np.insert(lam, 3, [1.0, 1e-7], axis=0)

    def evaluated(*args, **kwargs):
        raise AssertionError("f evaluated before the cone guard")

    monkeypatch.setattr(wc.curvature, "f_grad", evaluated)
    monkeypatch.setattr(wc.curvature, "f_eval", evaluated)
    with pytest.raises(wc.ConeError) as exc:
        fd_gradcheck(spec, lam)
    assert exc.value.node == (3,)
    assert "at point (3,)" in str(exc.value)


@pytest.mark.parametrize("n", [1, 2])
def test_gradcheck_batch_is_bit_identical_to_per_point_calls_at_r1(n):
    # r = 1 takes no fractional power, so the batch and a single point run
    # the same correctly rounded arithmetic
    spec = wc.CurvatureSpec(n, 1)
    lam = sample_cone(spec, np.random.default_rng(40 + n), 300, 0.5, 2.0)
    batch = fd_gradcheck(spec, lam)
    single = [fd_gradcheck(spec, p) for p in lam]
    rel = [rep.max_rel_err for rep in single]
    point = int(np.argmax(rel))
    assert batch.max_rel_err == rel[point]
    assert batch.max_abs_err == max(rep.max_abs_err for rep in single)
    assert batch.location == (point, single[point].location)
    grid_batch = fd_gradcheck(spec, lam.reshape(20, 15, n))
    assert grid_batch.max_rel_err == batch.max_rel_err
    assert grid_batch.location == (point // 15, point % 15,
                                   single[point].location)


def test_eig2_stacked_equals_per_matrix_calls():
    rng = np.random.default_rng(32)
    a, b, c = rng.normal(size=(3, 6, 5))
    m = np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)],
                 axis=-2)
    lam, Q = eig2_oracle(m)
    assert lam.shape == (6, 5, 2) and Q.shape == (6, 5, 2, 2)
    for idx in np.ndindex(6, 5):
        lam1, Q1 = eig2_oracle(m[idx])
        assert np.array_equal(lam[idx], lam1)
        assert np.array_equal(Q[idx], Q1)


def test_eig2_identity_and_diagonal():
    lam, Q = eig2_oracle(np.eye(2))
    assert np.allclose(lam, [1.0, 1.0]) and np.allclose(Q, np.eye(2))
    lam, Q = eig2_oracle(np.diag([3.0, 1.0]))
    assert np.allclose(lam, [3.0, 1.0])


def test_eig2_symmetric_example():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    lam, Q = eig2_oracle(m)
    assert np.allclose(lam, [3.0, 1.0])
    v1 = Q[:, 0]
    assert np.allclose(np.abs(v1), np.ones(2) / np.sqrt(2), atol=1e-14)
    assert np.abs(Q @ Q.T - np.eye(2)).max() <= 1e-14
    assert np.abs((Q * lam) @ Q.T - m).max() <= 1e-14


def test_eig2_random_reconstruction():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a, b, c = rng.normal(size=3)
        m = np.array([[a, b], [b, c]])
        lam, Q = eig2_oracle(m)
        assert lam[0] >= lam[1]
        assert np.abs((Q * lam) @ Q.T - m).max() <= 1e-13
        assert np.abs(Q @ Q.T - np.eye(2)).max() <= 1e-14


def test_oracle_report_rejects_bad_errors():
    with pytest.raises(ValueError):
        wc.OracleReport(-1.0, 0.0, None)
