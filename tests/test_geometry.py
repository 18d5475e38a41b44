import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warpcurve as wc
from warpcurve.geometry import (compute_geometry, eig2_sym, fields_csv,
                                special_frame_deviations,
                                support_identity_check)
from warpcurve.grid import NodeField, random_smooth

from conftest import fields_csv_by_node, inv_sqrt


def test_umbilic_slice(cosh_profile):
    for n, N in ((1, 64), (2, 24)):
        g = wc.make_grid(n, N)
        c = 1.2
        geom = compute_geometry(NodeField.constant(g, c), g, cosh_profile)
        kap = np.tanh(c)
        assert np.abs(geom.lam - kap).max() <= 1e-12
        assert np.abs(geom.W - np.cosh(c)).max() <= 1e-12
        assert np.abs(geom.tau - np.cosh(c)).max() <= 1e-12
        assert np.abs(geom.eta + np.sinh(c)).max() <= 1e-12
        eye = np.eye(n)
        assert np.abs(geom.A - kap * eye).max() <= 1e-12
        if n == 2:
            assert np.abs(geom.a[..., 0, 1]).max() <= 1e-14


class _FlatProfile:
    """h = 1: the flat ambient, which no WarpingProfile admits (kappa = 0).
    compute_geometry reads a profile through eval alone."""

    @staticmethod
    def eval(t):
        t = np.asarray(t, dtype=float)
        return np.ones_like(t), np.zeros_like(t), np.zeros_like(t)


def test_plane_curve_curvature_with_flat_table_profile():
    # h = 1: classical graph curvature with downward normal; z = 1 - cos u
    # has the 2-jet u^2/2 at u = 0
    g = wc.make_grid(1, 1024)
    flat = _FlatProfile()
    z = 1.0 - np.cos(g.coords()[0])
    geom = compute_geometry(z, g, flat)
    assert geom.lam[0, 0] == pytest.approx(-1.0, abs=g.dx ** 2)


def test_domain_error_when_height_leaves_interval(cosh_profile):
    g = wc.make_grid(1, 32)
    with pytest.raises(wc.DomainError):
        compute_geometry(NodeField.constant(g, 3.5), g, cosh_profile)


def test_metric_determinant_identity(cosh_profile):
    g = wc.make_grid(2, 24)
    rng = np.random.default_rng(9)
    z = 1.0 + random_smooth(g, rng, 0.15)
    geom = compute_geometry(z, g, cosh_profile)
    det = np.linalg.det(geom.g)
    target = geom.h ** (2 * g.n - 2) * geom.W ** 2
    assert np.abs(det / target - 1.0).max() <= 1e-10
    assert np.abs(geom.g @ geom.g_inv - np.eye(2)).max() <= 1e-10
    assert np.abs(geom.nu0 * geom.W + geom.h).max() <= 1e-14 * geom.h.max()
    assert np.all(geom.nu0 < 0)


# profile and barrier slab (t_minus, t_plus) of each drawn state
_SLABS = {"cosh": (wc.WarpingProfile.cosh(0.2, 3.0), 0.5, 1.5),
          "exp": (wc.WarpingProfile.exp(-2.0, 2.0), -1.0, 1.0)}


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.sampled_from([1, 2]), order=st.sampled_from([2, 4]),
       N=st.integers(16, 48), profile=st.sampled_from(sorted(_SLABS)),
       at=st.floats(0.05, 0.95), amp=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_geometry_identities_on_random_admissible_states(n, order, N, profile,
                                                         at, amp, seed):
    # the states and bounds of verify's geometry rows: z = t0 + a smooth
    # field of sup-norm at most 0.04 (t_plus - t_minus)
    prof, t_minus, t_plus = _SLABS[profile]
    g = wc.make_grid(n, N, order=order)
    rng = np.random.default_rng(seed)
    t0 = t_minus + at * (t_plus - t_minus)
    z = t0 + random_smooth(g, rng, amp * 0.04 * (t_plus - t_minus))
    geom = compute_geometry(z, g, prof)
    det = np.linalg.det(geom.g)
    assert np.abs(det / (geom.h ** (2 * n - 2) * geom.W ** 2) - 1.0).max() \
        <= 1e-10
    assert np.abs(geom.nu0 * geom.W + geom.h).max() <= 1e-14 * geom.h.max()
    idx = tuple(rng.integers(N, size=(100, n)).T)
    keep = np.sqrt((geom.grad[idx] ** 2).sum(axis=-1)) >= 1e-8
    dev = special_frame_deviations(geom, tuple(i[keep] for i in idx))
    assert dev.max(initial=0.0) <= 1e-10


def test_symmetrized_form_is_similar_to_shape_operator(cosh_profile):
    g = wc.make_grid(2, 16)
    rng = np.random.default_rng(4)
    z = 1.0 + random_smooth(g, rng, 0.2)
    geom = compute_geometry(z, g, cosh_profile)
    # eigenvalues of g^{-1} a match those of the symmetrized form
    ev = np.sort(np.linalg.eigvals(geom.A).real, axis=-1)[..., ::-1]
    assert np.abs(ev - geom.lam).max() <= 1e-9


def test_eigenvalues_match_characteristic_polynomial_roots(cosh_profile):
    g = wc.make_grid(2, 16)
    rng = np.random.default_rng(14)
    z = 1.0 + random_smooth(g, rng, 0.2)
    geom = compute_geometry(z, g, cosh_profile)
    tr = np.einsum("...ii->...", geom.atilde)
    det = np.linalg.det(geom.atilde)
    disc = np.sqrt(np.maximum(tr * tr - 4 * det, 0.0))
    roots = np.stack([(tr + disc) / 2, (tr - disc) / 2], axis=-1)
    assert np.abs(roots - geom.lam).max() <= 1e-10


def test_special_frame_agreement(cosh_profile):
    g = wc.make_grid(2, 32)
    rng = np.random.default_rng(21)
    z = 1.0 + random_smooth(g, rng, 0.12)
    geom = compute_geometry(z, g, cosh_profile)
    gn = np.sqrt((geom.grad ** 2).sum(axis=-1))
    idx = tuple(rng.integers(g.N, size=(500, 2)).T)
    keep = gn[idx] >= 1e-8
    assert keep.sum() > 400
    dev = special_frame_deviations(geom, tuple(i[keep] for i in idx))
    assert dev.max() <= 1e-10


def test_special_frame_n1_and_errors(cosh_profile):
    g = wc.make_grid(1, 128)
    z = 1.0 + 0.1 * np.sin(g.coords()[0])
    geom = compute_geometry(z, g, cosh_profile)
    assert special_frame_deviations(geom, (np.array([7]),))[0] <= 1e-12
    const = compute_geometry(NodeField.constant(g, 1.0), g, cosh_profile)
    with pytest.raises(wc.FrameError, match=r"at node \(7,\)"):
        special_frame_deviations(const, (np.array([7]),))


@pytest.mark.parametrize("n,N", [(1, 128), (2, 32)])
def test_special_frame_batch_matches_per_node_calls(cosh_profile, n, N):
    g = wc.make_grid(n, N)
    rng = np.random.default_rng(22)
    geom = compute_geometry(1.0 + random_smooth(g, rng, 0.12), g,
                            cosh_profile)
    nodes = rng.integers(N, size=(300, n))
    dev = special_frame_deviations(geom, tuple(nodes.T))
    single = [special_frame_deviations(geom, tuple(node[:, None]))[0]
              for node in nodes]
    assert np.abs(dev - single).max() <= 1e-15
    assert dev.max() <= 1e-10


def test_special_frame_batch_names_the_first_flat_node(cosh_profile):
    g = wc.make_grid(2, 32)
    z = 1.0 + 0.1 * np.sin(g.coords()[0])
    geom = compute_geometry(z, g, cosh_profile)
    # grad z = (0.1 cos x, 0) vanishes on the row x = pi/2, index 8
    with pytest.raises(wc.FrameError, match=r"at node \(8, 9\)"):
        special_frame_deviations(geom, (np.array([3, 8, 8]),
                                        np.array([4, 9, 2])))


def test_support_identities_constant_slice(cosh_profile):
    g = wc.make_grid(2, 24)
    geom = compute_geometry(NodeField.constant(g, 1.1), g, cosh_profile)
    err_eta, err_tau = support_identity_check(geom)
    assert err_eta <= 1e-12 and err_tau <= 1e-12


def test_support_identities_truncation_and_richardson(cosh_profile):
    errs = {}
    for N in (256, 512):
        g = wc.make_grid(1, N)
        z = 1.0 + 0.1 * np.sin(g.coords()[0])
        errs[N] = support_identity_check(compute_geometry(z, g, cosh_profile))
    e1, t1 = errs[256]
    e2, t2 = errs[512]
    dx2 = (2 * np.pi / 256) ** 2
    assert e1 <= 0.1 * dx2 and t1 <= 0.1 * dx2   # measured C is about 3e-3
    for ratio in (e1 / e2, t1 / t2):
        assert 3.4 <= ratio <= 4.6               # order 2: factor 4 +- 15%


def test_fields_csv_shape(cosh_profile):
    g = wc.make_grid(2, 16)
    geom = compute_geometry(NodeField.constant(g, 1.0), g, cosh_profile)
    text = fields_csv(geom)
    lines = text.strip().split("\n")
    assert lines[0] == "u0,u1,W,lambda_max,lambda_min,tau"
    assert len(lines) == 1 + g.size
    first = [float(x) for x in lines[1].split(",")]
    assert first[2] == pytest.approx(np.cosh(1.0), rel=1e-15)


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_fields_csv_matches_node_loop(cosh_profile, n, N):
    g = wc.make_grid(n, N)
    rng = np.random.default_rng(2)
    z = NodeField(1.0 + random_smooth(g, rng, 0.1), g)
    geom = compute_geometry(z, g, cosh_profile)
    assert fields_csv(geom) == fields_csv_by_node(geom)


# the bit patterns a float-keyed writer would merge or mislabel: both zeros,
# NaNs of both signs and with a payload, both infinities, subnormals
_SPECIAL = np.concatenate([
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
     2.2250738585072014e-308 / 3, 1.0],
    np.array([0x7FF8000000000001, -0x0007FFFFFFFFFFFF], np.int64)
    .view(np.float64)])
_FILLS = {
    "signed zeros": lambda rng, shape: rng.choice([0.0, -0.0, 0.5], shape),
    "nan inf subnormal": lambda rng, shape: rng.choice(_SPECIAL, shape),
    "repeated": lambda rng, shape: rng.choice([0.1, 1 / 3, -2.5], shape),
    "distinct": lambda rng, shape: rng.standard_normal(shape),
}


def _filled_geometry(g, fill, seed=3):
    """The columns fields_csv reads, every one drawn from one fill."""
    rng = np.random.default_rng(seed)
    draw = _FILLS[fill]
    return SimpleNamespace(grid=g, W=draw(rng, g.shape),
                           lam=draw(rng, g.shape + (g.n,)),
                           tau=draw(rng, g.shape))


@pytest.mark.parametrize("fill", list(_FILLS))
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_fields_csv_keeps_every_bit_pattern(n, N, order, fill):
    geom = _filled_geometry(wc.make_grid(n, N, order=order), fill)
    text = fields_csv(geom)
    assert text == fields_csv_by_node(geom)
    cells = set(text.replace("\n", ",").split(","))
    values = np.concatenate([geom.W.ravel(), geom.lam.ravel(),
                             geom.tau.ravel()])
    distinct = len(np.unique(values.view(np.int64)))
    if fill == "signed zeros":
        assert {"-0", "0"} <= cells
    elif fill == "nan inf subnormal":
        assert {"nan", "inf", "-inf", "4.9406564584124654e-324",
                "-4.9406564584124654e-324"} <= cells
    elif fill == "repeated":
        assert distinct == 3
    else:
        assert distinct == values.size


def test_fields_csv_memory_on_distinct_values():
    # every value of the four data columns distinct: one string per value
    # is held until the join; 8.1 MB measured at n = 2, N = 128
    geom = _filled_geometry(wc.make_grid(2, 128), "distinct")
    tracemalloc.start()
    try:
        text = fields_csv(geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 1 + 128 * 128
    assert peak < 10e6


def _check_eigenpairs(m00, m01, m11):
    lmax, lmin, c, s = eig2_sym(m00, m01, m11)
    m = np.stack([np.stack([m00, m01], -1), np.stack([m01, m11], -1)], -2)
    w, _ = np.linalg.eigh(m)
    scale = np.abs(m).max()
    assert np.abs(lmax - w[..., 1]).max() <= 1e-14 * scale
    assert np.abs(lmin - w[..., 0]).max() <= 1e-14 * scale
    assert np.all(lmax >= lmin)
    assert np.abs(c * c + s * s - 1.0).max() <= 1e-15
    # (c, s) and (-s, c) are eigenvectors of lam_max and lam_min
    for x, y, lam in ((c, s, lmax), (-s, c, lmin)):
        rx = m00 * x + m01 * y - lam * x
        ry = m01 * x + m11 * y - lam * y
        assert np.abs(np.hypot(rx, ry)).max() <= 1e-14 * scale


def test_closed_form_eigenpairs_match_eigh():
    rng = np.random.default_rng(31)
    m00, m01, m11 = rng.normal(size=(3, 2000))
    _check_eigenpairs(m00, m01, m11)
    # umbilic (equal eigenvalues) and nearly umbilic matrices, either sign
    d = rng.normal(size=400)
    _check_eigenpairs(d, np.zeros_like(d), d.copy())
    _check_eigenpairs(d, 1e-9 * d, d * (1.0 + 1e-12))
    zero = np.zeros(3)
    _check_eigenpairs(zero, zero, zero)


@pytest.mark.parametrize("amp", [0.0, 0.2])
def test_geometry_eigenpairs_match_eigh_of_symmetrized_form(cosh_profile, amp):
    g = wc.make_grid(2, 16)
    z = 1.0 + random_smooth(g, np.random.default_rng(5), amp)
    geom = compute_geometry(z, g, cosh_profile)
    w, _ = np.linalg.eigh(geom.atilde)
    assert np.abs(geom.lam - w[..., ::-1]).max() <= 1e-13
    _, _, c, s = eig2_sym(geom.atilde[..., 0, 0], geom.atilde[..., 0, 1],
                          geom.atilde[..., 1, 1])
    Q = np.stack([np.stack([c, -s], axis=-1),
                  np.stack([s, c], axis=-1)], axis=-2)
    back = (Q * geom.lam[..., None, :]) @ np.swapaxes(Q, -1, -2)
    assert np.abs(back - geom.atilde).max() <= 1e-13
    # frame_sum(w) = V diag(w) V^T with V = g^{-1/2} Q
    wts = np.stack([np.full(g.shape, 2.0), np.full(g.shape, 0.5)], axis=-1)
    V = inv_sqrt(geom.g) @ Q
    ref = np.einsum("...ik,...k,...jk->...ij", V, wts, V)
    M = geom.frame_sum(wts)
    for i in range(2):
        for j in range(2):
            assert np.abs(M[i][j] - ref[..., i, j]).max() <= 1e-14
