import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import warpcurve as wc
from warpcurve.grid import (_W1, _W2, NodeField, l2_norm, load_field,
                            random_smooth, save_field)


def test_make_grid_spacing():
    g = wc.make_grid(1, 256)
    assert g.dx == pytest.approx(2 * np.pi / 256, rel=1e-15)
    g2 = wc.make_grid(2, 48, order=4)
    assert g2.size == 2304
    assert repr(g2) == "TorusGrid(n=2, N=48, L=6.28319, order=4)"


@pytest.mark.parametrize("bad", [
    dict(n=3, N=32), dict(n=1, N=8), dict(n=1, N=64, L=-1.0),
    dict(n=1, N=64, order=3),
])
def test_make_grid_rejects(bad):
    with pytest.raises(wc.ConfigError):
        wc.make_grid(**bad)


@pytest.mark.parametrize("name,bad", [
    ("N", 16.7), ("N", "32"), ("N", 64.0), ("order", 2.0), ("order", "4")])
def test_make_grid_rejects_a_non_integer_size_or_order(name, bad):
    args = {"n": 1, "N": 64, "order": 2, name: bad}
    with pytest.raises(wc.ConfigError, match=rf"{name} must be an integer, "
                       rf"got {re.escape(repr(bad))}"):
        wc.make_grid(**args)


def test_make_grid_accepts_numpy_integers():
    g = wc.make_grid(np.int64(1), np.int64(64), order=np.int32(4))
    assert (g.N, g.order) == (64, 4) and type(g.N) is int


@pytest.mark.parametrize("L", [np.nan, np.inf])
def test_make_grid_rejects_a_non_finite_period(L):
    with pytest.raises(wc.ConfigError, match="finite and positive"):
        wc.make_grid(1, 64, L)


@pytest.mark.parametrize("n,N,L", [
    (1, 32, 1e-300), (1, 32, 1e300), (2, 16, 1e-300), (1, 32, 5e-307),
    (1, 32, 1e200)])
def test_make_grid_rejects_a_period_its_stencils_cannot_scale(n, N, L):
    # dx**2 underflows to 0 or overflows: 1/dx**2 would be inf or 0
    with pytest.raises(wc.ConfigError, match=r"period L = .* out of range"):
        wc.make_grid(n, N, L)


@pytest.mark.parametrize("L", [1e-150, 1e150])
def test_extreme_but_representable_periods_build_their_stencils(L):
    g = wc.make_grid(1, 32, L)
    scales = [scale for _, scale in g._stencils().values()]
    assert all(np.isfinite(scales)) and min(scales) > 0


def test_constant_field_has_zero_derivatives():
    g = wc.make_grid(2, 24)
    z = NodeField.constant(g, 3.7).values
    grad, hess = g.gradient(z), g.hessian(z)
    assert np.all(grad == 0.0)
    assert np.all(hess == 0.0)


def test_gradient_of_sine_truncation_constant():
    g = wc.make_grid(1, 256)
    u = g.coords()[0]
    grad = g.gradient(np.sin(u))[0]
    err = np.abs(grad - np.cos(u)).max()
    C = err / g.dx ** 2
    assert C <= 0.2          # centered-difference Taylor remainder is 1/6


def test_mixed_partial_at_quarter_period():
    g = wc.make_grid(2, 16)
    X, Y = g.coords()
    hess = g.hessian(np.sin(X) * np.sin(Y))
    i = 16 // 4              # node exactly at (pi/2, pi/2)
    assert abs(hess[0, 1][i, i] - 0.0) <= g.dx ** 2
    assert np.array_equal(hess[0, 1], hess[1, 0])


def test_l2_norm_carries_the_volume_weight():
    g = wc.make_grid(1, 256)
    sin = NodeField(np.sin(g.coords()[0]), g)
    assert l2_norm(sin) == pytest.approx(1.7724538509055160, abs=1e-3)
    g2 = wc.make_grid(2, 16)
    assert l2_norm(NodeField.constant(g2, 3.0)) == pytest.approx(
        3.0 * g2.L, rel=1e-14)


@pytest.mark.parametrize("order", [2, 4])
def test_integration_by_parts_skew_adjoint(order):
    g = wc.make_grid(2, 24, order=order)
    rng = np.random.default_rng(7)
    z = wc.random_smooth(g, rng, 1.0)
    w = [wc.random_smooth(g, rng, 1.0) for _ in range(g.n)]
    grad = g.gradient(z)
    div = sum(g.gradient(w[d])[d] for d in range(g.n))
    total = sum((grad[d] * w[d]).sum() for d in range(g.n)) + (z * div).sum()
    assert abs(total) * g.dx ** g.n <= 1e-10


@pytest.mark.parametrize("order", [2, 4])
def test_gradient_convergence_order(order):
    errs = []
    for N in (32, 64):
        g = wc.make_grid(1, N, order=order)
        u = g.coords()[0]
        errs.append(np.abs(g.gradient(np.sin(u))[0] - np.cos(u)).max())
    ratio = errs[0] / errs[1]
    assert abs(ratio - 2 ** order) <= 0.1 * 2 ** order


@pytest.mark.parametrize("order", [2, 4])
def test_hessian_convergence_order(order):
    # d2 along both axes and the mixed d1-d1 product
    errs = []
    for N in (32, 64):
        g = wc.make_grid(2, N, order=order)
        X, Y = g.coords()
        hess = g.hessian(np.sin(X) * np.sin(Y))
        exact = (-np.sin(X) * np.sin(Y), np.cos(X) * np.cos(Y))
        errs.append([np.abs(hess[0, 0] - exact[0]).max(),
                     np.abs(hess[1, 1] - exact[0]).max(),
                     np.abs(hess[0, 1] - exact[1]).max()])
    for coarse, fine in zip(*errs):
        assert abs(coarse / fine - 2 ** order) <= 0.1 * 2 ** order


@pytest.mark.parametrize("table,m", [(_W1, 1), (_W2, 2)], ids=["d1", "d2"])
def test_stencil_moments(table, m):
    # an order-p stencil for the m-th derivative reproduces o**k exactly
    # for k < p + m (sum w o**k = m! delta_km), and not for k = p + m
    for order, weights in table.items():
        for k in range(order + m + 1):
            moment = sum(w * o ** k for o, w in weights.items())
            if k < order + m:
                assert moment == pytest.approx(math.factorial(m) * (k == m),
                                               abs=1e-14), (order, k)
            else:
                assert abs(moment) > 1e-3, (order, k)


def test_node_field_validation():
    g = wc.make_grid(1, 32)
    with pytest.raises(wc.ShapeError):
        NodeField(np.zeros(31), g)
    bad = np.zeros(32)
    bad[3] = np.inf
    with pytest.raises(wc.ShapeError):
        NodeField(bad, g)


def test_field_serialization_round_trip(tmp_path):
    g = wc.make_grid(2, 16)
    rng = np.random.default_rng(3)
    fld = NodeField(rng.normal(size=g.shape), g)
    path = tmp_path / "z.f64"
    save_field(fld, path)
    raw = path.read_bytes()
    assert raw == fld.values.ravel(order="F").astype("<f8").tobytes()
    back = load_field(path, g)
    assert np.array_equal(back.values, fld.values)
    with pytest.raises(wc.ShapeError,
                       match="^file holds 256 values, grid has 1024$"):
        load_field(path, wc.make_grid(2, 32))


def _roll_derivatives(g, z):
    """Gradient and Hessian by np.roll: per axis, sum w * roll(z, -o) in
    _W1/_W2 order, then scale; the mixed entry is d1 along axis 0, then
    along axis 1.  The reference the stencil-table path is held to."""
    def apply(weights, values, axis, scale):
        out = np.zeros_like(values)
        for off, w in weights.items():
            out += w * np.roll(values, -off, axis=axis)
        return out * scale

    def d1(values, axis):
        return apply(_W1[g.order], values, axis, 1.0 / g.dx)

    grad = np.stack([d1(z, d) for d in range(g.n)])
    hess = np.empty((g.n, g.n) + g.shape)
    for d in range(g.n):
        hess[d, d] = apply(_W2[g.order], z, d, 1.0 / g.dx ** 2)
    if g.n == 2:
        hess[0, 1] = hess[1, 0] = d1(d1(z, 0), 1)
    return grad, hess


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n,N", [(1, 16), (1, 37), (1, 2048), (2, 16),
                                 (2, 33), (2, 64)])
def test_table_derivatives_match_the_roll_reference(n, N, order):
    # the same products summed in the same order, then scaled once: bit
    # for bit, except the mixed entry, now one product stencil
    g = wc.make_grid(n, N, order=order)
    z = wc.random_smooth(g, np.random.default_rng(N + order), 0.3)
    z += np.random.default_rng(n).normal(scale=1e-3, size=g.shape)
    grad, hess = g.gradient(z), g.hessian(z)
    ref_grad, ref_hess = _roll_derivatives(g, z)
    assert np.array_equal(grad, ref_grad)
    for d in range(n):
        assert np.array_equal(hess[d, d], ref_hess[d, d])
    if n == 2:
        mixed = np.abs(hess[0, 1] - ref_hess[0, 1]).max()
        assert mixed <= 1e-12 * np.abs(ref_hess[0, 1]).max()
        assert np.array_equal(hess[0, 1], hess[1, 0])


def test_stencil_sums_cache_is_per_grid():
    # grids of different N and order, called in turn: each reads its own
    # cached wrap index and slice terms
    grids = [wc.make_grid(n, N, order=order) for n, N, order in
             ((2, 16, 2), (2, 24, 4), (1, 40, 4), (1, 16, 2))]
    for _ in range(2):
        for g in grids:
            z = wc.random_smooth(g, np.random.default_rng(g.N), 0.3)
            ref_grad, ref_hess = _roll_derivatives(g, z)
            hess = g.hessian(z)
            assert np.array_equal(g.gradient(z), ref_grad)
            for d in range(g.n):
                assert np.array_equal(hess[d, d], ref_hess[d, d])


def test_sparse_operators_match_roll_stencils():
    for n, N, order in ((1, 32, 2), (1, 32, 4), (2, 16, 2), (2, 16, 4)):
        g = wc.make_grid(n, N, order=order)
        rng = np.random.default_rng(n * 10 + order)
        z = rng.normal(size=g.shape)
        flat = g.flatten(z)
        grad, hess = _roll_derivatives(g, z)
        for d in range(n):
            assert np.allclose(g.d1_matrix(d) @ flat, g.flatten(grad[d]),
                               atol=1e-12)
            assert np.allclose(g.d2_matrix(d) @ flat, g.flatten(hess[d, d]),
                               atol=1e-12)
        if n == 2:
            assert np.allclose(g.d11_matrix() @ flat, g.flatten(hess[0, 1]),
                               atol=1e-12)


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.sampled_from([1, 2]), order=st.sampled_from([2, 4]),
       N=st.integers(16, 69), seed=st.integers(0, 2 ** 32 - 1))
def test_operator_matrices_apply_the_derivative_entries(n, order, N, seed):
    g = wc.make_grid(n, N, order=order)
    z = np.random.default_rng(seed).normal(size=g.shape)
    flat = g.flatten(z)
    grad, hess = g.gradient(z), g.hessian(z)
    pairs = [(g.d1_matrix(d), grad[d]) for d in range(n)]
    pairs += [(g.d2_matrix(d), hess[d, d]) for d in range(n)]
    if n == 2:
        pairs.append((g.d11_matrix(), hess[0, 1]))
    for op, entry in pairs:
        ref = g.flatten(entry)
        assert np.abs(op @ flat - ref).max() <= 1e-12 * np.abs(ref).max()


def _ref_circulant(N, weights, scale):
    idx = np.arange(N)
    rows = np.concatenate([idx] * len(weights))
    cols = np.concatenate([(idx + o) % N for o in weights])
    data = np.concatenate([np.full(N, w * scale) for w in weights.values()])
    return sp.csr_matrix((data, (rows, cols)), shape=(N, N))


def _ref_operators(g):
    """identity, d1 per axis, d2 per axis, d11: kron of 1D circulants."""
    c1 = _ref_circulant(g.N, _W1[g.order], 1.0 / g.dx)
    c2 = _ref_circulant(g.N, _W2[g.order], 1.0 / g.dx ** 2)
    eye = sp.identity(g.N, format="csr")
    if g.n == 1:
        return [eye, c1, c2]
    # flat index i0 + N*i1: axis-0 operators are the inner kron factor
    return [sp.identity(g.size, format="csr"),
            sp.kron(eye, c1, "csr"), sp.kron(c1, eye, "csr"),
            sp.kron(eye, c2, "csr"), sp.kron(c2, eye, "csr"),
            sp.kron(c1, c1, "csr")]


def _ref_footprint(g):
    """Identity, d1 and d2 along each axis and, at n = 2, d1 x d1."""
    d1_offs = sorted(_W1[g.order])
    d2_offs = sorted(_W2[g.order])
    if g.n == 1:
        return sorted({(o,) for o in d1_offs + d2_offs + [0]})
    offs = {(0, 0)}
    for o in d1_offs + d2_offs:
        offs.update({(o, 0), (0, o)})
    offs.update((a, b) for a in d1_offs for b in d1_offs)
    return sorted(offs)


def _ref_indices(g):
    foot = np.array(_ref_footprint(g))
    nodes = np.indices(g.shape).reshape(g.n, -1, order="F")
    cols = (nodes[:, :, None] + foot.T[:, None, :]) % g.N
    flat = cols[0] + g.N * cols[1] if g.n == 2 else cols[0]
    return flat.ravel()


# N % (order + 1) != 0 except at N = 18, order 2 and N = 20, order 4
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n,N", [(1, 16), (1, 17), (1, 18), (1, 20), (1, 33),
                                 (2, 16), (2, 17), (2, 18), (2, 20)])
def test_pattern_is_derived_from_the_stencil_tables(n, N, order):
    g = wc.make_grid(n, N, order=order)
    foot = _ref_footprint(g)
    assert g.stencil_footprint() == foot
    indices, indptr, weights = g.stencil_pattern()
    assert np.array_equal(indices, _ref_indices(g))
    assert np.array_equal(indptr, np.arange(0, g.size + 1) * len(foot))
    ops = _ref_operators(g)
    # each operator's weight at an offset o is its entry (0, o)
    first = indices[:len(foot)]
    ref_weights = np.array([op[0].toarray()[0, first] for op in ops])
    assert np.array_equal(weights, ref_weights)
    mine = [g.d1_matrix(d) for d in range(n)] + [g.d2_matrix(d)
                                                 for d in range(n)]
    if n == 2:
        mine.append(g.d11_matrix())
    for op, ref in zip(mine, ops[1:]):
        assert op.nnz == g.size * len(foot)
        assert np.array_equal(op.toarray(), ref.toarray())


def test_operator_matrices_reject_bad_axes():
    g1, g2 = wc.make_grid(1, 16), wc.make_grid(2, 16)
    with pytest.raises(wc.ConfigError):
        g1.d11_matrix()
    for bad in (g1.d1_matrix, g1.d2_matrix):
        with pytest.raises(wc.ConfigError):
            bad(1)
    for bad in (g2.d1_matrix, g2.d2_matrix):
        with pytest.raises(wc.ConfigError):
            bad(2)


# N % (order + 1) != 0 in every case: the last axis blocks are longer
@pytest.mark.parametrize("n,N,order", [(1, 20, 2), (1, 16, 4), (2, 17, 2),
                                       (2, 16, 4), (1, 19, 4), (2, 19, 4),
                                       (1, 22, 2), (2, 23, 2), (2, 21, 4)])
def test_coloring_is_a_valid_jacobian_coloring(n, N, order):
    g = wc.make_grid(n, max(N, 16), order=order)
    colors, ncol = g.coloring()
    foot = g.stencil_footprint()
    conflicts = set()
    for a in foot:
        for b in foot:
            conflicts.add(tuple((ai - bi) % g.N for ai, bi in zip(a, b)))
    conflicts.discard((0,) * n)
    if n == 1:
        nodes = [(i,) for i in range(g.N)]
    else:
        nodes = [(i0, i1) for i1 in range(g.N) for i0 in range(g.N)]
    for flat, node in enumerate(nodes):
        for d in conflicts:
            nb = tuple((x + y) % g.N for x, y in zip(node, d))
            nb_flat = nb[0] if n == 1 else nb[0] + g.N * nb[1]
            assert colors[flat] != colors[nb_flat]
    assert ncol == colors.max() + 1


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [1, 2])
def test_coloring_is_valid_for_every_small_grid(n, order):
    for N in [*range(16, 70), 96, 100, 101, 128]:
        g = wc.make_grid(n, N, order=order)
        colors, ncol = g.coloring()
        C = g.unflatten(colors)
        foot = np.array(g.stencil_footprint())
        for d in {tuple(a - b) for a in foot for b in foot} - {(0,) * n}:
            # node i and node i + d never share a color
            assert not np.any(C == np.roll(C, d, axis=tuple(range(n))))
        assert ncol == colors.max() + 1


# (order + 1)**n colors where order + 1 divides N, else (order + 2)**n:
# the longest blocks are one node longer
@pytest.mark.parametrize("n,N,order,count", [(1, 2048, 2, 4), (2, 64, 2, 16),
                                             (2, 128, 2, 16), (2, 64, 4, 36),
                                             (2, 128, 4, 36), (2, 48, 2, 9),
                                             (2, 32, 2, 16)])
def test_coloring_counts(n, N, order, count):
    assert wc.make_grid(n, N, order=order).coloring()[1] == count
