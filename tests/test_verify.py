import numpy as np
import pytest

import warpcurve as wc
from warpcurve import verify
from warpcurve.grid import NodeField, random_smooth


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
