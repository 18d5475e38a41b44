"""Flat torus base (R/LZ)^n, n in {1, 2}, with periodic centered
finite-difference stencils of order 2 or 4, their weights derived from
moment conditions.

The weight tables _W1/_W2 build one operator table per grid (_stencils):
gradient and hessian apply it by periodic shifted slices, and the fixed
CSR layout of every sparse matrix (stencil_pattern, pattern_matrix), its
footprint and per-operator weights are read from it in closed form.

Node ordering is fixed once and for all: axis 0 varies fastest (Fortran
ravel), so the Jacobian sparsity pattern and all serialized dumps are
deterministic.  On the flat base, frame components of z_i and z_ij
coincide with coordinate partial derivatives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, ShapeError


def _centered_weights(m, order):
    """Centered (order + 1)-point weights of the m-th derivative (m = 1, 2).

    The weights w_o, o = -order/2 .. order/2, solve the moment conditions
    sum_o w_o o**k = m! [k == m] for k = 0 .. order exactly in rationals
    (Fornberg, Math. Comp. 51, 1988), so each float is the correctly
    rounded fraction.  Offsets run in descending order (gradient and
    hessian sum in this order); zero weights are dropped.
    """
    q = order // 2
    offs = list(range(q, -q - 1, -1))
    size = len(offs)
    # augmented Vandermonde rows [o**k for o in offs | m! [k == m]],
    # reduced by Gauss-Jordan elimination (the system is nonsingular)
    rows = [[Fraction(o) ** k for o in offs]
            + [Fraction(math.factorial(m) * (k == m))] for k in range(size)]
    for i in range(size):
        piv = next(r for r in range(i, size) if rows[r][i] != 0)
        rows[i], rows[piv] = rows[piv], rows[i]
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for r in range(size):
            f = rows[r][i]
            if r != i and f != 0:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    return {o: float(row[-1]) for o, row in zip(offs, rows) if row[-1] != 0}


# centered stencil weights, offset -> coefficient (unscaled by dx powers)
_W1 = {p: _centered_weights(1, p) for p in (2, 4)}
_W2 = {p: _centered_weights(2, p) for p in (2, 4)}


class TorusGrid:
    """Uniform periodic grid on the flat torus (R/LZ)^n."""

    def __init__(self, n, N, L=2.0 * np.pi, order=2):
        if n not in (1, 2):
            raise ConfigError(f"dimension n must be 1 or 2, got {n}")
        for name, value in (("N", N), ("order", order)):
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"grid {name} must be an integer, "
                                  f"got {value!r}")
        if N < 16:
            raise ConfigError(f"need at least 16 nodes per axis, got {N}")
        if not 0 < L < np.inf:              # False on NaN too
            raise ConfigError(
                f"period L must be finite and positive, got {L!r}")
        if order not in (2, 4):
            raise ConfigError(f"stencil order must be 2 or 4, got {order}")
        # the stencils scale by 1/dx and 1/dx**2 (_stencils): dx and both
        # scales are finite normal floats exactly when dx**2 lies in
        # [2**-1022, 2**1022] (dx * dx, unlike dx ** 2, cannot raise)
        dx = L / N
        if not 2.0 ** -1022 <= dx * dx <= 2.0 ** 1022:
            raise ConfigError(
                f"period L = {L!r} is out of range for N = {N}: dx, 1/dx "
                f"and 1/dx**2 must be finite normal floats")
        self.n = int(n)
        self.N = int(N)
        self.L = float(L)
        self.order = int(order)
        self.dx = self.L / self.N
        self.shape = (self.N,) * self.n
        self.size = self.N ** self.n
        self._table = None
        self._sums = None
        self._coloring = None
        self._pattern = None

    def __repr__(self):
        return (f"TorusGrid(n={self.n}, N={self.N}, L={self.L:.6g}, "
                f"order={self.order})")

    def coords(self):
        """Node coordinates, shape (n, N) or (n, N, N) (indexing 'ij')."""
        u = np.arange(self.N) * self.dx
        if self.n == 1:
            return u[None, :]
        X, Y = np.meshgrid(u, u, indexing="ij")
        return np.stack([X, Y])

    # -- the operator table: applied by shifted slices, read by the layout ----

    def _stencils(self):
        """The operator table, cached: key -> (stencil, scale).

        A stencil maps offset tuples to weights.  In table order: ("id",);
        ("d1", axis) and ("d2", axis) per axis, _W1/_W2 with scales 1/dx
        and 1/dx**2; at n = 2 ("d11",), the products of the scaled d1
        weights, with scale 1.
        """
        if self._table is None:
            n, s1 = self.n, 1.0 / self.dx
            w1, w2 = _W1[self.order], _W2[self.order]
            table = {("id",): ({(0,) * n: 1.0}, 1.0)}
            for name, weights, scale in (("d1", w1, s1),
                                         ("d2", w2, 1.0 / self.dx ** 2)):
                for d in range(n):
                    table[name, d] = ({(0,) * d + (o,) + (0,) * (n - 1 - d): w
                                       for o, w in weights.items()}, scale)
            if n == 2:
                table[("d11",)] = ({(a, b): (wa * s1) * (wb * s1)
                                    for a, wa in w1.items()
                                    for b, wb in w1.items()}, 1.0)
            self._table = table
        return self._table

    def _stencil_sums(self, values, keys):
        """The table's operators `keys` applied to a field: each weight
        times the field shifted by its offset (a slice of the field
        wrap-padded by the stencil radius), summed in table order, and
        the sum scaled once at the end."""
        wrap, ops = self._sums_table()
        padded = values
        for d in range(self.n):
            padded = padded.take(wrap, d)
        out = []
        for key in keys:
            ((first, w), *rest), scale = ops[key]
            acc = w * padded[first]
            for sl, w in rest:
                acc += w * padded[sl]
            out.append(acc * scale)
        return out

    def _sums_table(self):
        """What _stencil_sums reads, cached: the wrapped index that pads an
        axis by the stencil radius r, and per operator its (slice tuple,
        weight) terms in table order with its scale."""
        if self._sums is None:
            r, N = self.order // 2, self.N
            ops = {key: ([(tuple(slice(r + o, r + o + N) for o in off), w)
                          for off, w in stencil.items()], scale)
                   for key, (stencil, scale) in self._stencils().items()}
            self._sums = (np.arange(-r, N + r) % N, ops)
        return self._sums

    def gradient(self, values):
        """Periodic centered gradient, shape (n,) + grid shape."""
        return np.stack(self._stencil_sums(
            values, [("d1", d) for d in range(self.n)]))

    def hessian(self, values):
        """Per-node Hessian, shape (n, n) + grid shape: d2 per axis on the
        diagonal and, at n = 2, the d11 product stencil applied once for
        both mixed entries, so the result is exactly symmetric."""
        if self.n == 1:
            return self._stencil_sums(values, [("d2", 0)])[0][None, None]
        a, b, c = self._stencil_sums(values, [("d2", 0), ("d2", 1), ("d11",)])
        return np.array([[a, c], [c, b]])

    def _operator(self, key):
        keys = list(self._stencils())
        if key not in keys:
            raise ConfigError(f"no operator {key} on the n = {self.n} torus")
        # constant coefficients: every row holds the operator's pattern weights
        weights = self.stencil_pattern()[2][keys.index(key)]
        return self.pattern_matrix(np.tile(weights, self.size))

    def d1_matrix(self, axis):
        """Sparse first derivative along an axis, in the fixed layout."""
        return self._operator(("d1", axis))

    def d2_matrix(self, axis):
        """Sparse second derivative along an axis, in the fixed layout."""
        return self._operator(("d2", axis))

    def d11_matrix(self):
        """Sparse mixed second derivative (n = 2 only), in the fixed layout."""
        return self._operator(("d11",))

    # -- flattening, footprint, coloring -------------------------------------

    def flatten(self, values):
        return np.asarray(values).ravel(order="F")

    def unflatten(self, flat):
        return np.asarray(flat).reshape(self.shape, order="F")

    def stencil_footprint(self):
        """Offsets (tuples) the residual at a node depends on, sorted."""
        return sorted(set().union(*(st for st, _ in
                                    self._stencils().values())))

    def stencil_pattern(self):
        """Fixed CSR layout of operators supported on the stencil footprint.

        Row i holds the columns i + o for the offsets o of
        stencil_footprint(), in that order, so the data array of a matrix
        in this layout reshapes to (size, n_offsets) with one column per
        offset.  Returns (indices, indptr, weights); weights has one row
        per operator -- identity, d1 per axis, d2 per axis, then d11 at
        n = 2 -- holding its coefficient at each offset (0 off its
        stencil).  The arrays are cached and read-only.
        """
        if self._pattern is None:
            foot = self.stencil_footprint()
            weights = np.array([[st.get(o, 0.0) * scale for o in foot]
                                for st, scale in self._stencils().values()])
            offs = np.array(foot, dtype=np.int32)
            idx = np.arange(self.N, dtype=np.int32)
            # per axis, the wrapped index of i + o for every offset o
            wrap = [(idx[:, None] + offs[:, d]) % self.N
                    for d in range(self.n)]
            # flat index = i0 + N*i1 (axis 0 fastest): rows run over i1
            # outside, i0 inside
            flat = wrap[0] if self.n == 1 else \
                wrap[0][None] + self.N * wrap[1][:, None]
            indices = flat.ravel()
            indptr = np.arange(0, indices.size + 1, len(foot), dtype=np.int32)
            for arr in (indices, indptr, weights):
                arr.flags.writeable = False
            self._pattern = (indices, indptr, weights)
        return self._pattern

    def pattern_matrix(self, data):
        """CSR matrix in the fixed layout from (size, n_offsets) data."""
        indices, indptr, _ = self.stencil_pattern()
        # own copies of the index arrays: scipy may sort or prune in place
        return sp.csr_matrix((np.ravel(data), indices.copy(), indptr.copy()),
                             shape=(self.size, self.size))

    def coloring(self):
        """Column coloring for finite-difference Jacobians.

        Two columns may share a color only if no residual row depends on
        both, i.e. their offset difference (mod N per axis) is outside the
        footprint difference set, which lies in the box |d| <= D = order
        on every axis.  Each axis is cut into N // (D + 1) consecutive
        blocks of near-equal length, each at least D + 1 long, and a node
        takes its position within its block per axis (c0 + K c1 at n = 2,
        K the longest block): two distinct nodes of one color are then at
        least D + 1 apart, both ways round, on an axis where they differ.
        Returns (colors flat array, count).
        """
        if self._coloring is None:
            q = self.N // (self.order + 1)
            starts = np.arange(q) * self.N // q
            idx = np.arange(self.N)
            c = idx - starts[np.searchsorted(starts, idx, side="right") - 1]
            K = int(c.max()) + 1
            colors = c if self.n == 1 else self.flatten(c[:, None] + K * c)
            self._coloring = (colors, K ** self.n)
        return self._coloring


make_grid = TorusGrid      # the name the package exports


@dataclass
class NodeField:
    """One real value per grid node (the discrete height field z)."""

    values: np.ndarray
    grid: TorusGrid = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ShapeError(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ShapeError("field contains non-finite values")

    @classmethod
    def constant(cls, grid, value):
        return cls(np.full(grid.shape, float(value)), grid)


def field_values(z):
    """The node values of a height field: a NodeField's, or an array's
    as floats; every entry point that takes z reads it here."""
    return z.values if isinstance(z, NodeField) else np.asarray(z, float)


def l2_norm(fld: NodeField):
    """The volume-weighted l2 norm (sum v^2 dx^n)^(1/2) of a field."""
    v = fld.values
    return float(np.sqrt(np.sum(v * v) * fld.grid.dx ** fld.grid.n))


def random_smooth(grid, rng, amplitude):
    """Random trigonometric field of per-axis frequencies 0, 1, 2, the
    constant mode left out, normalized to sup-norm = amplitude."""
    X = grid.coords() * (2.0 * np.pi / grid.L)
    out = np.zeros(grid.shape)
    for k in itertools.product(range(3), repeat=grid.n):
        if all(ki == 0 for ki in k):
            continue
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coef = rng.normal()
        arg = sum(ki * X[d] for d, ki in enumerate(k)) + phase
        out += coef * np.cos(arg)
    return out * (amplitude / np.abs(out).max())


def save_field(fld: NodeField, path):
    """Dump as flat little-endian float64 in node order (axis 0 fastest)."""
    data = fld.grid.flatten(fld.values).astype("<f8").tobytes()
    with open(path, "wb") as f:
        f.write(data)


def load_field(path, grid: TorusGrid):
    with open(path, "rb") as f:
        flat = np.frombuffer(f.read(), dtype="<f8")
    if flat.size != grid.size:
        raise ShapeError(f"file holds {flat.size} values, grid has {grid.size}")
    return NodeField(grid.unflatten(flat.astype(float)), grid)
