"""Quadrature grids and sampled functions on the unit sphere S^{n-1}.

Grids are products of 1D Gauss rules over the hyperspherical polar angles and
a uniform trapezoid rule in azimuth, with weights normalized so that they sum
to 1 (the rotation-invariant probability measure).  Nodes are constructed in
exact antipodal pairs: ``nodes[antipode[i]] == -nodes[i]`` holds bitwise, so
parity projection is exact.

Raw grids are never interpolated.  Anything that needs the function off the
nodes must go through band-limited synthesis (see :mod:`funkinv.spectral`) or
supply a callable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import (
    DomainError,
    InvalidArgumentError,
    UnsupportedGridError,
)

__all__ = [
    "QuadratureGrid",
    "GridFunction",
    "build_grid",
    "integrate",
    "even_project",
    "remove_mean",
    "grid_function",
    "constant_function",
    "as_direction",
]

UNIT_NORM_TOL = 1e-14
WEIGHT_SUM_TOL = 1e-13
# spread of nodes[:, 0] allowed within one ring, and distance of a node from
# its ring's uniform azimuth; build_grid's normalization moves a node by at
# most an ulp
RING_TOL = 1e-15


def as_direction(x) -> np.ndarray:
    """Validate and normalize a vector to a unit direction in R^n."""
    u = np.asarray(x, dtype=float).reshape(-1)
    r = float(np.linalg.norm(u))
    if not np.isfinite(r) or r == 0.0:
        raise DomainError("direction must be a nonzero finite vector")
    return u / r


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights on S^{n-1}, normalized to the probability measure.

    Attributes
    ----------
    n : ambient dimension (sphere is S^{n-1}), n >= 3
    nodes : (N, n) unit vectors
    weights : (N,) positive weights summing to 1
    antipode : (N,) index permutation with nodes[antipode[i]] == -nodes[i],
        or None for grids without antipodal pairing
    exactness_degree : largest polynomial degree integrated exactly (0 when unknown)
    resolution : number of 1D polar nodes used in construction (0 if unknown)
    ring_size : nodes per ring, worked out from the nodes, not passed in.
        N / ``resolution`` when ``resolution`` divides N, x_1 is constant to
        ``RING_TOL`` on each of the ``resolution`` contiguous blocks of
        nodes and, at n = 3, node k of each block of A nodes (A even) sits
        at azimuth phi = 2 pi k / A about e_1, phi = atan2(x_3, x_2), to
        ``RING_TOL``; 1 for any other grid, so each node is its own ring.
        Every :func:`build_grid` output has rings of 2 resolution^(n-2)
        nodes, because its first polar index varies slowest, and at n = 3
        the first node of each ring sits at phi = 0 exactly.  A function
        zonal about +-e_1 is constant on each ring, and each order m of the
        n = 3 harmonic basis (polar about e_1) is e^{i m phi} times its
        value at the ring's first node, so :mod:`funkinv.spectral` analyzes
        and synthesizes every grid ring by ring, with one FFT per ring.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    antipode: np.ndarray | None
    exactness_degree: int = 0
    resolution: int = 0
    ring_size: int = field(init=False, default=1, compare=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(self.nodes, dtype=float)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != self.n:
            raise InvalidArgumentError("nodes must have shape (N, n)")
        if weights.shape != (nodes.shape[0],):
            raise InvalidArgumentError("weights must have shape (N,)")
        norms = np.linalg.norm(nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOL:
            raise InvalidArgumentError("grid nodes must be unit vectors")
        if np.any(weights <= 0.0):
            raise InvalidArgumentError("grid weights must be positive")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidArgumentError("grid weights must sum to 1")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if self.antipode is not None:
            anti = np.ascontiguousarray(self.antipode, dtype=np.intp)
            anti.setflags(write=False)
            object.__setattr__(self, "antipode", anti)
        object.__setattr__(self, "ring_size", _ring_size(nodes, self.resolution))

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    def __repr__(self):  # keep dataclass arrays out of logs
        return (
            f"QuadratureGrid(n={self.n}, nodes={self.num_nodes}, "
            f"exactness_degree={self.exactness_degree})"
        )


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function at the nodes of a QuadratureGrid."""

    grid: QuadratureGrid
    values: np.ndarray
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=complex)
        if values.shape != (self.grid.num_nodes,):
            raise InvalidArgumentError("sample count must equal node count")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "meta", dict(self.meta))

    def with_values(self, values, **meta) -> "GridFunction":
        merged = dict(self.meta)
        merged.update(meta)
        return GridFunction(self.grid, values, merged)

    def __add__(self, other):
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values + other.values, self.meta)

    def __sub__(self, other):
        self._check_same_grid(other)
        return GridFunction(self.grid, self.values - other.values, self.meta)

    def __mul__(self, scalar):
        return GridFunction(self.grid, self.values * complex(scalar), self.meta)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values, self.meta)

    def _check_same_grid(self, other):
        if not isinstance(other, GridFunction) or other.grid is not self.grid:
            raise InvalidArgumentError("grid functions must share the same grid")

    def __repr__(self):
        return f"GridFunction(nodes={self.grid.num_nodes}, meta={self.meta})"


def _ring_size(nodes: np.ndarray, rings: int) -> int:
    """Nodes per ring when ``rings`` contiguous blocks of nodes are rings
    (x_1 constant on each and, on S^2, node k of each at azimuth 2 pi k / A
    about e_1, A the even block size: (x_2, x_3) = r (cos, sin) of that
    angle); 1 otherwise."""
    if rings <= 0 or len(nodes) % rings:
        return 1
    size = len(nodes) // rings
    x1 = nodes[:, 0].reshape(rings, size)
    if np.max(np.abs(x1 - x1[:, :1])) > RING_TOL:
        return 1
    if nodes.shape[1] != 3:
        return size
    if size % 2:
        return 1
    cos_az, sin_az = _azimuth_tables(size)
    x2, x3 = nodes[:, 1].reshape(rings, size), nodes[:, 2].reshape(rings, size)
    radius = np.hypot(x2, x3)
    off = np.maximum(np.abs(x2 - radius * cos_az), np.abs(x3 - radius * sin_az))
    return size if np.max(off) <= RING_TOL else 1


def _symmetric_rule(num_nodes: int, alpha: float):
    """Symmetric Gauss rule for weight (1-t^2)^alpha on [-1, 1].

    Nodes/weights are symmetrized so that t[::-1] == -t and w[::-1] == w hold
    bitwise; antipodal pairing of the sphere grid depends on this.
    """
    if alpha == 0.0:
        t, w = roots_legendre(num_nodes)
    else:
        t, w = roots_jacobi(num_nodes, alpha, alpha)
    t = 0.5 * (t - t[::-1])
    w = 0.5 * (w + w[::-1])
    return t, w


def _azimuth_tables(num_nodes: int):
    """cos/sin tables of an even num_nodes uniform angles with exact
    half-turn negation."""
    half = num_nodes // 2
    ang = 2.0 * math.pi * np.arange(half) / num_nodes
    c = np.empty(num_nodes)
    s = np.empty(num_nodes)
    c[:half] = np.cos(ang)
    s[:half] = np.sin(ang)
    c[half:] = -c[:half]
    s[half:] = -s[:half]
    return c, s


def build_grid(n: int, resolution: int) -> QuadratureGrid:
    """Product quadrature grid on S^{n-1}.

    For n = 3: Gauss-Legendre in the polar cosine x uniform trapezoid in
    azimuth (resolution x 2*resolution nodes).  For n > 3: Gauss-Jacobi rules
    over the remaining hyperspherical angles.  Polynomial exactness degree is
    2*resolution - 1; nodes come in exact antipodal pairs.
    """
    if not isinstance(n, numbers.Integral) or n < 3:
        raise InvalidArgumentError(f"need an integer n >= 3, got {n!r}")
    if not isinstance(resolution, numbers.Integral) or resolution < 4:
        raise InvalidArgumentError(f"need an integer resolution >= 4, got {resolution!r}")
    return QuadratureGrid(n, *_product_rule(n, resolution), exactness_degree=2 * resolution - 1,
                          resolution=resolution)


def _product_rule(n: int, resolution: int):
    """Nodes (N, n), weights (N,) and antipode map of :func:`build_grid`'s
    probability rule on S^{n-1}, exact to degree 2*resolution - 1, for any
    n >= 2 (the circle: 2*resolution azimuth nodes) and resolution >= 1."""
    num_az = 2 * resolution
    polar = [_symmetric_rule(resolution, (n - 2 - i) / 2.0) for i in range(1, n - 1)]
    caz, saz = _azimuth_tables(num_az)

    shape = tuple([resolution] * (n - 2) + [num_az])
    grids = np.meshgrid(*[np.arange(resolution)] * (n - 2), np.arange(num_az), indexing="ij")
    flat_idx = [g.reshape(-1) for g in grids]

    num = int(np.prod(shape))
    nodes = np.empty((num, n))
    weights = np.ones(num)
    sin_running = np.ones(num)
    for axis in range(n - 2):
        t_axis = polar[axis][0][flat_idx[axis]]
        weights *= polar[axis][1][flat_idx[axis]]
        nodes[:, axis] = sin_running * t_axis
        sin_running = sin_running * np.sqrt(1.0 - t_axis * t_axis)
    k_az = flat_idx[n - 2]
    nodes[:, n - 2] = sin_running * caz[k_az]
    nodes[:, n - 1] = sin_running * saz[k_az]

    norms = np.linalg.norm(nodes, axis=1)
    nodes /= norms[:, None]
    weights /= weights.sum()

    flipped = [resolution - 1 - np.asarray(ix) for ix in flat_idx[: n - 2]]
    flipped.append((k_az + resolution) % num_az)
    return nodes, weights, np.ravel_multi_index(tuple(flipped), shape)


def grid_function(grid: QuadratureGrid, fn: Callable, **meta) -> GridFunction:
    """Sample a callable (vectorized over an (N, n) array of points) on the grid."""
    return GridFunction(grid, np.asarray(fn(grid.nodes), dtype=complex), meta)


def constant_function(grid: QuadratureGrid, value: complex = 1.0, **meta) -> GridFunction:
    return GridFunction(grid, np.full(grid.num_nodes, complex(value)), meta)


def integrate(f: GridFunction) -> complex:
    """Integral against the probability measure: the weighted sum of samples."""
    return complex(np.dot(f.grid.weights, f.values))


def even_project(f: GridFunction) -> GridFunction:
    """(f(v) + f(-v)) / 2 at each node; requires an antipodally paired grid."""
    anti = f.grid.antipode
    if anti is None:
        raise UnsupportedGridError("grid has no antipodal pairing")
    return f.with_values(0.5 * (f.values + f.values[anti]))


def remove_mean(f: GridFunction) -> GridFunction:
    """Subtract the integral, leaving a mean-zero function."""
    return f.with_values(f.values - integrate(f))
