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
    "homogeneous_extension_eval",
    "grid_function",
    "constant_function",
    "as_direction",
    "save_grid",
    "load_grid",
]

UNIT_NORM_TOL = 1e-14
WEIGHT_SUM_TOL = 1e-13
# spread of nodes[:, 0] allowed within one ring; build_grid's normalization
# moves a ring's heights by at most an ulp
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
        or None for grids without antipodal pairing (e.g. loaded files that
        fail to pair)
    exactness_degree : largest polynomial degree integrated exactly
        (0 when unknown, e.g. for loaded grids without metadata)
    resolution : number of 1D polar nodes used in construction (0 if unknown)
    ring_heights : (resolution,) read-only heights x_1 of the grid's rings,
        worked out from the nodes, not passed in.  Set when ``resolution``
        divides N and x_1 is constant to ``RING_TOL`` on each of the
        ``resolution`` contiguous blocks of nodes (the value is the first
        node's); every :func:`build_grid` output has this layout, because
        its first polar index varies slowest.  None for any other grid.
        A function zonal about +-e_1 is constant on each ring.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    antipode: np.ndarray | None
    exactness_degree: int = 0
    resolution: int = 0
    ring_heights: np.ndarray | None = field(init=False, default=None, compare=False)

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
        object.__setattr__(self, "ring_heights", _ring_heights(nodes, self.resolution))

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


def _ring_heights(nodes: np.ndarray, rings: int) -> np.ndarray | None:
    """x_1 of each of ``rings`` contiguous node blocks, if constant on each."""
    if rings <= 0 or len(nodes) % rings:
        return None
    x1 = nodes[:, 0].reshape(rings, -1)
    heights = x1[:, 0].copy()
    if np.max(np.abs(x1 - heights[:, None])) > RING_TOL:
        return None
    heights.setflags(write=False)
    return heights


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
    """cos/sin tables of num_nodes uniform angles with exact half-turn negation."""
    if num_nodes % 2:
        raise InvalidArgumentError("azimuth node count must be even")
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
    if n < 3:
        raise InvalidArgumentError(f"need n >= 3, got {n}")
    if resolution < 4:
        raise InvalidArgumentError(f"need resolution >= 4, got {resolution}")

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
    antipode = np.ravel_multi_index(tuple(flipped), shape)

    return QuadratureGrid(
        n=n,
        nodes=nodes,
        weights=weights,
        antipode=antipode,
        exactness_degree=2 * resolution - 1,
        resolution=resolution,
    )


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


def homogeneous_extension_eval(f, a: complex, x) -> complex:
    """Evaluate |x|^a * f(x/|x|) at a point x != 0 in R^n.

    ``f`` may be a callable on unit vectors, an object with an ``evaluate``
    method (band-limited synthesis), or a GridFunction -- in the last case x
    must point at one of the grid nodes, since raw grids are not interpolated.
    The power uses the principal branch; |x| > 0 makes it single-valued.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    r = float(np.linalg.norm(x))
    if r == 0.0 or not np.isfinite(r):
        raise DomainError("homogeneous extension is undefined at x = 0")
    u = x / r
    if isinstance(f, GridFunction):
        d2 = np.sum((f.grid.nodes - u) ** 2, axis=1)
        i = int(np.argmin(d2))
        if d2[i] > 1e-24:
            raise UnsupportedGridError(
                "direction is off the grid nodes; raw grids are not interpolated "
                "(use band-limited synthesis instead)"
            )
        fu = complex(f.values[i])
    elif hasattr(f, "evaluate"):
        fu = complex(np.asarray(f.evaluate(u[None, :])).reshape(()))
    elif callable(f):
        out = np.asarray(f(u[None, :]))
        fu = complex(out.reshape(()) if out.size == 1 else out[0])
    else:
        raise InvalidArgumentError("f must be a GridFunction, a callable, or have .evaluate")
    power = np.exp(complex(a) * math.log(r))
    return complex(power * fu)


def save_grid(grid: QuadratureGrid, path) -> None:
    """Write the grid as plain text: per node, n coordinates then the weight."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# sphere-grid n={grid.n} nodes={grid.num_nodes}\n")
        for row, w in zip(grid.nodes, grid.weights):
            cols = [format(c, ".17g") for c in row] + [format(w, ".17g")]
            fh.write(" ".join(cols) + "\n")


def load_grid(path, exactness_degree: int = 0, resolution: int = 0) -> QuadratureGrid:
    """Read a grid written by :func:`save_grid`; antipodal pairing is re-derived.

    The file format does not carry the exactness degree; pass it explicitly if
    the grid is to be used for spectral analysis.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        parts = dict(tok.split("=") for tok in header.lstrip("# ").split() if "=" in tok)
        if "n" not in parts or "nodes" not in parts:
            raise InvalidArgumentError("missing or malformed sphere-grid header")
        n = int(parts["n"])
        count = int(parts["nodes"])
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (count, n + 1):
        raise InvalidArgumentError("grid file row count or width mismatch")
    nodes = data[:, :n]
    weights = data[:, n]
    canon = nodes + 0.0  # clears negative zeros so byte keys match
    neg = -canon + 0.0
    lookup = {neg[i].tobytes(): i for i in range(count)}
    antipode = np.empty(count, dtype=np.intp)
    paired = True
    for i in range(count):
        j = lookup.get(canon[i].tobytes())
        if j is None:
            paired = False
            break
        antipode[i] = j
    return QuadratureGrid(
        n=n,
        nodes=nodes,
        weights=weights,
        antipode=antipode if paired else None,
        exactness_degree=exactness_degree,
        resolution=resolution,
    )
