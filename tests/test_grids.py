import numpy as np
import pytest
from numpy.testing import assert_allclose

from funkinv.errors import (
    DomainError,
    InvalidArgumentError,
    UnsupportedGridError,
)
from funkinv.grids import (
    GridFunction,
    QuadratureGrid,
    _symmetric_rule,
    as_direction,
    build_grid,
    constant_function,
    even_project,
    grid_function,
    integrate,
    remove_mean,
)
from funkinv.diffops import _extension_eval
from funkinv.spectral import analyze, random_even_spectrum


@pytest.mark.parametrize("n,res", [(3, 16), (4, 6), (5, 5)])
def test_grid_invariants(n, res):
    g = build_grid(n, res)
    assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-14)
    assert abs(g.weights.sum() - 1.0) <= 1e-13
    assert np.all(g.weights > 0)
    # antipodal involution with equal weights
    assert np.max(np.abs(g.nodes[g.antipode] + g.nodes)) == 0.0
    assert_allclose(g.weights[g.antipode], g.weights, rtol=0, atol=0)
    assert np.all(g.antipode[g.antipode] == np.arange(g.num_nodes))


def test_node_count_and_normalization():
    g = build_grid(3, 16)
    assert g.num_nodes == 16 * 32
    assert abs(g.weights.sum() - 1.0) <= 1e-13


def test_build_grid_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        build_grid(2, 8)
    with pytest.raises(InvalidArgumentError):
        build_grid(3, 3)
    # a non-integer size is named, not passed on to scipy's Gauss rules
    for n, res in ((3, 4.5), (3.0, 8), (3, "8")):
        with pytest.raises(InvalidArgumentError, match="integer"):
            build_grid(n, res)


def test_integrate_constant_and_odd(grid3):
    assert abs(integrate(constant_function(grid3, 1.0)) - 1.0) <= 1e-14
    f_odd = grid_function(grid3, lambda v: v[:, 0])
    assert abs(integrate(f_odd)) <= 1e-14


def test_integrate_second_moment():
    # oracle: with t = v.e1 uniform on [-1, 1] for S^2, the moment is 1/3
    for res in (4, 7, 16):
        g = build_grid(3, res)
        f = grid_function(g, lambda v: v[:, 0] ** 2)
        assert abs(integrate(f) - 1.0 / 3.0) <= 1e-12


def test_integrate_zonal_degree2_orthogonality(grid3):
    from funkinv.spectral import zonal_eval

    pole = as_direction([0.3, -0.4, 0.87])
    f = grid_function(grid3, lambda v: zonal_eval(2, 3, v @ pole))
    assert abs(integrate(f)) <= 1e-12


def test_moment_exactness_all_orders():
    g = build_grid(3, 16)
    for m in range(16):
        f = grid_function(g, lambda v, m=m: v[:, 0] ** (2 * m))
        assert abs(integrate(f) - 1.0 / (2 * m + 1)) <= 1e-12


def test_even_project(grid3):
    f = grid_function(grid3, lambda v: v[:, 0] + v[:, 0] ** 2)
    even = even_project(f)
    assert_allclose(even.values, grid3.nodes[:, 0] ** 2, atol=1e-13)
    # idempotent to the last bit
    assert np.array_equal(even_project(even).values, even.values)
    f_odd = grid_function(grid3, lambda v: v[:, 0])
    assert np.max(np.abs(even_project(f_odd).values)) == 0.0
    # even samples agree at antipodal pairs
    assert np.max(np.abs(even.values - even.values[grid3.antipode])) <= 1e-13


def test_even_project_needs_pairing(grid3):
    g_unpaired = type(grid3)(
        n=3, nodes=grid3.nodes, weights=grid3.weights, antipode=None,
        exactness_degree=grid3.exactness_degree,
    )
    with pytest.raises(UnsupportedGridError):
        even_project(GridFunction(g_unpaired, np.ones(g_unpaired.num_nodes)))


def test_remove_mean(grid3):
    f = constant_function(grid3, 5.0)
    assert np.max(np.abs(remove_mean(f).values)) <= 1e-13
    f2 = grid_function(grid3, lambda v: v[:, 0] ** 2)
    out = remove_mean(f2)
    assert abs(integrate(out)) <= 1e-13
    assert_allclose(out.values, f2.values - 1.0 / 3.0, atol=1e-12)
    # idempotent on mean-zero input
    assert_allclose(remove_mean(out).values, out.values, atol=1e-15)


def test_homogeneous_extension():
    def extend(f, a, x):
        return _extension_eval(f, a)(np.array([x], dtype=float))[0]

    assert extend(lambda p: np.ones(len(p)), 2.0, [2.0, 0.0, 0.0]) == 4.0
    f = lambda p: p[:, 0] ** 2
    # a = 0 on the sphere is the identity
    val = extend(f, 0.0, [0.0, 1.0, 0.0])
    assert abs(val - 0.0) <= 1e-15
    # (1/3) scaling example: |x|^-1 at |x| = 3 with f = (x/|x| . e1)^2
    val = extend(f, -1.0, [0.0, 3.0, 0.0])
    assert abs(val) <= 1e-15
    val = extend(f, -1.0, [3.0, 0.0, 0.0])
    assert abs(val - 1.0 / 3.0) <= 1e-15
    # complex exponent, principal branch of the positive-real power
    val = extend(lambda p: np.ones(len(p)), 1j, [np.e, 0.0, 0.0])
    assert abs(val - np.exp(1j)) <= 1e-15


def test_homogeneous_extension_errors():
    g = _extension_eval(lambda p: np.ones(len(p)), 1.0)
    for bad in ([0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [np.nan, 1.0, 0.0]):
        # one bad point among good ones is enough
        with pytest.raises(DomainError):
            g(np.array([[1.0, 0.0, 0.0], bad]))


@pytest.mark.parametrize("n,res", [(3, 16), (4, 6), (5, 5)])
def test_build_grid_records_its_rings(n, res):
    g = build_grid(n, res)
    assert g.ring_size == g.num_nodes // res
    # x_1 runs through the first polar rule, Gauss-Jacobi with alpha = (n-3)/2
    heights = g.nodes[:: g.ring_size, 0]
    assert np.max(np.abs(heights - _symmetric_rule(res, (n - 3) / 2.0)[0])) <= 1e-15
    assert np.max(np.abs(g.nodes[:, 0].reshape(res, -1) - heights[:, None])) <= 1e-15
    # the same nodes without a resolution are rings of one node
    assert QuadratureGrid(n, g.nodes, g.weights, None, g.exactness_degree).ring_size == 1


def test_permuted_grid_has_no_rings_and_the_same_spectrum():
    g = build_grid(4, 8)
    perm = np.random.default_rng(3).permutation(g.num_nodes)
    shuffled = QuadratureGrid(4, g.nodes[perm], g.weights[perm], None, g.exactness_degree,
                              g.resolution)
    assert shuffled.ring_size == 1
    f = random_even_spectrum(4, 6, seed=5) * (0.5 + 1j)
    on_rings, scattered = f.to_grid(g), f.to_grid(shuffled)
    assert np.max(np.abs(scattered.values - on_rings.values[perm])) <= 1e-13
    diff = analyze(scattered, 6, pole=f.pole).coeffs - analyze(on_rings, 6, pole=f.pole).coeffs
    assert np.max(np.abs(diff)) <= 1e-13


def test_direction_validation():
    u = as_direction([3.0, 4.0, 0.0])
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
    with pytest.raises(DomainError):
        as_direction([0.0, 0.0, 0.0])


def test_gridfunction_algebra(grid3):
    a = constant_function(grid3, 2.0)
    b = grid_function(grid3, lambda v: v[:, 0])
    c = a + 3.0 * b - b
    assert_allclose(c.values, 2.0 + 2.0 * grid3.nodes[:, 0], atol=1e-15)
    with pytest.raises(InvalidArgumentError):
        a + GridFunction(build_grid(3, 4), np.zeros(4 * 8))
