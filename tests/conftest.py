import numpy as np
import pytest
from hypothesis import settings

from funkinv.grids import build_grid
from funkinv.spectral import (
    cosine_multiplier,
    funk_hecke_multiplier_quadrature,
    random_even_spectrum,
)
from funkinv.transforms import gamma_norm_k

# the property tests draw the same examples every run and keep no example
# database, so the suite is deterministic; each test keeps its max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

GATE_TRIPLES = [
    (j, n, lam)
    for lam in (-0.5, 0.5, 1.0, 1.5)
    for n in (3, 4)
    for j in (0, 2, 4)
]


@pytest.fixture(scope="session")
def oracle_gate():
    """Quadrature gate for the gamma-ratio multiplier closed form.

    Everything downstream of the closed forms depends on this fixture, so a
    gate failure blocks the spectral suite rather than letting it run on an
    unvalidated hypothesis.
    """
    worst = 0.0
    for j, n, lam in GATE_TRIPLES:
        quad = funk_hecke_multiplier_quadrature(
            lambda t, lam=lam, n=n: gamma_norm_k(lam, n, 1) * np.abs(t) ** lam,
            j,
            n,
            power=lam,
        )
        closed = cosine_multiplier(j, n, lam)
        worst = max(worst, abs(quad - closed))
    assert worst <= 1e-9, f"multiplier closed form failed the quadrature gate: {worst}"
    return worst


@pytest.fixture(scope="session")
def grid3():
    return build_grid(3, 12)


@pytest.fixture(scope="session")
def grid3_fine():
    return build_grid(3, 16)


@pytest.fixture(scope="session")
def grid4():
    return build_grid(4, 8)


@pytest.fixture(scope="session")
def even_f3():
    return random_even_spectrum(3, 8, seed=101)


@pytest.fixture(scope="session")
def even_f4():
    return random_even_spectrum(4, 6, seed=102)


@pytest.fixture(scope="session")
def even_f5():
    return random_even_spectrum(5, 6, seed=103)
