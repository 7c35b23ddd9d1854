"""Cosine, Funk, and sine transforms on S^{n-1} with weighted spherical
Laplacians and reconstruction formulas, cross-validated three ways: grid
quadrature, spectral multipliers, and finite differences / Monte Carlo."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    DivergenceError,
    DomainError,
    ExcludedComponentError,
    FunkinvError,
    InsufficientSamplesError,
    InvalidArgumentError,
    PoleError,
    PreconditionError,
    ResolutionError,
    UnsupportedGridError,
)
from .grids import (
    GridFunction,
    QuadratureGrid,
    build_grid,
    even_project,
    integrate,
    remove_mean,
)
from .spectral import (
    HarmonicSpectrum,
    MultiplierTable,
    analyze,
    cosine_multiplier,
    delta_op_eigenvalue,
    funk_hecke_multiplier_quadrature,
    funk_multiplier,
    log_cosine_multiplier,
    multiplier_table,
    random_even_spectrum,
    sine_multiplier,
    zonal_eval,
)
from .transforms import (
    cosine_transform,
    frame_scale,
    funk_scale,
    funk_transform,
    gamma_norm_k,
    log_cosine_transform,
    log_sine_transform,
    null_sphere_scale,
    sine_transform,
)
from .diffops import (
    WeightedOpSpec,
    beltrami,
    weighted_laplacian,
    weighted_laplacian_fd,
)
from .inversion import (
    InversionReport,
    InversionResult,
    invert_cosine1,
    invert_funk,
    invert_general_between,
    invert_general_outside,
)
from .stiefel import (
    MCEstimate,
    StiefelFunction,
    dual_cosine_k,
    dual_funk_k,
    haar_frames,
    invert_cosine1_k,
    invert_funk_k,
)

# the public names bound above; the submodules, which importing them binds here
# too, are reached as attributes and are not exported
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
