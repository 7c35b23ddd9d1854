"""Cosine, Funk, and sine transforms on S^{n-1} with weighted spherical
Laplacians and reconstruction formulas, cross-validated three ways: grid
quadrature, spectral multipliers, and finite differences / Monte Carlo."""

__version__ = "0.1.0"

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
    homogeneous_extension_eval,
    integrate,
    load_grid,
    remove_mean,
    save_grid,
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
    synthesize,
    zonal_eval,
)
from .transforms import (
    cosine_transform,
    delta_norm,
    frame_scale,
    funk_scale,
    funk_transform,
    gamma_norm,
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
    Frame,
    MCEstimate,
    StiefelFunction,
    cosine_k,
    dual_cosine_k,
    dual_funk_k,
    funk_k,
    haar_frame,
    haar_frames,
    invert_cosine1_k,
    invert_funk_k,
)

__all__ = [name for name in dir() if not name.startswith("_")]
