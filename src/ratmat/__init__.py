"""Rational approximation of analytic matrix functions with certified
a-posteriori error bounds and rational Krylov order reduction."""

import logging

from .bounds import (
    BoundQuery,
    BoundResult,
    bound_bilinear,
    bound_vector,
)
from .experiment import (
    ExperimentConfig,
    TrialRecord,
    derive_poles,
    run_experiment,
    run_trial,
)
from .geometry import convex_hull, hull_boundary_samples
from .interp import (
    NewtonForm,
    NodeList,
    RationalFit,
    RationalInterpolant,
    UnattainablePointError,
    divided_differences,
    hermite_interpolate,
    linearized_rational_fit,
    rational_interpolate_fixed_denominator,
    remainder_scalar,
)
from .jets import (
    ExpJet,
    FactoredPoly,
    VExpDerivative,
)
from .linalg import (
    EigenFactorization,
    eig_small,
    factorize,
    matrix_from_json,
    mgs_orthonormalize,
    poly_roots,
    vector_from_json,
)
from .rom import (
    FinitePole,
    PoleSpec,
    ReducedModel,
    arnoldi_error_bound,
    build_krylov_basis,
    impulse_reduced,
    moment_match_check,
    reduce,
)

__version__ = "0.1.0"

# library logging is silent unless the application configures a handler
logging.getLogger(__name__).addHandler(logging.NullHandler())
