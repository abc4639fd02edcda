"""Rational approximation of analytic matrix functions with certified
a-posteriori error bounds and rational Krylov order reduction."""

import logging

from .bounds import (
    BoundQuery,
    BoundResult,
    bound_bilinear,
    bound_core_matrix,
    bound_vector,
    numerical_range_box,
)
from .experiment import (
    ExperimentConfig,
    TrialRecord,
    derive_poles,
    run_experiment,
    run_trial,
)
from .geometry import convex_hull, hull_boundary_samples, polygon_contains
from .interp import (
    NewtonForm,
    NodeList,
    RationalFit,
    RationalInterpolant,
    UnattainablePointError,
    divided_differences,
    hermite_interpolate,
    linearized_rational_fit,
    partial_fractions,
    rational_interpolate_fixed_denominator,
    remainder_scalar,
)
from .jets import ExpJet, FactoredPoly, FunctionJet, PolyJet, ProductJet
from .linalg import (
    EigenFactorization,
    eig_extreme_hermitian,
    eig_small,
    factorize,
    matrix_from_json,
    matrix_to_json,
    mgs_orthonormalize,
    poly_roots,
    vector_from_json,
    vector_to_json,
)
from .matfun import (
    VExpDerivative,
    matfun_via_factorization,
    poly_apply,
    rational_apply,
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
    scalar_impulse_exact,
)

__version__ = "0.1.0"

# library logging is silent unless the application configures a handler
logging.getLogger(__name__).addHandler(logging.NullHandler())
