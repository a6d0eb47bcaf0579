"""Radial calculus on a non-Archimedean local field.

Shell-indexed radial functions, the fractional derivative and its right
inverse, the Volterra integration operator with its characteristic
matrix-function, and an ultrametric Laplace transform with exact inversion.
"""

from .field import (
    BasisKind,
    FieldParams,
    GramConditionError,
    KRadialFunction,
    ball_power_integral,
    expand,
    inner_product,
    make_basis,
    max_shell_difference,
    norm,
    o_integral,
    o_log_integral,
    poly_projection_residual,
    shell_measure,
)
from .laplace import (
    TransformSequence,
    difference_identity_residual,
    laplace_invert,
    laplace_transform,
    symbol_identity_residual,
)
from .operators import (
    OperatorMatrix,
    apply_D_alpha,
    apply_D_alpha_O,
    apply_I01,
    apply_I_alpha,
    apply_resolvent_D1O,
    d_constant,
    moment_a,
    moment_b,
    moment_m0,
    operator_matrix,
)
from .spectral import (
    I1Spectrum,
    LogPolynomial,
    MatrixPowerSeries,
    characteristic_function,
    i1_eigenpairs,
    imaginary_part,
    j_diagnostics,
    j_matrix,
    order_certificate,
    volterra_check,
    volterra_step,
)
from .verify import RunConfig, run_verification

__version__ = "0.1.0"
