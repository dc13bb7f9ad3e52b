"""deformkit: deformed products, matrix-symbol operators, and norm hierarchies.

The package discretizes matrix-valued symbols on boxes, implements the
deformed (twisted) product driven by an antisymmetric matrix J, realizes
symbols as operators on a discretized module, and evaluates the
differential norm hierarchy together with its comparison functionals.
"""

from .coeff_algebra import (
    MatrixElement,
    UnitizedElement,
    cstar_norm,
    smooth_calculus,
    spectral_smoothing,
    spectrum,
    unitized_inverse,
    unitized_spectrum,
)
from .errors import (
    BoxMismatchError,
    ConvergenceError,
    DeformkitError,
    GridMismatchError,
    NoConvergenceError,
    NotSelfAdjointError,
    OrderTooHighError,
    SingularError,
    UnsupportedOperatorError,
)
from .symbols import (
    DeformationMatrix,
    GridSymbol,
    ModuleVector,
    PlaneWavePhaseSymbol,
    PlaneWaveSymbol,
    default_grid_size,
    derivative,
    inner_product,
    norm_L2,
    read_symbol_file,
    sup_norm,
    write_symbol_file,
)
from .deformation import (
    OscIntegralConfig,
    deformed_product_exact,
    deformed_product_numeric,
    fourier_inversion_check,
    oscillatory_pair_integral,
    tilde_map,
)
from .pseudodiff import (
    DiscretizedOperator,
    adjoint,
    cv_functional,
    fourier_operator,
    op_from_phase_terms,
    operator_norm,
    rieffel_operator,
)
from .heisenberg import (
    DifferentialNormReport,
    HeisenbergElement,
    adu_conjugate,
    d_apply,
    d_inverse,
    delta_symbol,
    differential_norm_T,
    differential_norms,
    gamma1,
    gamma2,
    gamma2_prime,
    heisenberg_act,
    inverse_cv_bound,
    kernel_identity_residual,
    kernel_u,
    kernel_v,
    rho_m,
    shifted_symbol,
    symbol_map_S,
)

__version__ = "0.1.0"
