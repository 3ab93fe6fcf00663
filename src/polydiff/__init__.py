"""Differentiation matrices for polynomial bases, with exact arithmetic.

The package constructs, applies, and verifies differentiation matrices
(and their antidifferentiation companions) for the monomial, Chebyshev,
Legendre, Newton, Lagrange, Hermite-interpolational, and Bernstein
bases.  Exact rational arithmetic is the default; floating fields are
used for the conditioning experiments exposed through the CLI.
"""

from .core import (
    BernsteinBasis,
    DegreeGradedBasis,
    DenseMatrix,
    Field,
    FieldError,
    HermiteBasis,
    LagrangeBasis,
    NodeSet,
    SingularMatrixError,
    approx_equal,
    as_node_set,
    coerce_scalar,
    field_of,
    join_fields,
    mat_apply,
    mat_inf_norm,
    mat_power,
    vec_inf_norm,
)
from .degree_graded import (
    RecurrenceSpec,
    chebyshev_antideriv_matrix,
    chebyshev_basis,
    chebyshev_diff_matrix,
    chebyshev_recurrence,
    diff_matrix_degree_graded,
    legendre_antideriv_matrix,
    legendre_basis,
    legendre_diff_matrix,
    legendre_recurrence,
    monomial_basis,
    monomial_diff_matrix,
    monomial_recurrence,
    newton_basis,
    newton_diff_matrix,
    newton_recurrence,
)
from .lagrange import (
    bary_weights,
    diff_matrix_lagrange,
    eval_first_form,
    eval_second_form,
)
from .hermite import (
    GenBaryWeights,
    constant_data,
    diff_matrix_hermite,
    gen_bary_weights,
    hermite_eval,
    node_polynomial_value,
)
from .bernstein import (
    bernstein_norm_table,
    diff_matrix_bernstein,
)
from .structure import (
    build_V,
    conjugation_oracle,
    invert_matrix,
    jordan_block,
    jordan_check,
    monomial_images,
    nilpotency_index,
    pseudo_inverse,
    verify_generalized_inverse,
)
from .experiments import (
    ExperimentRecord,
    chebyshev_points,
    equispaced_points,
    records_to_csv,
    run_experiment,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"
