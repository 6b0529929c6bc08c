"""Exact operator algebra with pq - qp = c, and verification of the
Euler/Bernoulli bracket identities it supports.

The package keeps every computation over the Gaussian rationals with the
central symbol c formal, so identity checks are equalities of normal forms,
not floating-point comparisons.  Three independent realizations back each
other up: the symbolic normal-ordering engine, the shift action on
polynomials, and the oscillator ladders in an integer Hermite basis.  The
package has no runtime dependency beyond the standard library.  Only the
hermite sweep imports the oscillator realization; its API
(``build_operators``, ``element_to_matrix``) is imported from
``weylops.oscillator``.
"""

from .report import reports_to_json
from .scalars import (
    CPoly,
    GaussianRational,
    I,
    MINUS_I,
    NonDivisible,
    ONE,
    ZERO,
)
from .sequences import (
    RatPoly,
    bernoulli_number,
    euler_at_half,
    euler_number,
    euler_polynomial,
    euler_zero,
    kappa,
    lam,
    shifted_euler,
    solve_midpoint,
)
from .weyl import (
    NonTerminatingSeries,
    WeylElement,
    anticommutator,
    commutator,
    hadamard_conjugate,
    hamiltonian,
    left_nested_commutator,
    monomial,
    nested_anticommutator,
    nested_commutator,
    p_op,
    poly_of_element,
    q_op,
    scalar,
    shifted_nested_anticomm,
)
from .realization import XPoly, apply_element, validate_reordering
from .suites import (
    b_sum,
    extract_convolution_coefficients,
    random_poly_pair,
    run_suite,
    sequence_tables,
    standard_conjugation_fixtures,
    trinomial_sum,
    verify_bender,
    verify_binomial,
    verify_exp_series,
    verify_figueira,
    verify_function_identities,
    verify_mccoy,
    verify_pain,
    verify_reciprocal,
    verify_superoperators,
)

__version__ = "0.1.0"
