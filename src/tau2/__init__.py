"""Exact two-point correlators <tau_k tau_{3g-1-k}> of 2D topological gravity.

Two independent computation paths over exact rationals: a genus-by-genus
recursion seeded from the string and dilaton equations, and a closed form
built from double-factorial difference values.  The verification module
checks both paths against each other and against every recursion they must
satisfy, always by exact equality.
"""

from .closedform import (
    a_closed,
    b_domain_max,
    b_value,
    clear_caches,
    normalize,
    two_point_closed,
)
from .combinatorics import (
    binomial,
    double_factorial_odd,
    factorial,
    multinomial,
    rational_str,
)
from .recursion import (
    TwoPointTable,
    build_table,
    genus0_npoint,
    genus1_seed,
    genus_row,
    one_point,
    one_point_at,
    recursive_row,
    two_point_recursive,
)
from .verification import (
    CheckFailure,
    CheckReport,
    check_bounds,
    check_residual_a,
    check_residual_b,
    check_residual_tau,
    check_symmetry,
    cross_validate,
    residual_rec_a,
    residual_rec_b,
    residual_rec_tau,
)

__version__ = "0.1.0"

__all__ = [
    "a_closed",
    "b_domain_max",
    "b_value",
    "binomial",
    "build_table",
    "check_bounds",
    "check_residual_a",
    "check_residual_b",
    "check_residual_tau",
    "check_symmetry",
    "CheckFailure",
    "CheckReport",
    "clear_caches",
    "cross_validate",
    "double_factorial_odd",
    "factorial",
    "genus0_npoint",
    "genus1_seed",
    "genus_row",
    "multinomial",
    "normalize",
    "one_point",
    "one_point_at",
    "rational_str",
    "recursive_row",
    "residual_rec_a",
    "residual_rec_b",
    "residual_rec_tau",
    "two_point_closed",
    "two_point_recursive",
    "TwoPointTable",
    "__version__",
]
