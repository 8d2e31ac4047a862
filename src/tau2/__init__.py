"""Exact two-point correlators <tau_k tau_{3g-1-k}> of 2D topological gravity.

Two independent computation paths over exact rationals: a genus-by-genus
recursion seeded from the string and dilaton equations, and a closed form
built from double-factorial difference values.  The verification module
checks both paths against each other and against every recursion they must
satisfy, always by exact equality.
"""

from . import closedform, combinatorics, recursion, verification
from .closedform import *  # noqa: F403
from .combinatorics import *  # noqa: F403
from .recursion import *  # noqa: F403
from .verification import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *closedform.__all__,
    *combinatorics.__all__,
    *recursion.__all__,
    *verification.__all__,
    "__version__",
]
