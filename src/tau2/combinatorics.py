"""Exact combinatorial primitives: factorials, odd double factorials, multinomials.

Everything here is integer or rational arithmetic with no rounding, built on
Python's arbitrary-precision ``int`` and :class:`fractions.Fraction`.  A
``Fraction`` is always stored in lowest terms with a positive denominator,
which is exactly the canonical text form that :func:`rational_str` prints
("p/q" with q > 0, or "p" alone when q = 1).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

__all__ = [
    "factorial",
    "binomial",
    "double_factorial_odd",
    "multinomial",
    "rational_str",
]

binomial = comb

# Memo of odd double factorials: _ODD_DF[i] == (2*i - 1)!!, so index 0 holds
# the empty-product value (-1)!! == 1.  Grown on demand under a lock so that
# concurrent callers never observe a partially extended table.
_ODD_DF: list[int] = [1]
_ODD_DF_LOCK = threading.Lock()


def double_factorial_odd(m: int) -> int:
    """Return m!! = m*(m-2)*...*3*1 for odd m >= -1, with (-1)!! == 1.

    Even or smaller arguments are programming errors, not a convention to be
    extended, and raise ``ValueError``.
    """
    if m < -1 or m % 2 == 0:
        raise ValueError(f"double_factorial_odd requires odd m >= -1, got {m}")
    idx = (m + 1) // 2
    if idx >= len(_ODD_DF):
        with _ODD_DF_LOCK:
            while len(_ODD_DF) <= idx:
                _ODD_DF.append(_ODD_DF[-1] * (2 * len(_ODD_DF) - 1))
    return _ODD_DF[idx]


def multinomial(parts: Sequence[int]) -> int:
    """Multinomial coefficient (sum parts)! / prod(part_i!) for parts >= 0."""
    total = 0
    result = 1
    for p in parts:
        if p < 0:
            raise ValueError(f"multinomial parts must be >= 0, got {p}")
        total += p
        result *= comb(total, p)
    return result


def rational_str(x: Fraction | int) -> str:
    """Canonical text form of an exact rational.

    Lowest terms, ASCII, "p/q" with q > 0, or just "p" when q == 1; the sign
    sits on the numerator.  Examples: "29/5760", "-2/11", "1".
    """
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
