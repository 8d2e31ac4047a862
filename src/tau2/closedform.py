"""Closed-form route to the two-point correlators.

The normalized value

    a(g, k) = (2k+1)!! (6g-1-2k)!! / (6g-1)!! * 24^g g! * <tau_k tau_{3g-1-k}>

satisfies a(g, 0) = 1 and is symmetric under k <-> 3g-1-k (the two double
factorials swap).  Its consecutive differences b(g, k) = a(g, k+1) - a(g, k)
have an explicit product formula on the first half of the row.  With
D = (6g-1)!! it reads b(g, k) = (2k+1)!! (6g-3-2k)!!/D * q(g, k), where q is
the integer selected by k mod 3, writing k as 3j-1, 3j, or 3j+1:

    k = 3j-1:   C(g, j) (g-2j) / g = C(g-1, j) - C(g-1, j-1)   (Pascal's rule)
    k = 3j:    -2 C(g-1, j)
    k = 3j+1:   2 C(g-1, j)

The differences are telescoped in the integers S(g, k) = N(g) <tau_k
tau_{3g-1-k}> over N(g) = 24^g g! L(g), where L(g) = lcm(1, 3, ..., 2g+1)
(``combinatorics.odd_lcm``), so no rescaling of rationals is needed.  With
S(g, 0) = L(g) and, for k = 0..floor((3g-1)/2)-1,

    (2k+3) S(g, k+1) = (6g-1-2k) S(g, k) + L(g) q(g, k)

fills the first half of the row; S(g, k) = S(g, 3g-1-k) gives the rest.
This is b(g, k) = a(g, k+1) - a(g, k) multiplied through by
L(g) D / ((2k+1)!! (6g-3-2k)!!), with a(g, k) = W(k) S(g, k) / L(g) and the
weight W(k) = (2k+1)!! (6g-1-2k)!! / D (``combinatorics._weight`` for
``b_value`` and ``normalize``).  L(g) q(g, k) comes from one running value,
L C(g-1, j), advanced by its ratio (g-1-j)/(j+1), and the value before it, so
L is only ever multiplied or divided by small integers.  Every division is
checked; a nonzero remainder raises ``ArithmeticError`` instead of truncating.

L(g) keeps every division by 2k+3 exact at every genus: that holds exactly
when every S(g, .) is an integer, which the ``combinatorics`` docstring
proves.  The unit (6g-1)!!, a multiple of every (2k+3)!!, would suffice too,
but over 80% of its entries' bits at g = 1000 are a common factor.

Each genus row is a direct O(g) computation with no recursion over genus.
``two_point_closed``, the one row source of every command, hands out L(g)
with the full row or one entry, and sieves L(g) afresh on every call, where
the recursion steps it.  It builds no ``Fraction``: the value of entry k is
S(g, k) / N(g), and its normalized value W(k) S(g, k) / L(g).

The stated value a(g, 1) = (6g-3)/(6g-1) is deliberately not a second code
path here; it is reproduced as 1 + b(g, 0) and asserted in the test suite, so
there is a single source of truth.
"""

from __future__ import annotations

from itertools import islice
from math import factorial

from . import _LAYERS
from .combinatorics import _check_entry, _exact, _weight, odd_lcm

__all__ = _LAYERS["closedform"].split()


def b_domain_max(g: int) -> int:
    """Largest k for which the difference formula applies: floor((3g-1)/2) - 1."""
    return (3 * g - 1) // 2 - 1


def _scaled_q(g: int, s: int) -> Iterator[int]:
    """s q(g, k) for k = 0..b_domain_max(g) in order (module docstring).

    Keeps s C(g-1, j) and the value before it, s C(g-1, j-1), and advances the
    first by its binomial ratio, so only small integers ever multiply or divide s.
    """
    before, c = 0, s  # s C(g-1, j-1) and s C(g-1, j) at j = 0
    for k in range(b_domain_max(g) + 1):
        j, r = divmod(k + 1, 3)  # k = 3j-1, 3j, 3j+1 for r = 0, 1, 2
        if r == 0:
            yield c - before
        elif r == 1:
            yield -2 * c
        else:
            yield 2 * c
            before, c = c, _exact(c * (g - 1 - j), j + 1, g, k)


def b_value(g: int, k: int) -> Fraction:
    """Difference a(g, k+1) - a(g, k) = (2k+1)!! (6g-3-2k)!!/(6g-1)!! * q(g, k).

    That is W(k) q(g, k) / (6g-1-2k), valid for 0 <= k <= b_domain_max(g);
    see the module docstring for q.
    """
    _check_entry(g)
    if not 0 <= k <= b_domain_max(g):
        raise ValueError(
            f"difference index must be in 0..{b_domain_max(g)} at genus {g}, got {k}"
        )
    from fractions import Fraction
    q = list(_scaled_q(g, 1))[k]
    return Fraction(*_weight(g, k)) * Fraction(q, 6 * g - 1 - 2 * k)


def _t_half(g: int, lam: int) -> Iterator[int]:
    """S(g, k) for k = 0..floor((3g-1)/2) in order, telescoped from S(g, 0) = lam = L(g)."""
    s = lam
    yield s
    for k, lq in enumerate(_scaled_q(g, lam)):
        s = _exact((6 * g - 1 - 2 * k) * s + lq, 2 * k + 3, g, k + 1)
        yield s


def _mirrored(g: int, half: tuple | list) -> tuple:
    """Full genus g row, symmetric under k <-> 3g-1-k, from its first half."""
    return (*half, *half[3 * g - 1 - len(half) :: -1])


def two_point_closed(g: int, k: int | None = None) -> tuple[int, tuple[int, ...] | int]:
    """(L(g), the full row S(g, .)), or given k, (L(g), S(g, k)); ValueError off the row.

    Given k, the half row is run up to entry min(k, 3g-1-k), the only one kept.
    """
    _check_entry(g, k)
    lam = odd_lcm(2 * g + 1)
    half = _t_half(g, lam)
    if k is None:
        return lam, _mirrored(g, tuple(half))
    return lam, next(islice(half, min(k, 3 * g - 1 - k), None))


def normalize(g: int, k: int, corr: Fraction) -> Fraction:
    """Rescale a two-point correlator to its normalized value a(g, k) = 24^g g! W(k) corr."""
    _check_entry(g, k)
    from fractions import Fraction
    return corr * (24**g * factorial(g)) * Fraction(*_weight(g, k))
