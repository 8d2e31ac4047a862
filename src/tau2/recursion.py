"""Two-point correlator rows built by the genus recursion.

The two-point correlators <tau_k tau_{3g-1-k}> of 2D topological gravity are
computed genus by genus, in integers.  With L(g) = lcm(1, 3, ..., 2g+1)
(``combinatorics.odd_lcm``) and the per-genus denominator

    N(g) = 24^g g! L(g)

every S(g, k) = N(g) <tau_k tau_{3g-1-k}> is an integer.  Genus 1 is seeded
from the string and dilaton equations applied to <tau_1> = 1/24, which gives
S(1, .) = (3, 3, 3); every genus g >= 2 row is then filled left to right in
k from S(g, 0) = L(g) by

    (2k+1) S(g, k) = (2g-1-2k) S(g, k-1)
                   + 4g L(g)/L(g-1) (B(k-4) + 3 B(k-3) + 3 B(k-2) + B(k-1))
                   + L(g) C(g, j)        only when k = 3j, 1 <= j <= g-1

where B(i) = S(g-1, i), read as 0 outside the genus g-1 row.  This is the
correlator recursion

    (2k+1) <tau_k tau_{3g-1-k}> = (2g-1-2k) <tau_{k-1} tau_{3g-k}>
        + 1/6 (bracket of genus g-1 correlators) + <tau_{k-2}> <tau_{3g-2-k}>

multiplied through by N(g): N(g)/N(g-1) = 24g L(g)/L(g-1) absorbs the 1/6,
and the one-point product 1/(24^g j! (g-j)!) becomes L(g) C(g, j).  The
terms that do not read row g come from ``_step_terms``, which
``verification``'s residual-tau runs too.  A run sieves only its first row's
unit: L(g) = lcm(L(g-1), 2g+1), and L(g)/L(g-1), p when 2g+1 = p^e for a
prime p and 1 otherwise, is taken by a checked division.  Every division by
2k+1 is exact on this unit at every genus: it is exact when every S(g, .) is
an integer, which the ``combinatorics`` docstring proves.  A nonzero
remainder, which would be a program fault, raises ``ArithmeticError``
instead of truncating.  Rows stay integers: ``genus_row`` is the one
recursion step, from row g-1 and L(g-1) to row g and the L(g) it was computed
over, the row's own ``top``, never its entry 0; ``_int_rows``, which holds the
genus 1 seed, calls it once per row it builds, and ``recursive_row`` hands
out the last row of that walk, or given k its entry k, in the closed source's
shape.  No ``Fraction`` is built: the value of entry k is S(g, k) / N(g).

``table``, ``verify`` and ``bench`` compute each row over the full range
k = 0..3g-1; ``value`` computes only the cone of its entry, the prefix of
each row that the entry reads (``recursive_row`` with k).  Neither mirrors:
entry k is computed itself, never read as 3g-1-k, so the k <-> 3g-1-k
symmetry of the result stays an independent consistency check, and
``value --method both`` still sees an asymmetric recursion in the upper half of a row.
"""

from __future__ import annotations

from math import comb, lcm

from . import _LAYERS
from .combinatorics import _check_entry, _exact, odd_lcm

__all__ = _LAYERS["recursion"].split()


def _step_terms(g: int, below: tuple[int, ...], last: int, unit: int, top: int) -> Iterator[int]:
    """The terms of each step k = 1..last to S(g, k) that do not read row g (module docstring).

    From ``below`` = S(g-1, .), which need reach entry min(last-1, 3g-4) only,
    ``unit`` = L(g-1) and ``top`` = L(g).
    """
    c = 4 * g * _exact(top, unit, g, 0)
    padded = (0, 0, 0, 0, *below, 0, 0)  # B(k-4)..B(k-1) are padded[k..k+3]
    for k in range(1, last + 1):
        term = c * (padded[k] + 3 * (padded[k + 1] + padded[k + 2]) + padded[k + 3])
        if k % 3 == 0:
            # k = 3j with 1 <= j <= g-1 holds for every multiple of 3 in 1..3g-1
            term += top * comb(g, k // 3)
        yield term


def genus_row(g: int, below: tuple[int, ...], last: int, unit: int) -> tuple[int, tuple[int, ...]]:
    """L(g) and the integer entries S(g, 0..last), g >= 2, from S(g-1, .) and ``unit`` = L(g-1).

    ``below`` need reach entry min(last-1, 3g-4) only (``_step_terms``).  ValueError unless
    g >= 2, 0 <= last <= 3g-1, ``below`` holds those entries and no more than the 3g-3 of
    row g-1, and 2g-1 divides ``unit``, as it divides L(g-1).
    """
    n, m = len(below), 3 * g - 3  # row g-1 has m entries
    if g < 2 or not 0 <= last <= m + 2 or not min(last, m) <= n <= m or unit % (2 * g - 1):
        raise ValueError(f"no step to S({g}, 0..{last}) from {n} entries of row {g-1} over {unit}")
    top = lcm(unit, 2 * g + 1)
    row = [top]
    for k, term in enumerate(_step_terms(g, below, last, unit, top), start=1):
        row.append(_exact((2 * g - 1 - 2 * k) * row[-1] + term, 2 * k + 1, g, k))
    return top, tuple(row)


def _int_rows(g_max: int, k: int | None = None) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(L(g), S(g, .)) for g = 1..g_max in order, the rows full or the cone of entry (g_max, k).

    Entry (g, k) reads (g, k-1) and (g-1, k-4..k-1), so entry (g_max, k)
    depends on entries 0..min(3h-1, h + k - g_max) of each row h and on no
    row h < g_max - k.  Given k, the rows from max(1, g_max - k) on are
    yielded as those prefixes.  Without it the rows are full: the cone of
    (g_max, 3g_max-1) holds every entry of rows 1..g_max.

    The seed S(1, .) = (3, 3, 3) is N(1) = 24 * 1! * L(1) = 72 times the genus
    1 row: <tau_0 tau_2> = <tau_1> = 1/24 by the string equation, and
    <tau_1 tau_1> = (2g-2+n) <tau_1> = <tau_1> by the dilaton equation.
    The genus recursion itself is only applied from genus 2 on: at genus 1 it
    would involve an unstable genus-0 two-point symbol whose value is not
    fixed by the vanishing conventions, so the row is seeded instead.
    """
    shift = 2 * g_max - 1 if k is None else k - g_max  # row h ends at min(3h-1, h + shift)
    row = (3, 3, 3)[: max(0, shift + 2)]
    start = max(2, -shift)
    unit = odd_lcm(2 * start - 1)  # L(start - 1), so L(1) when the seed is yielded
    if row:
        yield unit, row
    for g in range(start, g_max + 1):
        unit, row = genus_row(g, row, min(3 * g - 1, g + shift), unit)
        yield unit, row


def recursive_row(g: int, k: int | None = None) -> tuple[int, tuple[int, ...] | int]:
    """(L(g), the full row S(g, .)), or given k, (L(g), S(g, k)) over the cone of (g, k).

    From the last pair of ``_int_rows(g, k)``; no row below it is kept.
    ValueError unless g >= 1 and, given k, 0 <= k <= 3g-1.
    """
    _check_entry(g, k)
    for lam, row in _int_rows(g, k):
        pass
    return lam, row if k is None else row[k]
