"""Cross-checks between the recursion route and the closed-form route.

Every check compares exact integers.  With D(g) = (6g-1)!!, L(g) =
lcm(1, 3, ..., 2g+1), N(g) = 24^g g! L(g) and P(g, k) = (2k+1)!! (6g-1-2k)!!,
genus rows are read as

    S(g, k) = N(g) <tau_k tau_{3g-1-k}>                       (either route)
    A(g, k) = D(g) a(g, k) = P(g, k) S(g, k) / L(g)
    B(g, k) = D(g) b(g, k) = P(g, k) q(g, k) / (6g-1-2k)

for the normalized values a and their differences b (see ``closedform``).
P(g, .) is one running product per genus, from P(g, 0) = D(g) by
P(g, k+1) = P(g, k) (2k+3) / (6g-1-2k), and L(g) is taken once per genus.
Every division is checked; a remainder raises ``ArithmeticError``.  B is
read from ``closedform._scaled_q``, not from differences of A.  S and A are
0 outside 0..3g-1, B is 0 below k = -1, B(g, -1) = D(g) (it is a(g, 0) - 0),
and past the middle of the row B(g, k) = -B(g, 3g-2-k).

The residuals test the closed form against three recursions it was not built
from (the recursion route satisfies its own by construction), each multiplied
through by a scale that makes every term an integer.  With s = 2k+1, the
bracket over a genus g-1 row X is

    H(X, u) = s(s-2)(s-4) X(g-1,k-3) + 3s(s-2)u X(g-1,k-2)
            + 3su(u-2) X(g-1,k-1) + u(u-2)(u-4) X(g-1,k)

and [k = 3j-1] C(g, j) is C(g, j) at k = 3j-1 and 0 otherwise:

- residual-tau, scale N(g), 0 <= k <= 3g-2:
    (2k+3) S(g,k+1) - (2g-3-2k) S(g,k) - [k = 3j-1] L(g) C(g,j)
    - 4g L(g)/L(g-1) (S(g-1,k-3) + 3S(g-1,k-2) + 3S(g-1,k-1) + S(g-1,k))
- residual-a, scale D(g), 0 <= k <= 3g-2, u = 6g-1-2k:
    u A(g,k+1) - (2g-3-2k) A(g,k) - 4g H(A, u) - [k = 3j-1] C(g,j) P(g,k)
- residual-b, scale D(g), 0 <= k < b_domain_max(g), u = 6g-3-2k:
    u B(g,k+1) - (2g-3-2k) B(g,k) - 4g H(B, u)
    - [k = 3j-2] C(g,j) P(g,k+1) + [k = 3j-1] C(g,j) P(g,k)

Over its scale each is LHS - RHS of the rational recursion (4g A(g-1, .) is
4g/((6g-1)(6g-3)(6g-5)) a(g-1, .) times D(g)).  ``cross`` compares closed
and recursive rows S(g, .), ``symmetry`` a recursive row with its reverse,
and ``bounds`` checks (6g-3) D(g) < (6g-1) A(g, k) and A(g, k) < D(g).
Genera are walked in order, keeping only rows g-1 and g.

Checks never abort mid-scan.  They return a :class:`CheckReport` whose
failure list pinpoints every offending (g, k) locus in (g, k) order; an empty
list means the check passed.  Only a failure builds a ``Fraction``: each
integer over its scale, exactly the value the rational comparison has.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import closedform
from .closedform import _mirrored, b_domain_max
from .combinatorics import (
    _denominator, _exact, binomial, double_factorial_odd, odd_lcm, rational_str
)
from .recursion import _int_rows

__all__ = [
    "CheckFailure",
    "CheckReport",
    "residual_rec_tau",
    "residual_rec_a",
    "residual_rec_b",
    "cross_validate",
    "check_symmetry",
    "check_bounds",
    "check_residual_tau",
    "check_residual_a",
    "check_residual_b",
]

class CheckFailure(NamedTuple):
    """One violated identity: the locus and both sides of the comparison."""

    g: int
    k: int
    expected: Fraction
    actual: Fraction


class CheckReport(NamedTuple):
    """Outcome of one exact check over a genus range.

    ``passed`` holds exactly when ``failures`` is empty; ``checked`` counts
    the comparisons performed.
    """

    check_name: str
    g_range: tuple[int, int]
    failures: tuple[CheckFailure, ...]
    checked: int

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "check": self.check_name,
            "g_max": self.g_range[1],
            "passed": self.passed,
            "failures": [
                {
                    "g": f.g,
                    "k": f.k,
                    "expected": rational_str(f.expected),
                    "actual": rational_str(f.actual),
                }
                for f in self.failures
            ],
        }


def _require_g_max(g_max: int) -> None:
    if g_max < 1:
        raise ValueError(f"g_max must be >= 1, got {g_max}")


def _require_step(g: int, k: int, top: int) -> None:
    if g < 2:
        raise ValueError(f"recursion steps need genus g >= 2, got {g}")
    if not 0 <= k <= top:
        raise ValueError(f"step index must be in 0..{top} at genus {g}, got {k}")


def _d(g: int) -> int:
    return double_factorial_odd(6 * g - 1)


def _failure(g: int, k: int, expected, actual, scale: int) -> CheckFailure:
    return CheckFailure(g, k, Fraction(expected, scale), Fraction(actual, scale))


# Rows handed to the identities are padded: row[k + 3] holds the entry at k,
# so the genus g-1 terms at k-3..k of step k are row[k..k+3].
def _padded(row: Sequence) -> tuple:
    return (0, 0, 0, *row, 0, 0)


class _Row(NamedTuple):
    """One genus of an identity: padded values, one-point terms, bracket factor."""

    x: tuple
    one: list  # the one-point term at each k = 0..3g-1, 0 unless k = 3j-1
    c: int


def _one_points(g: int, unit: Sequence[int]) -> list:
    # unit[k] C(g, j) at k = 3j-1
    return [unit[k] * binomial(g, (k + 1) // 3) if k % 3 == 2 else 0 for k in range(3 * g)]


def _p_row(g: int) -> tuple[int, ...]:
    """P(g, k) for k = 0..3g-1, one running product from P(g, 0) = D(g)."""
    half = [_d(g)]
    for k in range((3 * g - 1) // 2):
        half.append(_exact(half[k] * (2 * k + 3), 6 * g - 1 - 2 * k, g, k + 1))
    return _mirrored(g, half)


def _t_row(g: int, row: Sequence | None = None) -> _Row:
    # the closed row S(g, .) unless another is given
    lam = odd_lcm(2 * g + 1)
    c = 4 * g * _exact(lam, odd_lcm(2 * g - 1), g, 0)
    if row is None:
        row = _mirrored(g, closedform._t_half_row(g))
    return _Row(_padded(row), _one_points(g, [lam] * (3 * g)), c)


def _a_row(g: int) -> _Row:
    lam = odd_lcm(2 * g + 1)
    p = _p_row(g)
    half = [_exact(p[k] * s, lam, g, k) for k, s in enumerate(closedform._t_half_row(g))]
    return _Row(_padded(_mirrored(g, half)), _one_points(g, p), 4 * g)


def _b_row(g: int) -> _Row:
    p = _p_row(g)
    first = [
        _exact(p[k], 6 * g - 1 - 2 * k, g, k) * q
        for k, q in enumerate(closedform._scaled_q(g, 1))
    ]
    middle = [0] if g % 2 == 0 else []  # b(g, k) = 0 at 2k = 3g-2
    x = (0, 0, p[0], *first, *middle, *(-b for b in reversed(first)))
    return _Row(x, _one_points(g, p), 4 * g)


def _tau_step(g: int, k: int, t: _Row, below: _Row):
    r = (2 * k + 3) * t.x[k + 4] - (2 * g - 3 - 2 * k) * t.x[k + 3]
    b = below.x
    return r - t.c * (b[k] + 3 * b[k + 1] + 3 * b[k + 2] + b[k + 3]) - t.one[k]


def _normalized_step(g: int, k: int, u: int, row: _Row, below: _Row):
    """The homogeneous part u X(g,k+1) - (2g-3-2k) X(g,k) - 4g H(X, u)."""
    s = 2 * k + 1
    b = below.x
    bracket = s * (
        (s - 2) * ((s - 4) * b[k] + 3 * u * b[k + 1]) + 3 * u * (u - 2) * b[k + 2]
    ) + u * (u - 2) * (u - 4) * b[k + 3]
    return u * row.x[k + 4] - (2 * g - 3 - 2 * k) * row.x[k + 3] - row.c * bracket


def _a_step(g: int, k: int, a: _Row, below: _Row):
    return _normalized_step(g, k, 6 * g - 1 - 2 * k, a, below) - a.one[k]


def _b_step(g: int, k: int, b: _Row, below: _Row):
    # the one-point terms of the a recursion at k+1 and at k
    r = _normalized_step(g, k, 6 * g - 3 - 2 * k, b, below)
    return r - b.one[k + 1] + b.one[k]


def residual_rec_tau(
    g: int, k: int, backend: Callable[[int, int], Fraction] | None = None
) -> Fraction:
    """LHS - RHS of the correlator recursion at step (g, k), g >= 2:

        (2k+3) <tau_{k+1} tau_{3g-2-k}> = (2g-3-2k) <tau_k tau_{3g-1-k}>
            + 1/6 (bracket of four genus g-1 values) + <tau_{k-1}> <tau_{3g-3-k}>

    that is, residual-tau of the module docstring over N(g); 0 <= k <= 3g-2.
    Values come from ``backend`` (default: the closed form), read as 0 outside
    0..3g-1 and scaled by N(g), so a wrong one stays a non-integral Fraction.
    """
    _require_step(g, k, 3 * g - 2)
    # a wrong backend value times N(g) stays a non-integral Fraction, unequal to any S
    row = _t_row if backend is None else (
        lambda gg: _t_row(gg, [_denominator(gg) * backend(gg, i) for i in range(3 * gg)])
    )
    return Fraction(_tau_step(g, k, row(g), row(g - 1)), _denominator(g))


def residual_rec_a(g: int, k: int) -> Fraction:
    """LHS - RHS of the normalized recursion on closed-form values a(g, .).

    This is residual-a of the module docstring over D(g), at step (g, k) with
    g >= 2 and 0 <= k <= 3g-2.
    """
    _require_step(g, k, 3 * g - 2)
    return Fraction(_a_step(g, k, _a_row(g), _a_row(g - 1)), _d(g))


def residual_rec_b(g: int, k: int) -> Fraction:
    """LHS - RHS of the difference recursion on closed-form differences b(g, .).

    This is residual-b of the module docstring over D(g), at step (g, k) with
    g >= 2 and k, k+1 in the difference domain; b(g-1, -1) = a(g-1, 0) = 1.
    """
    _require_step(g, k, b_domain_max(g) - 1)
    return Fraction(_b_step(g, k, _b_row(g), _b_row(g - 1)), _d(g))


def cross_validate(g_max: int) -> CheckReport:
    """Compare the closed form against the recursion for every (g, k), g <= g_max.

    Failures record the recursive value as expected and the closed-form value
    as actual.
    """
    _require_g_max(g_max)
    failures = []
    checked = 0
    for g, recursive in enumerate(_int_rows(g_max), start=1):
        closed = _mirrored(g, closedform._t_half_row(g))
        checked += 3 * g
        failures += [
            _failure(g, k, r, c, _denominator(g))
            for k, (r, c) in enumerate(zip(recursive, closed))
            if r != c
        ]
    return CheckReport("cross", (1, g_max), tuple(failures), checked)


def check_symmetry(g_max: int) -> CheckReport:
    """Assert S(g, k) = S(g, 3g-1-k) on the recursive path, g <= g_max."""
    _require_g_max(g_max)
    failures = []
    checked = 0
    for g, row in enumerate(_int_rows(g_max), start=1):
        half = range((3 * g - 1) // 2 + 1)
        checked += len(half)
        failures += [
            _failure(g, k, row[-1 - k], row[k], _denominator(g))
            for k in half
            if row[k] != row[-1 - k]
        ]
    return CheckReport("symmetry", (1, g_max), tuple(failures), checked)


def check_bounds(g_max: int) -> CheckReport:
    """Assert the strict window (6g-3)/(6g-1) < a(g, k) < 1 for 2 <= k <= 3g-3.

    Scans genera 2..g_max (empty, hence passing, for g_max = 1).
    """
    _require_g_max(g_max)
    failures = []
    checked = 0
    for g in range(2, g_max + 1):
        d = _d(g)
        row = _a_row(g).x
        for k in range(2, 3 * g - 2):
            a = row[k + 3]
            checked += 1
            if not (6 * g - 3) * d < (6 * g - 1) * a:
                failures.append(_failure(g, k, (6 * g - 3) * d, (6 * g - 1) * a, (6 * g - 1) * d))
            elif not a < d:
                failures.append(_failure(g, k, d, a, d))
    return CheckReport("bounds", (2, g_max), tuple(failures), checked)


def _residual_scan(name, g_max, row, step, steps, scale) -> CheckReport:
    """Evaluate a scaled identity at steps 0..steps(g)-1 of every genus 2..g_max."""
    _require_g_max(g_max)
    failures = []
    checked = 0
    below = row(1)
    for g in range(2, g_max + 1):
        current = row(g)
        for k in range(steps(g)):
            r = step(g, k, current, below)
            if r:
                failures.append(_failure(g, k, 0, r, scale(g)))
        checked += steps(g)
        below = current
    return CheckReport(name, (2, g_max), tuple(failures), checked)


def check_residual_tau(g_max: int) -> CheckReport:
    """Residual of the correlator recursion over its full domain, g <= g_max."""
    return _residual_scan(
        "residual-tau", g_max, _t_row, _tau_step, lambda g: 3 * g - 1, _denominator
    )


def check_residual_a(g_max: int) -> CheckReport:
    """Residual of the normalized recursion over its full domain, g <= g_max."""
    return _residual_scan("residual-a", g_max, _a_row, _a_step, lambda g: 3 * g - 1, _d)


def check_residual_b(g_max: int) -> CheckReport:
    """Residual of the difference recursion over its full domain, g <= g_max."""
    return _residual_scan("residual-b", g_max, _b_row, _b_step, b_domain_max, _d)
