"""Cross-checks between the recursion route and the closed-form route.

Every check compares exact integers.  With D(g) = (6g-1)!! and
N(g) = 24^g g! D(g), genus rows are read as

    T(g, k) = N(g) <tau_k tau_{3g-1-k}>                       (either route)
    A(g, k) = D(g) a(g, k) = (2k+1)!! (6g-1-2k)!! T(g, k) / D(g)
    B(g, k) = D(g) b(g, k) = (2k+1)!! (6g-3-2k)!! q(g, k)

for the normalized values a and their differences b (see ``closedform``).
The division giving A is exact; a remainder raises ``ArithmeticError``.  B is
read from ``closedform._scaled_q``, not from differences of A.  T and A are 0
outside 0..3g-1, B is 0 below k = -1, B(g, -1) = D(g) (it is a(g, 0) - 0),
and past the middle of the row B(g, k) = -B(g, 3g-2-k).

The residuals test the closed form against three recursions it was not built
from (the recursion route satisfies its own by construction), each multiplied
through by a scale that makes every term an integer.  With s = 2k+1, the
bracket over a genus g-1 row X is

    P(X, u) = s(s-2)(s-4) X(g-1,k-3) + 3s(s-2)u X(g-1,k-2)
            + 3su(u-2) X(g-1,k-1) + u(u-2)(u-4) X(g-1,k)

and [k = 3j-1] C(g, j) is C(g, j) at k = 3j-1 and 0 otherwise:

- residual-tau, scale N(g), 0 <= k <= 3g-2:
    (2k+3) T(g,k+1) - (2g-3-2k) T(g,k) - [k = 3j-1] D(g) C(g,j)
    - 4g(6g-1)(6g-3)(6g-5) (T(g-1,k-3) + 3T(g-1,k-2) + 3T(g-1,k-1) + T(g-1,k))
- residual-a, scale D(g), 0 <= k <= 3g-2, u = 6g-1-2k:
    u A(g,k+1) - (2g-3-2k) A(g,k) - 4g P(A, u) - [k = 3j-1] C(g,j) (2k+1)!! u!!
- residual-b, scale D(g), 0 <= k < b_domain_max(g), u = 6g-3-2k:
    u B(g,k+1) - (2g-3-2k) B(g,k) - 4g P(B, u)
    - [k = 3j-2] C(g,j) (2k+3)!! u!! + [k = 3j-1] C(g,j) (2k+1)!! (u+2)!!

Over its scale each is LHS - RHS of the rational recursion (4g A(g-1, .) is
4g/((6g-1)(6g-3)(6g-5)) a(g-1, .) times D(g)).  ``cross`` compares closed
and recursive rows T(g, .), ``symmetry`` a recursive row with its reverse,
and ``bounds`` checks (6g-3) D(g) < (6g-1) A(g, k) and A(g, k) < D(g).
Genera are walked in order, keeping only rows g-1 and g.

Checks never abort mid-scan.  They return a :class:`CheckReport` whose
failure list pinpoints every offending (g, k) locus in (g, k) order; an empty
list means the check passed.  Only a failure builds a ``Fraction``: each
integer over its scale, exactly the value the rational comparison has.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import closedform
from .closedform import _denominator, _exact, b_domain_max
from .combinatorics import binomial, double_factorial_odd, rational_str
from .recursion import TwoPointTable, _int_rows

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

@dataclass(frozen=True)
class CheckFailure:
    """One violated identity: the locus and both sides of the comparison."""

    g: int
    k: int
    expected: Fraction
    actual: Fraction


@dataclass(frozen=True)
class CheckReport:
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


def _mirrored(g: int, half: Sequence) -> tuple:
    """Full genus g row, symmetric under k <-> 3g-1-k, from its first half."""
    return (*half, *half[3 * g - 1 - len(half) :: -1])


# Rows handed to the identities are padded: row[k + 3] holds the entry at k,
# so the genus g-1 terms at k-3..k of step k are row[k..k+3].
def _padded(row: Sequence) -> tuple:
    return (0, 0, 0, *row, 0, 0)


def _t_row(g: int) -> tuple[int, ...]:
    return _padded(_mirrored(g, closedform._t_half_row(g)))


def _a_row(g: int) -> tuple[int, ...]:
    # A(g, k) = (6g-1-2k)!! T(g, k) / E(k) with E(k) = D(g)/(2k+1)!!: the
    # common factor (2k+1)!! is cancelled, so the big division is cheaper
    e = _d(g)
    half = []
    for k, t in enumerate(closedform._t_half_row(g)):
        half.append(_exact(double_factorial_odd(6 * g - 1 - 2 * k) * t, e, g, k))
        e = _exact(e, 2 * k + 3, g, k + 1)
    return _padded(_mirrored(g, half))


def _b_row(g: int) -> tuple[int, ...]:
    first = [
        double_factorial_odd(2 * k + 1) * double_factorial_odd(6 * g - 3 - 2 * k) * q
        for k, q in enumerate(closedform._scaled_q(g, 1))
    ]
    middle = [0] if g % 2 == 0 else []  # b(g, k) = 0 at 2k = 3g-2
    return (0, 0, _d(g), *first, *middle, *(-b for b in reversed(first)))


def _tau_step(g: int, k: int, t: Sequence, below: Sequence):
    c = 4 * g * (6 * g - 1) * (6 * g - 3) * (6 * g - 5)
    r = (2 * k + 3) * t[k + 4] - (2 * g - 3 - 2 * k) * t[k + 3]
    r -= c * (below[k] + 3 * below[k + 1] + 3 * below[k + 2] + below[k + 3])
    if k % 3 == 2:
        # k = 3j-1 with 1 <= j <= g-1 holds on every such step
        r -= _d(g) * binomial(g, (k + 1) // 3)
    return r


def _normalized_step(g: int, k: int, u: int, row: Sequence, below: Sequence):
    """The homogeneous part u X(g,k+1) - (2g-3-2k) X(g,k) - 4g P(X, u)."""
    s = 2 * k + 1
    bracket = s * (
        (s - 2) * ((s - 4) * below[k] + 3 * u * below[k + 1]) + 3 * u * (u - 2) * below[k + 2]
    ) + u * (u - 2) * (u - 4) * below[k + 3]
    return u * row[k + 4] - (2 * g - 3 - 2 * k) * row[k + 3] - 4 * g * bracket


def _one_point(g: int, k: int) -> int:
    """D(g) times the one-point term of the normalized recursion at k = 3j-1."""
    odd = double_factorial_odd
    return binomial(g, (k + 1) // 3) * odd(2 * k + 1) * odd(6 * g - 1 - 2 * k)


def _a_step(g: int, k: int, a: Sequence, below: Sequence):
    r = _normalized_step(g, k, 6 * g - 1 - 2 * k, a, below)
    return r - _one_point(g, k) if k % 3 == 2 else r


def _b_step(g: int, k: int, b: Sequence, below: Sequence):
    # the one-point terms of the a recursion at k+1 and at k
    r = _normalized_step(g, k, 6 * g - 3 - 2 * k, b, below)
    if k % 3 == 1:
        return r - _one_point(g, k + 1)
    return r + _one_point(g, k) if k % 3 == 2 else r


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
    row = _t_row if backend is None else (
        lambda gg: _padded(_scaled(gg, [backend(gg, i) for i in range(3 * gg)]))
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


def _scaled(g: int, values) -> list:
    # a wrong value times N(g) stays a non-integral Fraction, unequal to any T
    return [_denominator(g) * v for v in values]


def _recursive_rows(g_max: int, table: TwoPointTable | None):
    """Rows T(g, .), g = 1..g_max: a table complete through g_max, or the recursion."""
    if table is None or table.max_genus_complete < g_max:
        return _int_rows(g_max)
    return (_scaled(g, table.row(g)) for g in range(1, g_max + 1))


def cross_validate(g_max: int, table: TwoPointTable | None = None) -> CheckReport:
    """Compare the closed form against the recursion for every (g, k), g <= g_max.

    Runs the recursion if no complete table is supplied.  Failures record
    the recursive value as expected and the closed-form value as actual.
    """
    _require_g_max(g_max)
    failures = []
    checked = 0
    for g, recursive in enumerate(_recursive_rows(g_max, table), start=1):
        closed = _mirrored(g, closedform._t_half_row(g))
        checked += 3 * g
        failures += [
            _failure(g, k, r, c, _denominator(g))
            for k, (r, c) in enumerate(zip(recursive, closed))
            if r != c
        ]
    return CheckReport("cross", (1, g_max), tuple(failures), checked)


def check_symmetry(g_max: int, table: TwoPointTable | None = None) -> CheckReport:
    """Assert T(g, k) = T(g, 3g-1-k) on the recursive path, g <= g_max."""
    _require_g_max(g_max)
    failures = []
    checked = 0
    for g, row in enumerate(_recursive_rows(g_max, table), start=1):
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
        row = _a_row(g)
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
