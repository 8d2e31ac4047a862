"""Output checker for benchmark jobs.  It imports nothing from ``tau2``.

Small genera are checked exactly against an evaluator of its own: the
integer form of the genus recursion,

    T(g, k) = 24^g g! (6g-1)!! <tau_k tau_{3g-1-k}>,
    T(1, .) = (15, 15, 15),  T(g, 0) = (6g-1)!!,
    (2k+1) T(g,k) = (2g-1-2k) T(g,k-1)
                    + 4g(6g-1)(6g-3)(6g-5) [T(g-1,k-4) + 3T(g-1,k-3) + 3T(g-1,k-2) + T(g-1,k-1)]
                    + [k = 3j, 1 <= j <= g-1] (6g-1)!! C(g, j),

where every division is exact.  Large genera (``value --method closed``)
are checked by exact identities on the printed pair: the rescaling between
the correlator and a(g, k), the endpoints a(g,0) = 1 and
a(g,1) = (6g-3)/(6g-1), and the strict window (6g-3)/(6g-1) < a < 1.
``verify`` reports must pass with ``checked`` equal to its closed count.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd

from workloads import Job

# printed values near the genus limit of value-closed exceed the default limit
sys.set_int_max_str_digits(0)

CSV_HEADER = "g,k,correlator,normalized"
EXACT_G_MAX = 200  # reference rows above this genus cost too much to build
_RATIONAL = re.compile(r"(-?(?:0|[1-9]\d*))(?:/([1-9]\d*))?")


@dataclass(frozen=True)
class Verdict:
    ok: bool
    values: int  # correlator values emitted, or comparisons checked for verify
    max_bits: int = 0  # widest numerator or denominator printed
    checked: dict[str, int] | None = None  # per verify check
    reason: str = ""


class OddDoubleFactorial:
    def __init__(self) -> None:
        self._memo = [1]  # _memo[i] == (2i-1)!!

    def __call__(self, m: int) -> int:
        i = (m + 1) // 2
        while len(self._memo) <= i:
            self._memo.append(self._memo[-1] * (2 * len(self._memo) - 1))
        return self._memo[i]


def t_rows(g_max: int, df: OddDoubleFactorial) -> dict[int, list[int]]:
    """Integer rows T(g, .) for g = 1..g_max by the recursion above."""
    rows = {1: [15, 15, 15]}
    for g in range(2, g_max + 1):
        below = rows[g - 1]
        top = df(6 * g - 1)
        c = 4 * g * (6 * g - 1) * (6 * g - 3) * (6 * g - 5)

        def b(i: int) -> int:
            return below[i] if 0 <= i < len(below) else 0

        row = [top]
        for k in range(1, 3 * g):
            rhs = (2 * g - 1 - 2 * k) * row[-1] + c * (b(k - 4) + 3 * b(k - 3) + 3 * b(k - 2) + b(k - 1))
            if k % 3 == 0 and 1 <= k // 3 <= g - 1:
                rhs += top * comb(g, k // 3)
            q, r = divmod(rhs, 2 * k + 1)
            if r:
                raise ArithmeticError(f"inexact division at ({g},{k})")
            row.append(q)
        rows[g] = row
    return rows


def rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_canonical(s: str) -> Fraction | None:
    """The rational written as canonical "p/q" or "p", else None."""
    m = _RATIONAL.fullmatch(s)
    if m is None:
        return None
    p = int(m.group(1))
    q = int(m.group(2) or 1)
    if m.group(2) is not None and (q == 1 or gcd(p, q) != 1):
        return None
    return Fraction(p, q)


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def verify_counts(n: int) -> dict[str, int]:
    """Comparisons each check of ``tau2 verify --g-max n`` must report."""
    return {
        "cross": sum(3 * g for g in range(1, n + 1)),
        "symmetry": sum((3 * g - 1) // 2 + 1 for g in range(1, n + 1)),
        "bounds": sum(3 * g - 4 for g in range(2, n + 1)),
        "residual-tau": sum(3 * g - 1 for g in range(2, n + 1)),
        "residual-a": sum(3 * g - 1 for g in range(2, n + 1)),
        "residual-b": sum((3 * g - 1) // 2 - 1 for g in range(2, n + 1)),
    }


class Checker:
    """Checks the stdout of finished jobs; exact reference rows up to ``g_max``."""

    def __init__(self, g_max: int = 0) -> None:
        self.df = OddDoubleFactorial()
        self.rows = t_rows(max(g_max, 1), self.df)
        self._pairs: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}

    def pair(self, g: int, k: int) -> tuple[Fraction, Fraction]:
        """Exact (correlator, a(g, k)) from the reference rows."""
        if (g, k) not in self._pairs:
            t = self.rows[g][k]
            top = self.df(6 * g - 1)
            corr = Fraction(t, 24**g * factorial(g) * top)
            norm = Fraction(self.df(2 * k + 1) * self.df(6 * g - 1 - 2 * k) * t, top * top)
            self._pairs[g, k] = (corr, norm)
        return self._pairs[g, k]

    def check(self, job: Job, stdout: str) -> Verdict:
        if job.kind == "table":
            return self._table(job.g, stdout)
        if job.kind == "verify":
            return self._verify(job.g, stdout)
        if "closed" in job.argv:
            return self._value_identities(job.g, job.k, stdout)
        return self._value_exact(job.g, job.k, stdout)

    def _table(self, g: int, stdout: str) -> Verdict:
        pairs = [self.pair(g, k) for k in range(3 * g)]
        lines = [CSV_HEADER] + [f"{g},{k},{rat_str(c)},{rat_str(a)}" for k, (c, a) in enumerate(pairs)]
        bits = max(max(_bits(c), _bits(a)) for c, a in pairs)
        if stdout != "\n".join(lines) + "\n":
            return Verdict(False, 0, reason=f"table g={g}: output differs from the reference row")
        return Verdict(True, 3 * g, bits)

    def _value_exact(self, g: int, k: int, stdout: str) -> Verdict:
        c, a = self.pair(g, k)
        if stdout != f"{rat_str(c)}\n{rat_str(a)}\n":
            return Verdict(False, 0, reason=f"value ({g},{k}): output differs from the reference")
        return Verdict(True, 1, max(_bits(c), _bits(a)))

    def _value_identities(self, g: int, k: int, stdout: str) -> Verdict:
        lines = stdout.split("\n")
        parsed = [parse_canonical(s) for s in lines[:2]] if len(lines) == 3 and lines[2] == "" else []
        if len(parsed) != 2 or None in parsed:
            return Verdict(False, 0, reason=f"value ({g},{k}): not two canonical rationals")
        c, a = parsed
        df = self.df
        scale = Fraction(df(2 * k + 1) * df(6 * g - 1 - 2 * k) * 24**g * factorial(g), df(6 * g - 1))
        lower = Fraction(6 * g - 3, 6 * g - 1)
        edge = min(k, 3 * g - 1 - k)
        if c <= 0 or a != c * scale:
            reason = "normalized != correlator * (2k+1)!!(6g-1-2k)!! 24^g g! / (6g-1)!!"
        elif edge == 0 and a != 1:
            reason = "a(g,0) != 1"
        elif edge == 1 and a != lower:
            reason = "a(g,1) != (6g-3)/(6g-1)"
        elif edge >= 2 and not lower < a < 1:
            reason = "a(g,k) outside the window ((6g-3)/(6g-1), 1)"
        else:
            return Verdict(True, 1, max(_bits(c), _bits(a)))
        return Verdict(False, 0, reason=f"value ({g},{k}): {reason}")

    def _verify(self, n: int, stdout: str) -> Verdict:
        counts = verify_counts(n)
        lines = ["check,passed,checked,failures"] + [f"{name},true,{m},0" for name, m in counts.items()]
        if stdout != "\n".join(lines) + "\n":
            return Verdict(False, 0, reason=f"verify g-max={n}: report differs from six passing checks")
        return Verdict(True, sum(counts.values()), checked=counts)
