"""Cross-checks between the recursion route and the closed-form route.

Every check compares exact integers.  With D(g) = (6g-1)!!, L(g) =
lcm(1, 3, ..., 2g+1), N(g) = 24^g g! L(g) and P(g, k) = (2k+1)!! (6g-1-2k)!!,
genus rows are read as

    S(g, k) = N(g) <tau_k tau_{3g-1-k}>                       (either route)
    A(g, k) = D(g) a(g, k) = P(g, k) S(g, k) / L(g)
    B(g, k) = D(g) b(g, k) = P(g, k) q(g, k) / (6g-1-2k)

for the normalized values a and their differences b (see ``closedform``).
P(g, .) is D(g) W(k) from ``combinatorics._weights``, the stepping that
``table`` prints, begun at D(g) / 1: each pair must be an integer over 1.
Every division is checked; a remainder raises ``ArithmeticError``.  B is read
from ``closedform._scaled_q``, not from differences of A.  S and A are 0
outside 0..3g-1, B is 0 below k = -1, B(g, -1) = D(g) (it is a(g, 0) - 0), and
past the middle of the row B(g, k) = -B(g, 3g-2-k).

The residuals test the closed form against three recursions it was not built
from, each multiplied through by a scale that makes every term an integer.
With s = 2k+1, the bracket over a genus g-1 row X is

    H(X, u) = s(s-2)(s-4) X(g-1,k-3) + 3s(s-2)u X(g-1,k-2)
            + 3su(u-2) X(g-1,k-1) + u(u-2)(u-4) X(g-1,k)

and [k = 3j-1] C(g, j) is C(g, j) at k = 3j-1 and 0 otherwise:

- residual-tau, scale N(g), 0 <= k <= 3g-2: (2k+3) S(g,k+1) - (2g-3-2k) S(g,k)
    minus the other terms of the recursion's step to k+1 (``recursion._step_terms``):
    a fault in that step reaches both this check and the recursive rows
- residual-a, scale D(g), 0 <= k <= 3g-2, u = 6g-1-2k:
    u A(g,k+1) - (2g-3-2k) A(g,k) - 4g H(A, u) - [k = 3j-1] C(g,j) P(g,k)
- residual-b, scale D(g), 0 <= k < b_domain_max(g), u = 6g-3-2k:
    u B(g,k+1) - (2g-3-2k) B(g,k) - 4g H(B, u)
    - [k = 3j-2] C(g,j) P(g,k+1) + [k = 3j-1] C(g,j) P(g,k)

Over its scale each is LHS - RHS of the rational recursion (4g A(g-1, .) is
4g/((6g-1)(6g-3)(6g-5)) a(g-1, .) times D(g)).  ``cross`` compares the
paths' pairs (L(g), S(g, k)), each side of a failure over its own N(g),
``symmetry`` a recursive row with its reverse, and ``bounds`` checks
(6g-3) D(g) < (6g-1) A(g, k) and A(g, k) < D(g).

The checks share one walk over g = 1..g_max.  At each genus it builds the
rows the selected checks read once (recursive S, closed S, P, A, B), hands
them to each check, and keeps only genera g-1 and g.  Each S row comes with
its path's L(g), read by the checks of its rows (by ``cross``, both): the
closed path sieves L(g) at each genus, and the recursion steps it.

``verify`` is the body of the ``tau2 verify`` command: ``cli.main`` calls
it once the selection ``cli._selection`` reads from ``--checks`` is valid,
and it imports what it needs of ``cli`` when it runs, so a library import
of this module loads no ``cli``.  It returns 0 or 1.

Checks never abort mid-scan.  Each returns a :class:`CheckReport` named tuple
whose failures pinpoint every offending (g, k) locus in (g, k) order, none when
it passed.  Only a failure builds a ``Fraction``: each integer over its scale,
exactly the value the rational comparison has.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb
from time import perf_counter

from . import _LAYERS, closedform
from .closedform import _mirrored, b_domain_max
from .combinatorics import _denominator, _exact, _weights, double_factorial_odd, rational_str
from .recursion import _int_rows, _step_terms

__all__ = _LAYERS["verification"].split()

class CheckFailure(namedtuple("CheckFailure", "g k expected actual")):
    """One violated identity: the locus (g, k) and both sides of the comparison, as Fractions."""

    __slots__ = ()


class CheckReport(namedtuple("CheckReport", "check_name g_range failures checked")):
    """Outcome of one exact check over a genus range ``g_range`` = (first, g_max).

    ``passed`` holds exactly when ``failures``, a tuple of :class:`CheckFailure`,
    is empty; ``checked`` counts the comparisons performed.
    """

    __slots__ = ()

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


def _failure(g: int, k: int, expected, actual, scale: int) -> CheckFailure:
    from fractions import Fraction
    return CheckFailure(g, k, Fraction(expected, scale), Fraction(actual, scale))


def _rows(g: int, need: set, recursive: Iterator | None) -> dict:
    """Genus g's rows in ``need``: "rec" (next of ``recursive``) with its L(g) "rec_lam",
    "s" (``two_point_closed(g)``) with "lam", "a" (and "s"), and "b" (from k = -1);
    "a" or "b" also builds "p" and its "one" terms.
    """
    rows = {}
    if "rec" in need:
        rows["rec_lam"], rows["rec"] = next(recursive)
    if need & {"s", "a"}:
        rows["lam"], rows["s"] = lam, s = closedform.two_point_closed(g)
    if need & {"a", "b"}:
        pairs = zip(range((3 * g + 1) // 2), _weights(g, double_factorial_odd(6 * g - 1), 1))
        rows["p"] = p = _mirrored(g, [_exact(wn, wd, g, k) for k, (wn, wd) in pairs])
        # P(g, k) C(g, j) at k = 3j-1, else 0
        rows["one"] = [p[k] * comb(g, (k + 1) // 3) if k % 3 == 2 else 0 for k in range(3 * g)]
    if "a" in need:
        rows["a"] = _mirrored(g, [_exact(p[k] * s[k], lam, g, k) for k in range((3 * g + 1) // 2)])
    if "b" in need:
        q = closedform._scaled_q(g, 1)
        first = [_exact(p[k], 6 * g - 1 - 2 * k, g, k) * qk for k, qk in enumerate(q)]
        middle = [0] if g % 2 == 0 else []  # b(g, k) = 0 at 2k = 3g-2
        rows["b"] = (p[0], *first, *middle, *(-b for b in reversed(first)))
    return rows


def _nonzero(r: list, scale: int) -> tuple[int, int, list]:
    """A check at one genus: (checked, scale, [(k, expected, actual) of each failure])."""
    return len(r), scale, [(k, 0, x) for k, x in enumerate(r) if x]


def _tau_residuals(g: int, rows: dict, below: dict) -> tuple[int, int, list]:
    """residual-tau at k = 0..3g-2 over N(g): the recursion's step to k+1 on the S rows."""
    s, lam = rows["s"], rows["lam"]
    terms = _step_terms(g, below["s"], 3 * g - 1, below["lam"], lam)
    return _nonzero([
        (2 * k + 3) * s[k + 1] - (2 * g - 3 - 2 * k) * s[k] - term
        for k, term in enumerate(terms)
    ], _denominator(g, lam))


def _normalized(g: int, u: int, x: tuple, b: tuple, steps: int) -> list:
    """u X(g,k+1) - (2g-3-2k) X(g,k) - 4g H(X, u) at k < steps, u down 2 a step, on padded rows."""
    out = []
    for k in range(steps):
        s = 2 * k + 1
        bracket = s * (
            (s - 2) * ((s - 4) * b[k] + 3 * u * b[k + 1]) + 3 * u * (u - 2) * b[k + 2]
        ) + u * (u - 2) * (u - 4) * b[k + 3]
        out.append(u * x[k + 4] - (2 * g - 3 - 2 * k) * x[k + 3] - 4 * g * bracket)
        u -= 2
    return out


def _a_residuals(g: int, rows: dict, below: dict) -> tuple[int, int, list]:
    """residual-a at k = 0..3g-2 over D(g), on the A rows of genus g and g-1."""
    x, b = (0, 0, 0, *rows["a"], 0, 0), (0, 0, 0, *below["a"], 0, 0)
    h = _normalized(g, 6 * g - 1, x, b, 3 * g - 1)
    return _nonzero([hk - one for hk, one in zip(h, rows["one"])], rows["p"][0])


def _b_residuals(g: int, rows: dict, below: dict) -> tuple[int, int, list]:
    """residual-b at k = 0..b_domain_max(g)-1 over D(g), on the B rows of genus g and g-1."""
    x, b = (0, 0, *rows["b"]), (0, 0, *below["b"])  # "b" starts at k = -1
    h, one = _normalized(g, 6 * g - 3, x, b, b_domain_max(g)), rows["one"]
    # the one-point terms of the a recursion at k+1 and at k
    return _nonzero([hk - one[k + 1] + one[k] for k, hk in enumerate(h)], rows["p"][0])


def _cross(g: int, rows: dict, below: dict) -> tuple[int, int, list]:
    lr, lc = rows["rec_lam"], rows["lam"]
    if (lr, rows["rec"]) == (lc, rows["s"]):
        return 3 * g, 1, []
    nr, nc = _denominator(g, lr), _denominator(g, lc)
    pairs = enumerate(zip(rows["rec"], rows["s"]))
    return 3 * g, nr * nc, [(k, r * nc, c * nr) for k, (r, c) in pairs if (lr, r) != (lc, c)]


def _symmetry(g: int, rows: dict, below: dict) -> tuple[int, int, list]:
    row, half = rows["rec"], range((3 * g - 1) // 2 + 1)
    pairs = [(k, row[-1 - k], row[k]) for k in half]
    return len(half), _denominator(g, rows["rec_lam"]), [(k, e, a) for k, e, a in pairs if e != a]


def _bounds(g: int, rows: dict, below: dict) -> tuple[int, int, list]:
    # both sides of a failure are over (6g-1) D(g): a bound of 1 is (6g-1) D(g)
    d, c, failures = rows["p"][0], 6 * g - 1, []
    for k, a in enumerate(rows["a"][2 : 3 * g - 2], start=2):
        if not (c - 2) * d < c * a:
            failures.append((k, (c - 2) * d, c * a))
        elif not a < d:
            failures.append((k, c * d, c * a))
    return 3 * g - 4, c * d, failures


# name: (first genus, rows read, the check at one genus)
_CHECKS = {
    "cross": (1, {"rec", "s"}, _cross),
    "symmetry": (1, {"rec"}, _symmetry),
    "bounds": (2, {"a"}, _bounds),
    "residual-tau": (2, {"s"}, _tau_residuals),
    "residual-a": (2, {"a"}, _a_residuals),
    "residual-b": (2, {"b"}, _b_residuals),
}


def _run(names: Sequence[str], g_max: int, times: dict | None = None) -> list[CheckReport]:
    """One CheckReport per check in ``names``, in order, from one walk over g = 1..g_max.

    ``times`` gets the seconds of each check, summed over genera, and of the shared "rows".
    """
    if g_max < 1:
        raise ValueError(f"g_max must be >= 1, got {g_max}")
    checks = {name: _CHECKS[name] for name in names}
    need = set().union(*(reads for _, reads, _ in checks.values()))
    recursive = _int_rows(g_max) if "rec" in need else None
    seconds = {} if times is None else times
    seconds.update(dict.fromkeys(["rows", *names], 0.0))
    found = {name: [0, []] for name in names}  # checked, failures
    below = None
    for g in range(1, g_max + 1):
        start = perf_counter()
        rows = _rows(g, need, recursive)
        seconds["rows"] += perf_counter() - start
        for name, (first, _, check) in checks.items():
            if g >= first:
                start = perf_counter()
                checked, scale, failures = check(g, rows, below)
                seconds[name] += perf_counter() - start
                found[name][0] += checked
                found[name][1] += [_failure(g, k, e, a, scale) for k, e, a in failures]
        below = rows
    return [
        CheckReport(name, (first, g_max), tuple(failures), checked)
        for (name, (first, _, _)), (checked, failures) in zip(checks.items(), found.values())
    ]


def verify(args: SimpleNamespace) -> int:
    """``tau2 verify``: the checks ``args.checks`` names (default all), reported on stdout.

    Each check's time goes to stderr.  ``args.verdict`` is set before the
    report is printed, so a reader that closes stdout early still gets it.
    """
    from .cli import EXIT_OK, EXIT_VERIFY_FAILED, _diag, _selection
    times = {}
    reports = _run(_selection(args.checks)[0], args.g_max, times)
    args.verdict = EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED
    for name, seconds in times.items():
        _diag(f"verify: {name} in {seconds * 1000:.1f} ms")
    if args.format == "json":
        import json
        print(json.dumps([r.to_json_obj() for r in reports]))
    elif args.format == "csv":
        print("check,passed,checked,failures")
        for r in reports:
            print(f"{r.check_name},{str(r.passed).lower()},{r.checked},{len(r.failures)}")
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.check_name}: {status} (checked {r.checked})")
            for f in r.failures:
                print(
                    f"  ({f.g},{f.k}): expected {rational_str(f.expected)}, "
                    f"got {rational_str(f.actual)}"
                )
    return args.verdict


def cross_validate(g_max: int) -> CheckReport:
    """Recursive (expected) against closed-form (actual) S(g, k) at every (g, k), g <= g_max."""
    return _run(["cross"], g_max)[0]


def check_symmetry(g_max: int) -> CheckReport:
    """Assert S(g, k) = S(g, 3g-1-k) on the recursive path, g <= g_max."""
    return _run(["symmetry"], g_max)[0]


def check_bounds(g_max: int) -> CheckReport:
    """Assert the strict window (6g-3)/(6g-1) < a(g, k) < 1 for 2 <= k <= 3g-3, 2 <= g <= g_max."""
    return _run(["bounds"], g_max)[0]


def check_residual_tau(g_max: int) -> CheckReport:
    """Residual of the correlator recursion over its full domain, g <= g_max."""
    return _run(["residual-tau"], g_max)[0]


def check_residual_a(g_max: int) -> CheckReport:
    """Residual of the normalized recursion over its full domain, g <= g_max."""
    return _run(["residual-a"], g_max)[0]


def check_residual_b(g_max: int) -> CheckReport:
    """Residual of the difference recursion over its full domain, g <= g_max."""
    return _run(["residual-b"], g_max)[0]
