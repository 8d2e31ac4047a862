"""Command-line front end for the two-point correlator library.

Four subcommands: ``value`` (one correlator, default cross-checked on both
computation paths), ``table`` (one full genus row, default closed form,
written line by line), ``verify`` (the exact check suite), and ``bench``
(wall time and value bit-size per genus for either path).  Each imports only
the layers it runs.  The bodies of ``value`` and ``table``, which print
integer entries as text, sit in ``tau2.output``; ``cmd_value`` and
``cmd_table`` import it on first call, so no other command compiles it.
``verify``'s report is written by ``tau2.verification``, beside ``CheckReport``.

Data goes to stdout, every diagnostic and timing goes to stderr.  Exit codes
are a stable contract: 0 success, 1 verification failure, 2 usage or range
error, 3 mismatch between the two computation paths, 4 internal error (any
other exception, reported as one line on stderr).  A reader that closes stdout
early ends the command quietly with the code it had reached: 0, or ``verify``'s 1.

Values past Python's default int -> str digit limit are printed in full: the
limit is lifted while a command runs, and kept while argv is parsed.
"""

from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

__all__ = ["main", "run", "cmd_value", "cmd_table", "cmd_verify", "cmd_bench"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4

_CHECKS = ("cross", "symmetry", "bounds", "residual-tau", "residual-a", "residual-b")


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_value(args: argparse.Namespace) -> int:
    from .output import value
    return value(args)


def cmd_table(args: argparse.Namespace) -> int:
    from .output import table
    return table(args)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.g_max < 1:
        _diag(f"g-max must be >= 1, got {args.g_max}")
        return EXIT_USAGE
    names = list(_CHECKS) if args.checks is None else [c.strip() for c in args.checks.split(",")]
    unknown = [c for c in names if c not in _CHECKS]
    if unknown:
        _diag(f"unknown checks: {', '.join(map(repr, unknown))} (valid: {', '.join(_CHECKS)})")
        return EXIT_USAGE
    if len(set(names)) < len(names):
        _diag(f"each check may be named once, got --checks {args.checks}")
        return EXIT_USAGE
    from . import verification

    times = {}
    reports = verification._run(names, args.g_max, times)
    args.verdict = EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED
    for name, seconds in times.items():
        _diag(f"verify: {name} in {seconds * 1000:.1f} ms")
    verification._print_reports(reports, args.format)
    return args.verdict


def _row_bits(g: int, row: tuple[int, ...]) -> int:
    """Largest numerator plus denominator bit length of the reduced values S(g, k) / N(g)."""
    from math import gcd
    from .combinatorics import _denominator
    n = _denominator(g)
    return max((s // (d := gcd(s, n))).bit_length() + (n // d).bit_length() for s in row)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.g_max < 1:
        _diag(f"g-max must be >= 1, got {args.g_max}")
        return EXIT_USAGE
    do_closed = args.method in ("closed", "both")
    do_recursive = args.method in ("recursive", "both")

    columns = ["g"]
    if do_closed:
        columns += ["closed_ms", "closed_us_per_value"]
    if do_recursive:
        columns += ["recursive_ms", "recursive_us_per_value"]
    columns.append("max_bits")
    print("\t".join(columns))
    from . import closedform, recursion

    # both columns time integer rows; max_bits is taken untimed
    int_rows = recursion._int_rows(args.g_max)
    recursive_cumulative = 0.0
    for g in range(1, args.g_max + 1):
        cells = [str(g)]
        if do_closed:
            start = perf_counter()
            half = tuple(closedform._t_half(g))
            ms = (perf_counter() - start) * 1000
            cells += [f"{ms:.3f}", f"{ms * 1000 / (3 * g):.2f}"]
        if do_recursive:
            start = perf_counter()
            int_row = next(int_rows)
            recursive_cumulative += (perf_counter() - start) * 1000
            # a recursive genus-g row costs the whole chain below it
            cells += [
                f"{recursive_cumulative:.3f}",
                f"{recursive_cumulative * 1000 / (3 * g):.2f}",
            ]
        cells.append(str(_row_bits(g, half if do_closed else int_row)))
        print("\t".join(cells))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tau2",
        description="Exact two-point correlators of 2D topological gravity, "
        "computed by genus recursion and by closed form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    value = sub.add_parser("value", help="one correlator and its normalized form")
    value.add_argument("--g", type=int, required=True, help="genus, >= 1")
    value.add_argument("--k", type=int, required=True, help="first index, 0..3g-1")
    value.add_argument("--method", choices=("closed", "recursive", "both"), default="both")
    value.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    value.set_defaults(func=cmd_value)

    table = sub.add_parser("table", help="full row k = 0..3g-1 at one genus")
    table.add_argument("--g", type=int, required=True, help="genus, >= 1")
    table.add_argument("--method", choices=("closed", "recursive", "both"), default="closed")
    table.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run the exact cross-check suite")
    verify.add_argument("--g-max", type=int, required=True, help="top genus, >= 1")
    verify.add_argument("--checks", help=f"comma list from: {', '.join(_CHECKS)}")
    verify.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="time both computation paths per genus")
    bench.add_argument("--g-max", type=int, required=True, help="top genus, >= 1")
    bench.add_argument("--method", choices=("closed", "recursive", "both"), default="both")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # sys.set_int_max_str_digits exists from Python 3.11 (and patched 3.10)
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: end quietly, with the exit-time flush going nowhere;
        # table and value print only after every check, verify after args.verdict is set
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return getattr(args, "verdict", EXIT_OK)
    except Exception as exc:
        import traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        _diag(f"internal error: {detail} (at {where})")
        return EXIT_INTERNAL
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def run() -> None:
    sys.exit(main())
