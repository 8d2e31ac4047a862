"""The ``bench`` command: wall time and value bit size per genus on either path.

Only ``cli.cmd_bench`` imports this module, on first call, so no other
command compiles it.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter
from types import SimpleNamespace

from . import closedform, recursion
from .cli import EXIT_OK, EXIT_USAGE, _diag
from .combinatorics import _denominator, _genus_error


def _row_bits(g: int, row: tuple[int, ...]) -> int:
    """Largest numerator plus denominator bit length of the reduced values S(g, k) / N(g)."""
    n = _denominator(g)
    return max((s // (d := gcd(s, n))).bit_length() + (n // d).bit_length() for s in row)


def bench(args: SimpleNamespace) -> int:
    """``tau2 bench``: one line per genus 1..g-max, with the chosen paths' times and max_bits."""
    if error := _genus_error("g-max", args.g_max, 3 * args.g_max):
        _diag(error)
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
