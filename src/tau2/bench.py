"""The ``bench`` command: wall time and value bit size per genus on either path.

``bench`` is the command's body.  Only ``cli.main`` imports this module,
to call it, so no other command compiles it.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter

from . import closedform, recursion
from .cli import EXIT_OK
from .combinatorics import _denominator


def _row_bits(g: int, lam: int, row: tuple[int, ...]) -> int:
    """Largest numerator plus denominator bit length of the reduced values S(g, k) / N(g)."""
    n = _denominator(g, lam)
    return max((s // (d := gcd(s, n))).bit_length() + (n // d).bit_length() for s in row)


def bench(args: SimpleNamespace) -> int:
    """``tau2 bench``: one line per genus 1..g-max, with the chosen paths' times and max_bits."""
    # each chosen path's source, yielding (L(g), integer row) for g = 1, 2, ...
    paths = {
        "closed": map(closedform.two_point_closed, range(1, args.g_max + 1)),
        "recursive": recursion._int_rows(args.g_max),
    }
    paths = {name: rows for name, rows in paths.items() if args.method in (name, "both")}
    columns = [f"{name}_{unit}" for name in paths for unit in ("ms", "us_per_value")]
    print("\t".join(["g", *columns, "max_bits"]))

    chain = 0.0
    for g in range(1, args.g_max + 1):
        cells, rows = [str(g)], []
        for name, source in paths.items():
            start = perf_counter()
            rows.append(next(source))
            ms = (perf_counter() - start) * 1000
            if name == "recursive":
                # a recursive genus-g row costs the whole chain below it
                ms = chain = chain + ms
            cells += [f"{ms:.3f}", f"{ms * 1000 / (3 * g):.2f}"]
        # max_bits is taken untimed, on the first chosen path's row
        cells.append(str(_row_bits(g, *rows[0])))
        print("\t".join(cells))
    return EXIT_OK
