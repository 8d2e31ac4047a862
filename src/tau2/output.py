"""The ``value`` and ``table`` commands: integer entries S(g, k) up to their printed text.

``value`` and ``table`` are the two commands' bodies.  ``cli.main`` imports
this module only to call one of them, so ``--help``, ``verify`` and
``bench`` neither compile nor load it.  An entry stays an integer until it
becomes text, over the L(g) that its path's row source
(``closedform.two_point_closed`` or ``recursion.recursive_row``) hands out
with it: the correlator is S / N(g) and the normalized value W(k) S / L(g),
each reduced to lowest terms by ``combinatorics._ratio_str``; no
``fractions.Fraction`` is built.  With
W(k) / L(g) = wn / wd in lowest terms, S wn / wd cancels crosswise, as
``Fraction.__mul__`` does: one gcd of S and wd, and none with wn, which
``_ratio_str`` takes as its factor c.
"""

from __future__ import annotations

import sys
from math import gcd
from time import perf_counter
from types import SimpleNamespace

from .cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, _diag
from .combinatorics import _denominator, _ratio_str, _weight

CSV_HEADER = "g,k,correlator,normalized"


def _mismatch(g: int, k: int, closed: tuple[int, int], recursive: tuple[int, int]) -> int:
    """Report entry (g, k), where the paths' (L(g), S(g, k)) differ in S; the exit code."""
    c, r = (_ratio_str(s, _denominator(g, lam)) for lam, s in (closed, recursive))
    _diag(f"path mismatch at ({g},{k}): closed {c}, recursive {r}")
    return EXIT_MISMATCH


def value(args: SimpleNamespace) -> int:
    """``tau2 value``: one entry on the chosen paths, as correlator and normalized value."""
    g, k = args.g, args.k
    if not 0 <= k <= 3 * g - 1:
        _diag(f"k must be in 0..{3 * g - 1} at genus {g}, got {k}")
        return EXIT_USAGE

    if args.method != "recursive":
        from . import closedform
        lam, s = closedform.two_point_closed(g, k)
    if args.method != "closed":
        from . import recursion
        unit, row = recursion.recursive_row(g, k)
        if args.method == "both" and s != row[k]:
            return _mismatch(g, k, (lam, s), (unit, row[k]))
        lam, s = unit, row[k]

    wn, wd = _weight(g, k)
    wd *= lam
    d = gcd(wn, wd)
    corr, norm = _ratio_str(s, _denominator(g, lam)), _ratio_str(s, wd // d, wn // d)
    if args.format == "csv":
        print(CSV_HEADER, f"{g},{k},{corr},{norm}", sep="\n")
    elif args.format == "json":
        import json
        print(json.dumps({"g": g, "k": k, "correlator": corr, "normalized": norm}))
    else:
        print(corr, norm, sep="\n")
    return EXIT_OK


def _write_table(g: int, lam: int, row: tuple[int, ...], fmt: str) -> None:
    """Write one integer genus row S(g, .) over lam = L(g) to stdout, a line as soon as it is made.

    w = W(k) / L(g) runs along the row in lowest terms, as wn / wd, by
    W(k+1) = W(k) (2k+3)/(6g-1-2k).  As W(k) = W(3g-1-k), an entry equal to its
    mirror reuses the texts kept for the first half.  json goes in pieces that
    join to json.dumps({"g": g, "rows": [...]}).
    """
    n = _denominator(g, lam)
    wn, wd = 1, lam
    write = sys.stdout.write
    if fmt == "json":
        import json
        write(f'{{"g": {g}, "rows": [')
    elif fmt == "csv":
        write(CSV_HEADER + "\n")
    sep = "," if fmt == "csv" else " "
    half = []
    for k, s in enumerate(row):
        m = 3 * g - 1 - k
        c, a = half[m] if m < k and row[m] == s else (_ratio_str(s, n), _ratio_str(s, wd, wn))
        if k <= m:
            half.append((c, a))
        if fmt == "json":
            write((", " if k else "") + json.dumps({"k": k, "correlator": c, "normalized": a}))
        else:
            write(f"{g}{sep}{k}{sep}{c}{sep}{a}\n")
        # the step ratio in lowest terms, then crosswise, as Fraction.__mul__ does
        up, down = 2 * k + 3, 6 * g - 1 - 2 * k
        e = gcd(up, down)
        up, down = up // e, down // e
        x, y = gcd(up, wd), gcd(down, wn)
        wn, wd = wn // y * (up // x), wd // x * (down // y)
    if fmt == "json":
        write("]}\n")


def table(args: SimpleNamespace) -> int:
    """``tau2 table``: one genus row on the chosen paths, one line per entry."""
    g = args.g
    start = perf_counter()
    if args.method == "closed":
        from . import closedform
        lam, row = closedform.two_point_closed(g)
    else:
        from . import recursion
        lam, row = recursion.recursive_row(g)
    ms = (perf_counter() - start) * 1000
    _diag(f"table: computed genus {g} ({args.method}) in {ms:.1f} ms")

    if args.method == "both":
        # rows are written only after both paths agree entry by entry
        from . import closedform
        start = perf_counter()
        unit, closed = closedform.two_point_closed(g)
        if closed != row:
            k = next(k for k, (c, r) in enumerate(zip(closed, row)) if c != r)
            return _mismatch(g, k, (unit, closed[k]), (lam, row[k]))
        ms = (perf_counter() - start) * 1000
        _diag(f"table: cross-checked genus {g} on both paths in {ms:.1f} ms")

    _write_table(g, lam, row, args.format)
    return EXIT_OK
