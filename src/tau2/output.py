"""The ``value`` and ``table`` commands: integer entries S(g, k) up to their printed text.

``value`` and ``table`` are the two commands' bodies, and return 0 or 3.
``cli.main`` imports this module only to call one of them, once it has
refused what is off the row, so ``--help``, usage errors, ``verify`` and
``bench`` neither compile nor load it.  Each reads the paths through one
reader, ``_read``, in one order: its method's path, the recursion on
``both``, and there the closed path after it, to compare; ``_mismatch``
reports the first entry that ``combinatorics._differences`` lists.  An
entry stays an integer until it becomes text, over the L(g) handed out with
it: the correlator is S / N(g) and the normalized value W(k) S / L(g), each
reduced to lowest terms by ``combinatorics._ratio_str``; no ``Fraction`` is
built.  With W(k) / L(g) = wn / wd in lowest terms, S wn / wd cancels
crosswise, as ``Fraction.__mul__`` does: one gcd of S and wd, and none with
wn, which ``_ratio_str`` takes as its factor c.  ``table`` steps wn / wd
along its row by ``combinatorics._weights``, whose steps ``verify`` checks,
and ``value`` asks ``_weight`` for the same pair at its entry.
"""

from __future__ import annotations

import sys
from time import perf_counter

from .cli import EXIT_MISMATCH, EXIT_OK, _diag
from .combinatorics import _denominator, _differences, _ratio_str, _weight, _weights

CSV_HEADER = "g,k,correlator,normalized"


def _mismatch(g: int, closed: tuple, recursive: tuple, k: int = 0) -> int:
    """Report the first entry where the paths' (L(g), row) differ, rows from entry k; exit 3."""
    scale, [(j, r, c), *_] = _differences(g, closed, recursive)
    c, r = _ratio_str(c, scale), _ratio_str(r, scale)
    _diag(f"path mismatch at ({g},{k + j}): closed {c}, recursive {r}")
    return EXIT_MISMATCH


def _read(method: str, g: int, k: int | None = None) -> tuple:
    """(L(g), S(g, .)), or given k, (L(g), S(g, k)), on the closed path or on the recursion."""
    if method == "closed":
        from . import closedform
        return closedform.two_point_closed(g, k)
    from . import recursion
    return recursion.recursive_row(g, k)


def value(args: SimpleNamespace) -> int:
    """``tau2 value``: one entry on the chosen paths, as correlator and normalized value."""
    g, k = args.g, args.k
    lam, s = _read(args.method, g, k)
    if args.method == "both" and (closed := _read("closed", g, k)) != (lam, s):
        return _mismatch(g, (closed[0], closed[1:]), (lam, (s,)), k)  # one-entry rows at k

    wn, wd = _weight(g, k, 1, lam)
    corr, norm = _ratio_str(s, _denominator(g, lam)), _ratio_str(s, wd, wn)
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

    W(k) / L(g) = wn / wd in lowest terms comes from ``_weights``.  As
    W(k) = W(3g-1-k), an entry equal to its mirror reuses the texts kept for the
    first half.  json goes in pieces that join to json.dumps({"g": g, "rows": [...]}).
    """
    n = _denominator(g, lam)
    write = sys.stdout.write
    if fmt == "json":
        import json
        write(f'{{"g": {g}, "rows": [')
    elif fmt == "csv":
        write(CSV_HEADER + "\n")
    sep = "," if fmt == "csv" else " "
    half = []
    for k, (s, (wn, wd)) in enumerate(zip(row, _weights(g, 1, lam))):
        m = 3 * g - 1 - k
        c, a = half[m] if m < k and row[m] == s else (_ratio_str(s, n), _ratio_str(s, wd, wn))
        if k <= m:
            half.append((c, a))
        if fmt == "json":
            write((", " if k else "") + json.dumps({"k": k, "correlator": c, "normalized": a}))
        else:
            write(f"{g}{sep}{k}{sep}{c}{sep}{a}\n")
    if fmt == "json":
        write("]}\n")


def table(args: SimpleNamespace) -> int:
    """``tau2 table``: one genus row on the chosen paths, one line per entry."""
    g = args.g
    start = perf_counter()
    lam, row = _read(args.method, g)
    ms = (perf_counter() - start) * 1000
    _diag(f"table: computed genus {g} ({args.method}) in {ms:.1f} ms")

    if args.method == "both":
        # rows are written only after both paths agree on the unit and entry by entry
        start = perf_counter()
        if (closed := _read("closed", g)) != (lam, row):
            return _mismatch(g, closed, (lam, row))
        ms = (perf_counter() - start) * 1000
        _diag(f"table: cross-checked genus {g} on both paths in {ms:.1f} ms")

    _write_table(g, lam, row, args.format)
    return EXIT_OK
