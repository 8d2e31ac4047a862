"""The one seam between the tests and each path's row sources.

Tests read rows and plant faults through these functions, never through
``closedform.two_point_closed``, ``_rows`` or ``_t_half``, or
``recursion._int_rows``, ``genus_row``, ``recursive_row`` or ``_step_terms``
themselves (``test_seam.py`` guards that), so reshaping a source edits this
module alone.  A path is "closed" or "recursive", and every row is handed out
as (L(g), row); ``value`` turns an entry into the correlator it stands for.

Each fault is put in place with ``monkeypatch`` under every name a loaded tau2
module holds its function by (``bind_everywhere``), so no reader sees the real
one.  No path keeps a row between calls, so none computed before a fault hides
it and none computed under it outlives the test.
"""

from __future__ import annotations

import functools
import os
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from math import factorial

from tau2 import cli, closedform, combinatorics, recursion, verification


def rows(path: str, g: int, k: int | None = None) -> tuple:
    """(L(g), the full row S(g, .)) of genus g on ``path``; given k, (L(g), S(g, k)).

    On the recursion, S(g, k) is computed over the cone of (g, k) only.
    """
    if path == "closed":
        return closedform.two_point_closed(g, k)
    if k is None:
        return recursion.recursive_row(g)
    lam, prefix = recursion.recursive_row(g, k)
    return lam, prefix[k]


def value(g: int, lam: int, s: int) -> Fraction:
    """The correlator S(g, k) / N(g) that an integer entry s over lam = L(g) stands for."""
    return Fraction(s, 24**g * factorial(g) * lam)


def values(path: str, g: int, k: int | None = None):
    """``rows(path, g, k)`` as correlators: the row of them, or given k, the one entry."""
    lam, got = rows(path, g, k)
    return value(g, lam, got) if k is not None else tuple(value(g, lam, s) for s in got)


def normalized(path: str, g: int, k: int) -> Fraction:
    """a(g, k) = W(k) S(g, k) / L(g) on ``path``, from its integer entry S(g, k)."""
    lam, s = rows(path, g, k)
    return Fraction(*combinatorics._weight(g, k)) * Fraction(s, lam)


def step(g: int, below: tuple[int, ...], unit: int) -> tuple:
    """(L(g), S(g, .)) by one recursion step from S(g-1, .) over ``unit`` = L(g-1), g >= 2."""
    return recursion.genus_row(g, below, 3 * g - 1, unit)


def walk(path: str, g_max: int, k: int | None = None):
    """(L(g), S(g, .)) for g = 1..g_max in order on ``path``.

    Given k (on the recursion only), the rows of the cone of (g_max, k): the
    prefixes of rows max(1, g_max - k)..g_max that entry (g_max, k) reads.
    """
    if path == "recursive":
        return recursion._int_rows(g_max, k)
    assert k is None, "the closed walk has no cone"
    return closedform._rows(g_max)


def bind_everywhere(monkeypatch, real, replacement) -> list[str]:
    """Rebind every name a loaded tau2 module holds ``real`` by to ``replacement``.

    Returns the modules that held it, in name order, once per name.
    """
    holders = []
    for name, module in sorted(sys.modules.items()):
        if name == "tau2" or name.startswith("tau2."):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, replacement)
                    holders.append(name)
    return holders


def plant(monkeypatch, path: str, g: int, k: int, delta: int) -> None:
    """Every reader of ``path``'s rows sees S(g, k) + delta; nothing is computed from it.

    The closed path builds the first half of a row and mirrors it, so there
    the half-row entry min(k, 3g-1-k) moves, and with it S(g, k) and its
    mirror S(g, 3g-1-k).  On the recursion only entry (g, k) moves, in every
    row the walk yields, cone or full, and rows above g are built from the
    true one.
    """
    if path == "closed":
        real, m = closedform._t_half, min(k, 3 * g - 1 - k)

        def half(h, lam):
            for i, s in enumerate(real(h, lam)):
                yield s + delta * ((h, i) == (g, m))

        bind_everywhere(monkeypatch, real, half)
        return
    real_rows = recursion._int_rows

    def shifted(g_max, cone=None):
        first = 1 if cone is None else max(1, g_max - cone)
        for h, (lam, row) in enumerate(real_rows(g_max, cone), start=first):
            if h == g and k < len(row):
                row = (*row[:k], row[k] + delta, *row[k + 1 :])
            yield lam, row

    bind_everywhere(monkeypatch, real_rows, shifted)


def plant_built(monkeypatch, g: int, k: int, delta: int) -> None:
    """The recursion builds row g with S(g, k) + delta, where row g reaches k; rows above read it."""
    real = recursion.genus_row

    def built(h, below, last, unit):
        top, row = real(h, below, last, unit)
        if h == g and k < len(row):
            row = (*row[:k], row[k] + delta, *row[k + 1 :])
        return top, row

    bind_everywhere(monkeypatch, real, built)


def plant_step(monkeypatch, g: int, k: int, delta: int) -> list[str]:
    """The genus recursion's step to S(g, k) gains ``delta`` in its terms that do not read row g.

    That step is shared: the recursion and ``verify``'s residual-tau both run
    it.  Returns the modules that hold it.
    """
    real = recursion._step_terms

    def step(h, below, last, unit, top):
        for i, term in enumerate(real(h, below, last, unit, top), start=1):
            yield term + delta * ((h, i) == (g, k))

    return bind_everywhere(monkeypatch, real, step)


def plant_core(monkeypatch, g: int, k: int | None, times: int) -> None:
    """The closed form's s q(g, k) gains ``times`` s at genus g: at k, or at every k if k is None."""
    real = closedform._scaled_q

    def core(h, s):
        for i, sq in enumerate(real(h, s)):
            yield sq + times * s * (h == g and k in (None, i))

    bind_everywhere(monkeypatch, real, core)


def plant_unit(monkeypatch, g: int, factor: int) -> None:
    """The closed walk hands out factor L(g) as genus g's unit, with its true row."""
    real = closedform._rows

    def walked(g_max):
        for h, (lam, row) in enumerate(real(g_max), start=1):
            yield lam * factor ** (h == g), row

    bind_everywhere(monkeypatch, real, walked)


def break_unit(monkeypatch, g: int, delta: int) -> None:
    """The closed path telescopes genus g's half row from L(g) + delta in place of L(g)."""
    real = closedform._t_half
    bind_everywhere(monkeypatch, real, lambda h, lam: real(h, lam + delta * (h == g)))


def plant_in_walk(monkeypatch, name: str, values: dict) -> None:
    """``verify``'s walk reads values[(g, k)] in place of entry (g, k) of its row ``name``."""
    real = verification._rows

    def walked(g, need, *sources):
        out = real(g, need, *sources)
        out[name] = tuple(values.get((g, k), x) for k, x in enumerate(out[name]))
        return out

    monkeypatch.setattr(verification, "_rows", walked)


def replace_walk(monkeypatch, fn) -> None:
    """``fn`` stands in for the recursion's walk, which every recursive row comes from."""
    bind_everywhere(monkeypatch, recursion._int_rows, fn)


def count_builds(monkeypatch) -> dict[str, list[int]]:
    """Lists that fill as rows are built: "closed" the genus of each closed row,
    "recursive" the top genus of each recursive walk started.
    """
    built = {"closed": [], "recursive": []}
    half, walked = closedform._t_half, recursion._int_rows
    bind_everywhere(monkeypatch, half, lambda g, lam: built["closed"].append(g) or half(g, lam))
    bind_everywhere(
        monkeypatch, walked, lambda g_max, *k: built["recursive"].append(g_max) or walked(g_max, *k)
    )
    return built


def count_sources(monkeypatch) -> dict[str, int]:
    """Counts that grow at each call of ``closedform.two_point_closed`` and ``recursion.genus_row``.

    Keyed as the benchmark's tracer names its spans, "closedform.two_point_closed"
    and "recursion.genus_row": one closed row or entry, and one recursion step.
    """
    counts = {}
    for real in (closedform.two_point_closed, recursion.genus_row):
        span = f"{real.__module__.removeprefix('tau2.')}.{real.__name__}"
        counts[span] = 0

        def counted(*args, real=real, span=span):
            counts[span] += 1
            return real(*args)

        bind_everywhere(monkeypatch, real, counted)
    return counts


def count_sieves(monkeypatch) -> list[int]:
    """A list that gets n at each call of ``odd_lcm(n)`` by any tau2 module."""
    # load the modules that commands load lazily first, so that none binds the wrapper for good
    import tau2.bench  # noqa: F401
    import tau2.output  # noqa: F401

    real, calls = combinatorics.odd_lcm, []

    def counted(n):
        calls.append(n)
        return real(n)

    bind_everywhere(monkeypatch, real, counted)
    return calls


@functools.lru_cache(maxsize=None)
def traced_peak(argv: tuple[str, ...]) -> int:
    """The ``tracemalloc`` peak of ``cli.main(argv)``'s second run, with stdout going nowhere."""
    with open(os.devnull, "w") as null, redirect_stdout(null), redirect_stderr(StringIO()):
        assert cli.main(list(argv)) == 0
        tracemalloc.start()
        try:
            assert cli.main(list(argv)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
