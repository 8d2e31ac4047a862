"""What ``table`` and ``value`` print, byte for byte, against an oracle sharing no code with tau2.

The expected text is ``printed.py``'s, from Dijkgraaf's rows (``dijkgraaf.py``).
Neither module imports tau2 (``test_dijkgraaf.py`` checks both), so a fault
in the unit N(g), the weights W(k), the text rule or the line format, which
every path prints through alike, shows here: a failed sweep names the first
(g, k, column) that differs.

The sweep runs ``table`` on every method and format at g <= 40 and g = 120,
and ``value`` at every entry of g <= 8 and at five entries of g = 120; a
hypothesis draw takes ``value`` past that, to g = 400 on the closed path and
g = 150 on the others.  It is the one guard of printed text up to g = 120: the
md5 pins at g = 200, 700, 1000 and 1200 in ``test_cli.py`` cover the rest.  A
print-format change therefore edits ``printed.py`` and those pins only.
"""

import functools
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dijkgraaf
import faults
import printed
from tau2 import cli, combinatorics, output

GENERA = [*range(1, 41), 120]
METHODS = ("closed", "recursive", "both")
FORMATS = ("plain", "csv", "json")
# every entry of the small genera, and the two ends, the entries next to them and the
# middle of genus 120's row
VALUE_ENTRIES = {g: range(3 * g) for g in range(1, 9)} | {120: (0, 1, 179, 358, 359)}


@functools.lru_cache(maxsize=None)
def oracle_row(g: int) -> tuple[int, ...]:
    return dijkgraaf.row(g)


@functools.lru_cache(maxsize=None)
def oracle_table(g: int, fmt: str) -> str:
    return printed.table(g, oracle_row(g), fmt)


def printed_by(*argv) -> tuple[str, str]:
    """What ``cli.main(argv)`` writes to stdout and to stderr; it must exit 0."""
    with redirect_stdout(StringIO()) as out, redirect_stderr(StringIO()) as err:
        assert cli.main(list(argv)) == 0, argv
    return out.getvalue(), err.getvalue()


def first_difference(got: str, want: str, fmt: str, command: str, g: int, k: int = 0) -> str:
    """Where ``got`` first differs from ``want``: the (g, k, column) of a cell, or the bytes."""
    have, expected = printed.parse(got, fmt, command), printed.parse(want, fmt, command)
    for i, cell in enumerate(expected):
        other = have[i] if i < len(have) else (None,) * len(cell)
        for column, w, h in zip(printed.COLUMNS, cell, other):
            if w != h:
                at = (g, k if command == "value" else i, column)
                return f"first difference at {at}: printed {h!r}, expected {w!r}"
    start = next(i for i, (a, b) in enumerate(zip(got + "\0", want + "\0")) if a != b)
    return f"genus {g}: same cells, bytes differ from offset {start}: {got[start:start + 40]!r}"


def sweep_table(method: str, fmt: str) -> str | None:
    """The first difference of ``table`` on ``method`` and ``fmt`` over GENERA, or None."""
    for g in GENERA:
        got, _ = printed_by("table", "--g", str(g), "--method", method, "--format", fmt)
        want = oracle_table(g, fmt)
        if got != want:
            return first_difference(got, want, fmt, "table", g)
    return None


def value_difference(g: int, k: int, s: int, method: str, fmt: str) -> str | None:
    """Where ``value`` at (g, k) on ``method`` and ``fmt`` first differs from the oracle's text
    for S(g, k) = s, or what it wrote to stderr, which should stay empty; None if neither."""
    argv = ("value", "--g", str(g), "--k", str(k), "--method", method, "--format", fmt)
    got, err = printed_by(*argv)
    want = printed.value(g, k, s, fmt)
    if got != want:
        return first_difference(got, want, fmt, "value", g, k)
    return f"value at {(g, k)} wrote {err!r} to stderr" if err else None


def sweep_value(method: str, fmt: str, genera=VALUE_ENTRIES) -> str | None:
    """The first difference of ``value`` on ``method`` and ``fmt`` at the VALUE_ENTRIES of
    ``genera``, or None."""
    for g in genera:
        for k in VALUE_ENTRIES[g]:
            if found := value_difference(g, k, oracle_row(g)[k], method, fmt):
                return found
    return None


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("method", METHODS)
def test_table_prints_the_oracle_text(method, fmt):
    assert sweep_table(method, fmt) is None


# one case a genus, so a fault reports each genus it reaches, not only the first
@pytest.mark.parametrize("g", VALUE_ENTRIES)
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("method", METHODS)
def test_value_prints_the_oracle_text(method, fmt, g):
    assert sweep_value(method, fmt, [g]) is None


# past the sweep's genus 120: closed to 400, the recursion, whose cone costs up to 50 ms
# an entry at genus 150, to 150; 20 examples a method took 0.9-1.4 s in all over five
# seeds (Python 3.11, 2 vCPUs)
@pytest.mark.parametrize("method,g_max", [("closed", 400), ("recursive", 150), ("both", 150)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_drawn_value_prints_the_oracle_text(method, g_max, data):
    g = data.draw(st.integers(min_value=1, max_value=g_max), label="g")
    k = data.draw(st.integers(min_value=0, max_value=3 * g - 1), label="k")
    s = dijkgraaf.two_point(g, k)
    for fmt in FORMATS:
        assert value_difference(g, k, s, method, fmt) is None


class TestTheSweepNamesAFault:
    """A fault in what both paths print through fails the sweep at its first cell."""

    def test_in_the_weights(self, monkeypatch):
        # value's W(k) one too large in its numerator at genus 3; table steps W itself
        real = combinatorics._weight

        def weight(g, k, wn=1, wd=1):
            n, d = real(g, k, wn, wd)
            return n + (g == 3), d

        faults.bind_everywhere(monkeypatch, real, weight)
        assert sweep_table("closed", "plain") is None
        found = sweep_value("closed", "csv")
        assert found == "first difference at (3, 0, 'normalized'): printed '2', expected '1'"

    def test_in_the_stepped_weights(self, monkeypatch):
        # table's stepped W(2) doubled at genus 3; value multiplies its W out itself
        faults.plant_weight(monkeypatch, 3, 2, 2)
        assert sweep_value("closed", "csv") is None
        found = sweep_table("closed", "plain")
        assert found == "first difference at (3, 2, 'normalized'): printed '154/85', expected '77/85'"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_in_the_denominator(self, monkeypatch, fmt):
        # N(g) twice as large from genus 40 on: every correlator halves
        real = combinatorics._denominator
        faults.bind_everywhere(monkeypatch, real, lambda g, lam: real(g, lam) * (1 + (g >= 40)))
        found = sweep_table("closed", fmt)
        assert found.startswith("first difference at (40, 0, 'correlator'): ")

    def test_in_the_line_format(self, monkeypatch):
        monkeypatch.setattr(output, "CSV_HEADER", "g,k,correlator,normalised")
        found = sweep_table("closed", "csv")
        assert found.startswith("genus 1: same cells, bytes differ from offset 22: 'sed\\n1,0,")
