"""What ``table`` and ``value`` print, byte for byte, against an oracle sharing no code with tau2.

The expected text is ``printed.py``'s, from Dijkgraaf's rows (``dijkgraaf.py``).
Neither module imports tau2 (``test_dijkgraaf.py`` checks both), so a fault
in the unit N(g), the weights W(k), the text rule or the line format, which
every path prints through alike, shows here: a failed sweep names the first
(g, k, column) that differs.
"""

import functools
from contextlib import redirect_stderr
from io import StringIO

import pytest

import dijkgraaf
import faults
import printed
from tau2 import cli, combinatorics, output

GENERA = [*range(1, 41), 120]
METHODS = ("closed", "recursive", "both")
FORMATS = ("plain", "csv", "json")
# every entry of the small genera, and the ends and the middle of genus 120's row
VALUE_ENTRIES = [(g, k) for g in range(1, 9) for k in range(3 * g)] + [
    (120, k) for k in (0, 1, 179, 359)
]


@functools.lru_cache(maxsize=None)
def oracle_row(g: int) -> tuple[int, ...]:
    return dijkgraaf.row(g)


@functools.lru_cache(maxsize=None)
def oracle_table(g: int, fmt: str) -> str:
    return printed.table(g, oracle_row(g), fmt)


def printed_by(capsys, *argv) -> str:
    with redirect_stderr(StringIO()):
        assert cli.main(list(argv)) == 0, argv
    return capsys.readouterr().out


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


def sweep_table(capsys, method: str, fmt: str) -> str | None:
    """The first difference of ``table`` on ``method`` and ``fmt`` over GENERA, or None."""
    for g in GENERA:
        got = printed_by(capsys, "table", "--g", str(g), "--method", method, "--format", fmt)
        want = oracle_table(g, fmt)
        if got != want:
            return first_difference(got, want, fmt, "table", g)
    return None


def sweep_value(capsys, method: str, fmt: str) -> str | None:
    """The first difference of ``value`` on ``method`` and ``fmt`` at VALUE_ENTRIES, or None."""
    for g, k in VALUE_ENTRIES:
        argv = ("value", "--g", str(g), "--k", str(k), "--method", method, "--format", fmt)
        got = printed_by(capsys, *argv)
        want = printed.value(g, k, oracle_row(g)[k], fmt)
        if got != want:
            return first_difference(got, want, fmt, "value", g, k)
    return None


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("method", METHODS)
def test_table_prints_the_oracle_text(capsys, method, fmt):
    assert sweep_table(capsys, method, fmt) is None


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("method", METHODS)
def test_value_prints_the_oracle_text(capsys, method, fmt):
    assert sweep_value(capsys, method, fmt) is None


class TestTheSweepNamesAFault:
    """A fault in what both paths print through fails the sweep at its first cell."""

    def test_in_the_weights(self, capsys, monkeypatch):
        # value's W(k) one too large in its numerator at genus 3; table steps W itself
        real = combinatorics._weight

        def weight(g, k, wn=1, wd=1):
            n, d = real(g, k, wn, wd)
            return n + (g == 3), d

        faults.bind_everywhere(monkeypatch, real, weight)
        assert sweep_table(capsys, "closed", "plain") is None
        found = sweep_value(capsys, "closed", "csv")
        assert found == "first difference at (3, 0, 'normalized'): printed '2', expected '1'"

    def test_in_the_stepped_weights(self, capsys, monkeypatch):
        # table's stepped W(2) doubled at genus 3; value multiplies its W out itself
        faults.plant_weight(monkeypatch, 3, 2, 2)
        assert sweep_value(capsys, "closed", "csv") is None
        found = sweep_table(capsys, "closed", "plain")
        assert found == "first difference at (3, 2, 'normalized'): printed '154/85', expected '77/85'"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_in_the_denominator(self, capsys, monkeypatch, fmt):
        # N(g) twice as large from genus 40 on: every correlator halves
        real = combinatorics._denominator
        faults.bind_everywhere(monkeypatch, real, lambda g, lam: real(g, lam) * (1 + (g >= 40)))
        found = sweep_table(capsys, "closed", fmt)
        assert found.startswith("first difference at (40, 0, 'correlator'): ")

    def test_in_the_line_format(self, capsys, monkeypatch):
        monkeypatch.setattr(output, "CSV_HEADER", "g,k,correlator,normalised")
        found = sweep_table(capsys, "closed", "csv")
        assert found.startswith("genus 1: same cells, bytes differ from offset 22: 'sed\\n1,0,")
