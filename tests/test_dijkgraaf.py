"""Both paths against Dijkgraaf's two-point function (``dijkgraaf.py``, beside this file).

The evaluator shares no code with tau2, so it checks the values at the
genera the benchmark runs, where the n-point oracle of ``test_recursion``
cannot reach.
"""

import ast
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dijkgraaf
import faults
import printed


def test_oracle_imports_nothing_from_tau2():
    # the row evaluator, and the renderer of the printed text that test_printed.py runs
    for oracle, imported in [(dijkgraaf, ["math"]), (printed, ["json", "fractions", "math"])]:
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert modules == imported, oracle.__name__


def test_both_full_rows_to_genus_60():
    # each path hands out L(g) = lcm(1, 3, ..., 2g+1) with its row
    for g in range(1, 61):
        row = lcm(*range(1, 2 * g + 2, 2)), dijkgraaf.row(g)
        assert row == faults.rows("recursive", g), g
        assert row == faults.rows("closed", g), g


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=61, max_value=400), st.data())
def test_closed_path_beyond_the_full_rows(g, data):
    k = data.draw(st.integers(min_value=0, max_value=3 * g - 1))
    assert dijkgraaf.two_point(g, k) == faults.rows("closed", g, k)[1]


@pytest.mark.parametrize("g,k", [(700, 1000), (1000, 300), (1000, 1499)])
def test_closed_path_at_large_genus(g, k):
    assert dijkgraaf.two_point(g, k) == faults.rows("closed", g, k)[1]


def test_cone_recursion_at_genus_1000():
    assert dijkgraaf.two_point(1000, 20) == faults.rows("recursive", 1000, 20)[1]
