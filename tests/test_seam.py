"""Tests reach each path's private row sources through ``faults.py`` alone.

This reads every test module with ``ast`` and fails where one other than
``faults.py`` names a row source, by import, by attribute or by a string (as
``monkeypatch.setattr`` takes it).  Without it the seam would erode one test at
a time, and reshaping a source would again port tests all over the suite.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = {"_row", "_rows", "_t_half", "_int_row", "_int_rows", "_last_row", "_step_terms"}
# tests of a source's own contract, which call it directly: the closed loop divides
# exactly over the unit it is handed
ALLOWED = {
    "test_unit.py::test_closed_loop_is_exact_to_genus_300",
    "test_unit.py::test_closed_loop_is_exact_at_large_genera",
}


def named_sources(source: str, filename: str) -> list[tuple[str, int, str]]:
    """(``file::Class::test`` scope, line, name) for each place ``source`` names a row source."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}::{node.name}"
        names = []
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        found.extend((scope, node.lineno, name) for name in names if name in SOURCES)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), filename)
    return found


def allowed(scope: str) -> bool:
    return any(scope == test or scope.startswith(f"{test}::") for test in ALLOWED)


def test_only_the_helper_names_a_row_source():
    found = [
        hit
        for path in sorted(TESTS.glob("*.py"))
        if path.name not in ("faults.py", "test_seam.py")
        for hit in named_sources(path.read_text(encoding="utf-8"), path.name)
    ]
    assert [hit for hit in found if not allowed(hit[0])] == []
    # each allowed test still reads a source itself, or it leaves the list
    assert {scope for scope, _, _ in found} == ALLOWED


@pytest.mark.parametrize(
    "line",
    [
        "from tau2.recursion import _int_rows",
        "from tau2.closedform import a_closed, _row",
        "closedform._rows(3)",
        "x = recursion._last_row",
        'monkeypatch.setattr(recursion, "_step_terms", step)',
        "def test_it():\n    tau2.closedform._t_half(2, 5)",
        "class TestIt:\n    def test_it(self):\n        recursion._int_row(2, (3, 3, 3), 5, 3)",
    ],
)
def test_guard_catches_every_form(line):
    assert named_sources(line, "test_x.py")


def test_guard_allows_the_contract_tests_and_other_names():
    source = "def test_closed_loop_is_exact_to_genus_300():\n    closedform._t_half(2, 5)"
    ((scope, _, _),) = named_sources(source, "test_unit.py")
    assert allowed(scope)
    assert not allowed("test_unit.py::test_closed_loop_is_exact_to_genus_3000")
    assert named_sources("_rows(3)\nverification._run(['cross'], 2)\ncached._row_count", "t.py") == []
