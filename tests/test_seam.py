"""Tests reach each path's row sources through ``faults.py`` alone.

This reads every test module with ``ast`` and fails where one other than
``faults.py`` names a row source, public or private, by import, by attribute
or by a string (as ``monkeypatch.setattr`` takes it).  Without it the seam
would erode one test at a time, and reshaping a source would again port tests
all over the suite.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = {
    "two_point_closed", "_t_half", "genus_row", "_int_rows", "recursive_row", "_step_terms",
}  # fmt: skip
# tests of a source's own contract, which call it directly: the closed loop divides
# exactly over the unit it is handed, and the two row sources answer in one shape;
# and the tables of public names that the start-up tests check the package
# against, which name the public sources
ALLOWED = {
    "test_unit.py::test_closed_loop_is_exact_to_genus_300",
    "test_unit.py::test_closed_loop_is_exact_at_large_genera",
    "test_unit.py::test_row_sources_share_one_contract_to_genus_40",
    "test_startup.py::PUBLIC",
    "test_startup.py::TRACED",
}


def named_sources(source: str, filename: str) -> list[tuple[str, int, str]]:
    """(``file::Class::test`` scope, line, name) for each place ``source`` names a row source.

    A module-level assignment to one name is a scope too, ``file::NAME``.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}::{node.name}"
        elif scope == filename and isinstance(node, ast.Assign) and len(node.targets) == 1:
            if isinstance(node.targets[0], ast.Name):
                scope = f"{scope}::{node.targets[0].id}"
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
        "from tau2.closedform import b_value, two_point_closed",
        "closedform._t_half(3, 7)",
        "x = recursion.recursive_row",
        "lam, s = closedform.two_point_closed(3, 1)",
        'monkeypatch.setattr(recursion, "_step_terms", step)',
        'monkeypatch.setattr(recursion, "genus_row", built)',
        "def test_it():\n    tau2.closedform._t_half(2, 5)",
        "class TestIt:\n    def test_it(self):\n        recursion.genus_row(2, (3, 3, 3), 5, 3)",
        'PUBLIC = {"recursive_row"}',
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


def test_guard_allows_the_tables_of_public_names_by_name():
    ((scope, _, _),) = named_sources('TRACED = {"recursion": ("genus_row",)}', "test_startup.py")
    assert allowed(scope)
    ((scope, _, _),) = named_sources('NAMES = {"genus_row"}', "test_startup.py")
    assert not allowed(scope)
    ((scope, _, _),) = named_sources('PUBLIC = {"genus_row"}', "test_cli.py")
    assert not allowed(scope)
