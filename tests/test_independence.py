"""The recursive and the closed path share no code.

Cross-path equality only means something while neither path can reach the
other.  This reads the imports of ``recursion.py`` and ``closedform.py`` with
``ast`` and fails if either names the other, directly or through the ``tau2``
package, which re-exports both.
"""

import ast
from pathlib import Path

import pytest

from tau2 import closedform, recursion

PATHS = {"recursion": recursion, "closedform": closedform}


def reaches(source: str, other: str) -> bool:
    """True if the imports in ``source`` (a module of tau2) can reach ``other``."""
    via_package = set(PATHS[other].__all__) | {other, "*"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "tau2" or alias.name.startswith(f"tau2.{other}"):
                    return True
        elif isinstance(node, ast.ImportFrom):
            # relative imports inside the package resolve against tau2
            parts = ["tau2"] if node.level else []
            module = ".".join(parts + ([node.module] if node.module else []))
            if module == f"tau2.{other}" or module.startswith(f"tau2.{other}."):
                return True
            if module == "tau2" and any(a.name in via_package for a in node.names):
                return True
    return False


@pytest.mark.parametrize("name,other", [("recursion", "closedform"), ("closedform", "recursion")])
def test_paths_do_not_import_each_other(name, other):
    source = Path(PATHS[name].__file__).read_text(encoding="utf-8")
    assert not reaches(source, other)


@pytest.mark.parametrize(
    "line",
    [
        "from .closedform import two_point_closed",
        "from . import closedform",
        "from . import two_point_closed",
        "import tau2.closedform",
        "import tau2",
        "from tau2 import b_value",
        "from tau2.closedform import normalize",
    ],
)
def test_guard_catches_every_import_form(line):
    assert reaches(line, "closedform")


def test_guard_allows_shared_combinatorics():
    assert not reaches("from .combinatorics import double_factorial_odd", "closedform")
    assert not reaches("from tau2 import odd_lcm", "closedform")
