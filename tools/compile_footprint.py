"""Peak memory of compiling each tau2 module, and the module that sets each command's peak.

    python3 tools/compile_footprint.py

With ``PYTHONDONTWRITEBYTECODE=1`` no ``.pyc`` is kept, so a job compiles
every tau2 module it imports from source.  Compiling takes memory for a
moment, and that memory is a measured share of a short job's peak RSS; the
rest of the peak also depends on whether the memory freed after the compiles
goes back to the operating system, which this tool does not show.

The first table is, for each module under ``src/tau2`` of this checkout, the
peak that ``tracemalloc`` records while ``compile()`` runs on its source.
The second runs one argv per command and method, and one usage error of
each command that has a usage check (an exit 2 that loads no body), in a
fresh ``python -S``, through ``tau2.cli.main``, and lists the tau2 modules
it loaded, the largest footprint among them, and the standard-library
modules it loaded beyond a bare ``python -S``: the top-level public ones
by name (``__future__`` among them), with the count of all, private
modules (``_collections``) and submodules included.  Without ``site``, no
``.pth`` file loads a module first and so hides that a command loads it.
1 KB is 1024 bytes.  Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "tau2"
ARGV = (
    ["--help"],
    *(["value", "--g", "3", "--k", "1", "--method", m] for m in ("closed", "recursive", "both")),
    *(["table", "--g", "3", "--method", m] for m in ("closed", "recursive", "both")),
    ["verify", "--g-max", "3"],
    *(["bench", "--g-max", "2", "--method", m] for m in ("closed", "recursive", "both")),
    # a usage error of each command that has a usage check, refused before its body loads
    ["value", "--g", "3", "--k", "99"],
    ["verify", "--g-max", "3", "--checks", "bogus"],
)
PROBE = """
import sys
try:
    if sys.argv[1:]:
        from tau2 import cli
        cli.main(sys.argv[1:])
except SystemExit:
    pass
print(*sorted(sys.modules), file=sys.stderr)
"""


def footprint(path: Path) -> int:
    """Peak bytes that ``tracemalloc`` records while ``compile()`` runs on ``path``'s source."""
    source = path.read_bytes()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec", dont_inherit=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def loaded(argv: list[str]) -> set[str]:
    """The modules in ``sys.modules`` after ``python -S`` runs ``argv`` (none: a bare one)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, check=True,
    )  # fmt: skip
    return set(proc.stderr.splitlines()[-1].split())


def main() -> int:
    sizes = {path.name: footprint(path) for path in sorted(PACKAGE.glob("*.py"))}
    print("| module | compile peak |\n|---|---|")
    for name, size in sorted(sizes.items(), key=lambda item: -item[1]):
        print(f"| `{name}` | {size / 1024:.0f} KB |")
    print("\n| argv | tau2 modules loaded | largest compile | stdlib beyond `python -S` |")
    print("|---|---|---|---|")
    bare = loaded([])
    for argv in ARGV:
        modules = loaded(argv) - bare
        ours = sorted(m for m in modules if m.partition(".")[0] == "tau2")
        names = [("__init__" if m == "tau2" else m.split(".", 1)[1]) + ".py" for m in ours]
        top = max(names, key=sizes.__getitem__)
        listed = ", ".join(f"`{name}`" for name in names)
        others = sorted(modules - set(ours))
        public = [m for m in others if "." not in m and (m[0] != "_" or m[:2] == "__")]
        stdlib = f"{', '.join(f'`{m}`' for m in public)} ({len(others)} in all)"
        print(f"| `{' '.join(argv)}` | {listed} | `{top}`, {sizes[top] / 1024:.0f} KB | {stdlib} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
