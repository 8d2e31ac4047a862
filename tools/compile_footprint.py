"""Peak memory of compiling each tau2 module, and the module that sets each command's peak.

    python3 tools/compile_footprint.py

With ``PYTHONDONTWRITEBYTECODE=1`` no ``.pyc`` is kept, so a job compiles
every tau2 module it imports from source.  Compiling takes memory for a
moment, and that memory is a measured share of a short job's peak RSS; the
rest of the peak also depends on whether the memory freed after the compiles
goes back to the operating system, which this tool does not show.

The first table is, for each module under ``src/tau2`` of this checkout, the
peak that ``tracemalloc`` records while ``compile()`` runs on its source.
The second runs one argv per command and method in a fresh interpreter,
through ``tau2.cli.main``, and lists the tau2 modules it loaded and the
largest footprint among them.  1 KB is 1024 bytes.  Standard library only.
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
)
PROBE = """
import sys
from tau2 import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print(*sorted(m for m in sys.modules if m.partition(".")[0] == "tau2"), file=sys.stderr)
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


def loaded(argv: list[str]) -> list[str]:
    """The tau2 modules that ``argv`` loads, by file name."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, check=True,
    )  # fmt: skip
    names = proc.stderr.splitlines()[-1].split()
    return [("__init__" if name == "tau2" else name.split(".", 1)[1]) + ".py" for name in names]


def main() -> int:
    sizes = {path.name: footprint(path) for path in sorted(PACKAGE.glob("*.py"))}
    print("| module | compile peak |\n|---|---|")
    for name, size in sorted(sizes.items(), key=lambda item: -item[1]):
        print(f"| `{name}` | {size / 1024:.0f} KB |")
    print("\n| argv | tau2 modules loaded | largest compile |\n|---|---|---|")
    for argv in ARGV:
        names = loaded(argv)
        top = max(names, key=sizes.__getitem__)
        listed = ", ".join(f"`{name}`" for name in names)
        print(f"| `{' '.join(argv)}` | {listed} | `{top}`, {sizes[top] / 1024:.0f} KB |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
