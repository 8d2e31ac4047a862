"""Hash what the tau2 CLI prints, one line per command, to compare two checkouts.

    PYTHONPATH=<checkout>/src python3 tools/same_stdout.py > <name>.md5
    diff parent.md5 change.md5

Each line is ``md5 exit argv``.  ``tau2.cli.main`` runs in this interpreter,
for the checkout on ``PYTHONPATH``, with stdout captured and hashed, then
stderr after it, so every diagnostic counts: the exit-3 mismatch lines, the
size refusals, the ``--checks`` errors and argparse's messages.  ``table``
and ``verify`` write timings on stderr, so every ``<n> ms`` is masked before
hashing; ``bench`` is hashed on its ``g`` and ``max_bits`` columns only.
The commands cover every format and method wherever a command takes them:

- ``value`` at g = 0..30 and k = -1..3g; ``--method closed`` at five
  points past the 4300-digit int -> str limit or near it, among them
  (1000, 1499) and (1200, 1799), where value's weight in lowest terms
  changes its arithmetic most, and at g = 5000, past the benchmark's genera, with k at both ends of the row
  and at the middle; in plain format at g = 20000, k = 0 and k = 59999,
  where the closed source stopping at its entry saves the most; and
  ``--method recursive|both`` at g = 120 and 300 with k at both ends of
  the row, at g-1 and g, where the recursion's cone starts to skip rows,
  and at the middle;
- ``table`` at g = 0..40, 120 and 300, and ``--method closed`` at g = 1000;
- ``verify --g-max 0..40`` with every check, and ``--g-max 40`` with each
  check alone; ``verify --g-max 3`` with each ``--checks`` it refuses
  (``CHECKS_REFUSED``): an unknown name, one named twice, an empty name
  after a comma, and the empty string;
- ``bench --g-max 12`` and ``60`` on each method;
- one genus past each size limit (``LIMITS``), on each method whose count
  differs, each refused at once with one line on stderr, which is hashed
  too.  ``value`` on the recursion is refused at k = 3g-1, where its cone
  is the whole row and the row below; at k = 0 the cone is one entry, and
  ``value --g 4088 --k 0`` runs;
- argv that both the size refusal and a command's usage check refuse
  (``ORDER``), where the refusal's line is the one printed: ``value --g
  3532038 --k -1 --method closed`` and ``--g 4088 --k 12264 --method
  recursive``, an off-row k past the genus limit, and ``verify --g-max
  1318`` with ``--checks bogus`` and ``cross,cross``;
- ``--help``, and ``--help`` of each command in ``cli._COMMANDS``;
- argv that ``tau2.cli`` leaves to argparse (``FALLBACK``): a missing flag,
  ``--flag=value``, an abbreviation, a negative number, a flag of another
  command, ``-h``, no command and an unknown one.

Standard library only.  The sweep takes 12-22 s (Python 3.10-3.13, 2 vCPUs).
"""

from __future__ import annotations

import hashlib
import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import Iterator

from tau2 import cli

FORMATS = ("plain", "csv", "json")
METHODS = ("closed", "recursive", "both")
FALLBACK = (
    ["value", "--g", "2"], ["value", "--g=2", "--k=1"], ["table", "--form", "csv", "--g", "3"],
    ["value", "--g", "3", "--k", "-1"], ["table", "--g", "3", "--k", "1"], ["verify", "-h"],
    [], ["frob"],
)  # fmt: skip
CHECKS_REFUSED = ("bogus", "cross,cross", "cross,", "")


LIMITS = (
    ["table", "--g", "2489"], ["verify", "--g-max", "1318"],
    ["bench", "--g-max", "5646", "--method", "closed"],
    ["bench", "--g-max", "4089", "--method", "recursive"],
    ["bench", "--g-max", "3338", "--method", "both"],
    ["value", "--g", "3532038", "--k", "0", "--method", "closed"],
    ["value", "--g", "4088", "--k", "12263", "--method", "recursive"],
    ["value", "--g", "4088", "--k", "12263", "--method", "both"],
)  # fmt: skip
ORDER = (
    ["value", "--g", "3532038", "--k", "-1", "--method", "closed"],
    ["value", "--g", "4088", "--k", "12264", "--method", "recursive"],
    ["verify", "--g-max", "1318", "--checks", "bogus"],
    ["verify", "--g-max", "1318", "--checks", "cross,cross"],
)


def commands() -> Iterator[list[str]]:
    yield from FALLBACK
    yield ["--help"]
    for command in cli._COMMANDS:
        yield [command, "--help"]
    for g in range(31):
        for k in range(-1, 3 * g + 1):
            for method in METHODS:
                for fmt in FORMATS:
                    yield ["value", "--g", str(g), "--k", str(k), "--method", method, "--format", fmt]
    for g, k in ((700, 2000), (1000, 1499), (1000, 1500), (1200, 1799), (1100, 0), (5000, 0),
                 (5000, 7499), (5000, 14999)):
        for fmt in FORMATS:
            yield ["value", "--g", str(g), "--k", str(k), "--method", "closed", "--format", fmt]
    for k in (0, 59999):
        yield ["value", "--g", "20000", "--k", str(k), "--method", "closed"]
    for g in (120, 300):
        for k in sorted({0, 1, g - 1, g, (3 * g - 1) // 2, 3 * g - 1}):
            for method in METHODS[1:]:
                for fmt in FORMATS:
                    yield ["value", "--g", str(g), "--k", str(k), "--method", method, "--format", fmt]
    for g in (*range(41), 120, 300):
        for method in METHODS:
            for fmt in FORMATS:
                yield ["table", "--g", str(g), "--method", method, "--format", fmt]
    for fmt in FORMATS:
        yield ["table", "--g", "1000", "--method", "closed", "--format", fmt]
    for g_max in range(41):
        for fmt in FORMATS:
            yield ["verify", "--g-max", str(g_max), "--format", fmt]
    for name in cli._CHECKS:
        for fmt in FORMATS:
            yield ["verify", "--g-max", "40", "--checks", name, "--format", fmt]
    for checks in CHECKS_REFUSED:
        yield ["verify", "--g-max", "3", "--checks", checks]
    for g_max in (12, 60):
        for method in METHODS:
            yield ["bench", "--g-max", str(g_max), "--method", method]
    yield from LIMITS
    yield from ORDER


def digest(argv: list[str]) -> tuple[str, int]:
    """md5 of what ``argv`` prints (as the module docstring says) and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse, for --help and usage errors
            code = exc.code
    text = out.getvalue()
    if argv[:1] == ["bench"] and "--help" not in argv:
        # the timing columns change from run to run
        text = "".join(f"{line[0]}\t{line[-1]}\n" for line in map(str.split, text.splitlines()))
    text += "\0" + re.sub(r"\d+\.\d+ ms", "<n> ms", err.getvalue())
    return hashlib.md5(text.encode()).hexdigest(), code


def main() -> int:
    for argv in commands():
        md5, code = digest(argv)
        print(md5, code, " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
