"""Command-line front end for the two-point correlator library.

Four subcommands: ``value`` (one correlator, default cross-checked on both
computation paths), ``table`` (one full genus row, default closed form,
written line by line), ``verify`` (the exact check suite), and ``bench``
(wall time and value bit-size per genus for either path).  This module holds
the command table ``_COMMANDS``, its two readers ``_parse`` and
``_build_parser``, ``main``, ``run`` and the exit codes, and no command's
body.  A command's row is all this module knows of it: help line, flags,
the module of its body (the function named after the command), what it
holds, and its usage check.  ``main`` imports that module only to call the
body, so a job compiles only what its command runs.

``main`` reads argv of the plain form ``command --flag value ...`` itself
(``_parse``), so a well-formed command never imports ``argparse``.  Any
other argv (``--help``, ``--flag=value``, abbreviations, usage errors) goes
to the parser that ``_build_parser`` builds from ``_COMMANDS`` (importing
``argparse`` only then); it prints the help and the errors and exits as
argparse does.  Both hand the command the same attributes.  Every other
exit 2 ``main`` decides before the body's module loads: the one refusal of a
genus too large to hold, by the counts of the row, then the row's check
(``value``'s off-row ``--k``, ``verify``'s ``--checks``).

Data goes to stdout, every diagnostic and timing goes to stderr.  Exit codes
are a stable contract: 0 success, 1 verification failure, 2 usage or range
error (a genus too large to hold included), 3 mismatch between the two
computation paths, 4 internal error (any other exception, one line on stderr;
a failed write names stdout), 130 an interrupt (one line on stderr).  A
reader that closes stdout early ends the command quietly with the code it had
reached: 0, or ``verify``'s 1.

Values past Python's default int -> str digit limit are printed in full: the
limit is lifted while a command runs, and kept while argv is parsed.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from types import SimpleNamespace

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130

_CHECKS = ("cross", "symmetry", "bounds", "residual-tau", "residual-a", "residual-b")
_METHODS = ("closed", "recursive", "both")
_FORMATS = ("plain", "csv", "json")
_REQUIRED = object()

# command: (help line, {flag: (int, str or the choices; the default or _REQUIRED; help)},
#   the module of its body (the function named after the command), then, of the parsed args,
#   what it holds in the counts of combinatorics._genus_error and the usage error or None)
# value holds a dozen numbers, a text pair, and on the recursion the cone of (g, k), 2k+2
# entries (two rows of 3g for a k out of range); table two rows and the first half's text
# pairs; bench at the top genus the closed row, and the recursion's row and the row below;
# verify S on both paths, then P, the one-point terms, A and B (wide), at genera g-1 and g
_COMMANDS = {
    "value": ("one correlator and its normalized form", {
        "--g": (int, _REQUIRED, "genus, >= 1"),
        "--k": (int, _REQUIRED, "first index, 0..3g-1"),
        "--method": (_METHODS, "both", None),
        "--format": (_FORMATS, "plain", None),
    }, "output", lambda a: (
        12 + (a.method != "closed") * 2 * (a.k + 1 if 0 <= a.k < 3 * a.g else 3 * a.g), 1, 0
    ), lambda a: import_module(f"{__package__}.combinatorics")._entry_error(a.g, a.k)),
    "table": ("full row k = 0..3g-1 at one genus", {
        "--g": (int, _REQUIRED, "genus, >= 1"),
        "--method": (_METHODS, "closed", None),
        "--format": (_FORMATS, "plain", None),
    }, "output", lambda a: (6 * a.g, (3 * a.g + 1) // 2, 0), None),
    "verify": ("run the exact cross-check suite", {
        "--g-max": (int, _REQUIRED, "top genus, >= 1"),
        "--checks": (str, None, f"comma list from: {', '.join(_CHECKS)}"),
        "--format": (_FORMATS, "plain", None),
    }, "verification", lambda a: (12 * a.g_max, 0, 24 * a.g_max),
        lambda a: _selection(a.checks)[1]),
    "bench": ("time both computation paths per genus", {
        "--g-max": (int, _REQUIRED, "top genus, >= 1"),
        "--method": (_METHODS, "both", None),
    }, "bench", lambda a: (
        3 * a.g_max * {"closed": 1, "recursive": 2, "both": 3}[a.method], 0, 0
    ), None),
}  # fmt: skip


def _drop(stream) -> None:
    """Point ``stream``'s descriptor at /dev/null, so what it still buffers goes nowhere at exit."""
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), stream.fileno())


def _diag(message: str) -> None:
    try:
        print(message, file=sys.stderr)
    except OSError:  # stderr refuses the line: drop it, and leave the exit code to tell
        _drop(sys.stderr)


def _selection(checks: str | None) -> tuple[list[str], str | None]:
    """The checks ``--checks`` names, in order (default all), and its usage error or None."""
    names = list(_CHECKS) if checks is None else [c.strip() for c in checks.split(",")]
    if unknown := ", ".join(repr(c) for c in names if c not in _CHECKS):
        return names, f"unknown checks: {unknown} (valid: {', '.join(_CHECKS)})"
    if len(set(names)) < len(names):
        return names, f"each check may be named once, got --checks {checks}"
    return names, None


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` as ``_build_parser().parse_args`` reads it, or None to leave it to argparse.

    Only the plain form is read here: a command, then flags spelled in full,
    each followed by one value that does not start with "-".  A repeated
    flag keeps its last value.  Anything else (``-h``, ``--g=3``, an
    abbreviated or unknown flag, a negative number, a missing or invalid
    value) returns None, so argparse prints its help or its error.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    flags = _COMMANDS[argv[0]][1]
    # every occurrence is checked, as argparse does, not only the last of a repeated flag
    given = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in flags or value.startswith("-"):
            return None
        kind = flags[flag][0]
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, (_, default, _) in flags.items():
        value = given.get(flag, default)
        if value is _REQUIRED:
            return None
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def _build_parser():
    """The argparse form of ``_COMMANDS``, for ``--help`` and the argv ``_parse`` leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tau2",
        description="Exact two-point correlators of 2D topological gravity, "
        "computed by genus recursion and by closed form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags, *_) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=help_line)
        for flag, (kind, default, text) in flags.items():
            choices = kind if isinstance(kind, tuple) else None
            subparser.add_argument(
                flag, type=None if choices else kind, choices=choices,
                required=default is _REQUIRED,
                default=None if default is _REQUIRED else default, help=text,
            )  # fmt: skip
    return parser


def main(argv: list[str] | None = None) -> int:
    # sys.set_int_max_str_digits exists from Python 3.11 (and patched 3.10)
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    args = SimpleNamespace(command="tau2")  # the name an interrupt gives until argv is read
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _parse(argv) or SimpleNamespace(**vars(_build_parser().parse_args(argv)))
        _, flags, module, holds, check = _COMMANDS[args.command]
        name = next(iter(flags))[2:]  # the genus flag, g or g-max
        g = getattr(args, name.replace("-", "_"))
        from .combinatorics import _genus_error
        # the usage errors argparse leaves, the size refusal first, before the body's module loads
        if error := _genus_error(name, g, *holds(args)) or (check and check(args)):
            _diag(error)
            return EXIT_USAGE
        if saved is not None:
            sys.set_int_max_str_digits(0)
        # looked up now, not when cli loaded, so a body rebound after import is the one called
        body = getattr(import_module(f"{__package__}.{module}"), args.command)
        try:
            code = body(args)
            sys.stdout.flush()
        except OSError as exc:
            # the bodies open no file and _diag drops what stderr refuses, so stdout failed
            _drop(sys.stdout)
            if isinstance(exc, BrokenPipeError):
                # the reader left: end quietly; table and value print only after every
                # check, verify after args.verdict is set
                return getattr(args, "verdict", EXIT_OK)
            _diag(f"{args.command}: cannot write stdout: {exc}")
            return EXIT_INTERNAL
        return code
    except KeyboardInterrupt:
        _diag(f"{args.command}: interrupted")
        return EXIT_INTERRUPTED
    except Exception as exc:
        import traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        _diag(f"internal error: {detail} (at {where})")
        return EXIT_INTERNAL
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def run() -> None:
    sys.exit(main())
