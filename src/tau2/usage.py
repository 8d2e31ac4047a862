"""The argparse form of the command line, for ``--help`` and the argv ``cli._parse`` leaves to it.

``cli.main`` imports this module only when ``cli._parse`` returns None, so a
well-formed command neither compiles it nor loads ``argparse``.  The parser
is built from ``cli._COMMANDS``, the one table of commands and flags, and
yields the attributes ``cli._parse`` does; ``cli.main`` then calls the
command's body as it does for a parsed argv.
"""

from __future__ import annotations

import argparse

from . import cli


def _build_parser() -> argparse.ArgumentParser:
    """The argparse form of ``cli._COMMANDS``, for ``--help`` and usage errors."""
    parser = argparse.ArgumentParser(
        prog="tau2",
        description="Exact two-point correlators of 2D topological gravity, "
        "computed by genus recursion and by closed form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, flags) in cli._COMMANDS.items():
        subparser = sub.add_parser(command, help=help_line)
        for flag, (kind, default, text) in flags.items():
            choices = kind if isinstance(kind, tuple) else None
            subparser.add_argument(
                flag, type=None if choices else kind, choices=choices,
                required=default is cli._REQUIRED,
                default=None if default is cli._REQUIRED else default, help=text,
            )  # fmt: skip
    return parser
