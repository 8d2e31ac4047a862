"""Run one tau2 CLI job in this interpreter with its public functions traced.

Usage: python trace_job.py <tau2 argv...>   (with tau2 importable)

Every function named in the ``__all__`` of a layer module is wrapped, and
the wrapper is bound under every name any tau2 module holds it by, so calls
through imported names (``cli`` and ``verification`` calling closedform) are
traced too.  Spans stay in memory; when the job ends, their per-function
sums are written as one ``MARKER`` line on stderr.  A name a later version
no longer has is simply not wrapped, and its metrics come out absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable

LAYERS = ("cli", "closedform", "recursion", "verification", "combinatorics")
MARKER = "perfbench-trace "


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float, int] | None] = []  # name, start, end, parent
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent)

        traced.perfbench_span = name
        return traced


def summarize(spans: list[tuple[str, float, float, int] | None]) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    Self time is a span's duration minus the time its child spans cover;
    children of one span run one after another, so that is the sum of
    their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    out: dict[str, list] = {}
    for i, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, _ = span
        rec = out.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += end - start
        rec[2] += end - start - covered[i]
    return out


def install(tracer: Tracer) -> list[str]:
    """Wrap each layer's ``__all__`` functions at every binding; the names wrapped."""
    layers = {}
    for layer in LAYERS:
        try:
            layers[layer] = importlib.import_module(f"tau2.{layer}")
        except ImportError:
            continue
    modules = [m for n, m in sorted(sys.modules.items()) if n == "tau2" or n.startswith("tau2.")]
    wrapped = []
    for layer, mod in layers.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if not callable(fn) or isinstance(fn, type) or hasattr(fn, "perfbench_span"):
                continue
            name = f"{layer}.{attr}"
            traced = tracer.wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)
            wrapped.append(name)
    return wrapped


def main(argv: list[str]) -> int:
    tracer = Tracer()
    wrapped = install(tracer)
    from tau2 import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        report = {"wrapped": wrapped, "spans": summarize(tracer.spans)}
        print(MARKER + json.dumps(report), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
