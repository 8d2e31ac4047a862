"""Spawns benchmark jobs for run.py from a small process of its own.

A child's ``ru_maxrss`` starts from the resident size of the process that
spawned it, so jobs spawned straight from the benchmark would report the
benchmark's own memory as their floor.  This process stays small: it reads
one JSON request per stdin line, {"cmd": [...], "out": path, "err": path},
runs the command with stdout and stderr sent to those files, and answers
with one JSON line {"wall": s, "rc": code, "maxrss_kb": n} taken from
``os.wait4`` on that child alone.  It exits at end of input.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, req["out"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["err"], flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(req["cmd"][0], req["cmd"], os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = {"wall": wall, "rc": os.waitstatus_to_exitcode(status), "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
