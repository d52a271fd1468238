"""Starts the benchmark's subprocesses, one at a time, from a small interpreter.

Run as ``python3 perfbench/launch.py``; reads one JSON request per line on
stdin (``cmd``, ``cwd``, ``stdout``, ``stderr``, ``timeout``) and
answers each with one JSON line: exit code, wall seconds from spawn to exit,
and the child's peak RSS and CPU seconds from ``os.wait4``.

A child's ``ru_maxrss`` includes the high-water RSS of the process it was
forked from (Linux records the old address space's peak at exec).  The
benchmark itself grows large while it generates inputs, so it launches
every timed command from this process, which stays small.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as fo, open(req["stderr"], "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=fo, stderr=fe, cwd=req["cwd"])
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "wall_s": wall, "peak_rss_mb": ru.ru_maxrss / 1024.0,
                          "cpu_s": ru.ru_utime + ru.ru_stime}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
