"""Small process that starts the timed children on behalf of ``run.py``.

A child's ``ru_maxrss`` includes the peak RSS of the process it was spawned
from, because exec records the old address space's high-water mark.  Spawned
from the benchmark (numpy, probe arrays, parsed outputs) the children would
report the benchmark's memory; spawned from this process, started with
``python3 -S`` and importing nothing heavy, they report their own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
answered by one JSON line on stdout, ``{"wall_s", "maxrss_kib", "status"}``.
Children inherit this process's environment and working directory.
"""

import json
import os
import sys
import threading
import time


def _kill(pid: int) -> None:
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
        watchdog = threading.Timer(request["timeout"], _kill, (pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        reply = {"wall_s": wall, "maxrss_kib": usage.ru_maxrss,
                 "status": os.waitstatus_to_exitcode(status)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
