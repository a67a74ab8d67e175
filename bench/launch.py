"""Run one command; print its exit code, wall time and peak RSS as JSON.

    python bench/launch.py TIMEOUT_S ARGV...

On Linux a child's ru_maxrss starts from the peak memory of the process that
spawned it.  The benchmark process holds frames for its output checks, so it
spawns every step through this small process instead; the peak then reads as
the step's own.  The command's stdout goes to this process's stderr.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    timeout, cmd = float(argv[0]), argv[1:]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall,
                      "rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
