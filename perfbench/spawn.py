"""Runs the benchmark's commands one at a time and times them.

Linux counts the memory of the process that called exec in the peak RSS of
the program it runs, so a command started straight from the benchmark would
report at least the benchmark's own peak. This small process, started before
the benchmark loads anything, starts the commands instead.

Protocol: one JSON request per line on stdin,
    {"argv": [...], "cwd": "...", "log": "...", "timeout": seconds}
and one JSON reply per line on stdout,
    {"returncode": int, "start_ns": int, "end_ns": int, "maxrss_kib": int}
Times are CLOCK_MONOTONIC. A command still running at its timeout is killed.
The process ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request):
    with open(request["log"], "wb") as log:
        start = time.monotonic_ns()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=log,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "start_ns": start, "end_ns": end,
            "maxrss_kib": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
