"""Runs `python -m wcfar.cli` children for run.py and reports their cost.

A child's peak RSS from wait4 includes the RSS of the process that forked
it, so children are started from this small process rather than from the
main benchmark process, which holds the inputs and the oracles.

Usage: spawner.py LOG.  Reads one JSON argv list per stdin line, runs it
with stderr appended to LOG, and writes one JSON line
{"elapsed": wall seconds, "code": exit code, "maxrss_kb": peak RSS}.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150.0


def main():
    log = sys.argv[1]
    for line in sys.stdin:
        argv = json.loads(line)
        with open(log, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "wcfar.cli", *argv],
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"elapsed": elapsed, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}),
              flush=True)


if __name__ == "__main__":
    main()
