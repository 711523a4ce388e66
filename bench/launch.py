"""Run one command and record its wall time, exit code and peak RSS.

    python3 bench/launch.py RESULT_FILE COMMAND [ARG ...]

The command inherits stdin, stdout and stderr.  The result is written to
RESULT_FILE as JSON.  Peak RSS comes from ``wait4``.  The kernel counts in a
process's peak the memory of the process it was spawned from, so the command
is spawned from this small interpreter and not from the benchmark, whose own
footprint would otherwise be reported as the command's.
"""

import json
import os
import subprocess
import sys
import time

result_file, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
proc = subprocess.Popen(argv)
_, status, usage = os.wait4(proc.pid, 0)
seconds = time.perf_counter() - t0
proc.returncode = os.waitstatus_to_exitcode(status)
with open(result_file, "w", encoding="utf-8") as fh:
    # ru_maxrss is in KiB on Linux
    json.dump({"seconds": seconds, "returncode": proc.returncode,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
