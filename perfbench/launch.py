"""Run one command and report its exit code, wall time and peak RSS.

    python3 launch.py STDIN STDOUT STDERR COMMAND...

Prints ``{"code": ..., "wall_s": ..., "maxrss_kb": ...}``.  The benchmark
starts every child through this small process: Linux carries the peak
RSS of the process that forks over into the child's ``ru_maxrss``, so a
child forked straight from the benchmark would report the benchmark's
own peak.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    stdin, stdout, stderr, *argv = sys.argv[1:]
    with open(stdin, "rb") as fin, open(stdout, "wb") as fout, open(stderr, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}))


if __name__ == "__main__":
    main()
