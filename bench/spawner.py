"""Runs the benchmark's commands from a small process and reports their rusage.

Linux starts a child's peak RSS (``ru_maxrss``) at the RSS of the process
that forked it, so a command launched straight from the benchmark, which
holds its inputs and the program in memory, would report the benchmark's
size instead of its own. The benchmark starts this helper while it is
still small and runs every command through it.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "env",
"stderr", "timeout"}``, answered by one JSON line ``{"wall_s",
"maxrss_kb", "cpu_s", "code"}``. The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
        except OSError as exc:
            err.write(f"cannot start {request['argv'][0]}: {exc}\n".encode())
            return {"wall_s": 0.0, "maxrss_kb": 0, "cpu_s": 0.0, "code": 127}
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "code": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
