"""Small helper process that starts the benchmark's ops and reaps them.

On Linux a child's peak RSS (ru_maxrss) starts at the RSS of the process
that forked it.  The benchmark itself grows while it checks large artifacts,
so it hands every spawn to this process, which stays small, and gets back
the child's own peak.

Protocol: one JSON request per line on stdin
  {"argv": [...], "cwd": DIR, "env": {...}, "timeout": S, "stdout": FILE, "stderr": FILE}
and one JSON reply per line on stdout
  {"code": INT or null (killed at the timeout), "wall_s": S, "maxrss_kib": KIB}.
The helper exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}

        def on_timeout():
            with lock:
                if not state["reaped"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(req["timeout"], on_timeout)
        timer.start()
        # Wait without reaping first, so the timer never signals a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["reaped"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if state["killed"] else proc.returncode
    return {"code": code, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
