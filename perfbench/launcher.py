"""Run commands on request and report their wall time, exit code and peak RSS.

The benchmark starts this small process before it allocates anything large
and sends it one JSON request per line:
``{"argv": [...], "env": {...}, "stdout": PATH, "stderr": PATH,
"timeout": SECONDS}``.  It answers each with one JSON line:
``{"rc": INT, "wall_s": FLOAT, "maxrss_kb": INT}``.

Why a separate process: on Linux a child's peak resident set, as returned by
wait4, includes the memory of the process that forked it (the parent's
high-water mark is carried across exec).  Spawning from this process, which
imports nothing heavy, keeps that floor at a few MB, so ``maxrss_kb`` is the
largest resident set of the command or any worker it waited for.

Each command runs in its own session; on timeout the whole process group is
killed and the exit code reported is -9.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, env=request["env"],
            start_new_session=True,
        )
        timer = threading.Timer(request["timeout"], _kill_group, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        reply = run(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
