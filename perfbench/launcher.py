"""Spawns the benchmark's CLI ops from a small process.

A child's max RSS includes the pages of the process that spawned it: the
child shares (vfork) or copies (fork) its parent's memory until exec, and
the kernel counts the larger of the two.  The benchmark process holds the
generated inputs and the oracles' data, so it starts this launcher while
it is still small and asks it for every op.  The launcher imports only
the standard library.

Protocol: one JSON request per stdin line,
``{"args": [...], "cwd": ..., "stdout": path, "stderr": path, "timeout": s}``,
answered by one JSON line
``{"latency_s": ..., "returncode": int or null, "maxrss_kib": ...}``;
``returncode`` is null when the op was killed at its timeout.  The
launcher exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["args"], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=request["cwd"])
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - start
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"latency_s": latency,
            "returncode": None if killed.is_set() else proc.returncode,
            "maxrss_kib": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
