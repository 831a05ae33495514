"""Launcher of the benchmark's measured processes, kept small on purpose.

Linux starts a child's ru_maxrss at the resident size of the process that
forked it, so a command started by perfbench/run.py could never report a peak
below run.py's own size.  run.py starts this helper once and has it launch
every measured command, so that each command's peak resident size is its own
down to this helper's size (about 9 MB, below the 16 MB that importing qetude
takes).  Keep its imports few for that reason.

Requests arrive one JSON object per line on stdin:
    {"cmd": [executable path, args...], "env": {...}, "stdout": path,
     "stderr": path, "timeout": whole seconds}
and each gets one JSON reply line on stdout:
    {"code": exit code, "wall_s": float, "cpu_s": float, "rss_mb": float}
The command runs in this helper's working directory with stdin from /dev/null.
"""

import json
import os
import signal
import sys
import time


def launch(cmd, env, stdout, stderr, timeout):
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    for fd, path in ((1, stdout), (2, stderr)):
        actions.append((os.POSIX_SPAWN_OPEN, fd, path,
                        os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600))
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout)
    try:
        # wait without reaping, so the alarm can never signal a reused pid
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    finally:
        signal.alarm(0)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024}


def main():
    for line in sys.stdin:
        print(json.dumps(launch(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
