"""Run one command and report its wall time, CPU time and peak RSS.

    python3 perfbench/spawn.py FD COMMAND [ARG ...]

COMMAND's stdout and stderr pass through; once it has ended, one line
``exit wall_s cpu_s maxrss_kb`` goes to file descriptor FD.  COMMAND is
killed after TIMEOUT_S seconds.

The benchmark starts every invocation through this small process because
a child's ru_maxrss starts from the peak RSS of the process that spawned
it.  Spawned from the benchmark directly, peak_rss_mb would report the
benchmark's own memory whenever that is the larger.  Keep the imports
here minimal for the same reason.
"""

import os
import signal
import sys
import time

TIMEOUT_S = 150


def main() -> int:
    fd, cmd = int(sys.argv[1]), sys.argv[2:]
    os.set_inheritable(fd, False)
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(TIMEOUT_S)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - start
    signal.alarm(0)
    cpu_s = usage.ru_utime + usage.ru_stime
    os.write(fd, f"{os.waitstatus_to_exitcode(status)} {wall_s!r} {cpu_s!r} "
                 f"{usage.ru_maxrss}\n".encode())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
