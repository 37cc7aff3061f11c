"""Start one program, wait for it, and report its time and memory.

Usage: ``python3 -I -S perfbench/launch.py FD PROGRAM [ARG...]``

Runs PROGRAM (a full path) with this process's standard streams and
environment, then writes ``<wall s> <cpu s> <maxrss KiB> <exit code>`` to the
inherited file descriptor FD.  Wall time runs from spawn to exit; CPU time
and peak resident size come from ``os.wait4``.

The benchmark starts every measured process through this launcher because on
Linux a child's ``ru_maxrss`` starts from the resident size of the process
that spawned it.  The benchmark itself grows (it imports qlab to check
answers), while this launcher imports nothing and stays well below the
smallest qlab process.
"""

import os
import sys
import time


def main() -> None:
    fd = int(sys.argv[1])
    argv = sys.argv[2:]
    os.set_inheritable(fd, False)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    code = os.waitstatus_to_exitcode(status)
    os.write(fd, f"{wall!r} {cpu!r} {usage.ru_maxrss} {code}".encode())
    os.close(fd)


if __name__ == "__main__":
    main()
