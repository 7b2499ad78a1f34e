"""Run one ``phaseless`` command in a fresh interpreter, set-up timed apart.

    python3 child.py RESULT CONFIG TRACE [PHASELESS ARGS...]

Set-up is what every command pays before it works: starting the
interpreter, importing ``phaseless.cli`` and loading CONFIG.  Its end is
stamped on the system-wide monotonic clock and steal counter, so the
parent can subtract the moment it spawned this process.  The command
itself then runs through ``phaseless.cli.main``, the console script's
entry point.  Times leave out the CPU steal that fell on this process
(see ``unstolen``).  With no PHASELESS ARGS only set-up is measured.  With TRACE 1 the spans of
``tracing.install`` are kept in memory and written to RESULT at the end.
"""

import json
import os
import resource
import sys
import time


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over this machine's CPUs.

    The eighth counter of the ``cpu`` line of /proc/stat; 0 where the
    kernel does not report it.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def unstolen(wall: float, steal: float, cpu: float) -> float:
    """``wall`` less the time a process that used ``cpu`` CPU seconds lost to steal.

    A CPU accrues steal only while it has work to run.  With the process
    the machine's only work, ``steal`` fell on the CPUs it kept busy,
    (cpu + steal) / wall of them on average, and it waited for each
    one's share, which is at most ``wall``.
    """
    if steal <= 0.0 or wall <= 0.0:
        return wall
    return wall - steal / max(1.0, (cpu + steal) / wall)


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_kb() -> int:
    """Peak resident set of this process since it started its program.

    ``ru_maxrss`` would do, but Linux carries the spawning process's peak
    into it across exec, so a child of a large parent reports the parent.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, config_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]

    import phaseless.cli
    from phaseless.config import load_config

    tracer = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        load_config = tracer.wrap(load_config, "config.load_config")
    load_config(config_path)
    ready, steal_ready, cpu_ready = time.monotonic(), steal_seconds(), cpu_seconds()

    code, wall, unstolen_wall = None, 0.0, 0.0
    if argv:
        start = time.perf_counter()
        code = phaseless.cli.main(argv)
        wall = time.perf_counter() - start
        unstolen_wall = unstolen(wall, steal_seconds() - steal_ready, cpu_seconds() - cpu_ready)
    with open(result_path, "w") as fh:
        json.dump(
            {
                "ready": ready,
                "steal_ready": steal_ready,
                "cpu_ready": cpu_ready,
                "wall_s": unstolen_wall,
                "steal_s": wall - unstolen_wall,
                "exit": code,
                "maxrss_kb": peak_rss_kb(),
                "spans": tracer.spans if tracer else [],
            },
            fh,
        )
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
