"""How fast the benchmark's CPU runs right now, so that time metrics can be
read at one reference speed.

The benchmark runs on a virtual machine that shares its host with other
guests.  Two things move every time metric with no change to the program:

* **steal**: the hypervisor gives the CPU to another guest for a while
  (``steal`` on the CPU's line of ``/proc/stat``);
* **speed**: while it runs, the CPU does a fixed piece of work in anything
  from 0.7x to 2x its usual time, changing within seconds, as the other
  guests load the caches and cores it shares.  Over 90 s of one-second
  windows on a 2-vCPU VM, ``serve_hit``'s throughput spread 0.25
  (IQR/median) and the fleet's 0.23; a tree solve's CPU time spread 0.43
  over two minutes.

So the whole benchmark (this process, and the servers and batches it
spawns) is pinned to one CPU (:func:`pin`), whose steal is read exactly,
and a short fixed probe runs on that CPU about every ``EVERY_S`` during
each measured span (:class:`Sampler`).  The probe has three parts, timed
apart, because no one part tracked every workload: dict, sort and JSON
work in Python (which tracks a solve); write/read round trips through a
pipe in this process (system calls); and line round trips through a tiny
echo process (wake-ups and context switches, which a served request pays
at every hop).  A span's *speed factor* is the geometric mean over the
parts of ``REF_*_S`` over the part's median time; a time measured in the
span, times the factor, is that time at the reference speed.  Over the
same 90 s of the fleet, its window-to-window throughput spread fell from
0.33 to 0.08 (0.14 with the Python part alone).  The probe and the echo
process are the benchmark's own code, so no change to the program moves
them.  :func:`stop` ends the echo process.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

#: CPU time of each probe part at the reference speed (about its median on
#: a 2-vCPU cloud VM).
REF_WORK_S = 0.0025
REF_PIPE_S = 0.00022
REF_ECHO_S = 0.00024
#: seconds between two probes of a :class:`Sampler`.
EVERY_S = 0.1

_KEYS = [f"key{i:05d}" for i in range(900)]
_BLOCK = b"x" * 2048
_ROUND_TRIPS = 100
_ECHOES = 40
_ECHO_CODE = ("import sys\n"
              "for line in sys.stdin.buffer:\n"
              "    sys.stdout.buffer.write(line)\n"
              "    sys.stdout.buffer.flush()\n")
#: the CPU the benchmark is pinned to (``None``: not pinned).
_cpu: int | None = None
_pipe: tuple[int, int] | None = None
_echo: subprocess.Popen | None = None


def pin() -> int:
    """Pin this process, and so every process it spawns later, to one CPU
    it may run on (the highest numbered)."""
    global _cpu
    _cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {_cpu})
    return _cpu


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests while the pinned CPU
    (all CPUs, summed, when unpinned) was ready to run."""
    head = "cpu " if _cpu is None else f"cpu{_cpu} "
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith(head):
                return int(line.split()[8]) * _TICK_S
    raise RuntimeError(f"no {head.strip()!r} line in /proc/stat")


def _work() -> int:
    table = {key: [len(key), i % 97, key[::-1]] for i, key in enumerate(_KEYS)}
    ordered = sorted(table, key=lambda key: (table[key][1], table[key][2]))
    return len(json.loads(json.dumps({key: table[key] for key in ordered})))


def _round_trips() -> None:
    global _pipe
    if _pipe is None:
        _pipe = os.pipe()
    read_fd, write_fd = _pipe
    for _ in range(_ROUND_TRIPS):
        os.write(write_fd, _BLOCK)
        os.read(read_fd, len(_BLOCK))


def _echoes() -> None:
    """Line round trips through the echo process (started on first use;
    it exits when its stdin closes, with this process at the latest)."""
    global _echo
    if _echo is None:
        _echo = subprocess.Popen([sys.executable, "-c", _ECHO_CODE],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    line = _BLOCK[:200] + b"\n"
    for _ in range(_ECHOES):
        _echo.stdin.write(line)
        _echo.stdin.flush()
        if not _echo.stdout.readline():
            raise RuntimeError("the speed probe's echo process exited")


def stop() -> None:
    """End the echo process, if one was started, and wait for it."""
    global _echo
    if _echo is not None:
        _echo.stdin.close()
        _echo.wait()
        _echo.stdout.close()
        _echo = None


def probe() -> tuple[float, float, float]:
    """CPU seconds of the three fixed probe parts (see the module's doc),
    with the garbage collector off so that the caller's heap does not
    count."""
    gc.disable()
    try:
        t0 = time.process_time()
        _work()
        t1 = time.process_time()
        _round_trips()
        t2 = time.process_time()
        _echoes()
        return t1 - t0, t2 - t1, time.process_time() - t2
    finally:
        gc.enable()


class Sampler:
    """Probes taken during one measured span, and the wall time they took
    from it."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self.wall_s = 0.0
        self._due = 0.0

    def take(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        end = time.perf_counter()
        self.wall_s += end - t0
        self._due = end + EVERY_S

    def due(self, now: float) -> bool:
        return now >= self._due

    def factor(self) -> float:
        """The span's speed factor (see the module's doc)."""
        ratio = 1.0
        for part, ref in enumerate((REF_WORK_S, REF_PIPE_S, REF_ECHO_S)):
            ratio *= ref / statistics.median(s[part] for s in self.samples)
        return ratio ** (1 / 3)
