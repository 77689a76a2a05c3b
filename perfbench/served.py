"""The served side: spawning ``repro`` entry points, driving load, reading
``/proc``.

All load comes from this one process: a closed loop on the calling thread
(every end-to-end run), or an open loop made of one writer thread and one
reader thread sharing one stdio connection (the traced fleet run's rate
ladder).  Server CPU and peak memory are read from ``/proc``
for the whole serving process tree (the router and its workers for the
fleet), so the client's own cost never counts as the server's.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from inputs import with_id
from speed import EVERY_S, Sampler, steal_seconds

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


# -- /proc --------------------------------------------------------------------

def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we listed
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants, root first."""
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def cpu_seconds(pid: int) -> float:
    """utime + stime of one live process, in seconds (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class CpuSample:
    """utime+stime per process of a serving tree at one instant."""

    root: int
    cpu: dict[int, float]

    @classmethod
    def take(cls, root: int) -> "CpuSample":
        return cls(root, {pid: cpu_seconds(pid) for pid in process_tree(root)})

    def since(self, start: "CpuSample") -> tuple[float, float]:
        """CPU seconds spent between ``start`` and this sample, split into
        (root process, descendants).  A process born in between counts
        from zero."""
        spent = {pid: t - start.cpu.get(pid, 0.0) for pid, t in self.cpu.items()}
        root = spent.pop(self.root, 0.0)
        return root, sum(spent.values())


# -- processes ----------------------------------------------------------------

def repro_env() -> dict[str, str]:
    """Environment in which ``python -m repro`` imports this checkout."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p)
    return env


def repro_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


class Server:
    """One ``repro serve`` subprocess over stdio, with its stderr kept in a
    file so its lines can be counted after it exits."""

    def __init__(self, args: list[str], workdir: str, tag: str) -> None:
        self.stderr_path = os.path.join(workdir, f"{tag}.stderr")
        self._stderr = open(self.stderr_path, "wb")
        self.steal_at_start = steal_seconds()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_cmd("serve", *args), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._stderr, env=repro_env(),
        )
        self._next_id = 0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def send(self, line: bytes) -> None:
        self.proc.stdin.write(line)
        self.proc.stdin.flush()

    def recv(self) -> bytes:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited ({self.proc.poll()}) before answering")
        return line

    def call(self, payload: dict) -> dict:
        self._next_id -= 1  # negative ids never clash with stream ids
        self.send((json.dumps({"id": self._next_id, **payload}) + "\n").encode())
        return json.loads(self.recv())

    def wait_ready(self, shards: int) -> float:
        """Seconds from spawn until ``ping`` answers — and, for a fleet,
        until ``stats`` lists every shard live — less the machine's steal
        time meanwhile."""
        if not self.call({"op": "ping"}).get("pong"):
            raise RuntimeError("server did not answer ping")
        while shards and len(
                self.call({"op": "stats"})["stats"]["live_shards"]) < shards:
            time.sleep(0.01)
        return (time.perf_counter() - self.started
                - (steal_seconds() - self.steal_at_start))

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in process_tree(self.pid))

    def close(self, graceful: bool = True) -> int:
        """Ask for a graceful shutdown, wait, and return stderr's line
        count.  Kills the tree when ``graceful`` is off or it does not
        exit in time."""
        try:
            if not graceful:
                raise RuntimeError("kill requested")
            self.call({"op": "shutdown"})
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired):
            for pid in reversed(process_tree(self.pid)):
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
            self.proc.wait()
        finally:
            for stream in (self.proc.stdin, self.proc.stdout, self._stderr):
                try:
                    stream.close()
                except OSError:
                    pass  # a pipe to a killed server may not flush
        with open(self.stderr_path, "rb") as fh:
            return sum(1 for _ in fh)


@dataclass
class BatchRun:
    """One ``repro batch`` command: its wall time less the probes', the
    pinned CPU's steal time meanwhile, the speed factor of the span, the
    child's own CPU and peak RSS (from rusage), its result rows and its
    stderr line count."""

    wall_s: float
    steal_s: float
    factor: float
    cpu_s: float
    rss_mb: float
    rows: list[dict]
    stderr_lines: int


def run_batch_cli(scenarios: list[dict], workdir: str, tag: str) -> BatchRun:
    """``repro batch --validate`` on ``scenarios``, probing the CPU's speed
    while it runs (one probe first, so that a short command has one)."""
    path = os.path.join(workdir, f"{tag}.json")
    out = os.path.join(workdir, f"{tag}.out.json")
    with open(path, "w") as fh:
        json.dump({"schema": 1, "scenarios": scenarios}, fh)
    log = os.path.join(workdir, f"{tag}.log")
    sampler = Sampler()
    sampler.take()
    probed_before = sampler.wall_s
    exited: list = []
    with open(log, "wb") as stdout, open(f"{log}.err", "wb") as stderr:
        steal0 = steal_seconds()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            repro_cmd("batch", "--validate", "--scenarios", path, "--out", out),
            stdout=stdout, stderr=stderr, env=repro_env())

        def wait() -> None:
            exited.extend(os.wait4(proc.pid, 0)[1:])
            exited.append(time.perf_counter())

        waiter = threading.Thread(target=wait)
        waiter.start()
        while waiter.is_alive():
            waiter.join(EVERY_S)
            if waiter.is_alive():
                sampler.take()
        status, usage, end = exited
        wall = end - t0 - (sampler.wall_s - probed_before)
        steal = steal_seconds() - steal0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log) as fh:
            raise RuntimeError(f"repro batch exited {proc.returncode}:\n"
                               + fh.read()[-2000:])
    with open(out) as fh:
        rows = json.load(fh)["results"]
    with open(f"{log}.err", "rb") as fh:
        stderr_lines = sum(1 for _ in fh)
    return BatchRun(wall, steal, sampler.factor(),
                    usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, rows, stderr_lines)


# -- load ---------------------------------------------------------------------

#: seconds an open loop waits for its last answers after its last send.
DRAIN_S = 30.0
#: answers after which a closed loop reads the serving tree's peak RSS: past
#: the store's 256-entry memory tier, and a count rather than the end of
#: the phase, so that a faster miss path does not read higher memory just
#: for having stored more distinct answers in the same seconds.
RSS_AFTER = 300


@dataclass
class Cut:
    """One edge of a closed loop's windows, taken between two requests."""

    #: requests answered before it
    answered: int
    clock: float
    #: the serving tree's CPU
    cpu: CpuSample
    #: the pinned CPU's steal time so far (see :func:`steal_seconds`)
    steal_s: float

    @classmethod
    def take(cls, answered: int, pid: int) -> "Cut":
        return cls(answered, time.perf_counter(), CpuSample.take(pid),
                   steal_seconds())


@dataclass
class Phase:
    """What one measured phase sent and got back."""

    #: per request: (stream index, latency s, raw response line)
    answers: list[tuple[int, float, bytes]] = field(default_factory=list)
    attempted: int = 0
    wall_s: float = 0.0
    #: closed loop only: the start of the phase and the end of each window
    cuts: list[Cut] = field(default_factory=list)
    #: closed loop only: each window's speed probes
    samplers: list[Sampler] = field(default_factory=list)
    #: closed loop only: the serving tree's peak RSS after ``RSS_AFTER``
    #: answers (0 if the phase ended before)
    rss_mb: float = 0.0
    #: open loop only: how late each send left versus its schedule
    late_s: list[float] = field(default_factory=list)


def closed_loop(server: Server, bodies: list[str], seconds: float,
                cycle: bool, windows: int) -> Phase:
    """One client, one request in flight, for ``seconds`` (or until the
    bodies run out when ``cycle`` is off).  The phase is cut into
    ``windows`` equal spans of time, with a :class:`Cut` at each edge, and
    the CPU's speed is probed between requests in each."""
    phase = Phase()
    lines = [with_id(i, b) for i, b in enumerate(bodies)]
    send, recv, clock = server.send, server.recv, time.perf_counter
    phase.cuts.append(Cut.take(0, server.pid))
    phase.samplers.append(Sampler())
    t0 = phase.cuts[0].clock
    i = 0
    while True:
        s = clock()
        ran_out = not cycle and i == len(lines)
        if ran_out or s >= t0 + seconds * len(phase.cuts) / windows:
            phase.cuts.append(Cut.take(i, server.pid))
            if ran_out or len(phase.cuts) > windows:
                break
            phase.samplers.append(Sampler())
            s = clock()
        if phase.samplers[-1].due(s):
            phase.samplers[-1].take()
            s = clock()
        if i == RSS_AFTER:
            phase.rss_mb = server.peak_rss_mb()
            s = clock()
        send(lines[i % len(lines)])
        answer = recv()
        phase.answers.append((i % len(lines), clock() - s, answer))
        i += 1
    phase.wall_s = phase.cuts[-1].clock - t0
    phase.attempted = i
    return phase


def poisson_schedule(rate: float, seconds: float, rng: random.Random
                     ) -> list[float]:
    """Seeded Poisson arrival offsets in ``[0, seconds)``."""
    out, t = [], rng.expovariate(rate)
    while t < seconds:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def open_loop(server: Server, bodies: list[str], offsets: list[float],
              first_id: int) -> Phase:
    """Send request ``k`` at ``offsets[k]`` whatever the server is doing
    (one writer thread), collect answers on one reader thread, and time
    each from its *scheduled* send."""
    n = len(offsets)
    lines = [with_id(first_id + k, bodies[k % len(bodies)]) for k in range(n)]
    sent_at = [0.0] * n
    got: dict[int, tuple[float, bytes]] = {}
    done = threading.Event()
    clock = time.perf_counter
    t0 = clock() + 0.05

    def writer() -> None:
        for k in range(n):
            due = t0 + offsets[k]
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent_at[k] = clock()
            server.send(lines[k])

    def reader() -> None:
        try:
            while len(got) < n:
                line = server.recv()
                head = line[7:line.index(b",")]
                got[int(head) - first_id] = (clock(), line)
        except (RuntimeError, ValueError):
            pass  # server gone or a line without an id: counted as missing
        finally:
            done.set()

    threads = [threading.Thread(target=writer), threading.Thread(target=reader,
                                                                 daemon=True)]
    for t in threads:
        t.start()
    threads[0].join()
    done.wait(timeout=DRAIN_S)
    phase = Phase(attempted=n)
    last = t0
    for k in range(n):
        if k in got:
            recv_t, line = got[k]
            last = max(last, recv_t)
            phase.answers.append((k % len(bodies), recv_t - (t0 + offsets[k]),
                                  line))
        phase.late_s.append(sent_at[k] - (t0 + offsets[k]))
    phase.wall_s = last - t0
    if not done.is_set():
        raise RuntimeError(f"{n - len(got)} answers still missing after "
                           f"{DRAIN_S}s; the server stalled")
    return phase
