"""The system under test (SUT), seen from outside.

The SUT is launched only through its deployment entry points
(``python -m repro serve --port 0`` and ``python -m repro mesh --port 0
...``), stopped with SIGINT, and observed through ``/proc``, ``/dev/shm``
and the mesh's ``/mesh/status`` page.  Nothing here imports a server
class by name, so the benchmark keeps working when the HTTP front ends
behind those commands are rewritten.
"""

from __future__ import annotations

import ctypes
import json
import os
import select
import signal
import struct
import subprocess
import sys
import time
import urllib.request

CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Seconds the SUT gets to print its URL, and to exit after SIGINT.
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0

#: Seconds the orphans of a stopped process tree (``multiprocessing``
#: resource trackers, which exit once their owner has) get to end
#: before they are killed.
ORPHAN_TIMEOUT_S = 10.0

#: ``prctl`` option that makes a process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

#: Shared-memory segments the payload tier creates, and their header:
#: magic, version, owner pid, payload length (see ``repro.ws.shm``).
SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro-shm-"
_SHM_HEADER = struct.Struct("<4sBxxxQQ")


def split_cpus() -> tuple[set[int], set[int]]:
    """The CPUs of the load generator and of the SUT: the first allowed
    CPU drives the load, the rest serve it (all of them share one CPU
    when only one is allowed)."""
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus[:1]), set(cpus[1:] or cpus)


def _child_setup(cpus: set[int]) -> None:
    # a shell without job control starts background jobs with SIGINT
    # ignored, and Python then never raises KeyboardInterrupt; the SUT
    # must see SIGINT to shut down cleanly
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    os.sched_setaffinity(0, cpus)


def alive(pid: int) -> bool:
    """True when *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def become_subreaper() -> None:
    """Make this process adopt the orphans of every process it starts.

    Each process that publishes a shared-memory segment starts a
    ``multiprocessing`` resource tracker, which outlives its owner for a
    moment.  Adopted, those trackers can be waited for and reaped here
    instead of ending, unwatched, after the benchmark has exited."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # no prctl: orphans are still awaited, just not reaped here


def descendants(pid: int) -> list[int]:
    """Pids of every living or zombie descendant of *pid*."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    found, stack = [], [pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def _ended(pid: int) -> bool:
    """True when *pid* has exited; reaps it if it is this process's
    child."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return not alive(pid)
    return done == pid


def await_exit(pids, timeout: float = ORPHAN_TIMEOUT_S) -> None:
    """Wait until every pid in *pids* has ended, reaping those that are
    (or were adopted as) children of this process; SIGKILL any still
    running after *timeout* seconds."""
    pending = set(pids)
    deadline = time.monotonic() + timeout
    killed = False
    while pending:
        pending = {pid for pid in pending if not _ended(pid)}
        if not pending:
            return
        if time.monotonic() >= deadline:
            if killed:
                raise RuntimeError(f"processes {sorted(pending)} "
                                   "outlived SIGKILL")
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            killed = True
            deadline = time.monotonic() + STOP_TIMEOUT_S
        time.sleep(0.01)


def reap_all() -> None:
    """Stop this process's ``multiprocessing`` resource tracker, which
    would otherwise end only after this process, then wait for (and reap)
    every process this one started or adopted."""
    from multiprocessing import resource_tracker
    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, ChildProcessError):
        pass
    await_exit(descendants(os.getpid()))


def cpu_seconds(pids) -> float:
    """Summed ``utime + stime`` of *pids*, in seconds."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        # fields[0] is the state (field 3); utime/stime are fields 14/15
        ticks += int(fields[11]) + int(fields[12])
    return ticks / CLK_TCK


def peak_rss_mb(pids) -> float:
    """Summed ``VmHWM`` (peak resident set) of *pids*, in MiB."""
    kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
                    break
    return kib / 1024.0


def shm_segments_of(pids) -> list[str]:
    """Names of ``repro-shm-*`` segments whose header names an owner in
    *pids*."""
    owners = set(pids)
    found = []
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return found
    for name in names:
        if not name.startswith(SHM_PREFIX):
            continue
        try:
            with open(os.path.join(SHM_DIR, name), "rb") as fh:
                head = fh.read(_SHM_HEADER.size)
        except OSError:
            continue
        if len(head) == _SHM_HEADER.size and \
                _SHM_HEADER.unpack(head)[2] in owners:
            found.append(name)
    return found


def reap_segments(names) -> None:
    """Unlink leaked segments so they cannot skew the next run."""
    for name in names:
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass


class Sut:
    """One SUT process tree started by ``python -m repro <args>`` on
    *cpus*; the workers it forks inherit them.

    ``base_url`` is parsed from the first line the command prints
    (``... at http://host:port ...``).  For ``repro mesh`` the worker
    pids come from ``/mesh/status``.
    """

    def __init__(self, root: str, args: list[str], tmpdir: str | None,
                 cpus: set[int]):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   PYTHONUNBUFFERED="1")
        if tmpdir:
            env["TMPDIR"] = tmpdir
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args], cwd=root, env=env,
            stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: _child_setup(cpus))
        self.worker_pids: list[int] = []
        try:
            self.base_url = self._await_url()
            if args[0] == "mesh":
                status = json.loads(urllib.request.urlopen(
                    self.base_url + "/mesh/status", timeout=10).read())
                self.worker_pids = [
                    w["pid"] for w in status["supervisor"]["workers"]]
        except BaseException:
            self.stop()
            raise

    def _await_url(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if " at " not in line:
            raise RuntimeError(f"SUT did not announce its URL: {line!r}")
        return line.split(" at ", 1)[1].split()[0]

    @property
    def pids(self) -> list[int]:
        return [self.proc.pid, *self.worker_pids]

    def stop(self) -> int:
        """SIGINT the SUT and wait; returns the number of leaked
        workers (killed here so they cannot steal CPU from later runs).
        A SUT that ignores SIGINT is killed and counted as a leak.  The
        SUT's other descendants, which end on their own once their owner
        has, are then waited for."""
        leaked = 0
        tree = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
                leaked += 1
        else:
            self.proc.communicate()
        for pid in self.worker_pids:
            if alive(pid):
                leaked += 1
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        await_exit(tree)
        return leaked
