"""What the operating system says: process-tree CPU and memory, provenance.

Server cost is measured from outside the server — ``/proc`` accounting
of the server's process tree — so it is taken the same way for a
wrapped single node, an unwrapped cluster node and a pool worker.
"""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import subprocess
import sys
import time

__all__ = ["tree_pids", "tree_cpu", "tree_peak_rss_mb", "provenance",
           "kill_tree", "adopt_orphans", "reap_descendants"]

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            data = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    # the command name is parenthesised and may itself contain spaces
    return data[data.rindex(")") + 2:].split()


def tree_pids(roots: list[int]) -> list[int]:
    """*roots* and every live descendant of them."""
    parent_of: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                parent_of[int(name)] = int(fields[1])
    children: dict[int, list[int]] = {}
    for pid, parent in parent_of.items():
        children.setdefault(parent, []).append(pid)
    found, queue = [], [pid for pid in roots if pid in parent_of]
    while queue:
        pid = queue.pop()
        found.append(pid)
        queue.extend(children.get(pid, ()))
    return found


def tree_cpu(roots: list[int]) -> dict[int, float]:
    """User + system CPU seconds so far, per live process of the tree."""
    out = {}
    for pid in tree_pids(roots):
        fields = _stat_fields(pid)
        if fields is not None:
            out[pid] = (int(fields[11]) + int(fields[12])) / _TICK
    return out


def tree_peak_rss_mb(roots: list[int]) -> float:
    """Sum of the peak resident set size of every process of the tree."""
    total_kb = 0
    for pid in tree_pids(roots):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024


def kill_tree(roots: list[int], *, grace: float = 3.0) -> None:
    """SIGTERM, then SIGKILL, everything under *roots* still alive."""
    pids = tree_pids(roots)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            pids = [pid for pid in pids if _alive(pid)]
            if not pids:
                return
            time.sleep(0.05)


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the parent of every descendant whose own parent exits.

    Helpers that outlive the process that started them — multiprocessing's
    resource tracker ends only once its parent has — are then this
    process's to wait for instead of init's.  False where the kernel
    refuses; nothing is adopted then.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _collect_exited() -> None:
    """Reap every child of this process that has already ended."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_descendants(*, grace: float = 5.0) -> list[int]:
    """Wait until this process has no descendant left, ended and reaped.

    What is still running after *grace* seconds is killed; returns the
    pids that took that.  Call it once nothing started on purpose is
    meant to be alive any more.
    """
    me = os.getpid()
    killed: list[int] = []
    deadline = time.monotonic() + grace
    while True:
        _collect_exited()
        left = [pid for pid in tree_pids([me]) if pid != me]
        if not left:
            return killed
        if time.monotonic() >= deadline:
            if killed:  # SIGKILL has been sent and they still show
                return killed
            killed = [pid for pid in left if _alive(pid)]
            kill_tree(left, grace=1.0)
            deadline = time.monotonic() + grace
        time.sleep(0.01)


def _git(root: str, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: str) -> dict:
    """Where and on what a result file was measured."""
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain")
    return {
        "commit": commit,
        # not a git checkout -> nothing to vouch for the tree: dirty
        "dirty": status is None or bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "network": "loopback (127.0.0.1); client and server share the box",
    }
