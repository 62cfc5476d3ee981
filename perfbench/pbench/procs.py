"""Process accounting from /proc: tree CPU time, peak RSS, run header.

CPU time is the on-CPU time of every thread of a process and of its
descendants.  Peak RSS is the sum of each tree member's ``VmHWM``.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # The command name (field 2) may hold spaces; split after its ')'.
    return text[text.rindex(")") + 2 :].split()


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def tree_pids(root: int) -> List[int]:
    """``root`` and all of its live descendants."""
    children = _children_map()
    pids, stack = [], [root]
    while stack:
        pid = stack.pop()
        pids.append(pid)
        stack.extend(children.get(pid, ()))
    return pids


def _cpu_ns(pid: int) -> int:
    """Nanoseconds on CPU of ``pid``'s live threads, from their schedstat."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except (FileNotFoundError, ProcessLookupError):
        return 0
    total = 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass
    return total


class TreeCpuClock:
    """CPU seconds of a process tree, counted in nanoseconds.

    ``/proc/<pid>/stat`` counts whole 10 ms clock ticks, too coarse for
    the benchmark's 50 ms slices; each thread's ``schedstat`` counts
    nanoseconds.  The tree's members are taken once, when the clock is
    made, because listing them reads every process in ``/proc``.
    """

    def __init__(self, root: int):
        self.pids = tree_pids(root)

    def __call__(self) -> float:
        return sum(_cpu_ns(pid) for pid in self.pids) / 1e9


def _status_kib(pid: int, key: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def tree_peak_rss_mb(root: int) -> float:
    """Sum of every tree member's peak resident set, in MiB."""
    return sum(_status_kib(pid, "VmHWM") for pid in tree_pids(root)) / 1024.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``."""
    return _children_map().get(pid, [])


#: Cores this process may run on when the benchmark starts, before it
#: pins itself to one of them.
_CORES = len(os.sched_getaffinity(0))


def nproc() -> int:
    return _CORES


def git_revision(root: Path) -> Optional[str]:
    """HEAD's commit id; None outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(root),
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_header(root: Path, workload: str, seed: int, seconds: float,
               trace: bool, backend: str) -> Dict:
    """Where and on what a run was made."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(root),
        "nproc": nproc(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "machine": platform.machine(),
        "argv": sys.argv[1:],
    }
