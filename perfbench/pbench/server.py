"""Start and stop ``repro serve`` the way a user does, from the checkout."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from pbench import procs

START_TIMEOUT_S = 60.0


def child_env(root: Path) -> dict:
    """The environment every process the benchmark starts runs with.

    The source tree comes from the checkout, and the native kernels
    compile into the checkout's build directory instead of the user's
    cache; ``REPRO_BACKEND`` is dropped so the capability probe picks.
    """
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_NATIVE_CACHE_DIR"] = str(build_dir(root) / "native")
    return env


def build_dir(root: Path) -> Path:
    return root / ".bench_build" / "perfbench"


class ServerProcess:
    """One ``python -m repro.cli serve --port 0`` process."""

    def __init__(self, root: Path, extra_args: Optional[List[str]] = None):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             *(extra_args or [])],
            cwd=str(root),
            env=child_env(root),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving codec sessions on "):
                return int(line.strip().rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro serve did not report a listening port")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_clock(self) -> procs.TreeCpuClock:
        """A reader of the server tree's CPU seconds (call it once the
        server is up, so its workers are in the tree)."""
        return procs.TreeCpuClock(self.pid)

    def peak_rss_mb(self) -> float:
        return procs.tree_peak_rss_mb(self.pid)

    def stop(self) -> None:
        """SIGTERM the tree, then SIGKILL what is left; wait for all."""
        if self.proc.poll() is not None:
            return
        members = [pid for pid in procs.tree_pids(self.pid) if pid != self.pid]
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _reap(members)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def _reap(pids: List[int], timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    for pid in pids:
        while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
