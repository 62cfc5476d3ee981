"""The four workloads, measured end to end with tracing off.

Every wire workload starts ``repro serve`` at its defaults (default
``BatchPolicy``, ``workers=0``, the probe's backend) and drives it from
this one process, both pinned to one core (:mod:`pbench.calibrate`).
Its run is:

1. set-up, ``SETUP_REPEATS`` times: launch a server, connect, open the
   session, get the first correct answer; the last server is kept;
2. the TCP window, closed loops at the workload's concurrency;
   ``wire-pipelined`` then sends one request at a time for a short
   probe, which gives its latency;
3. the server's STATS checked against the expected totals;
4. the in-process window: the same traffic through
   ``CodecServer.dispatch`` in this process, which gives the in-process
   throughput.

``engine-soft`` runs ``MonteCarloEngine(jobs=1).run_many`` over the
soft-gain sweep in this process.  Every time-based metric is a window's
fast slice at the nominal core speed (:meth:`pbench.wire.Tally.fast`);
set-up times are scaled by the calibration loop timed around them.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from pbench import calibrate, inputs, procs
from pbench.server import ServerProcess, child_env
from pbench.wire import (
    DecodeTraffic,
    InProcessClient,
    MemoryTraffic,
    Tally,
    closed_loops,
    new_inprocess_server,
)

SETUP_REPEATS = 3
#: Shares of the run's seconds given to each window of a wire run.
#: One request in flight: the TCP window, then the in-process one.
SHARES_ONE = {"tcp": 0.5, "inprocess": 0.5}
#: Pipelined: the TCP window, a one-in-flight TCP probe (latency), the
#: in-process window at the workload's concurrency, and a short
#: in-process one-in-flight window for the traced run's front time.
SHARES_PIPELINED = {"tcp": 0.35, "probe": 0.2, "inprocess": 0.4, "inprocess_one": 0.05}
#: Memory transactions replayed per session before it is reopened.
MEMORY_EPOCH_TXS = 4096


@dataclass(frozen=True)
class Workload:
    name: str
    op: str                    # what one op is
    code: Optional[str]        # decode code of a wire decode workload
    connections: int = 0       # TCP connections (wire workloads)
    inflight: int = 0          # requests in flight per connection

    @property
    def wire(self) -> bool:
        return self.connections > 0


def _connections(wanted: int) -> int:
    return max(1, min(wanted, procs.nproc()))


WORKLOADS: Dict[str, Workload] = {
    "wire-pipelined": Workload(
        "wire-pipelined", "frame", "hamming84", _connections(2), 32 // _connections(2)
    ),
    "wire-single": Workload("wire-single", "frame", "rm13", 1, 1),
    "memory-mix": Workload("memory-mix", "transaction", None, 1, 1),
    "engine-soft": Workload("engine-soft", "chip", None),
}


def median_us(latencies: List[float]) -> float:
    return statistics.median(latencies) * 1e6


def percentile_us(latencies: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q)) * 1e6


# ---------------------------------------------------------------------
# Wire workloads
# ---------------------------------------------------------------------
class WireRun:
    """State of one wire workload run (server, clients, traffic)."""

    def __init__(self, root: Path, workload: Workload, seed: int, server_args=None):
        self.root = root
        self.server_args = server_args
        self.workload = workload
        self.tally = Tally()
        if workload.code is not None:
            self.pool = inputs.decode_requests(workload.code, seed)
        else:
            self.txs = inputs.memory_transactions(seed, MEMORY_EPOCH_TXS)
            inputs.expect_memory(seed, self.txs)
            self.session_seed = inputs.memory_session_seed(seed)
        self.server: Optional[ServerProcess] = None
        self.clients: List = []
        self.handles: List = []

    def new_traffic(self):
        if self.workload.code is not None:
            return DecodeTraffic(self.workload.code, self.pool)
        return MemoryTraffic(self.txs, self.session_seed)

    # -- set-up -------------------------------------------------------------
    async def setup(self, repeats: int) -> List[float]:
        """Launch-to-first-answer times; keeps the last server."""
        from repro.service import CodecClient

        times = []
        for attempt in range(repeats):
            speed = calibrate.speed_now()
            server = ServerProcess(self.root, self.server_args)
            try:
                client = await CodecClient.connect(port=server.port, timeout=30)
                traffic = self.new_traffic()
                handle = await traffic.open(client)
                # A wrong first answer is a failed op like any other.
                await traffic.step(handle, self.tally)
                elapsed = time.perf_counter() - server.started
                times.append(elapsed * (speed + calibrate.speed_now()) / 2)
            except BaseException:
                server.stop()
                raise
            if attempt < repeats - 1:
                await client.close()
                server.stop()
        self.server = server
        self.traffic = traffic
        self.clients = [client]
        self.handles = [handle]
        while len(self.clients) < self.workload.connections:
            client = await CodecClient.connect(port=self.server.port)
            self.clients.append(client)
            self.handles.append(await traffic.open(client))
        if len(self.clients) > procs.nproc():
            raise RuntimeError("load generator opened more connections than cores")
        return times

    # -- windows ------------------------------------------------------------
    async def tcp_window(self, seconds: float, inflight: int) -> Tally:
        """Closed loops on the TCP connections (``inflight`` per connection,
        or one at a time on the first connection when ``inflight`` is 1)."""
        handles = self.handles if inflight > 1 else self.handles[:1]
        tally = await closed_loops(
            self.traffic, handles, inflight, seconds, self.server.cpu_clock())
        self.tally.merge(tally)
        stray = set(procs.child_pids(os.getpid())) - {self.server.pid}
        if stray:
            self.tally.fail(1, f"load generator is not one process: children {stray}")
        return tally

    async def inprocess_window(self, seconds: float, inflight: int) -> Tally:
        """The same traffic through a fresh in-process server."""
        client = InProcessClient(new_inprocess_server())
        traffic = self.new_traffic()
        handle = await traffic.open(client)
        tally = await closed_loops(traffic, [handle], inflight, seconds)
        self.tally.merge(tally)
        tally.stats = await self.check_stats(client, traffic)
        return tally

    async def check_stats(self, client, traffic) -> Dict:
        """Compare the server's counters with the expected totals."""
        stats = await client.stats()
        seen, want = traffic.counters(stats)
        if seen != want:
            self.tally.fail(_count_mismatch(seen, want),
                            f"STATS {seen} != expected {want}")
        return stats

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.server is not None:
            self.server.stop()


def _count_mismatch(seen, want) -> int:
    if isinstance(want, dict):
        return sum(_count_mismatch((seen or {}).get(k), v) for k, v in want.items())
    if seen is None:
        return max(1, abs(int(want)))
    return abs(int(seen) - int(want))


async def _wire_e2e(
    root: Path, workload: Workload, seed: int, seconds: float,
    setup_repeats: int = SETUP_REPEATS, server_args=None,
) -> Dict:
    run = WireRun(root, workload, seed, server_args)
    pipelined = workload.inflight > 1
    share = SHARES_PIPELINED if pipelined else SHARES_ONE
    try:
        setups = await run.setup(setup_repeats)
        tcp = await run.tcp_window(seconds * share["tcp"], workload.inflight)
        # Latency is taken only with one request in flight.
        latency = await run.tcp_window(seconds * share["probe"], 1) if pipelined else tcp
        stats = await run.check_stats(run.clients[0], run.traffic)
        rss = run.server.peak_rss_mb()
    finally:
        await run.close()
    inprocess_started = time.perf_counter()
    inproc = await run.inprocess_window(
        seconds * share["inprocess"], workload.connections * workload.inflight)
    inproc_one = (await run.inprocess_window(seconds * share["inprocess_one"], 1)
                  if pipelined else inproc)
    return {
        "tally": run.tally,
        "metrics": {
            "setup_s": statistics.median(setups),
            "cpu_us_per_op": tcp.fast("server_cpu_per_op") * 1e6,
            "latency_us": latency.fast("latency") * 1e6,
            "ops_per_s": inproc.fast("ops_per_s"),
            "rss_mb": rss,
        },
        "detail": {
            "setup_s_each": setups,
            "tcp_slices": len(tcp.marks) - 1,
            "latency_slices": len(latency.marks) - 1,
            "inprocess_slices": len(inproc.marks) - 1,
            "speed": {"tcp": tcp.speed(), "latency": latency.speed(),
                      "inprocess": inproc.speed()},
            "tcp_cpu_us_per_op_mean": tcp.cpu_per_op(server=True) * 1e6,
            "inprocess_ops_per_s_mean": inproc.rate(),
            "tcp_ops": tcp.attempted,
            "tcp_elapsed_s": tcp.elapsed,
            "tcp_ops_per_s": tcp.rate(),
            "tcp_p50_us": median_us(tcp.latencies),
            "tcp_p99_us": percentile_us(tcp.latencies, 99),
            "tcp_latency_samples": len(tcp.latencies),
            "latency_requests": len(latency.latencies),
            "client_cpu_us_per_op": tcp.fast("cpu_per_op") * 1e6,
            "server_cpu_s": tcp.server_cpu,
            "inprocess_started": inprocess_started,
            "inprocess_ops": inproc.attempted,
            "inprocess_p50_us": median_us(inproc.latencies),
            "inprocess_latency_one_us": inproc_one.fast("latency") * 1e6,
            "stats_flush_reasons": _flush_reasons(stats),
            "stats_mean_batch_frames": _mean_batch(stats),
            "inprocess_flush_reasons": _flush_reasons(inproc.stats),
            "memory_epochs": getattr(run.traffic, "epochs", None),
            "host_loadavg_end": os.getloadavg()[0],
        },
    }


def _flush_reasons(stats: Dict) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for session in stats.get("sessions", {}).values():
        for reason, count in session.get("flush_reasons", {}).items():
            total[reason] = total.get(reason, 0) + count
    return total


def _mean_batch(stats: Dict) -> Optional[float]:
    batches = frames = 0
    for session in stats.get("sessions", {}).values():
        batches += session.get("batches", 0)
        frames += session.get("mean_batch_frames", 0.0) * session.get("batches", 0)
    return frames / batches if batches else None


# ---------------------------------------------------------------------
# engine-soft
# ---------------------------------------------------------------------
class EngineRun:
    def __init__(self, root: Path, seed: int):
        self.root = root
        self.sweeps = inputs.engine_sweeps(seed)
        self.tally = Tally()

    def setup(self, repeats: int) -> List[float]:
        """Launch to first completed shard of a fresh process."""
        from repro.runtime import worker
        from repro.runtime.spec import DEFAULT_SHARD_SIZE, ShardPlan

        spec = self.sweeps[0].specs[0]
        shard = ShardPlan.split(spec.n_chips, DEFAULT_SHARD_SIZE).shards[0]
        want = worker.run_shard(spec, shard).tolist()
        if inputs.corrupting():
            want[0] += 1
        script = Path(__file__).with_name("engine_setup.py")
        times = []
        for _ in range(repeats):
            speed = calibrate.speed_now()
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(script), str(self.sweeps[0].seed),
                 str(inputs.ENGINE_CHIPS_PER_SPEC)],
                cwd=str(self.root), env=child_env(self.root),
                capture_output=True, text=True, timeout=120,
            )
            elapsed = time.perf_counter() - started
            self.tally.attempted += shard.n_chips
            got = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if got != want:
                self.tally.fail(shard.n_chips, f"engine set-up shard {got} != {want}")
            else:
                self.tally.ops += shard.n_chips
            times.append(elapsed * (speed + calibrate.speed_now()) / 2)
        return times

    def window(self, seconds: float) -> Tally:
        from repro.runtime import MonteCarloEngine

        engine = MonteCarloEngine(jobs=1)
        tally = Tally()
        deadline = tally.start() + seconds
        calls = 0
        while time.perf_counter() < deadline:
            sweep = self.sweeps[calls % len(self.sweeps)]
            calls += 1
            chips = sum(spec.n_chips for spec in sweep.specs)
            tally.attempted += chips
            started = time.perf_counter()
            results = engine.run_many(sweep.specs)
            tally.latencies.append(time.perf_counter() - started)
            bad = [
                index for index, counts in sweep.sampled.items()
                if not np.array_equal(results[index].counts, counts)
            ]
            if bad:
                tally.fail(chips, f"engine counts differ from run_shard on specs {bad}")
            else:
                tally.ops += chips
            tally.maybe_mark()
        tally.stop()
        self.tally.merge(tally)
        return tally


def _engine_e2e(
    root: Path, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS
) -> Dict:
    run = EngineRun(root, seed)
    setups = run.setup(setup_repeats)
    win = run.window(seconds)
    return {
        "tally": run.tally,
        "metrics": {
            "setup_s": statistics.median(setups),
            "cpu_us_per_op": win.fast("cpu_per_op") * 1e6,
            "latency_us": win.fast("latency") * 1e6,
            "ops_per_s": win.fast("ops_per_s"),
            "rss_mb": procs.tree_peak_rss_mb(os.getpid()),
        },
        "detail": {
            "setup_s_each": setups,
            "slices": len(win.marks) - 1,
            "speed": win.speed(),
            "cpu_us_per_op_mean": win.cpu_per_op() * 1e6,
            "ops_per_s_mean": win.rate(),
            "p50_us": median_us(win.latencies),
            "sweeps_run": len(win.latencies),
            "chips": win.attempted,
        },
    }


def run_e2e(
    root: Path, name: str, seed: int, seconds: float,
    setup_repeats: int = SETUP_REPEATS, server_args=None,
) -> Dict:
    workload = WORKLOADS[name]
    if workload.wire:
        return asyncio.run(
            _wire_e2e(root, workload, seed, seconds, setup_repeats, server_args)
        )
    return _engine_e2e(root, seed, seconds, setup_repeats)
