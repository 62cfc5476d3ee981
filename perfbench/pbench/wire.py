"""The load generator: closed loops over TCP and over the in-process path.

One process, one thread of asyncio, at most ``nproc`` connections.  A
closed loop sends a client's next request only when its previous one
has completed; ``inflight`` such loops share each connection.

The in-process loops drive the server's own request path without
sockets — request frame built and parsed, :meth:`CodecServer.dispatch`,
response frame built and parsed — so the TCP and in-process figures of
one workload differ only by the asyncio streams and the socket.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from pbench import calibrate
from pbench.inputs import (
    MEMORY_CODE,
    MEMORY_LINES,
    MEMORY_ROT,
    DecodeRequest,
    MemoryTx,
    memory_ledger,
    memory_matches,
)


#: Length of one measurement slice of a window, seconds.
SLICE_S = 0.05
#: How often the calibration loop is timed inside a slice, seconds.
LOOP_EVERY_S = 0.005
#: The quantile of a window's slices it reports.  Scaling each slice by
#: its calibration loop takes out much of the host's speed changes but
#: not all (the loop and the program slow down by different amounts);
#: the fast tenth of the scaled slices repeated from run to run two to
#: three times better than their median.
FAST_QUANTILE = 0.1


def _no_server() -> float:
    return 0.0


@dataclass
class Tally:
    """What one window attempted, completed and got wrong.

    While a window runs, :meth:`maybe_mark` cuts it at op boundaries
    into slices of about :data:`SLICE_S`, and times the calibration
    loop (:mod:`pbench.calibrate`) about every :data:`LOOP_EVERY_S`.
    Each mark holds the wall time, this process's CPU time, the server
    tree's CPU time, the ops attempted, the latencies recorded and the
    mean loop time of the slice it closes; the loop's own time is taken
    out of the window.  :meth:`per_slice` scales each slice to the nominal core
    speed and :meth:`fast` gives the window's figure.
    """

    ops: int = 0                 # ops completed with a correct answer
    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)   # seconds, per request
    errors: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    cpu: float = 0.0             # load-generator CPU seconds in the window
    server_cpu: float = 0.0      # server-tree CPU seconds in the window
    stats: Optional[Dict] = None  # the server's STATS after the window
    marks: List[Tuple[float, ...]] = field(default_factory=list)
    read_server: Callable[[], float] = _no_server
    _loops: List[float] = field(default_factory=list)  # of the open slice
    _loop_wall: float = 0.0      # time spent in the calibration loop
    _loop_cpu: float = 0.0
    _loop_at: float = 0.0        # when the loop was last timed

    def _time_loop(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self._loops.append(calibrate.loop_seconds())
        self._loop_wall += time.perf_counter() - wall0
        self._loop_cpu += time.process_time() - cpu0

    def mark(self) -> None:
        self._time_loop()
        self.marks.append((
            time.perf_counter() - self._loop_wall,
            time.process_time() - self._loop_cpu,
            self.read_server(), self.attempted, len(self.latencies),
            sum(self._loops) / len(self._loops),
        ))
        self._loops = []
        self._loop_at = self.marks[-1][0]

    def maybe_mark(self) -> None:
        """Close the open slice if it is :data:`SLICE_S` long, else time
        the loop if :data:`LOOP_EVERY_S` has passed."""
        now = time.perf_counter() - self._loop_wall
        if now - self.marks[-1][0] >= SLICE_S:
            self.mark()
        elif now - self._loop_at >= LOOP_EVERY_S:
            self._time_loop()
            self._loop_at = now

    def start(self, read_server: Optional[Callable[[], float]] = None) -> float:
        """Open the window; returns its start on the ``perf_counter`` clock."""
        self.read_server = read_server or _no_server
        self.marks = []
        self.mark()
        return time.perf_counter()

    def stop(self) -> None:
        self.mark()
        first, last = self.marks[0], self.marks[-1]
        self.elapsed = last[0] - first[0]
        self.cpu = last[1] - first[1]
        self.server_cpu = last[2] - first[2]

    def rate(self) -> float:
        """Ops per wall-clock second over the whole window."""
        return self.attempted / max(self.elapsed, 1e-9)

    def cpu_per_op(self, server: bool = False) -> float:
        """CPU seconds per op over the whole window: this process's or
        the server tree's."""
        return (self.server_cpu if server else self.cpu) / max(self.attempted, 1)

    def per_slice(self, what: str) -> np.ndarray:
        """One figure per slice that completed an op, at nominal speed.

        ``what`` is ``ops_per_s`` (wall), ``cpu_per_op`` (this process),
        ``server_cpu_per_op`` or ``latency`` (mean latency of the
        requests that completed in the slice).  CPU times are multiplied
        by the slice's speed (from its mean loop time).  Wall
        times are scaled only for the share of the slice the core was
        busy with this process and the server: the rest is spent waiting
        on timers, which do not run faster on a faster core.  A slice in
        which the server's clock went back (a thread of it ended) is
        left out.
        """
        marks = np.asarray(self.marks, dtype=float)
        wall, cpu, server, ops, _, _ = np.diff(marks, axis=0).T
        speed = calibrate.speed(marks[1:, 5])
        busy = np.clip((cpu + server) / wall, 0.0, 1.0)
        wall_scale = 1.0 - busy + busy * speed
        keep = (ops > 0) & (server >= 0)
        if what == "ops_per_s":
            values = ops / (wall * wall_scale)
        elif what == "cpu_per_op":
            values = cpu * speed / np.maximum(ops, 1)
        elif what == "server_cpu_per_op":
            values = server * speed / np.maximum(ops, 1)
        elif what == "latency":
            bounds = marks[:, 4].astype(int)
            keep &= bounds[1:] > bounds[:-1]
            values = np.array([
                np.mean(self.latencies[a:b]) if b > a else np.nan
                for a, b in zip(bounds[:-1], bounds[1:])
            ]) * wall_scale
        else:
            raise ValueError(what)
        return values[keep]

    def fast(self, what: str) -> float:
        """The window's figure of ``what``: the :data:`FAST_QUANTILE`
        quantile of :meth:`per_slice` (``1 - FAST_QUANTILE`` for
        ``ops_per_s``, where higher is faster)."""
        values = self.per_slice(what)
        if not len(values):
            return float("nan")
        q = 1 - FAST_QUANTILE if what == "ops_per_s" else FAST_QUANTILE
        return float(np.quantile(values, q))

    def speed(self) -> float:
        """Median calibration speed of the window's marks."""
        return float(np.median(calibrate.speed(np.asarray(self.marks)[1:, 5])))

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(why)

    def merge(self, other: "Tally") -> None:
        self.ops += other.ops
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: 5 - len(self.errors)])


async def closed_loops(traffic, handles, inflight: int, seconds: float, cpu_reader=None):
    """``inflight`` closed loops per handle, each one request at a time.

    ``cpu_reader`` gives the server tree's CPU seconds, read at each
    slice mark.
    """
    tally = Tally()
    deadline = tally.start(cpu_reader) + seconds

    async def loop(handle):
        while time.perf_counter() < deadline:
            await traffic.step(handle, tally)
            tally.maybe_mark()

    await asyncio.gather(*(loop(h) for h in handles for _ in range(inflight)))
    tally.stop()
    return tally


# ---------------------------------------------------------------------
# Decode traffic
# ---------------------------------------------------------------------
class DecodeTraffic:
    """Cycles through a pool of expected-answer decode requests."""

    def __init__(self, code: str, pool: Sequence[DecodeRequest]):
        self.code = code
        self.pool = pool
        self.sent = np.zeros(len(pool), dtype=np.int64)
        self._next = itertools.count()

    async def open(self, client):
        return await client.open_session(self.code)

    async def step(self, handle, tally: Tally) -> None:
        index = next(self._next) % len(self.pool)
        self.sent[index] += 1
        request = self.pool[index]
        frames = len(request.words)
        tally.attempted += frames
        started = time.perf_counter()
        try:
            block = await handle.decode(request.words)
        except Exception as exc:  # a refused or failed request is a failed op
            tally.fail(frames, f"decode request failed: {exc!r}")
            return
        tally.latencies.append(time.perf_counter() - started)
        if request.matches(
            block.messages, block.corrected_errors, block.detected_uncorrectable
        ):
            tally.ops += frames
        else:
            tally.fail(frames, f"decode answer differs from the library (request {index})")

    def counters(self, stats: Dict) -> Tuple[Dict, Dict]:
        """(the server's, the expected) corrected/detected frame totals."""
        sessions = stats.get("sessions", {}).values()
        seen = {key: sum(s[key] for s in sessions)
                for key in ("corrected_frames", "detected_frames")}
        want = {
            "corrected_frames": int(
                sum(n * r.corrected_frames for n, r in zip(self.sent, self.pool))),
            "detected_frames": int(
                sum(n * r.detected_frames for n, r in zip(self.sent, self.pool))),
        }
        return seen, want


# ---------------------------------------------------------------------
# Memory traffic
# ---------------------------------------------------------------------
class MemoryTraffic:
    """Replays the transaction list, restarting it on a fresh session.

    Reopening the session with the same config rebuilds the lane from
    scratch (zeroed store, reseeded rot stream), so the list's expected
    answers hold again from its first transaction.  The handle a loop
    passes in is the client; sessions are opened here.
    """

    def __init__(self, txs: List[MemoryTx], session_seed: int):
        self.txs = txs
        self.session_seed = session_seed
        self.session = None
        self.position = 0
        self.epochs = 0

    async def open(self, client):
        return client

    async def step(self, client, tally: Tally) -> None:
        if self.session is None or self.position == len(self.txs):
            if self.session is not None:
                await self.session.close()
                self.epochs += 1
            self.session = await client.open_session(
                MEMORY_CODE, memory_lines=MEMORY_LINES, memory_rot=MEMORY_ROT,
                seed=self.session_seed,
            )
            self.position = 0
        tx = self.txs[self.position]
        self.position += 1
        tally.attempted += 1
        started = time.perf_counter()
        try:
            response = await _memory_request(self.session, tx)
        except Exception as exc:
            tally.fail(1, f"memory {tx.kind} failed: {exc!r}")
            return
        tally.latencies.append(time.perf_counter() - started)
        if memory_matches(tx, response):
            tally.ops += 1
        else:
            tally.fail(1, f"memory {tx.kind} answer differs from the mirror")

    def counters(self, stats: Dict) -> Tuple[Dict, Dict]:
        """(the server's, the expected) SEC/DED ledger of the open session."""
        memory = [s["memory"] for s in stats.get("sessions", {}).values()
                  if "mem=" in s["config"]]
        want = memory_ledger(self.txs[: self.position])
        seen = {key: memory[0][key] if memory else None for key in want}
        return seen, want


async def _memory_request(session, tx: MemoryTx) -> Tuple:
    """Send one transaction; its response as :class:`MemoryTx` expects it."""
    if tx.kind == "read":
        block = await session.mem_read(tx.addresses)
        return (block.messages, block.corrected_errors, block.detected_uncorrectable)
    if tx.kind == "write":
        block = await session.mem_write(tx.addresses, tx.messages)
        return (block.corrected_errors, block.detected_uncorrectable)
    if tx.kind == "rmw":
        block = await session.mem_write_partial(tx.addresses, tx.messages, tx.masks)
        return (block.corrected_errors, block.detected_uncorrectable)
    return (await session.mem_scrub(len(tx.addresses)),)


# ---------------------------------------------------------------------
# The in-process path
# ---------------------------------------------------------------------
class InProcessClient:
    """A CodecClient look-alike that calls ``CodecServer.dispatch``.

    Requests and responses still go through the protocol's frame
    builders and parsers on both sides; only the socket is missing.
    """

    def __init__(self, server):
        from repro.service import protocol

        self._protocol = protocol
        self._server = server
        self._ids = itertools.count(1)

    async def request(self, opcode: int, body: bytes = b""):
        protocol = self._protocol
        request_id = next(self._ids)
        wire = protocol.frame_bytes(protocol.build_request(opcode, request_id, body))
        request = protocol.parse_request(wire[4:])
        reply = await self._server.dispatch(request)
        wire = protocol.frame_bytes(
            protocol.build_response(opcode, request_id, protocol.ST_OK, reply)
        )
        return protocol.parse_response(wire[4:]).raise_for_status()

    async def open_session(self, code: str, **config):
        from repro.service.client import SessionHandle

        payload = {"code": code, "decoder": None, "p01": 0.0, "p10": 0.0,
                   "seed": config.pop("seed", None), **config}
        reply = await self.request(
            self._protocol.OP_OPEN, self._protocol.build_json_body(payload)
        )
        return SessionHandle(self, self._protocol.parse_json_body(reply.body))

    async def close_session(self, session_id: int) -> Dict:
        body = self._protocol.build_json_body({"session_id": int(session_id)})
        reply = await self.request(self._protocol.OP_CLOSE, body)
        return self._protocol.parse_json_body(reply.body)

    async def stats(self) -> Dict:
        reply = await self.request(self._protocol.OP_STATS)
        return self._protocol.parse_json_body(reply.body)


def new_inprocess_server():
    """A server object at its defaults, never bound to a socket."""
    from repro.service import CodecServer

    return CodecServer()
