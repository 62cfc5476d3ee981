"""Per-session and service-wide telemetry for the streaming codec server.

Counters follow the decoder's own vocabulary: a frame is *corrected*
when the decoder repaired at least one bit, *detected* when it raised
the detected-uncorrectable flag, and *accepted* otherwise (delivered
with no anomaly).

Since the observability layer landed, every counter lives as a labelled
series on a :class:`~repro.obs.metrics.MetricsRegistry` — the same
registry the ``OP_METRICS`` Prometheus scrape renders — and latency is
recorded into fixed-log-bucket histograms, which (unlike the older
reservoir percentiles) merge *exactly* across pool workers: the rollup
sums bucket counts instead of averaging percentiles.  The legacy STATS
JSON shape is preserved verbatim; per-session latency entries
additionally carry their raw bucket counts so the rollup can merge them.

Each :class:`ServiceTelemetry` owns its registry (``registry=None``
builds a private one), so many servers can coexist in one test process
without cross-contaminating counters; process-global metrics (engine,
cache, kernel profiles) live on :func:`repro.obs.metrics.default_registry`
and are merged in at scrape time.

:class:`LatencyReservoir` remains for exact small-window percentiles
(the load generator's client-side measurements still use one).
"""

from __future__ import annotations

import time
from collections import Counter as TallyCounter
from collections import deque
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.errors import BackendError
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS_US,
    MetricsRegistry,
    bucket_percentile,
    default_registry,
    merge_snapshots,
)

#: Bucket layout of every request-latency histogram (µs upper edges).
#: Part of the wire contract: the pool rollup merges per-worker latency
#: by summing these buckets, so every process must agree on the layout.
LATENCY_BUCKETS_US = DEFAULT_TIME_BUCKETS_US

#: Bucket layout of the stream window-occupancy histogram (codewords).
STREAM_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Memory-lane access paths mirrored from :data:`repro.memory.MEMORY_PATHS`
#: (kept literal here so importing telemetry never pulls the memory stack).
MEMORY_PATH_LABELS = ("read", "rmw", "scrub")


class LatencyReservoir:
    """Sliding window of the most recent per-request latencies (µs)."""

    def __init__(self, maxlen: int = 8192):
        self._samples: Deque[float] = deque(maxlen=maxlen)

    def record(self, latency_us: float) -> None:
        self._samples.append(float(latency_us))

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the window, 0.0 when empty."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.fromiter(self._samples, dtype=float), q))

    def snapshot(self) -> Dict[str, float]:
        return {
            "samples": len(self._samples),
            "p50_us": round(self.percentile(50.0), 1),
            "p99_us": round(self.percentile(99.0), 1),
        }


class MergedLatencyView:
    """Reservoir-shaped read view over a session's latency histograms.

    Merges the per-op histogram children (bucket sums are exact), so
    ``session.telemetry.latency`` keeps its old percentile/snapshot
    surface while the underlying data became mergeable buckets.
    """

    def __init__(self, children: List):
        self._children = list(children)

    def _merged_counts(self) -> List[int]:
        counts = [0] * (len(LATENCY_BUCKETS_US) + 1)
        for child in self._children:
            for i, c in enumerate(child.counts):
                counts[i] += c
        return counts

    def __len__(self) -> int:
        return sum(self._merged_counts())

    def percentile(self, q: float) -> float:
        return bucket_percentile(self._merged_counts(), LATENCY_BUCKETS_US, q)

    def snapshot(self) -> Dict:
        counts = self._merged_counts()
        return {
            "samples": sum(counts),
            "p50_us": round(bucket_percentile(counts, LATENCY_BUCKETS_US, 50.0), 1),
            "p99_us": round(bucket_percentile(counts, LATENCY_BUCKETS_US, 99.0), 1),
            "buckets": counts,
        }


class SessionTelemetry:
    """Counters and latency histograms for one codec session.

    Mutations land on labelled registry series (labels: ``session``,
    ``code``, ``backend``, plus ``op``/``reason``/``outcome`` where
    applicable); the pre-registry attribute surface (``requests``,
    ``frames_corrected``, ``flush_reasons``, ...) is preserved as read
    properties computed from those series.
    """

    def __init__(
        self,
        clock=time.perf_counter,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, str]] = None,
    ):
        # clock defaults to perf_counter: the batcher and tracer stamp
        # with perf_counter, so uptime/throughput must come off the same
        # clock or latency attributions mix two timebases.
        self._clock = clock
        self.started_at = clock()
        self.registry = registry if registry is not None else MetricsRegistry()
        base = {"session": "", "code": "", "backend": ""}
        base.update(labels or {})
        self._base = base
        reg = self.registry
        session_labels = ("session", "code", "backend")
        self._requests_family = reg.counter(
            "repro_service_requests_total",
            "Requests received, by operation.",
            session_labels + ("op",),
        )
        self._frames_family = reg.counter(
            "repro_service_frames_total",
            "Frames received, by operation.",
            session_labels + ("op",),
        )
        self._batches_family = reg.counter(
            "repro_service_batches_total",
            "Micro-batch flushes, by operation and flush reason.",
            session_labels + ("op", "reason"),
        )
        self._latency_family = reg.histogram(
            "repro_service_request_latency_us",
            "Per-request latency from arrival to batch completion (µs).",
            session_labels + ("op",),
            buckets=LATENCY_BUCKETS_US,
        )
        self._outcomes_family = reg.counter(
            "repro_service_decoded_frames_total",
            "Decoded frames by outcome (corrected/detected/accepted).",
            session_labels + ("outcome",),
        )
        self._soft_family = reg.counter(
            "repro_service_soft_frames_total",
            "Soft-path frames (result: decoded = all, corrected = repaired).",
            session_labels + ("result",),
        )
        self._bits = reg.counter(
            "repro_service_corrected_bits_total",
            "Total bits repaired by the decoder.",
            session_labels,
        ).labels(**base)
        self._batch_max = reg.gauge(
            "repro_service_batch_frames_max",
            "Largest batch flushed so far.",
            session_labels,
        ).labels(**base)
        self._stream_miss = reg.counter(
            "repro_stream_deadline_miss_total",
            "Stream codewords forced to a best-effort decision at the deadline.",
            session_labels,
        ).labels(**base)
        self._stream_decisions_family = reg.counter(
            "repro_stream_decisions_total",
            "Stream decode decisions by result "
            "(ontime = window closed, forced = deadline, flushed = drain).",
            session_labels + ("result",),
        )
        self._stream_decisions = {
            result: self._stream_decisions_family.labels(**base, result=result)
            for result in ("ontime", "forced", "flushed")
        }
        self._stream_pending = reg.gauge(
            "repro_stream_window_pending",
            "Codewords currently open in the sliding soft window.",
            session_labels,
        ).labels(**base)
        self._stream_occupancy = reg.histogram(
            "repro_stream_window_occupancy",
            "Open-codeword window occupancy sampled after each stream push.",
            session_labels,
            buckets=STREAM_OCCUPANCY_BUCKETS,
        ).labels(**base)
        self._memory_ops_family = reg.counter(
            "repro_memory_ops_total",
            "Memory-lane decode events, by access path (read/rmw/scrub).",
            session_labels + ("path",),
        )
        self._memory_sec_family = reg.counter(
            "repro_memory_sec_total",
            "Memory lines corrected (SEC events), by access path.",
            session_labels + ("path",),
        )
        self._memory_ded_family = reg.counter(
            "repro_memory_ded_total",
            "Memory lines detected uncorrectable (DED events), by access path.",
            session_labels + ("path",),
        )
        self._memory_bits_family = reg.counter(
            "repro_memory_corrected_bits_total",
            "Memory bits repaired by decode, by access path.",
            session_labels + ("path",),
        )
        self._memory_ops = {
            path: self._memory_ops_family.labels(**base, path=path)
            for path in MEMORY_PATH_LABELS
        }
        self._memory_sec = {
            path: self._memory_sec_family.labels(**base, path=path)
            for path in MEMORY_PATH_LABELS
        }
        self._memory_ded = {
            path: self._memory_ded_family.labels(**base, path=path)
            for path in MEMORY_PATH_LABELS
        }
        self._memory_bits = {
            path: self._memory_bits_family.labels(**base, path=path)
            for path in MEMORY_PATH_LABELS
        }
        self._memory_scrubbed = reg.counter(
            "repro_memory_scrubbed_lines_total",
            "Memory lines swept by the scrubber.",
            session_labels,
        ).labels(**base)
        self._memory_repaired = reg.counter(
            "repro_memory_repaired_lines_total",
            "Memory lines the scrubber rewrote with a corrected codeword.",
            session_labels,
        ).labels(**base)
        self._memory_rot = reg.counter(
            "repro_memory_rot_bits_total",
            "Raw bits flipped into the store by rot injection.",
            session_labels,
        ).labels(**base)
        self._requests: Dict[str, object] = {}
        self._frames: Dict[str, object] = {}
        self._batches: Dict[tuple, object] = {}
        self._latency: Dict[str, object] = {}
        self._outcomes = {
            outcome: self._outcomes_family.labels(**base, outcome=outcome)
            for outcome in ("corrected", "detected", "accepted")
        }
        self._soft = {
            result: self._soft_family.labels(**base, result=result)
            for result in ("decoded", "corrected")
        }

    # -- recording ------------------------------------------------------
    def _op_child(self, cache: Dict, family, op: str):
        child = cache.get(op)
        if child is None:
            child = family.labels(**self._base, op=op)
            cache[op] = child
        return child

    def record_request(self, op: str, n_frames: int) -> None:
        self._op_child(self._requests, self._requests_family, op).inc()
        self._op_child(self._frames, self._frames_family, op).inc(n_frames)

    def record_batch(self, op: str, n_frames: int, reason: str) -> None:
        key = (op, reason)
        child = self._batches.get(key)
        if child is None:
            child = self._batches_family.labels(**self._base, op=op, reason=reason)
            self._batches[key] = child
        child.inc()
        self._batch_max.set_max(n_frames)

    def record_decode_outcome(
        self,
        corrected_errors: np.ndarray,
        detected_uncorrectable: np.ndarray,
        soft: bool = False,
    ) -> None:
        corrected = np.asarray(corrected_errors)
        undetected = ~np.asarray(detected_uncorrectable, dtype=bool)
        total = int(undetected.size)
        detected = total - int(np.count_nonzero(undetected))
        # Correction counts are non-negative, so the nonzero ones among
        # the undetected frames are exactly the corrected frames.
        fixed = int(np.count_nonzero(corrected[undetected]))
        self._outcomes["corrected"].inc(fixed)
        self._outcomes["detected"].inc(detected)
        self._outcomes["accepted"].inc(total - detected - fixed)
        self._bits.inc(int(corrected.sum()))
        if soft:
            self._soft["decoded"].inc(total)
            self._soft["corrected"].inc(fixed)

    def record_latency_us(self, latency_us: float, op: str = "") -> None:
        self._op_child(self._latency, self._latency_family, op).observe(
            float(latency_us)
        )

    def record_stream_decisions(self, result: str, count: int) -> None:
        """Count ``count`` stream decisions of kind ``result``.

        ``result`` is ``ontime``/``forced``/``flushed``; forced
        decisions additionally increment the deadline-miss counter —
        every miss is a forced decision by definition, and the mandated
        ``repro_stream_deadline_miss_total`` series must count each one.
        """
        if count <= 0:
            return
        self._stream_decisions[result].inc(count)
        if result == "forced":
            self._stream_miss.inc(count)

    def update_stream_window(self, pending: int) -> None:
        """Record the window occupancy after a push (gauge + histogram)."""
        self._stream_pending.set(pending)
        self._stream_occupancy.observe(float(pending))

    def record_memory_path(
        self,
        path: str,
        corrected_errors: np.ndarray,
        detected_uncorrectable: np.ndarray,
    ) -> None:
        """Charge one memory-lane decode batch to path ``path``.

        Uses the same SEC/DED classification as the frontend's
        :meth:`~repro.memory.frontend.PathCounters.charge`, so the
        telemetry series sum to exactly the frontend's own ledger.
        """
        corrected = np.asarray(corrected_errors)
        detected = np.asarray(detected_uncorrectable, dtype=bool)
        self.record_memory_counts(
            path,
            ops=int(corrected.shape[0]),
            sec=int(np.count_nonzero((corrected > 0) & ~detected)),
            ded=int(np.count_nonzero(detected)),
            corrected_bits=int(corrected[~detected].sum()),
        )

    def record_memory_counts(
        self, path: str, ops: int, sec: int, ded: int, corrected_bits: int
    ) -> None:
        """Charge pre-classified SEC/DED counts to path ``path``."""
        self._memory_ops[path].inc(int(ops))
        self._memory_sec[path].inc(int(sec))
        self._memory_ded[path].inc(int(ded))
        self._memory_bits[path].inc(int(corrected_bits))

    def record_memory_scrub(
        self, scrubbed_lines: int, repaired_lines: int, rot_bits: int
    ) -> None:
        """Record one scrub step's sweep width, repairs and injected rot."""
        self._memory_scrubbed.inc(int(scrubbed_lines))
        self._memory_repaired.inc(int(repaired_lines))
        self._memory_rot.inc(int(rot_bits))

    # -- back-compat attribute surface ---------------------------------
    @property
    def requests(self) -> TallyCounter:
        return TallyCounter(
            {op: child.value for op, child in self._requests.items() if child.value}
        )

    @property
    def frames(self) -> TallyCounter:
        return TallyCounter(
            {op: child.value for op, child in self._frames.items() if child.value}
        )

    @property
    def flush_reasons(self) -> TallyCounter:
        reasons: TallyCounter = TallyCounter()
        for (_, reason), child in self._batches.items():
            if child.value:
                reasons[reason] += child.value
        return reasons

    @property
    def batches(self) -> int:
        return sum(child.value for child in self._batches.values())

    @property
    def batch_frames_max(self) -> int:
        return int(self._batch_max.value)

    @property
    def frames_corrected(self) -> int:
        return self._outcomes["corrected"].value

    @property
    def frames_detected(self) -> int:
        return self._outcomes["detected"].value

    @property
    def frames_accepted(self) -> int:
        return self._outcomes["accepted"].value

    @property
    def bits_corrected(self) -> int:
        return self._bits.value

    @property
    def soft_frames_decoded(self) -> int:
        return self._soft["decoded"].value

    @property
    def soft_frames_corrected(self) -> int:
        return self._soft["corrected"].value

    @property
    def latency(self) -> MergedLatencyView:
        return MergedLatencyView(self._latency.values())

    @property
    def stream_deadline_misses(self) -> int:
        return self._stream_miss.value

    @property
    def stream_decisions(self) -> TallyCounter:
        return TallyCounter(
            {
                result: child.value
                for result, child in self._stream_decisions.items()
                if child.value
            }
        )

    def snapshot(self) -> Dict:
        elapsed = max(self._clock() - self.started_at, 1e-9)
        total_frames = sum(self.frames.values())
        batches = self.batches
        mean_batch = (total_frames / batches) if batches else 0.0
        return {
            "uptime_s": round(elapsed, 3),
            "requests": dict(self.requests),
            "frames": dict(self.frames),
            "throughput_fps": round(total_frames / elapsed, 1),
            "corrected_frames": self.frames_corrected,
            "detected_frames": self.frames_detected,
            "accepted_frames": self.frames_accepted,
            "corrected_bits": self.bits_corrected,
            "soft_decoded_frames": self.soft_frames_decoded,
            "soft_corrected_frames": self.soft_frames_corrected,
            "batches": batches,
            "mean_batch_frames": round(mean_batch, 2),
            "max_batch_frames": self.batch_frames_max,
            "flush_reasons": dict(self.flush_reasons),
            "latency": self.latency.snapshot(),
            "stream": {
                "deadline_misses": self.stream_deadline_misses,
                "decisions": dict(self.stream_decisions),
                "window_pending": int(self._stream_pending.value),
            },
            "memory": {
                "paths": {
                    path: {
                        "ops": self._memory_ops[path].value,
                        "sec": self._memory_sec[path].value,
                        "ded": self._memory_ded[path].value,
                        "corrected_bits": self._memory_bits[path].value,
                    }
                    for path in MEMORY_PATH_LABELS
                },
                "sec_total": sum(c.value for c in self._memory_sec.values()),
                "ded_total": sum(c.value for c in self._memory_ded.values()),
                "corrected_bits_total": sum(
                    c.value for c in self._memory_bits.values()
                ),
                "scrubbed_lines": self._memory_scrubbed.value,
                "repaired_lines": self._memory_repaired.value,
                "rot_bits": self._memory_rot.value,
            },
        }


def _active_backend_name() -> Optional[str]:
    """The kernel backend an unqualified decode resolves to right now.

    Reported in STATS so operators can confirm which engine a server
    (or each pool worker — the env round-trips through the fork) is
    actually decoding with.  ``None`` if resolution itself fails (e.g.
    ``REPRO_BACKEND`` names an unusable backend); anything *other* than
    a backend resolution failure — an import cycle, a real bug — is
    allowed to propagate rather than masquerading as ``backend: null``.
    """
    try:
        from repro.backends import default_backend

        return default_backend().name
    except BackendError:
        return None


class ServiceTelemetry:
    """Aggregates per-session telemetry into the stats-endpoint payload."""

    def __init__(
        self, clock=time.perf_counter, registry: Optional[MetricsRegistry] = None
    ):
        # Same clock as the batcher and tracer (perf_counter); see
        # SessionTelemetry.__init__.
        self._clock = clock
        self.started_at = clock()
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._connections_total = reg.counter(
            "repro_service_connections_total", "Client connections accepted."
        ).labels()
        self._connections_open = reg.gauge(
            "repro_service_connections_open", "Client connections currently open."
        ).labels()
        self._protocol_errors = reg.counter(
            "repro_service_protocol_errors_total",
            "Malformed frames, unknown opcodes, and oversized payloads.",
        ).labels()
        self._backend_info = reg.gauge(
            "repro_backend_info",
            "Resolved kernel backend of this process (value is always 1).",
            ("backend",),
        )
        self._sessions: Dict[int, "SessionTelemetry"] = {}
        self._backend_name: Optional[str] = None
        self._backend_resolved = False

    def _backend(self) -> Optional[str]:
        if not self._backend_resolved:
            self._backend_name = _active_backend_name()
            self._backend_resolved = True
            if self._backend_name:
                self._backend_info.labels(backend=self._backend_name).set(1)
        return self._backend_name

    def session(self, session_id: int, code: Optional[str] = None) -> SessionTelemetry:
        if session_id not in self._sessions:
            self._sessions[session_id] = SessionTelemetry(
                self._clock,
                registry=self.registry,
                labels={
                    "session": str(session_id),
                    "code": code or "",
                    "backend": self._backend() or "",
                },
            )
        return self._sessions[session_id]

    def drop_session(self, session_id: int) -> None:
        """Forget a closed session's telemetry wrapper.

        The registry *series* stay (Prometheus counters are cumulative;
        a scrape after close still sees the totals), but the session
        disappears from STATS snapshots and the wrapper cache stays
        bounded under session churn.  Reopening the same labels resumes
        the same series — family lookup is idempotent.
        """
        self._sessions.pop(session_id, None)

    @property
    def connections_total(self) -> int:
        return self._connections_total.value

    @property
    def connections_open(self) -> int:
        return int(self._connections_open.value)

    @property
    def protocol_errors(self) -> int:
        return self._protocol_errors.value

    def connection_opened(self) -> None:
        self._connections_total.inc()
        self._connections_open.inc()

    def connection_closed(self) -> None:
        # Clamp at zero: a double-close during crash teardown (the
        # connection handler and the server's shutdown path both
        # reporting the same socket) must never drive the gauge negative.
        if self._connections_open.value > 0:
            self._connections_open.dec()
        else:
            self._connections_open.set(0)

    def record_protocol_error(self, count: int = 1) -> None:
        self._protocol_errors.inc(count)

    def snapshot(self, session_labels: Optional[Dict[int, str]] = None) -> Dict:
        sessions = {}
        for sid, telemetry in sorted(self._sessions.items()):
            entry = telemetry.snapshot()
            if session_labels and sid in session_labels:
                entry["config"] = session_labels[sid]
            sessions[str(sid)] = entry
        total_frames = sum(
            sum(t.frames.values()) for t in self._sessions.values()
        )
        elapsed = max(self._clock() - self.started_at, 1e-9)
        return {
            "uptime_s": round(elapsed, 3),
            "connections_total": self.connections_total,
            "connections_open": self.connections_open,
            "protocol_errors": self.protocol_errors,
            "frames_total": total_frames,
            "throughput_fps": round(total_frames / elapsed, 1),
            "backend": self._backend(),
            "sessions": sessions,
        }

    def metrics_snapshot(self) -> Dict:
        """This process's full metrics view: service + process-global.

        The merge is what the ``OP_METRICS`` scrape renders (and what a
        pool worker ships to the front): the server's own registry plus
        the process-default registry carrying engine/cache/kernel
        metrics.  Family names are disjoint by convention, so the merge
        is effectively a concatenation.
        """
        self._backend()  # ensure repro_backend_info is populated
        return merge_snapshots(
            [self.registry.snapshot(), default_registry().snapshot()]
        )


def _merge_latency_summaries(session_entries) -> Dict:
    """Exact merge of per-session latency entries via their buckets."""
    counts = [0] * (len(LATENCY_BUCKETS_US) + 1)
    samples_without_buckets = 0
    for entry in session_entries:
        latency = entry.get("latency") or {}
        buckets = latency.get("buckets")
        if buckets is None:
            samples_without_buckets += int(latency.get("samples", 0))
            continue
        for i, c in enumerate(buckets[: len(counts)]):
            counts[i] += int(c)
    merged = {
        "samples": sum(counts) + samples_without_buckets,
        "p50_us": round(bucket_percentile(counts, LATENCY_BUCKETS_US, 50.0), 1),
        "p99_us": round(bucket_percentile(counts, LATENCY_BUCKETS_US, 99.0), 1),
        "buckets": counts,
    }
    return merged


def rollup_worker_snapshots(front: Dict, worker_snapshots) -> Dict:
    """Merge per-worker telemetry snapshots into one stats payload.

    ``front`` is the front end's own :meth:`ServiceTelemetry.snapshot`
    (connections and protocol errors are observed there; session frame
    counters live in the workers).  Each worker snapshot is the worker's
    ``ServiceTelemetry.snapshot`` augmented with ``index``/``pid``/
    ``restarts``/``ready`` by the pool.  The rollup keeps the flat
    single-process shape — ``frames_total`` and ``throughput_fps`` are
    sums, ``sessions`` is the union with each entry tagged by its owning
    worker — and adds a ``workers`` array, so a STATS scraper written
    against the single-process server keeps working and tests can check
    the invariant *rollup == sum of per-worker counters* directly.

    Each worker summary carries its sessions' summed ``flush_reasons``
    and an exact bucket-merged ``latency`` summary — the counters the
    old summary dict dropped.
    """
    merged = dict(front)
    merged["mode"] = "pool"
    sessions: Dict[str, Dict] = {}
    frames_total = 0
    throughput = 0.0
    workers = []
    for snap in worker_snapshots:
        worker_sessions = snap.get("sessions", {})
        flush_reasons: TallyCounter = TallyCounter()
        memory_totals: TallyCounter = TallyCounter()
        for entry in worker_sessions.values():
            flush_reasons.update(entry.get("flush_reasons", {}))
            memory = entry.get("memory") or {}
            for field_name in (
                "sec_total",
                "ded_total",
                "corrected_bits_total",
                "scrubbed_lines",
                "repaired_lines",
                "rot_bits",
            ):
                memory_totals[field_name] += int(memory.get(field_name, 0))
        summary = {
            "index": snap.get("index"),
            "pid": snap.get("pid"),
            "restarts": snap.get("restarts", 0),
            "ready": snap.get("ready", True),
            "uptime_s": snap.get("uptime_s", 0.0),
            "frames_total": snap.get("frames_total", 0),
            "throughput_fps": snap.get("throughput_fps", 0.0),
            "backend": snap.get("backend"),
            "flush_reasons": dict(flush_reasons),
            "memory": dict(memory_totals),
            "latency": _merge_latency_summaries(worker_sessions.values()),
            "sessions": sorted(int(sid) for sid in worker_sessions),
        }
        workers.append(summary)
        frames_total += summary["frames_total"]
        throughput += summary["throughput_fps"]
        for sid, entry in worker_sessions.items():
            tagged = dict(entry)
            tagged["worker"] = snap.get("index")
            sessions[str(sid)] = tagged
    merged["workers"] = sorted(workers, key=lambda w: (w["index"] is None, w["index"]))
    merged["frames_total"] = frames_total
    merged["throughput_fps"] = round(throughput, 1)
    merged["sessions"] = {sid: sessions[sid] for sid in sorted(sessions, key=int)}
    return merged
