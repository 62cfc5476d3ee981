"""The traced run: per-layer costs, each tied to the metric it should move.

For workload W the traced run

1. measures W end to end with tracing off, then again with the span
   wrappers of :func:`install` on; the difference of W's headline
   metric is the tracing overhead;
2. reads the layers W exercises off the spans of the traced pass (the
   in-process window for the service layers, the engine window for the
   engine layers);
3. times the kernel, decoder and session layers directly at W's batch
   shapes;
4. fills the layers W does not exercise from a short run of the
   workload that does (``wire-single`` for the batcher, front and
   client; ``memory-mix`` for the memory frontend; ``engine-soft`` for
   the engine), so every traced run reports every layer;
5. measures ``workers.forward_cpu_us_per_frame`` from two short
   ``wire-pipelined`` TCP runs, at ``--workers 1`` and at the default.

The spans are written to ``.bench_build/perfbench/trace-*.jsonl``.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from bisect import bisect_left
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from pbench import inputs
from pbench.measure import MEMORY_EPOCH_TXS, WORKLOADS, EngineRun, run_e2e
from pbench.server import build_dir
from pbench.spans import RECORDER, Span, dump, self_times

#: Per-layer metric -> (unit, what it should move).
LAYERS: Dict[str, Tuple[str, str]] = {
    "backends.kernel_ns_per_frame": (
        "ns", "engine-soft ops_per_s; wire-pipelined cpu_us_per_op"),
    "decoders.call_us": (
        "us", "wire-single latency_us+cpu_us_per_op; memory-mix latency_us; "
              "engine-soft ops_per_s; wire-pipelined only a little"),
    "decoders.self_us": (
        "us", "wire-single latency_us+cpu_us_per_op; memory-mix latency_us; "
              "engine-soft ops_per_s; wire-pipelined only a little"),
    "session.self_us": ("us", "wire-single cpu_us_per_op"),
    "batcher.wait_us": (
        "us", "wire-single latency_us (most); wire-pipelined cpu_us_per_op; "
              "not memory-mix"),
    "batcher.frames_per_flush": (
        "frames", "wire-pipelined cpu_us_per_op; wire-single latency_us; not memory-mix"),
    "batcher.deadline_flush_ratio": (
        "ratio", "wire-single latency_us; wire-pipelined cpu_us_per_op; not memory-mix"),
    "server.mean_batch_frames": (
        "frames", "wire-pipelined cpu_us_per_op; not memory-mix"),
    "server.deadline_flush_ratio": (
        "ratio", "wire-single latency_us; wire-pipelined cpu_us_per_op; not memory-mix"),
    "protocol.us_per_request": (
        "us", "wire-pipelined cpu_us_per_op; memory-mix latency_us+cpu_us_per_op"),
    "server.front_us_per_request": (
        "us", "wire-single latency_us; wire-pipelined cpu_us_per_op"),
    "client.cpu_us_per_op": ("us", "wire-single latency_us; memory-mix latency_us"),
    "memory.read_us": ("us", "memory-mix latency_us+cpu_us_per_op"),
    "memory.write_us": ("us", "memory-mix latency_us+cpu_us_per_op"),
    "memory.rmw_us": ("us", "memory-mix latency_us+cpu_us_per_op"),
    "memory.scrub_us": ("us", "memory-mix latency_us+cpu_us_per_op"),
    "link.transmit_us_per_chip": ("us", "engine-soft ops_per_s"),
    "runtime.shard_us_per_chip": ("us", "engine-soft ops_per_s"),
    "runtime.engine_us_per_chip": ("us", "engine-soft ops_per_s"),
    "workers.forward_cpu_us_per_frame": (
        "us", "no gated workload (pooled serving is not one)"),
    "wire.ops_per_s": ("1/s", "recorded, not gated: TCP throughput swings 3x"),
    "wire.p99_us": ("us", "recorded, not gated: p99 swings 3x"),
    "wire.latency_samples": ("count", "sample count behind wire.p99_us"),
    "tracing.overhead_pct": ("%", "cost of the span wrappers on the headline metric"),
}

#: The headline metric whose traced/untraced change is the overhead.
HEADLINE = {
    "wire-pipelined": "ops_per_s",
    "wire-single": "latency_us",
    "memory-mix": "latency_us",
    "engine-soft": "ops_per_s",
}

#: Batch shapes the kernel/decoder/session layers are timed at:
#: (code, frames per call, soft).  wire-pipelined's batch is the
#: server's observed mean batch when known.
SHAPES = {
    "wire-pipelined": [("hamming84", 208, False)],
    "wire-single": [("rm13", 16, False)],
    "memory-mix": [("hamming84", 16, False)],
    "engine-soft": [(code, 256, soft) for code in ("rm13", "hamming74", "hamming84")
                    for soft in (False, True)],
}
#: Seconds spent timing one shape of one layer.
LAYER_LOOP_S = 0.25

_KERNELS = (
    "pack_rows", "pack_cols", "popcount", "hamming_distance", "gf2_matmul",
    "nearest_codeword", "syndrome_decode", "correlation_decode",
    "soft_spectrum_decode",
)


# ---------------------------------------------------------------------
# Span wrappers around the public calls into each layer
# ---------------------------------------------------------------------
def _frames(args, kwargs):
    first = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    return {"frames": int(len(first))} if hasattr(first, "__len__") else {}


def _kernel_frames(args, kwargs):
    first = args[0] if args else next(iter(kwargs.values()), None)
    return {"frames": int(len(first))} if hasattr(first, "__len__") else {}


def install() -> None:
    """Wrap the layer entry points this process calls; idempotent."""
    if getattr(install, "done", False):
        return
    install.done = True
    from repro.backends import default_backend
    from repro.coding.decoders import default_decoder_for
    from repro.coding.registry import get_code
    from repro.link.awgn import AwgnFluxChannel
    from repro.memory.frontend import MemoryEccFrontend
    from repro.memory.scrub import Scrubber
    from repro.runtime import engine, worker
    from repro.service import protocol
    from repro.service.batcher import MicroBatcher
    from repro.service.client import SessionHandle
    from repro.service.session import CodecSession

    rec = RECORDER
    backend = default_backend()
    for name in _KERNELS:
        setattr(backend, name, rec.wrap("backends." + name, getattr(backend, name),
                                        _kernel_frames))
    decoder_classes = {type(default_decoder_for(get_code(code)))
                       for code in ("rm13", "hamming74", "hamming84")}
    for cls in decoder_classes:
        for method in ("decode_batch_detailed", "decode_soft_batch_detailed"):
            setattr(cls, method, rec.wrap("decoders." + method,
                                          getattr(cls, method), _frames))
    CodecSession.decode_frames = rec.wrap(
        "session.decode_frames", CodecSession.decode_frames, _frames)
    MicroBatcher.submit = rec.wrap_async(
        "batcher.submit", MicroBatcher.submit,
        lambda a, k: {"frames": int(len(a[3]))})
    for name in dir(protocol):
        if name.startswith(("build_", "parse_")) or name == "frame_bytes":
            setattr(protocol, name, rec.wrap("protocol." + name,
                                             getattr(protocol, name)))
    for method in ("decode", "mem_read", "mem_write", "mem_write_partial", "mem_scrub"):
        setattr(SessionHandle, method, rec.wrap_async(
            "client." + method, getattr(SessionHandle, method)))
    for method, span in (("read", "memory.read"), ("write", "memory.write"),
                         ("write_partial", "memory.rmw")):
        setattr(MemoryEccFrontend, method,
                rec.wrap(span, getattr(MemoryEccFrontend, method)))
    Scrubber.step = rec.wrap("memory.scrub", Scrubber.step)
    AwgnFluxChannel.transmit_soft = rec.wrap(
        "link.transmit_soft", AwgnFluxChannel.transmit_soft)
    worker.run_shard = rec.wrap(
        "runtime.run_shard", worker.run_shard,
        lambda a, k: {"chips": int(a[1].n_chips)})
    engine.MonteCarloEngine.run_many = rec.wrap(
        "runtime.run_many", engine.MonteCarloEngine.run_many,
        lambda a, k: {"chips": int(sum(s.n_chips for s in a[1]))})


# ---------------------------------------------------------------------
# Reading layers off spans
# ---------------------------------------------------------------------
def _named(spans: List[Span], prefix: str) -> List[Span]:
    return [s for s in spans if s.name.startswith(prefix)]


def _mean_us(spans: List[Span]) -> Optional[float]:
    return statistics.fmean(s.dur for s in spans) * 1e6 if spans else None


def batcher_layer(spans: List[Span], flush_reasons: Dict[str, int]) -> Dict:
    """Wait, batch size and deadline share of one in-process window.

    A lane flushes everything queued, so a request waits until the
    first flush (``session.decode_frames`` span) that starts after it
    was submitted.
    """
    flushes = sorted(_named(spans, "session.decode_frames"), key=lambda s: s.start)
    starts = [s.start for s in flushes]
    waits = []
    for submit in _named(spans, "batcher.submit"):
        i = bisect_left(starts, submit.start)
        if i < len(starts):
            waits.append(starts[i] - submit.start)
    total = sum(flush_reasons.values())
    return {
        "batcher.wait_us": statistics.median(waits) * 1e6 if waits else None,
        "batcher.frames_per_flush": (
            statistics.fmean(s.attrs.get("frames", 0) for s in flushes)
            if flushes else None),
        "batcher.deadline_flush_ratio": (
            flush_reasons.get("deadline", 0) / total if total else None),
    }


def protocol_per_request(spans: List[Span]) -> Optional[float]:
    requests = len(_named(spans, "client."))
    if not requests:
        return None
    return sum(s.dur for s in _named(spans, "protocol.")) / requests * 1e6


def memory_layer(spans: List[Span]) -> Dict:
    return {
        f"memory.{kind}_us": _mean_us(_named(spans, f"memory.{kind}"))
        for kind in ("read", "write", "rmw", "scrub")
    }


def engine_layer(spans: List[Span]) -> Dict:
    runs = _named(spans, "runtime.run_many")
    chips = sum(s.attrs["chips"] for s in runs)
    shard = sum(s.dur for s in _named(spans, "runtime.run_shard"))
    transmit = sum(s.dur for s in _named(spans, "link.transmit_soft"))
    return {
        "link.transmit_us_per_chip": transmit / chips * 1e6,
        "runtime.shard_us_per_chip": shard / chips * 1e6,
        "runtime.engine_us_per_chip": (sum(r.dur for r in runs) - shard) / chips * 1e6,
    }


# ---------------------------------------------------------------------
# Direct loops at a workload's batch shapes
# ---------------------------------------------------------------------
def _loop(fn, seconds: float = LAYER_LOOP_S) -> None:
    fn()  # warm: tables, lazily bound kernels
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        fn()


def shape_layers(shapes, seed: int) -> Dict:
    """Kernel, decoder and session cost at each (code, batch, soft) shape."""
    from repro.coding.decoders import default_decoder_for
    from repro.coding.registry import get_code
    from repro.service.session import CodecSession, SessionConfig

    kernel_ns, calls, selfs, session_selfs = [], [], [], []
    rng = inputs.rng_for(seed, "layers")
    for code_name, batch, soft in shapes:
        code = get_code(code_name)
        decoder = default_decoder_for(code)
        words = code.encode_batch(
            rng.integers(0, 2, (batch, code.k), dtype=np.uint8))
        words ^= (rng.random(words.shape) < inputs.FLIP_PROBABILITY).astype(np.uint8)
        if soft:
            values = (1.0 - 2.0 * words) * (0.5 + rng.random(words.shape))
            decode = lambda: decoder.decode_soft_batch_detailed(values)  # noqa: E731
        else:
            decode = lambda: decoder.decode_batch_detailed(words)  # noqa: E731

        # The kernel calls one decode makes, replayed directly.
        kernels = _capture_kernel_calls(decode)
        RECORDER.clear()
        _loop(lambda: [fn(*a, **k) for fn, a, k in kernels])
        per_call = _per_iteration(RECORDER.spans, len(kernels))
        kernel_ns.append(statistics.median(per_call) / batch * 1e9)

        RECORDER.clear()
        _loop(decode)
        selfs_by_id = self_times(RECORDER.spans)
        decode_spans = _named(RECORDER.spans, "decoders.")
        calls.append(statistics.median(s.dur for s in decode_spans) * 1e6)
        selfs.append(statistics.median(selfs_by_id[s.id] for s in decode_spans) * 1e6)

        if not soft:
            session = CodecSession(0, SessionConfig(code=code_name))
            RECORDER.clear()
            _loop(lambda: session.decode_frames(words))
            selfs_by_id = self_times(RECORDER.spans)
            session_selfs.append(statistics.median(
                selfs_by_id[s.id]
                for s in _named(RECORDER.spans, "session.decode_frames")) * 1e6)
    RECORDER.clear()
    return {
        "backends.kernel_ns_per_frame": statistics.fmean(kernel_ns),
        "decoders.call_us": statistics.fmean(calls),
        "decoders.self_us": statistics.fmean(selfs),
        "session.self_us": statistics.fmean(session_selfs),
    }


def _capture_kernel_calls(decode) -> List:
    """(kernel as installed, args, kwargs) of every kernel call in one decode."""
    from repro.backends import default_backend

    backend = default_backend()
    captured = []
    originals = {name: getattr(backend, name) for name in _KERNELS}
    try:
        for name, wrapped in originals.items():
            def spy(*args, _wrapped=wrapped, **kwargs):
                captured.append((_wrapped, args, kwargs))
                return _wrapped(*args, **kwargs)
            setattr(backend, name, spy)
        decode()
    finally:
        for name, wrapped in originals.items():
            setattr(backend, name, wrapped)
    return captured


def _per_iteration(spans: List[Span], per_iteration: int) -> List[float]:
    """Sum consecutive groups of kernel spans into per-replay durations."""
    kernel = sorted(_named(spans, "backends."), key=lambda s: s.start)
    return [
        sum(s.dur for s in kernel[i:i + per_iteration])
        for i in range(0, len(kernel) - per_iteration + 1, per_iteration)
    ]


# ---------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------
def _traced_e2e(root, name, seed, seconds) -> Tuple[Dict, List[Span]]:
    RECORDER.clear()
    RECORDER.enabled = True
    try:
        result = run_e2e(root, name, seed, seconds, setup_repeats=1)
    finally:
        RECORDER.enabled = False
    spans = RECORDER.spans
    RECORDER.clear()
    return result, spans


def _inprocess_spans(result: Dict, spans: List[Span]) -> List[Span]:
    started = result["detail"]["inprocess_started"]
    return [s for s in spans if s.start >= started]


def _wire_metrics(result: Dict, tcp_spans: List[Span]) -> Dict:
    """Client, front and wire figures of one wire run (plus its traced twin)."""
    detail = result["detail"]
    client_requests = _named(tcp_spans, "client.")
    client_protocol_us = (
        sum(s.dur for s in _named(tcp_spans, "protocol.")) / len(client_requests) * 1e6
        if client_requests else 0.0)
    ops_per_request = detail["tcp_ops"] / max(detail["tcp_latency_samples"], 1)
    client_cpu_per_request = detail["client_cpu_us_per_op"] * ops_per_request
    return {
        "wire.ops_per_s": detail["tcp_ops_per_s"],
        "wire.p99_us": detail["tcp_p99_us"],
        "wire.latency_samples": detail["tcp_latency_samples"],
        "client.cpu_us_per_op": detail["client_cpu_us_per_op"],
        # One request in flight: what the wire adds over the in-process
        # path, after the client's own time outside the protocol calls.
        "server.front_us_per_request": (
            result["metrics"]["latency_us"] - detail["inprocess_latency_one_us"]
            - (client_cpu_per_request - client_protocol_us)),
    }


def _forward_cost(root: Path, seed: int, seconds: float, pipelined: Optional[Dict]):
    """Server-tree CPU per frame at --workers 1 minus at the default.

    Returns the difference and the tally of the runs it made.
    """
    pooled = run_e2e(root, "wire-pipelined", seed, seconds, setup_repeats=1,
                     server_args=["--workers", "1"])
    if pipelined is None:
        pipelined = run_e2e(root, "wire-pipelined", seed, seconds, setup_repeats=1)
        pooled["tally"].merge(pipelined["tally"])
    return (pooled["metrics"]["cpu_us_per_op"]
            - pipelined["metrics"]["cpu_us_per_op"]), pooled["tally"]


def run_traced(root: Path, name: str, seed: int, seconds: float) -> Dict:
    workload = WORKLOADS[name]
    half = seconds / 2
    plain = run_e2e(root, name, seed, half, setup_repeats=1)
    install()
    traced, spans = _traced_e2e(root, name, seed, half)
    tally = plain["tally"]
    tally.merge(traced["tally"])
    metric = HEADLINE[name]
    layers: Dict[str, Optional[float]] = {
        "tracing.overhead_pct": 100.0 * (
            traced["metrics"][metric] - plain["metrics"][metric]
        ) / plain["metrics"][metric] * (1 if metric == "latency_us" else -1),
    }

    # Service layers: W's own in-process window, else wire-single's.
    short = max(seconds / 5, 1.0)
    if workload.wire and workload.code is not None:
        service, service_spans = traced, spans
    else:
        service, service_spans = _traced_e2e(root, "wire-single", seed, short)
        tally.merge(service["tally"])
    inproc = _inprocess_spans(service, service_spans)
    layers.update(batcher_layer(inproc, service["detail"]["inprocess_flush_reasons"]))
    reasons = service["detail"]["stats_flush_reasons"]
    layers["server.mean_batch_frames"] = service["detail"]["stats_mean_batch_frames"]
    layers["server.deadline_flush_ratio"] = (
        reasons.get("deadline", 0) / sum(reasons.values()) if reasons else None)
    if workload.wire:
        layers["protocol.us_per_request"] = protocol_per_request(
            _inprocess_spans(traced, spans))
        wire_plain, wire_traced, wire_spans = plain, traced, spans
    else:
        layers["protocol.us_per_request"] = protocol_per_request(inproc)
        wire_plain = run_e2e(root, "wire-single", seed, short, setup_repeats=1)
        tally.merge(wire_plain["tally"])
        wire_traced, wire_spans = service, service_spans
    tcp_spans = [s for s in wire_spans
                 if s.start < wire_traced["detail"]["inprocess_started"]]
    layers.update(_wire_metrics(wire_plain, tcp_spans))

    # Memory frontend: W's own in-process window, else a short one.
    if name == "memory-mix":
        memory_spans = _inprocess_spans(traced, spans)
    else:
        memory_spans = _memory_spans(seed, short)
    layers.update(memory_layer(memory_spans))

    # Engine layers: W's own window, else a short one.
    engine_spans = spans if name == "engine-soft" else _engine_spans(root, seed, short)
    layers.update(engine_layer(engine_spans))

    shapes = SHAPES[name]
    if name == "wire-pipelined" and plain["detail"].get("stats_mean_batch_frames"):
        shapes = [("hamming84", round(plain["detail"]["stats_mean_batch_frames"]), False)]
    RECORDER.enabled = True
    try:
        layers.update(shape_layers(shapes, seed))
    finally:
        RECORDER.enabled = False

    forward, pooled_tally = _forward_cost(
        root, seed, short, plain if name == "wire-pipelined" else None)
    layers["workers.forward_cpu_us_per_frame"] = forward
    tally.merge(pooled_tally)

    out = build_dir(root) / f"trace-{name}-seed{seed}.jsonl"
    dump(spans, out)
    _print_ledger(name, layers, spans, out)
    missing = [k for k in LAYERS if layers.get(k) is None]
    if missing:
        tally.fail(1, f"per-layer metrics not measured: {missing}")
    return {
        "tally": tally,
        "per_layer": {
            key: {"value": float(layers[key]) if layers.get(key) is not None else 0.0,
                  "unit": LAYERS[key][0]}
            for key in LAYERS
        },
        "detail": {"untraced": plain["metrics"], "traced": traced["metrics"],
                   "moves": {k: v[1] for k, v in LAYERS.items()},
                   "spans_file": str(out)},
    }


def _memory_spans(seed: int, seconds: float) -> List[Span]:
    from pbench.wire import InProcessClient, MemoryTraffic, closed_loops, new_inprocess_server

    txs = inputs.memory_transactions(seed, MEMORY_EPOCH_TXS // 4)
    inputs.expect_memory(seed, txs)

    async def run():
        client = InProcessClient(new_inprocess_server())
        traffic = MemoryTraffic(txs, inputs.memory_session_seed(seed))
        return await closed_loops(traffic, [client], 1, seconds)

    RECORDER.clear()
    RECORDER.enabled = True
    try:
        tally = asyncio.run(run())
    finally:
        RECORDER.enabled = False
    if tally.failed:
        raise RuntimeError(f"memory replay failed: {tally.errors}")
    spans, RECORDER.spans = RECORDER.spans, []
    return spans


def _engine_spans(root: Path, seed: int, seconds: float) -> List[Span]:
    run = EngineRun(root, seed)
    RECORDER.clear()
    RECORDER.enabled = True
    try:
        tally = run.window(seconds)
    finally:
        RECORDER.enabled = False
    if tally.failed:
        raise RuntimeError(f"engine window failed: {tally.errors}")
    spans, RECORDER.spans = RECORDER.spans, []
    return spans


def _print_ledger(name: str, layers: Dict, spans: List[Span], out: Path) -> None:
    print(f"  per-layer ledger of {name} (value, unit, should move):")
    for key, (unit, moves) in LAYERS.items():
        value = layers.get(key)
        shown = "not measured" if value is None else f"{value:14.4f}"
        print(f"  {key:<34} {shown} {unit:<6} -> {moves}")
    selfs = self_times(spans)
    totals: Dict[str, List[float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.dur
        entry[2] += selfs[span.id]
    print(f"  self time by span of the traced pass ({out.name}):")
    for span_name, (count, total, self_s) in sorted(
            totals.items(), key=lambda kv: -kv[1][2])[:15]:
        print(f"  {span_name:<40} n={count:<8} total {total * 1e3:10.2f} ms "
              f"self {self_s * 1e3:10.2f} ms")
