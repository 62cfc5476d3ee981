"""Seeded workload inputs and their expected outputs.

Everything here is a pure function of the workload seed and is built
before any timed window: decode requests with the library's own
``decode_batch_detailed`` answers, memory transactions with a library
:class:`~repro.memory.frontend.MemoryEccFrontend` replay (responses and
SEC/DED ledger), engine sweeps with direct ``run_shard`` answers for a
sample of shards.

``PERFBENCH_CORRUPT_EXPECTED=1`` flips one bit of the expected outputs;
the benchmark's self-test uses it to prove a wrong answer fails the run.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

FRAMES_PER_REQUEST = 16
FLIP_PROBABILITY = 0.02
DECODE_POOL_REQUESTS = 512

MEMORY_CODE = "hamming84"
MEMORY_LINES = 4096
MEMORY_ROT = 0.002
MEMORY_LINES_PER_TX = 16
#: (kind, share) of the memory transaction mix.
MEMORY_MIX = (("read", 0.50), ("write", 0.25), ("rmw", 0.20), ("scrub", 0.05))
MEMORY_HOT_SHARE = 0.8
MEMORY_HOT_LINES = MEMORY_LINES // 8

ENGINE_CHIPS_PER_SPEC = 8
ENGINE_CONFIGS = 4
ENGINE_SAMPLED_SPECS = 6


def corrupting() -> bool:
    return os.environ.get("PERFBENCH_CORRUPT_EXPECTED") == "1"


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(purpose.encode())])


# ---------------------------------------------------------------------
# Decode requests
# ---------------------------------------------------------------------
@dataclass
class DecodeRequest:
    words: np.ndarray           # (16, n) received words
    messages: np.ndarray        # expected (16, k) messages
    corrected: np.ndarray       # expected bits corrected per frame
    detected: np.ndarray        # expected detected-uncorrectable flags
    corrected_frames: int       # frames the server counts as corrected
    detected_frames: int        # frames the server counts as detected

    def matches(self, messages, corrected, detected) -> bool:
        return (
            np.array_equal(messages, self.messages)
            and np.array_equal(corrected, self.corrected)
            and np.array_equal(detected, self.detected)
        )


def decode_requests(code_name: str, seed: int) -> List[DecodeRequest]:
    """A pool of 16-frame requests with ~2% random bit flips."""
    from repro.coding.decoders import default_decoder_for
    from repro.coding.registry import get_code

    code = get_code(code_name)
    decoder = default_decoder_for(code)
    rng = rng_for(seed, "decode:" + code_name)
    total = DECODE_POOL_REQUESTS * FRAMES_PER_REQUEST
    messages = rng.integers(0, 2, size=(total, code.k), dtype=np.uint8)
    flips = (rng.random((total, code.n)) < FLIP_PROBABILITY).astype(np.uint8)
    words = code.encode_batch(messages) ^ flips
    result = decoder.decode_batch_detailed(words)
    expected_messages = result.messages.copy()
    if corrupting():
        expected_messages[0, 0] ^= 1
    requests = []
    for start in range(0, total, FRAMES_PER_REQUEST):
        rows = slice(start, start + FRAMES_PER_REQUEST)
        corrected = result.corrected_errors[rows]
        detected = result.detected_uncorrectable[rows]
        requests.append(
            DecodeRequest(
                words=np.ascontiguousarray(words[rows]),
                messages=expected_messages[rows],
                corrected=corrected,
                detected=detected,
                corrected_frames=int(np.count_nonzero((corrected > 0) & ~detected)),
                detected_frames=int(np.count_nonzero(detected)),
            )
        )
    return requests


# ---------------------------------------------------------------------
# Memory transactions
# ---------------------------------------------------------------------
@dataclass
class MemoryTx:
    kind: str                        # read | write | rmw | scrub
    addresses: np.ndarray
    messages: Optional[np.ndarray]   # write/rmw payload
    masks: Optional[np.ndarray]      # rmw byte-enable mask
    expected: Tuple                  # the response, as the client parses it


def memory_session_seed(seed: int) -> int:
    return int(rng_for(seed, "memory-session").integers(0, 2**31))


class MemoryMirror:
    """The server's memory lane, rebuilt from library parts.

    Mirrors :class:`repro.service.memory.MemoryLane`: a frontend, a
    scrubber and the rot stream seeded from the session seed, with rot
    drawn only by scrub steps.
    """

    def __init__(self, session_seed: int):
        from repro.coding.decoders import default_decoder_for
        from repro.coding.registry import get_code
        from repro.memory.frontend import MemoryEccFrontend
        from repro.memory.scrub import Scrubber
        from repro.service.memory import DEFAULT_SCRUB_LINES
        from repro.utils.rng import as_generator

        code = get_code(MEMORY_CODE)
        self.frontend = MemoryEccFrontend(
            code, default_decoder_for(code), MEMORY_LINES
        )
        self.scrubber = Scrubber(self.frontend, lines_per_step=DEFAULT_SCRUB_LINES)
        self._rng = as_generator(session_seed)

    def apply(self, tx: MemoryTx) -> Tuple:
        if tx.kind == "read":
            result = self.frontend.read(tx.addresses)
            return (result.messages, result.corrected_errors,
                    result.detected_uncorrectable)
        if tx.kind == "write":
            self.frontend.write(tx.addresses, tx.messages)
            count = len(tx.addresses)
            return (np.zeros(count, np.int64), np.zeros(count, bool))
        if tx.kind == "rmw":
            result = self.frontend.write_partial(tx.addresses, tx.messages, tx.masks)
            return (result.corrected_errors, result.detected_uncorrectable)
        count = len(tx.addresses)
        rot_bits = self.frontend.inject_rot(
            self._rng, MEMORY_ROT, self.scrubber.window(count)
        )
        report = self.scrubber.step(count)
        return ({
            "report": report.to_dict(),
            "rot_bits": rot_bits,
            "counters": self.frontend.counters.to_dict(),
            "position": self.scrubber.position,
        },)


def memory_transactions(seed: int, count: int) -> List[MemoryTx]:
    """``count`` transactions of the mix, 80% of lines from the hot eighth."""
    from repro.coding.registry import get_code

    k = get_code(MEMORY_CODE).k
    rng = rng_for(seed, "memory-mix")
    kinds = [kind for kind, _ in MEMORY_MIX]
    shares = [share for _, share in MEMORY_MIX]
    chosen = rng.choice(len(kinds), size=count, p=shares)
    hot = rng.random((count, MEMORY_LINES_PER_TX)) < MEMORY_HOT_SHARE
    hot_lines = rng.integers(0, MEMORY_HOT_LINES, size=hot.shape)
    cold_lines = rng.integers(MEMORY_HOT_LINES, MEMORY_LINES, size=hot.shape)
    addresses = np.where(hot, hot_lines, cold_lines).astype(np.int64)
    payload = rng.integers(0, 2, size=(count, MEMORY_LINES_PER_TX, k), dtype=np.uint8)
    masks = rng.integers(0, 2, size=(count, MEMORY_LINES_PER_TX, k), dtype=np.uint8)
    txs = []
    for i in range(count):
        kind = kinds[chosen[i]]
        txs.append(
            MemoryTx(
                kind=kind,
                addresses=addresses[i],
                messages=payload[i] if kind in ("write", "rmw") else None,
                masks=masks[i] if kind == "rmw" else None,
                expected=(),
            )
        )
    return txs


def expect_memory(seed: int, txs: List[MemoryTx]) -> None:
    """Fill in each transaction's expected response from a mirror replay."""
    mirror = MemoryMirror(memory_session_seed(seed))
    for tx in txs:
        tx.expected = mirror.apply(tx)
    if corrupting():
        next(tx for tx in txs if tx.kind == "read").expected[0][0, 0] ^= 1


def memory_ledger(txs: List[MemoryTx]) -> Dict:
    """The SEC/DED ledger the expected responses of ``txs`` add up to.

    Charged exactly as the server's telemetry charges them, so it must
    equal the memory block of the server's STATS after ``txs``.
    """
    from repro.memory.frontend import MEMORY_PATHS, PathCounters

    paths = {path: PathCounters() for path in MEMORY_PATHS}
    rot_bits = scrubbed = repaired = 0
    for tx in txs:
        if tx.kind == "read":
            paths["read"].charge(tx.expected[1], tx.expected[2])
        elif tx.kind == "rmw":
            paths["rmw"].charge(tx.expected[0], tx.expected[1])
        elif tx.kind == "scrub":
            report = tx.expected[0]["report"]
            scrub = paths["scrub"]
            scrub.ops += report["count"]
            scrub.sec += report["repaired_lines"]
            scrub.ded += report["detected"]
            scrub.corrected_bits += report["corrected_bits"]
            rot_bits += tx.expected[0]["rot_bits"]
            scrubbed += report["count"]
            repaired += report["repaired_lines"]
    return {
        "paths": {name: ctr.to_dict() for name, ctr in paths.items()},
        "rot_bits": rot_bits,
        "scrubbed_lines": scrubbed,
        "repaired_lines": repaired,
    }


def memory_matches(tx: MemoryTx, response: Tuple) -> bool:
    if tx.kind == "scrub":
        return response[0] == tx.expected[0]
    return all(np.array_equal(a, b) for a, b in zip(response, tx.expected))


# ---------------------------------------------------------------------
# Engine sweeps
# ---------------------------------------------------------------------
@dataclass
class EngineSweep:
    seed: int                         # the sweep's SoftGainConfig seed
    specs: list                       # flat soft-gain specs of one sweep
    sampled: Dict[int, np.ndarray]    # spec index -> expected counts


def engine_sweeps(seed: int) -> List[EngineSweep]:
    """Soft-gain sweeps (3 codes x 5 sigmas x hard/soft) to cycle through.

    Each sweep's expected counts for a sample of its specs come from
    direct ``run_shard`` calls, one per shard of the engine's plan.
    """
    from repro.experiments.soft_gain import SoftGainConfig, specs
    from repro.runtime import worker
    from repro.runtime.spec import DEFAULT_SHARD_SIZE, ShardPlan

    rng = rng_for(seed, "engine-soft")
    sweeps = []
    for _ in range(ENGINE_CONFIGS):
        config = SoftGainConfig(
            n_chips=ENGINE_CHIPS_PER_SPEC, seed=int(rng.integers(0, 2**31))
        )
        flat = [spec for pair in specs(config) for spec in pair]
        sampled = {}
        for index in sorted(rng.choice(len(flat), ENGINE_SAMPLED_SPECS, replace=False)):
            spec = flat[int(index)]
            plan = ShardPlan.split(spec.n_chips, DEFAULT_SHARD_SIZE)
            sampled[int(index)] = np.concatenate(
                [worker.run_shard(spec, shard) for shard in plan.shards]
            )
        sweeps.append(EngineSweep(config.seed, flat, sampled))
    if corrupting():
        first = sweeps[0].sampled[min(sweeps[0].sampled)]
        first[0] += 1
    return sweeps
