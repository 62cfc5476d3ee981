"""One core for a whole run, and a loop that scales its times to one speed.

The benchmark runs on a few vCPUs of a shared host.  A vCPU's speed
switches between levels up to 1.6x apart every few milliseconds, and
for stretches of seconds to minutes the share of time at the slow
levels grows and shrinks as other tenants come and go; the vCPUs of one
guest change speed independently of each other.  So every process of a
run (this load generator, the server it starts and the server's
workers) is pinned to one core, and a fixed loop is timed on that core
every few milliseconds of a window.  A slice's CPU time multiplied by
:func:`speed` of its loop timings reads as the time it would take on a
core where the loop takes :data:`NOMINAL_S`.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: The calibration loop's operand: 64 KiB, so the loop, like the
#: program's batch kernels and interpreter, leans on the core's caches.
_OPERAND = np.arange(8192, dtype=np.uint64)
#: The loop's CPU time on the nominal core, seconds (about what it takes
#: on an unloaded x86_64 server core at 2-3 GHz).
NOMINAL_S = 7e-5


def loop_seconds() -> float:
    """CPU seconds of one run of the calibration loop on this core.

    Small numpy operations over a cache-sized array track the program's
    slow-downs better than a pure-Python loop does: on ``memory-mix``
    and ``wire-pipelined`` slices the server's CPU per op correlated
    with this loop's time at 0.73 and 0.91, with a pure-Python loop's
    at 0.60 and 0.67.
    """
    started = time.thread_time()
    for _ in range(4):
        ((_OPERAND * _OPERAND) ^ (_OPERAND >> 3)).sum()
    return time.thread_time() - started


def speed(loop_s: float) -> float:
    """Nominal over measured time: below 1 on a slow core."""
    return NOMINAL_S / loop_s


def speed_now(samples: int = 25) -> float:
    """:func:`speed` of the median of ``samples`` loop timings."""
    return speed(statistics.median(loop_seconds() for _ in range(samples)))


def pin_to_one_core() -> int:
    """Pin this process (and so every process it starts) to one core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core
