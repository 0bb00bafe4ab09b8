"""How fast the host runs Python right now, so timings can leave out its drift.

The shared virtual machine the benchmark was written on changes speed by up
to 1.9 times, in stretches from under a second to several minutes, whatever
runs on it, and a run's wall times follow. A fixed pure-Python loop, timed
in the same process between the measured sentences, slows and speeds up
with the host. A pass's timings are multiplied by REFERENCE_S over the
loop's median time during the pass, which gives the timings on a host where
the loop takes REFERENCE_S: about this machine's usual speed. The loop
calls nothing from stagmt, so a change to stagmt moves the timings and not
the loop.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The loop's usual time on a 2-vCPU KVM guest (Xeon, Python 3.11).
REFERENCE_S = 0.0019
LOOP_ROUNDS = 2000
# The loop runs between sentences once this much time has gone by since it
# last ran, so its samples are spread over the pass. One sample is short
# next to a speed change; many spread samples follow it.
SAMPLE_EVERY_S = 0.05


def loop_seconds() -> float:
    """Wall seconds of one fixed round of dict, tuple and set work."""
    start = perf_counter()
    table: dict = {}
    total = 0
    for i in range(LOOP_ROUNDS):
        key = (i & 255, (i >> 8) & 15)
        table[key] = table.get(key, 0) + 1
        total += len(frozenset((i & 7, i & 3, key)))
    return perf_counter() - start


def speed_scale(samples) -> float:
    """Factor that turns timings taken alongside these loop samples into
    timings on a host of the reference speed."""
    return REFERENCE_S / statistics.median(samples)


class HostSampler:
    """Loop samples of one pass, taken before and between its sentences."""

    def __init__(self):
        self.samples = [loop_seconds()]
        self._last = perf_counter()

    def between_sentences(self) -> None:
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(loop_seconds())
            self._last = perf_counter()
