"""A fixed slice of pure-Python work that measures how fast the machine is
running at the moment.

On a shared host the same work takes one to three times as long from one
second to the next, and the slow phases last minutes, so raw wall time does
not repeat between runs.  The probe does the kind of work the search kernel
does (popcounts of ANDed int masks) and is timed next to every op; a
duration ``t`` measured next to a probe that took ``p`` is reported as
``t * REFERENCE_S / p``: seconds on a machine where the probe takes
``REFERENCE_S``.  The probe runs no adimlab code, so a change to the
program moves the rescaled figures in full.
"""

from __future__ import annotations

import os
import statistics
import threading
from time import perf_counter, thread_time

REFERENCE_S = 0.0003
SAMPLE_PERIOD_S = 0.05
MIN_SAMPLES = 3
_MASKS = [(i * 0x9E3779B1) & 0xFFFFFF for i in range(64)]


def _work() -> int:
    acc = 0
    for m in _MASKS:
        for v in _MASKS:
            acc += (m & v).bit_count()
    return acc


def probe() -> float:
    """Seconds taken by one fixed slice of work."""
    start = perf_counter()
    _work()
    return perf_counter() - start


class Sampler:
    """Probes every SAMPLE_PERIOD_S from background threads while an op runs.

    With ``cpus`` given (an op run by pool workers, this process idle), one
    thread is pinned to each CPU and the speed is the mean over the CPUs of
    their median probe, since the workers' progress depends on all of them;
    otherwise one unpinned thread samples the CPU the op shares with it.
    Probes are timed in thread CPU time, so the moments a probe waits for a
    busy core do not count; the threads cost the op under one percent of a
    core."""

    def __init__(self, cpus: list[int] | None = None):
        self._samples: dict[int | None, list[float]] = {c: [] for c in cpus or [None]}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._loop, args=(c,), daemon=True)
            for c in self._samples
        ]

    def _loop(self, cpu: int | None) -> None:
        if cpu is not None:
            os.sched_setaffinity(threading.get_native_id(), {cpu})
        samples = self._samples[cpu]
        while not self._stop.wait(SAMPLE_PERIOD_S):
            start = thread_time()
            _work()
            samples.append(thread_time() - start)

    def speed(self) -> float | None:
        """Probe time during the op, or None if the op was too short."""
        if any(len(s) < MIN_SAMPLES for s in self._samples.values()):
            return None
        return statistics.mean(statistics.median(s) for s in self._samples.values())

    def __enter__(self) -> "Sampler":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *_) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()
