"""Host speed, sampled on the benchmark's own CPUs while a run works.

The benchmark runs on a shared host. Each of its CPUs switches, every few
milliseconds, between a fast state and one where every instruction takes
about twice as long (other tenants contend for the core), and the share of
time in the slow state drifts over minutes. CPU time grows with wall time
in the slow state, so neither CPU time nor longer runs filter it: the raw
throughput of the same code spread 10-29% between 20 s runs.

So while a timed run works, a thread of ``run.py`` runs a fixed
pure-Python loop that uses nothing of the program, every ``PERIOD_S``,
pinned in turn to each CPU the run's processes are pinned to. Every
timing is then reported in *reference seconds*: host seconds times
``REFERENCE_LOOP_S / mean loop time`` over the samples around it. A
change to the program moves reference seconds just as it moves host
seconds; a change in the host's load moves the loop as well, and cancels.
Normalised this way, the same cells spread 3.5-4.5% between 5-15 s
windows whose raw times spread 17-32%.

A loop that the scheduler preempts reads several times its slow-state
time; such samples say nothing about the CPU's speed and are dropped.
The sampler itself takes 1-2.5% of each CPU it samples.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import os
import statistics
import threading
import time
from typing import Iterable, List, Tuple

#: About the mean loop time, slow states included, on the host the
#: acceptance sets were measured on (2-core shared Linux container,
#: CPython 3.11), so reference seconds read close to that host's seconds.
#: It fixes only the scale of reference seconds.
REFERENCE_LOOP_S = 0.0012

#: Time between samples. The CPU states last milliseconds, so samples this
#: far apart are independent draws of the state.
PERIOD_S = 0.05

#: A sample slower than this multiple of the run's 5th-percentile loop was
#: preempted (the slow state reads up to about 2.4x, preempted loops 4x
#: and more).
PREEMPTED = 3.0

#: Timings shorter than this are scaled by the samples of the window this
#: long around them, so a 0.3 s start-up is not scaled by a handful.
MIN_WINDOW_S = 4.0

_ITERATIONS = 2_500


class _Node:
    __slots__ = ("key", "value", "next", "hits")

    def __init__(self, key: int) -> None:
        self.key, self.value, self.next, self.hits = key, float(key), None, 0

    def touch(self, x: float) -> float:
        self.hits += 1
        self.value = self.value * 0.5 + x
        return self.value


# A pointer-chasing walk over objects, tuple-keyed dict lookups, method
# calls, float work and a heap: among the loops tried, the one whose
# slowdown followed the simulator's most closely.
_NODES = [_Node(i) for i in range(4096)]
for _i, _node in enumerate(_NODES):
    _node.next = _NODES[(_i * 2654435761) % 4096]
_TABLE = {(n.key, n.key & 7): n for n in _NODES}


def _loop() -> float:
    node, acc, heap = _NODES[0], 0.0, []
    for i in range(_ITERATIONS):
        node = _TABLE[(node.key, node.key & 7)]
        acc += node.touch(i * 0.25)
        if i & 3 == 0:
            heapq.heappush(heap, (node.value, i))
        elif heap:
            heapq.heappop(heap)
        node = node.next
    return acc


def loop_seconds() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def work_cpus(count: int) -> List[int]:
    """The first ``count`` CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))[:count]


class HostSpeed:
    """Inside ``with HostSpeed(cpus)``, the calling thread and every process
    it starts run on ``cpus`` while a thread samples each of them; then
    :meth:`scale` converts host seconds to reference seconds."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = list(cpus)
        #: (time.monotonic(), loop seconds) per sample, in time order.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)
        self._affinity = os.sched_getaffinity(0)

    def __enter__(self) -> "HostSpeed":
        os.sched_setaffinity(0, self.cpus)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _run(self) -> None:
        for cpu in itertools.cycle(self.cpus):
            if self._stop.wait(PERIOD_S):
                return
            os.sched_setaffinity(0, {cpu})  # this thread only
            self.samples.append((time.monotonic(), loop_seconds()))

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per host second over ``[t0, t1]``
        (``time.monotonic()`` times), widened to ``MIN_WINDOW_S``."""
        if len(self.samples) < 2:
            raise RuntimeError("too few host-speed samples taken")
        fast = statistics.quantiles([s for _, s in self.samples], n=20)[0]
        kept = [(t, s) for t, s in self.samples if s < PREEMPTED * fast]
        pad = max(0.0, MIN_WINDOW_S - (t1 - t0)) / 2
        times = [t for t, _ in kept]
        window = kept[bisect.bisect_left(times, t0 - pad):bisect.bisect_right(times, t1 + pad)]
        return REFERENCE_LOOP_S / statistics.fmean(s for _, s in window or kept)
