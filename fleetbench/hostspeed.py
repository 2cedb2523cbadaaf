"""Host-speed reference for the fleet benchmark's timings.

The benchmark was sized on a shared 2-vCPU KVM guest whose speed drifts in
stretches of seconds to minutes: a fixed pure-Python loop timed in 2-second
bins moved between 2.6 and 5.0 ms within 20 seconds, and its CPU time moved
with its wall time, so the slowdown is contention for the core and its
caches, not time spent descheduled.  Absolute timings of the same work
drifted with it.

:func:`calibrate` times a fixed kernel that shares no code with the program
under test: a pickle round trip (``dumps``, then ``loads``) of a fixed graph
of small objects with attribute dicts, nested dicts, tuples, lists, floats
and strings.  That is object allocation, dict building, reference counting
and scattered memory reads, what both the simulator's event loop and its
snapshot codec are made of.  A run samples it between its timed phases
(never inside them), and :class:`ReferenceClock` rescales each phase's host
seconds by :data:`REFERENCE_S` over the mean of the samples just before and
just after it, to a host on which the kernel takes :data:`REFERENCE_S`.
Work the program does in a phase is timed as it was; only the host's speed
while it was done is divided out, and the factor does not depend on the
program, so a change to the program moves the rescaled times by exactly as
much as it moves the raw ones.

The kernel was chosen by how well it tracks the program.  Same-seed
repetitions were timed phase by phase for several minutes, with both this
kernel and a pure-Python loop (attribute access, dict stores, float math,
heap pushes) sampled around every phase, and grouped into 25-second
windows.  The IQR/median of the windows' drive time was, raw, 0.33 on
``urban-exact`` and 0.14 on ``session-churn``; rescaled by the loop 0.08
and 0.07; rescaled by this kernel 0.04 and 0.01 (``fleetbench/README.md``
has the table).
"""

from __future__ import annotations

import gc
import pickle
import random
import time
from typing import List

#: Kernel time, in seconds, of the reference host: about the median on the
#: 2-vCPU Intel Xeon (2.1 GHz) guest, Python 3.11, this benchmark was sized on.
REFERENCE_S = 0.011

_OBJECTS = 1500


class _Node:
    def __init__(self, index: int, rng: random.Random) -> None:
        self.name = f"n{index}"
        self.x = rng.random()
        self.table = {f"k{slot}": (rng.random(), slot) for slot in range(6)}
        self.samples = [rng.random() for _ in range(4)]


_rng = random.Random(3)
GRAPH = [_Node(index, _rng) for index in range(_OBJECTS)]
del _rng


def calibrate() -> float:
    """Seconds one pickle round trip of :data:`GRAPH` takes now.

    The garbage collector is off during the pass, so the size of the
    program's heap cannot change the kernel's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        pickle.loads(pickle.dumps(GRAPH, protocol=5))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Rescales timed phases by the host's speed around each of them.

    Samples the kernel on creation and after every phase, so consecutive
    phases share the sample between them.
    """

    def __init__(self) -> None:
        self.samples: List[float] = [calibrate()]

    def rescale(self, seconds: float) -> float:
        """Sample the kernel and return ``seconds``, the host time of the
        phase that just ended, in reference seconds."""
        self.samples.append(calibrate())
        return seconds * REFERENCE_S * 2.0 / (self.samples[-2] + self.samples[-1])
