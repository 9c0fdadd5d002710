"""How fast the host runs right now, from a fixed reference kernel.

A shared host changes speed by tens of percent within seconds, and CPU
time changes with it (the vCPU shares caches and cores with other
tenants).  The benchmark therefore runs this kernel beside the requests
it times and scales each time to a host on which one kernel run takes
``REF_SECONDS``: ``time * REF_SECONDS / kernel_time``.  The kernel is
part of the benchmark, not of ``repro``, so a change to the library moves
the scaled times exactly as much as the raw ones on a steady host.

The kernel is the same mix as the optimizer's inner loops: many numpy
calls on arrays of a few dozen elements, with Python glue between them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Nominal duration of one kernel run; scaled times read as if on a host
#: where the kernel takes exactly this long.
REF_SECONDS = 0.013
_ITERATIONS = 1500
_A = np.linspace(0.0, 1.0, 24)
_B = np.linspace(1.0, 2.0, 24)


def _kernel() -> float:
    acc = 0.0
    for _ in range(_ITERATIONS):
        c = np.convolve(_A, _B)
        acc += float(np.cumsum(c)[-1]) + float(np.searchsorted(c, 3.0))
    return acc


def kernel_seconds(clock=time.process_time) -> float:
    """Time of one kernel run on ``clock``."""
    t0 = clock()
    _kernel()
    return clock() - t0


def factors(kernel_times, window: int = 5):
    """Per-sample scale factors from the kernel time measured after each.

    Each factor uses the median of the ``window`` kernel times centred on
    its sample, so one disturbed kernel run does not move it.
    """
    n = len(kernel_times)
    half = window // 2
    out = []
    for i in range(n):
        lo = max(0, min(i - half, n - window))
        out.append(REF_SECONDS / statistics.median(kernel_times[lo:lo + window]))
    return out
