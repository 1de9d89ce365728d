"""Host-speed reference: cancels the shared host's speed drift out of the timings.

On a host shared with other tenants, identical work runs up to 2x slower for
stretches of seconds to minutes, and thread CPU time drifts with wall time, so
no clock of this process separates the program's cost from the host's speed.
The benchmark therefore runs a fixed reference kernel right before and after
each timed call and scales the call's time by ``REF_S`` over the kernel's mean
time around it. A call whose time is so scaled reads in seconds at the speed
of a host on which the kernel takes ``REF_S``.

The kernel is code of the benchmark, not of the program, so a change to the
program moves the scaled times in full. It does the kind of work the program
does: small numpy vectors held in validated frozen dataclasses, clipping, norms
and dict updates, interpreted a few hundred times. RATIONALE.md gives the
spreads with and without the scaling.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

# The kernel's time on the host that built the benchmark in a quiet stretch;
# it fixes only the scale of the scaled times.
REF_S = 0.002
KERNEL_STEPS = 100


@dataclass(frozen=True)
class _Vec:
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 1 or not np.all(np.isfinite(arr)):
            raise ValueError("reference vector must be 1-D and finite")
        object.__setattr__(self, "data", arr)


def kernel() -> int:
    x = _Vec(np.zeros(8))
    step = np.linspace(-1.0, 1.0, 8)
    history = {}
    for i in range(KERNEL_STEPS):
        y = _Vec(np.clip(x.data + 0.01 * step, -1.0, 1.0))
        err = float(np.linalg.norm(y.data - x.data))
        history[i & 63] = (err, y)
        x = y if err < 1.0 else _Vec(np.zeros(8))
    return len(history)


def sample() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Scaler:
    """Scales times taken between consecutive reference samples.

    Call :meth:`scale` right after each timed call, or :meth:`factor` after
    a block of them: each samples the kernel again and scales by ``REF_S``
    over the mean of that sample and the one before the call.
    """

    def __init__(self):
        kernel()  # warm-up
        self.last = sample()
        self.refs = [self.last]

    def factor(self) -> float:
        now = sample()
        ref = (self.last + now) / 2
        self.last = now
        self.refs.append(now)
        return REF_S / ref

    def scale(self, seconds: float) -> float:
        return seconds * self.factor()

    def speed(self) -> float:
        """The host's median speed over the samples so far, as ``REF_S`` / kernel time."""
        return REF_S / float(np.median(self.refs))


def pin_to_one_cpu() -> set[int]:
    """Run this process, and the children it starts from now on, on one CPU;
    return the CPUs it could use before.

    The reference samples then measure the CPU the timed calls run on, and
    a client and server in a closed loop hand over on one CPU without
    waking another.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed
