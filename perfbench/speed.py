"""Host-speed probe, and operation times expressed at the reference host's speed.

The 2 vCPUs share a host with other tenants, and for seconds to minutes at a
time the same code runs up to 1.7x slower, in wall time and in CPU time
alike. A multi-second operation cannot dodge such a stretch, so neither its
fastest nor its median time repeats from run to run. Instead, a fixed kernel
(`probe_once`: dict lookups, small-set symmetric differences and small
numpy solves, the interpreter and numpy work the operations do) is timed
right next to each piece of work. A piece that took t seconds next to a
probe that took p seconds takes t / p probe-times, whatever the host's speed
was then. Multiplying by PROBE_REF_S, the probe's full-speed time on the
reference host, turns probe-times back into seconds: "reference seconds".
The factor is a constant, so a program change moves reference seconds in the
same proportion as wall time on an idle host.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# Fastest probe_s() seen on the reference host, a 2-vCPU Intel Xeon VM.
PROBE_REF_S = 0.34e-3

_TABLE = {k: k * k % 1009 for k in range(256)}
_X = np.linspace(0.0, 1.0, 16)


def probe_once() -> float:
    """Wall time of one run of the fixed kernel (about 0.35 ms at full speed)."""
    table, x = _TABLE, _X
    t0 = time.perf_counter()
    col: set[int] = set()
    for i in range(1200):
        v = table[i & 255]
        col ^= {v, v + i % 3}
    for _ in range(6):
        a = np.eye(17)
        a[1:, 1:] += np.exp(-(x[:, None] - x[None, :]) ** 2)
        np.linalg.solve(a, np.ones(17))
    return time.perf_counter() - t0


def probe_s() -> float:
    """The host's speed now: the fastest of three probes, so that a lone
    descheduling of the vCPU does not pass for a slow host."""
    return min(probe_once(), probe_once(), probe_once())


def reference_s(elapsed: float, probe_before: float, probe_after: float) -> float:
    """`elapsed` wall seconds in reference seconds, by the probes on either side."""
    return elapsed * 2.0 * PROBE_REF_S / (probe_before + probe_after)


class SpeedClock:
    """Times each operation in segments, with the probe run around each segment.

    The operation is cut at every call of the workload's `split_at`: each
    function is wrapped at the module attribute its callers look it up
    through, and the probe runs before and after the call. The probe also
    runs before and after the operation. Probe time is left out of the
    segments. A bundle of the 42-block ring takes seconds; cut at its 21
    barcodes, every segment has a probe within a quarter of a second.
    """

    def __init__(self, split_at=()):
        self.split_at = split_at
        self.ops: list[tuple[list[float], list[float]]] = []  # (segments, probes)
        self._patched: list[tuple] = []
        self._segments: list[float] | None = None
        self._probes: list[float] = []
        self._t = 0.0

    def begin(self) -> None:
        self._segments, self._probes = [], [probe_s()]
        self._t = time.perf_counter()

    def _cut(self) -> None:
        t = time.perf_counter()
        self._segments.append(t - self._t)
        self._probes.append(probe_s())
        self._t = time.perf_counter()

    def end(self, ok: bool) -> None:
        """Close the operation; a failed one is not kept."""
        if ok:
            self._cut()
            self.ops.append((self._segments, self._probes))
        self._segments = None

    def _wrap(self, fn):
        @functools.wraps(fn)
        def cut(*args, **kwargs):
            if self._segments is not None:
                self._cut()
            try:
                return fn(*args, **kwargs)
            finally:
                if self._segments is not None:
                    self._cut()
        return cut

    def install(self) -> None:
        for module, attr in self.split_at:
            fn = getattr(module, attr)
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def wall_s(self) -> list[float]:
        """Wall time of each kept operation, probes left out."""
        return [sum(segments) for segments, _ in self.ops]

    def reference_s(self) -> list[float]:
        """Each kept operation in reference seconds, segment by segment."""
        return [sum(reference_s(t, a, b) for t, a, b in zip(segments, probes, probes[1:]))
                for segments, probes in self.ops]
