"""A fixed unit of work that gauges the host's speed while a run goes on.

The benchmark runs on shared hosts whose speed drifts by a factor of two
within a minute: a fixed loop of JSON and Python arithmetic, timed once a
second for ninety seconds, ran anywhere from 107 to 224 times a second.  A
run's wall-clock times therefore follow the host more than the program.
The probe below is timed before the first op and after every op (outside
the ops' own timing), and each op's latency is divided by the mean of the
two probe times around it (:func:`perfbench.stats.host_normalised`), which
gives the op's cost on a host that runs one probe in :data:`REFERENCE_S`.

The probe touches no code of the program, so a change to the program
cannot move it.  Its mix — an interpreted Python loop, small numpy
products and a vectorised draw turned into Python floats — is the mix the
workloads spend their time in; of the candidates tried (a JSON round trip
of a tenant-like document and of a list of floats as well), these three
tracked all three workloads' op times best.  Changing the probe changes
every normalised figure: don't, without recording a new baseline.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Host-normalised figures are the times the program would take on a host
#: that runs one probe in exactly this many seconds.
REFERENCE_S = 1.0e-3


class HostProbe:
    """Times one fixed unit of work."""

    def __init__(self) -> None:
        self._matrix = np.arange(36.0).reshape(6, 6) / 100.0
        self._rng = np.random.default_rng(0)
        for _ in range(20):
            self.seconds()

    def _work(self) -> None:
        total = 0
        for index in range(6000):
            total += index * index
        product = self._matrix
        for _ in range(60):
            product = product @ self._matrix + 1.0
        self._rng.laplace(0.0, 1.0, size=8000).tolist()

    def seconds(self) -> float:
        """Wall time of one probe.  The collector is held off so that the
        program's heap, which a collection would walk, cannot lengthen it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def median_seconds(self, repeats: int) -> float:
        return statistics.median(self.seconds() for _ in range(repeats))
