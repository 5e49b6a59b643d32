"""Summary statistics for the end-to-end metrics.

Every rule here is pure arithmetic on lists of floats, so the self-tests
pin it on synthetic inputs.
"""

from __future__ import annotations

import math
import resource
import sys

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; with fewer, the tail is a handful of ops and moves
#: from run to run.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: "list[float]", q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n_samples: int, q: float) -> int:
    """How many samples lie above the nearest-rank ``q``-quantile."""
    return n_samples - max(1, math.ceil(q * n_samples))


def supported_percentile(samples: "list[float]", q: float) -> "float | None":
    """The ``q``-quantile, or ``None`` when fewer than
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it."""
    if not samples or samples_beyond(len(samples), q) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(samples, q)


def host_normalised(
    latencies: "list[float]", probes: "list[float]", reference: float
) -> "list[float]":
    """Each latency scaled to a host on which the probe takes ``reference``.

    ``probes[i]`` is the probe timed right before op ``i`` and
    ``probes[i + 1]`` the one right after it; op ``i`` is divided by their
    mean.  The host's speed changes within a tenth of a second, so the two
    probes that bracket an op gauge it better than any wider window.
    """
    if len(probes) != len(latencies) + 1:
        raise ValueError("one probe before every op and one after the last")
    return [
        latency * reference / (0.5 * (probes[index] + probes[index + 1]))
        for index, latency in enumerate(latencies)
    ]


def op_decay(
    latencies: "list[float]", positions: "list[float] | None" = None
) -> float:
    """Median latency of the last quarter of ops over that of the first.

    ``positions`` places each op in ``[0, 1)`` — by default its issue order;
    a workload with long-lived tenants passes each op's position in its own
    tenant's history, and ``None`` for ops that take no part.  1.0 means
    per-op cost does not grow with the history the run builds up; a ledger
    whose every transaction rewrites the tenant's whole history reads well
    above 1.
    """
    if positions is None:
        positions = [index / len(latencies) for index in range(len(latencies))]
    placed = [(lat, pos) for lat, pos in zip(latencies, positions) if pos is not None]
    first = [lat for lat, pos in placed if pos < 0.25]
    last = [lat for lat, pos in placed if pos >= 0.75]
    if not first or not last:
        raise ValueError("op_decay needs ops in the first and last quarter")
    return percentile(last, 0.5) / percentile(first, 0.5)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
