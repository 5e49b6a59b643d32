"""Benchmark E7 — serving-engine throughput: cold vs warm-cache releases.

The quantity that matters for the serving north star is releases/second.
Cold = a fresh mechanism per release (per-release recalibration, what naive
use of the paper's algorithms costs); warm = one :class:`PrivacyEngine` whose
calibration cache is hot, answering batches with a single vectorized noise
draw.  The recorded artifact is JSON (``results/engine_throughput.json``).

The MQM chain workload here is the acceptance workload for the engine: the
warm/batched path must be at least 10x faster than per-release
recalibration.  In practice it is orders of magnitude faster.
"""

import json
import time

import numpy as np
import pytest

from benchmarks.recording import QUICK, QUICK_SKIP_REASON, RESULTS_DIR, record
from repro.core.mqm_chain import MQMExact
from repro.core.queries import StateFrequencyQuery
from repro.distributions.chain_family import FiniteChainFamily
from repro.distributions.markov import MarkovChain
from repro.serving import PrivacyEngine

EPSILON = 1.0
LENGTH = 400 if QUICK else 2000
WINDOW = 32 if QUICK else 64
WARM_RELEASES = 200 if QUICK else 2000
COLD_RELEASES = 3 if QUICK else 10


@pytest.fixture(scope="module")
def workload():
    chain = MarkovChain(
        np.full(4, 0.25),
        [
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],
            [0.1, 0.1, 0.7, 0.1],
            [0.1, 0.1, 0.1, 0.7],
        ],
    ).with_stationary_initial()
    family = FiniteChainFamily([chain])
    data = chain.sample(LENGTH, rng=0)
    query = StateFrequencyQuery(1, LENGTH)
    return family, data, query


def _cold_seconds(family, data, query, n_releases: int) -> float:
    start = time.perf_counter()
    for _ in range(n_releases):
        MQMExact(family, EPSILON, max_window=WINDOW).release(data, query, rng=1)
    return time.perf_counter() - start


def _warm_seconds(engine, data, query, n_releases: int) -> float:
    start = time.perf_counter()
    engine.release_repeated(data, query, n_releases)
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def throughput_report(workload):
    family, data, query = workload
    cold_seconds = _cold_seconds(family, data, query, COLD_RELEASES)
    engine = PrivacyEngine(MQMExact(family, EPSILON, max_window=WINDOW), rng=1)
    engine.calibrate(query, data)  # one cache miss, paid up front
    warm_seconds = _warm_seconds(engine, data, query, WARM_RELEASES)
    report = {
        "workload": {
            "mechanism": "MQMExact",
            "length": LENGTH,
            "k": 4,
            "max_window": WINDOW,
            "epsilon": EPSILON,
        },
        "cold": {
            "releases": COLD_RELEASES,
            "seconds": cold_seconds,
            "rps": COLD_RELEASES / cold_seconds,
        },
        "warm": {
            "releases": WARM_RELEASES,
            "seconds": warm_seconds,
            "rps": WARM_RELEASES / warm_seconds,
        },
        "speedup": (WARM_RELEASES / warm_seconds) / (COLD_RELEASES / cold_seconds),
        "engine_stats": engine.stats(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "engine_throughput.json").write_text(json.dumps(report, indent=2) + "\n")
    record("engine_throughput", json.dumps(report, indent=2))
    return report


def test_throughput_report_recorded(throughput_report):
    """The measurement itself runs in every mode (quick included) and the
    cache behaves: exactly one miss however many releases follow."""
    assert throughput_report["warm"]["rps"] > 0
    assert throughput_report["engine_stats"]["cache_misses"] == 1


@pytest.mark.perf
@pytest.mark.skipif(QUICK, reason=QUICK_SKIP_REASON)
def test_warm_cache_amortization(throughput_report):
    """Acceptance: warm-cache batched releases are >= 10x per-release
    recalibration on the MQM chain workload."""
    assert throughput_report["speedup"] >= 10.0


def test_cold_release_rate(benchmark, workload):
    family, data, query = workload
    result = benchmark.pedantic(
        lambda: MQMExact(family, EPSILON, max_window=WINDOW).release(data, query, rng=1),
        rounds=3,
        iterations=1,
    )
    assert result.noise_scale > 0


def test_warm_batch_release_rate(benchmark, workload):
    family, data, query = workload
    engine = PrivacyEngine(MQMExact(family, EPSILON, max_window=WINDOW), rng=1)
    engine.calibrate(query, data)
    batch = benchmark.pedantic(
        lambda: engine.release_repeated(data, query, 256), rounds=3, iterations=1
    )
    assert len(batch) == 256


def test_disk_cache_round_trip_speed(tmp_path, workload):
    """A second process (simulated by a fresh mechanism + cache object over
    the same SQLite file) skips the quilt search entirely."""
    from repro.serving import CalibrationCache, SQLiteCache

    family, data, query = workload
    path = tmp_path / "calibrations.sqlite"
    first = PrivacyEngine(
        MQMExact(family, EPSILON, max_window=WINDOW),
        cache=CalibrationCache(SQLiteCache(path)),
    )
    cold = time.perf_counter()
    first.calibrate(query, data)
    cold = time.perf_counter() - cold

    second = PrivacyEngine(
        MQMExact(family, EPSILON, max_window=WINDOW),
        cache=CalibrationCache(SQLiteCache(path)),
    )
    warm = time.perf_counter()
    calibration = second.calibrate(query, data)
    warm = time.perf_counter() - warm
    assert second.cache.hits == 1
    assert calibration.scale == first.calibrate(query, data).scale
    assert warm < cold
