"""Self-tests of the benchmark's own arithmetic and plumbing.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's default test collection (the file name does
not match ``test_*.py``): the smoke runs drive real workloads for a few
seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, stats  # noqa: E402
from perfbench.host import HostProbe  # noqa: E402
from perfbench.layers import UNITS, install, layer_metrics  # noqa: E402
from perfbench.spans import Span, SpanRecorder, self_times, union_length  # noqa: E402


# -- the percentile rule ----------------------------------------------------
def test_p95_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(199, 0.95) == 9
    assert stats.supported_percentile(list(range(199)), 0.95) is None
    assert stats.samples_beyond(200, 0.95) == 10
    assert stats.supported_percentile([float(v) for v in range(1, 201)], 0.95) == 190.0


def test_nearest_rank_percentile():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 0.5) == 3.0
    assert stats.percentile(samples, 1.0) == 5.0
    assert stats.percentile(samples, 0.01) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


# -- self-time arithmetic -----------------------------------------------------
def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: counted once
        Span("c", 2.0, 3.0, 1, 0),
        Span("d", 9.0, 12.0, 0, 0),  # overruns its parent: clipped
    ]
    assert self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_metrics_on_a_hand_built_tree():
    recorder = SpanRecorder()
    ms = 1e-3
    recorder.spans = [
        Span("op", 0.0, 10 * ms, None, 0),
        Span("app.call", 1 * ms, 9 * ms, 0, 0),
        Span("app.handler", 2 * ms, 8 * ms, 1, 0),
        Span("ledger.reserve", 2 * ms, 4 * ms, 2, 0),
        Span("store.txn", 2.5 * ms, 3.5 * ms, 3, 0),
        Span("op", 20 * ms, 30 * ms, None, 1),
    ]
    metrics = layer_metrics(
        recorder, state_kb=[1.0, 3.0], retries=0, traced_ops_per_s=9.0,
        untraced_ops_per_s=10.0,
    )
    assert set(metrics) == set(UNITS)
    assert metrics["app.self_ms"] == pytest.approx(1.0)  # (8 - 6) ms over 2 ops
    assert metrics["app.wait_ms"] == pytest.approx(0.5)
    assert metrics["ledger.reserve_ms"] == pytest.approx(1.0)
    assert metrics["ledger.txn_per_op"] == 0.5
    assert metrics["store.busy_share"] == pytest.approx(0.05)
    assert metrics["store.state_kb"] == 2.0
    assert metrics["trace.unattributed_ms"] == pytest.approx(6.0)  # (2 + 10) / 2
    assert metrics["trace.overhead"] == pytest.approx(0.9)


def test_recorder_links_parents_and_restores_patches():
    class Target:
        def outer(self):
            return self.inner()

        def inner(self):
            return [1, 2, 3]

    recorder = SpanRecorder()
    original = Target.__dict__["outer"]
    recorder.patch(Target, "outer", recorder.wrap("outer", original))
    recorder.patch(Target, "inner", recorder.wrap("inner", Target.__dict__["inner"], len))
    with recorder.op(7):
        Target().outer()
    with recorder.paused():
        Target().outer()
    recorder.restore()
    assert Target.__dict__["outer"] is original
    names = [(s.name, s.parent, s.op_id) for s in recorder.spans]
    assert names == [("op", None, 7), ("outer", 0, 7), ("inner", 1, 7)]
    assert recorder.counts == {2: 3.0}


# -- host normalisation -------------------------------------------------------
def test_normalisation_cancels_a_host_slowdown():
    # The same ops on a host that halves its speed half-way through: the
    # probes slow with them, and the normalised latencies do not move.
    costs = [1.0, 2.0, 3.0] * 40
    speed = [1.0] * 60 + [0.5] * 60
    latencies = [c / v for c, v in zip(costs, speed)]
    probes = [1e-3 / v for v in speed + [0.5]]
    normalised = stats.host_normalised(latencies, probes, 1e-3)
    changed = [i for i, (n, c) in enumerate(zip(normalised, costs)) if n != c]
    # only the op whose bracketing probes straddle the change is off
    assert changed == [59]


def test_normalisation_uses_the_probes_that_bracket_each_op():
    normalised = stats.host_normalised([4e-3, 4e-3], [1e-3, 3e-3, 2e-3], 1e-3)
    assert normalised == pytest.approx([2e-3, 4e-3 / 2.5])
    with pytest.raises(ValueError):
        stats.host_normalised([1.0], [1e-3], 1e-3)


def test_probe_times_are_positive_and_gc_state_is_kept():
    import gc

    probe = HostProbe()
    assert probe.median_seconds(5) > 0
    gc.disable()
    probe.seconds()
    assert not gc.isenabled()
    gc.enable()
    probe.seconds()
    assert gc.isenabled()


# -- op_decay -------------------------------------------------------------------
def test_op_decay_on_synthetic_latencies():
    assert stats.op_decay([2.0] * 40) == 1.0
    growing = [float(v) for v in range(1, 101)]
    # first quarter 1..25 (p50 13), last quarter 76..100 (p50 88)
    assert stats.op_decay(growing) == 88.0 / 13.0
    # positions place ops in their tenant's history; None takes no part
    assert stats.op_decay([1.0, 100.0, 3.0, 100.0], [0.0, None, 0.9, None]) == 3.0
    with pytest.raises(ValueError):
        stats.op_decay([1.0, 2.0, 3.0])


# -- smoke runs with every check on -----------------------------------------------
def _tiny(name: str, n_ops: int):
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed=3, seconds=1)
    workload.ops = workload.ops[:n_ops]
    return workload


@pytest.mark.parametrize(
    "name, n_ops", [("oneshot", 24), ("bulk", 20), ("calibrate-cold", 36)]
)
def test_tiny_untraced_run_passes_every_check(name, n_ops):
    workload = _tiny(name, n_ops)
    workload.setup(run._fresh_dir(workload.name))
    result = run.run_pass(workload)
    assert result.errors == []
    assert len(result.latencies) == n_ops
    assert workload.store_kb > 0


def test_checks_catch_a_wrong_ledger():
    workload = _tiny("oneshot", 6)
    workload.setup(run._fresh_dir(workload.name))
    workload.served["oneshot-0"] += 1  # the client "remembers" one more
    result = run.run_pass(workload)
    assert result.failed > 0
    assert any("n_releases" in error for error in result.errors)


def test_checks_catch_a_wrong_scale():
    workload = _tiny("calibrate-cold", 3)
    row = workload.ops[0][1]
    row.reference = row.reference * (1 + 2**-50)
    workload.setup(run._fresh_dir(workload.name))
    result = run.run_pass(workload)
    assert result.failed >= 1
    assert any("recorded" in error for error in result.errors)


def test_every_calibrate_cold_row_is_recorded_for_any_seed():
    from perfbench.workloads import WORKLOADS

    one, other = (WORKLOADS["calibrate-cold"](seed, seconds=1) for seed in (5, 987654))
    assert one.reference_errors == [] and other.reference_errors == []
    # the seed orders the rows and draws their data, never their models
    assert sorted(r.label for r in one.rows) == sorted(r.label for r in other.rows)
    assert [r.label for r in one.rows] != [r.label for r in other.rows]


def test_a_row_without_a_recorded_scale_fails():
    workload = _tiny("calibrate-cold", 3)
    workload.ops[0][1].label = "unrecorded-row"
    workload.reference_errors = workload._load_references()
    assert "unrecorded-row" in workload.reference_errors[0]
    workload.setup(run._fresh_dir(workload.name))
    result = run.run_pass(workload)
    assert any("unrecorded-row" in error for error in result.errors)


def test_setup_is_sampled_through_the_run(monkeypatch):
    from perfbench.workloads import WORKLOADS

    samples = []
    timed_setup = run._timed_setup

    def counting(workload, workdir, probe):
        samples.append(workdir)
        return timed_setup(workload, workdir, probe)

    monkeypatch.setattr(run, "_timed_setup", counting)
    workload, spare = _tiny("bulk", 40), WORKLOADS["bulk"](seed=3, seconds=1)
    measured, metrics, wall = run.end_to_end(workload, spare, HostProbe())
    assert len(samples) == run.SETUP_SAMPLES
    assert metrics["setup_s"] > 0 and wall["setup_s"] > 0
    assert len(measured.probes) == len(measured.latencies) + 1 == 41
    # spare set-ups leave the measured tenants alone; 40 ops are too few
    # for a p95, which is the only error
    assert len(measured.errors) == 1 and "p95" in measured.errors[0]


@pytest.mark.parametrize("name, n_ops", [("bulk", 10), ("calibrate-cold", 36)])
def test_tiny_traced_run_reports_every_layer_metric(name, n_ops):
    workload = _tiny(name, n_ops)
    passes, metrics = run.traced(workload, HostProbe())
    assert all(p.errors == [] for p in passes)
    assert set(metrics) == set(run.TRACE_UNITS)
    if name == "bulk":
        assert metrics["ledger.txn_per_op"] > 0
        assert metrics["stream.values_per_take"] == 6.0
        assert metrics["cache.hit_ratio"] == 1.0
    else:
        assert metrics["mqm_exact.self_ms"] > 0
        assert metrics["markov_quilt.max_influence_calls"] > 0
        assert metrics["cache.hit_ratio"] == 0.0
    assert metrics["trace.unattributed_ms"] >= 0


def test_install_patches_only_what_restore_undoes():
    from repro.service.app import AsgiApp

    before = AsgiApp.__dict__["__call__"]
    recorder = SpanRecorder()
    install(recorder)
    assert AsgiApp.__dict__["__call__"] is not before
    recorder.restore()
    assert AsgiApp.__dict__["__call__"] is before


# -- the command ------------------------------------------------------------------
def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [*spec["command"], "--workload", "oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
