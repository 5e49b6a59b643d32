"""The traced layers: which public entry points get a span, and the
per-layer metrics computed from the spans.

Every entry point is patched where its caller resolves it: methods on
their class (instances look them up there on every call), module-level
functions in the namespace of the module that calls them.  The service's
route table binds handler methods when the app is built, so
:func:`install` must run before :func:`repro.service.create_app`.

Time metrics (``*_ms``) are milliseconds per op, averaged over every op of
the run, so they add up: the ``self_ms`` metrics, the other layers' self
times and ``trace.unattributed_ms`` sum to the mean op time.  ``*_ms``
without ``self`` is inclusive of the layers it calls.
"""

from __future__ import annotations

import json
from typing import Any

from perfbench.spans import OP, SpanRecorder, self_times


class _TracedJson:
    """Stand-in for the ``json`` module inside :mod:`repro.service.stores`:
    ``loads``/``dumps`` are traced, everything else passes through."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.loads = recorder.wrap("store.serde", json.loads)
        self.dumps = recorder.wrap("store.serde", json.dumps)

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


def _hit(result: Any) -> float:
    return 1.0 if result[1] else 0.0


def _found(result: Any) -> float:
    return 0.0 if result is None else 1.0


def install(recorder: SpanRecorder) -> None:
    """Patch every traced entry point; undo with ``recorder.restore()``."""
    import repro.core.markov_quilt as markov_quilt
    import repro.core.mqm_chain as mqm_chain
    import repro.service.stores as stores
    from repro.distributions.bayesnet import DiscreteBayesianNetwork
    from repro.inference.engine import InferenceEngine
    from repro.service.app import AsgiApp, PrivacyService
    from repro.service.ledger import TenantLedger
    from repro.serving.cache import CalibrationCache
    from repro.serving.engine import PrivacyEngine
    from repro.serving.stream import ReleaseSession

    def method(owner: Any, attribute: str, name: str, count: Any = None) -> None:
        original = owner.__dict__[attribute]
        recorder.patch(owner, attribute, recorder.wrap(name, original, count))

    # service.app
    method(AsgiApp, "__call__", "app.call")
    for handler in (
        "create_tenant",
        "get_tenant",
        "calibrate",
        "release",
        "open_stream",
        "stream_next",
        "close_stream",
    ):
        method(PrivacyService, handler, "app.handler")
    # service.ledger
    for operation in ("reserve", "consume", "release_unused", "snapshot"):
        method(TenantLedger, operation, f"ledger.{operation}")
    # service.stores
    store = stores.SQLiteLedgerStore
    recorder.patch(
        store, "transact", recorder.wrap_context("store.txn", store.__dict__["transact"])
    )
    method(store, "peek", "store.peek")
    recorder.patch(stores, "json", _TracedJson(recorder))
    # serving.cache, serving.engine, serving.stream
    method(CalibrationCache, "get_or_compute", "cache.lookup", _hit)
    method(PrivacyEngine, "with_accountant", "engine.clone")
    method(PrivacyEngine, "release_repeated", "engine.draw", len)
    method(ReleaseSession, "take", "stream.take", len)
    # core.mqm_chain
    method(mqm_chain.MQMExact, "sigma_max", "mqm_exact.sigma_max")
    method(mqm_chain.MQMApprox, "sigma_max", "mqm_approx.sigma_max")
    method(mqm_chain, "sigma_max_from_iid_tables", "mqm_chain.iid_tables")
    # core.markov_quilt and the inference calls it makes
    method(markov_quilt.MarkovQuiltMechanism, "sigma_max", "markov_quilt.sigma_max")
    method(markov_quilt, "max_influence", "markov_quilt.max_influence")
    method(markov_quilt, "engine_for", "inference.engine_for")
    method(InferenceEngine, "conditional_tables", "inference.conditional_tables")
    # distributions.bayesnet quilt enumeration
    method(DiscreteBayesianNetwork, "distance_quilts", "quilts.enumerate", len)
    method(DiscreteBayesianNetwork, "chain_quilts", "quilts.enumerate", len)
    method(DiscreteBayesianNetwork, "quilt_from_set", "quilts.enumerate", _found)


#: The per-layer metrics, in report order, with their units.
UNITS = {
    "app.self_ms": "ms",
    "app.wait_ms": "ms",
    "ledger.reserve_ms": "ms",
    "ledger.consume_ms": "ms",
    "ledger.release_unused_ms": "ms",
    "ledger.snapshot_ms": "ms",
    "ledger.txn_per_op": "count",
    "store.txn_ms": "ms",
    "store.busy_share": "share",
    "store.state_kb": "KiB",
    "store.serde_ms": "ms",
    "store.retries": "count",
    "cache.hit_ratio": "share",
    "cache.lookup_ms": "ms",
    "engine.clone_ms": "ms",
    "engine.draw_ms": "ms",
    "engine.values_per_op": "count",
    "stream.take_ms": "ms",
    "stream.values_per_take": "count",
    "mqm_exact.self_ms": "ms",
    "mqm_approx.self_ms": "ms",
    "mqm_chain.iid_tables_ms": "ms",
    "markov_quilt.self_ms": "ms",
    "markov_quilt.max_influence_ms": "ms",
    "markov_quilt.max_influence_calls": "count",
    "inference.engine_for_ms": "ms",
    "inference.conditional_tables_ms": "ms",
    "inference.conditional_tables_calls": "count",
    "quilts.enumerate_ms": "ms",
    "quilts.candidates": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead": "ratio",
}


class _Totals:
    """Per-name sums over a span list."""

    def __init__(self, recorder: SpanRecorder) -> None:
        spans = recorder.spans
        selfs = self_times(spans)
        self.total: "dict[str, float]" = {}
        self.self_total: "dict[str, float]" = {}
        self.calls: "dict[str, int]" = {}
        self.counted: "dict[str, float]" = {}
        self.wait = 0.0
        for index, span in enumerate(spans):
            parent = None if span.parent is None else spans[span.parent]
            self.self_total[span.name] = self.self_total.get(span.name, 0.0) + selfs[index]
            if parent is not None and parent.name == span.name:
                continue  # nested re-entry: its time is inside the outer call
            self.total[span.name] = self.total.get(span.name, 0.0) + (span.end - span.start)
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            if index in recorder.counts:
                self.counted[span.name] = (
                    self.counted.get(span.name, 0.0) + recorder.counts[index]
                )
            if span.name == "app.handler" and parent is not None and parent.name == "app.call":
                self.wait += span.start - parent.start


def layer_metrics(
    recorder: SpanRecorder,
    *,
    state_kb: "list[float]",
    retries: int,
    traced_ops_per_s: float,
    untraced_ops_per_s: float,
) -> "dict[str, float]":
    """Every metric of :data:`UNITS` from one traced run's spans."""
    sums = _Totals(recorder)
    n_ops = sums.calls.get(OP, 0)
    if n_ops == 0:
        raise ValueError("no op spans recorded")

    def ms(name: str) -> float:
        return 1e3 * sums.total.get(name, 0.0) / n_ops

    def self_ms(name: str) -> float:
        return 1e3 * sums.self_total.get(name, 0.0) / n_ops

    def per_op(value: float) -> float:
        return value / n_ops

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    op_time = sums.total[OP]
    store_busy = sums.total.get("store.txn", 0.0) + sums.total.get("store.peek", 0.0)
    takes = sums.calls.get("stream.take", 0)
    taken = sums.counted.get("stream.take", 0.0)
    return {
        "app.self_ms": self_ms("app.call"),
        "app.wait_ms": 1e3 * sums.wait / n_ops,
        "ledger.reserve_ms": ms("ledger.reserve"),
        "ledger.consume_ms": ms("ledger.consume"),
        "ledger.release_unused_ms": ms("ledger.release_unused"),
        "ledger.snapshot_ms": ms("ledger.snapshot"),
        "ledger.txn_per_op": per_op(sums.calls.get("store.txn", 0)),
        "store.txn_ms": ms("store.txn"),
        "store.busy_share": store_busy / op_time,
        "store.state_kb": sum(state_kb) / len(state_kb) if state_kb else 0.0,
        "store.serde_ms": ms("store.serde"),
        "store.retries": float(retries),
        "cache.hit_ratio": ratio(
            sums.counted.get("cache.lookup", 0.0), sums.calls.get("cache.lookup", 0)
        ),
        "cache.lookup_ms": self_ms("cache.lookup"),
        "engine.clone_ms": ms("engine.clone"),
        "engine.draw_ms": ms("engine.draw"),
        "engine.values_per_op": per_op(sums.counted.get("engine.draw", 0.0) + taken),
        "stream.take_ms": ms("stream.take"),
        "stream.values_per_take": ratio(taken, takes),
        "mqm_exact.self_ms": self_ms("mqm_exact.sigma_max"),
        "mqm_approx.self_ms": self_ms("mqm_approx.sigma_max"),
        "mqm_chain.iid_tables_ms": ms("mqm_chain.iid_tables"),
        "markov_quilt.self_ms": self_ms("markov_quilt.sigma_max"),
        "markov_quilt.max_influence_ms": ms("markov_quilt.max_influence"),
        "markov_quilt.max_influence_calls": per_op(
            sums.calls.get("markov_quilt.max_influence", 0)
        ),
        "inference.engine_for_ms": ms("inference.engine_for"),
        "inference.conditional_tables_ms": ms("inference.conditional_tables"),
        "inference.conditional_tables_calls": per_op(
            sums.calls.get("inference.conditional_tables", 0)
        ),
        "quilts.enumerate_ms": ms("quilts.enumerate"),
        "quilts.candidates": per_op(sums.counted.get("quilts.enumerate", 0.0)),
        "trace.unattributed_ms": self_ms(OP),
        "trace.overhead": traced_ops_per_s / untraced_ops_per_s,
    }
