"""The benchmark's three workloads.

Each workload is a fixed op sequence generated from a seed before any
clock starts.  The program under test only ever sees the generated inputs:
HTTP requests for the service workloads, mechanisms, queries and data for
the calibration workload.  A workload object has four phases:

* construction (``__init__``): generate inputs and the op list, and compute
  everything the checks compare against — never timed;
* :meth:`Workload.setup`: build the program state the ops run against —
  timed, reported as ``setup_s``;
* :meth:`Workload.run_op` per op — timed; :meth:`Workload.before_op` and
  :meth:`Workload.check_op` around it are not;
* :meth:`Workload.finish`: final checks and tear-down — not timed.

Sizes scale with ``--seconds`` through fixed formulas, so the same
``(seed, seconds)`` always gives the same op sequence; every size has a
floor that keeps at least ten samples beyond the p95.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.accounting import RenyiAccountant
from repro.core.composition import CompositionAccountant
from repro.service import create_app, default_workloads
from repro.service.testing import Response, TestClient


class Workload:
    """Base class: the phase protocol the runner drives."""

    name = ""
    #: Modules the program imports to serve this workload (timed for
    #: ``setup_s`` in fresh interpreters).
    import_modules: "tuple[str, ...]" = ()
    #: KiB of durable state the run left behind, set by :meth:`finish`.
    store_kb = 0.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = int(seed)
        self.ops: "list[tuple]" = []
        #: Each op's position in [0, 1) for ``op_decay`` (``None`` entries
        #: take no part); ``None`` for the whole list means issue order.
        self.positions: "list[float | None] | None" = None

    def setup(self, workdir: str) -> None:
        raise NotImplementedError

    def before_op(self, op: tuple) -> None:
        """Untimed preparation of one op."""

    def run_op(self, op: tuple) -> Any:
        raise NotImplementedError

    def check_op(self, op: tuple, result: Any) -> "str | None":
        """An error message when the op's output is wrong, else ``None``."""
        raise NotImplementedError

    def finish(self) -> "list[str]":
        """Final checks and tear-down; returns error messages."""
        return []

    def teardown(self) -> None:
        """Release the program state built by :meth:`setup`."""

    def state_kb(self, op: tuple) -> "float | None":
        """Size of the state the op touched (traced runs only)."""
        return None

    def store_retries(self) -> int:
        """Transient store errors retried so far."""
        return 0


# --------------------------------------------------------------------------
# The service workloads: HTTP requests through the in-process ASGI client.
# --------------------------------------------------------------------------

BUDGET = 1.0e5
#: The service's default Rényi conversion delta (``create_tenant``).
RENYI_DELTA = 1e-6

#: (accountant, hosted workload) pairs; tenants alternate between them.
TENANT_KINDS = (("linear", "hub-laplace"), ("renyi", "hub-gaussian"))


def _expect_ok(response: Response) -> Any:
    """The JSON body of a set-up request, which must succeed."""
    if response.status != 200:
        raise RuntimeError(
            f"set-up request failed: {response.status} {response.body[:200]!r}"
        )
    return response.json()


def _response(result: Any) -> "tuple[Any, str | None]":
    """The JSON body of a 200 response, or an error message."""
    if isinstance(result, BaseException):
        return None, f"{type(result).__name__}: {result}"
    if result.status != 200:
        return None, f"HTTP {result.status}: {result.body[:200]!r}"
    return result.json(), None


def _values_ok(values: Any, n: int) -> "str | None":
    if not isinstance(values, list) or len(values) != n:
        return f"expected {n} values, got {len(values) if isinstance(values, list) else values!r}"
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        return "non-finite value served"
    return None


class ServiceWorkload(Workload):
    """Shared client side of ``oneshot`` and ``bulk``."""

    import_modules = ("repro.service", "repro.service.testing")

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.rng = np.random.default_rng(seed)
        #: tenant -> (accountant kind, workload name)
        self.tenants: "dict[str, tuple[str, str]]" = {}
        # The reference Rényi curves: the hosted mechanisms, calibrated
        # client-side so replayed debits use the curve the service charges.
        self._curves: "dict[str, Any]" = {}
        self.epsilon: "dict[str, float]" = {}
        for name, workload in default_workloads().items():
            workload.mechanism.calibrate(workload.query, workload.data)
            self._curves[name] = getattr(workload.mechanism, "rdp_curve", None)
            self.epsilon[name] = workload.mechanism.epsilon
        self.app = None
        self.client: "TestClient | None" = None
        self.workdir = ""

    # -- set-up -------------------------------------------------------------
    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        self.store_path = os.path.join(workdir, "ledger.sqlite")
        self.app = create_app(self.store_path)
        self.client = TestClient(self.app)
        for tenant, (accountant, _) in self.tenants.items():
            _expect_ok(
                self.client.post(
                    f"/tenants/{tenant}",
                    {"budget": BUDGET, "accountant": accountant},
                )
            )
        # Warm-up: calibrate every hosted workload and run each request kind
        # once on a throw-away tenant, so lazy initialisation (worker
        # threads, first SQLite pages, first draws) is not charged to the
        # first measured ops.
        for accountant, workload in TENANT_KINDS:
            tenant = f"warmup-{accountant}"
            post = self.client.post
            _expect_ok(
                post(f"/tenants/{tenant}", {"budget": BUDGET, "accountant": accountant})
            )
            _expect_ok(post(f"/tenants/{tenant}/calibrate", {"workload": workload}))
            for n in (1, 1, 100):
                _expect_ok(
                    post(f"/tenants/{tenant}/release", {"workload": workload, "n": n})
                )
            _expect_ok(self.client.get(f"/tenants/{tenant}"))
            session = _expect_ok(
                post(f"/tenants/{tenant}/stream", {"workload": workload, "n_reserved": 2})
            )["session_id"]
            _expect_ok(post(f"/sessions/{session}/next", {"n": 2}))
            _expect_ok(self.client.delete(f"/sessions/{session}"))
        self._reset_replay()

    def _reset_replay(self) -> None:
        # What the client was served, replayed into reference accountants.
        self.served = {tenant: 0 for tenant in self.tenants}
        self.replay = {
            tenant: (
                CompositionAccountant(budget=BUDGET, audit_trail=False)
                if accountant == "linear"
                else RenyiAccountant(
                    budget=BUDGET, delta=RENYI_DELTA, audit_trail=False
                )
            )
            for tenant, (accountant, _) in self.tenants.items()
        }

    def teardown(self) -> None:
        if self.app is not None:
            self.app.close()
            self.app.service.close()
            self.app = None
            self.client = None

    # -- checks ---------------------------------------------------------------
    def _served(self, tenant: str, n: int) -> None:
        workload = self.tenants[tenant][1]
        self.replay[tenant].record_many(
            n, self.epsilon[workload], rdp_curve=self._curves[workload]
        )
        self.served[tenant] += n

    def _ledger_matches(self, tenant: str, snapshot: Any) -> "str | None":
        if not isinstance(snapshot, dict):
            return f"no ledger snapshot for {tenant}"
        expected = self.replay[tenant].total_epsilon()
        if snapshot.get("n_releases") != self.served[tenant]:
            return (
                f"{tenant}: ledger n_releases {snapshot.get('n_releases')} != "
                f"{self.served[tenant]} served"
            )
        if snapshot.get("spent_epsilon") != expected:
            return (
                f"{tenant}: ledger spent_epsilon {snapshot.get('spent_epsilon')!r} "
                f"!= {expected!r} replayed from what was served"
            )
        return None

    def finish(self) -> "list[str]":
        errors = []
        for tenant in self.tenants:
            response = self.client.get(f"/tenants/{tenant}")
            body, error = _response(response)
            error = error or self._ledger_matches(tenant, body)
            if error:
                errors.append(f"final ledger check: {error}")
        self.teardown()
        self.store_kb = _file_kb(self.store_path)
        shutil.rmtree(self.workdir, ignore_errors=True)
        return errors

    def state_kb(self, op: tuple) -> "float | None":
        state = self.app.service.store.peek(op[1])
        return None if state is None else len(json.dumps(state)) / 1024.0

    def store_retries(self) -> int:
        return self.app.service.store.retries


def _file_kb(path: str) -> float:
    total = 0
    for suffix in ("", "-wal"):
        if os.path.exists(path + suffix):
            total += os.path.getsize(path + suffix)
    return total / 1024.0


class Oneshot(ServiceWorkload):
    """Keyless single releases on long-lived tenants, with reads.

    Every release is the per-value durability path: reserve, consume and
    release-unused transactions plus a snapshot, each rewriting the whole
    tenant document, so per-request cost grows with tenant history.  Each
    second release of a tenant is followed by a read of it: the p50 then
    falls inside the release latencies, not on the boundary between reads
    and releases.

    Tenants turn over: a new one starts every quarter lifetime, so four
    are alive at once, at staggered ages.  Releases early and late in their
    tenant's history therefore alternate in time through most of the run,
    and ``op_decay`` — computed on the releases, by each one's position in
    its tenant's history — compares them under the same host conditions.
    """

    name = "oneshot"
    N_TENANTS = 8
    LIVE_TENANTS = 4

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        # Per-release cost grows linearly with history, so a run's time
        # grows with the square of the history length.
        history = max(40, round(22 * math.sqrt(seconds)))
        offset = history // self.LIVE_TENANTS
        names = []
        for index in range(self.N_TENANTS):
            accountant, workload = TENANT_KINDS[index % 2]
            names.append(f"oneshot-{index}")
            self.tenants[names[-1]] = (accountant, workload)
        released = dict.fromkeys(names, 0)
        tenant_ops: "list[tuple[str, int | None]]" = []
        for round_ in range(history + offset * (self.N_TENANTS - 1)):
            active = [
                name
                for index, name in enumerate(names)
                if index * offset <= round_ < index * offset + history
            ]
            for index in self.rng.permutation(len(active)):
                tenant = active[int(index)]
                self.ops.append(("release", tenant, int(self.rng.integers(2**31))))
                tenant_ops.append((tenant, released[tenant]))
                released[tenant] += 1
                if released[tenant] % 2 == 0:
                    self.ops.append(("read", tenant))
                    tenant_ops.append((tenant, None))
        self.positions = [
            None if index is None else index / history for _, index in tenant_ops
        ]

    def run_op(self, op: tuple) -> Any:
        if op[0] == "release":
            workload = self.tenants[op[1]][1]
            return self.client.post(
                f"/tenants/{op[1]}/release",
                {"workload": workload, "n": 1, "seed": op[2]},
            )
        return self.client.get(f"/tenants/{op[1]}")

    def check_op(self, op: tuple, result: Any) -> "str | None":
        body, error = _response(result)
        if error:
            return error
        tenant = op[1]
        if op[0] == "release":
            error = _values_ok(body.get("values"), 1)
            if error or body.get("n") != 1:
                return error or f"n={body.get('n')!r}"
            self._served(tenant, 1)
            return self._ledger_matches(tenant, body.get("ledger"))
        return self._ledger_matches(tenant, body)


class Bulk(ServiceWorkload):
    """Batched releases and streaming sessions on short-lived tenants.

    Each tenant serves exactly one cycle and is never used again, so every
    tenant's history — and with it the ledger cost per transaction — is the
    same in every cycle; the draw, the per-value JSON encoding and the
    stream's block pre-draw dominate instead.  Batch and chunk sizes are
    graded rather than equal, so op costs spread over a range and the p50
    does not sit on a block of identical ops.
    """

    name = "bulk"
    #: Values per batched release (mean 2000).
    BATCHES = (1000, 1500, 2500, 3000)
    #: Values per ``next`` chunk of one streaming session.
    CHUNKS = (3, 5, 7, 9)
    STREAM_RESERVED = sum(CHUNKS)

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        for cycle in range(max(20, round(5.5 * seconds))):
            accountant, workload = TENANT_KINDS[cycle % 2]
            tenant = f"bulk-{cycle:04d}"
            self.tenants[tenant] = (accountant, workload)
            for n in self.BATCHES:
                self.ops.append(("batch", tenant, n, int(self.rng.integers(2**31))))
            self.ops.append(("open", tenant, int(self.rng.integers(2**31))))
            for n in self.CHUNKS:
                self.ops.append(("next", tenant, n))
            self.ops.append(("close", tenant))

    def setup(self, workdir: str) -> None:
        super().setup(workdir)
        self.session_id: "str | None" = None
        self.yielded = 0

    def run_op(self, op: tuple) -> Any:
        kind, tenant = op[0], op[1]
        workload = self.tenants[tenant][1]
        if kind == "batch":
            return self.client.post(
                f"/tenants/{tenant}/release",
                {"workload": workload, "n": op[2], "seed": op[3]},
            )
        if kind == "open":
            return self.client.post(
                f"/tenants/{tenant}/stream",
                {
                    "workload": workload,
                    "n_reserved": self.STREAM_RESERVED,
                    "seed": op[2],
                },
            )
        if kind == "next":
            return self.client.post(
                f"/sessions/{self.session_id}/next", {"n": op[2]}
            )
        return self.client.delete(f"/sessions/{self.session_id}")

    def check_op(self, op: tuple, result: Any) -> "str | None":
        body, error = _response(result)
        kind, tenant = op[0], op[1]
        if kind == "open":
            self.session_id = None if error else body.get("session_id")
            self.yielded = 0
        if error:
            return error
        if kind == "batch":
            error = _values_ok(body.get("values"), op[2])
            if error:
                return error
            self._served(tenant, op[2])
            return self._ledger_matches(tenant, body.get("ledger"))
        if kind == "open":
            if body.get("n_reserved") != self.STREAM_RESERVED:
                return f"reserved {body.get('n_reserved')!r}"
            return None
        if kind == "next":
            error = _values_ok(body.get("values"), op[2])
            if error:
                return error
            # Each streamed value is its own durable consume.
            for _ in range(op[2]):
                self._served(tenant, 1)
            self.yielded += op[2]
            if body.get("n_yielded") != self.yielded:
                return f"n_yielded {body.get('n_yielded')!r} != {self.yielded}"
            return None
        if body.get("n_yielded") != self.STREAM_RESERVED or body.get("n_returned") != 0:
            return f"close: yielded {body.get('n_yielded')!r}, returned {body.get('n_returned')!r}"
        return self._ledger_matches(tenant, body.get("ledger"))


# --------------------------------------------------------------------------
# Cold calibration: the paper's Table 2 cost, no service involved.
# --------------------------------------------------------------------------


#: Recorded ``calibrate-cold`` reference scales, ``label -> float.hex()``
#: (``record_reference.py``).
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_scales.json"

#: Seed of the generator that draws the synthetic chains' parameters.  It is
#: fixed, not ``--seed``: an MQMExact search's cost moves with the chain's
#: mixing, so seed-drawn parameters made the work of a run — and its p50 by
#: up to 30% — depend on the seed.
ROW_PARAMETER_SEED = 0


@dataclass
class Row:
    """One Table-2-style calibration: a fresh mechanism per op."""

    label: str
    #: Builds a fresh mechanism on every call.
    make: Callable[[], Any]
    query: Any
    data: Any
    reference: float = math.nan


class CalibrateCold(Workload):
    """Cold calibrations cycling in a fixed order through Table-2 rows.

    Per cycle: twelve synthetic-grid chains, each calibrated once by
    MQMApprox and once by MQMExact (cheap ops, two thirds of the cycle, so
    the p50 lies inside the synthetic MQMExact block), then one op of each
    heavier row — the three activity cohorts and the power series under
    both mechanisms, a free-initial IntervalChainFamily MQMExact, and
    Algorithm 2 on the grid, hub and blocks scenarios.  Cycles come in
    multiples of four so every quarter of the run has the same mix.

    Every row's model is fixed; the seed draws the data each row is
    calibrated for and the order of the rows within a cycle.  Calibration
    reads only the data's shape, so the work per run and every row's scale
    are the same for every seed, and each scale is checked bit for bit
    against the recorded one.
    """

    name = "calibrate-cold"
    import_modules = (
        "repro.core",
        "repro.data",
        "repro.distributions",
        "repro.inference",
        "repro.serving",
    )
    #: Chain lengths of the synthetic rows (mean 95, near Table 2's 100):
    #: graded so MQMExact costs spread from ~3 to ~10 ms and the p50 does
    #: not sit on a block of identical ops.
    SYNTHETIC_LENGTHS = tuple(range(40, 160, 10))
    #: Segment lengths of every scaled cohort.
    COHORT_SEGMENTS = (300, 500, 800, 1200, 1800, 2500)
    POWER_LENGTH = 4000
    POWER_WINDOW = 48
    INTERVAL_ALPHA = 0.32
    INTERVAL_LENGTH = 24
    INTERVAL_WINDOW = 8

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        from repro.inference import clear_engine_registry

        self._clear = clear_engine_registry
        self.rng = np.random.default_rng(seed)
        cheap, heavy = self._rows()
        cheap = [cheap[int(i)] for i in self.rng.permutation(len(cheap))]
        heavy = [heavy[int(i)] for i in self.rng.permutation(len(heavy))]
        cycle: "list[Row]" = []
        slots = len(cheap) // max(1, len(heavy))
        for index, row in enumerate(cheap):
            cycle.append(row)
            if (index + 1) % slots == 0 and heavy:
                cycle.append(heavy.pop(0))
        cycle.extend(heavy)
        self.rows = cycle
        self.reference_errors = self._load_references()
        cycles = max(8, 4 * round(seconds / 3.5))
        self.ops = [("calibrate", row) for _ in range(cycles) for row in cycle]
        self.store_bytes = 0

    def _rows(self) -> "tuple[list[Row], list[Row]]":
        from repro.core.markov_quilt import MarkovQuiltMechanism
        from repro.core.mqm_chain import MQMApprox, MQMExact
        from repro.core.queries import CountQuery, StateFrequencyQuery
        from repro.data.activity import default_cohorts
        from repro.data.datasets import TimeSeriesDataset
        from repro.data.power import generate_power_dataset
        from repro.distributions.chain_family import (
            FiniteChainFamily,
            IntervalChainFamily,
        )
        from repro.distributions.markov import MarkovChain
        from repro.distributions.structured import (
            grid_scenario,
            household_blocks_scenario,
            hub_and_spoke_scenario,
        )

        rng = self.rng
        parameters = np.random.default_rng(ROW_PARAMETER_SEED)
        cheap: "list[Row]" = []
        grid = np.round(np.arange(0.2, 0.8001, 0.01), 2)
        for length in self.SYNTHETIC_LENGTHS:
            query = StateFrequencyQuery(1, length)
            data = rng.integers(0, 2, size=length)
            p0, p1 = (float(v) for v in parameters.choice(grid, size=2))
            family = FiniteChainFamily.singleton(
                MarkovChain(
                    IntervalChainFamily.stationary_for(p0, p1),
                    IntervalChainFamily.transition_for(p0, p1),
                )
            )
            tag = f"[T={length},{p0:.2f},{p1:.2f}]"
            cheap.append(
                Row(f"synth-approx{tag}", partial(MQMApprox, family, 1.0), query, data)
            )
            cheap.append(
                Row(
                    f"synth-exact{tag}",
                    partial(MQMExact, family, 1.0, max_window=length),
                    query,
                    data,
                )
            )

        # The activity cohorts and the power series, scaled down.  Each row's
        # family is the generating chain, not one estimated from the sample:
        # an estimate's mixing rate — and with it MQMApprox's optimal quilt
        # extent and the search cost — would move with the seed.  The seed
        # draws the recorded values, which calibration never reads.
        heavy: "list[Row]" = []
        for profile in default_cohorts():
            chain = profile.chain()
            segments = [chain.sample(n, rng) for n in self.COHORT_SEGMENTS]
            dataset = TimeSeriesDataset(segments, chain.n_states, profile.name)
            family = FiniteChainFamily.singleton(chain)
            heavy.extend(self._chain_rows(profile.name, family, dataset))
        dataset, chain = generate_power_dataset(self.POWER_LENGTH, rng)
        heavy.extend(
            self._chain_rows(
                "power",
                FiniteChainFamily.singleton(chain),
                dataset,
                window=self.POWER_WINDOW,
            )
        )

        length = self.INTERVAL_LENGTH
        heavy.append(
            Row(
                f"interval-exact[{self.INTERVAL_ALPHA:.2f}]",
                partial(
                    MQMExact,
                    IntervalChainFamily(self.INTERVAL_ALPHA, grid_step=0.1),
                    1.0,
                    max_window=self.INTERVAL_WINDOW,
                ),
                StateFrequencyQuery(1, length),
                rng.integers(0, 2, size=length),
            )
        )

        for scenario, epsilon in (
            (grid_scenario(3, 3, spreads=(0.45, 0.25)), 8.0),
            (hub_and_spoke_scenario(3, 3, spreads=(0.75, 0.55)), 6.0),
            (household_blocks_scenario(3, 4, spreads=(0.45, 0.25)), 2.0),
        ):
            heavy.append(
                Row(
                    f"mqm-{scenario.name}",
                    partial(
                        MarkovQuiltMechanism,
                        scenario.networks,
                        epsilon,
                        quilt_generator=scenario.quilt_generator,
                    ),
                    CountQuery(),
                    rng.integers(0, 2, size=len(scenario.reference.nodes)),
                )
            )
        return cheap, heavy

    @staticmethod
    def _chain_rows(name, family, dataset, window=None) -> "list[Row]":
        from repro.core.mqm_chain import MQMApprox, MQMExact
        from repro.core.queries import RelativeFrequencyHistogram

        query = RelativeFrequencyHistogram(dataset.n_states, dataset.n_observations)
        if window is None:
            # The paper's procedure: MQMExact searches up to MQMApprox's
            # optimal quilt extent.
            window = MQMApprox(family, 1.0).optimal_quilt_extent(
                dataset.longest_segment
            ) or 64
        return [
            Row(f"{name}-approx", partial(MQMApprox, family, 1.0), query, dataset),
            Row(
                f"{name}-exact",
                partial(MQMExact, family, 1.0, max_window=window),
                query,
                dataset,
            ),
        ]

    def setup(self, workdir: str) -> None:
        from repro.serving.engine import PrivacyEngine

        # Warm-up calibration: one synthetic MQMExact row, then forget it.
        row = next(r for r in self.rows if r.label.startswith("synth-exact"))
        PrivacyEngine(row.make()).calibrate(row.query, row.data)
        self._clear()
        self.store_bytes = 0

    def before_op(self, op: tuple) -> None:
        self._clear()

    def run_op(self, op: tuple) -> Any:
        from repro.serving.engine import PrivacyEngine

        row = op[1]
        mechanism = row.make()
        engine = PrivacyEngine(mechanism)
        calibration = engine.calibrate(row.query, row.data)
        return mechanism, engine, calibration

    def check_op(self, op: tuple, result: Any) -> "str | None":
        if isinstance(result, BaseException):
            return f"{type(result).__name__}: {result}"
        row = op[1]
        mechanism, engine, calibration = result
        scale = float(calibration.scale)
        if scale.hex() != row.reference.hex():
            return f"{row.label}: scale {scale!r} != recorded {row.reference!r}"
        payload = engine.cache.backend.get(
            engine.cache.key_for(mechanism, row.query, row.data)
        )
        if payload is None:
            return f"{row.label}: calibration was not cached"
        self.store_bytes += len(json.dumps(payload))
        return None

    def finish(self) -> "list[str]":
        self.store_kb = self.store_bytes / 1024.0
        self._clear()
        return list(self.reference_errors)

    def _load_references(self) -> "list[str]":
        """Set every row's recorded scale; errors for rows not recorded.

        A row without a recorded scale keeps ``nan``, so each of its ops
        fails its check as well.
        """
        if not REFERENCE_FILE.exists():
            return [f"no recorded scales: {REFERENCE_FILE.name} is missing"]
        recorded = json.loads(REFERENCE_FILE.read_text())
        errors = []
        for row in self.rows:
            row.reference = float.fromhex(recorded.get(row.label, "nan"))
            if row.label not in recorded:
                errors.append(f"{row.label}: no recorded scale in {REFERENCE_FILE.name}")
        return errors

    def computed_references(self) -> "dict[str, str]":
        """``label -> scale.hex()`` computed afresh through each mechanism
        (not the engine the ops use), for recording."""
        references = {}
        for row in self.rows:
            self._clear()
            references[row.label] = float(
                row.make().noise_scale(row.query, row.data)
            ).hex()
        self._clear()
        return references


WORKLOADS: "dict[str, type[Workload]]" = {
    workload.name: workload for workload in (Oneshot, Bulk, CalibrateCold)
}
