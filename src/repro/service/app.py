"""The multi-tenant privacy service: ASGI app over durable tenant ledgers.

:class:`PrivacyService` hosts named *workloads* (a mechanism plus the data
and query it answers) behind three families of endpoints — ``calibrate``,
``release``, and ``stream`` — with every release debited against the
calling tenant's durable :class:`~repro.service.ledger.TenantLedger`:

========  ===================================  =================================
Method    Path                                 Action
========  ===================================  =================================
GET       ``/health``                          liveness + inventory
GET       ``/workloads``                       hosted workloads
GET       ``/tenants``                         known tenants
POST      ``/tenants/{tenant}``                create a tenant ledger
GET       ``/tenants/{tenant}``                ledger snapshot
POST      ``/tenants/{tenant}/calibrate``      warm a workload's calibration
POST      ``/tenants/{tenant}/release``        n budgeted releases (atomic)
POST      ``/tenants/{tenant}/stream``         open a streaming session
POST      ``/sessions/{session_id}/next``      draw a chunk from a session
DELETE    ``/sessions/{session_id}``           close; return unused budget
========  ===================================  =================================

**Admission is reservation-style** (see :mod:`repro.service.ledger`): a
``release`` call reserves its whole sub-budget in one store transaction,
serves, then returns any unused remainder; a ``stream`` session holds its
reservation until closed.  Tenant budgets therefore hold across concurrent
requests, concurrent *service processes* sharing one store, and restarts —
the store is the source of truth, rehydrated per transaction.

**Engines are shared, budgets are not.**  One warm
:class:`~repro.serving.engine.PrivacyEngine` per workload owns the
calibration cache; each request gets a
:meth:`~repro.serving.engine.PrivacyEngine.with_accountant` clone bound to
a :class:`~repro.service.ledger.ReservationAccountant`, so tenants share
the expensive (tenant-agnostic) calibrations while every debit lands in
their own ledger.

**Errors are structured.**  Every refusal maps an exception's
``http_status`` — 400 validation, 404 unknown tenant/session, 409
reservation conflicts, 410 dead reservations, 429 budget exhausted (with
the exact ``spent`` / ``remaining`` ledger in the body), 503 transient
store errors (a busy database, an I/O blip).  Handlers never return
partial work: a refused release records and returns nothing.

The app itself (:class:`AsgiApp`) is a dependency-free ASGI 3 callable —
serve it with :mod:`repro.service.server` (stdlib asyncio), any external
ASGI server, or in-process via :class:`repro.service.testing.TestClient`.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import math
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.composition import CompositionAccountant
from repro.core.laplace import Mechanism, PrivateRelease
from repro.core.queries import Query
from repro.exceptions import (
    ReproError,
    UnknownSessionError,
    ValidationError,
)
from repro.faults import current as current_injector
from repro.faults import fire
from repro.serving.engine import PrivacyEngine
from repro.service.ledger import ReservationAccountant, TenantLedger
from repro.service.retry import (
    RetryPolicy,
    RetryingLedgerStore,
    is_transient_store_error,
    with_retries,
)
from repro.service.schemas import (
    get_bool,
    get_float,
    get_int,
    get_str,
    require_object,
)
from repro.service.stores import LedgerStore, ledger_store_from_path

#: Per-request cap on batched/streamed chunk sizes — a service-side sanity
#: bound (memory, response size), not a privacy parameter.
MAX_RELEASES_PER_CALL = 100_000


@dataclass(frozen=True)
class Workload:
    """One hosted release workload: a mechanism answering one query.

    The service is a *release* front-end: data and query are fixed
    server-side (the sensitive data never rides in on requests), clients
    choose a workload by name and spend their tenant budget on it.
    """

    name: str
    mechanism: Mechanism
    data: Any
    query: Query
    description: str = ""


def default_workloads() -> "dict[str, Workload]":
    """The built-in demo workloads: Laplace and Gaussian MQM over the
    hub-and-spoke network used by the ``accounting`` CLI demo.

    Small enough to calibrate in milliseconds, real enough to exercise the
    full quilt search, both noise kinds, and (for the Gaussian) the
    mechanism-supplied Rényi curve through the durable ledger.
    """
    from repro.core import GaussianMarkovQuiltMechanism, MarkovQuiltMechanism
    from repro.core.queries import CountQuery
    from repro.distributions.structured import hub_and_spoke_network

    network = hub_and_spoke_network(3, 2)
    data = np.ones(len(network.nodes))
    query = CountQuery()
    return {
        "hub-laplace": Workload(
            "hub-laplace",
            MarkovQuiltMechanism([network], 0.5),
            data,
            query,
            "Laplace MQM, hub_and_spoke(3, 2), CountQuery, epsilon=0.5",
        ),
        "hub-gaussian": Workload(
            "hub-gaussian",
            GaussianMarkovQuiltMechanism([network], 0.5, delta=1e-5),
            data,
            query,
            "Gaussian MQM (supplies its own RDP curve), epsilon=0.5",
        ),
    }


@dataclass
class _StreamState:
    """Server-side state of one open streaming session."""

    session: Any  # ReleaseSession
    ledger: TenantLedger
    accountant: ReservationAccountant
    workload: str
    lock: threading.Lock = field(default_factory=threading.Lock)


class PrivacyService:
    """The service core: workloads, tenant ledgers, streaming sessions.

    All handlers are synchronous (store transactions are blocking SQLite
    work); :class:`AsgiApp` runs them on worker threads.

    Parameters
    ----------
    store:
        A :class:`~repro.service.stores.LedgerStore`, a SQLite path
        (``.sqlite`` / ``.sqlite3`` / ``.db``; any other suffix is refused),
        or ``None`` for in-memory (no durability; tests and demos).
    workloads:
        Hosted workloads by name; defaults to :func:`default_workloads`.
    reservation_ttl:
        Abandoned-reservation TTL forwarded to every
        :class:`~repro.service.ledger.TenantLedger`.
    retry_policy:
        Transient store errors (SQLite busy, EIO) are
        absorbed by wrapping the store in a
        :class:`~repro.service.retry.RetryingLedgerStore` — pass a
        :class:`~repro.service.retry.RetryPolicy` to tune, ``None`` for
        defaults, or ``False`` to use the store raw.
    recover_on_start:
        Run :meth:`recover` at construction so a restarted replica
        reconciles stranded state (expired reservations of a killed
        predecessor) before serving its first request.
    """

    def __init__(
        self,
        store: "LedgerStore | str | None" = None,
        *,
        workloads: "Mapping[str, Workload] | None" = None,
        reservation_ttl: "float | None" = 3600.0,
        retry_policy: "RetryPolicy | None | bool" = None,
        recover_on_start: bool = True,
    ) -> None:
        if isinstance(store, LedgerStore):
            self.store = store
        else:
            self.store = ledger_store_from_path(store)
        if retry_policy is not False:
            policy = retry_policy if isinstance(retry_policy, RetryPolicy) else None
            self.store = with_retries(self.store, policy)
        self.workloads = dict(
            workloads if workloads is not None else default_workloads()
        )
        self.reservation_ttl = reservation_ttl
        # One warm engine per workload: owns the shared calibration cache;
        # requests get with_accountant() clones against tenant ledgers.
        self._engines = {
            name: PrivacyEngine(w.mechanism) for name, w in self.workloads.items()
        }
        self._streams: dict[str, _StreamState] = {}
        self._streams_lock = threading.Lock()
        if recover_on_start:
            self.recover()

    def close(self) -> None:
        with self._streams_lock:
            states = list(self._streams.values())
            self._streams.clear()
        for state in states:
            state.session.close()
            state.ledger.release_unused(state.accountant.reservation_id)
        self.store.close()

    # -- plumbing ---------------------------------------------------------
    def ledger(self, tenant: str) -> TenantLedger:
        return TenantLedger(
            self.store, tenant, reservation_ttl=self.reservation_ttl
        )

    def _workload(self, name: "str | None") -> tuple[Workload, PrivacyEngine]:
        if name is None:
            raise ValidationError("missing required field 'workload'")
        try:
            return self.workloads[name], self._engines[name]
        except KeyError:
            raise ValidationError(
                f"unknown workload {name!r}; hosted: {sorted(self.workloads)}"
            ) from None

    @staticmethod
    def _encode_release(release: PrivateRelease) -> "float | list":
        value = release.value
        if isinstance(value, np.ndarray):
            return [float(v) for v in value.tolist()]
        return float(value)

    # -- handlers ---------------------------------------------------------
    def health(self) -> dict:
        store = self.store
        if isinstance(store, RetryingLedgerStore):
            store = store.inner
        return {
            "status": "ok",
            "store": type(store).__name__,
            "workloads": sorted(self.workloads),
            "tenants": self.store.tenants(),
            "open_sessions": len(self._streams),
        }

    def list_workloads(self) -> dict:
        return {
            "workloads": [
                {
                    "name": w.name,
                    "mechanism": w.mechanism.name,
                    "epsilon": w.mechanism.epsilon,
                    "output_dim": w.query.output_dim,
                    "description": w.description,
                }
                for w in self.workloads.values()
            ]
        }

    def list_tenants(self) -> dict:
        return {"tenants": self.store.tenants()}

    def create_tenant(self, tenant: str, body: Mapping) -> dict:
        body = require_object(body)
        return self.ledger(tenant).create(
            budget=get_float(body, "budget", positive=True),
            accountant=get_str(
                body,
                "accountant",
                default="linear",
                choices=("linear", "renyi", "sliding"),
            ),
            delta=get_float(body, "delta", default=1e-6, positive=True),
            window_span=get_int(body, "window_span", default=1, minimum=1),
            audit_trail=get_bool(body, "audit_trail", default=True),
        )

    def get_tenant(self, tenant: str) -> dict:
        return self.ledger(tenant).snapshot()

    def advance_window(self, tenant: str, body: Mapping) -> dict:
        """Advance a sliding-window tenant's logical clock (the windowed
        reclamation sweep): expired windows' epsilon returns to the budget
        exactly, and stale reservations are reclaimed in the same
        transaction.  Only valid for tenants created with
        ``accountant="sliding"``."""
        body = require_object(body)
        window = get_int(body, "window", minimum=0)
        steps = get_int(body, "steps", default=1, minimum=1)
        return self.ledger(tenant).advance_window(steps=steps, window=window)

    def calibrate(self, tenant: str, body: Mapping) -> dict:
        """Warm one workload's calibration.  Budget-free (calibration never
        reads record values), but still tenant-scoped: unknown tenants are
        refused before any work happens."""
        body = require_object(body)
        ledger = self.ledger(tenant)
        ledger.snapshot()  # 404 for unknown tenants
        workload, engine = self._workload(get_str(body, "workload"))
        calibration = engine.calibrate(workload.query, workload.data)
        return {
            "tenant": tenant,
            "workload": workload.name,
            "mechanism": workload.mechanism.name,
            "epsilon": workload.mechanism.epsilon,
            "noise_scale": calibration.scale,
            "cache": {
                "hits": engine.cache.hits,
                "misses": engine.cache.misses,
                "entries": len(engine.cache),
            },
        }

    def release(self, tenant: str, body: Mapping) -> dict:
        """``n`` budgeted releases, atomically admitted and exactly-once
        debited.

        The crash-safe lifecycle: **reserve** the sub-budget (one store
        transaction), **draw** every noisy value locally against the
        reservation envelope (nothing durable, nothing visible to the
        client yet), then **commit** values and debit in one final store
        transaction, and return the unused remainder.  A crash anywhere
        before the commit debits nothing and releases nothing; a crash
        after the commit lost only the response — which is what the
        optional ``idempotency_key`` recovers: the key and the response
        payload are persisted *with* the debit, so a retried request
        replays the original values instead of spending again (the reply
        carries ``"replayed": true``).
        """
        body = require_object(body)
        workload, engine = self._workload(get_str(body, "workload"))
        n = get_int(body, "n", default=1, minimum=1, maximum=MAX_RELEASES_PER_CALL)
        seed = get_int(body, "seed")
        idempotency_key = get_str(body, "idempotency_key")
        ledger = self.ledger(tenant)
        if idempotency_key is not None:
            # Fast path: an obvious replay skips reserve/draw entirely.
            # Not authoritative (consume_idempotent re-checks in its own
            # transaction); just saves work on the common retry.
            stored = ledger.idempotent_response(idempotency_key)
            if stored is not None:
                return {**stored, "ledger": ledger.snapshot(), "replayed": True}
        reservation = ledger.reserve(n, workload.mechanism.epsilon)
        replayed = False
        try:
            # Draw against a local accountant bounded by the reservation
            # envelope — no durable writes between reserve and commit.
            local = CompositionAccountant(
                budget=reservation.epsilon_total, audit_trail=False
            )
            clone = engine.with_accountant(local, tenant=tenant, rng=seed)
            releases = clone.release_repeated(workload.data, workload.query, n)
            response = {
                "tenant": tenant,
                "workload": workload.name,
                "mechanism": workload.mechanism.name,
                "epsilon_each": workload.mechanism.epsilon,
                "n": len(releases),
                "values": [self._encode_release(r) for r in releases],
                "noise_scale": releases[0].noise_scale,
            }
            if idempotency_key is not None:
                response["idempotency_key"] = idempotency_key
                response, replayed = ledger.consume_idempotent(
                    reservation.reservation_id,
                    len(releases),
                    epsilon=workload.mechanism.epsilon,
                    idempotency_key=idempotency_key,
                    response=response,
                    mechanism=workload.mechanism.name,
                    quilt_signature=clone._quilt_signature(),
                    rdp_curve=clone._rdp_curve(),
                )
            else:
                ledger.consume(
                    reservation.reservation_id,
                    len(releases),
                    epsilon=workload.mechanism.epsilon,
                    mechanism=workload.mechanism.name,
                    quilt_signature=clone._quilt_signature(),
                    rdp_curve=clone._rdp_curve(),
                )
        finally:
            ledger.release_unused(reservation.reservation_id)
        return {**response, "ledger": ledger.snapshot(), "replayed": replayed}

    def open_stream(self, tenant: str, body: Mapping) -> dict:
        """Open a streaming session holding a reservation of ``n_reserved``
        releases; draw with ``POST /sessions/{id}/next``, close with
        ``DELETE /sessions/{id}`` to return the remainder."""
        body = require_object(body)
        workload, engine = self._workload(get_str(body, "workload"))
        n_reserved = get_int(
            body,
            "n_reserved",
            required=True,
            minimum=1,
            maximum=MAX_RELEASES_PER_CALL,
        )
        seed = get_int(body, "seed")
        block_size = get_int(body, "block_size", default=64, minimum=1)
        ledger = self.ledger(tenant)
        reservation = ledger.reserve(n_reserved, workload.mechanism.epsilon)
        try:
            accountant = ReservationAccountant(ledger, reservation)
            clone = engine.with_accountant(accountant, tenant=tenant, rng=seed)
            session = clone.stream(
                workload.data,
                workload.query,
                block_size=block_size,
                max_releases=n_reserved,
            )
        except BaseException:
            ledger.release_unused(reservation.reservation_id)
            raise
        session_id = uuid.uuid4().hex
        with self._streams_lock:
            self._streams[session_id] = _StreamState(
                session, ledger, accountant, workload.name
            )
        return {
            "session_id": session_id,
            "tenant": tenant,
            "workload": workload.name,
            "epsilon_each": workload.mechanism.epsilon,
            "n_reserved": reservation.n_reserved,
            "reservation_id": reservation.reservation_id,
        }

    def _stream_state(self, session_id: str) -> _StreamState:
        with self._streams_lock:
            state = self._streams.get(session_id)
        if state is None:
            raise UnknownSessionError(
                f"no open streaming session {session_id!r} (closed, or "
                f"opened by another service process)"
            )
        return state

    def stream_next(self, session_id: str, body: Mapping) -> dict:
        body = require_object(body)
        n = get_int(body, "n", default=1, minimum=1, maximum=MAX_RELEASES_PER_CALL)
        state = self._stream_state(session_id)
        with state.lock:
            chunk = state.session.take(n)
            return {
                "session_id": session_id,
                "values": [self._encode_release(r) for r in chunk],
                "n": len(chunk),
                "n_yielded": state.session.n_yielded,
                "n_remaining": state.accountant.n_remaining,
                "exhausted": state.session.exhausted,
            }

    def close_stream(self, session_id: str) -> dict:
        with self._streams_lock:
            state = self._streams.pop(session_id, None)
        if state is None:
            raise UnknownSessionError(
                f"no open streaming session {session_id!r} (closed, or "
                f"opened by another service process)"
            )
        with state.lock:
            stats = state.session.close()
            returned = state.ledger.release_unused(
                state.accountant.reservation_id
            )
        return {
            "session_id": session_id,
            "n_yielded": stats["n_yielded"],
            "n_returned": returned,
            "ledger": state.ledger.snapshot(),
        }

    # -- recovery and observability ---------------------------------------
    def recover(self) -> dict:
        """The recovery sweep: reconcile every tenant's ledger.

        Runs :meth:`~repro.service.ledger.TenantLedger.sweep` per tenant —
        reclaiming reservations stranded by killed workers once past their
        TTL, pruning stale idempotency records — and reports totals.
        Invoked at service construction and via ``POST /admin/recover``;
        safe to run any time (sweeping is idempotent and only ever
        *returns* unspent budget).
        """
        tenants: dict[str, dict] = {}
        for tenant in self.store.tenants():
            tenants[tenant] = self.ledger(tenant).sweep()
        return {
            "tenants": tenants,
            "expired_reservations": sum(
                t["expired_reservations"] for t in tenants.values()
            ),
            "reclaimed_releases": sum(
                t["reclaimed_releases"] for t in tenants.values()
            ),
            "pruned_idempotency_records": sum(
                t["pruned_idempotency_records"] for t in tenants.values()
            ),
        }

    def faults_status(self) -> dict:
        """What the process-global fault injector (if any) has been doing —
        chaos-run observability, not a production surface.

        Beyond the per-rule counters, reports chaos *coverage*: which
        points from the canonical registry (:mod:`repro.faults.points`)
        have never fired this process, and which armed rule patterns
        match no declared point at all (a typo'd plan arms forever and
        proves nothing).
        """
        from repro.faults import never_fired

        injector = current_injector()
        if injector is None:
            return {"installed": False}
        return {
            "installed": True,
            **injector.stats(),
            "coverage": {
                "never_fired": list(never_fired(injector.fired_per_point())),
                "unmatched_rules": list(injector.unmatched_rules()),
            },
        }


# --------------------------------------------------------------------------
# The ASGI layer: routing, JSON codec, exception -> status mapping.
# --------------------------------------------------------------------------

_Route = tuple[str, tuple[str, ...], Callable[..., Any], bool]


class AsgiApp:
    """A dependency-free ASGI 3 application over a :class:`PrivacyService`.

    Handlers are synchronous; each request runs on a worker thread from
    the app's own pool, so slow store transactions never stall the event
    loop.  The pool is sized to ``max_concurrency`` — one worker per
    admission slot — so an *admitted* request always has a worker and
    never sits queued behind the pool (queued work is where a deadline
    could cancel it before it starts and strand its slot).  Route
    patterns use ``{name}`` placeholders matched one path segment each.

    Two resource guards make overload explicit instead of cascading:

    * **Deadlines** — each handler gets ``request_timeout`` seconds of
      wall clock (``asyncio.wait_for``); past it the client receives a
      503 ``RequestTimeout`` with ``Retry-After`` (the worker thread runs
      to completion in the background — its store transaction stays
      atomic — but its slot stays held, which is exactly the
      backpressure a stuck store should exert).
    * **Backpressure** — at most ``max_concurrency`` handlers in flight;
      beyond that, requests are refused *immediately* with a 503
      ``ServiceSaturated`` + ``Retry-After`` instead of queueing into a
      latency spiral.  The semaphore is a :class:`threading` one on
      purpose: request loops may differ (the test client runs one loop
      per request), the thread pool is the actual shared resource.
    """

    def __init__(
        self,
        service: PrivacyService,
        *,
        request_timeout: "float | None" = 30.0,
        max_concurrency: "int | None" = 64,
    ) -> None:
        if request_timeout is not None and request_timeout <= 0:
            raise ValidationError(
                f"request_timeout must be positive or None, got {request_timeout}"
            )
        if max_concurrency is not None and max_concurrency < 1:
            raise ValidationError(
                f"max_concurrency must be >= 1 or None, got {max_concurrency}"
            )
        self.service = service
        self.request_timeout = request_timeout
        self.max_concurrency = max_concurrency
        self._slots = (
            threading.BoundedSemaphore(max_concurrency)
            if max_concurrency is not None
            else None
        )
        # One worker per slot: admitted work can never be queued behind
        # the pool, where a deadline could cancel it before it starts.
        self._executor = (
            concurrent.futures.ThreadPoolExecutor(
                max_workers=max_concurrency,
                thread_name_prefix="repro-service",
            )
            if max_concurrency is not None
            else None
        )
        s = service
        # (method, pattern segments, handler, takes_body)
        self._routes: list[_Route] = [
            ("GET", ("health",), s.health, False),
            ("GET", ("workloads",), s.list_workloads, False),
            ("GET", ("tenants",), s.list_tenants, False),
            ("POST", ("tenants", "{tenant}"), s.create_tenant, True),
            ("GET", ("tenants", "{tenant}"), s.get_tenant, False),
            ("POST", ("tenants", "{tenant}", "advance-window"), s.advance_window, True),
            ("POST", ("tenants", "{tenant}", "calibrate"), s.calibrate, True),
            ("POST", ("tenants", "{tenant}", "release"), s.release, True),
            ("POST", ("tenants", "{tenant}", "stream"), s.open_stream, True),
            ("POST", ("sessions", "{session_id}", "next"), s.stream_next, True),
            ("DELETE", ("sessions", "{session_id}"), s.close_stream, False),
            ("POST", ("admin", "recover"), s.recover, False),
            ("GET", ("admin", "faults"), s.faults_status, False),
        ]

    # -- routing ----------------------------------------------------------
    def _match(
        self, method: str, path: str
    ) -> "tuple[Callable[..., Any], list[str], bool] | None":
        segments = tuple(p for p in path.split("/") if p)
        saw_path = False
        for route_method, pattern, handler, takes_body in self._routes:
            if len(pattern) != len(segments):
                continue
            params: list[str] = []
            for expected, actual in zip(pattern, segments):
                if expected.startswith("{"):
                    params.append(actual)
                elif expected != actual:
                    break
            else:
                saw_path = True
                if route_method == method:
                    return handler, params, takes_body
        if saw_path:
            raise _MethodNotAllowed(method, path)
        return None

    # -- ASGI entry point --------------------------------------------------
    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":  # pragma: no cover - ws etc.
            raise NotImplementedError(f"unsupported scope {scope['type']!r}")
        status, payload, extra_headers = await self._dispatch(scope, receive)
        body = json.dumps(payload).encode()
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (b"content-type", b"application/json"),
                    (b"content-length", str(len(body)).encode()),
                    *extra_headers,
                ],
            }
        )
        await send({"type": "http.response.body", "body": body})

    async def _dispatch(
        self, scope, receive
    ) -> "tuple[int, Any, list[tuple[bytes, bytes]]]":
        method = scope["method"].upper()
        path = scope["path"]
        try:
            match = self._match(method, path)
            if match is None:
                return (
                    404,
                    {
                        "error": "NotFound",
                        "message": f"no route for {method} {path}",
                    },
                    [],
                )
            handler, params, takes_body = match
            if takes_body:
                raw = await _read_body(receive)
                if raw:
                    try:
                        body = json.loads(raw)
                    except json.JSONDecodeError as error:
                        raise ValidationError(
                            f"request body is not valid JSON: {error}"
                        ) from error
                else:
                    body = {}
                args = (*params, body)
            else:
                await _read_body(receive)  # drain
                args = tuple(params)
            if self._slots is not None and not self._slots.acquire(blocking=False):
                return (
                    503,
                    {
                        "error": "ServiceSaturated",
                        "message": (
                            f"{self.max_concurrency} requests already in "
                            f"flight; retry shortly"
                        ),
                        "retry_after": 1,
                    },
                    [(b"retry-after", b"1")],
                )

            def guarded(*call_args: Any) -> Any:
                # Runs on the worker thread: the slot is held for as long
                # as the handler actually occupies the pool — including
                # after a deadline abandons the awaiting coroutine.
                try:
                    fire("app.request", method=method, path=path)
                    return handler(*call_args)
                finally:
                    if self._slots is not None:
                        self._slots.release()

            if self._executor is not None:
                try:
                    work = self._executor.submit(guarded, *args)
                except RuntimeError:
                    # Pool shutting down: the work never ran, so guarded's
                    # finally cannot give the slot back — do it here.
                    if self._slots is not None:
                        self._slots.release()
                    raise
                # Exactly one of two paths releases the slot: guarded's
                # finally (the work ran), or this callback (the work was
                # cancelled before a worker picked it up, so guarded never
                # began — a future that ran is never in the cancelled
                # state, and a cancelled one never runs).
                work.add_done_callback(self._release_if_never_started)
                coroutine = asyncio.wrap_future(work)
            else:
                coroutine = asyncio.to_thread(guarded, *args)
            if self.request_timeout is not None:
                result = await asyncio.wait_for(coroutine, self.request_timeout)
            else:
                result = await coroutine
            return 200, result, []
        except _MethodNotAllowed as error:
            return 405, {"error": "MethodNotAllowed", "message": str(error)}, []
        except ReproError as error:
            headers: list[tuple[bytes, bytes]] = []
            if error.retry_after is not None:
                seconds = max(1, math.ceil(error.retry_after))
                headers.append((b"retry-after", str(seconds).encode()))
            return error.http_status, error.payload(), headers
        except asyncio.TimeoutError:
            retry_after = max(1, math.ceil(self.request_timeout or 1))
            return (
                503,
                {
                    "error": "RequestTimeout",
                    "message": (
                        f"request exceeded the {self.request_timeout}s "
                        f"deadline; it was abandoned (any ledger transaction "
                        f"still commits or rolls back atomically)"
                    ),
                    "retry_after": retry_after,
                },
                [(b"retry-after", str(retry_after).encode())],
            )
        except Exception as error:
            if is_transient_store_error(error):
                # Store contention or an I/O blip that outlasted any retry:
                # the request may well succeed if the client repeats it.
                return (
                    503,
                    {
                        "error": type(error).__name__,
                        "message": str(error),
                        "retry_after": 1,
                    },
                    [(b"retry-after", b"1")],
                )
            # A real bug, not a refusal: fail the request, not the server.
            # (SimulatedCrashError is a BaseException and deliberately NOT
            # caught — a simulated crash must escape like a real one.)
            return (
                500,
                {
                    "error": "InternalError",
                    "message": f"{type(error).__name__}: {error}",
                },
                [],
            )

    def _release_if_never_started(self, work: "concurrent.futures.Future") -> None:
        if work.cancelled() and self._slots is not None:
            self._slots.release()

    def close(self) -> None:
        """Shut down the app-owned worker pool (idempotent).

        Queued-but-unstarted work is cancelled (its slots come back via
        the done-callback); running handlers finish on their threads.
        Does *not* close the underlying service — that stays the owner's
        call, as in the lifespan shutdown path.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                self.close()
                self.service.close()
                await send({"type": "lifespan.shutdown.complete"})
                return


class _MethodNotAllowed(Exception):
    def __init__(self, method: str, path: str) -> None:
        super().__init__(f"method {method} not allowed on {path}")


async def _read_body(receive) -> bytes:
    chunks: list[bytes] = []
    while True:
        message = await receive()
        if message["type"] != "http.request":  # pragma: no cover - disconnect
            break
        chunks.append(message.get("body", b""))
        if not message.get("more_body", False):
            break
    return b"".join(chunks)


def create_app(
    store: "LedgerStore | str | None" = None,
    *,
    workloads: "Mapping[str, Workload] | None" = None,
    reservation_ttl: "float | None" = 3600.0,
    retry_policy: "RetryPolicy | None | bool" = None,
    recover_on_start: bool = True,
    request_timeout: "float | None" = 30.0,
    max_concurrency: "int | None" = 64,
) -> AsgiApp:
    """Build the service and its ASGI app in one call (the usual entry
    point for servers and tests)."""
    return AsgiApp(
        PrivacyService(
            store,
            workloads=workloads,
            reservation_ttl=reservation_ttl,
            retry_policy=retry_policy,
            recover_on_start=recover_on_start,
        ),
        request_timeout=request_timeout,
        max_concurrency=max_concurrency,
    )
