"""In-process smoke of the service HTTP surface.

Drives the full ASGI app through :class:`~repro.service.testing.
TestClient` — no sockets — covering the calibrate/release/stream endpoint
families, the refusal taxonomy (400/404/405/409/410/429 mapping), restart
rehydration through a durable store, and the stdlib HTTP server bridge.
This file is the CI service-smoke lane."""

from __future__ import annotations

import json
import threading

import pytest

from repro.service import create_app
from repro.service.testing import TestClient


@pytest.fixture()
def client():
    app = create_app()  # in-memory store, default demo workloads
    yield TestClient(app)
    app.service.close()


def _tenant(client, name="acme", budget=4.0, accountant="renyi"):
    response = client.post(
        f"/tenants/{name}",
        {"budget": budget, "accountant": accountant, "delta": 1e-5},
    )
    assert response.status == 200
    return response.json()


# -- inventory -------------------------------------------------------------
def test_health_and_inventory(client):
    health = client.get("/health").json()
    assert health["status"] == "ok"
    assert health["workloads"] == ["hub-gaussian", "hub-laplace"]
    workloads = client.get("/workloads").json()["workloads"]
    assert {w["name"] for w in workloads} == {"hub-gaussian", "hub-laplace"}
    assert client.get("/tenants").json() == {"tenants": []}


# -- tenants ---------------------------------------------------------------
def test_tenant_lifecycle(client):
    created = _tenant(client)
    assert created["budget"] == 4.0
    assert created["accountant"] == "RenyiAccountant"
    snapshot = client.get("/tenants/acme").json()
    assert snapshot["spent_epsilon"] == 0.0
    # Idempotent re-create never rewrites the budget.
    again = client.post("/tenants/acme", {"budget": 99.0}).json()
    assert again["budget"] == 4.0


def test_unknown_tenant_is_404(client):
    for path, method, body in [
        ("/tenants/ghost", "GET", None),
        ("/tenants/ghost/calibrate", "POST", {"workload": "hub-laplace"}),
        ("/tenants/ghost/release", "POST", {"workload": "hub-laplace"}),
        ("/tenants/ghost/stream", "POST", {"workload": "hub-laplace", "n_reserved": 1}),
    ]:
        response = client.request(method, path, json_body=body)
        assert response.status == 404, path
        assert response.json()["error"] == "UnknownTenantError"


# -- calibrate -------------------------------------------------------------
def test_calibrate_is_budget_free(client):
    _tenant(client)
    first = client.post("/tenants/acme/calibrate", {"workload": "hub-laplace"})
    assert first.status == 200
    assert first.json()["noise_scale"] > 0
    again = client.post("/tenants/acme/calibrate", {"workload": "hub-laplace"})
    assert again.json()["cache"]["hits"] >= 1  # warm second time
    assert client.get("/tenants/acme").json()["spent_epsilon"] == 0.0


# -- release ---------------------------------------------------------------
def test_release_debits_and_is_seedable(client):
    _tenant(client)
    response = client.post(
        "/tenants/acme/release", {"workload": "hub-laplace", "n": 3, "seed": 7}
    )
    assert response.status == 200
    body = response.json()
    assert body["n"] == 3 and len(body["values"]) == 3
    assert body["ledger"]["spent_epsilon"] > 0
    assert body["ledger"]["reserved_releases"] == 0  # reservation returned
    # Seeded releases are reproducible for a fresh tenant.
    _tenant(client, name="beta")
    replay = client.post(
        "/tenants/beta/release", {"workload": "hub-laplace", "n": 3, "seed": 7}
    ).json()
    assert replay["values"] == body["values"]


def test_release_refuses_over_budget_atomically(client):
    _tenant(client, budget=1.0, accountant="linear")
    refused = client.post(
        "/tenants/acme/release", {"workload": "hub-laplace", "n": 100}
    )
    assert refused.status == 429
    payload = refused.json()
    assert payload["error"] == "BudgetExhaustedError"
    assert payload["ledger"]["budget"] == 1.0
    assert payload["ledger"]["n_completed"] == 0
    # Nothing was recorded or left reserved.
    snapshot = client.get("/tenants/acme").json()
    assert snapshot["spent_epsilon"] == 0.0
    assert snapshot["reserved_releases"] == 0
    # The budget still serves what fits.
    assert (
        client.post("/tenants/acme/release", {"workload": "hub-laplace", "n": 2}).status
        == 200
    )


# -- stream ----------------------------------------------------------------
def test_stream_session_lifecycle(client):
    _tenant(client)
    opened = client.post(
        "/tenants/acme/stream",
        {"workload": "hub-gaussian", "n_reserved": 5, "seed": 3},
    ).json()
    sid = opened["session_id"]
    assert opened["n_reserved"] == 5

    chunk = client.post(f"/sessions/{sid}/next", {"n": 3}).json()
    assert chunk["n"] == 3 and chunk["n_remaining"] == 2
    # Draw past the reservation: take() returns the remainder, then nothing.
    chunk = client.post(f"/sessions/{sid}/next", {"n": 10}).json()
    assert chunk["n"] == 2 and chunk["exhausted"] is True

    closed = client.delete(f"/sessions/{sid}").json()
    assert closed["n_yielded"] == 5 and closed["n_returned"] == 0
    assert closed["ledger"]["reserved_releases"] == 0

    assert client.delete(f"/sessions/{sid}").status == 404
    assert client.post(f"/sessions/{sid}/next", {"n": 1}).status == 404


def test_stream_close_returns_unused_budget(client):
    _tenant(client, budget=2.0, accountant="linear")
    sid = client.post(
        "/tenants/acme/stream", {"workload": "hub-laplace", "n_reserved": 4}
    ).json()["session_id"]
    # The whole budget is reserved: another release is refused...
    assert (
        client.post("/tenants/acme/release", {"workload": "hub-laplace"}).status == 429
    )
    client.post(f"/sessions/{sid}/next", {"n": 1})
    closed = client.delete(f"/sessions/{sid}").json()
    assert closed["n_returned"] == 3
    # ...and comes back when the session closes early.
    assert (
        client.post("/tenants/acme/release", {"workload": "hub-laplace"}).status == 200
    )


def test_stream_matches_release_prefix(client):
    """A streamed session and a batched release under the same seed yield
    identical values — the service preserves the engine's bit-identity."""
    _tenant(client, name="s1")
    _tenant(client, name="s2")
    sid = client.post(
        "/tenants/s1/stream",
        {"workload": "hub-laplace", "n_reserved": 4, "seed": 11},
    ).json()["session_id"]
    streamed = client.post(f"/sessions/{sid}/next", {"n": 4}).json()["values"]
    client.delete(f"/sessions/{sid}")
    batched = client.post(
        "/tenants/s2/release", {"workload": "hub-laplace", "n": 4, "seed": 11}
    ).json()["values"]
    assert streamed == batched


# -- validation / routing ---------------------------------------------------
def test_validation_errors_are_400(client):
    _tenant(client)
    cases = [
        ("/tenants/acme/release", {"workload": "nope"}),
        ("/tenants/acme/release", {"workload": "hub-laplace", "n": 0}),
        ("/tenants/acme/release", {"workload": "hub-laplace", "n": "three"}),
        ("/tenants/acme/release", {}),
        ("/tenants/acme/stream", {"workload": "hub-laplace"}),  # no n_reserved
        ("/tenants/acme", {"accountant": "exotic"}),
        ("/tenants/acme", {"budget": -1}),
    ]
    for path, body in cases:
        response = client.post(path, body)
        assert response.status == 400, (path, body, response.json())


def test_malformed_json_is_400(client):
    _tenant(client)
    empty = client.request("POST", "/tenants/acme/release")
    assert empty.status == 400  # empty body -> missing workload
    bad = client.post("/tenants/acme/release", json_body="not-an-object")
    assert bad.status == 400
    assert "object" in bad.json()["message"]


def test_unknown_route_and_method(client):
    assert client.get("/nope").status == 404
    assert client.request("PUT", "/tenants/acme").status == 405


# -- durability through the app --------------------------------------------
def test_restart_rehydrates_through_the_app(tmp_path):
    path = str(tmp_path / "ledgers.sqlite")
    app = create_app(path)
    client = TestClient(app)
    _tenant(client)
    spent = client.post(
        "/tenants/acme/release", {"workload": "hub-gaussian", "n": 3, "seed": 0}
    ).json()["ledger"]["spent_epsilon"]
    app.service.close()

    reborn = TestClient(create_app(path))
    snapshot = reborn.get("/tenants/acme").json()
    assert snapshot["spent_epsilon"] == spent  # bit-identical, not approx
    assert snapshot["n_releases"] == 3
    reborn.app.service.close()


def test_concurrent_clients_share_one_budget(client):
    """Many threads hammering /release against one tenant stop at exactly
    the linear cap — the HTTP layer preserves the ledger's exactness."""
    _tenant(client, budget=3.0, accountant="linear")
    served = []
    lock = threading.Lock()

    def worker() -> None:
        while True:
            response = client.post(
                "/tenants/acme/release", {"workload": "hub-laplace", "n": 1}
            )
            if response.status == 429:
                return
            assert response.status == 200
            with lock:
                served.append(1)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(served) == int(3.0 / 0.5)


# -- the stdlib HTTP server bridge -----------------------------------------
def test_http_server_round_trip(tmp_path):
    """One real socket round trip through repro.service.server."""
    import asyncio
    import urllib.request

    from repro.service.server import serve_async

    app = create_app()
    ports: list[int] = []
    stop = threading.Event()

    def run() -> None:
        async def main() -> None:
            server = await serve_async(app, "127.0.0.1", 0)
            ports.append(server.sockets[0].getsockname()[1])
            async with server:
                while not stop.is_set():
                    await asyncio.sleep(0.02)

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        import time

        deadline = time.monotonic() + 10
        while not ports and time.monotonic() < deadline:
            time.sleep(0.01)
        assert ports, "server never came up"
        port = ports[0]

        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/health", timeout=10
        ) as response:
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"

        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/tenants/acme",
            data=json.dumps({"budget": 2.0}).encode(),
            method="POST",
            headers={"content-type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert json.loads(response.read())["budget"] == 2.0
    finally:
        stop.set()
        thread.join(timeout=10)
        app.service.close()


# -- Retry-After signalling -------------------------------------------------
def test_429_with_outstanding_reservations_carries_retry_after(client):
    _tenant(client, budget=2.0, accountant="linear")
    sid = client.post(
        "/tenants/acme/stream", {"workload": "hub-laplace", "n_reserved": 4}
    ).json()["session_id"]
    refused = client.post("/tenants/acme/release", {"workload": "hub-laplace"})
    assert refused.status == 429
    # The held budget returns by the reservation TTL at the latest, so the
    # refusal names a horizon: Retry-After header + structured field.
    assert refused.headers["retry-after"] == "3600"
    assert refused.json()["retry_after"] == 3600.0
    client.delete(f"/sessions/{sid}")


def test_429_with_nothing_outstanding_is_final(client):
    _tenant(client, budget=1.0, accountant="linear")
    refused = client.post(
        "/tenants/acme/release", {"workload": "hub-laplace", "n": 100}
    )
    assert refused.status == 429
    # No reservation will ever expire to free this budget: no Retry-After.
    assert "retry-after" not in refused.headers
    assert "retry_after" not in refused.json()


@pytest.mark.parametrize(
    "kind, error_name",
    [("sqlite_busy", "OperationalError"), ("io", "OSError")],
    ids=["sqlite_busy", "io"],
)
def test_transient_store_error_is_503_with_retry_after(kind, error_name):
    """Store contention or an I/O blip the retry layer did not absorb is
    transient: 503 with Retry-After, never a 500 InternalError."""
    from repro.faults import FaultRule, injected

    app = create_app(retry_policy=False)  # raw store: no transparent retry
    client = TestClient(app)
    _tenant(client)
    with injected([FaultRule("tenant.reserve", action="error", error=kind)]):
        response = client.post(
            "/tenants/acme/release", {"workload": "hub-laplace"}
        )
    assert response.status == 503
    assert response.json()["error"] == error_name
    assert response.json()["retry_after"] == 1
    assert response.headers["retry-after"] == "1"
    app.service.close()


# -- idempotency keys -------------------------------------------------------
def test_idempotent_release_debits_once_and_replays(client):
    _tenant(client, budget=4.0, accountant="linear")
    body = {"workload": "hub-laplace", "n": 3, "idempotency_key": "req-42"}
    first = client.post("/tenants/acme/release", body)
    assert first.status == 200
    original = first.json()
    assert original["replayed"] is False
    assert original["idempotency_key"] == "req-42"
    spent = original["ledger"]["spent_epsilon"]

    # The client lost the response and retries: same key, one debit, the
    # original values byte-for-byte.
    retry = client.post("/tenants/acme/release", body).json()
    assert retry["replayed"] is True
    assert retry["values"] == original["values"]
    assert retry["ledger"]["spent_epsilon"] == spent
    assert retry["ledger"]["idempotency_records"] == 1

    # A different key is a different request and debits again.
    other = client.post(
        "/tenants/acme/release", {**body, "idempotency_key": "req-43"}
    ).json()
    assert other["replayed"] is False
    assert other["ledger"]["spent_epsilon"] == pytest.approx(2 * spent)


def test_idempotent_replay_survives_restart(tmp_path):
    path = str(tmp_path / "ledgers.sqlite")
    app = create_app(path)
    client = TestClient(app)
    _tenant(client)
    body = {"workload": "hub-laplace", "n": 2, "idempotency_key": "once"}
    original = client.post("/tenants/acme/release", body).json()
    app.service.close()

    reborn = TestClient(create_app(path))
    replay = reborn.post("/tenants/acme/release", body).json()
    assert replay["replayed"] is True
    assert replay["values"] == original["values"]
    assert (
        replay["ledger"]["spent_epsilon"] == original["ledger"]["spent_epsilon"]
    )
    reborn.app.service.close()


# -- deadlines and backpressure ---------------------------------------------
def test_saturated_service_returns_503_immediately(client):
    app = client.app
    assert app._slots is not None
    assert app._slots.acquire(blocking=False)  # hold every slot ourselves
    held = 1
    while app._slots.acquire(blocking=False):
        held += 1
    try:
        response = client.get("/health")
        assert response.status == 503
        assert response.json()["error"] == "ServiceSaturated"
        assert response.headers["retry-after"] == "1"
    finally:
        for _ in range(held):
            app._slots.release()
    assert client.get("/health").status == 200  # slots freed, service back


def test_request_deadline_returns_503_timeout():
    import time

    from repro.faults import FaultRule, injected

    app = create_app(request_timeout=0.05)
    client = TestClient(app)
    _tenant(client)
    with injected(
        [FaultRule("tenant.reserve", action="latency", delay=0.5)]
    ):
        response = client.post(
            "/tenants/acme/release", {"workload": "hub-laplace"}
        )
    assert response.status == 503
    assert response.json()["error"] == "RequestTimeout"
    assert response.headers["retry-after"] == "1"
    time.sleep(0.7)  # let the abandoned worker thread finish cleanly
    app.service.close()


def test_timeout_of_queued_request_does_not_leak_slots():
    # Regression: a request that was admitted (slot held) but whose work
    # item was cancelled by the deadline before any worker picked it up
    # used to leak its slot permanently — enough leaks saturated the
    # service into an unrecoverable 503 ServiceSaturated.
    app = create_app(request_timeout=0.05, max_concurrency=2)
    client = TestClient(app)
    gate = threading.Event()
    # Occupy every pool worker from outside the slot system, forcing
    # admitted requests to queue exactly as an undersized pool would.
    blockers = [app._executor.submit(gate.wait) for _ in range(2)]
    try:
        for _ in range(2):
            response = client.get("/health")
            assert response.status == 503
            assert response.json()["error"] == "RequestTimeout"
    finally:
        gate.set()
    for blocker in blockers:
        blocker.result(timeout=5)
    # Every slot must be back; a leak would 503 ServiceSaturated forever.
    assert client.get("/health").status == 200
    app.service.close()


# -- recovery sweep ----------------------------------------------------------
def test_admin_recover_reclaims_expired_reservations():
    import time

    app = create_app(reservation_ttl=0.05)
    client = TestClient(app)
    _tenant(client, budget=2.0, accountant="linear")
    client.post(
        "/tenants/acme/stream", {"workload": "hub-laplace", "n_reserved": 4}
    )
    assert client.get("/tenants/acme").json()["reserved_releases"] == 4
    time.sleep(0.1)  # past the TTL: the session is presumed dead
    report = client.post("/admin/recover").json()
    assert report["expired_reservations"] == 1
    assert report["reclaimed_releases"] == 4
    assert report["tenants"]["acme"]["outstanding_reservations"] == 0
    assert client.get("/tenants/acme").json()["reserved_releases"] == 0
    app.service.close()


def test_startup_recovery_sweep_runs(tmp_path):
    import time

    path = str(tmp_path / "ledgers.sqlite")
    app = create_app(path, reservation_ttl=0.05)
    client = TestClient(app)
    _tenant(client, budget=2.0, accountant="linear")
    client.post(
        "/tenants/acme/stream", {"workload": "hub-laplace", "n_reserved": 4}
    )
    app.service.store.close()  # simulate abrupt death: session never closed
    time.sleep(0.1)

    reborn = create_app(path, reservation_ttl=0.05)  # sweeps at construction
    snapshot = TestClient(reborn).get("/tenants/acme").json()
    assert snapshot["reserved_releases"] == 0  # stranded budget reclaimed
    reborn.service.close()


# -- fault observability and the 500 catch-all -------------------------------
def test_admin_faults_reports_injector_state(client):
    from repro.faults import FaultRule, injected

    assert client.get("/admin/faults").json() == {"installed": False}
    with injected([FaultRule("no.such.point", action="latency")]):  # repro-lint: disable=R5 -- deliberately unmatched: asserts idle rules are observable but inert
        status = client.get("/admin/faults").json()
    assert status["installed"] is True
    assert status["rules"][0]["point"] == "no.such.point"


def test_admin_faults_reports_chaos_coverage(client):
    from repro.faults import FAULT_POINTS, FaultRule, current, injected

    rules = [
        FaultRule("tenant.reserve", action="latency", delay=0.0),
        FaultRule("zz.typo.*", action="latency"),  # repro-lint: disable=R5 -- deliberately unmatched: exercises the coverage report
    ]
    with injected(rules):
        current().fire("tenant.reserve")
        status = client.get("/admin/faults").json()
    coverage = status["coverage"]
    assert coverage["unmatched_rules"] == ["zz.typo.*"]
    assert "tenant.reserve" not in coverage["never_fired"]
    assert set(coverage["never_fired"]) == set(FAULT_POINTS) - {
        "tenant.reserve"
    }


def test_unexpected_handler_error_is_500_not_a_crash(client):
    def boom():
        raise RuntimeError("wires crossed")

    client.app._routes.append(("GET", ("boom",), boom, False))
    response = client.get("/boom")
    assert response.status == 500
    payload = response.json()
    assert payload["error"] == "InternalError"
    assert "RuntimeError" in payload["message"]
    assert client.get("/health").status == 200  # the app survived
