"""Conformance of every :class:`~repro.service.stores.LedgerStore` backend.

One parametrized suite: whatever the backend (in-memory dict or SQLite),
a store must provide exclusive read-modify-write transactions,
abandon changes on exception, expose lock-free-safe peeks, and isolate
tenants.  The cross-process guarantees get their own hammering in
``tests/test_ledger_concurrency.py``; this file is the functional floor."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ValidationError
from repro.service.stores import (
    InMemoryLedgerStore,
    SQLiteLedgerStore,
    ledger_store_from_path,
)

BACKENDS = ("memory", "sqlite")


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    if request.param == "memory":
        built = InMemoryLedgerStore()
    else:
        built = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")
    yield built
    built.close()


def test_absent_tenant_reads_none(store):
    assert store.peek("ghost") is None
    assert store.tenants() == []
    with store.transact("ghost") as txn:
        assert txn.state is None
    # A transaction that never assigned state created nothing.
    assert store.peek("ghost") is None


def test_create_read_update(store):
    with store.transact("acme") as txn:
        txn.state = {"n": 1, "nested": {"values": [1.5, 2.5]}}
    assert store.peek("acme") == {"n": 1, "nested": {"values": [1.5, 2.5]}}
    with store.transact("acme") as txn:
        txn.state["n"] += 1
    assert store.peek("acme")["n"] == 2
    assert store.tenants() == ["acme"]


def test_exception_abandons_changes(store):
    with store.transact("acme") as txn:
        txn.state = {"n": 1}
    with pytest.raises(RuntimeError):
        with store.transact("acme") as txn:
            txn.state["n"] = 99
            raise RuntimeError("refused")
    assert store.peek("acme") == {"n": 1}


def test_tenants_are_isolated(store):
    with store.transact("a") as txn:
        txn.state = {"who": "a"}
    with store.transact("b") as txn:
        txn.state = {"who": "b"}
    assert store.tenants() == ["a", "b"]
    assert store.peek("a") == {"who": "a"}
    assert store.peek("b") == {"who": "b"}


def test_peek_returns_a_copy(store):
    with store.transact("acme") as txn:
        txn.state = {"n": 1}
    snapshot = store.peek("acme")
    snapshot["n"] = 999
    assert store.peek("acme")["n"] == 1


def test_threaded_increments_never_lost(store):
    """The transactional core: 8 threads x 25 increments on one counter
    must total exactly 200 — any lost update means the read-modify-write
    cycle was not exclusive."""
    with store.transact("counter") as txn:
        txn.state = {"n": 0}
    errors: list = []

    def bump() -> None:
        try:
            for _ in range(25):
                with store.transact("counter") as txn:
                    txn.state["n"] += 1
        except BaseException as error:  # pragma: no cover - regression only
            errors.append(error)

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert store.peek("counter")["n"] == 200


def test_sqlite_store_creates_missing_directory(tmp_path):
    store = SQLiteLedgerStore(tmp_path / "sub" / "ledgers.sqlite")
    try:
        assert store.peek("acme") is None
        with store.transact("acme") as txn:
            txn.state = {"n": 1}
        assert store.peek("acme") == {"n": 1}
    finally:
        store.close()


def test_sqlite_store_persists_across_instances(tmp_path):
    path = tmp_path / "ledgers.sqlite"
    first = SQLiteLedgerStore(path)
    with first.transact("acme") as txn:
        txn.state = {"n": 7}
    first.close()
    second = SQLiteLedgerStore(path)
    try:
        assert second.peek("acme") == {"n": 7}
    finally:
        second.close()


@pytest.mark.parametrize(
    "path, expected",
    [
        (None, InMemoryLedgerStore),
        ("ledgers.sqlite", SQLiteLedgerStore),
        ("ledgers.sqlite3", SQLiteLedgerStore),
        ("ledgers.db", SQLiteLedgerStore),
    ],
)
def test_store_from_path_dispatch(tmp_path, path, expected):
    store = ledger_store_from_path(
        None if path is None else tmp_path / path
    )
    try:
        assert isinstance(store, expected)
    finally:
        store.close()


@pytest.mark.parametrize("name", ["ledgers.json", "ledgers"])
def test_store_from_path_refuses_non_sqlite_suffixes(tmp_path, name):
    """A path that is not a SQLite database must fail loudly, naming the
    accepted suffixes — never open as a fresh, empty ledger."""
    with pytest.raises(ValidationError, match=r"\.sqlite, \.sqlite3, \.db"):
        ledger_store_from_path(tmp_path / name)
    assert not (tmp_path / name).exists()


def test_store_from_path_leaves_an_old_json_ledger_untouched(tmp_path):
    """An old JSON ledger holding real spent budget is refused and left
    byte-for-byte as it was, so no tenant's budget is silently reset."""
    path = tmp_path / "ledgers.json"
    original = b'{"acme": {"accountant": {"spent": 3.5}, "reservations": {}}}'
    path.write_bytes(original)
    with pytest.raises(ValidationError):
        ledger_store_from_path(path)
    assert path.read_bytes() == original
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledgers.json"]


# -- close(): idempotent, safe mid-transact ---------------------------------
def test_close_is_idempotent(store):
    store.close()
    store.close()  # second close must be a no-op, not an error


def test_closed_durable_store_refuses_new_transactions(store):
    if isinstance(store, InMemoryLedgerStore):
        pytest.skip("the in-memory store has nothing to close")
    store.close()
    with pytest.raises(ValidationError, match="closed"):
        with store.transact("acme"):
            pass


def test_close_during_transact_lets_the_commit_finish(store):
    """close() racing an in-flight transaction: the transaction commits
    (its atomicity is the whole point), only *new* ones are refused."""
    if isinstance(store, InMemoryLedgerStore):
        pytest.skip("the in-memory store has nothing to close")
    with store.transact("acme") as txn:
        txn.state = {"n": 1}
        store.close()  # mid-transaction: must not poison the commit
    with pytest.raises(ValidationError, match="closed"):
        with store.transact("acme"):
            pass
    # The commit landed: a fresh store on the same path sees it.
    reborn = SQLiteLedgerStore(store.path)
    try:
        assert reborn.peek("acme") == {"n": 1}
    finally:
        reborn.close()


def test_sqlite_close_from_another_thread_waits_for_commit(tmp_path):
    store = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")
    entered = threading.Event()
    release = threading.Event()

    def writer() -> None:
        with store.transact("acme") as txn:
            txn.state = {"n": 7}
            entered.set()
            release.wait(timeout=10)

    thread = threading.Thread(target=writer)
    thread.start()
    assert entered.wait(timeout=10)
    closer = threading.Thread(target=store.close)
    closer.start()
    release.set()
    thread.join(timeout=10)
    closer.join(timeout=10)
    # The writer's commit survived the concurrent close.
    reborn = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")
    try:
        assert reborn.peek("acme") == {"n": 7}
    finally:
        reborn.close()
