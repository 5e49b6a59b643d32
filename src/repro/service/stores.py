"""Durable tenant-ledger stores: one atomic check-then-record per tenant.

A ledger store persists, per tenant, the full accounting state the service
enforces budgets with (:meth:`~repro.core.accounting.BaseAccountant.
state_dict` — including Rényi running curves — plus outstanding
reservations).  Its one non-negotiable primitive is :meth:`LedgerStore.
transact`: an **exclusive read-modify-write transaction** on one tenant's
state, atomic across threads *and* processes.  Every budget decision the
service makes happens inside one — which is exactly why a thundering herd
of concurrent sessions can never jointly over-commit a tenant budget: two
admissions cannot interleave between the read and the write.

Two backends:

* :class:`InMemoryLedgerStore` — process-local; the default for tests and
  single-process serving without durability.
* :class:`SQLiteLedgerStore` — a WAL-mode SQLite database, one row per
  tenant, each transaction a ``BEGIN IMMEDIATE`` cycle so concurrent
  writers — threads or processes — queue on SQLite's own locking.  The
  only durable backend.

:func:`ledger_store_from_path` picks one from a ``--store`` path and
refuses any other suffix: a path the service cannot open as SQLite (an
old JSON ledger file, say) must fail loudly rather than start a fresh,
empty ledger that silently resets every tenant's budget.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.exceptions import ValidationError
from repro.faults import fire
from repro.utils.sqlitedb import connect


class LedgerTransaction:
    """One tenant's state inside an open transaction.

    ``state`` is the tenant's current persisted state (``None`` when the
    tenant does not exist yet).  Handlers mutate it in place or assign a
    new dict; on clean exit from :meth:`LedgerStore.transact` the final
    value is persisted atomically.  Raising inside the ``with`` block
    abandons every change — refusals (budget exhausted, reservation
    conflicts) are exceptions, so a refused transaction leaves the ledger
    bit-for-bit where it was.
    """

    def __init__(self, tenant: str, state: "dict[str, Any] | None") -> None:
        self.tenant = tenant
        self.state = state


class LedgerStore(ABC):
    """Durable per-tenant ledger state with exclusive transactions."""

    @abstractmethod
    def transact(self, tenant: str) -> "contextlib.AbstractContextManager[LedgerTransaction]":
        """Open an exclusive read-modify-write transaction on one tenant.

        The returned context manager yields a :class:`LedgerTransaction`;
        no other transaction on the same store — in this thread, another
        thread, or another process — can interleave between the read and
        the commit.  On exception nothing is written.
        """

    @abstractmethod
    def peek(self, tenant: str) -> "dict[str, Any] | None":
        """A read-only snapshot of one tenant's state (``None`` if absent).

        May run lock-free: it sees some committed state, never a torn one,
        but a concurrent transaction may commit right after.  Never use a
        peek to make a budget decision — that is what :meth:`transact` is
        for.
        """

    @abstractmethod
    def tenants(self) -> list[str]:
        """Sorted names of every tenant with persisted state."""

    def run(self, tenant: str, fn: "Callable[[LedgerTransaction], Any]") -> Any:
        """Run ``fn`` inside one :meth:`transact` cycle; return its result.

        The functional twin of :meth:`transact` — and the retryable one:
        because the whole read-decide-write cycle is a closure, a wrapper
        (:class:`~repro.service.retry.RetryingLedgerStore`) can re-run it
        after a transient failure, which a ``with`` block's inline body
        cannot be.  ``fn`` must therefore tolerate re-execution from a
        fresh read; ledger handlers do (their effects are pure functions
        of the state they are handed, and the exactly-once protections —
        idempotency keys, reservation ids — live *in* that state).
        """
        with self.transact(tenant) as txn:
            return fn(txn)

    def close(self) -> None:
        """Release backend resources (connections, handles).  Idempotent."""


class InMemoryLedgerStore(LedgerStore):
    """Process-local store: a dict behind one lock.

    The transaction lock is global (not per tenant) — contention is
    irrelevant at in-memory speeds and a single lock cannot deadlock.
    States are deep-copied through JSON on the way in and out, so a
    handler mutating a peeked state cannot corrupt the store and the
    store behaves byte-for-byte like its durable sibling.
    """

    def __init__(self) -> None:
        self._states: dict[str, str] = {}  # tenant -> JSON text
        self._lock = threading.RLock()

    @contextlib.contextmanager
    def transact(self, tenant: str) -> Iterator[LedgerTransaction]:
        with self._lock:
            fire("ledger.memory.read", tenant=tenant)
            raw = self._states.get(tenant)
            txn = LedgerTransaction(tenant, None if raw is None else json.loads(raw))
            yield txn
            if txn.state is not None:
                fire("ledger.memory.commit", tenant=tenant)
                self._states[tenant] = json.dumps(txn.state)
                fire("ledger.memory.commit.after", tenant=tenant)

    def peek(self, tenant: str) -> "dict[str, Any] | None":
        with self._lock:
            raw = self._states.get(tenant)
            return None if raw is None else json.loads(raw)

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._states)


class SQLiteLedgerStore(LedgerStore):
    """A WAL-mode SQLite database, one state row per tenant.

    ``BEGIN IMMEDIATE`` takes SQLite's write lock at transaction *start*
    (not first write), so the whole read-decide-write cycle is exclusive
    across processes; concurrent writers queue on the busy timeout
    (:data:`~repro.utils.sqlitedb.BUSY_TIMEOUT_S`) instead of failing.  WAL
    mode keeps readers unblocked and makes single-row commits cheap.  One
    connection per store instance, serialized by a thread lock — open one
    store per thread or share one; both are safe.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS tenant_ledgers (
            tenant TEXT PRIMARY KEY,
            state  TEXT NOT NULL
        )
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._thread_lock = threading.RLock()
        self._closed = False
        self._close_pending = False
        self._txn_depth = 0
        self._conn = connect(self.path)
        self._conn.execute(self._SCHEMA)

    @contextlib.contextmanager
    def transact(self, tenant: str) -> Iterator[LedgerTransaction]:
        with self._thread_lock:
            if self._closed or self._close_pending:
                raise ValidationError(
                    f"ledger store {self.path} is closed; open a new store"
                )
            self._txn_depth += 1
            try:
                fire("ledger.sqlite.begin", tenant=tenant, path=str(self.path))
                self._conn.execute("BEGIN IMMEDIATE")
                committed = False
                try:
                    row = self._conn.execute(
                        "SELECT state FROM tenant_ledgers WHERE tenant = ?",
                        (tenant,),
                    ).fetchone()
                    txn = LedgerTransaction(
                        tenant, None if row is None else json.loads(row[0])
                    )
                    yield txn
                    if txn.state is not None:
                        fire(
                            "ledger.sqlite.commit",
                            tenant=tenant,
                            path=str(self.path),
                        )
                        self._conn.execute(
                            "INSERT INTO tenant_ledgers (tenant, state) VALUES (?, ?) "
                            "ON CONFLICT (tenant) DO UPDATE SET state = excluded.state",
                            (tenant, json.dumps(txn.state)),
                        )
                    self._conn.execute("COMMIT")
                    committed = True
                    fire(
                        "ledger.sqlite.commit.after",
                        tenant=tenant,
                        path=str(self.path),
                    )
                except BaseException:
                    # Roll back only an open transaction: a post-COMMIT
                    # fault (or a close()d connection) must not shadow the
                    # real error with "no transaction is active".
                    if not committed:
                        with contextlib.suppress(sqlite3.Error):
                            self._conn.execute("ROLLBACK")
                    raise
            finally:
                self._txn_depth -= 1
                if self._close_pending and self._txn_depth == 0:
                    self._close_pending = False
                    self._closed = True
                    self._conn.close()

    def peek(self, tenant: str) -> "dict[str, Any] | None":
        with self._thread_lock:
            row = self._conn.execute(
                "SELECT state FROM tenant_ledgers WHERE tenant = ?", (tenant,)
            ).fetchone()
            return None if row is None else json.loads(row[0])

    def tenants(self) -> list[str]:
        with self._thread_lock:
            rows = self._conn.execute(
                "SELECT tenant FROM tenant_ledgers ORDER BY tenant"
            ).fetchall()
            return [row[0] for row in rows]

    def close(self) -> None:
        """Close the connection; idempotent and safe mid-transact.

        A close racing an in-flight transaction on another thread would
        normally poison that transaction's COMMIT/ROLLBACK with
        ``ProgrammingError: Cannot operate on a closed database``.  Instead
        the close is *deferred*: new transactions are refused immediately,
        and the connection is actually closed by the last in-flight
        transaction on its way out (see :meth:`transact`'s ``finally``).
        """
        with self._thread_lock:
            if self._closed or self._close_pending:
                return
            if self._txn_depth > 0:
                self._close_pending = True
                return
            self._closed = True
            self._conn.close()


#: Path suffixes :func:`ledger_store_from_path` opens as SQLite.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def ledger_store_from_path(path: "str | Path | None") -> LedgerStore:
    """A store for a path: in-memory for ``None``, SQLite for the
    :data:`SQLITE_SUFFIXES`; any other path raises ``ValidationError``
    without touching the file."""
    if path is None:
        return InMemoryLedgerStore()
    path = Path(path)
    if path.suffix.lower() not in SQLITE_SUFFIXES:
        raise ValidationError(
            f"ledger store path {str(path)!r} must end in one of "
            f"{', '.join(SQLITE_SUFFIXES)} (a SQLite database), or be "
            f"omitted for an in-memory store"
        )
    return SQLiteLedgerStore(path)
