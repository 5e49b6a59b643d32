"""Transient-failure retry for ledger stores: bounded backoff with jitter.

A durable store under load throws *transient* errors — SQLite reports
``database is locked`` past its busy timeout, a network filesystem
hiccups an ``EIO`` — neither of which means the operation cannot
succeed, only that it could not succeed *now*.  Surfacing every one as a
503 wastes work the client will simply retry over HTTP (more load, more
contention); hanging forever violates request deadlines.

:class:`RetryingLedgerStore` wraps any
:class:`~repro.service.stores.LedgerStore` and retries the **acquisition
phase** of a transaction (entering :meth:`~repro.service.stores.
LedgerStore.transact` — where busy errors live) plus
whole :meth:`~repro.service.stores.LedgerStore.run` cycles and reads,
under a :class:`RetryPolicy`: bounded exponential backoff, full seeded
jitter (so a thundering herd decorrelates deterministically in tests),
and a hard wall-clock deadline.

What is deliberately **not** retried:

* Domain refusals (:class:`~repro.exceptions.ReproError`) — a budget
  refusal does not become grantable by retrying.
* A *commit* failure inside an open ``with store.transact(...)`` block —
  the caller's inline body cannot be re-run by a wrapper.  Commit-phase
  retry requires the closure form (:meth:`~repro.service.stores.
  LedgerStore.run`), and re-running a cycle whose commit may or may not
  have landed is only exactly-once when the handler is idempotent — which
  is precisely what the ledger's idempotency keys provide (see
  ``docs/architecture.md``).
"""

from __future__ import annotations

import contextlib
import random
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.exceptions import ReproError, ValidationError
from repro.faults import fire
from repro.service.stores import LedgerStore, LedgerTransaction


def is_transient_store_error(error: BaseException) -> bool:
    """The default retry predicate.

    Transient: SQLite busy/locked, and plain ``OSError`` (EIO and friends
    — the disk blipped, not the logic).  Never transient: every
    :class:`~repro.exceptions.ReproError` (refusals and validation are
    deterministic) and anything else.
    """
    if isinstance(error, ReproError):
        return False
    if isinstance(error, sqlite3.OperationalError):
        text = str(error).lower()
        return "locked" in text or "busy" in text
    return isinstance(error, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with full jitter, under a deadline.

    Attempt ``k`` (0-based) sleeps ``uniform(0, min(max_delay, base_delay
    * 2**k))`` — "full jitter", which decorrelates competing retriers
    better than fixed fractions.  Retrying stops when ``max_attempts``
    cycles failed or the next sleep would cross ``deadline`` seconds of
    total elapsed time, whichever is sooner; the last error is re-raised
    unchanged (with its original type, status mapping, and payload).

    ``seed`` makes the jitter sequence reproducible; ``sleep`` is
    injectable so tests assert schedules without waiting them out.
    """

    max_attempts: int = 5
    base_delay: float = 0.01
    max_delay: float = 0.5
    deadline: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValidationError(
                "need 0 <= base_delay <= max_delay, got "
                f"base_delay={self.base_delay}, max_delay={self.max_delay}"
            )
        if self.deadline <= 0:
            raise ValidationError(
                f"deadline must be positive, got {self.deadline}"
            )

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """The jittered sleep before retry number ``attempt`` (1-based)."""
        ceiling = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return rng.uniform(0.0, ceiling)


class RetryingLedgerStore(LedgerStore):
    """A :class:`~repro.service.stores.LedgerStore` that absorbs transient
    backend errors with seeded backoff.

    Parameters
    ----------
    inner:
        The real store.  Exposed as :attr:`inner` for introspection.
    policy:
        The :class:`RetryPolicy`; defaults are serving-sane (5 attempts,
        10 ms base, 0.5 s cap, 10 s deadline).
    classify:
        Predicate deciding which errors are transient; defaults to
        :func:`is_transient_store_error`.
    sleep:
        Injectable sleep (tests pass a recorder).
    """

    def __init__(
        self,
        inner: LedgerStore,
        policy: "RetryPolicy | None" = None,
        *,
        classify: "Callable[[BaseException], bool]" = is_transient_store_error,
        sleep: "Callable[[float], None]" = time.sleep,
    ) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.classify = classify
        self._sleep = sleep
        self._rng = random.Random(self.policy.seed)
        self.retries = 0  # total sleeps taken, for diagnostics

    # -- the retry loop ----------------------------------------------------
    def _attempt(self, op: "Callable[[], Any]") -> Any:
        started = time.monotonic()
        attempt = 0
        while True:
            try:
                return op()
            except BaseException as error:
                attempt += 1
                if not self.classify(error):
                    raise
                if attempt >= self.policy.max_attempts:
                    raise
                delay = self.policy.delay_for(attempt, self._rng)
                if time.monotonic() - started + delay > self.policy.deadline:
                    raise
                fire("store.retry", attempt=attempt, delay=delay)
                self.retries += 1
                self._sleep(delay)

    # -- LedgerStore -------------------------------------------------------
    @contextlib.contextmanager
    def transact(self, tenant: str) -> Iterator[LedgerTransaction]:
        # Retry only the enter (read/lock) phase; the caller's inline body
        # and the commit run once.  Exactly-once across commit failures is
        # the idempotency layer's job, not this one's.
        entered: "list[Any]" = []

        def enter() -> LedgerTransaction:
            manager = self.inner.transact(tenant)
            txn = manager.__enter__()
            entered.append(manager)
            return txn

        txn = self._attempt(enter)
        manager = entered[-1]
        try:
            yield txn
        except BaseException:
            import sys

            if not manager.__exit__(*sys.exc_info()):
                raise
        else:
            manager.__exit__(None, None, None)

    def run(self, tenant: str, fn: "Callable[[LedgerTransaction], Any]") -> Any:
        # The closure form retries the WHOLE cycle — enter, fn, commit.
        return self._attempt(lambda: self.inner.run(tenant, fn))

    def peek(self, tenant: str) -> "dict[str, Any] | None":
        return self._attempt(lambda: self.inner.peek(tenant))

    def tenants(self) -> list[str]:
        return self._attempt(lambda: self.inner.tenants())

    def close(self) -> None:
        self.inner.close()


def with_retries(
    store: LedgerStore, policy: "RetryPolicy | None" = None
) -> LedgerStore:
    """Wrap ``store`` in retries unless it already is (idempotent)."""
    if isinstance(store, RetryingLedgerStore):
        return store
    return RetryingLedgerStore(store, policy)
