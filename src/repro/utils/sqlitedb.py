"""The one way this package opens a durable SQLite database.

Both durable backends — the tenant-ledger store
(:class:`~repro.service.stores.SQLiteLedgerStore`) and the calibration
cache (:class:`~repro.serving.cache.SQLiteCache`) — open their connection
through :func:`connect`, so they share one configuration:

* autocommit (``isolation_level=None``): transaction boundaries are
  explicit ``BEGIN``/``COMMIT`` statements, never opened implicitly by
  the driver mid-cycle;
* WAL journaling: readers never block the writer, and single-row commits
  are cheap;
* a busy timeout of :data:`BUSY_TIMEOUT_S`: a writer that finds the
  database locked by another connection — another thread's or another
  process's — queues for it instead of failing at once.

Pure stdlib: importing it never pulls in numpy.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

#: Seconds a writer waits on a lock held by another connection before
#: SQLite reports ``database is locked`` (a transient store error).
BUSY_TIMEOUT_S = 60.0


def connect(path: "str | Path") -> sqlite3.Connection:
    """Open (creating parent directories) an autocommit WAL connection.

    The connection may be shared across threads; callers serialize their
    use of it with their own lock.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(str(path), isolation_level=None, check_same_thread=False)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
    return conn
