"""Chaos certification: budget exactness survives faults and process death.

The acceptance bar for the crash-safe lifecycle, in two escalations:

1. **In-process chaos** — worker threads drain one durable tenant through
   the full reserve → draw → consume-idempotent → release cycle while a
   *seeded randomized fault schedule* throws transient errors and
   simulated crashes at every store and ledger fault point.  However the
   schedule lands, the tenant must converge to **exactly**
   ``floor(budget / epsilon)`` consumed releases, with no reservation
   stranded once the recovery sweep has run.  One release too many is a
   privacy violation; one too few means a fault leaked budget.
2. **Process kill-recovery** — real OS worker processes sharing one store,
   armed through ``REPRO_FAULTS`` to ``os._exit`` mid-transaction, plus a
   SIGKILL from the parent mid-flight.  After the survivors finish, the
   sweep reclaims what the dead left behind and a clean second wave drains
   the remainder to the exact same cap.

Both escalations use idempotency keys for every consume, so a cycle
re-run after an ambiguous fault (did the commit land?) stays exactly-once
— which is precisely the mechanism the service's HTTP retries rely on.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import BudgetExhaustedError, ReproError
from repro.faults import FaultRule, injected
from repro.service.ledger import TenantLedger
from repro.service.retry import RetryingLedgerStore, RetryPolicy
from repro.service.stores import SQLiteLedgerStore

SRC = str(Path(__file__).resolve().parent.parent / "src")

BUDGET = 6.0
EPSILON = 0.5
CAP = int(BUDGET / EPSILON)  # 12 releases total, faults notwithstanding
CHUNK = 2
TTL = 0.3  # reservation TTL: how long a crashed cycle can strand budget


#: The randomized-but-reproducible schedule: transient errors and simulated
#: crashes sprayed across every layer's fault points.  times=None keeps each
#: rule live for the whole run; the seeded injector RNG decides which hits
#: fire.  Transient errors are absorbed by the retrying store; crashes
#: abandon the worker's cycle mid-flight, exactly like a killed request.
def _chaos_rules() -> list[FaultRule]:
    return [
        FaultRule("ledger.*.read", error="io", probability=0.05, times=None),
        FaultRule("ledger.*.commit", error="io", probability=0.05, times=None),
        FaultRule(
            "ledger.sqlite.begin", error="sqlite_busy", probability=0.05, times=None
        ),
        FaultRule(
            "ledger.*.commit.after", error="io", probability=0.05, times=None
        ),
        FaultRule(
            "ledger.sqlite.commit",
            action="crash",
            probability=0.04,
            times=None,
        ),
        FaultRule(
            "tenant.consume", action="crash", probability=0.04, times=None
        ),
        FaultRule(
            "tenant.release_unused", action="crash", probability=0.03, times=None
        ),
        FaultRule(
            "tenant.reserve", action="latency", delay=0.001, probability=0.2,
            times=None,
        ),
    ]


def _chaos_worker(store, index: int, errors: list) -> None:
    """One session loop under chaos: reserve, consume idempotently, release.

    Simulated crashes abandon the current cycle (the reservation strands
    until the TTL sweep); every consume carries a unique idempotency key
    and is retried through ambiguous faults, so it lands exactly once no
    matter how many times the cycle re-runs.
    """
    ledger = TenantLedger(store, "acme", reservation_ttl=TTL)
    iteration = 0
    while True:
        iteration += 1
        key = f"worker{index}-cycle{iteration}"
        try:
            reservation = ledger.reserve(CHUNK, EPSILON)
        except BudgetExhaustedError:
            return  # drained (possibly only temporarily — the main loop decides)
        except BaseException as error:
            if getattr(error, "simulates_crash", False):
                continue  # this "request" died before the reserve committed
            errors.append(error)
            return
        consumed = False
        for _attempt in range(8):
            try:
                ledger.consume_idempotent(
                    reservation.reservation_id,
                    CHUNK,
                    epsilon=EPSILON,
                    idempotency_key=key,
                    response={"worker": index, "cycle": iteration},
                )
                consumed = True
                break
            except (ReproError, OSError):
                break  # reservation expired mid-crash-recovery: give up cycle
            except BaseException as error:
                if getattr(error, "simulates_crash", False):
                    continue  # ambiguous: retry the SAME key — exactly-once
                errors.append(error)
                return
        if consumed:
            try:
                ledger.release_unused(reservation.reservation_id)
            except BaseException as error:
                if not getattr(error, "simulates_crash", False):
                    errors.append(error)
                    return
                # Crashed before the release committed: the fully-consumed
                # husk strands until the sweep reclaims it.


def test_chaos_schedule_preserves_budget_exactness(tmp_path):
    raw = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")
    store = RetryingLedgerStore(
        raw, RetryPolicy(max_attempts=6, base_delay=0.001, max_delay=0.01)
    )
    try:
        TenantLedger(store, "acme").create(budget=BUDGET)
        errors: list = []
        with injected(_chaos_rules(), seed=1234):
            # Drain rounds under chaos until the ledger reaches steady state:
            # refusals can be transient (stranded reservations still count
            # against admission until the TTL), so sweep and re-drain.
            for _round in range(30):
                threads = [
                    threading.Thread(
                        target=_chaos_worker, args=(store, i, errors)
                    )
                    for i in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert not errors, errors
                time.sleep(TTL + 0.05)
                ledger = TenantLedger(store, "acme", reservation_ttl=TTL)
                ledger.sweep()
                snapshot = ledger.snapshot()
                if (
                    snapshot["reserved_releases"] == 0
                    and snapshot["remaining_budget"] < EPSILON
                ):
                    break
            else:
                pytest.fail(f"never converged: {snapshot}")

        # The invariant: exactly floor(budget/epsilon) consumed, nothing
        # stranded, nothing minted — regardless of the fault schedule.
        assert snapshot["n_releases"] == CAP
        assert snapshot["spent_epsilon"] == pytest.approx(BUDGET)
        assert snapshot["n_reservations"] == 0
        assert snapshot["reserved_releases"] == 0
    finally:
        store.close()


def test_chaos_schedule_is_reproducible(tmp_path):
    """Same seed, same workload, same store → the same fault schedule
    (the injector's whole point: chaos you can re-run under a debugger)."""

    def run(seed: int, path: Path) -> "tuple[list, int]":
        store = SQLiteLedgerStore(path)
        try:
            ledger = TenantLedger(store, "acme", reservation_ttl=TTL)
            ledger.create(budget=BUDGET)
            with injected(_chaos_rules(), seed=seed) as injector:
                for i in range(40):
                    try:
                        r = ledger.reserve(1, EPSILON)
                        ledger.consume(r.reservation_id, 1, epsilon=EPSILON)
                        ledger.release_unused(r.reservation_id)
                    except BaseException:
                        pass
                points = [e["point"] for e in injector.history]
            return points, ledger.snapshot()["n_releases"]
        finally:
            store.close()

    points_a, served_a = run(99, tmp_path / "a.sqlite")
    points_b, served_b = run(99, tmp_path / "b.sqlite")
    points_c, _ = run(100, tmp_path / "c.sqlite")
    assert points_a == points_b and served_a == served_b
    assert points_a != points_c


#: One worker process: drain the shared ledger with idempotent consumes.
#: REPRO_FAULTS (if set) arms the injector at import — including ``exit``
#: rules that kill the process dead mid-transaction.
_KILLABLE_DRAINER = """
import json, sys
from repro.exceptions import BudgetExhaustedError
from repro.service.ledger import TenantLedger
from repro.service.stores import ledger_store_from_path

path, epsilon, chunk, ttl, tag = (
    sys.argv[1], float(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4]),
    sys.argv[5],
)
store = ledger_store_from_path(path)
ledger = TenantLedger(store, "acme", reservation_ttl=ttl)
served = 0
cycle = 0
while True:
    cycle += 1
    try:
        reservation = ledger.reserve(chunk, epsilon)
    except BudgetExhaustedError:
        break
    try:
        ledger.consume_idempotent(
            reservation.reservation_id, chunk, epsilon=epsilon,
            idempotency_key=f"{tag}-{cycle}", response={"tag": tag},
        )
        served += chunk
    finally:
        ledger.release_unused(reservation.reservation_id)
store.close()
print(json.dumps({"served": served}))
"""


def test_killed_workers_recover_to_exact_budget(tmp_path):
    """SIGKILL + injected os._exit mid-transaction, one shared store: after
    the recovery sweep and a clean drain, consumed releases land on exactly
    floor(budget / epsilon) and no reservation is stranded."""
    store = SQLiteLedgerStore(tmp_path / "ledgers.sqlite")
    path = str(store.path)
    TenantLedger(store, "acme").create(budget=BUDGET)
    store.close()
    # Wave 1: slowed by injected latency (so the parent's SIGKILL lands
    # mid-flight), and armed to exit(17) partway through a commit cycle.
    fault_env = json.dumps(
        {
            "seed": 7,
            "rules": [
                {
                    "point": "tenant.consume",
                    "action": "latency",
                    "delay": 0.05,
                    "times": None,
                },
                {"point": "ledger.sqlite.commit", "action": "exit", "after": 3},
            ],
        }
    )
    base_env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}

    def spawn(tag: str, env: dict) -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable, "-c", _KILLABLE_DRAINER,
                path, str(EPSILON), str(CHUNK), str(TTL), tag,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )

    wave1 = [
        spawn(f"w1p{i}", {**base_env, "REPRO_FAULTS": fault_env})
        for i in range(3)
    ]
    time.sleep(0.25)
    wave1[0].send_signal(signal.SIGKILL)  # and one genuinely external kill
    statuses = []
    for proc in wave1:
        proc.communicate(timeout=120)
        statuses.append(proc.returncode)
    # At least one worker died by injection (17) or the SIGKILL (-9).
    assert any(code in (17, -signal.SIGKILL) for code in statuses), statuses
    assert all(code in (0, 17, -signal.SIGKILL) for code in statuses), statuses

    # Recovery: wait out the TTL, sweep, and let a clean wave finish.
    time.sleep(TTL + 0.1)
    reopened = SQLiteLedgerStore(path)
    try:
        ledger = TenantLedger(reopened, "acme", reservation_ttl=TTL)
        ledger.sweep()

        wave2 = [spawn(f"w2p{i}", dict(base_env)) for i in range(2)]
        for proc in wave2:
            _out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err

        time.sleep(TTL + 0.1)
        ledger.sweep()
        snapshot = ledger.snapshot()
        assert snapshot["n_releases"] == CAP
        assert snapshot["spent_epsilon"] == pytest.approx(BUDGET)
        assert snapshot["n_reservations"] == 0
        assert snapshot["reserved_releases"] == 0
    finally:
        reopened.close()
