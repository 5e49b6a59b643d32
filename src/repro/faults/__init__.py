"""Deterministic fault injection for the privacy service's durable paths.

The budget ledger's exactness guarantees ("spent exactly once", "never
strand epsilon") are only trustworthy if they hold under *failure* —
stores that throw mid-commit, databases that stay locked, clients that
vanish between reserve and consume.  This package provides the machinery to
prove that: named **fault points** compiled into the hot paths
(:class:`~repro.service.stores.LedgerStore` transactions, the
:class:`~repro.serving.cache.SQLiteCache` writes,
:class:`~repro.service.ledger.TenantLedger` operations, the ASGI app),
and a seeded :class:`FaultInjector` that fires configured faults at them
— transient errors, latency, or simulated crashes — on a reproducible
schedule.

With no injector installed, a fault point is one global read and a
``None`` check; production code pays effectively nothing.

See :mod:`repro.faults.injector` for the model and
``docs/architecture.md`` for the fault-model ADR.
"""

from repro.faults.points import (
    FAULT_POINTS,
    declared_points,
    matching_points,
    never_fired,
    unmatched_patterns,
)
from repro.faults.injector import (
    ENV_VAR,
    ERROR_KINDS,
    EXIT_STATUS,
    FaultInjector,
    FaultRule,
    SimulatedCrashError,
    current,
    fire,
    injected,
    injector_from_spec,
    install,
    install_from_env,
    uninstall,
)

__all__ = [
    "ENV_VAR",
    "ERROR_KINDS",
    "EXIT_STATUS",
    "FAULT_POINTS",
    "FaultInjector",
    "FaultRule",
    "SimulatedCrashError",
    "current",
    "declared_points",
    "fire",
    "matching_points",
    "never_fired",
    "unmatched_patterns",
    "injected",
    "injector_from_spec",
    "install",
    "install_from_env",
    "uninstall",
]
