"""R5 fault-point conformance.

The chaos suite's power comes from *named* fault points: production code
calls ``fire("ledger.sqlite.commit")`` and tests arm fnmatch patterns
against those names.  Both sides can rot silently — a ``fire()`` site
nobody registered is invisible to coverage reporting, and a typo'd test
pattern arms a rule that never fires and proves nothing.  This rule
pins both sides to the canonical registry
(:mod:`repro.faults.points`):

* in ``src/``: every ``fire(...)`` call takes a **string literal** name
  that is **declared** in the registry;
* in ``tests/`` and ``benchmarks/``: every literal pattern — a
  ``FaultRule("<pattern>", ...)`` argument or a ``{"point": ...}`` spec
  entry — matches at least one declared point, *or* at least one
  synthetic point the same file fires directly (unit tests of the
  injector itself invent points like ``"p"``; that is fine as long as
  the file actually fires them).
"""

from __future__ import annotations

import ast
import fnmatch
from typing import TYPE_CHECKING, Iterator

from repro.staticcheck.astutil import (
    call_name,
    keyword_str,
    literal_str_arg,
)
from repro.staticcheck.engine import FileUnit, Finding
from repro.staticcheck.rules import Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.engine import Linter


def _fired_literals(unit: FileUnit) -> "frozenset[str]":
    """Every string literal passed to a ``fire(...)`` call in the file."""
    points = set()
    for node in ast.walk(unit.tree):
        if isinstance(node, ast.Call) and call_name(node) == "fire":
            literal = literal_str_arg(node)
            if literal is not None:
                points.add(literal)
    return frozenset(points)


def _pattern_sites(unit: FileUnit) -> "Iterator[tuple[ast.AST, str]]":
    """Literal fault patterns armed in a test/bench file.

    ``FaultRule("<pat>", ...)`` / ``FaultRule(point="<pat>")`` calls and
    ``{"point": "<pat>", ...}`` dict literals (the ``REPRO_FAULTS`` wire
    form).  Non-literal patterns are invisible to static analysis and
    are skipped.
    """
    for node in ast.walk(unit.tree):
        if isinstance(node, ast.Call) and call_name(node) == "FaultRule":
            pattern = literal_str_arg(node)
            if pattern is None:
                pattern = keyword_str(node, "point")
            if pattern is not None:
                yield node, pattern
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "point"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    yield value, value.value


class FaultPointRule(Rule):
    """R5: fire sites declared; armed patterns match declared points."""

    rule_id = "R5"
    name = "fault-points"
    title = "fault points declared and patterns resolvable"
    default_targets = (
        "src/repro/*.py",
        "tests/*.py",
        "benchmarks/*.py",
    )
    default_excludes = (
        # The injector and the registry are the mechanism, not users.
        "src/repro/faults/injector.py",
        "src/repro/faults/points.py",
        "src/repro/staticcheck/*",
    )

    def check(self, unit: FileUnit, linter: "Linter") -> "Iterator[Finding]":
        declared = linter.declared_fault_points()
        if unit.rel.startswith("src/"):
            yield from self._check_fire_sites(unit, declared)
        else:
            yield from self._check_patterns(unit, declared)

    def _check_fire_sites(self, unit, declared):
        for node in ast.walk(unit.tree):
            if not (
                isinstance(node, ast.Call) and call_name(node) == "fire"
            ):
                continue
            point = literal_str_arg(node)
            if point is None:
                yield self.finding(
                    unit,
                    node,
                    "fire() needs a string-literal point name — dynamic "
                    "names cannot be checked against the registry or "
                    "reported by coverage",
                )
            elif point not in declared:
                yield self.finding(
                    unit,
                    node,
                    f"fault point '{point}' is not declared in "
                    "repro.faults.points.FAULT_POINTS — add it with a "
                    "one-line description",
                )

    def _check_patterns(self, unit, declared):
        fired_here = _fired_literals(unit)
        for node, pattern in _pattern_sites(unit):
            if any(fnmatch.fnmatchcase(p, pattern) for p in declared):
                continue
            if any(fnmatch.fnmatchcase(p, pattern) for p in fired_here):
                continue
            yield self.finding(
                unit,
                node,
                f"fault pattern '{pattern}' matches no declared fault "
                "point (and none fired in this file) — a typo here arms "
                "a rule that can never fire",
            )
