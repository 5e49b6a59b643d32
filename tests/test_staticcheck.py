"""The invariant linter, proven live: every rule R1–R6 fails on a seeded
violation and stays quiet on the compliant twin, suppressions require
justification, JSON output round-trips, exit codes behave — and the
repo's own tree lints clean (the check CI runs, run here too so a
regression fails tier-1 and not just the lint lane).

The linter is pure stdlib; so is this test module (no numpy).
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.staticcheck import LintConfig, Linter
from repro.staticcheck.rules import (
    CheckThenActRule,
    CrashSafetyRule,
    DeterminismRule,
    FaultPointRule,
    LockDisciplineRule,
    TransactionDisciplineRule,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
EVERYWHERE = ("*.py",)  # fnmatch: '*' crosses '/' — matches any .py file


def run_lint(tmp_path, files, rules, fault_points=None):
    """Write fixture ``files`` under ``tmp_path`` and lint them."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    config = LintConfig(
        root=tmp_path,
        fault_points=None if fault_points is None else frozenset(fault_points),
    )
    return Linter(config, rules=rules).run()


def rules_hit(result):
    return sorted({f.rule for f in result.findings})


# -- R1: lock discipline -----------------------------------------------------

R1_VIOLATING = """\
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._buf = []

        def _refill_locked(self):
            self._buf.append(1)

        def bad(self):
            self._refill_locked()
"""

R1_COMPLIANT = """\
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._buf = []

        def _refill_locked(self):
            self._buf.append(1)

        def good(self):
            with self._lock:
                self._refill_locked()

        def _drain_locked(self):
            self._refill_locked()  # guard transfers to *our* caller
"""


def test_r1_flags_unlocked_locked_call(tmp_path):
    result = run_lint(
        tmp_path, {"mod.py": R1_VIOLATING}, [LockDisciplineRule(EVERYWHERE)]
    )
    assert rules_hit(result) == ["R1"]
    (finding,) = result.findings
    assert "_refill_locked" in finding.message
    assert finding.path == "mod.py"


def test_r1_quiet_on_compliant(tmp_path):
    result = run_lint(
        tmp_path, {"mod.py": R1_COMPLIANT}, [LockDisciplineRule(EVERYWHERE)]
    )
    assert result.findings == []


def test_r1_docstring_guarded_attributes(tmp_path):
    source = """\
        import threading

        class Session:
            \"\"\"A session.

            :guarded: _noise, _pos
            \"\"\"

            def __init__(self):
                self._lock = threading.Lock()
                self._noise = []  # constructors are exempt
                self._pos = 0

            def bad(self):
                return self._noise[self._pos]

            def good(self):
                with self._lock:
                    return self._noise[self._pos]
    """
    result = run_lint(
        tmp_path, {"mod.py": source}, [LockDisciplineRule(EVERYWHERE)]
    )
    flagged = {f.message for f in result.findings}
    assert len(result.findings) == 2  # _noise and _pos in bad() only
    assert any("_noise" in m for m in flagged)
    assert any("_pos" in m for m in flagged)


# -- R2: check-then-act ------------------------------------------------------

R2_VIOLATING = """\
    class Engine:
        def bad(self, eps):
            with self._mutex:
                remaining = self.accountant.remaining()
            if remaining >= eps:
                self.accountant.record(eps)  # lock dropped: check is stale
"""

R2_COMPLIANT = """\
    class Engine:
        def good(self, eps):
            with self._mutex:
                if self.accountant.remaining() >= eps:
                    self.accountant.record(eps)
"""


def test_r2_flags_split_check_and_debit(tmp_path):
    result = run_lint(
        tmp_path, {"mod.py": R2_VIOLATING}, [CheckThenActRule(EVERYWHERE)]
    )
    assert rules_hit(result) == ["R2"]
    assert "atomic region" in result.findings[0].message


def test_r2_quiet_on_atomic_pair(tmp_path):
    result = run_lint(
        tmp_path, {"mod.py": R2_COMPLIANT}, [CheckThenActRule(EVERYWHERE)]
    )
    assert result.findings == []


def test_r2_yield_must_be_dominated_by_debit(tmp_path):
    source = """\
        class FooSession:
            def stream(self):
                while True:
                    yield self._noise.pop()

        class BarSession:
            def stream(self):
                while True:
                    self.engine._debit_one(self._signature)
                    yield self._noise.pop()
    """
    result = run_lint(
        tmp_path, {"mod.py": source}, [CheckThenActRule(EVERYWHERE)]
    )
    assert len(result.findings) == 1
    assert result.findings[0].line == 4  # FooSession's yield only
    assert "debit" in result.findings[0].message


# -- R3: crash-exception safety ----------------------------------------------

R3_VIOLATING = """\
    from repro.faults import fire

    def swallow_everything(path):
        try:
            path.unlink()
        except BaseException:
            pass  # would tidy up after a simulated crash

    def swallow_fault(cache):
        try:
            fire("cache.sqlite.put")
            cache.put()
        except Exception:
            pass
"""

R3_COMPLIANT = """\
    from repro.faults import fire

    def crash_aware(path):
        try:
            path.unlink()
        except BaseException as error:
            if not getattr(error, "simulates_crash", False):
                path.unlink(missing_ok=True)
            raise

    def handled(cache):
        try:
            fire("cache.sqlite.put")
            cache.put()
        except Exception as error:
            return {"error": str(error)}
"""


def test_r3_flags_swallowing_handlers(tmp_path):
    result = run_lint(
        tmp_path, {"mod.py": R3_VIOLATING}, [CrashSafetyRule(EVERYWHERE)]
    )
    assert rules_hit(result) == ["R3"]
    assert len(result.findings) == 2
    messages = " ".join(f.message for f in result.findings)
    assert "SimulatedCrashError" in messages
    assert "fault point" in messages


def test_r3_quiet_on_reraise_idiom(tmp_path):
    result = run_lint(
        tmp_path, {"mod.py": R3_COMPLIANT}, [CrashSafetyRule(EVERYWHERE)]
    )
    assert result.findings == []


# -- R4: determinism ---------------------------------------------------------

R4_VIOLATING = """\
    import time
    import random

    def cache_key(payload):
        return hash(payload) ^ int(time.time()) ^ random.getrandbits(8)

    def signatures(items):
        return [normalize(x) for x in set(items)]
"""

R4_COMPLIANT = """\
    import hashlib
    import random

    def cache_key(payload, seed):
        rng = random.Random(seed)
        digest = hashlib.sha256(payload).hexdigest()
        return digest, rng.random()

    def signatures(items):
        return [normalize(x) for x in sorted(set(items))]
"""


def test_r4_flags_nondeterminism(tmp_path):
    result = run_lint(
        tmp_path, {"mod.py": R4_VIOLATING}, [DeterminismRule(EVERYWHERE)]
    )
    assert rules_hit(result) == ["R4"]
    messages = " ".join(f.message for f in result.findings)
    assert "hash" in messages
    assert "time.time" in messages
    assert "random.getrandbits" in messages
    assert "set" in messages
    assert len(result.findings) == 4


def test_r4_quiet_on_seeded_and_sorted(tmp_path):
    result = run_lint(
        tmp_path, {"mod.py": R4_COMPLIANT}, [DeterminismRule(EVERYWHERE)]
    )
    assert result.findings == []


# -- R5: fault-point conformance ---------------------------------------------

DECLARED = ("cache.sqlite.put", "tenant.consume")


def test_r5_flags_undeclared_fire_site(tmp_path):
    source = """\
        from repro.faults import fire

        def store(point):
            fire("cache.sqlite.pt")  # typo'd
            fire(point)  # dynamic: unauditable
            fire("cache.sqlite.put")  # declared: fine
    """
    result = run_lint(
        tmp_path,
        {"src/repro/mod.py": source},
        [FaultPointRule()],
        fault_points=DECLARED,
    )
    assert rules_hit(result) == ["R5"]
    messages = " ".join(f.message for f in result.findings)
    assert "cache.sqlite.pt" in messages
    assert "string-literal" in messages
    assert len(result.findings) == 2


def test_r5_flags_orphan_test_pattern(tmp_path):
    source = """\
        from repro.faults import FaultRule

        def test_chaos(tmp_store):
            rules = [
                FaultRule("cache.*", action="crash"),  # matches declared
                FaultRule("ledgr.*", error="io"),  # typo: matches nothing
            ]
            spec = {"rules": [{"point": "tenant.consume"}]}  # declared
            return rules, spec

        def test_synthetic(injector):
            injector.fire("p")
            return FaultRule("p")  # fired in this file: fine
    """
    result = run_lint(
        tmp_path,
        {"tests/test_mod.py": source},
        [FaultPointRule()],
        fault_points=DECLARED,
    )
    assert rules_hit(result) == ["R5"]
    (finding,) = result.findings
    assert "ledgr.*" in finding.message


# -- R6: transaction discipline ----------------------------------------------

R6_VIOLATING = """\
    class Ledger:
        def bad(self, key, n):
            def handler(txn):
                self._consume_in_state(txn.state, n)
                return txn.state

            state = self.store.run(self.tenant, handler)
            state["idempotency"][key] = {"response": n}  # after commit!
"""

R6_COMPLIANT = """\
    class Ledger:
        def good(self, key, n):
            def handler(txn):
                records = txn.state.setdefault("idempotency", {})
                self._consume_in_state(txn.state, n)
                records[key] = {"response": n}
                return txn.state

            return self.store.run(self.tenant, handler)
"""


def test_r6_flags_post_commit_idempotency_write(tmp_path):
    result = run_lint(
        tmp_path,
        {"mod.py": R6_VIOLATING},
        [TransactionDisciplineRule(EVERYWHERE)],
    )
    assert rules_hit(result) == ["R6"]
    messages = " ".join(f.message for f in result.findings)
    assert "transaction closure" in messages


def test_r6_quiet_on_shared_closure(tmp_path):
    result = run_lint(
        tmp_path,
        {"mod.py": R6_COMPLIANT},
        [TransactionDisciplineRule(EVERYWHERE)],
    )
    assert result.findings == []


# -- suppressions ------------------------------------------------------------


def annotate(source, needle, comment):
    """Append ``comment`` to the (unique) line containing ``needle``."""
    lines = source.splitlines()
    matches = [i for i, line in enumerate(lines) if needle in line]
    assert len(matches) == 1, (needle, matches)
    lines[matches[0]] += "  " + comment
    return "\n".join(lines) + "\n"


def test_suppression_with_justification_suppresses(tmp_path):
    source = annotate(
        R1_VIOLATING,
        "self._refill_locked()",
        "# repro-lint: disable=R1 -- single-threaded test fixture",
    )
    result = run_lint(
        tmp_path, {"mod.py": source}, [LockDisciplineRule(EVERYWHERE)]
    )
    assert result.findings == []
    assert len(result.suppressed) == 1
    assert result.exit_code() == 0


def test_suppression_by_rule_name_and_all(tmp_path):
    for token in ("lock-discipline", "all"):
        source = annotate(
            R1_VIOLATING,
            "self._refill_locked()",
            f"# repro-lint: disable={token} -- fixture",
        )
        result = run_lint(
            tmp_path, {"mod.py": source}, [LockDisciplineRule(EVERYWHERE)]
        )
        assert result.findings == [], token
        assert len(result.suppressed) == 1, token


def test_suppression_without_justification_is_a_finding(tmp_path):
    source = annotate(
        R1_VIOLATING, "self._refill_locked()", "# repro-lint: disable=R1"
    )
    result = run_lint(
        tmp_path, {"mod.py": source}, [LockDisciplineRule(EVERYWHERE)]
    )
    names = {f.name for f in result.findings}
    # The naked suppression is rejected AND the R1 finding still stands.
    assert "bad-suppression" in names
    assert "lock-discipline" in names
    assert result.exit_code() == 1


def test_unused_suppression_fails_only_strict(tmp_path):
    source = R1_COMPLIANT.replace(
        "            with self._lock:",
        "            # repro-lint: disable=R1 -- stale comment\n"
        "            with self._lock:",
    )
    result = run_lint(
        tmp_path, {"mod.py": source}, [LockDisciplineRule(EVERYWHERE)]
    )
    assert result.findings == []
    assert len(result.unused_suppressions) == 1
    assert result.exit_code(strict=False) == 0
    assert result.exit_code(strict=True) == 1


def test_wrong_rule_suppression_does_not_suppress(tmp_path):
    source = annotate(
        R1_VIOLATING,
        "self._refill_locked()",
        "# repro-lint: disable=R4 -- wrong rule",
    )
    result = run_lint(
        tmp_path, {"mod.py": source}, [LockDisciplineRule(EVERYWHERE)]
    )
    assert rules_hit(result) == ["R1"]
    assert len(result.unused_suppressions) == 1


# -- output and exit codes ---------------------------------------------------


def test_json_output_round_trips(tmp_path):
    result = run_lint(
        tmp_path, {"mod.py": R1_VIOLATING}, [LockDisciplineRule(EVERYWHERE)]
    )
    payload = json.loads(result.render_json())
    assert payload["files_checked"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "R1"
    assert finding["path"] == "mod.py"
    assert finding["line"] > 1
    assert "message" in finding


def test_text_output_has_location_and_summary(tmp_path):
    result = run_lint(
        tmp_path, {"mod.py": R1_VIOLATING}, [LockDisciplineRule(EVERYWHERE)]
    )
    text = result.render_text()
    assert "mod.py:" in text
    assert "R1[lock-discipline]" in text
    assert "1 finding(s)" in text


def test_parse_error_is_reported_not_raised(tmp_path):
    result = run_lint(
        tmp_path,
        {"mod.py": "def broken(:\n"},
        [LockDisciplineRule(EVERYWHERE)],
    )
    (finding,) = result.findings
    assert finding.name == "parse-error"
    assert result.exit_code() == 1


def test_cli_exit_codes_and_json(tmp_path):
    from repro.staticcheck import cli

    # Place the fixture where the default R1 targets look for it.
    target = tmp_path / "src" / "repro" / "serving" / "stream.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(R1_VIOLATING))
    assert cli.main([str(tmp_path), "--select", "R4"]) == 0  # R4 finds nothing
    assert cli.main([str(tmp_path), "--select", "R1"]) == 1
    assert cli.main([str(target)]) == 2  # not a directory


# -- the repo's own tree -----------------------------------------------------


def test_repo_tree_lints_clean_strict():
    result = Linter(LintConfig(root=REPO_ROOT)).run()
    assert result.findings == [], "\n" + "\n".join(
        f.render() for f in result.findings
    )
    assert result.unused_suppressions == []
    # The deliberate, justified exceptions stay visible.
    assert len(result.suppressed) >= 1


def test_module_entry_point_works_without_numpy(tmp_path):
    """`python -m repro lint` in a bare container: numpy import blocked."""
    probe = (
        "import sys; sys.modules['numpy'] = None; "
        "from repro.__main__ import main; "
        "sys.exit(main(['lint', %r, '--strict']))" % str(REPO_ROOT)
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout
