"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` runs the same op sequence untraced and then traced, and prints the
per-layer metrics (see ``perfbench/README.md``).  Times are host-normalised
(``perfbench/host.py``): a fixed probe is timed before the first op and
after every op, and each op's latency is scaled to a host that runs the
probe in 1 ms.  The last
line of standard output is the result object; the line before it records
the host and the raw wall-clock figures.  The exit code is 0 only when
every op succeeded and every check held.

Load comes from this one process: a single client thread in a closed loop
(an op starts when the previous one has returned).
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before anything imports numpy: the
# benchmark measures the program's own code paths, not pool scheduling.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
sys.path.insert(0, str(ROOT))

# Stdlib only: the program is imported after its source is located.
from perfbench import layers, stats  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402

#: Scratch space for stores and span dumps, inside the checkout.
WORKDIR = ROOT / ".perfbench"

#: Set-up is measured this many times per run, at points spread evenly over
#: the op sequence, so the samples meet the host in different states rather
#: than all in the same second; ``setup_s`` is their median.
SETUP_SAMPLES = 9


def _import_seconds(modules: "tuple[str, ...]") -> float:
    """Wall time to import ``modules`` in a fresh interpreter."""
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        + "".join(f"import {module}\n" for module in modules)
        + "print(time.perf_counter() - start)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def _fresh_dir(tag: str) -> str:
    path = WORKDIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


class Pass:
    """One execution of a workload's op sequence."""

    def __init__(self) -> None:
        self.latencies: "list[float]" = []
        self.errors: "list[str]" = []
        self.failed = 0
        self.state_kb: "list[float]" = []
        self.retries = 0
        #: The host probe's time before the first op and after each op,
        #: when the pass was probed.
        self.probes: "list[float]" = []

    @property
    def wall_ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def normalised(self) -> "list[float]":
        """Op latencies scaled to the reference host (probed passes only)."""
        from perfbench.host import REFERENCE_S

        return stats.host_normalised(self.latencies, self.probes, REFERENCE_S)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.normalised)

    @property
    def host_factor(self) -> float:
        """Reference probe time over the pass's median probe time."""
        from perfbench.host import REFERENCE_S

        return REFERENCE_S / statistics.median(self.probes)


def run_pass(workload, recorder=None, between=None, probe=None) -> Pass:
    """Run every op once against state the caller has set up; with a
    ``recorder``, each op is a root span and the checks are not traced.
    ``between(index)``, when given, runs untimed before op ``index``; a
    host ``probe``, when given, is timed before the first op and after
    every op, outside the ops' times."""
    result = Pass()
    retries_before = workload.store_retries()
    untraced = contextlib.nullcontext
    if probe is not None:
        result.probes.append(probe.seconds())
    for index, op in enumerate(workload.ops):
        if between is not None:
            between(index)
        workload.before_op(op)
        start = time.perf_counter()
        with recorder.op(index) if recorder else untraced():
            try:
                outcome = workload.run_op(op)
            except Exception as error:  # counted as a failed op
                outcome = error
        result.latencies.append(time.perf_counter() - start)
        with recorder.paused() if recorder else untraced():
            error = workload.check_op(op, outcome)
            if recorder is not None:
                kb = workload.state_kb(op)
                if kb is not None:
                    result.state_kb.append(kb)
            if probe is not None:
                result.probes.append(probe.seconds())
        if error is not None:
            result.failed += 1
            result.errors.append(f"op {index} {op[0]}: {error}")
    result.retries = workload.store_retries() - retries_before
    with recorder.paused() if recorder else untraced():
        errors = workload.finish()
    result.failed += len(errors)
    result.errors.extend(errors)
    return result


#: Probes timed on each side of a set-up sample to gauge the host for it.
SETUP_PROBES = 5


def _timed_setup(workload, workdir: str, probe) -> "tuple[float, float]":
    """One set-up sample: a fresh interpreter's import of the workload's
    modules plus an in-process set-up of ``workload`` in ``workdir``, as
    ``(host-normalised, wall)`` seconds."""
    from perfbench.host import REFERENCE_S

    before = probe.median_seconds(SETUP_PROBES)
    import_s = _import_seconds(workload.import_modules)
    start = time.perf_counter()
    workload.setup(workdir)
    wall = import_s + time.perf_counter() - start
    after = probe.median_seconds(SETUP_PROBES)
    return wall * REFERENCE_S / (0.5 * (before + after)), wall


def end_to_end(workload, spare, probe) -> "tuple[Pass, dict[str, float], dict]":
    """The untraced run.  ``spare`` is a second instance of the workload,
    set up and torn down between ops for the later set-up samples.  Returns
    the pass, the host-normalised metrics and the raw wall-clock figures."""
    setups = [_timed_setup(workload, _fresh_dir(workload.name), probe)]
    every = len(workload.ops) / SETUP_SAMPLES
    sample_at = {round(every * k) for k in range(1, SETUP_SAMPLES)}

    def sample_setup(index: int) -> None:
        if index in sample_at:
            workdir = _fresh_dir(f"{spare.name}-spare")
            setups.append(_timed_setup(spare, workdir, probe))
            spare.teardown()
            shutil.rmtree(workdir, ignore_errors=True)

    measured = run_pass(workload, between=sample_setup, probe=probe)
    latencies_ms = [1e3 * seconds for seconds in measured.normalised]
    p95 = stats.supported_percentile(latencies_ms, 0.95)
    if p95 is None:
        measured.errors.append(
            f"only {len(latencies_ms)} ops: too few for a p95 with "
            f"{stats.MIN_SAMPLES_BEYOND} samples beyond it"
        )
        measured.failed += 1
    attempted = len(workload.ops)
    wall_ms = [1e3 * seconds for seconds in measured.latencies]
    wall = {
        "setup_s": statistics.median(wall for _, wall in setups),
        "ops_per_s": measured.wall_ops_per_s,
        "op_p50_ms": stats.percentile(wall_ms, 0.5),
        "op_p95_ms": stats.percentile(wall_ms, 0.95),
        "probe_ms": 1e3 * statistics.median(measured.probes),
    }
    metrics = {
        "setup_s": statistics.median(normalised for normalised, _ in setups),
        "ops_per_s": measured.ops_per_s,
        "op_p50_ms": stats.percentile(latencies_ms, 0.5),
        "op_p95_ms": p95,
        "peak_rss_mb": stats.peak_rss_mb(),
        "store_kb": workload.store_kb,
        "op_decay": stats.op_decay(measured.normalised, workload.positions),
        "ok_share": max(0.0, 1.0 - measured.failed / attempted),
    }
    return measured, metrics, wall


def traced(workload, probe) -> "tuple[list[Pass], dict[str, float]]":
    workload.setup(_fresh_dir(workload.name))
    untraced = run_pass(workload, probe=probe)
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        with recorder.paused():
            workload.setup(_fresh_dir(workload.name))
        measured = run_pass(workload, recorder, probe=probe)
    finally:
        recorder.restore()
    recorder.dump(str(WORKDIR / f"spans-{workload.name}-seed{workload.seed}.jsonl"))
    metrics = layers.layer_metrics(
        recorder,
        state_kb=measured.state_kb,
        retries=measured.retries,
        traced_ops_per_s=measured.ops_per_s,
        untraced_ops_per_s=untraced.ops_per_s,
    )
    # Span times are host-normalised with the traced pass's median probe.
    for name, unit in layers.UNITS.items():
        if unit == "ms":
            metrics[name] *= measured.host_factor
    metrics["host.probe_ms"] = 1e3 * statistics.median(untraced.probes)
    metrics["wall.ops_per_s"] = untraced.wall_ops_per_s
    return [untraced, measured], metrics


UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MiB",
    "store_kb": "KiB",
    "op_decay": "ratio",
    "ok_share": "share",
}


#: Units of the traced run's metrics: the layers', plus the host probe's
#: median time and the untraced pass's raw wall-clock throughput.
TRACE_UNITS = {
    **layers.UNITS,
    "host.probe_ms": "ms",
    "wall.ops_per_s": "1/s",
}


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != (SOURCE / "repro").resolve():
        print(f"perfbench: repro imported from {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    from perfbench.host import HostProbe

    workload_type = WORKLOADS[args.workload]
    workload = workload_type(args.seed, args.seconds)
    probe = HostProbe()

    wall = None
    if args.trace:
        passes, values = traced(workload, probe)
        units = TRACE_UNITS
    else:
        spare = workload_type(args.seed, args.seconds)
        measured, values, wall = end_to_end(workload, spare, probe)
        passes = [measured]
        units = UNITS
    for tag in (workload.name, f"{workload.name}-spare"):
        shutil.rmtree(WORKDIR / f"{tag}-{os.getpid()}", ignore_errors=True)

    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    for message in errors[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    attempted = sum(len(p.latencies) for p in passes)
    print(
        json.dumps(
            {
                "host": host_facts(),
                "workload": workload.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "ops": len(workload.ops),
                "wall": wall,
            }
        )
    )
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
        if value is not None
    }
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
