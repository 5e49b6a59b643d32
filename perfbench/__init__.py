"""The repository benchmark: three seeded workloads against the public
surfaces of ``repro``, end-to-end metrics from an untraced run and
per-layer metrics from a separate traced run.  See ``perfbench/README.md``.
"""
