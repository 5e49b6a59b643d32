"""Record the ``calibrate-cold`` reference scales.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference_scales.json``: every row's noise scale as
``float.hex()``, keyed by the row's label.  Every run of ``calibrate-cold``,
whatever its seed, fails unless each op's scale equals its row's recorded
one bit for bit, which keeps calibrated sigmas identical across refactors.
Re-record only when a change of the mechanisms' arithmetic is intended, and
say so in the change.

The seed draws only data the calibration does not read, so the scales must
not depend on it; the script computes them for several seeds and refuses to
record when any two disagree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402,F401  (pins BLAS threads before numpy)
from perfbench.workloads import REFERENCE_FILE, CalibrateCold  # noqa: E402

SEEDS = range(4)


def main() -> int:
    references = None
    for seed in SEEDS:
        computed = CalibrateCold(seed, seconds=1).computed_references()
        if references is not None and computed != references:
            differ = sorted(
                label
                for label in set(computed) | set(references)
                if computed.get(label) != references.get(label)
            )
            print(f"seed {seed} changes the scales of {differ}", file=sys.stderr)
            return 1
        references = computed
    REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(references)} rows to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
