"""Regenerate reference_precursors.json: the sha256 of precursors.csv for
every scenario of every command-line workload's seed pool.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter outputs, and justify every
changed hash; the benchmark reports each scenario whose output no longer
matches its recorded hash.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src on the path)
from hostspeed import Clock  # noqa: E402
from run import REFERENCE  # noqa: E402


def main() -> int:
    table = {}
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    try:
        for name in ("envelope_campaign", "envelope_budgeted"):
            wl = workloads.make(name)
            table[name] = {}
            for i in range(workloads.POOL):
                op = wl.run_op(workloads.SEED_BASE + i, workdir,
                               Clock(probes=0))
                if op.failures:
                    print(f"{name} seed {op.scenario_seed}: {op.failures}",
                          file=sys.stderr)
                    return 1
                table[name][op.digest] = op.output_sha
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass  # a benchmark run is using it
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
