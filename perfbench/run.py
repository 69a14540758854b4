"""Benchmark of the acpcsim bench loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the simulator is imported from `src/`, so
nothing needs installing. One process, no worker processes or threads:
BLAS/OpenMP pools are pinned to one thread before numpy loads.

The workload (see workloads.py) runs closed loop for S seconds, checking
every operation's outputs; times are read in reference-host seconds, which
cancel most of a shared host's drift (see hostspeed.py). With `--trace 0`
the last stdout line reports the end-to-end metrics; with `--trace 1` the same operations are replayed with
every boundary of tracer.BOUNDARIES wrapped, and the last line reports the
per-layer metrics. The line before it is an information record: the
environment and identity block, every scenario with its digest and
precursors.csv sha256 against the committed reference set, and the checks.

Exit code 0 with a result line; 2 without one when `src/acpcsim` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_precursors.json"
WORKLOADS = ("envelope_campaign", "averaged_steady", "envelope_budgeted")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_EVERY_S = 0.05  # one set-up timed per this much operation time
SETUP_SEEDS = 8    # distinct scenarios those set-ups cycle through


def git_sha(root: Path):
    """HEAD commit of the checkout, or None when it is not a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(ROOT), "workload_seed": seed,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _p99(x) -> float:
    import numpy as np
    return float(np.percentile(x, 99)) if len(x) else 0.0


UNITS = {"setup_s": "s", "op_s": "s", "sim_s_per_s": "s/s",
         "cycles_per_s": "1/s", "scenarios_per_s": "1/s"}


def rates(ops, setups, key: str) -> dict:
    """The timing metrics, with each operation's time read from `key`."""
    t = [getattr(op, key) for op in ops]
    return {"setup_s": statistics.median(setups),
            "op_s": statistics.median(t),
            "sim_s_per_s": statistics.median(
                op.sim_s / x for op, x in zip(ops, t)),
            "cycles_per_s": statistics.median(
                op.cycles / x for op, x in zip(ops, t)),
            "scenarios_per_s": len(ops) / sum(t)}


def measure(wl, args, workdir: Path) -> tuple[dict, dict]:
    import hostspeed
    import workloads
    from hostspeed import Clock
    from tracer import BOUNDARIES, Tracer
    from acpcsim.cycling import N_DEVICES

    seeds = workloads.scenario_seeds(args.seed)
    first = list(islice(workloads.scenario_seeds(args.seed), SETUP_SEEDS))
    # untimed warm-up: first calls, imports done lazily, caches
    run_failures = [f"warm-up: {f}" for f in wl.warm_up(first[0], workdir)]
    clock = Clock()
    ops, setup, setup_ref = [], [], []
    t0 = perf_counter()
    for seed in seeds:
        op = wl.run_op(seed, workdir, clock)
        ops.append(op)
        # set-ups are sampled between operations in proportion to their
        # time, so both see the same mix of host conditions
        slowdown = clock.slowdown()
        for _ in range(max(1, round(op.wall_s / SETUP_EVERY_S))):
            setup.append(wl.setup(first[len(setup) % SETUP_SEEDS], workdir))
            setup_ref.append(setup[-1] / slowdown)
        # stop before an operation that would likely overrun the run
        if len(ops) >= wl.accuracy_ops and perf_counter() - t0 \
                + statistics.median(op.wall_s for op in ops) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for op in ops if op.failures)
    probe_s = statistics.median(clock.samples)

    reference = json.loads(REFERENCE.read_text()).get(wl.name, {}) \
        if REFERENCE.is_file() else {}
    status = ["none" if op.digest not in reference
              else "match" if reference[op.digest] == op.output_sha
              else "mismatch" for op in ops]
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "scale": args.scale,
            "environment": environment(args.seed),
            "scenarios": [{"seed": op.scenario_seed, "digest": op.digest,
                           "wall_s": op.wall_s, "sim_s": op.sim_s,
                           "cycles": op.cycles,
                           "output_sha256": op.output_sha,
                           "reference": st, "failures": op.failures,
                           **op.info} for op, st in zip(ops, status)],
            "reference": {"file": REFERENCE.name,
                          "matched": status.count("match"),
                          "mismatched": [op.digest for op, st in
                                         zip(ops, status) if st == "mismatch"],
                          "unreferenced": status.count("none")},
            "failed_frac": failed / len(ops)}

    if args.trace:
        with Tracer() as tr:
            # the probes call nothing wrapped, so they add no spans
            traced = [wl.run_op(op.scenario_seed, workdir, clock)
                      for op in ops]
        if [op.output_sha for op in traced] != [op.output_sha for op in ops]:
            run_failures.append("traced outputs differ from untraced ones")
        overhead = sum(op.ref_s for op in traced) - \
            sum(op.ref_s for op in ops)
        metrics = tr.metrics(N_DEVICES, overhead)
        metrics["host.probe_ms"] = (1e3 * probe_s, "ms")
        info["missing_boundaries"] = tr.missing
        info["predictions"] = {b.name: b.predicts for b in BOUNDARIES}
    else:
        acc, acc_failures = wl.accuracy(ops, workdir)
        run_failures += acc_failures
        info["host"] = {"probe_s": probe_s, "probes": len(clock.samples),
                        "ref_s": hostspeed.REF_S,
                        "host_seconds": rates(ops, setup, "wall_s")}
        metrics = {k: (v, UNITS[k])
                   for k, v in rates(ops, setup_ref, "ref_s").items()}
        metrics.update({
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": ((len(ops) - failed) / len(ops), "ratio"),
            "ron_err_p99_pct": (100.0 * _p99(acc.ron_rel), "%"),
            "tj_err_p99_c": (_p99(acc.tj_abs), "degC"),
        })
        info["accuracy_windows"] = len(acc.ron_rel)
        if not len(acc.ron_rel):
            run_failures.append("no acquisition window completed")
    info["run_failures"] = run_failures
    result = {"correct": failed == 0 and not run_failures,
              "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every operation (smoke tests only)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "acpcsim" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    for v in THREAD_VARS:
        os.environ[v] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    wl = workloads.make(args.workload, args.scale)
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        info, result = measure(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps({"perfbench_info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
