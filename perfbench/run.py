#!/usr/bin/env python3
"""Benchmark of tbsg: set-up time, QPS and distance evaluations at fixed
recall, index size, load time and peak memory.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from its `src`.
--trace 0 measures the end-to-end metrics; --trace 1 is a separate traced
run that reports the per-layer metrics. `--workload all` runs every workload,
each in its own process. One client searches one query at a time in a closed
loop. Every output is checked against the exact computations in oracle.py.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cap_blas_threads() -> None:
    """At most one BLAS thread per core this process may run on; must run
    before NumPy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cap:
            os.environ[var] = str(cap)


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tbsg

    if Path(tbsg.__file__).resolve().parent != src / "tbsg":
        raise ImportError(f"tbsg was imported from {tbsg.__file__}, not from {src}")
    return tbsg


def run_all(args) -> int:
    """Every workload in its own process; the last line sums their counts."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cap_blas_threads()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import harness

    wl = WORKLOADS[args.workload]
    tally = harness.Tally()
    print(f"workload {wl.name}: n={wl.n} dim={wl.dim} queries={wl.queries} seed={args.seed} "
          f"K={wl.K} m={wl.m} mp={wl.mp} trace={args.trace}")
    if args.trace:
        metrics, units = harness.per_layer(lib, wl, args.seed, tally), harness.PER_LAYER
    else:
        metrics, units = harness.end_to_end(lib, wl, args.seed, args.seconds, tally), harness.END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<24} {value if value is not None else 'absent'} {units[name]}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
