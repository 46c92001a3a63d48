"""Print the median seconds of each build_tbsg stage over several builds,
the median milliseconds of saving and loading the index built, and
pruning's median microseconds per candidate.

    python3 scripts/stage_times.py [--builds 5] [--sets desk,c09-16k]

The stages are the cover tree, the exact KNNG, the reverse edges (which
also merge in the tree edges) and pruning, each timed by a span of
perfbench's Tracer (perfbench/tracing.py, read only) around the name
tbsg.index calls it by; "other" is the rest of build_tbsg. After each build,
save_index writes the index to a temporary directory and load_index reads it
back, each IO_REPEATS times; "save" and "load" are their medians.
"us/cand" is pruning's seconds over the candidates it was handed (the
length of _select_from_arrays' candidate ids), in microseconds. The sets
are the perfbench base sets (perfbench/workloads.py, read only) with each
workload's build profile, and the 2k and 16k prefixes of criterion 09's set
(generate_synthetic(16000, 16, clusters=1, spread=1.0, seed=7), K=m=20,
seed 3). The first line names the machine, since seconds depend on it,
with the BLAS thread count the library's guard reads outside its calls
(the exact top-k's matmuls run on one).
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import tbsg.index  # noqa: E402
import tbsg.knng  # noqa: E402
from tbsg import Dataset, TbsgParams, build_tbsg, generate_synthetic, load_index, save_index  # noqa: E402

STAGES = {
    "build_cover_tree": "cover_tree",
    "build_knng": "knng",
    "add_reverse_edges": "reverse",
    "_select_from_arrays": "pruning",
}
IO_REPEATS = 20  # save_index and load_index calls per build; each takes about 0.1-1 ms


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older NumPy: no dict mode
        blas = "unknown BLAS"
    threads = tbsg.knng._one_blas_thread.get()
    threads = "unknown" if threads is None else threads
    return (
        f"{os.cpu_count()} cores, {cpu}, Python {platform.python_version()}, "
        f"NumPy {np.__version__} / {blas}, {threads} BLAS threads"
    )


def sets() -> dict:
    """name -> (dataset, build params)."""
    out = {}
    for name, wl in WORKLOADS.items():
        out[name] = (Dataset(wl.make(seed=0)[0]), TbsgParams(**wl.build_params()))
    c09 = generate_synthetic(16_000, 16, clusters=1, spread=1.0, seed=7).vectors
    for n in (2000, 16_000):
        out[f"c09-{n // 1000}k"] = (Dataset(c09[:n]), TbsgParams(K=20, m=20, seed=3))
    return out


def timed_build(dataset: Dataset, params: TbsgParams, path: Path) -> dict:
    """One build's seconds per stage, "other" and "total" included, the
    median milliseconds of save_index and load_index on the built index
    through `path`, and pruning's microseconds per candidate."""
    candidates = []

    def count(args, _):
        candidates.append(len(args[1]))

    tracer = Tracer()
    for name in STAGES:
        tracer.wrap(tbsg.index, name, name, observe=count if name == "_select_from_arrays" else None)
    try:
        index = tracer.call("build_tbsg", build_tbsg, (dataset, params))
    finally:
        tracer.unwrap()
    spent = {stage: tracer.seconds(name) for name, stage in STAGES.items()}
    total = tracer.seconds("build_tbsg")
    spent["other"] = total - sum(spent.values())
    spent["total"] = total
    for name, call in (("save", lambda: save_index(index, path)), ("load", lambda: load_index(path))):
        took = []
        for _ in range(IO_REPEATS):
            t0 = time.perf_counter()
            call()
            took.append(time.perf_counter() - t0)
        spent[name] = statistics.median(took) * 1e3
    spent["us/cand"] = spent["pruning"] / sum(candidates) * 1e6
    return spent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--builds", type=int, default=5, help="builds per set (default 5)")
    parser.add_argument("--sets", default=None, help="comma-separated set names (default all)")
    args = parser.parse_args()
    if args.builds < 1:
        parser.error("--builds must be >= 1")
    available = sets()
    names = args.sets.split(",") if args.sets else list(available)
    unknown = [name for name in names if name not in available]
    if unknown:
        parser.error(f"unknown set(s) {unknown}; choose from {list(available)}")
    print(
        f"# {machine()}; median of {args.builds} builds; stages in seconds, save and load in ms, "
        "pruning's us per candidate"
    )
    columns = list(STAGES.values()) + ["other", "total", "save", "load", "us/cand"]
    print(f"{'set':<10}" + "".join(f"{c:>11}" for c in columns))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.tbsg"
        for name in names:
            runs = [timed_build(*available[name], path) for _ in range(args.builds)]
            medians = [statistics.median(r[c] for r in runs) for c in columns]
            print(f"{name:<10}" + "".join(f"{m:>11.4f}" for m in medians), flush=True)


if __name__ == "__main__":
    main()
