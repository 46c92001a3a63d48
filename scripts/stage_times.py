"""Print the median seconds of each build_tbsg stage over several builds,
the median milliseconds of saving and loading the index built, pruning's
median microseconds per candidate, and search's microseconds per query and
per expansion.

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

A second table times search_knn_with_stats on each selected perfbench
workload's index, one query at a time, at a pool size near its recall-0.99
point (SEARCH_POOLS): "us/query" is the median over SEARCH_SWEEPS sweeps of
the seed-1 queries perfbench's timed sweeps use (the first TIMED_QUERIES,
k = 10), "exp/query" the expansions per query, counted in one traced sweep
as the calls of tbsg.index.distances_to_many (one per expansion), and
"us/exp" the first over the second. Running the script in two checkouts
gives before and after numbers from one command.
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

from harness import TIMED_QUERIES  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import K_RESULTS, WORKLOADS  # noqa: E402

import tbsg.index  # noqa: E402
import tbsg.knng  # noqa: E402
from tbsg import (  # noqa: E402
    Dataset,
    SearchParams,
    TbsgParams,
    build_tbsg,
    generate_synthetic,
    load_index,
    save_index,
    search_knn_with_stats,
)

STAGES = {
    "build_cover_tree": "cover_tree",
    "build_knng": "knng",
    "add_reverse_edges": "reverse",
    "_select_from_arrays": "pruning",
}
IO_REPEATS = 20  # save_index and load_index calls per build; each takes about 0.1-1 ms
SEARCH_POOLS = {"desk": 15, "search32": 60, "sift128": 12}
SEARCH_SWEEPS = 7  # a sweep takes about 0.05-0.2 s


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


def timed_search(dataset: Dataset, params: TbsgParams, queries: np.ndarray, l: int) -> tuple:
    """Median microseconds per query over SEARCH_SWEEPS sweeps of `queries`
    at pool size l, and the expansions per query of one traced sweep run
    before them."""
    index = build_tbsg(dataset, params)
    sp = SearchParams(l=l, k=K_RESULTS)

    def sweep() -> float:
        t0 = time.perf_counter()
        for q in queries:
            search_knn_with_stats(index, dataset, q, sp)
        return time.perf_counter() - t0

    tracer = Tracer()
    tracer.wrap(tbsg.index, "distances_to_many", "distances_to_many")
    try:
        sweep()
    finally:
        tracer.unwrap()
    seconds = statistics.median(sweep() for _ in range(SEARCH_SWEEPS))
    return seconds / len(queries) * 1e6, tracer.count("distances_to_many") / len(queries)


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
    searched = [name for name in names if name in SEARCH_POOLS]
    if searched:
        print(
            f"# search: median of {SEARCH_SWEEPS} sweeps over the first {TIMED_QUERIES} seed-1 "
            f"queries, k={K_RESULTS}; us per query and per expansion"
        )
        print(f"{'set':<10}" + "".join(f"{c:>11}" for c in ("l", "us/query", "exp/query", "us/exp")))
        for name in searched:
            l = SEARCH_POOLS[name]
            queries = WORKLOADS[name].make(seed=1)[1][:TIMED_QUERIES]
            us, expansions = timed_search(*available[name], queries, l)
            row = "".join(f"{v:>11.4f}" for v in (us, expansions, us / expansions))
            print(f"{name:<10}{l:>11}{row}", flush=True)


if __name__ == "__main__":
    main()
