"""Measurement of one workload: the checked calls into the library, the
timed sweeps, and the traced run that gives the per-layer metrics."""

from __future__ import annotations

import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from tracing import Tracer
from workloads import K_RESULTS, LADDER, RECALL_TARGETS

OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 3
LOADS_PER_ROUND = 5
# Queries per timed sweep: short sweeps give many samples for the median.
TIMED_QUERIES = 200
PRUNE_SAMPLE = 100
# Nominal time of reference_loop, close to its median on the reference
# machine (9.1 ms over 300 runs).
REFERENCE_S = 0.009

END_TO_END = {
    "setup_s": "s",
    "qps_r95": "queries/s",
    "qps_r99": "queries/s",
    "evals_r99": "evals/query",
    "index_bytes": "bytes",
    "load_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "covertree.build_s": "s",
    "covertree.max_depth": "count",
    "knng.build_s": "s",
    "knng.recall": "ratio",
    "knng.reverse_s": "s",
    "knng.candidates": "count",
    "pruning.build_s": "s",
    "pruning.candidates": "count",
    "pruning.kept": "count",
    "pruning.keep_ratio": "ratio",
    "index.build_other_s": "s",
    "index.edges": "count",
    "index.max_degree": "count",
    "index.unreachable": "count",
    "index.search_expansions": "count/query",
    "index.search_pool_s": "s",
    "core.search_dist_s": "s",
}
# Span names of the layer entry points that index.build_tbsg and
# index._search_pool look up in their module, keyed by that attribute.
ENTRY_POINTS = {
    "build_cover_tree": "covertree.build_cover_tree",
    "build_knng": "knng.build_knng",
    "add_reverse_edges": "knng.add_reverse_edges",
    "_select_from_arrays": "pruning._select_from_arrays",
    "distances_to_many": "core.distances_to_many",
}
# The entry point each per-layer metric is measured at; when it is gone the
# metric is reported as absent.
NEEDS = {
    "covertree.build_s": "build_cover_tree",
    "covertree.max_depth": "build_cover_tree",
    "knng.build_s": "build_knng",
    "knng.recall": "build_knng",
    "knng.reverse_s": "add_reverse_edges",
    "knng.candidates": "add_reverse_edges",
    "pruning.build_s": "_select_from_arrays",
    "pruning.candidates": "_select_from_arrays",
    "pruning.kept": "_select_from_arrays",
    "pruning.keep_ratio": "_select_from_arrays",
    "index.search_expansions": "distances_to_many",
    "index.search_pool_s": "distances_to_many",
    "core.search_dist_s": "distances_to_many",
}


class Tally:
    """Operations attempted and failed; each failure is noted on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, what: str, ok) -> None:
        ok = np.atleast_1d(np.asarray(ok, dtype=bool))
        bad = int(ok.size - np.count_nonzero(ok))
        self.attempted += ok.size
        self.failed += bad
        if bad:
            print(f"FAILED {what}: {bad} of {ok.size}", file=sys.stderr)


class Run:
    """One workload's inputs, its exact answers, and the checked calls into
    the library."""

    def __init__(self, lib, wl, seed: int, tally: Tally):
        self.lib, self.wl, self.seed, self.tally = lib, wl, seed, tally
        self.k = K_RESULTS
        self.base, self.queries = wl.make(seed)
        self.base64 = self.base.astype(np.float64)
        self.queries64 = self.queries.astype(np.float64)
        self.kth = oracle.kth_distances(self.base64, self.queries64, self.k)
        self.params = lib.TbsgParams(**wl.build_params())

    def build(self):
        """A fresh Dataset and an index built on it, with the build's wall time."""
        ds = self.lib.Dataset(self.base)
        t0 = time.perf_counter()
        index = self.lib.build_tbsg(ds, self.params)
        return ds, index, time.perf_counter() - t0

    def check_index(self, index) -> None:
        ok = bool(np.all(oracle.check_adjacency(index.adjacency, self.base64, self.wl.m)))
        rng = np.random.Generator(np.random.PCG64(self.seed))
        sample = rng.choice(self.wl.n, size=min(PRUNE_SAMPLE, self.wl.n), replace=False)
        ok &= all(
            oracle.pruning_violations(int(s), index.adjacency[s], self.base64, self.wl.mp) == 0
            for s in sample
        )
        self.tally.add("build: index structure and pruning rule", ok)

    def check_groundtruth(self, ds) -> None:
        gt = self.lib.brute_force_groundtruth(ds, self.lib.Dataset(self.queries), self.k)
        ok, ids = oracle.check_results(list(gt.ids), self.base64, self.queries64, self.k)
        ok = bool(np.all(ok)) and bool(
            np.all(oracle.hits(ids, self.base64, self.queries64, self.kth) == self.k)
        )
        self.tally.add("brute_force_groundtruth against the oracle", ok)

    def sweep(self, index, ds, l: int, count=None, search=None, expect=None):
        """Search the first `count` queries (all by default) once each at
        pool size l, one at a time.

        Returns (ids, recall, mean evals, seconds); every result is checked,
        and against `expect` too when given.
        """
        search = search or self.lib.search_knn_with_stats
        sp = self.lib.SearchParams(l=l, k=self.k)
        queries = self.queries[:count]
        queries64 = self.queries64[:count]
        out = [None] * queries.shape[0]
        t0 = time.perf_counter()
        for i in range(queries.shape[0]):
            out[i] = search(index, ds, queries[i], sp)
        seconds = time.perf_counter() - t0
        ok, ids = oracle.check_results([r[0] for r in out], self.base64, queries64, self.k)
        if ids is None:
            self.tally.add(f"search l={l}", ok)
            return None, 0.0, 0.0, seconds
        if expect is not None:
            ok &= np.all(ids == expect[: ids.shape[0]], axis=1)
        self.tally.add(f"search l={l}", ok)
        hits = oracle.hits(ids, self.base64, queries64, self.kth[: ids.shape[0]])
        evals = float(np.mean([r[1] for r in out]))
        return ids, float(hits.mean() / self.k), evals, seconds

    def ladder(self, index, ds):
        """Sweep the pool-size ladder upwards until the highest recall
        target is met; this is also the warm-up for the timed sweeps."""
        pools, recalls, evals, ids = [], [], [], []
        for l in LADDER:
            got, r, e, _ = self.sweep(index, ds, l)
            pools.append(l)
            recalls.append(r)
            evals.append(e)
            ids.append(got)
            print(f"  l={l:<4d} recall@{self.k}={r:.4f} evals/query={e:.1f}")
            if r >= max(RECALL_TARGETS):
                break
        return pools, recalls, evals, ids

    def read_target(self, recalls, values, target: float) -> float:
        value = oracle.at_recall(recalls, values, target)
        self.tally.add(f"recall {target} reached on the ladder", value is not None)
        return values[-1] if value is None else value


_REFERENCE = np.random.Generator(np.random.PCG64(5))
_REFERENCE_X = _REFERENCE.standard_normal((400, 32))
_REFERENCE_Q = _REFERENCE.standard_normal(32)
_REFERENCE_IDS = _REFERENCE.integers(0, 400, (512, 20))


def reference_loop() -> float:
    """Wall time of a fixed loop of small NumPy operations (gather, einsum,
    concatenate, lexsort: the kind of work a search does) that uses nothing
    of the library.

    The reference machine (see README) runs the same code at two speeds
    about 1.5x apart, switching every few seconds to minutes. Dividing each
    timed sample by the reference loop's time right after it cancels that:
    over eight desk runs the quartile spread of qps_r95 fell from 0.38 to
    0.03 and that of load_ms from 0.38 to 0.04.
    """
    t0 = time.perf_counter()
    pool_ids = np.empty(0, dtype=np.int64)
    pool_d = np.empty(0)
    for ids in _REFERENCE_IDS:
        diff = _REFERENCE_X[ids] - _REFERENCE_Q
        pool_ids = np.concatenate([pool_ids, ids])
        pool_d = np.concatenate([pool_d, np.sqrt(np.einsum("ij,ij->i", diff, diff))])
        keep = np.lexsort((pool_ids, pool_d))[:40]
        pool_ids, pool_d = pool_ids[keep], pool_d[keep]
    return time.perf_counter() - t0


def at_reference(samples) -> float:
    """Median of (sample time / reference loop time), in seconds at the
    reference speed: the speed at which the loop takes REFERENCE_S."""
    return statistics.median(t / r for t, r in samples) * REFERENCE_S


def end_to_end(lib, wl, seed: int, seconds: float, tally: Tally) -> dict:
    run = Run(lib, wl, seed, tally)
    setup, index = [], None
    for _ in range(SETUP_REPEATS):
        before = reference_loop()
        ds, built, took = run.build()
        setup.append((took, (before + reference_loop()) / 2))
        if index is None:
            index = built
            run.check_index(index)
        else:
            tally.add("repeat build equals the first", built == index)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-{seed}.tbsg"
    lib.save_index(index, path)
    raw = path.read_bytes()
    tally.add(
        "save_index writes the documented file",
        oracle.file_matches(raw, index.n, index.m, index.enter_point, index.adjacency),
    )

    def load() -> float:
        t0 = time.perf_counter()
        loaded = lib.load_index(path)
        took = time.perf_counter() - t0
        tally.add("load_index round trip", loaded == index)
        return took

    run.check_groundtruth(ds)
    pools, recalls, evals, expect = run.ladder(index, ds)

    timed = sorted(
        {
            pools[i]
            for t in RECALL_TARGETS
            for i in (oracle.bracket(recalls, t) or (len(pools) - 1,))
        }
    )
    # Each timed sample is paired with a run of the reference loop made right
    # after it; see reference_loop. Loads are spread over the rounds too.
    count = min(TIMED_QUERIES, wl.queries)
    times = {l: [] for l in timed}
    loads = []
    start = time.perf_counter()
    while True:
        for l in timed:
            got = run.sweep(index, ds, l, count=count, expect=expect[pools.index(l)])
            times[l].append((got[3], reference_loop()))
        took = sum(load() for _ in range(LOADS_PER_ROUND)) / LOADS_PER_ROUND
        loads.append((took, reference_loop()))
        if time.perf_counter() - start >= seconds:
            break
    path.unlink()
    qps = [count / at_reference(times[l]) if l in times else float("nan") for l in pools]
    for l in timed:
        wall = statistics.median(t for t, _ in times[l])
        print(
            f"  l={l:<4d} qps={qps[pools.index(l)]:.1f} at reference speed, "
            f"{count / wall:.1f} wall-clock, over {len(times[l])} sweeps"
        )
    print(
        f"  reference loop median {statistics.median(r for _, r in loads) * 1e3:.3f} ms "
        f"(nominal {REFERENCE_S * 1e3:.3f} ms); load_index wall-clock median "
        f"{statistics.median(t for t, _ in loads) * 1e3:.3f} ms"
    )
    return {
        "setup_s": at_reference(setup),
        "qps_r95": run.read_target(recalls, qps, 0.95),
        "qps_r99": run.read_target(recalls, qps, 0.99),
        "evals_r99": run.read_target(recalls, evals, 0.99),
        "index_bytes": len(raw),
        "load_ms": at_reference(loads) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def tree_depth(tree, n: int) -> int:
    parent = [tree.parent(p) for p in range(n)]
    depth = [-1] * n
    depth[tree.root] = 0
    for p in range(n):
        chain = []
        while depth[p] < 0:
            chain.append(p)
            p = parent[p]
        d = depth[p]
        for c in reversed(chain):
            d += 1
            depth[c] = d
    return max(depth)


def per_layer(lib, wl, seed: int, tally: Tally) -> dict:
    """Untraced build and ladder, then the same build and one sweep at the
    smallest pool meeting recall 0.99, with spans around the layer entry
    points."""
    run = Run(lib, wl, seed, tally)
    builds = [run.build() for _ in range(SETUP_REPEATS)]
    index = builds[0][1]
    untraced_build = statistics.median(b[2] for b in builds)
    run.check_index(index)
    ds = lib.Dataset(run.base)
    pools, recalls, _, expect = run.ladder(index, ds)
    at = (oracle.bracket(recalls, 0.99) or (len(pools) - 1,))[-1]
    l99 = pools[at]
    untraced_sweep = run.sweep(index, ds, l99, expect=expect[at])[3]

    tracer = Tracer()
    seen = {"candidates": 0, "kept": 0}

    def keep(key):
        return lambda args, result: seen.__setitem__(key, result)

    def count_pruning(args, result):
        seen["candidates"] += len(args[1])
        seen["kept"] += len(result)

    observers = {
        "build_cover_tree": keep("tree"),
        "build_knng": keep("knng"),
        "add_reverse_edges": keep("bknng"),
        "_select_from_arrays": count_pruning,
    }
    for attr, name in ENTRY_POINTS.items():
        tracer.wrap(lib.index, attr, name, observers.get(attr))
    try:
        tracer.trace = "build"
        traced = tracer.call("index.build_tbsg", lib.build_tbsg, (lib.Dataset(run.base), run.params))
        qi = iter(range(wl.queries))

        def search(*args):
            tracer.trace = f"q{next(qi)}"
            return tracer.call("index.search", lib.search_knn_with_stats, args)

        traced_sweep = run.sweep(traced, ds, l99, search=search, expect=expect[at])[3]
    finally:
        tracer.unwrap()

    OUT.mkdir(exist_ok=True)
    paths = [OUT / f"{wl.name}-{seed}-{tag}.tbsg" for tag in ("untraced", "traced")]
    lib.save_index(index, paths[0])
    lib.save_index(traced, paths[1])
    tally.add("traced build saves the same bytes", paths[0].read_bytes() == paths[1].read_bytes())
    for p in paths:
        p.unlink()
    tracer.write(OUT / f"trace-{wl.name}-{seed}.csv")

    build_s = tracer.seconds("index.build_tbsg", "build")
    layer = {
        key: tracer.seconds(ENTRY_POINTS[attr], "build")
        for key, attr in (
            ("covertree.build_s", "build_cover_tree"),
            ("knng.build_s", "build_knng"),
            ("knng.reverse_s", "add_reverse_edges"),
            ("pruning.build_s", "_select_from_arrays"),
        )
    }
    dist_s = tracer.seconds("core.distances_to_many", "q")
    search_s = tracer.seconds("index.search", "q")
    degrees = np.asarray([len(a) for a in traced.adjacency])
    knn = seen.get("knng")
    if knn is not None:
        kth = oracle.kth_distances(run.base64, run.base64, knn.ids.shape[1], exclude_self=True)
        knn_recall = oracle.hits(knn.ids, run.base64, run.base64, kth).sum() / knn.ids.size
    metrics = {
        "covertree.build_s": layer["covertree.build_s"],
        "covertree.max_depth": tree_depth(seen["tree"], wl.n) if "tree" in seen else None,
        "knng.build_s": layer["knng.build_s"],
        "knng.recall": float(knn_recall) if knn is not None else None,
        "knng.reverse_s": layer["knng.reverse_s"],
        "knng.candidates": int(seen["bknng"].ids.size) if "bknng" in seen else None,
        "pruning.build_s": layer["pruning.build_s"],
        "pruning.candidates": seen["candidates"],
        "pruning.kept": seen["kept"],
        "pruning.keep_ratio": seen["kept"] / max(seen["candidates"], 1),
        "index.build_other_s": build_s - sum(layer.values()),
        "index.edges": int(degrees.sum()),
        "index.max_degree": int(degrees.max()),
        "index.unreachable": oracle.unreachable(traced.adjacency, traced.enter_point),
        "index.search_expansions": tracer.count("core.distances_to_many", "q") / wl.queries,
        "index.search_pool_s": search_s - dist_s,
        "core.search_dist_s": dist_s,
    }
    absent = set(tracer.absent)
    for name, attr in NEEDS.items():
        if ENTRY_POINTS[attr] in absent:
            metrics[name] = None
    if absent:
        print(f"  absent entry points: {', '.join(sorted(absent))}")
    print(
        f"  tracing overhead: build {build_s:.3f} s traced vs {untraced_build:.3f} s untraced "
        f"({build_s - untraced_build:+.3f} s); sweep at l={l99} {traced_sweep:.3f} s traced "
        f"vs {untraced_sweep:.3f} s untraced ({traced_sweep - untraced_sweep:+.3f} s)"
    )
    return metrics


