"""Print one SHA-256 per pinned build output, to diff two checkouts.

    python3 scripts/fingerprint.py > fingerprints.txt

A change meant to keep every output byte prints the same lines as its
parent. The outputs are:

- save_index bytes of the perfbench base sets (perfbench/workloads.py, read
  only), built with each workload's profile in both radius modes;
- save_index bytes of the criterion-06 desk index (10k x 16, default
  parameters);
- the kept positions of pruning's rng and nssg rules on the desk base set's
  real pool (build_tbsg prunes with tbsg alone, so the index hashes do not
  pin the other two rules), and of all three rules on 3,000 points in 100
  tight clusters (spread 0.005), on the same moved by +100 and on the same
  scaled by 2^-70, past the range of pruning's float32 pair test;
- NN-descent ids and distances on criterion 08's set, on a 20k x 16 set
  whose rounds propose enough pairs to split the merge into several shards,
  and after one round at K=100 on the desk base set, where the join pools
  hold 60 of each node's 100 entries, so their random selection is pinned;
- exact KNNG ids and distances at K=20 on criterion 09's 16k x 16 set, which
  takes the sampled-cut shortlist, and on 200 rows taken 30 times, where
  many points have K + 1 exact duplicates of lower id;
- the cover tree's parents on criterion 09's set (seed 3), whose inserts
  rank the root's children through the same exact top-k;
- the report CSV bytes of a seeded prob_check (dims 2 and 3, 10k samples),
  which pin write_report_csv's format;
- save_index bytes of build_tbsg on 1, 2 and 3 points in both radius modes,
  where the KNNG rows hold 0, 1 and 2 neighbours;
- generate_synthetic's bytes for 1 and 4 clusters at spread 0 and 1;
- the ids and evals search_knn_with_stats returns for each perfbench
  workload's seed-1 queries at pool sizes 1, 2, 10, 20 and 60 (k = 10, or
  l where l is smaller), on the workload's index in its profile, so a
  change to the search path can be diffed across checkouts; at l = 1 and 2
  the pool is full from its first entry, so every insertion meets the
  pool's last slot.

The whole run took 26-27 s on a 2-core Xeon (Python 3.11.7, NumPy 2.4.6 /
OpenBLAS).
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from tracing import Tracer  # noqa: E402
from workloads import K_RESULTS, WORKLOADS  # noqa: E402

import tbsg.index  # noqa: E402
from tbsg import (  # noqa: E402
    Dataset,
    SearchParams,
    StrategyParams,
    TbsgParams,
    build_cover_tree,
    build_exact_knng,
    build_knng,
    build_tbsg,
    generate_synthetic,
    save_index,
    search_knn_with_stats,
)
from tbsg.bench import prob_check, write_report_csv  # noqa: E402
from tbsg.pruning import _select_from_arrays  # noqa: E402


def _index_sha(dataset: Dataset, params: TbsgParams, tmp: Path) -> str:
    path = tmp / "index.tbsg"
    save_index(build_tbsg(dataset, params), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _pool(dataset: Dataset, params: TbsgParams) -> tuple:
    """The (offsets, ids, dists) pool build_tbsg hands to the pruning stage."""
    pools = []

    def capture(args, _):
        pools.append(args[:3])

    tracer = Tracer()
    tracer.wrap(tbsg.index, "_select_from_arrays", "pruning", observe=capture)
    try:
        build_tbsg(dataset, params)
    finally:
        tracer.unwrap()
    return pools[0]


def _print_kept(label: str, dataset: Dataset, params: TbsgParams, strategies) -> None:
    """Hash the kept positions of each rule on build_tbsg's pool."""
    pool = _pool(dataset, params)
    for strategy in strategies:
        kept = _select_from_arrays(*pool, StrategyParams(strategy, m=params.m, mp=params.mp), dataset)
        sha = hashlib.sha256(kept.tobytes()).hexdigest()
        print(f"pruning {label} {strategy}  {sha}", flush=True)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, wl in WORKLOADS.items():
            base, _ = wl.make(seed=0)
            for r_mode in ("dynamic", "static"):
                params = TbsgParams(**wl.build_params(), r_mode=r_mode)
                sha = _index_sha(Dataset(base), params, tmp)
                print(f"index {name} {r_mode}  {sha}", flush=True)
        desk = generate_synthetic(10_100, 16, clusters=4, spread=1.0, seed=11)
        desk = Dataset(desk.vectors[:10_000])
        print(f"index criterion-06  {_index_sha(desk, TbsgParams(), tmp)}", flush=True)
    base, _ = WORKLOADS["desk"].make(seed=0)
    params = TbsgParams(**WORKLOADS["desk"].build_params())
    _print_kept("desk", Dataset(base), params, ("rng", "nssg"))
    tight = generate_synthetic(3000, 16, clusters=100, spread=0.005, seed=0).vectors
    for label, rows in (("tight", tight), ("tight+100", tight + 100), ("tight-x2^-70", tight * 2.0**-70)):
        _print_kept(label, Dataset(rows), TbsgParams(K=20, m=20), ("rng", "nssg", "tbsg"))
    runs = [
        ("criterion-08", generate_synthetic(2000, 16, clusters=4, spread=1.0, seed=8), 20, 10, 8),
        ("20k-x-16", generate_synthetic(20_000, 16, seed=7), 20, 10, 3),
        ("desk-K100", Dataset(base), 100, 1, 0),
    ]
    for label, ds, K, iterations, seed in runs:
        kg = build_knng(ds, K, iterations=iterations, seed=seed)
        for part, values in (("ids", kg.ids), ("dists", kg.dists)):
            sha = hashlib.sha256(values.tobytes()).hexdigest()
            print(f"nn-descent {label} {part}  {sha}", flush=True)
    c09 = generate_synthetic(16_000, 16, clusters=1, spread=1.0, seed=7)
    tiled = Dataset(np.tile(generate_synthetic(200, 8, seed=0).vectors, (30, 1)))
    for label, ds in (("criterion-09", c09), ("200-x-8-tiled-30", tiled)):
        kg = build_exact_knng(ds, 20)
        for part, values in (("ids", kg.ids), ("dists", kg.dists)):
            sha = hashlib.sha256(values.tobytes()).hexdigest()
            print(f"exact-knng {label} {part}  {sha}", flush=True)
    parents = build_cover_tree(c09, seed=3).parents()
    print(f"cover-tree criterion-09  {hashlib.sha256(parents.tobytes()).hexdigest()}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prob-check.csv"
        write_report_csv(prob_check(dims=(2, 3), samples=10_000, seed=0).rows, path)
        print(f"report prob-check  {hashlib.sha256(path.read_bytes()).hexdigest()}", flush=True)
        for n in (1, 2, 3):
            for r_mode in ("dynamic", "static"):
                params = TbsgParams(r_mode=r_mode)
                sha = _index_sha(generate_synthetic(n, 4, seed=0), params, Path(tmp))
                print(f"index {n}-point {r_mode}  {sha}", flush=True)
    for clusters in (1, 4):
        for spread in (0.0, 1.0):
            ds = generate_synthetic(1000, 8, clusters=clusters, spread=spread, seed=0)
            sha = hashlib.sha256(ds.vectors.tobytes()).hexdigest()
            print(f"synthetic clusters={clusters} spread={spread:g}  {sha}", flush=True)
    for name, wl in WORKLOADS.items():
        base, queries = wl.make(seed=1)
        ds = Dataset(base)
        index = build_tbsg(ds, TbsgParams(**wl.build_params()))
        for l in (1, 2, 10, 20, 60):
            sp = SearchParams(l=l, k=min(l, K_RESULTS))
            ids, evals = zip(*(search_knn_with_stats(index, ds, q, sp) for q in queries))
            for part, values in (("ids", ids), ("evals", evals)):
                sha = hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()
                print(f"search {name} l={l} {part}  {sha}", flush=True)


if __name__ == "__main__":
    main()
