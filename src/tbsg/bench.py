"""Measurement harness: brute-force groundtruth, recall, QPS benchmarking,
build-time scaling fits, and Monte Carlo validation of the pruning bound.

Recall and distance-evaluation numbers are deterministic for a fixed index;
QPS is wall-clock and machine-dependent, so it is measured over repeated
sweeps and reported as the median.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .core import Dataset
from .index import (
    SearchParams,
    TbsgIndex,
    TbsgParams,
    build_tbsg,
    search_knn_with_stats,
)
from .knng import _exact_topk
from .pruning import TriangleGeom, min_prob, monte_carlo_prob

__all__ = [
    "GroundTruth",
    "brute_force_groundtruth",
    "recall",
    "BenchmarkRow",
    "run_benchmark",
    "write_report_csv",
    "read_report_csv",
    "ScalingRow",
    "ScalingResult",
    "scaling_experiment",
    "ProbCheckRow",
    "ProbCheckResult",
    "prob_check",
    "default_geometry_grid",
]


@dataclass
class GroundTruth:
    """Exact top-k ids per query, shape (num_queries, k)."""

    ids: np.ndarray

    @property
    def k(self) -> int:
        return self.ids.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroundTruth):
            return NotImplemented
        return np.array_equal(self.ids, other.ids)


def brute_force_groundtruth(dataset: Dataset, queries: Dataset, k: int) -> GroundTruth:
    """Exact top-k per query, as a full scan ranks it; ties broken by
    ascending id."""
    if queries.dim != dataset.dim:
        raise ValueError(
            f"query dim {queries.dim} does not match dataset dim {dataset.dim}"
        )
    if not 1 <= k <= dataset.count:
        raise ValueError(f"k must be in [1, {dataset.count}], got {k}")
    ids, _ = _exact_topk(dataset.vectors64, queries.vectors64, k)
    return GroundTruth(ids)


def recall(results, gt: GroundTruth) -> float:
    """Mean over queries (at least one) of |returned ids ∩ groundtruth ids| / k."""
    if len(results) != gt.ids.shape[0]:
        raise ValueError(
            f"result count {len(results)} does not match groundtruth {gt.ids.shape[0]}"
        )
    if gt.ids.shape[0] == 0:
        raise ValueError("queries must be non-empty")
    hits = 0
    for res, truth in zip(results, gt.ids):
        hits += np.intersect1d(np.asarray(res, dtype=np.int64), truth).size
    return hits / (gt.ids.shape[0] * gt.k)


@dataclass
class BenchmarkRow:
    l: int
    recall: float
    qps: float
    mean_distance_evals: float


def run_benchmark(
    index: TbsgIndex,
    dataset: Dataset,
    queries: Dataset,
    gt: GroundTruth,
    k: int,
    pool_sizes,
    repetitions: int = 3,
) -> list[BenchmarkRow]:
    """Single-threaded recall/QPS sweep over pool sizes: one row per pool
    size, ascending.

    Each pool size runs `repetitions` timed sweeps; their median wall-clock
    time yields QPS. Recall@k (against the first k groundtruth columns) and
    distance evaluations are deterministic, so they come from the first sweep.
    """
    if queries.count == 0:
        raise ValueError("queries must be non-empty")
    pool_sizes = sorted(int(l) for l in pool_sizes)
    if not pool_sizes:
        raise ValueError("pool_sizes must be non-empty")
    if pool_sizes[0] < k:
        raise ValueError(f"pool size {pool_sizes[0]} is smaller than k={k}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if gt.k < k:
        raise ValueError(f"groundtruth has {gt.k} columns, fewer than k={k}")
    gt_k = GroundTruth(gt.ids[:, :k])
    rows = []
    for l in pool_sizes:
        sp = SearchParams(l=l, k=k)
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            sweep = [
                search_knn_with_stats(index, dataset, queries.vector(qi), sp)
                for qi in range(queries.count)
            ]
            times.append(time.perf_counter() - t0)
            if len(times) == 1:
                first = sweep
        elapsed = statistics.median(times)
        rows.append(
            BenchmarkRow(
                l=l,
                recall=recall([ids for ids, _ in first], gt_k),
                qps=queries.count / elapsed if elapsed > 0 else float("inf"),
                mean_distance_evals=float(np.mean([ev for _, ev in first])),
            )
        )
    return rows


def _cells(row) -> dict:
    """A result row's columns by field name, a nested dataclass spread into
    its own fields in place."""
    out = {}
    for f in fields(row):
        value = getattr(row, f.name)
        out.update(_cells(value) if is_dataclass(value) else {f.name: value})
    return out


def write_report_csv(rows, path, metadata: dict[str, str] | None = None) -> None:
    """Write result rows: '# key=value' metadata lines, then a CSV table with
    one column per field (see _cells) and LF line ends. csv writes floats by
    repr, so every cell reads back to its exact value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for key in sorted(metadata or {}):
            fh.write(f"# {key}={metadata[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        for i, cells in enumerate(map(_cells, rows)):
            if i == 0:
                writer.writerow(cells)
            writer.writerow(cells.values())


def read_report_csv(path) -> tuple[list[BenchmarkRow], dict[str, str]]:
    """Inverse of write_report_csv for search reports: after
    write_report_csv(rows, path, metadata), read_report_csv(path) ==
    (rows, metadata)."""
    metadata: dict[str, str] = {}
    body = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                metadata[key] = value
            elif line:
                body.append(line.split(","))
    names = [f.name for f in fields(BenchmarkRow)]
    if not body or body[0] != names or any(len(cells) != len(names) for cells in body):
        raise ValueError(f"{path}: not a benchmark report CSV")
    rows = [BenchmarkRow(int(l), *map(float, rest)) for l, *rest in body[1:]]
    return rows, metadata


@dataclass
class ScalingRow:
    n: int
    build_seconds: float
    mean_distance_evals: float


@dataclass
class ScalingResult:
    """Prefix-size sweep plus least-squares exponents (None under 3 sizes).

    build_time_exponent: slope of log(build_seconds) vs log(n).
    evals_loglog_exponent: slope of log(mean evals) vs log(log n).
    """

    rows: list[ScalingRow]
    build_time_exponent: float | None
    evals_loglog_exponent: float | None


def scaling_experiment(
    dataset: Dataset,
    sizes,
    build_params: TbsgParams | None = None,
    search_params: SearchParams | None = None,
    query_count: int = 100,
) -> ScalingResult:
    """Build on dataset prefixes of the given sizes and search a fixed query set.

    The queries are query_count rows sampled (seeded) from the smallest
    prefix, so every built index sees the same queries.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly ascending, got {sizes}")
    if sizes[0] < 1 or sizes[-1] > dataset.count:
        raise ValueError(f"sizes must lie in [1, {dataset.count}], got {sizes}")
    if query_count < 1:
        raise ValueError(f"query_count must be >= 1, got {query_count}")
    if build_params is None:
        build_params = TbsgParams()
    if search_params is None:
        search_params = SearchParams(l=100, k=10)
    rng = np.random.Generator(np.random.PCG64(build_params.seed))
    picks = rng.choice(sizes[0], size=min(query_count, sizes[0]), replace=False)
    queries = Dataset(dataset.vectors[np.sort(picks)])
    rows = []
    for size in sizes:
        prefix = Dataset(dataset.vectors[:size])
        t0 = time.perf_counter()
        index = build_tbsg(prefix, build_params)
        build_seconds = time.perf_counter() - t0
        evals = [
            search_knn_with_stats(index, prefix, queries.vector(qi), search_params)[1]
            for qi in range(queries.count)
        ]
        rows.append(ScalingRow(size, build_seconds, float(np.mean(evals))))
    build_exp = evals_exp = None
    if len(rows) >= 3:
        ns = np.asarray([r.n for r in rows], dtype=np.float64)
        build_exp = float(
            np.polyfit(np.log(ns), np.log([r.build_seconds for r in rows]), 1)[0]
        )
        evals_exp = float(
            np.polyfit(
                np.log(np.log(ns)), np.log([r.mean_distance_evals for r in rows]), 1
            )[0]
        )
    return ScalingResult(rows, build_exp, evals_exp)


def default_geometry_grid() -> list[TriangleGeom]:
    """Standard validation grid: triangles parametrized by the angles at s
    and at e (law of sines, unit s-e side) crossed with three radii, plus
    hand-picked boundary rows.

    The probability guarantee presumes the exclusion precondition
    d_ve < d_se (non-negative bisector offset), so every row either
    satisfies it, sits exactly on it (equilateral, offset 0), or clamps the
    offset so hard that the bound degenerates to a trivial 0 or 1. One
    deliberately unrealizable row exercises the skip path.
    """
    grid: list[TriangleGeom] = []
    for alpha_deg in (10, 25, 40, 55):
        for theta_deg in (10, 25, 40, 55):
            alpha = math.radians(alpha_deg)
            theta = math.radians(theta_deg)
            d_sv = math.sin(theta) / math.sin(alpha + theta)
            d_ve = math.sin(alpha) / math.sin(alpha + theta)
            for r in (0.6, 1.0, 1.6):
                grid.append(TriangleGeom(d_se=1.0, d_sv=d_sv, d_ve=d_ve, r=r))
    grid.append(TriangleGeom(d_se=1.0, d_sv=1.0, d_ve=1.0, r=1.0))
    grid.append(TriangleGeom(d_se=1.0, d_sv=0.6, d_ve=0.5, r=0.3))
    grid.append(TriangleGeom(d_se=1.0, d_sv=2.0, d_ve=0.9, r=1.0))
    grid.append(TriangleGeom(d_se=1.0, d_sv=0.5, d_ve=1.4, r=0.8))
    return grid


@dataclass
class ProbCheckRow:
    geom: TriangleGeom
    dim: int
    min_prob: float
    estimate: float
    std_error: float
    bound_ok: bool


@dataclass
class ProbCheckResult:
    rows: list[ProbCheckRow]
    skipped: list[tuple[TriangleGeom, str]]


def prob_check(
    geometries=None, dims=(2, 3, 4), samples: int = 100_000, seed: int = 0
) -> ProbCheckResult:
    """Monte Carlo check that min_prob really is a lower bound.

    For every (geometry, dim) cell, bound_ok records whether
    estimate + 4 * std_error >= min_prob. Unrealizable geometries are
    skipped and reported rather than failing the run.
    """
    if samples < 10_000:
        raise ValueError(f"samples must be >= 10000, got {samples}")
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"dims must all be >= 2, got {dims}")
    if geometries is None:
        geometries = default_geometry_grid()
    rows: list[ProbCheckRow] = []
    skipped: list[tuple[TriangleGeom, str]] = []
    for gi, geom in enumerate(geometries):
        bound = min_prob(geom)
        for dim in dims:
            try:
                estimate, std_error = monte_carlo_prob(
                    geom, dim, samples=samples, seed=seed + 1009 * gi + dim
                )
            except ValueError as exc:
                skipped.append((geom, str(exc)))
                break
            rows.append(
                ProbCheckRow(
                    geom=geom,
                    dim=dim,
                    min_prob=bound,
                    estimate=estimate,
                    std_error=std_error,
                    bound_ok=estimate + 4.0 * std_error >= bound,
                )
            )
    return ProbCheckResult(rows, skipped)
