"""Groundtruth, recall, benchmark reports, scaling fits, and the bound check."""

import numpy as np
import pytest

from tbsg import (
    Dataset,
    SearchParams,
    TbsgParams,
    TriangleGeom,
    build_exact_knng,
    build_tbsg,
    generate_synthetic,
)
from tbsg.bench import (
    BenchmarkRow,
    GroundTruth,
    brute_force_groundtruth,
    default_geometry_grid,
    prob_check,
    read_report_csv,
    recall,
    run_benchmark,
    scaling_experiment,
    write_report_csv,
)
from tbsg.pruning import _bisector_offset


class TestGroundTruth:
    def test_query_equal_to_base_point(self):
        ds = generate_synthetic(30, 4, seed=0)
        gt = brute_force_groundtruth(ds, Dataset(ds.vectors[7:8]), 1)
        assert gt.ids.tolist() == [[7]]

    def test_k_equals_n_is_full_permutation(self):
        ds = generate_synthetic(20, 3, seed=1)
        q = generate_synthetic(1, 3, seed=2)
        gt = brute_force_groundtruth(ds, q, 20)
        assert sorted(gt.ids[0].tolist()) == list(range(20))
        d = np.sqrt(np.einsum("ij,ij->i", ds.vectors64 - q.vectors64[0], ds.vectors64 - q.vectors64[0]))
        assert np.all(np.diff(d[gt.ids[0]]) >= 0)

    def test_agrees_with_exact_knng(self):
        # Dataset as its own query set: column 0 is each point itself, the
        # remainder must equal the exact neighbor graph.
        ds = generate_synthetic(100, 5, seed=3)
        gt = brute_force_groundtruth(ds, ds, 9)
        kg = build_exact_knng(ds, 8)
        np.testing.assert_array_equal(gt.ids[:, 0], np.arange(100))
        np.testing.assert_array_equal(gt.ids[:, 1:], kg.ids)

    def test_validation(self):
        ds = generate_synthetic(10, 4, seed=0)
        with pytest.raises(ValueError, match="dim"):
            brute_force_groundtruth(ds, generate_synthetic(5, 3, seed=0), 2)
        with pytest.raises(ValueError, match="k must be"):
            brute_force_groundtruth(ds, ds, 11)
        with pytest.raises(ValueError, match="k must be"):
            brute_force_groundtruth(ds, ds, 0)

    def test_equality(self):
        a = GroundTruth(np.array([[1, 2]]))
        assert a == GroundTruth(np.array([[1, 2]]))
        assert a != GroundTruth(np.array([[2, 1]]))


class TestRecall:
    def test_exact_match(self):
        gt = GroundTruth(np.array([[1, 2], [3, 4]]))
        assert recall([[2, 1], [3, 4]], gt) == 1.0

    def test_disjoint(self):
        gt = GroundTruth(np.array([[1, 2], [3, 4]]))
        assert recall([[5, 6], [7, 8]], gt) == 0.0

    def test_half_overlap(self):
        gt = GroundTruth(np.arange(10).reshape(1, 10))
        assert recall([[0, 1, 2, 3, 4, 50, 51, 52, 53, 54]], gt) == 0.5

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            recall([[1]], GroundTruth(np.array([[1], [2]])))

    def test_no_queries(self):
        with pytest.raises(ValueError, match="non-empty"):
            recall([], GroundTruth(np.empty((0, 3), dtype=np.int64)))


class TestRunBenchmark:
    def _tiny(self):
        ds = generate_synthetic(40, 4, clusters=1, spread=1.0, seed=4)
        index = build_tbsg(ds, TbsgParams(K=8, m=10, seed=0))
        queries = generate_synthetic(15, 4, clusters=1, spread=1.0, seed=5)
        gt = brute_force_groundtruth(ds, queries, 5)
        return index, ds, queries, gt

    def test_exhaustive_pool_gets_full_recall(self):
        index, ds, queries, gt = self._tiny()
        rows = run_benchmark(index, ds, queries, gt, 5, [40], repetitions=1)
        assert len(rows) == 1
        assert rows[0].recall == 1.0
        assert rows[0].qps > 0
        assert rows[0].mean_distance_evals > 0

    def test_row_per_pool_size_ascending(self):
        index, ds, queries, gt = self._tiny()
        rows = run_benchmark(index, ds, queries, gt, 5, [20, 5, 10], repetitions=1)
        assert [r.l for r in rows] == [5, 10, 20]

    def test_validation(self):
        index, ds, queries, gt = self._tiny()
        with pytest.raises(ValueError, match="smaller than k"):
            run_benchmark(index, ds, queries, gt, 5, [3])
        with pytest.raises(ValueError, match="non-empty"):
            run_benchmark(index, ds, queries, gt, 5, [])
        with pytest.raises(ValueError, match="repetitions"):
            run_benchmark(index, ds, queries, gt, 5, [10], repetitions=0)
        with pytest.raises(ValueError, match="fewer than k"):
            run_benchmark(index, ds, queries, GroundTruth(gt.ids[:, :4]), 5, [10])

    def test_rejects_empty_queries(self):
        index, ds, _, _ = self._tiny()
        empty = Dataset(np.empty((0, 4), dtype=np.float32))
        gt = GroundTruth(np.empty((0, 5), dtype=np.int64))
        with pytest.raises(ValueError, match="queries must be non-empty"):
            run_benchmark(index, ds, empty, gt, 5, [10], repetitions=1)

    def test_recall_scores_the_first_k_groundtruth_columns(self):
        index, ds, queries, gt = self._tiny()
        wide = brute_force_groundtruth(ds, queries, 20)
        assert np.array_equal(wide.ids[:, :5], gt.ids)
        narrow_rows = run_benchmark(index, ds, queries, gt, 5, [10, 40], repetitions=2)
        wide_rows = run_benchmark(index, ds, queries, wide, 5, [10, 40], repetitions=2)
        assert [r.recall for r in wide_rows] == [r.recall for r in narrow_rows]
        assert wide_rows[1].recall == 1.0


class TestReportCsv:
    def test_round_trip_exact(self, tmp_path):
        rows = [
            BenchmarkRow(l=10, recall=1 / 3, qps=1234.5678901234567, mean_distance_evals=87.25),
            BenchmarkRow(l=20, recall=0.9999999999999999, qps=2.5e-3, mean_distance_evals=1e9),
        ]
        metadata = {"dataset": "synth", "k": "10", "odd value": "a=b,c"}
        path = tmp_path / "r.csv"
        write_report_csv(rows, path, metadata)
        assert read_report_csv(path) == (rows, metadata)  # floats round-trip via repr

    def test_rejects_non_report(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("a,b,c\n1,2,3\n", "l,recall,qps,mean_distance_evals\n10,1.0,5.0\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="not a benchmark report"):
                read_report_csv(path)


class TestScalingExperiment:
    def test_single_size_has_no_fit(self):
        ds = generate_synthetic(1000, 4, seed=6)
        result = scaling_experiment(
            ds, [1000],
            build_params=TbsgParams(K=5, m=6, seed=0),
            search_params=SearchParams(l=20, k=5),
            query_count=20,
        )
        assert len(result.rows) == 1
        assert result.rows[0].n == 1000
        assert result.build_time_exponent is None
        assert result.evals_loglog_exponent is None

    def test_three_sizes_fit_exponents(self):
        ds = generate_synthetic(800, 4, seed=7)
        result = scaling_experiment(
            ds, [200, 400, 800],
            build_params=TbsgParams(K=5, m=6, seed=0),
            search_params=SearchParams(l=20, k=5),
            query_count=20,
        )
        assert [r.n for r in result.rows] == [200, 400, 800]
        assert result.build_time_exponent is not None
        assert result.evals_loglog_exponent is not None
        assert all(r.build_seconds > 0 for r in result.rows)

    def test_validation(self):
        ds = generate_synthetic(100, 4, seed=8)
        with pytest.raises(ValueError, match="ascending"):
            scaling_experiment(ds, [50, 50])
        with pytest.raises(ValueError, match="ascending"):
            scaling_experiment(ds, [80, 40])
        with pytest.raises(ValueError, match="must lie in"):
            scaling_experiment(ds, [50, 200])
        with pytest.raises(ValueError, match="non-empty"):
            scaling_experiment(ds, [])

    @pytest.mark.parametrize("query_count", [0, -3])
    def test_rejects_query_count_below_one(self, query_count):
        ds = generate_synthetic(100, 4, seed=8)
        with pytest.raises(ValueError, match="query_count must be >= 1"):
            scaling_experiment(ds, [50, 100], query_count=query_count)


class TestProbCheck:
    def test_default_grid_is_large_enough(self):
        grid = default_geometry_grid()
        assert len(grid) >= 20
        # Exactly one row is unrealizable on purpose (exercises skipping).
        bad = [g for g in grid if g.d_sv > g.d_se + g.d_ve]
        assert len(bad) == 1

    def test_small_run_bounds_hold(self):
        grid = default_geometry_grid()[:6] + [TriangleGeom(1.0, 1.0, 1.0, 1.0)]
        result = prob_check(geometries=grid, dims=(2, 3), samples=10_000, seed=1)
        assert len(result.rows) == 14
        assert result.skipped == []
        assert all(r.bound_ok for r in result.rows)
        equilateral = [r for r in result.rows if r.geom.d_ve == 1.0]
        assert all(abs(r.estimate - 0.5) <= 4 * r.std_error for r in equilateral)
        assert all(r.min_prob == 0.5 for r in equilateral)

    def test_unrealizable_rows_skipped_with_reason(self):
        geoms = [TriangleGeom(1.0, 2.0, 0.9, 1.0), TriangleGeom(1.0, 1.0, 1.0, 1.0)]
        result = prob_check(geometries=geoms, dims=(2,), samples=10_000)
        assert len(result.rows) == 1
        assert len(result.skipped) == 1
        geom, reason = result.skipped[0]
        assert geom is geoms[0]
        assert "unrealizable" in reason

    def test_negative_offset_rows_not_in_default_grid(self):
        # The guarantee only covers candidates nearer the kept neighbor than
        # the node itself; the validation grid must respect that.
        for g in default_geometry_grid():
            h = _bisector_offset(g.d_se, g.d_sv, g.d_ve)
            assert h >= 0.0 or h / g.r <= -1.0

    def test_deterministic(self):
        grid = [TriangleGeom(1.0, 0.9, 0.7, 1.0)]
        a = prob_check(geometries=grid, dims=(2,), samples=10_000, seed=3)
        b = prob_check(geometries=grid, dims=(2,), samples=10_000, seed=3)
        assert a.rows[0].estimate == b.rows[0].estimate

    def test_validation(self):
        with pytest.raises(ValueError, match="samples"):
            prob_check(samples=5_000)
        with pytest.raises(ValueError, match="dims"):
            prob_check(dims=(1, 2))
        with pytest.raises(ValueError, match="dims"):
            prob_check(dims=())

