"""Tests of the benchmark's own oracle, checks, interpolation and tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

import tbsg  # noqa: E402


def _points(n=60, dim=4, seed=0):
    return np.random.Generator(np.random.PCG64(seed)).standard_normal((n, dim))


def _exact_answer(points, queries, k):
    d = np.sqrt(((queries[:, None, :] - points[None]) ** 2).sum(-1))
    return np.lexsort((np.broadcast_to(np.arange(points.shape[0]), d.shape), d), axis=1)[:, :k]


@pytest.fixture(scope="module")
def small_index():
    points = _points(200, 6, seed=3).astype(np.float32)
    index = tbsg.build_tbsg(tbsg.Dataset(points), tbsg.TbsgParams(K=12, m=8, iterations=5))
    return points.astype(np.float64), index


# Interpolation


def test_bracket_and_at_recall_interpolate_linearly_in_recall():
    recalls = [0.90, 0.94, 0.98, 0.995]
    values = [1000.0, 800.0, 600.0, 300.0]
    assert oracle.bracket(recalls, 0.95) == (1, 2)
    assert oracle.at_recall(recalls, values, 0.95) == pytest.approx(750.0)
    assert oracle.bracket(recalls, 0.99) == (2, 3)
    assert oracle.at_recall(recalls, values, 0.99) == pytest.approx(400.0)


def test_at_recall_uses_the_first_pool_when_it_meets_the_target():
    assert oracle.bracket([0.97, 0.99], 0.95) == (0, 0)
    assert oracle.at_recall([0.97, 0.99], [5.0, 3.0], 0.95) == 5.0


def test_at_recall_hits_a_ladder_point_exactly():
    assert oracle.at_recall([0.9, 0.95, 0.99], [3.0, 2.0, 1.0], 0.95) == pytest.approx(2.0)


def test_at_recall_is_none_when_the_target_is_never_reached():
    assert oracle.bracket([0.5, 0.9], 0.95) is None
    assert oracle.at_recall([0.5, 0.9], [1.0, 2.0], 0.95) is None


def test_at_recall_brackets_the_first_crossing_of_a_dipping_curve():
    assert oracle.bracket([0.9, 0.96, 0.94, 0.99], 0.95) == (0, 1)


def test_at_reference_divides_each_sample_by_its_reference_loop():
    # The same work measured at two machine speeds reads the same.
    slow, fast = (2.0, 2 * harness.REFERENCE_S), (1.0, harness.REFERENCE_S)
    assert harness.at_reference([slow, fast, slow]) == pytest.approx(1.0)
    assert harness.at_reference([(3.0, harness.REFERENCE_S)]) == pytest.approx(3.0)
    assert harness.reference_loop() > 0


# Oracle


def test_kth_distances_match_a_full_sort():
    points = _points(50, 3)
    queries = _points(7, 3, seed=1)
    full = np.sort(np.sqrt(((queries[:, None] - points[None]) ** 2).sum(-1)), axis=1)
    assert np.array_equal(oracle.kth_distances(points, queries, 4), full[:, 3])
    own = np.sort(np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1)), axis=1)
    # Column 0 is each point's zero distance to itself.
    assert np.allclose(oracle.kth_distances(points, points, 2, exclude_self=True), own[:, 2])


def test_hits_count_ties_at_the_kth_distance():
    points = np.array([[0.0], [1.0], [-1.0], [3.0]])
    query = np.zeros((1, 1))
    kth = oracle.kth_distances(points, query, 2)
    # Ids 1 and 2 tie at distance 1, so either completes a correct top 2.
    assert oracle.hits(np.array([[0, 2]]), points, query, kth)[0] == 2
    assert oracle.hits(np.array([[0, 3]]), points, query, kth)[0] == 1


# Result checks


def test_exact_results_pass():
    points, queries = _points(), _points(5, seed=9)
    ok, ids = oracle.check_results(list(_exact_answer(points, queries, 4)), points, queries, 4)
    assert ok.all() and ids.shape == (5, 4)


@pytest.mark.parametrize(
    "change",
    [
        lambda r: r.__setitem__(2, r[1]),  # repeated id
        lambda r: r.__setitem__(3, 60),  # id out of range
        lambda r: r.__setitem__(0, -1),  # negative id
        lambda r: r.__setitem__(slice(1, 3), r[1:3][::-1].copy()),  # out of distance order
    ],
)
def test_one_broken_result_fails_alone(change):
    points, queries = _points(), _points(5, seed=9)
    results = _exact_answer(points, queries, 4)
    change(results[2])
    ok, _ = oracle.check_results(list(results), points, queries, 4)
    assert ok.tolist() == [True, True, False, True, True]


def test_short_result_fails():
    points, queries = _points(), _points(2, seed=9)
    results = [list(r) for r in _exact_answer(points, queries, 4)]
    results[0] = results[0][:3]
    ok, ids = oracle.check_results(results, points, queries, 4)
    assert ids is None and not ok.any()


def test_one_wrong_id_misses_the_groundtruth():
    points, queries = _points(), _points(3, seed=9)
    exact = _exact_answer(points, queries, 5)
    kth = oracle.kth_distances(points, queries, 4)
    results = exact[:, :4].copy()
    assert np.array_equal(oracle.hits(results, points, queries, kth), [4, 4, 4])
    results[1, 3] = exact[1, 4]  # the fifth neighbour in place of the fourth
    assert oracle.hits(results, points, queries, kth).tolist() == [4, 3, 4]


# Index checks


def test_library_output_passes_every_index_check(small_index, tmp_path):
    points, index = small_index
    assert oracle.check_adjacency(index.adjacency, points, index.m).all()
    assert all(oracle.pruning_violations(s, index.adjacency[s], points, 0.53) == 0 for s in range(index.n))
    path = tmp_path / "x.tbsg"
    tbsg.save_index(index, path)
    raw = path.read_bytes()
    assert len(raw) == oracle.expected_index_bytes(index.adjacency)
    assert oracle.file_matches(raw, index.n, index.m, index.enter_point, index.adjacency)


def test_adjacency_over_the_cap_fails(small_index):
    points, index = small_index
    adjacency = list(index.adjacency)
    s = 5
    far = np.argsort(np.sqrt(((points - points[s]) ** 2).sum(1)))[1 : index.m + 2]
    adjacency[s] = far
    ok = oracle.check_adjacency(adjacency, points, index.m)
    assert not ok[s] and ok.sum() == index.n - 1


@pytest.mark.parametrize("where", [0, -1])
def test_adjacency_with_a_self_edge_fails(small_index, where):
    points, index = small_index
    adjacency = list(index.adjacency)
    s = 7
    nbrs = adjacency[s].copy()
    nbrs[where] = s
    adjacency[s] = nbrs
    ok = oracle.check_adjacency(adjacency, points, index.m)
    assert not ok[s] and ok.sum() == index.n - 1


def test_adjacency_with_a_repeat_or_out_of_order_fails(small_index):
    points, index = small_index
    s = next(u for u in range(index.n) if len(index.adjacency[u]) >= 3)
    repeat = list(index.adjacency)
    repeat[s] = np.concatenate([index.adjacency[s], index.adjacency[s][:1]])
    swapped = list(index.adjacency)
    swapped[s] = index.adjacency[s][[1, 0, *range(2, len(index.adjacency[s]))]]
    assert not oracle.check_adjacency(repeat, points, index.m + 1)[s]
    assert not oracle.check_adjacency(swapped, points, index.m)[s]


def test_kept_pair_that_violates_the_pruning_rule_is_counted():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.5]])
    # v = 1 is closer to e = 2 than s = 0 is, and h = 1.5, r = 2 give
    # 1 - arccos(0.75)/pi = 0.77 >= 0.53: keeping both breaks the rule.
    h = (2.0**2 - 1.0**2) / (2.0 * 1.0)
    assert 1.0 - math.acos(h / 2.0) / math.pi > 0.53
    assert oracle.pruning_violations(0, np.array([1, 2]), points, 0.53) == 1
    # Point 3 is farther from v than from s, so v never blocks it.
    assert oracle.pruning_violations(0, np.array([1, 3]), points, 0.53) == 0
    # With mp above the bound the same pair is allowed.
    assert oracle.pruning_violations(0, np.array([1, 2]), points, 0.8) == 0


def test_index_file_with_one_id_changed_fails(small_index, tmp_path):
    _, index = small_index
    path = tmp_path / "x.tbsg"
    tbsg.save_index(index, path)
    raw = bytearray(path.read_bytes())
    # Header, then node 0's degree, then its first id.
    at = 20 + 4
    old = int.from_bytes(raw[at : at + 4], "little")
    raw[at : at + 4] = ((old + 1) % index.n).to_bytes(4, "little")
    assert not oracle.file_matches(bytes(raw), index.n, index.m, index.enter_point, index.adjacency)
    path.write_bytes(bytes(raw))
    assert tbsg.load_index(path) != index
    assert not oracle.file_matches(bytes(raw[:-4]), index.n, index.m, index.enter_point, index.adjacency)


def test_unreachable_counts_nodes_off_the_enter_point():
    adjacency = [np.array([1]), np.array([0, 2]), np.array([], dtype=np.int64), np.array([0])]
    assert oracle.unreachable(adjacency, 0) == 1
    assert oracle.unreachable(adjacency, 3) == 0


# Tracing


def test_tracer_records_nested_spans_and_restores_entry_points():
    ns = types.SimpleNamespace(inner=lambda x, scale=1: x * scale)
    ns.outer = lambda x: ns.inner(x, scale=3) + 1
    original = ns.inner
    seen = []
    tracer = Tracer()
    tracer.wrap(ns, "inner", "layer.inner", lambda args, result: seen.append((args, result)))
    tracer.wrap(ns, "missing", "layer.missing")
    tracer.trace = "q0"
    assert tracer.call("root", ns.outer, (2,)) == 7
    tracer.unwrap()
    assert ns.inner is original and tracer.absent == ["layer.missing"]
    assert seen == [((2,), 6)]
    (t0, name0, s0, e0, p0), (t1, name1, s1, e1, p1) = tracer.spans
    assert (t0, name0, p0, t1, name1, p1) == ("q0", "root", -1, "q0", "layer.inner", 0)
    assert s0 <= s1 <= e1 <= e0
    assert tracer.count("layer.inner", "q") == 1 and tracer.count("layer.inner", "build") == 0


def test_traced_build_equals_the_untraced_one(small_index):
    points, index = small_index
    tracer = Tracer()
    for attr, name in harness.ENTRY_POINTS.items():
        tracer.wrap(tbsg.index, attr, name)
    try:
        traced = tbsg.build_tbsg(tbsg.Dataset(points.astype(np.float32)), index.build_params)
    finally:
        tracer.unwrap()
    assert traced == index and not tracer.absent
    names = {s[1] for s in tracer.spans}
    assert names == set(harness.ENTRY_POINTS.values())


# Whole runs


TINY = Workload(
    name="tiny", n=150, queries=40, dim=8, clusters=3, spread=1.0, latent_dim=None,
    noise=0.0, base_seed=0, K=10, m=8, mp=0.53, why="test",
)


def test_end_to_end_run_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    tally = harness.Tally()
    metrics = harness.end_to_end(tbsg, TINY, 1, 0.05, tally)
    assert tally.failed == 0 and tally.attempted > TINY.queries
    assert set(metrics) == set(harness.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert list(tmp_path.iterdir()) == []


def test_traced_run_reports_every_layer(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    tally = harness.Tally()
    metrics = harness.per_layer(tbsg, TINY, 1, tally)
    assert tally.failed == 0
    assert set(metrics) == set(harness.PER_LAYER) and None not in metrics.values()
    assert metrics["pruning.kept"] == metrics["index.edges"]
    assert metrics["index.max_degree"] <= TINY.m
    assert 0 < metrics["knng.recall"] <= 1
    assert [p.name for p in tmp_path.iterdir()] == ["trace-tiny-1.csv"]


def test_the_harness_counts_broken_output_as_failed():
    tally = harness.Tally()
    run = harness.Run(tbsg, TINY, 1, tally)
    ds, index, _ = run.build()
    run.check_index(index)
    assert (tally.attempted, tally.failed) == (1, 0)
    index.adjacency[3] = np.concatenate([index.adjacency[3], [3]])  # a self-edge
    run.check_index(index)
    assert (tally.attempted, tally.failed) == (2, 1)

    def one_wrong(index, ds, query, sp):
        ids, evals = tbsg.search_knn_with_stats(index, ds, query, sp)
        if np.array_equal(query, run.queries[5]):
            ids = ids[:1] + ids[:-1]  # a repeated id
        return ids, evals

    before = tally.failed
    run.sweep(index, ds, 20, search=one_wrong)
    assert tally.failed == before + 1


# Definitions


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_queries_follow_the_seed_and_the_base_does_not():
    wl = WORKLOADS["desk"]
    base1, q1 = wl.make(1)
    base2, q2 = wl.make(2)
    assert np.array_equal(base1, base2) and not np.array_equal(q1, q2)
    assert np.array_equal(q1, wl.make(1)[1])
    assert base1.shape == (wl.n, wl.dim) and q1.shape == (wl.queries, wl.dim)
