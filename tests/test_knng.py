"""Exact and approximate neighbor-graph construction, recall, reverse edges."""

import sys
import threading

import numpy as np
import pytest

import tbsg.knng as knng_module
from tbsg import (
    Dataset,
    TbsgParams,
    add_reverse_edges,
    brute_force_groundtruth,
    build_exact_knng,
    build_knng,
    build_tbsg,
    generate_synthetic,
    knng_recall,
)
from tbsg.core import distances_to_many
from tbsg.knng import (
    KnnGraph,
    _apply_updates,
    _exact_topk,
    _local_join_pairs,
    _random_neighbor_init,
    _sample_candidates,
)

from literal_algos import literal_topk, literal_union


def check_graph_invariants(kg: KnnGraph, dataset: Dataset) -> None:
    n, k_eff = kg.ids.shape
    assert k_eff == min(kg.K, n - 1)
    x = dataset.vectors64
    for u in range(n):
        row_ids, row_d = kg.ids[u], kg.dists[u]
        assert u not in row_ids
        assert len(set(row_ids.tolist())) == k_eff
        order = np.lexsort((row_ids, row_d))
        assert np.array_equal(order, np.arange(k_eff))
        diff = x[row_ids] - x[u]
        true_d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        np.testing.assert_allclose(row_d, true_d, rtol=1e-4)


class TestExactKnng:
    def test_collinear_hand_example(self):
        ds = Dataset(np.array([[0.0], [1.0], [3.0]]))
        kg = build_exact_knng(ds, 1)
        assert kg.ids.tolist() == [[1], [0], [1]]
        assert kg.dists.tolist() == [[1.0], [1.0], [2.0]]

    def test_k_equals_n_minus_one_is_permutation(self):
        ds = generate_synthetic(20, 3, seed=0)
        kg = build_exact_knng(ds, 19)
        for u in range(20):
            assert sorted(kg.ids[u].tolist()) == [i for i in range(20) if i != u]

    def test_k_clamped_to_n_minus_one(self):
        ds = generate_synthetic(5, 3, seed=1)
        kg = build_exact_knng(ds, 50)
        assert kg.k_eff == 4 and kg.K == 50

    def test_matches_full_sort_oracle(self):
        ds = generate_synthetic(500, 8, clusters=2, spread=0.7, seed=2)
        kg = build_exact_knng(ds, 10)
        x = ds.vectors64
        for u in range(0, 500, 17):
            diff = x - x[u]
            d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            d[u] = np.inf
            want = np.lexsort((np.arange(500), d))[:10]
            assert kg.ids[u].tolist() == want.tolist()
        check_graph_invariants(kg, ds)

    def test_duplicate_points_tie_break_by_id(self):
        ds = Dataset(np.array([[0.0], [0.0], [0.0], [5.0]]))
        kg = build_exact_knng(ds, 2)
        assert kg.ids.tolist() == [[1, 2], [0, 2], [0, 1], [0, 1]]

    def test_k_validation(self):
        with pytest.raises(ValueError, match="K"):
            build_exact_knng(generate_synthetic(5, 2, seed=0), 0)

    def test_empty_dataset_gives_empty_graph(self):
        ds = Dataset(np.empty((0, 4)))
        for kg in (build_exact_knng(ds, 5), build_knng(ds, 5), build_knng(ds, 5, exact=True)):
            assert kg.ids.shape == kg.dists.shape == (0, 0)
            assert kg.K == 5


def _topk_inputs(kind, n, dim, seed):
    """(data, queries) float32 arrays for one exact top-k case. Queries are
    data points themselves or fresh draws near them."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = rng.standard_normal((n, dim))
    if kind == "duplicates":
        base = np.repeat(base[: -(-n // 3)], 3, axis=0)[:n]
    elif kind == "identical":
        base = np.broadcast_to(base[0], (n, dim))
    elif kind == "copies":
        # One point fills about 4 rows in 5, scattered among distinct ones:
        # its copies tie far past any shortlist, in no particular id order.
        base = np.where(rng.random((n, 1)) < 0.8, base[0], base)
    elif kind == "offset":
        # Norms near 1e4 * sqrt(dim) against distances near sqrt(2 dim): the
        # norm expansion cancels about eight digits here.
        base = 1e4 + base
    queries = np.concatenate([base[:5], rng.standard_normal((7, dim)) + base[5:12]])
    return base.astype(np.float32), queries.astype(np.float32)


class TestExactTopk:
    """_exact_topk ranks a matmul shortlist; it must equal the full-row
    ranking of literal_topk bit for bit, fallback rows included."""

    @pytest.mark.parametrize(
        "kind", ["gaussian", "duplicates", "identical", "copies", "offset"]
    )
    @pytest.mark.parametrize("dim", [1, 16, 128, 960])
    def test_matches_literal_full_scan(self, kind, dim):
        n = 120
        data, queries = _topk_inputs(kind, n, dim, seed=dim)
        ds = Dataset(data)
        x = ds.vectors64
        q64 = Dataset(queries).vectors64
        # At n - 17 the KNNG's shortlist of k + 1 + 15 leaves one point out.
        for k in (1, 7, 30, n - 17, n - 1):
            kg = build_exact_knng(ds, k)
            for got, want in (
                ((kg.ids, kg.dists), literal_topk(x, x, k, True)),
                (_exact_topk(x, q64, k), literal_topk(x, q64, k, False)),
                (_exact_topk(x, q64, n), literal_topk(x, q64, n, False)),
            ):
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])

    def test_full_row_scans_only_at_ties(self, monkeypatch):
        # Each "duplicates" point has two exact copies. The KNNG ranks a
        # point's 10 nearest for K=9, itself included: itself and its two
        # copies, then triples of equal distance at ranks 4-6, 7-9, 10-12,
        # ...: the 10th ties the next one, but not the first one past a
        # shortlist of 10 + 15. With every row identical, ties run through
        # any shortlist, and from row 10 on a row's 10 nearest are rows 0-9.
        scanned = []
        real = knng_module._ranked_topk

        def spy(q, xc, cand, k):
            scanned.append(q.shape[0] if cand.shape[1] == x.shape[0] else 0)
            return real(q, xc, cand, k)

        monkeypatch.setattr(knng_module, "_ranked_topk", spy)
        for kind, full_rows in (("duplicates", 0), ("identical", 600)):
            ds = Dataset(_topk_inputs(kind, 600, 16, seed=3)[0])
            x = ds.vectors64
            scanned.clear()
            got = build_exact_knng(ds, 9)
            want = literal_topk(x, x, 9, True)
            assert np.array_equal(got.ids, want[0])
            assert np.array_equal(got.dists, want[1])
            assert sum(scanned) == full_rows

    def test_tiled_rerank_matches_literal_full_scan(self, monkeypatch):
        # At 128-d and K=100 the KNNG's shortlist is 116 wide, so a re-rank
        # tile holds 65536 // (116 * 128) = 4 rows, and a full-scan tile one
        # row of 300. In "tied" 121 rows are copies of point 0: rows whose
        # shortlist boundary falls among those copies (theirs and those of
        # the points near them) fail the float32 bound, so its one block is
        # re-ranked twice, in float32 and in float64, and some of its rows,
        # not all, then take the full scan.
        tiles = []
        real = knng_module.l2_batch

        def spy(a, b):
            tiles.append((a.shape[0], b.shape[1]))
            return real(a, b)

        monkeypatch.setattr(knng_module, "l2_batch", spy)
        gaussian = _topk_inputs("gaussian", 300, 128, seed=4)[0]
        tied = gaussian.copy()
        tied[1:240:2] = tied[0]
        duplicates = _topk_inputs("duplicates", 300, 128, seed=4)[0]
        for rows, fallback in ((gaussian, False), (duplicates, False), (tied, True)):
            ds = Dataset(rows)
            x = ds.vectors64
            tiles.clear()
            got = build_exact_knng(ds, 100)
            want = literal_topk(x, x, 100, True)
            assert np.array_equal(got.ids, want[0])
            assert np.array_equal(got.dists, want[1])
            short = [r for r, width in tiles if width == 116]
            assert short == [4] * 75 * (2 if fallback else 1)
            full = [r for r, width in tiles if width == 300]
            assert set(full) <= {1}
            assert (0 < len(full) < 300) if fallback else not full

    def test_float32_expansion_and_its_way_back(self, monkeypatch):
        # n = 2000 makes four blocks of 524 query rows. Far from the origin,
        # centring keeps every block in float32. Clusters of 50 points with
        # spread 0.005 leave gaps below the float32 bound: the first block
        # is redone in float64, and every later one runs in float64.
        kinds = []
        real = knng_module._shortlist

        def spy(g, width, sample):
            kinds.append(g.dtype.name)
            return real(g, width, sample)

        monkeypatch.setattr(knng_module, "_shortlist", spy)
        offset = Dataset(_topk_inputs("offset", 2000, 16, seed=6)[0])
        tight = generate_synthetic(2000, 16, clusters=40, spread=0.005, seed=0)
        for ds, want_kinds in (
            (offset, ["float32"] * 4),
            (tight, ["float32"] + ["float64"] * 4),
        ):
            x = ds.vectors64
            kinds.clear()
            got = build_exact_knng(ds, 20)
            want = literal_topk(x, x, 20, True)
            assert np.array_equal(got.ids, want[0])
            assert np.array_equal(got.dists, want[1])
            assert kinds == want_kinds


_GUARD = knng_module._one_blas_thread


@pytest.mark.skipif(_GUARD.get() is None, reason="NumPy's OpenBLAS thread-count symbols not found")
class TestOneBlasThread:
    """_exact_topk's matmuls run on one OpenBLAS thread, and every call,
    nested or concurrent, hands the caller's count back."""

    @pytest.fixture(autouse=True)
    def two_threads(self):
        # Start from two threads, so that one inside the guard is its doing.
        saved = _GUARD.get()
        _GUARD.set(2)
        assert _GUARD.get() == 2
        yield
        _GUARD.set(saved)

    def test_matmuls_run_on_one_thread(self, monkeypatch):
        # Past a lowered _THRESHOLD_FROM the sampled cut's matmul runs
        # too; _shortlist is called right after it.
        seen = []
        real_matmul, real_shortlist = np.matmul, knng_module._shortlist

        def matmul_spy(*args, **kwargs):
            seen.append(("matmul", _GUARD.get()))
            return real_matmul(*args, **kwargs)

        def shortlist_spy(g, width, sample):
            seen.append(("cut" if sample is not None else "no cut", _GUARD.get()))
            return real_shortlist(g, width, sample)

        monkeypatch.setattr(np, "matmul", matmul_spy)
        monkeypatch.setattr(knng_module, "_shortlist", shortlist_spy)
        monkeypatch.setattr(knng_module, "_THRESHOLD_FROM", 100)
        x = Dataset(_topk_inputs("gaussian", 300, 16, seed=1)[0]).vectors64
        _exact_topk(x, x, 5)
        assert seen == [("matmul", 1), ("cut", 1)]
        assert _GUARD.get() == 2

    def test_count_comes_back_after_each_library_call(self, monkeypatch):
        ds = generate_synthetic(300, 8, seed=2)
        build_tbsg(ds, TbsgParams(K=8, m=8, seed=1))
        assert _GUARD.get() == 2
        brute_force_groundtruth(ds, generate_synthetic(20, 8, seed=3), 5)
        assert _GUARD.get() == 2
        inside = []

        def failing(g, width, sample):
            inside.append(_GUARD.get())
            raise RuntimeError("shortlist failed")

        monkeypatch.setattr(knng_module, "_shortlist", failing)
        with pytest.raises(RuntimeError, match="shortlist failed"):
            _exact_topk(ds.vectors64, ds.vectors64, 5)
        assert inside == [1]
        assert _GUARD.get() == 2

    def test_nested_and_concurrent_entries_restore_the_count(self):
        with _GUARD:
            with _GUARD:
                assert _GUARD.get() == 1
            assert _GUARD.get() == 1
        assert _GUARD.get() == 2
        # Both threads sit inside the guard at once, and leave in either order.
        both_inside = threading.Barrier(2)
        counts = []

        def enter():
            with _GUARD:
                both_inside.wait(timeout=10)
                counts.append(_GUARD.get())
                both_inside.wait(timeout=10)

        workers = [threading.Thread(target=enter) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert counts == [1, 1]
        assert _GUARD.get() == 2
        # Two threads ranking at once get the serial answers.
        x = Dataset(_topk_inputs("gaussian", 400, 16, seed=5)[0]).vectors64
        want = _exact_topk(x, x, 9)
        got = [None, None]

        def rank(i):
            got[i] = _exact_topk(x, x, 9)

        workers = [threading.Thread(target=rank, args=(i,)) for i in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        for ids, dists in got:
            assert np.array_equal(ids, want[0])
            assert np.array_equal(dists, want[1])
        assert _GUARD.get() == 2

    def test_many_threads_switching_often_lose_no_entry(self):
        # More threads than cores, switching every microsecond: a lost
        # update of the depth would restore the count under a thread still
        # inside, or never restore it.
        inside = []

        def churn():
            for _ in range(300):
                with _GUARD:
                    inside.append(_GUARD.get())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert inside == [1] * 1800
        assert _GUARD.get() == 2

    def test_without_the_symbols_the_result_is_the_same(self, monkeypatch):
        x = Dataset(_topk_inputs("copies", 600, 16, seed=7)[0]).vectors64
        guarded = _exact_topk(x, x, 21)
        # Without the symbols the matmul runs on the caller's two threads.
        seen, real_get, real_matmul = [], _GUARD.get, np.matmul

        def matmul_spy(*args, **kwargs):
            seen.append(real_get())
            return real_matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", matmul_spy)
        monkeypatch.setattr(_GUARD, "get", lambda: None)
        monkeypatch.setattr(_GUARD, "set", lambda count: None)
        bare = _exact_topk(x, x, 21)
        assert seen and set(seen) == {2}
        assert np.array_equal(bare[0], guarded[0])
        assert np.array_equal(bare[1], guarded[1])


def _large_topk_inputs(kind, n, dim):
    """float32 data for the sampled-threshold shortlist, which acts from
    knng._THRESHOLD_FROM points on."""
    rng = np.random.Generator(np.random.PCG64(5))
    if kind == "clusters":
        return generate_synthetic(n, dim, clusters=100, spread=0.02, seed=5).vectors
    base = rng.standard_normal((n, dim)).astype(np.float32)
    if kind == "duplicated":
        return np.concatenate([base[: n // 2], base[: n // 2]])
    if kind == "tiled":
        # 41 copies of each row: from its 22nd copy on, a point's K=20
        # nearest plus itself are all copies of lower id.
        return np.tile(base[: n // 41], (41, 1))
    if kind == "sorted":
        return base[np.argsort(base[:, 0], kind="stable")]
    return base


class TestThresholdShortlist:
    """From _THRESHOLD_FROM points on, _exact_topk cuts each row at a sampled
    order statistic before the partition; it must still equal literal_topk
    bit for bit, on rows whose cut leaves too few survivors included. The
    threshold is lowered to N here to keep the literal scan small."""

    N = 4100  # n // 1024 leaves a ragged last stride

    @pytest.mark.parametrize("kind", ["gaussian", "clusters", "duplicated", "sorted", "tiled"])
    def test_matches_literal_full_scan(self, monkeypatch, kind):
        monkeypatch.setattr(knng_module, "_THRESHOLD_FROM", self.N)
        sampled = []
        real = knng_module._shortlist

        def spy(g, width, sample):
            sampled.append(sample is not None)
            return real(g, width, sample)

        monkeypatch.setattr(knng_module, "_shortlist", spy)
        ds = Dataset(_large_topk_inputs(kind, self.N, 8))
        x = ds.vectors64
        want = literal_topk(x, x, 20, True)
        for k in (1, 20):
            got = build_exact_knng(ds, k)
            assert np.array_equal(got.ids, want[0][:, :k])
            assert np.array_equal(got.dists, want[1][:, :k])
        assert sampled and all(sampled)
        # A cut at the sample's minimum leaves about n / 1024 survivors per
        # row, fewer than the shortlist needs, so most rows take the full
        # row; a cut for about one shortlist of survivors sends about half
        # the rows of each block there.
        for survivors in (0, 1):
            monkeypatch.setattr(knng_module, "_SURVIVORS", survivors)
            got = build_exact_knng(ds, 20)
            assert np.array_equal(got.ids, want[0])
            assert np.array_equal(got.dists, want[1])


class TestNnDescent:
    def test_tiny_n_falls_back_to_exact(self):
        ds = generate_synthetic(10, 4, seed=3)
        approx = build_knng(ds, 10, seed=5)  # n <= K+1
        exact = build_exact_knng(ds, 10)
        assert np.array_equal(approx.ids, exact.ids)
        assert np.array_equal(approx.dists, exact.dists)

    def test_deterministic_per_seed(self):
        ds = generate_synthetic(300, 8, seed=4)
        a = build_knng(ds, 10, iterations=5, seed=7)
        b = build_knng(ds, 10, iterations=5, seed=7)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.dists, b.dists)

    def test_structural_invariants(self):
        ds = generate_synthetic(400, 8, clusters=2, spread=0.8, seed=5)
        kg = build_knng(ds, 12, iterations=8, seed=1)
        check_graph_invariants(kg, ds)

    def test_converges_on_small_inputs(self):
        # Generously many iterations on n <= 200 must reach the exact graph
        # almost everywhere.
        ds = generate_synthetic(200, 12, clusters=2, spread=0.8, seed=5)
        approx = build_knng(ds, 10, iterations=40, seed=5)
        exact = build_exact_knng(ds, 10)
        assert knng_recall(approx, exact) >= 0.99

    def test_validation(self):
        ds = generate_synthetic(50, 4, seed=0)
        with pytest.raises(ValueError, match="K"):
            build_knng(ds, 0)
        with pytest.raises(ValueError, match="iterations"):
            build_knng(ds, 5, iterations=0)

    def test_random_init_rows_are_distinct_non_self_and_seeded(self):
        # K = n - 2 leaves each row one other id out.
        n, K = 12, 10
        ids = _random_neighbor_init(np.random.Generator(np.random.PCG64(0)), n, K)
        assert ids.shape == (n, K)
        for u in range(n):
            row = ids[u].tolist()
            assert len(set(row)) == K and u not in row
            assert all(0 <= v < n for v in row)
        again = _random_neighbor_init(np.random.Generator(np.random.PCG64(0)), n, K)
        assert np.array_equal(ids, again)

    def test_random_init_is_uniform_over_the_id_range(self):
        # 40,000 slots over ten id ranges of 200: about 4,000 each.
        ids = _random_neighbor_init(np.random.Generator(np.random.PCG64(8)), 2000, 20)
        tenths = np.bincount(ids.ravel() // 200, minlength=10)
        assert np.all(np.abs(tenths - 4000) <= 400), tenths

    def test_old_pool_holds_only_entries_old_at_round_start(self):
        # Every entry is new, so the new pool is sampled and marked old, and
        # the old pool stays empty this round.
        n, K = 50, 6
        rng = np.random.Generator(np.random.PCG64(1))
        ids = _random_neighbor_init(rng, n, K)
        flags = np.ones((n, K), dtype=bool)
        new_rect, old_rect = _sample_candidates(rng, ids, flags, K)
        assert np.all(new_rect[:, 0] >= 0)
        assert not flags.any()
        assert np.all(old_rect == -1)

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_small_k_reads_the_first_columns_of_floor_length_lists(self, K):
        # With lists of K entries, K=1's pools would hold one new entry and
        # no old one, the join would propose no pair and recall would read
        # 0.0 on criterion 08's set. Lists of _MIN_LIST entries run the
        # descent K = _MIN_LIST runs, and K < _MIN_LIST reads its columns.
        ds = generate_synthetic(2000, 16, clusters=4, spread=1.0, seed=8)
        approx = build_knng(ds, K, iterations=10, seed=8)
        floor = build_knng(ds, knng_module._MIN_LIST, iterations=10, seed=8)
        assert np.array_equal(approx.ids, floor.ids[:, :K])
        assert np.array_equal(approx.dists, floor.dists[:, :K])
        assert knng_recall(approx, build_exact_knng(ds, K)) >= 0.95


class TestBuilderChoice:
    def test_default_runs_nn_descent_and_exact_skips_it(self, monkeypatch):
        joins = []
        real = knng_module._local_join_pairs

        def spy(*args):
            joins.append(args)
            return real(*args)

        monkeypatch.setattr(knng_module, "_local_join_pairs", spy)
        ds = generate_synthetic(60, 4, seed=9)
        build_knng(ds, 10, iterations=2, seed=1)
        assert joins
        joins.clear()
        got = build_knng(ds, 10, iterations=2, seed=1, exact=True)
        want = build_exact_knng(ds, 10)
        assert not joins
        assert np.array_equal(got.ids, want.ids)
        assert np.array_equal(got.dists, want.dists)


def _join_pairs_reference(new_rect, old_rect, n):
    """Row-by-row local join deduplicated by np.unique: the sorted distinct
    (lo, hi) pairs of new x new and new x old ids, padding (-1) dropped."""
    keys = [np.empty(0, dtype=np.int64)]
    for new_row, old_row in zip(new_rect, old_rect):
        new = new_row[new_row >= 0]
        old = old_row[old_row >= 0]
        i, j = np.triu_indices(new.size, k=1)
        a = np.concatenate([new[i], np.repeat(new, old.size)])
        b = np.concatenate([new[j], np.tile(old, new.size)])
        ok = a != b
        keys.append(np.minimum(a, b)[ok] * n + np.maximum(a, b)[ok])
    key = np.unique(np.concatenate(keys))
    return key // n, key % n


def _pool_rects(rng, rows, cap, n, padded_rows):
    """Seeded join pools shaped like _sample_candidates' output, except that
    padding is scattered instead of trailing. New pools hold distinct ids per
    row; old pools may repeat ids and share them with the new pool, and ids
    recur across rows. The first padded_rows rows are all padding."""
    new_rect = np.full((rows, cap), -1, dtype=np.int64)
    old_rect = np.full((rows, cap), -1, dtype=np.int64)
    for r in range(padded_rows, rows):
        width = int(rng.integers(0, min(cap, n) + 1))
        slots = rng.choice(cap, size=width, replace=False)
        new_rect[r, slots] = rng.choice(n, size=width, replace=False)
        width = int(rng.integers(0, cap + 1))
        slots = rng.choice(cap, size=width, replace=False)
        old_rect[r, slots] = rng.integers(0, n, size=width)
    return new_rect, old_rect


class TestLocalJoinPairs:
    # cap=200 makes the join process 52 rows per block, so 130 rows span
    # three blocks, the first of them all padding; cap=4 fits one block.
    @pytest.mark.parametrize(
        "rows, cap, n, padded_rows, seed",
        [(130, 200, 60, 52, 0), (40, 4, 9, 5, 1), (25, 6, 400, 3, 2)],
    )
    def test_sorted_distinct_pairs_match_unique_reference(
        self, rows, cap, n, padded_rows, seed
    ):
        rng = np.random.Generator(np.random.PCG64(seed))
        new_rect, old_rect = _pool_rects(rng, rows, cap, n, padded_rows)
        lo, hi = _local_join_pairs(new_rect, old_rect, n)
        want_lo, want_hi = _join_pairs_reference(new_rect, old_rect, n)
        assert want_lo.size > 0
        assert np.array_equal(lo, want_lo)
        assert np.array_equal(hi, want_hi)
        assert np.all(lo < hi)

    def test_all_padding_gives_no_pairs(self):
        pad = np.full((7, 5), -1, dtype=np.int64)
        lo, hi = _local_join_pairs(pad, pad, 10)
        assert lo.size == 0 and hi.size == 0


def _apply_updates_reference(ids, dists, flags, pa, pb, pd):
    """Per-node merge in plain Python: keep the K best by (distance, id); an
    incoming pair already in the list keeps the listed copy and its flag."""
    n, K = ids.shape
    incoming = [[] for _ in range(n)]
    for a, b, d in zip(pa.tolist(), pb.tolist(), pd.tolist()):
        incoming[a].append((d, b))
        incoming[b].append((d, a))
    out_ids, out_d, out_f = ids.copy(), dists.copy(), flags.copy()
    changed = 0
    for u in range(n):
        entries = {
            int(v): (float(d), bool(f), False)
            for v, d, f in zip(ids[u], dists[u], flags[u])
        }
        for d, v in incoming[u]:
            entries.setdefault(v, (d, True, True))
        best = sorted(entries.items(), key=lambda e: (e[1][0], e[0]))[:K]
        out_ids[u] = [v for v, _ in best]
        out_d[u] = [e[0] for _, e in best]
        out_f[u] = [e[1] for _, e in best]
        changed += sum(e[2] for _, e in best)
    return out_ids, out_d, out_f, changed


class TestApplyUpdates:
    @staticmethod
    def _case(seed):
        # Integer distances from a symmetric matrix make (distance) ties
        # common; every fourth proposed pair is already in a list.
        rng = np.random.Generator(np.random.PCG64(seed))
        n, K = 12, 4
        upper = np.triu(rng.integers(1, 6, size=(n, n)).astype(np.float64), 1)
        D = upper + upper.T
        ids = np.empty((n, K), dtype=np.int64)
        for u in range(n):
            others = rng.choice(np.delete(np.arange(n), u), size=K, replace=False)
            ids[u] = others[np.lexsort((others, D[u, others]))]
        dists = np.take_along_axis(D, ids, axis=1)
        flags = rng.random((n, K)) < 0.5
        rows = np.repeat(np.arange(n), K)
        lo, hi = np.minimum(rows, ids.ravel()), np.maximum(rows, ids.ravel())
        iu, ju = np.triu_indices(n, k=1)
        listed = np.isin(iu * n + ju, lo * n + hi)
        pick = rng.random(iu.size) < 0.3
        pick[np.flatnonzero(listed)[::4]] = True
        assert listed[pick].any()
        pa, pb = iu[pick], ju[pick]
        return ids, dists, flags, pa, pb, D[pa, pb]

    @staticmethod
    def _check(ids, dists, flags, pa, pb, pd):
        want = _apply_updates_reference(ids, dists, flags, pa, pb, pd)
        changed = _apply_updates(ids, dists, flags, pa, pb, pd)
        assert np.array_equal(ids, want[0])
        assert np.array_equal(dists, want[1])
        assert np.array_equal(flags, want[2])
        assert changed == want[3]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_node_reference(self, seed):
        self._check(*self._case(seed))

    def test_proposals_too_far_for_any_list_change_nothing(self):
        # Listed distances are 1-5, so every proposal sorts after every
        # node's worst entry.
        ids, dists, flags, pa, pb, pd = self._case(0)
        want = ids.copy(), dists.copy(), flags.copy()
        assert _apply_updates(ids, dists, flags, pa, pb, pd + 10.0) == 0
        assert np.array_equal(ids, want[0])
        assert np.array_equal(dists, want[1])
        assert np.array_equal(flags, want[2])

    @pytest.mark.parametrize("shard_entries", [1, 8])
    @pytest.mark.parametrize("seed", range(5))
    def test_several_shards_match_per_node_reference(self, monkeypatch, seed, shard_entries):
        # 1 gives one node per shard; 8 gives shards of about two nodes.
        merges = []
        ranked_unique = knng_module._ranked_unique

        def spy(node, *args):
            merges.append(np.unique(node))
            return ranked_unique(node, *args)

        monkeypatch.setattr(knng_module, "_SHARD_ENTRIES", shard_entries)
        monkeypatch.setattr(knng_module, "_ranked_unique", spy)
        self._check(*self._case(seed))
        assert len(merges) > 2
        assert all(m.size < 12 for m in merges)


class TestKnngRecall:
    def test_identical_graphs(self):
        ds = generate_synthetic(50, 4, seed=1)
        kg = build_exact_knng(ds, 5)
        assert knng_recall(kg, kg) == 1.0

    def test_disjoint_and_half_overlap(self):
        # Recall only compares id lists, so the rows are constructed directly.
        u = np.arange(5)[:, None]
        d = np.zeros((5, 2))
        exact = KnnGraph((u + [1, 2]) % 5, d, K=2)
        disjoint = KnnGraph((u + [3, 4]) % 5, d, K=2)
        half = KnnGraph((u + [1, 3]) % 5, d, K=2)
        assert knng_recall(disjoint, exact) == 0.0
        assert knng_recall(half, exact) == 0.5

    def test_empty_graphs(self):
        empty = build_exact_knng(Dataset(np.empty((0, 0))), 3)
        assert knng_recall(empty, empty) == 1.0

    def test_shape_mismatch_rejected(self):
        ds = generate_synthetic(30, 4, seed=2)
        with pytest.raises(ValueError, match="mismatch"):
            knng_recall(build_exact_knng(ds, 5), build_exact_knng(ds, 6))


def _pool(bg, u):
    """Node u's (ids, distances) slice of a BKnnGraph."""
    lo, hi = bg.offsets[u], bg.offsets[u + 1]
    return bg.ids[lo:hi], bg.dists[lo:hi]


class TestAddReverseEdges:
    def _edge_set(self, bg):
        edges = set()
        for u in range(bg.n):
            for v in _pool(bg, u)[0]:
                edges.add((u, int(v)))
        return edges

    def test_single_directed_edge_gains_its_reverse(self):
        # 0 -> 1 is mutual, but 2 -> 1 has no partner until closure.
        ds = Dataset(np.array([[0.0], [1.0], [3.0]]))
        bg = add_reverse_edges(build_exact_knng(ds, 1))
        assert self._edge_set(bg) == {(0, 1), (1, 0), (2, 1), (1, 2)}

    def test_symmetric_input_is_fixed_point(self):
        ds = Dataset(np.array([[0.0], [1.0]]))
        kg = build_exact_knng(ds, 1)
        bg = add_reverse_edges(kg)
        assert self._edge_set(bg) == {(0, 1), (1, 0)}

    def test_exhaustive_symmetry_and_superset(self):
        ds = generate_synthetic(200, 6, clusters=3, spread=0.5, seed=7)
        kg = build_knng(ds, 8, iterations=6, seed=3)
        bg = add_reverse_edges(kg)
        edges = self._edge_set(bg)
        assert all((v, u) in edges for (u, v) in edges)
        for u in range(200):
            assert set(kg.ids[u].tolist()) <= {v for (a, v) in edges if a == u}

    @staticmethod
    def _tied_set(seed, kind):
        """Small-integer points (many exact duplicates and tied distances) or
        Gaussian rows each taken twice."""
        if kind == "grid":
            rng = np.random.Generator(np.random.PCG64(seed))
            return Dataset(rng.integers(0, 4, size=(80, 2)).astype(np.float32))
        rows = generate_synthetic(40, 8, clusters=2, spread=0.5, seed=seed).vectors
        return Dataset(np.concatenate([rows, rows]))

    @staticmethod
    def _one_way(ds, seed, count=120):
        """Random (src, dst, distance) edges, self pairs and repeats included."""
        rng = np.random.Generator(np.random.PCG64(seed))
        src = rng.integers(0, ds.count, count)
        dst = rng.integers(0, ds.count, count)
        dst[:5] = src[:5]
        src[-10:], dst[-10:] = src[:10], dst[:10]
        d = np.asarray(
            [distances_to_many(ds, ds.vectors64[u], ids=[v])[0] for u, v in zip(src, dst)]
        )
        return src, dst, d

    @staticmethod
    def _check_literal(kg, extra):
        """add_reverse_edges(kg, extra) equals literal_union, pool by pool."""
        bg = add_reverse_edges(kg, extra)
        want = literal_union(kg, zip(*extra) if extra is not None else ())
        assert bg.n == kg.n and bg.offsets[0] == 0 and bg.offsets[-1] == bg.ids.size
        for u in range(kg.n):
            ids, d = (a.tolist() for a in _pool(bg, u))
            assert list(zip(d, ids)) == want[u]
            assert len(set(ids)) == len(ids) and u not in ids
            assert list(zip(d, ids)) == sorted(zip(d, ids))
        return bg

    @pytest.mark.parametrize("n", [0, 1, 80])
    def test_no_knng_edges(self, n):
        # k_eff = 0 (the graph of at most one point, or one given with no
        # columns): with no one-way edges, or empty ones, every pool is empty.
        if n <= 1:
            kg = build_exact_knng(Dataset(np.zeros((n, 3))), 5)
        else:
            kg = KnnGraph(np.empty((n, 0), dtype=np.int64), np.empty((n, 0)), 5)
        assert kg.k_eff == 0
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
        for extra in (None, empty):
            bg = self._check_literal(kg, extra)
            assert np.array_equal(bg.offsets, np.zeros(n + 1, dtype=np.int64))
            assert bg.ids.size == 0 and bg.dists.size == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_way_edges_alone(self, seed):
        # k_eff = 0 with one-way edges, self pairs and repeats among them:
        # each pool holds exactly its node's one-way targets.
        ds = self._tied_set(seed, "grid")
        kg = KnnGraph(np.empty((ds.count, 0), dtype=np.int64), np.empty((ds.count, 0)), 5)
        one_way = self._one_way(ds, seed + 20)
        bg = self._check_literal(kg, one_way)
        want = {(int(u), int(v)) for u, v in zip(one_way[0], one_way[1]) if u != v}
        assert self._edge_set(bg) == want

    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_pairs_on_tied_grid(self, seed):
        # K = n - 1: every pool is every other node, with many tied distances
        # and zero-distance duplicates.
        ds = self._tied_set(seed, "grid")
        kg = build_exact_knng(ds, ds.count - 1)
        assert kg.k_eff == ds.count - 1
        for extra in (None, self._one_way(ds, seed + 30)):
            bg = self._check_literal(kg, extra)
            assert np.array_equal(np.diff(bg.offsets), np.full(ds.count, ds.count - 1))

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["grid", "copies"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_union_matches_literal_reference(self, seed, kind, exact):
        ds = self._tied_set(seed, kind)
        kg = build_knng(ds, 6, iterations=3, seed=seed, exact=exact)
        one_way = self._one_way(ds, seed + 10)
        kg_pairs = {(u, int(v)) for u in range(ds.count) for v in kg.ids[u]}
        for extra in (None, one_way):
            self._check_literal(kg, extra)
        # A one-way edge (u, v) is not reversed: u joins v's pool only
        # through the KNNG or a one-way edge (v, u).
        bg = add_reverse_edges(kg, one_way)
        one_pairs = set(zip(one_way[0].tolist(), one_way[1].tolist()))
        covered = one_pairs | kg_pairs | {(v, u) for u, v in kg_pairs}
        lone = [(u, v) for u, v in one_pairs if u != v and (v, u) not in covered]
        assert lone
        assert all(u not in _pool(bg, v)[0] for u, v in lone)

    def test_per_node_lists_sorted_by_distance(self):
        ds = generate_synthetic(100, 4, seed=8)
        bg = add_reverse_edges(build_exact_knng(ds, 5))
        for u in range(100):
            row_ids, row_d = _pool(bg, u)
            order = np.lexsort((row_ids, row_d))
            assert np.array_equal(order, np.arange(row_ids.size))
            assert len(set(row_ids.tolist())) == row_ids.size
            assert u not in row_ids
