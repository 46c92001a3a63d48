"""Index construction, best-first search, persistence, and connectivity."""

import struct
from collections import deque

import numpy as np
import pytest

from tbsg import (
    Dataset,
    FormatError,
    SearchParams,
    TbsgIndex,
    TbsgParams,
    add_reverse_edges,
    build_cover_tree,
    build_exact_knng,
    build_tbsg,
    generate_synthetic,
    l2_distance,
    load_index,
    reachable_fraction,
    save_index,
    search_knn,
    search_knn_with_stats,
)
from tbsg.bench import brute_force_groundtruth, recall

from literal_algos import literal_evals, literal_expansions, literal_load, literal_search


class TestParams:
    def test_tbsg_params_validation(self):
        for bad in (
            dict(K=0),
            dict(m=0),
            dict(mp=0.4),
            dict(iterations=0),
            dict(base=1.0),
            dict(r_mode="elastic"),
        ):
            with pytest.raises(ValueError):
                TbsgParams(**bad)

    @pytest.mark.parametrize(
        "name,value", [("mp", float("nan")), ("base", float("nan")), ("base", float("inf"))]
    )
    def test_tbsg_params_reject_nan_and_infinity(self, name, value):
        with pytest.raises(ValueError, match=name):
            TbsgParams(**{name: value})

    def test_search_params_validation(self):
        with pytest.raises(ValueError):
            SearchParams(l=5, k=6)
        with pytest.raises(ValueError):
            SearchParams(l=5, k=0)
        assert SearchParams(l=5, k=5).k == 5


class TestBuild:
    def test_two_points(self):
        ds = generate_synthetic(2, 4, seed=0)
        index = build_tbsg(ds, TbsgParams(K=1, m=5))
        assert index.n == 2
        assert index.enter_point == 0
        assert [a.tolist() for a in index.adjacency] == [[1], [0]]

    def test_single_point(self):
        # One point has an empty KNNG row: the static radius falls back to 0,
        # the dynamic rule, and the pool to prune is empty.
        ds = Dataset(np.zeros((1, 3)))
        for r_mode in ("dynamic", "static"):
            index = build_tbsg(ds, TbsgParams(r_mode=r_mode))
            assert index.n == 1
            assert index.adjacency[0].size == 0
            assert search_knn(index, ds, np.zeros(3), SearchParams(l=1, k=1)) == [0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_tbsg(Dataset(np.empty((0, 0))))

    def test_deterministic_per_seed(self):
        ds = generate_synthetic(300, 8, clusters=2, spread=0.8, seed=1)
        params = TbsgParams(K=10, m=10, seed=3)
        assert build_tbsg(ds, params) == build_tbsg(ds, params)

    def test_enter_point_is_tree_root(self):
        ds = generate_synthetic(100, 4, seed=2)
        index = build_tbsg(ds, TbsgParams(K=8, m=8, seed=0))
        assert index.enter_point == build_cover_tree(ds, seed=0).root == 0

    def test_adjacency_structure(self):
        ds = generate_synthetic(150, 6, clusters=2, spread=0.8, seed=4)
        params = TbsgParams(K=8, m=6, seed=1)
        index = build_tbsg(ds, params)
        assert index.max_out_degree() <= params.m
        x = ds.vectors64
        bg = add_reverse_edges(build_exact_knng(ds, params.K))
        tree = build_cover_tree(ds, base=params.base, seed=params.seed)
        for s in range(150):
            nbrs = index.adjacency[s].tolist()
            assert s not in nbrs
            assert len(set(nbrs)) == len(nbrs)
            d = [l2_distance(x[s], x[v]) for v in nbrs]
            assert sorted(zip(d, nbrs)) == list(zip(d, nbrs))
            # Every edge comes from the node's candidate pool: its bidirected
            # neighborhood plus its tree children.
            pool = set(bg.ids[bg.offsets[s] : bg.offsets[s + 1]].tolist()) | set(tree.children(s))
            assert set(nbrs) <= pool

    @pytest.mark.parametrize("r_mode", ["dynamic", "static"])
    def test_pruning_gets_each_node_pool_once_sorted(self, monkeypatch, r_mode):
        # Every row twice and a third copy of some: zero distances, ties and
        # tree children that are also KNNG neighbors.
        rows = generate_synthetic(90, 6, clusters=3, spread=0.5, seed=9).vectors
        ds = Dataset(np.concatenate([rows, rows, rows[:30]]))
        params = TbsgParams(K=8, m=6, seed=2, r_mode=r_mode)
        import tbsg.index as index_module

        calls = []
        select = index_module._select_from_arrays

        def spy(offsets, cand_ids, cand_d, *args):
            calls.append((offsets.copy(), cand_ids.tolist(), cand_d.tolist()))
            return select(offsets, cand_ids, cand_d, *args)

        monkeypatch.setattr(index_module, "_select_from_arrays", spy)
        build_tbsg(ds, params)
        bg = add_reverse_edges(build_exact_knng(ds, params.K))
        tree = build_cover_tree(ds, base=params.base, seed=params.seed)
        x = ds.vectors64
        # One call carries every node's pool, as one CSR pair.
        assert len(calls) == 1
        offsets, all_ids, all_d = calls[0]
        assert offsets.shape == (ds.count + 1,) and offsets[0] == 0
        assert offsets[-1] == len(all_ids) == len(all_d)
        for s in range(ds.count):
            ids = all_ids[offsets[s] : offsets[s + 1]]
            d = all_d[offsets[s] : offsets[s + 1]]
            pool = bg.ids[bg.offsets[s] : bg.offsets[s + 1]].tolist()
            assert set(ids) == set(pool) | set(tree.children(s))
            assert s not in ids
            assert d == [l2_distance(x[s], x[v]) for v in ids]
            pairs = list(zip(d, ids))
            assert all(a < b for a, b in zip(pairs, pairs[1:]))

    def test_small_k_prunes_the_exact_knng(self, monkeypatch):
        # Whatever K, build_tbsg prunes the exact KNNG; NN-descent's graph
        # here has KNNG recall 0.01.
        import tbsg.index as index_module

        graphs = []
        real = index_module.build_knng

        def spy(*args, **kwargs):
            graphs.append(real(*args, **kwargs))
            return graphs[-1]

        monkeypatch.setattr(index_module, "build_knng", spy)
        ds = generate_synthetic(200, 8, seed=7)
        build_tbsg(ds, TbsgParams(K=1, m=4))
        want = build_exact_knng(ds, 1)
        assert len(graphs) == 1
        assert np.array_equal(graphs[0].ids, want.ids)
        assert np.array_equal(graphs[0].dists, want.dists)

    def test_degree_cap_tight_m(self):
        ds = generate_synthetic(200, 8, seed=5)
        for m in (1, 3, 30):
            index = build_tbsg(ds, TbsgParams(K=10, m=m, seed=2))
            assert index.max_out_degree() <= m

    def test_static_radius_mode(self):
        ds = generate_synthetic(200, 8, clusters=2, spread=0.7, seed=6)
        index = build_tbsg(ds, TbsgParams(K=10, m=10, r_mode="static", seed=1))
        assert index.max_out_degree() <= 10
        assert reachable_fraction(index) > 0.9

    def test_reachability_at_defaults(self):
        # Default parameters on a unimodal synthetic cloud must leave
        # essentially everything reachable from the enter point.
        ds = generate_synthetic(2000, 16, seed=0)
        index = build_tbsg(ds)
        assert index.max_out_degree() <= 50
        assert reachable_fraction(index) >= 0.999


class TestSearch:
    def test_exact_point_on_complete_graph(self):
        ds = Dataset(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]]))
        complete = TbsgIndex(
            n=3,
            m=2,
            enter_point=0,
            adjacency=[np.array([1, 2]), np.array([0, 2]), np.array([0, 1])],
        )
        q = ds.vector(2)
        assert search_knn(complete, ds, q, SearchParams(l=1, k=1)) == [2]

    def test_exhaustive_pool_returns_brute_force_order(self):
        ds = generate_synthetic(50, 8, clusters=1, spread=1.0, seed=100)
        index = build_tbsg(ds, TbsgParams(K=10, m=16, seed=0))
        assert reachable_fraction(index) == 1.0
        q = generate_synthetic(1, 8, 1, 1.0, seed=999).vectors64[0]
        got = search_knn(index, ds, q, SearchParams(l=50, k=50))
        d = np.sqrt(np.einsum("ij,ij->i", ds.vectors64 - q, ds.vectors64 - q))
        assert got == np.lexsort((np.arange(50), d)).tolist()

    def test_high_recall_small_2d(self):
        full = generate_synthetic(300, 2, clusters=1, spread=1.0, seed=9)
        base, queries = Dataset(full.vectors[:200]), Dataset(full.vectors[200:])
        index = build_tbsg(base)
        gt = brute_force_groundtruth(base, queries, 10)
        results = [
            search_knn(index, base, queries.vector(i), SearchParams(l=50, k=10))
            for i in range(queries.count)
        ]
        assert recall(results, gt) >= 0.99

    def test_mean_recall_non_decreasing_in_pool_size(self):
        full = generate_synthetic(1100, 8, clusters=1, spread=1.0, seed=13)
        base, queries = Dataset(full.vectors[:1000]), Dataset(full.vectors[1000:])
        index = build_tbsg(base, TbsgParams(K=20, m=20, seed=2))
        gt = brute_force_groundtruth(base, queries, 10)
        recalls = []
        for l in (10, 20, 50, 100):
            results = [
                search_knn(index, base, queries.vector(i), SearchParams(l=l, k=10))
                for i in range(queries.count)
            ]
            recalls.append(recall(results, gt))
        assert all(b >= a for a, b in zip(recalls, recalls[1:])), recalls
        assert recalls[-1] >= 0.99

    def test_greedy_descent_reaches_true_neighbor(self):
        # Greedy-only descent (no pool) from random starts should land on the
        # query's true nearest neighbor for the vast majority of pairs.
        ds = generate_synthetic(500, 2, clusters=1, spread=1.0, seed=21)
        index = build_tbsg(ds, TbsgParams(K=20, m=20, mp=0.53, seed=4))
        assert reachable_fraction(index) == 1.0
        x = ds.vectors64
        rng = np.random.default_rng(17)
        hits = 0
        trials = 200
        for _ in range(trials):
            q = x[rng.integers(500)] + rng.normal(0.0, 0.05, 2)
            true_nn = int(np.argmin(np.einsum("ij,ij->i", x - q, x - q)))
            cur = int(rng.integers(500))
            while True:
                d_cur = l2_distance(x[cur], q)
                nbrs = index.adjacency[cur]
                d_n = [l2_distance(x[v], q) for v in nbrs]
                j = int(np.argmin(d_n))
                if d_n[j] < d_cur:
                    cur = int(nbrs[j])
                else:
                    break
            hits += cur == true_nn
        assert hits / trials >= 0.80

    def test_distance_evals_counted(self):
        ds = generate_synthetic(100, 4, seed=3)
        index = build_tbsg(ds, TbsgParams(K=8, m=8, seed=1))
        ids, evals = search_knn_with_stats(index, ds, ds.vector(5), SearchParams(l=10, k=5))
        assert len(ids) == 5
        assert evals >= len(ids)  # every pooled id cost one evaluation
        lone = build_tbsg(Dataset(np.zeros((1, 2))))
        _, seed_only = search_knn_with_stats(lone, Dataset(np.zeros((1, 2))), np.zeros(2), SearchParams(l=1, k=1))
        assert seed_only == 1

    def test_query_dimension_checked(self):
        ds = generate_synthetic(20, 4, seed=0)
        index = build_tbsg(ds, TbsgParams(K=5, m=5))
        with pytest.raises(ValueError, match="does not match"):
            search_knn(index, ds, np.zeros(3), SearchParams(l=5, k=1))

    @pytest.mark.parametrize("shape", [(2, 8), (4, 4)])
    def test_query_of_another_shape_rejected(self, shape):
        # Sixteen values in any other shape are not one 16-d query.
        ds = generate_synthetic(40, 16, seed=0)
        index = build_tbsg(ds, TbsgParams(K=5, m=5))
        with pytest.raises(ValueError, match=r"query shape \(\d, \d\) does not match"):
            search_knn(index, ds, np.zeros(shape), SearchParams(l=5, k=5))

    @pytest.mark.parametrize("shape", [(16,), (1, 16)])
    def test_one_query_as_vector_or_row(self, shape):
        ds = generate_synthetic(40, 16, seed=0)
        index = build_tbsg(ds, TbsgParams(K=5, m=5))
        sp = SearchParams(l=8, k=5)
        q = ds.vectors64[7] + 0.01
        expected = search_knn_with_stats(index, ds, q, sp)
        assert search_knn_with_stats(index, ds, q.reshape(shape), sp) == expected

    def test_non_finite_query_rejected(self):
        ds = generate_synthetic(20, 4, seed=0)
        index = build_tbsg(ds, TbsgParams(K=5, m=5))
        for bad in (np.nan, np.inf, -np.inf):
            q = np.zeros(4)
            q[2] = bad
            with pytest.raises(ValueError, match="NaN or Inf"):
                search_knn(index, ds, q, SearchParams(l=5, k=1))

    def test_dataset_of_another_size_rejected(self):
        ds = generate_synthetic(20, 4, seed=0)
        index = build_tbsg(ds, TbsgParams(K=5, m=5))
        for count in (19, 21):
            other = generate_synthetic(count, 4, seed=1)
            with pytest.raises(ValueError, match="index has 20"):
                search_knn(index, other, np.zeros(4), SearchParams(l=5, k=1))


def _self_edge_graph():
    """12 points on 5 distinct rows; enter point 6 has a self-edge and 8
    other neighbours."""
    rows = [[0, 0], [1, 0], [1, 0], [0, 1], [1, 0], [0, 1], [2, 2], [0, 0], [1, 1], [1, 1], [2, 2], [0, 1]]
    adjacency = [
        [6, 11], [], [8, 10, 11], [4], [], [3, 7],
        [6, 9, 2, 4, 1, 0, 7, 3, 5], [10], [], [10, 8], [6], [8, 1],
    ]
    index = TbsgIndex(n=12, m=9, enter_point=6, adjacency=adjacency)
    return Dataset(np.array(rows, dtype=np.float64)), index


class TestSearchMatchesLiteral:
    """Ids and evals equal the literal re-sorting reference where ties decide
    the result: exact-duplicate rows put equal distances in the pool, which
    then fall back to id order."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("graph", ["random", "built"])
    def test_ids_and_evals_on_tied_distances(self, seed, graph):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        distinct = rng.integers(0, 3, (max(2, n // 3), int(rng.integers(1, 4))))
        ds = Dataset(distinct[rng.integers(0, distinct.shape[0], n)].astype(np.float64))
        m = int(rng.integers(1, 7))
        if graph == "random":
            # Every out-degree from 0 to m; duplicates are reachable here,
            # while pruning drops the zero-distance edges between them.
            adjacency = [
                rng.choice(n, size=int(rng.integers(0, m + 1)), replace=False) for _ in range(n)
            ]
            index = TbsgIndex(n=n, m=m, enter_point=int(rng.integers(n)), adjacency=adjacency)
        else:
            index = build_tbsg(ds, TbsgParams(K=min(8, n - 1), m=m, seed=seed))
        x = ds.vectors64
        queries = (x[int(rng.integers(n))], rng.integers(0, 3, ds.dim) + 0.5)
        for q in queries:
            for l in (1, 3, n, 2 * n):
                k = min(l, 3)
                got = search_knn_with_stats(index, ds, q, SearchParams(l=l, k=k))
                assert got == (literal_search(index, ds, q, l, k), literal_evals(index, ds, q, l))

    @pytest.mark.parametrize("l", [1, 3, 12, 24])
    def test_enter_point_with_self_edge_and_more_neighbours_than_l(self, l):
        # The enter point is measured in one call with its neighbours; its
        # self-edge must cost no evaluation, and the first batch, cut to l,
        # must rank its ties by id.
        ds, index = _self_edge_graph()
        for q in (ds.vectors64[1], np.array([0.5, 0.5])):
            k = min(l, 3)
            got = search_knn_with_stats(index, ds, q, SearchParams(l=l, k=k))
            assert got == (literal_search(index, ds, q, l, k), literal_evals(index, ds, q, l))

    @pytest.mark.parametrize("l,expected", [(1, [0]), (2, [0, 1])])
    def test_ties_at_the_pools_last_slot(self, l, expected):
        # Points on a line around the query meet the pool's last entry at
        # its own distance. A lower id must enter: 4 in place of 5 in the
        # first batch at l=2, 2 in place of 3 and 0 in place of 1 at l=1.
        # A higher id must stay out: 6 behind 5 at l=2, 8 behind 0 at l=1
        # and behind 1 at l=2.
        ds = Dataset(np.array([[-1], [1], [-2], [2], [-3], [3], [-3], [4], [1]], dtype=np.float64))
        adjacency = [[8], [7, 0], [], [2, 1], [], [3, 6, 4], [], [], []]
        index = TbsgIndex(n=9, m=3, enter_point=5, adjacency=adjacency)
        q = np.zeros(1)
        got = search_knn_with_stats(index, ds, q, SearchParams(l=l, k=l))
        assert got == (expected, 9)
        assert got == (literal_search(index, ds, q, l, l), literal_evals(index, ds, q, l))


class TestLayerHooks:
    def test_build_and_search_look_up_layer_entry_points_in_index_module(self, monkeypatch):
        # Per-layer benchmark metrics come from wrapping these names in
        # tbsg.index; a build or search that bypasses them loses its metrics.
        import tbsg.index as index_module

        calls = {}
        for name in (
            "build_cover_tree",
            "build_knng",
            "add_reverse_edges",
            "_select_from_arrays",
            "distances_to_many",
        ):
            def counted(*args, _fn=getattr(index_module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(index_module, name, counted)
        ds = generate_synthetic(60, 4, clusters=2, spread=1.0, seed=2)
        index = build_tbsg(ds, TbsgParams(K=6, m=4))
        assert {"build_cover_tree", "build_knng", "add_reverse_edges", "_select_from_arrays"} <= set(calls)
        before = calls.get("distances_to_many", 0)
        search_knn(index, ds, ds.vector(7), SearchParams(l=10, k=3))
        assert calls.get("distances_to_many", 0) > before

    @pytest.mark.parametrize("graph", ["self-edge", "random", "built"])
    def test_search_makes_one_kernel_call_per_expansion(self, monkeypatch, graph):
        # The enter point shares the first expansion's call; an expansion
        # that finds no unseen neighbour makes an empty one.
        import tbsg.index as index_module

        calls = []
        kernel = index_module.distances_to_many

        def recorded(dataset, query, ids=None):
            calls.append(np.asarray(ids).tolist())
            return kernel(dataset, query, ids=ids)

        if graph == "self-edge":
            ds, index = _self_edge_graph()
        else:
            ds = generate_synthetic(80, 4, clusters=3, spread=0.5, seed=5)
            index = build_tbsg(ds, TbsgParams(K=8, m=6, seed=1))
            if graph == "random":
                rng = np.random.default_rng(3)
                index = TbsgIndex(
                    n=80,
                    m=6,
                    enter_point=int(index.enter_point),
                    adjacency=[
                        rng.choice(80, size=int(rng.integers(0, 7)), replace=False) for _ in range(80)
                    ],
                )
        monkeypatch.setattr(index_module, "distances_to_many", recorded)
        for q in (ds.vectors64[1], np.full(ds.dim, 0.5)):
            for l in (1, 3, 10, ds.count):
                calls.clear()
                _, evals = search_knn_with_stats(index, ds, q, SearchParams(l=l, k=1))
                assert calls == literal_expansions(index, ds, q, l)
                assert calls[0][0] == index.enter_point
                assert sum(map(len, calls)) == evals


def _bfs_fraction(index):
    """Reachable fraction by a plain Python BFS over the per-node view."""
    seen = {index.enter_point}
    queue = deque(seen)
    while queue:
        for v in index.adjacency[queue.popleft()].tolist():
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) / index.n


class TestReachableFraction:
    @pytest.mark.parametrize(
        "n,dim,clusters,spread,K,m",
        [
            (300, 8, 2, 0.8, 10, 10),
            (400, 16, 1, 1.0, 10, 4),
            # Tight far-apart clusters with a small K leave most nodes unreachable.
            (400, 4, 20, 0.01, 5, 5),
        ],
    )
    def test_built_graphs_match_plain_bfs(self, n, dim, clusters, spread, K, m):
        ds = generate_synthetic(n, dim, clusters=clusters, spread=spread, seed=n + K)
        for r_mode in ("dynamic", "static"):
            index = build_tbsg(ds, TbsgParams(K=K, m=m, r_mode=r_mode, seed=1))
            assert reachable_fraction(index) == _bfs_fraction(index)

    def test_hand_built_graphs(self):
        chain = TbsgIndex(
            n=3, m=1, enter_point=0,
            adjacency=[np.array([1]), np.array([2]), np.array([], dtype=np.int64)],
        )
        assert reachable_fraction(chain) == 1.0
        islands = TbsgIndex(
            n=4, m=1, enter_point=0,
            adjacency=[np.array([1]), np.array([0]), np.array([3]), np.array([2])],
        )
        assert reachable_fraction(islands) == 0.5
        # Empty lists inside a BFS level gather nothing.
        fan = TbsgIndex(
            n=5, m=3, enter_point=4,
            adjacency=[np.array([], dtype=np.int64), np.array([3]), [], [], np.array([0, 2, 1])],
        )
        assert reachable_fraction(fan) == _bfs_fraction(fan) == 1.0


class TestCsrLayout:
    LISTS = [[1, 3], [], [0], [], [0, 1, 2]]

    def test_adjacency_view_behaves_like_a_list(self):
        index = TbsgIndex(n=5, m=3, enter_point=0, adjacency=self.LISTS)
        view = index.adjacency
        assert len(view) == 5
        assert [a.tolist() for a in view] == self.LISTS
        assert [view[u].size for u in range(5)] == [2, 0, 1, 0, 3]
        assert view[4].tolist() == view[-1].tolist() == [0, 1, 2]
        assert view[np.int64(2)].tolist() == [0]
        assert view[1].tolist() == [] and view[1].dtype == np.int64
        for past in (5, -6):
            with pytest.raises(IndexError):
                view[past]
        assert index.offsets.tolist() == [0, 2, 2, 3, 3, 6]
        assert index.neighbors.tolist() == [1, 3, 0, 0, 1, 2]
        assert index.max_out_degree() == 3

    def test_assigning_a_node_relays_the_arrays(self):
        index = TbsgIndex(n=5, m=3, enter_point=0, adjacency=self.LISTS)
        expected = [list(a) for a in self.LISTS]
        for u, ids in ((1, [4, 2, 0]), (4, []), (-5, [2]), (3, [1])):
            index.adjacency[u] = np.asarray(ids)
            expected[u] = ids
            assert index == TbsgIndex(n=5, m=3, enter_point=0, adjacency=expected)

    def test_lists_build_and_load_give_one_csr(self, tmp_path):
        ds = generate_synthetic(200, 6, clusters=3, spread=0.5, seed=12)
        built = build_tbsg(ds, TbsgParams(K=10, m=6, seed=5))
        from_lists = TbsgIndex(
            n=built.n,
            m=built.m,
            enter_point=built.enter_point,
            adjacency=[a.tolist() for a in built.adjacency],
        )
        path = tmp_path / "c.tbsg"
        save_index(built, path)
        loaded = load_index(path)
        for index in (from_lists, loaded):
            assert index == built
            assert index.offsets.dtype == index.neighbors.dtype == np.int64
            assert np.array_equal(index.offsets, built.offsets)
            assert np.array_equal(index.neighbors, built.neighbors)

    def test_inconsistent_arguments_rejected(self):
        with pytest.raises(ValueError, match="either"):
            TbsgIndex(n=1, m=1, enter_point=0)
        with pytest.raises(ValueError, match="either"):
            TbsgIndex(n=1, m=1, enter_point=0, adjacency=[[]], offsets=[0, 0], neighbors=[])
        for offsets in ([0, 1], [0, 0, 0], [1, 1]):
            with pytest.raises(ValueError, match="offsets"):
                TbsgIndex(n=1, m=1, enter_point=0, offsets=offsets, neighbors=[])
        with pytest.raises(ValueError, match="offsets"):
            TbsgIndex(n=2, m=1, enter_point=0, adjacency=[[1]])

    def test_decreasing_offsets_rejected(self):
        # They would give save_index a degree word 0xffffffff and
        # reachable_fraction a negative length.
        with pytest.raises(ValueError, match="never decreasing"):
            TbsgIndex(n=3, m=2, enter_point=0, offsets=[0, 2, 1, 2], neighbors=[1, 2])

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_neighbor_id_outside_the_nodes_rejected(self, bad):
        # search_knn would return a -1 here as a neighbor id.
        with pytest.raises(ValueError, match="out of range at node 0$"):
            TbsgIndex(n=3, m=1, enter_point=0, adjacency=[[bad], [0], [1]])
        lists = [[1], [2], [0]]
        index = TbsgIndex(n=3, m=1, enter_point=0, adjacency=lists)
        with pytest.raises(ValueError, match="out of range at node 2$"):
            index.adjacency[2] = [1, bad]
        assert index == TbsgIndex(n=3, m=1, enter_point=0, adjacency=lists)

    @pytest.mark.parametrize("ep", [-1, 3])
    def test_enter_point_outside_the_nodes_rejected(self, ep):
        with pytest.raises(ValueError, match=f"enter point {ep} out of range"):
            TbsgIndex(n=3, m=1, enter_point=ep, adjacency=[[1], [2], [0]])


# The corruption sweep's index, saved as a 5-word header, one degree word
# per node and one word per id; each word in turn takes each value.
_SWEEP_INDEX = TbsgIndex(n=5, m=3, enter_point=0, adjacency=[[1, 3], [], [0], [], [0, 1, 2]])
_SWEEP_WORDS = 5 + _SWEEP_INDEX.n + _SWEEP_INDEX.neighbors.size
_SWEEP_VALUES = sorted(
    {0, 1, _SWEEP_INDEX.m, _SWEEP_INDEX.m + 1, _SWEEP_INDEX.n - 1, _SWEEP_INDEX.n, 2**31, 2**32 - 1}
)


class TestLoadSweep:
    """Every damaged copy of a small saved index either loads as a plain
    word-by-word reader reads it or raises FormatError with that reader's
    message; never IndexError, MemoryError or a bare ValueError."""

    @staticmethod
    def _check(tmp_path, raw: bytes):
        path = tmp_path / "s.tbsg"
        path.write_bytes(raw)
        expected = literal_load(raw)
        if isinstance(expected, str):
            with pytest.raises(FormatError) as err:
                load_index(path)
            assert str(err.value) == f"{path}: {expected}"
            return
        loaded = load_index(path)
        assert loaded.offsets.dtype == np.int64 and loaded.neighbors.dtype == np.int64
        assert (loaded.n, loaded.m, loaded.enter_point) == expected[:3]
        assert [a.tolist() for a in loaded.adjacency] == expected[3]

    @staticmethod
    def _saved(tmp_path) -> bytes:
        path = tmp_path / "orig.tbsg"
        save_index(_SWEEP_INDEX, path)
        raw = path.read_bytes()
        assert len(raw) == 4 * _SWEEP_WORDS
        return raw

    @pytest.mark.parametrize("value", _SWEEP_VALUES)
    @pytest.mark.parametrize("word", range(_SWEEP_WORDS))
    def test_overwritten_word(self, tmp_path, word, value):
        raw = bytearray(self._saved(tmp_path))
        raw[4 * word : 4 * word + 4] = struct.pack("<I", value)
        self._check(tmp_path, bytes(raw))

    @pytest.mark.parametrize("cut", range(4 * _SWEEP_WORDS + 1))
    def test_cut_file(self, tmp_path, cut):
        self._check(tmp_path, self._saved(tmp_path)[:cut])

    def test_trailing_word(self, tmp_path):
        self._check(tmp_path, self._saved(tmp_path) + struct.pack("<I", 0))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(120, 6, clusters=2, spread=0.8, seed=8)
        index = build_tbsg(ds, TbsgParams(K=8, m=8, seed=2))
        path = tmp_path / "a.tbsg"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded == index
        assert loaded.build_params is None  # provenance is not serialized
        # Bitwise-stable: saving the loaded copy reproduces the same bytes.
        path2 = tmp_path / "b.tbsg"
        save_index(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_single_node_round_trip(self, tmp_path):
        index = build_tbsg(Dataset(np.zeros((1, 2))))
        path = tmp_path / "one.tbsg"
        save_index(index, path)
        assert load_index(path) == index

    @pytest.mark.parametrize(
        "adjacency",
        [
            [[]],
            [[], [], []],
            [[1, 3], [], [0], [], [0, 1, 2]],
        ],
    )
    def test_hand_built_round_trip(self, tmp_path, adjacency):
        # Nodes with no out-edges, and a single node, save and load intact.
        index = TbsgIndex(
            n=len(adjacency),
            m=3,
            enter_point=len(adjacency) - 1,
            adjacency=[np.asarray(a, dtype=np.int64) for a in adjacency],
        )
        path = tmp_path / "h.tbsg"
        save_index(index, path)
        assert load_index(path) == index

    def test_every_damage_raises_format_error(self, tmp_path):
        # Any cut-off file and any degree word pointing past the end fail
        # with FormatError, never IndexError or a bare ValueError.
        adjacency = [[1, 3], [], [0], [], [0, 1, 2]]
        index = TbsgIndex(
            n=5, m=3, enter_point=0, adjacency=[np.asarray(a, dtype=np.int64) for a in adjacency]
        )
        path = tmp_path / "d.tbsg"
        save_index(index, path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError, match="magic" if cut < 4 else "truncated"):
                load_index(path)
        head = 20
        for u, nbrs in enumerate(adjacency):
            remaining = (len(raw) - head) // 4 - 1
            for degree in (remaining + 1, 2**32 - 1):
                damaged = bytearray(raw)
                damaged[head : head + 4] = struct.pack("<I", degree)
                path.write_bytes(bytes(damaged))
                with pytest.raises(FormatError, match=f"truncated neighbor list at node {u}$"):
                    load_index(path)
            if u < len(adjacency) - 1:
                # A list that ends exactly at the end of the file leaves the
                # next node without its degree word.
                damaged = bytearray(raw)
                damaged[head : head + 4] = struct.pack("<I", remaining)
                path.write_bytes(bytes(damaged))
                with pytest.raises(FormatError, match=f"truncated at node {u + 1}$"):
                    load_index(path)
            head += 4 * (1 + len(nbrs))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_index(path)

    def test_bad_version(self, tmp_path):
        ds = generate_synthetic(10, 3, seed=0)
        path = tmp_path / "v"
        save_index(build_tbsg(ds, TbsgParams(K=3, m=3)), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version 99"):
            load_index(path)

    def test_truncations(self, tmp_path):
        ds = generate_synthetic(10, 3, seed=0)
        path = tmp_path / "t"
        save_index(build_tbsg(ds, TbsgParams(K=3, m=3)), path)
        raw = path.read_bytes()
        for cut in (10, len(raw) - 3, len(raw) - 4):
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError, match="truncated"):
                load_index(path)

    def test_trailing_bytes(self, tmp_path):
        ds = generate_synthetic(10, 3, seed=0)
        path = tmp_path / "x"
        save_index(build_tbsg(ds, TbsgParams(K=3, m=3)), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(FormatError, match="trailing"):
            load_index(path)

    def test_neighbor_id_out_of_range(self, tmp_path):
        ds = generate_synthetic(10, 3, seed=0)
        path = tmp_path / "r"
        index = build_tbsg(ds, TbsgParams(K=3, m=3))
        save_index(index, path)
        raw = bytearray(path.read_bytes())
        # First node's first neighbor id lives right after its degree word.
        raw[24:28] = struct.pack("<I", 10_000)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="out of range"):
            load_index(path)

    @pytest.mark.parametrize("node,slot", [(0, 1), (2, 0), (4, 2)])
    def test_out_of_range_id_names_its_node(self, tmp_path, node, slot):
        adjacency = [[1, 3], [], [0], [], [0, 1, 2]]
        index = TbsgIndex(n=5, m=3, enter_point=0, adjacency=adjacency)
        path = tmp_path / "o.tbsg"
        save_index(index, path)
        raw = bytearray(path.read_bytes())
        word = 5 + sum(1 + len(a) for a in adjacency[:node]) + 1 + slot
        raw[4 * word : 4 * word + 4] = struct.pack("<I", 5)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"out of range at node {node}$"):
            load_index(path)

    def test_list_longer_than_m_names_its_node(self, tmp_path):
        # The out-degree cap m is the index's invariant: a file whose node
        # holds more ids than its header's m is malformed, and save_index
        # refuses to write one.
        index = TbsgIndex(n=5, m=2, enter_point=0, adjacency=[[1, 3], [], [0], [], [0, 1, 2]])
        path = tmp_path / "m.tbsg"
        with pytest.raises(ValueError, match="node 4 holds 3 ids, more than m=2$"):
            save_index(index, path)
        assert not path.exists()
        save_index(TbsgIndex(n=5, m=3, enter_point=0, offsets=index.offsets, neighbors=index.neighbors), path)
        raw = bytearray(path.read_bytes())
        raw[12:16] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="node 4 holds 3 ids, more than m=2$"):
            load_index(path)

    def test_node_count_past_the_file_is_truncation(self, tmp_path):
        # n comes from the header; the walk must stop at the data, not
        # allocate per node first.
        path = tmp_path / "n"
        path.write_bytes(b"TBSG" + struct.pack("<IIIIII", 1, 2**32 - 1, 3, 0, 0, 0))
        with pytest.raises(FormatError, match="truncated at node 2$"):
            load_index(path)

    def test_enter_point_out_of_range(self, tmp_path):
        ds = generate_synthetic(10, 3, seed=0)
        path = tmp_path / "ep"
        save_index(build_tbsg(ds, TbsgParams(K=3, m=3)), path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = struct.pack("<I", 10)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="enter point"):
            load_index(path)

    def test_empty_index_rejected(self, tmp_path):
        # build_tbsg never writes n=0, and a loaded one would break
        # reachable_fraction and search, which start from the enter point.
        path = tmp_path / "empty"
        path.write_bytes(b"TBSG" + struct.pack("<IIII", 1, 0, 50, 0))
        with pytest.raises(FormatError, match="no nodes"):
            load_index(path)
