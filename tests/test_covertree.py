"""Cover tree construction and its structural invariants."""

import numpy as np
import pytest

from tbsg import CoverTree, Dataset, build_cover_tree, generate_synthetic, l2_distance
from tbsg import covertree as covertree_module

from literal_algos import literal_cover_tree


def check_invariants(tree: CoverTree, dataset: Dataset) -> None:
    """Exhaustive scan: node count, covering, level decrease, connectivity."""
    n = dataset.count
    assert tree.count == n
    assert tree.parent(tree.root) is None
    x = dataset.vectors64
    edges = 0
    for p in range(n):
        for c in tree.children(p):
            edges += 1
            assert tree.parent(c) == p
            assert tree.level(c) < tree.level(p)
            assert l2_distance(x[p], x[c]) <= tree.covdist(p)
    assert edges == n - 1
    # Every node reaches the root by climbing parents, with no cycle.
    for p in range(n):
        hops = 0
        while p != tree.root:
            p = tree.parent(p)
            hops += 1
            assert hops <= n
    # covdist is consistent with the level accessor.
    for p in range(0, n, max(1, n // 20)):
        assert tree.covdist(p) == tree.base ** tree.level(p)


class TestSinglePoint:
    def test_lone_root(self):
        tree = build_cover_tree(Dataset(np.zeros((1, 3))))
        assert tree.count == 1
        assert tree.root == 0
        assert tree.children(0) == []
        assert tree.parent(0) is None


class TestInsert:
    def test_into_single_root(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]))
        tree = CoverTree(ds)
        tree.insert_many([1])
        assert tree.children(0) == [1]
        assert tree.parent(1) == 0
        assert tree.level(1) == tree.level(0) - 1

    def test_root_level_grows_to_cover(self):
        ds = Dataset(np.array([[0.0], [100.0]]))
        tree = CoverTree(ds)
        tree.insert_many([1])
        assert tree.covdist(0) >= 100.0
        assert tree.children(0) == [1]

    def test_duplicate_insert_rejected(self):
        ds = Dataset(np.array([[0.0], [1.0]]))
        tree = CoverTree(ds)
        tree.insert_many([1])
        with pytest.raises(ValueError, match="already inserted"):
            tree.insert_many([1])
        with pytest.raises(ValueError, match="out of range"):
            tree.insert_many([2])

    def test_bitwise_duplicate_point_attaches_at_zero_distance(self):
        ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]))
        tree = CoverTree(ds)
        tree.insert_many([1])
        tree.insert_many([2])
        # Point 2 coincides with point 1; zero distance is always covered.
        assert tree.parent(2) == 1
        assert l2_distance(ds.vectors64[1], ds.vectors64[2]) == 0.0
        check_invariants(tree, ds)

    def test_descends_into_covering_child(self):
        # 1 sits within the root ball; 2 lands inside 1's ball and must
        # become 1's child, not another root child.
        ds = Dataset(np.array([[0.0], [2.0], [2.2]]))
        tree = CoverTree(ds)  # root level 0, covdist 1
        tree.insert_many([1])  # root grows to cover distance 2 -> level 1
        tree.insert_many([2])
        assert tree.parent(1) == 0
        assert tree.parent(2) == 1
        check_invariants(tree, ds)

    def test_equidistant_children_go_to_lowest_id(self):
        # 2 and 1 both sit at distance sqrt(2) from the root (level 1) and 2
        # apart, so each is a root child of covdist 1; 3 lies at exactly 1
        # from both. Inserted in the order 2, 1, the lower id must win.
        ds = Dataset(np.array([[0.0, 0.0], [-1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]))
        tree = CoverTree(ds)
        tree.insert_many([2])
        tree.insert_many([1])
        assert tree.children(0) == [2, 1]
        tree.insert_many([3])
        assert tree.parent(3) == 1
        check_invariants(tree, ds)

    def test_children_keep_insertion_order_as_their_array_grows(self):
        # Eight points on a circle of radius 3 around the root (level 2),
        # 2.3 apart: each is a root child of covdist 2, so the root's id
        # array grows with every insert.
        angles = np.arange(8) * (np.pi / 4)
        ring = 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        ds = Dataset(np.concatenate([np.zeros((1, 2)), ring]))
        tree = CoverTree(ds)
        order = [5, 2, 8, 1, 7, 3, 4, 6]
        for p in order:
            tree.insert_many([p])
        assert tree.children(0) == order
        assert tree.parents().tolist() == [-1] + [0] * 8
        check_invariants(tree, ds)


def _tree_lists(tree: CoverTree, n: int):
    parent = tree.parents().tolist()
    level = [tree.level(p) for p in range(n)]
    return parent, level, [tree.children(p) for p in range(n)]


def _tie_heavy_inputs(kind: str) -> Dataset:
    rng = np.random.Generator(np.random.PCG64(4))
    if kind == "gaussian":
        return generate_synthetic(700, 8, clusters=3, spread=0.6, seed=4)
    if kind == "duplicated":
        # Every row twice: zero distances, and equal distances to both copies.
        base = rng.standard_normal((350, 8))
        return Dataset(np.concatenate([base, base]))
    if kind == "offset":
        # A tiny ball far from the origin, in 64-d: coordinates take a few
        # float32 steps each, so distances often tie or differ by a step,
        # and the norm expansion's rounding exceeds such gaps.
        return Dataset(1e3 + 1e-4 * rng.standard_normal((500, 64)))
    # Small integer points: many exactly equal distances, some at exactly a
    # covering radius.
    return Dataset(rng.integers(-3, 4, size=(700, 3)).astype(np.float64))


class TestInsertMany:
    """insert_many batches the descent's distances; the tree must equal one
    literal insert per point, whatever the batch size."""

    @pytest.mark.parametrize("kind", ["gaussian", "duplicated", "grid", "offset"])
    @pytest.mark.parametrize("base", [2.0, 1.3])
    def test_equals_one_insert_at_a_time(self, kind, base):
        ds = _tie_heavy_inputs(kind)
        n = ds.count
        order = np.random.Generator(np.random.PCG64(8)).permutation(np.arange(1, n))
        want = literal_cover_tree(ds, base, order)
        for batch in (1, 7, 64, n):
            tree = CoverTree(ds, base=base)
            for b0 in range(0, order.size, batch):
                tree.insert_many(order[b0 : b0 + batch])
            assert _tree_lists(tree, n) == want

    def test_build_equals_literal_inserts(self, monkeypatch):
        ds = _tie_heavy_inputs("duplicated")
        order = np.random.Generator(np.random.PCG64(3)).permutation(np.arange(1, ds.count))
        want = literal_cover_tree(ds, 2.0, order)
        for batch in (5, 64):
            monkeypatch.setattr(covertree_module, "_BATCH", batch)
            assert _tree_lists(build_cover_tree(ds, seed=3), ds.count) == want

    def test_rejects_repeats_and_bad_ids(self):
        tree = CoverTree(Dataset(np.arange(8, dtype=np.float64).reshape(4, 2)))
        with pytest.raises(ValueError, match="already inserted"):
            tree.insert_many([1, 2, 1])
        with pytest.raises(ValueError, match="already inserted"):
            tree.insert_many([0])
        with pytest.raises(ValueError, match="out of range"):
            tree.insert_many([1, 4])
        assert tree.count == 1
        tree.insert_many([])
        assert tree.count == 1


class TestBuild:
    def test_two_point_tree(self):
        ds = generate_synthetic(2, 4, seed=0)
        tree = build_cover_tree(ds)
        assert tree.root == 0
        assert tree.children(0) == [1]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_cover_tree(Dataset(np.empty((0, 0))))

    def test_base_validation(self):
        ds = generate_synthetic(5, 2, seed=0)
        with pytest.raises(ValueError, match="base"):
            build_cover_tree(ds, base=1.0)

    @pytest.mark.parametrize("base", [float("nan"), float("inf")])
    def test_nan_or_infinite_base_rejected(self, base):
        with pytest.raises(ValueError, match="finite"):
            CoverTree(generate_synthetic(5, 2, seed=0), base=base)

    def test_invariants_on_random_data(self):
        ds = generate_synthetic(1000, 8, clusters=3, spread=0.6, seed=4)
        check_invariants(build_cover_tree(ds, seed=1), ds)

    def test_invariants_hold_for_any_insertion_order(self):
        ds = generate_synthetic(500, 4, clusters=2, spread=0.8, seed=2)
        shuffled = build_cover_tree(ds, seed=9)
        check_invariants(shuffled, ds)
        sequential = CoverTree(ds)
        for p in range(1, ds.count):  # sorted id order instead of a shuffle
            sequential.insert_many([p])
        check_invariants(sequential, ds)

    def test_deterministic_per_seed(self):
        ds = generate_synthetic(300, 6, seed=3)
        a = build_cover_tree(ds, seed=5)
        b = build_cover_tree(ds, seed=5)
        c = build_cover_tree(ds, seed=6)
        assert [a.children(p) for p in range(300)] == [b.children(p) for p in range(300)]
        # A different insertion order is allowed to (and here does) differ.
        assert [a.children(p) for p in range(300)] != [c.children(p) for p in range(300)]

    def test_non_default_base(self):
        ds = generate_synthetic(200, 4, seed=7)
        tree = build_cover_tree(ds, base=1.5, seed=0)
        assert tree.base == 1.5
        check_invariants(tree, ds)

    def test_accessor_rejects_unknown_node(self):
        tree = CoverTree(Dataset(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="not in the tree"):
            tree.children(1)  # not inserted yet
        with pytest.raises(ValueError, match="not in the tree"):
            tree.level(-1)
