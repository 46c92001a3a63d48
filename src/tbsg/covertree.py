"""Simplified cover tree: every dataset point is a tree node.

The tree partitions space into nested balls whose radii shrink geometrically
with depth (covdist(p) = base ** level(p)). It serves two purposes here:
its root is the fixed search entry point, and each node's children join that
node's candidate pool during graph construction, which ties the whole graph
together even when the point happens to sit far from its KNNG neighbors.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, l2_batch, pairwise_distances

__all__ = ["CoverTree", "build_cover_tree"]

# Points per insert_many call in build_cover_tree. Builds of
# generate_synthetic(16000, 16, clusters=1, spread=1.0, seed=7), seed 3,
# median of three, 2-core Xeon (Python 3.11.7, NumPy 2.4.6 / OpenBLAS), for
# 32 / 64 / 128 / 256 points: 0.74 / 0.63 / 0.83 / 1.02 s at 16k points,
# against 1.56 s for one point per call.
_BATCH = 64


class CoverTree:
    """Nearest-ancestor cover tree over a Dataset; node ids are point ids."""

    def __init__(self, dataset: Dataset, base: float = 2.0):
        if dataset.count < 1:
            raise ValueError("cover tree requires a non-empty dataset")
        if base <= 1.0:
            raise ValueError(f"base must be > 1, got {base}")
        self.dataset = dataset
        self.base = float(base)
        self.root = 0
        n = dataset.count
        self._level = np.zeros(n, dtype=np.int64)
        self._parent = np.full(n, -1, dtype=np.int64)
        # Node p's children in insertion order, one int64 id array per node.
        self._kids: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
        self._present = np.zeros(n, dtype=bool)
        self._present[self.root] = True

    @property
    def count(self) -> int:
        return int(self._present.sum())

    def level(self, p: int) -> int:
        self._check_member(p)
        return int(self._level[p])

    def parent(self, p: int) -> int | None:
        self._check_member(p)
        q = int(self._parent[p])
        return None if q < 0 else q

    def children(self, p: int) -> list[int]:
        self._check_member(p)
        return self._kids[p].tolist()

    def parents(self) -> np.ndarray:
        """Every point's parent id; -1 for the root and points not inserted."""
        return self._parent.copy()

    def covdist(self, p: int) -> float:
        self._check_member(p)
        return self.base ** int(self._level[p])

    def _check_member(self, p: int) -> None:
        if not (0 <= p < self._present.shape[0]) or not self._present[p]:
            raise ValueError(f"point {p} is not in the tree")

    def insert_many(self, points) -> None:
        """Insert each point p in turn: descend from the root and attach p under
        its nearest covering node.

        At each step the closest child (lowest id on ties) absorbs p if p is
        inside that child's covering ball; otherwise p becomes a new child of
        the current node one level down. The root's level grows first if even
        its ball cannot cover p.

        The distances are batched. First every point descends the tree as it
        stands, all together (_descend). Then the points are inserted in
        order, each walking its own descent: where a node it passes gained
        children from earlier points of the batch, those compete too,
        measured by the batch's own pair distances, and a point that moves
        into such a child continues among batch points only. The result
        equals that of one call per point.
        """
        ps = np.asarray(points, dtype=np.int64).reshape(-1)
        n = self._present.shape[0]
        bad = (ps < 0) | (ps >= n)
        if bad.any():
            raise ValueError(f"point id {int(ps[bad][0])} out of range")
        seen = self._present.copy()
        for p in ps.tolist():
            if seen[p]:
                raise ValueError(f"point {p} already inserted")
            seen[p] = True
        if not ps.size:
            return
        x = self.dataset.vectors64
        steps = self._descend(ps)
        d_root = l2_batch(x[ps], x[self.root]).tolist()
        d_batch = l2_batch(x[ps][:, None, :], x[ps])
        joined: dict[int, list[int]] = {}
        for i, p in enumerate(ps.tolist()):
            while self.base ** int(self._level[self.root]) < d_root[i]:
                self._level[self.root] += 1
            node, depth, in_tree = self.root, 0, True
            while True:
                child, near = steps[depth][i] if in_tree else (-1, np.inf)
                late = joined.get(node)
                if late:
                    d = d_batch[i, late]
                    low = float(d.min())
                    late_child = int(ps[late][d == low].min())
                    if low < near or (low == near and late_child < child):
                        child, near, in_tree = late_child, low, False
                if child >= 0 and near <= self.base ** int(self._level[child]):
                    node, depth = child, depth + 1
                    continue
                break
            self._parent[p] = node
            self._level[p] = self._level[node] - 1
            self._present[p] = True
            joined.setdefault(node, []).append(i)
        for node, late in joined.items():
            self._kids[node] = np.concatenate([self._kids[node], ps[late]])

    def _descend(self, ps: np.ndarray) -> list[list[tuple[int, float]]]:
        """Every point's descent through the tree as it stands, all points a
        level at a time: per depth, (child, distance) for the nearest child
        (lowest id on ties) of the node each point has reached, or (-1, inf)
        once it has stopped. A point stops at a node with no children or
        whose nearest child does not cover it."""
        x = self.dataset.vectors64
        steps = []
        node = np.full(ps.size, self.root, dtype=np.int64)
        active = np.arange(ps.size)
        while active.size:
            if not steps:
                # Every point faces the root's children: one matmul.
                who, cand = _nearest_shortlist(x, ps, self._kids[self.root])
            else:
                kids = [self._kids[v] for v in node[active].tolist()]
                sizes = np.array([k.size for k in kids], dtype=np.int64)
                who = np.repeat(active, sizes)
                cand = np.concatenate(kids)
            child = np.full(ps.size, -1, dtype=np.int64)
            near = np.full(ps.size, np.inf)
            if who.size:
                starts = np.flatnonzero(np.diff(who, prepend=-1))
                active = who[starts]
                sizes = np.diff(starts, append=who.size)
                d = pairwise_distances(self.dataset, ps[who], cand)
                low = np.minimum.reduceat(d, starts)
                tied = np.where(d == np.repeat(low, sizes), cand, np.iinfo(np.int64).max)
                child[active] = np.minimum.reduceat(tied, starts)
                near[active] = low
                levels = self._level[child[active]].tolist()
                cover = np.array([self.base ** level for level in levels])
                active = active[low <= cover]
                node[active] = child[active]
            else:
                active = who
            steps.append(list(zip(child.tolist(), near.tolist())))
        return steps


def _nearest_shortlist(
    x: np.ndarray, ps: np.ndarray, kids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(position in ps, kid) pairs, row-major, that can hold each point's
    nearest kid by l2_batch distance, ties included.

    One matmul gives every pair's norm expansion |q|^2 - 2 q.x + |x|^2,
    within err of the exact squared distance t (the bound of
    knng._exact_topk, by the same argument). Let lo be a row's smallest
    expansion, so its nearest kid has t <= lo + err. A kid left out has an
    expansion above cut, so t > cut - err, and since l2_batch's squared
    distances lie within t * (1 -/+ slack), its distance then exceeds the
    nearest one's strictly: cut - err >= (lo + err) * (1 + slack) / (1 -
    slack) is what cut guarantees, with one more err for its own rounding.
    """
    if not kids.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    q = x[ps]
    xk = x[kids]
    slack = 2.0 * (x.shape[1] + 8) * np.finfo(np.float64).eps
    k_sq = np.einsum("ij,ij->i", xk, xk)
    q_sq = np.einsum("ij,ij->i", q, q)
    g = q @ (-2.0 * xk).T
    g += k_sq
    g += q_sq[:, None]
    err = slack * (np.sqrt(q_sq) + np.sqrt(k_sq.max())) ** 2
    lo = g.min(axis=1)
    cut = 2.0 * err + (lo + err) * (1.0 + 4.0 * slack)
    flat = np.flatnonzero(g <= cut[:, None])
    return flat // kids.size, kids[flat % kids.size]


def build_cover_tree(dataset: Dataset, base: float = 2.0, seed: int = 0) -> CoverTree:
    """Insert every point, rooted at point 0, in a seed-permuted order,
    _BATCH points per insert_many call."""
    tree = CoverTree(dataset, base=base)
    n = dataset.count
    if n > 1:
        rng = np.random.Generator(np.random.PCG64(seed))
        order = rng.permutation(np.arange(1, n))
        for b0 in range(0, order.size, _BATCH):
            tree.insert_many(order[b0 : b0 + _BATCH])
    return tree
