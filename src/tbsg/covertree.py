"""Simplified cover tree: every dataset point is a tree node.

The tree partitions space into nested balls whose radii shrink geometrically
with depth (covdist(p) = base ** level(p)). It serves two purposes here:
its root is the fixed search entry point, and each node's children join that
node's candidate pool during graph construction, which ties the whole graph
together even when the point happens to sit far from its KNNG neighbors.

Every insert starts by finding its nearest root child; knng._exact_topk, the
package's one matmul-shortlist ranking, does that, so its rounding bound
lives in knng alone.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, l2_batch, pairwise_distances
from .knng import _exact_topk

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
        if not 1.0 < base < float("inf"):
            raise ValueError(f"base must be finite and > 1, got {base}")
        self.dataset = dataset
        self.base = float(base)
        self.root = 0
        n = dataset.count
        self._level = np.zeros(n, dtype=np.int64)
        self._parent = np.full(n, -1, dtype=np.int64)
        # Node p's children in insertion order, one int64 id array per node.
        self._kids: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n

    @property
    def count(self) -> int:
        return 1 + int(np.count_nonzero(self._parent >= 0))

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
        if not (0 <= p < self._parent.shape[0]) or not (p == self.root or self._parent[p] >= 0):
            raise ValueError(f"point {p} is not in the tree")

    def insert_many(self, points) -> None:
        """Insert each point p in turn: descend from the root and attach p under
        its nearest covering node.

        At each step the closest child (lowest id on ties) absorbs p if p is
        inside that child's covering ball; otherwise p becomes a new child of
        the current node one level down. The root's level grows first if even
        its ball cannot cover p.

        The distances are batched. First every point descends the tree as it
        stands, all together (_descend; the root's children are ranked by
        knng._exact_topk, the exact top-k the KNNG is built with). Then the
        points are inserted in order, each walking its own descent: where a
        node it passes gained children from earlier points of the batch,
        those compete too, measured by the batch's own pair distances, and a
        point that moves into such a child continues among batch points only.
        The result equals that of one call per point.
        """
        ps = np.asarray(points, dtype=np.int64).reshape(-1)
        n = self._parent.shape[0]
        bad = (ps < 0) | (ps >= n)
        if bad.any():
            raise ValueError(f"point id {int(ps[bad][0])} out of range")
        # Members are the root and every point inserted under a parent.
        seen = self._parent >= 0
        seen[self.root] = True
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
            joined.setdefault(node, []).append(i)
        for node, late in joined.items():
            self._kids[node] = np.concatenate([self._kids[node], ps[late]])

    def _descend(self, ps: np.ndarray) -> list[list[tuple[int, float]]]:
        """Every point's descent through the tree as it stands, all points a
        level at a time: per depth, (child, distance) for the nearest child
        (lowest id on ties) of the node each point has reached, or (-1, inf)
        once it has stopped. A point stops at a node with no children or
        whose nearest child does not cover it.

        Every point starts at the root, so one knng._exact_topk call ranks
        the root's children for the whole batch. They are sorted by id first,
        so its ties by position are ties by lowest id."""
        x = self.dataset.vectors64
        kids = np.sort(self._kids[self.root])
        if not kids.size:
            return [[(-1, np.inf)] * ps.size]
        pos, d = _exact_topk(x[kids], x[ps], 1)
        child, near = kids[pos[:, 0]], d[:, 0]
        active = np.arange(ps.size)
        steps = []
        while True:
            levels = self._level[child[active]].tolist()
            cover = np.array([self.base ** level for level in levels])
            active = active[near[active] <= cover]
            steps.append(list(zip(child.tolist(), near.tolist())))
            if not active.size:
                return steps
            kids = [self._kids[v] for v in child[active].tolist()]
            sizes = np.array([k.size for k in kids], dtype=np.int64)
            who = np.repeat(active, sizes)
            cand = np.concatenate(kids)
            starts = np.flatnonzero(np.diff(who, prepend=-1))
            active = who[starts]
            d = pairwise_distances(self.dataset, ps[who], cand)
            best = np.repeat(np.minimum.reduceat(d, starts), sizes[sizes > 0])
            tied = np.where(d == best, cand, np.iinfo(np.int64).max)
            child = np.full(ps.size, -1, dtype=np.int64)
            near = np.full(ps.size, np.inf)
            child[active] = np.minimum.reduceat(tied, starts)
            near[active] = best[starts]


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
