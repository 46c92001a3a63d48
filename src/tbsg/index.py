"""Tree-based search graph: construction, best-first k-NN search, persistence.

Construction wires the two structural ingredients together: every node's
candidate pool is its bidirected-KNNG neighborhood plus its cover tree
children, and the probability-guaranteed pruning rule cuts that pool down to
at most m edges per node. The cover tree root becomes the fixed search entry
point.
"""

from __future__ import annotations

import operator
import struct
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Dataset, distances_to_many
from .covertree import build_cover_tree
from .io import FormatError
from .knng import _sorted_unique, add_reverse_edges, build_knng
from .pruning import StrategyParams, _select_from_arrays

__all__ = [
    "TbsgParams",
    "SearchParams",
    "TbsgIndex",
    "build_tbsg",
    "search_knn",
    "search_knn_with_stats",
    "save_index",
    "load_index",
    "reachable_fraction",
]

_MAGIC = b"TBSG"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TbsgParams:
    """Build configuration; the defaults are the CLI's sift-like profile
    (K=100, m=50, mp=0.53, dynamic radius).

    iterations is validated but acts on nothing, as the KNNG is always exact
    (its cost grows as n^2); it stays for callers that still pass it.
    """

    K: int = 100
    m: int = 50
    mp: float = 0.53
    iterations: int = 10
    base: float = 2.0
    r_mode: str = "dynamic"
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not self.mp >= 0.5:
            raise ValueError(f"mp must be >= 0.5, got {self.mp}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 1.0 < self.base < float("inf"):
            raise ValueError(f"base must be finite and > 1, got {self.base}")
        if self.r_mode not in ("dynamic", "static"):
            raise ValueError(f"unknown r_mode {self.r_mode!r}")


@dataclass(frozen=True)
class SearchParams:
    """Pool size l and requested neighbor count k, with 1 <= k <= l."""

    l: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k > self.l:
            raise ValueError(f"k ({self.k}) must not exceed l ({self.l})")


class _Adjacency(Sequence):
    """Per-node view over an index's CSR arrays: item u is node u's out-edges,
    a view of `neighbors`. Assigning an item re-packs every node's list
    through the TbsgIndex constructor."""

    def __init__(self, index: TbsgIndex):
        self._index = index

    def __len__(self) -> int:
        return self._index.n

    def _node(self, u) -> int:
        return range(self._index.n)[operator.index(u)]

    def __getitem__(self, u) -> np.ndarray:
        u = self._node(u)
        offsets = self._index.offsets
        return self._index.neighbors[offsets[u] : offsets[u + 1]]

    def __setitem__(self, u, ids) -> None:
        lists = list(self)
        lists[self._node(u)] = ids
        index = self._index
        # The constructor checks the new lists before anything changes.
        packed = TbsgIndex(index.n, index.m, index.enter_point, lists)
        index.offsets, index.neighbors = packed.offsets, packed.neighbors


@dataclass
class TbsgIndex:
    """Built search graph in CSR (compressed sparse row) form: node u's
    out-edges, ascending by distance, are neighbors[offsets[u]:offsets[u+1]]
    (both int64, offsets of length n + 1), and search starts at the fixed
    enter point. Pass either `adjacency`, one id sequence per node, or the
    `offsets` and `neighbors` pair. `adjacency` reads back as a per-node view
    over the two arrays. Equality compares the searchable structure only;
    build_params is provenance and is not serialized."""

    n: int
    m: int
    enter_point: int
    offsets: np.ndarray
    neighbors: np.ndarray
    build_params: TbsgParams | None = None

    def __init__(
        self,
        n: int,
        m: int,
        enter_point: int,
        adjacency=None,
        build_params: TbsgParams | None = None,
        *,
        offsets=None,
        neighbors=None,
    ):
        if (adjacency is None) == (offsets is None or neighbors is None):
            raise ValueError("pass either adjacency or both offsets and neighbors")
        if adjacency is not None:
            lists = [np.asarray(a, dtype=np.int64).ravel() for a in adjacency]
            offsets = np.cumsum([0] + [a.size for a in lists])
            neighbors = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if (
            offsets.shape != (n + 1,)
            or offsets[0] != 0
            or offsets[-1] != neighbors.size
            or (offsets[1:] < offsets[:-1]).any()
        ):
            raise ValueError(
                f"offsets must run from 0 to {neighbors.size} over {n + 1} entries, "
                "never decreasing"
            )
        if not 0 <= enter_point < n:
            raise ValueError(f"enter point {enter_point} out of range [0, {n})")
        # A negative id reads as a uint64 of at least 2**63: one max checks
        # both ends.
        wide = neighbors.view(np.uint64)
        if wide.size and wide.max() >= n:
            u = int(np.searchsorted(offsets, np.argmax(wide >= n), side="right")) - 1
            raise ValueError(f"neighbor id out of range at node {u}")
        self.n, self.m, self.enter_point = n, m, enter_point
        self.offsets, self.neighbors = offsets, neighbors
        self.build_params = build_params

    @property
    def adjacency(self) -> _Adjacency:
        """Node u's out-edges as adjacency[u], a view of `neighbors`."""
        return _Adjacency(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TbsgIndex):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and self.enter_point == other.enter_point
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.neighbors, other.neighbors)
        )

    def max_out_degree(self) -> int:
        return int(np.diff(self.offsets).max(initial=0))


def build_tbsg(dataset: Dataset, params: TbsgParams | None = None) -> TbsgIndex:
    """Construct the index: cover tree + bidirected exact KNNG, then prune
    every node's pool."""
    if params is None:
        params = TbsgParams()
    n = dataset.count
    if n < 1:
        raise ValueError("cannot build an index over an empty dataset")
    tree = build_cover_tree(dataset, base=params.base, seed=params.seed)
    if n == 1:
        return TbsgIndex(1, params.m, tree.root, [[]], params)
    kg = build_knng(dataset, params.K, exact=True)
    static_r = kg.dists[:, 0].copy() if params.r_mode == "static" else None
    strategy = StrategyParams(
        strategy="tbsg",
        mp=params.mp,
        m=params.m,
        r_mode=params.r_mode,
        static_r=static_r,
    )
    # Each node's pool: its bidirected KNNG neighbourhood plus its tree
    # children, one tree edge per non-root point from its parent.
    parent = tree.parents()
    child = np.flatnonzero(parent >= 0)
    tree_d = distances_to_many(dataset, dataset.vectors64[parent[child]], ids=child)
    bg = add_reverse_edges(kg, (parent[child], child, tree_d))
    kept = _select_from_arrays(bg.offsets, bg.ids, bg.dists, strategy, dataset)
    return TbsgIndex(
        n,
        params.m,
        tree.root,
        build_params=params,
        offsets=np.searchsorted(kept, bg.offsets),
        neighbors=bg.ids[kept],
    )


def search_knn(
    index: TbsgIndex, dataset: Dataset, query, sp: SearchParams
) -> list[int]:
    """k nearest neighbor ids for the query, ascending by distance."""
    return search_knn_with_stats(index, dataset, query, sp)[0]


def search_knn_with_stats(
    index: TbsgIndex, dataset: Dataset, query, sp: SearchParams
) -> tuple[list[int], int]:
    """Best-first expansion; returns the k nearest ids found, ascending by
    distance, and the number of distance evaluations (pool insertions
    attempted, the seed included).

    The pool is a list of at most l (distance, id) tuples kept sorted by
    binary insertion, with a parallel visited list; each step expands the
    closest unvisited entry. Tuples order as lexsort((ids, distances)) does,
    ids being unique. After an expansion the cursor moves back to the lowest
    insertion position, as in NSG's search, since every entry before it is
    visited. Ids seen once are never re-inserted: anything truncated away was
    strictly beyond a pool boundary that only tightens, so this is observably
    identical to re-inserting and re-truncating.

    The enter point is always expanded first, so it is measured in the same
    distances_to_many call as its unseen neighbours (a self-edge is dropped)
    and enters the pool already visited: one kernel call per expansion that
    finds unseen neighbours. A local flag records once the pool holds l
    entries; from then on each insertion pops the last entry.
    """
    if dataset.count != index.n:
        raise ValueError(f"dataset has {dataset.count} points, index has {index.n}")
    q = np.asarray(query, dtype=np.float64)
    if q.shape not in ((dataset.dim,), (1, dataset.dim)):
        raise ValueError(f"query shape {q.shape} does not match dataset dim {dataset.dim}")
    q = q.ravel()
    if not np.isfinite(q).all():
        raise ValueError("query contains NaN or Inf values")
    offsets, neighbors, l = index.offsets, index.neighbors, sp.l
    ep = int(index.enter_point)
    seen = np.zeros(index.n, dtype=bool)
    seen[ep] = True
    nbrs = neighbors[offsets[ep] : offsets[ep + 1]]
    fresh = nbrs[~seen[nbrs]]
    seen[fresh] = True
    first = np.concatenate(([ep], fresh))
    entries = zip(distances_to_many(dataset, q, ids=first).tolist(), first.tolist())
    pool = [next(entries)]
    visited = [True]
    full = l == 1
    evals = first.size
    cur = 0
    while True:
        low = cur + 1
        for entry in entries:
            if full and entry >= pool[-1]:
                continue
            pos = bisect_left(pool, entry)
            pool.insert(pos, entry)
            visited.insert(pos, False)
            if full:
                pool.pop()
                visited.pop()
            else:
                full = len(pool) == l
            if pos < low:
                low = pos
        try:
            cur = visited.index(False, low)
        except ValueError:
            break
        visited[cur] = True
        u = pool[cur][1]
        nbrs = neighbors[offsets[u] : offsets[u + 1]]
        fresh = nbrs[~seen[nbrs]]
        # With nothing fresh, `entries` stays the exhausted iterator.
        if fresh.size:
            seen[fresh] = True
            evals += fresh.size
            entries = zip(distances_to_many(dataset, q, ids=fresh).tolist(), fresh.tolist())
    return [v for _, v in pool[: sp.k]], evals


def reachable_fraction(index: TbsgIndex) -> float:
    """Fraction of nodes reachable from the enter point along out-edges,
    found one BFS level at a time with one gather from the CSR per level."""
    seen = np.zeros(index.n, dtype=bool)
    frontier = np.asarray([index.enter_point], dtype=np.int64)
    seen[frontier] = True
    while frontier.size:
        starts = index.offsets[frontier]
        counts = index.offsets[frontier + 1] - starts
        # Entry j of the level's concatenated lists, when it falls in frontier
        # node i's list, sits at neighbors[starts[i] + j - (entries before it)].
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        nbrs = index.neighbors[np.arange(shift.size) + shift]
        frontier = _sorted_unique(nbrs[~seen[nbrs]])
        seen[frontier] = True
    return float(seen.sum() / index.n)


def save_index(index: TbsgIndex, path) -> None:
    """Write the index: magic, format version, n, m, enter point, then each
    node's degree-prefixed id list, all little-endian u32. A node holding
    more than m ids raises ValueError, since load_index would refuse it."""
    degrees = np.diff(index.offsets)
    if degrees.max(initial=0) > index.m:
        u = int(np.argmax(degrees > index.m))
        raise ValueError(f"node {u} holds {int(degrees[u])} ids, more than m={index.m}")
    payload = np.insert(index.neighbors.astype("<u4"), index.offsets[:-1], degrees)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIII", _FORMAT_VERSION, index.n, index.m, index.enter_point))
        fh.write(payload.tobytes())


def load_index(path) -> TbsgIndex:
    """Read an index written by save_index; structural errors raise FormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic, not an index file")
    if len(raw) < 20:
        raise FormatError(f"{path}: truncated header")
    version, n, m, ep = struct.unpack("<IIII", raw[4:20])
    if version != _FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if (len(raw) - 20) % 4 != 0:
        raise FormatError(f"{path}: truncated record at byte offset {len(raw)}")
    words = np.frombuffer(raw, dtype="<u4", offset=20)
    if n == 0:
        raise FormatError(f"{path}: index holds no nodes")
    # Degrees and ids interleave, so finding each node's degree word is a
    # sequential walk; it reads native-order words through a memoryview
    # (zero-copy on little-endian hosts) instead of converting every word.
    # Each step only records a head and jumps past its list; running off the
    # data at node u means u's head is missing (pos == size) or u - 1's list
    # overflowed (pos > size).
    flat = memoryview(words.astype(np.uint32, copy=False))
    size = len(flat)
    heads = []
    pos = 0
    try:
        for u in range(n):
            heads.append(pos)
            pos += flat[pos] + 1
    except IndexError:
        if pos == size:
            raise FormatError(f"{path}: truncated at node {u}") from None
        raise FormatError(f"{path}: truncated neighbor list at node {u - 1}") from None
    if pos > size:
        raise FormatError(f"{path}: truncated neighbor list at node {n - 1}")
    if pos != size:
        raise FormatError(f"{path}: {4 * (size - pos)} trailing bytes")
    heads = np.fromiter(heads, np.int64, count=n)
    degrees = words[heads]
    if degrees.max() > m:
        u = int(np.argmax(degrees > m))
        raise FormatError(f"{path}: node {u} holds {int(degrees[u])} ids, more than m={m}")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    is_id = np.ones(size, dtype=bool)
    is_id[heads] = False
    neighbors = words[is_id].astype(np.int64)
    try:
        return TbsgIndex(n, m, ep, offsets=offsets, neighbors=neighbors)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
