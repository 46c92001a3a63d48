"""Tree-based search graph: construction, best-first k-NN search, persistence.

Construction wires the two structural ingredients together: every node's
candidate pool is its bidirected-KNNG neighborhood plus its cover tree
children, and the probability-guaranteed pruning rule cuts that pool down to
at most m edges per node. The cover tree root becomes the fixed search entry
point.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, distances_to_many
from .covertree import build_cover_tree
from .io import FormatError
from .knng import _exact_is_cheaper, _sorted_unique, add_reverse_edges, build_knng
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
    """Build configuration; the defaults are the million-scale SIFT-style
    profile (K=100, m=50, mp=0.53, dynamic radius).

    iterations and sample_rate tune NN-descent, which builds the KNNG only
    past the size where the exact graph costs more (knng._exact_is_cheaper;
    sample_rate also moves that crossover). Below it the KNNG is exact.
    """

    K: int = 100
    m: int = 50
    mp: float = 0.53
    iterations: int = 10
    sample_rate: float = 1.0
    base: float = 2.0
    r_mode: str = "dynamic"
    seed: int = 0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.mp < 0.5:
            raise ValueError(f"mp must be >= 0.5, got {self.mp}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in (0, 1], got {self.sample_rate}")
        if self.base <= 1.0:
            raise ValueError(f"base must be > 1, got {self.base}")
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


@dataclass
class TbsgIndex:
    """Built search graph: per-node out-edges (ascending by distance) plus the
    fixed enter point. Equality compares the searchable structure only;
    build_params is provenance and is not serialized."""

    n: int
    m: int
    enter_point: int
    adjacency: list[np.ndarray]
    build_params: TbsgParams | None = field(default=None, compare=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TbsgIndex):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and self.enter_point == other.enter_point
            and len(self.adjacency) == len(other.adjacency)
            and all(
                np.array_equal(a, b) for a, b in zip(self.adjacency, other.adjacency)
            )
        )

    def max_out_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)


def build_tbsg(dataset: Dataset, params: TbsgParams | None = None) -> TbsgIndex:
    """Construct the index: cover tree + bidirected KNNG (exact or by
    NN-descent, whichever the cost model finds cheaper), then prune per node."""
    if params is None:
        params = TbsgParams()
    n = dataset.count
    if n < 1:
        raise ValueError("cannot build an index over an empty dataset")
    tree = build_cover_tree(dataset, base=params.base, seed=params.seed)
    if n == 1:
        return TbsgIndex(1, params.m, tree.root, [np.empty(0, dtype=np.int64)], params)
    kg = build_knng(
        dataset,
        params.K,
        iterations=params.iterations,
        sample_rate=params.sample_rate,
        seed=params.seed,
        exact=_exact_is_cheaper(n, params.K, params.sample_rate),
    )
    bg = add_reverse_edges(kg)
    static_r = kg.dists[:, 0].copy() if params.r_mode == "static" else None
    strategy = StrategyParams(
        strategy="tbsg",
        mp=params.mp,
        m=params.m,
        r_mode=params.r_mode,
        static_r=static_r,
    )
    x = dataset.vectors64
    adjacency: list[np.ndarray] = []
    for s in range(n):
        cand_ids = bg.neighbor_ids(s)
        cand_d = bg.neighbor_dists(s)
        kids = np.asarray(tree.children(s), dtype=np.int64)
        extra = kids[~np.isin(kids, cand_ids)]
        if extra.size:
            cand_ids = np.concatenate([cand_ids, extra])
            cand_d = np.concatenate([cand_d, distances_to_many(dataset, x[s], ids=extra)])
        selected = _select_from_arrays(s, cand_ids, cand_d, strategy, dataset)
        adjacency.append(np.asarray(selected, dtype=np.int64))
    return TbsgIndex(n, params.m, tree.root, adjacency, params)


def _search_pool(
    index: TbsgIndex, dataset: Dataset, query, l: int
) -> tuple[list[int], int]:
    """Best-first expansion; returns the final pool ids and the number of
    distance evaluations (pool insertions attempted, the seed included).

    The pool is a list of at most l (distance, id) tuples kept sorted by
    binary insertion, with a parallel visited list; each step expands the
    closest unvisited entry. Tuples order as lexsort((ids, distances)) does,
    ids being unique. After an expansion the cursor moves back to the lowest
    insertion position, as in NSG's search, since every entry before it is
    visited. Ids seen once are never re-inserted: anything truncated away was
    strictly beyond a pool boundary that only tightens, so this is observably
    identical to re-inserting and re-truncating.
    """
    if dataset.count != index.n:
        raise ValueError(f"dataset has {dataset.count} points, index has {index.n}")
    q = np.asarray(query, dtype=np.float64).ravel()
    if q.shape[0] != dataset.dim:
        raise ValueError(f"query dim {q.shape[0]} does not match dataset dim {dataset.dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query contains NaN or Inf values")
    ep = int(index.enter_point)
    pool = [(float(distances_to_many(dataset, q, ids=[ep])[0]), ep)]
    visited = [False]
    seen = np.zeros(index.n, dtype=bool)
    seen[ep] = True
    evals = 1
    cur = 0
    while True:
        visited[cur] = True
        nbrs = index.adjacency[pool[cur][1]]
        fresh = nbrs[~seen[nbrs]]
        low = cur + 1
        if fresh.size:
            seen[fresh] = True
            evals += fresh.size
            dists = distances_to_many(dataset, q, ids=fresh)
            for entry in zip(dists.tolist(), fresh.tolist()):
                if len(pool) == l and entry >= pool[-1]:
                    continue
                pos = bisect_left(pool, entry)
                pool.insert(pos, entry)
                visited.insert(pos, False)
                if len(pool) > l:
                    pool.pop()
                    visited.pop()
                if pos < low:
                    low = pos
        try:
            cur = visited.index(False, low)
        except ValueError:
            break
    return [v for _, v in pool], evals


def search_knn(
    index: TbsgIndex, dataset: Dataset, query, sp: SearchParams
) -> list[int]:
    """k nearest neighbor ids for the query, ascending by distance."""
    pool_ids, _ = _search_pool(index, dataset, query, sp.l)
    return pool_ids[: sp.k]


def search_knn_with_stats(
    index: TbsgIndex, dataset: Dataset, query, sp: SearchParams
) -> tuple[list[int], int]:
    """Same as search_knn, also returning the distance-evaluation count."""
    pool_ids, evals = _search_pool(index, dataset, query, sp.l)
    return pool_ids[: sp.k], evals


def reachable_fraction(index: TbsgIndex) -> float:
    """Fraction of nodes reachable from the enter point along out-edges,
    found one BFS level at a time."""
    seen = np.zeros(index.n, dtype=bool)
    frontier = np.asarray([index.enter_point], dtype=np.int64)
    seen[frontier] = True
    while frontier.size:
        nbrs = np.concatenate([index.adjacency[u] for u in frontier.tolist()])
        frontier = _sorted_unique(nbrs[~seen[nbrs]])
        seen[frontier] = True
    return float(seen.sum() / index.n)


def save_index(index: TbsgIndex, path) -> None:
    """Write the index: magic, format version, n, m, enter point, then each
    node's degree-prefixed id list, all little-endian u32."""
    degrees = np.asarray([len(a) for a in index.adjacency], dtype=np.int64)
    total = int(index.n + degrees.sum())
    payload = np.empty(total, dtype="<u4")
    slots = np.zeros(index.n + 1, dtype=np.int64)
    np.cumsum(degrees + 1, out=slots[1:])
    payload[slots[:-1]] = degrees
    mask = np.ones(total, dtype=bool)
    mask[slots[:-1]] = False
    if total > index.n:
        payload[mask] = np.concatenate(index.adjacency)
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
    if ep >= n:
        raise FormatError(f"{path}: enter point {ep} out of range")
    flat = words.tolist()
    heads = []
    pos = 0
    for u in range(n):
        if pos >= len(flat):
            raise FormatError(f"{path}: truncated at node {u}")
        heads.append(pos)
        pos += flat[pos] + 1
        if pos > len(flat):
            raise FormatError(f"{path}: truncated neighbor list at node {u}")
    if pos != len(flat):
        raise FormatError(f"{path}: {4 * (len(flat) - pos)} trailing bytes")
    ids = words.astype(np.int64)
    ids[heads] = 0
    if ids.max() >= n:
        u = bisect_right(heads, int(np.argmax(ids >= n))) - 1
        raise FormatError(f"{path}: neighbor id out of range at node {u}")
    adjacency = [ids[a + 1 : b] for a, b in zip(heads, heads[1:] + [len(flat)])]
    return TbsgIndex(n, m, ep, adjacency, None)
