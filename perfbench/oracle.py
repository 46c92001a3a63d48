"""Exact computations and output checks, written apart from the library.

Nothing here imports tbsg: the oracle recomputes every distance in float64
from the raw vectors, so a fault in the library's kernels, groundtruth or
recall code cannot hide itself. Every check returns a boolean mask (one entry
per operation) or a count of violations, so the caller can count failed
operations.
"""

from __future__ import annotations

import math

import numpy as np

# Relative slack for comparisons between the library's distances and ours:
# both are float64, but their reductions may run in another order.
ORDER_TOL = 1e-9
# Relative slack for "no farther than the k-th exact distance" (ties count).
TIE_TOL = 1e-12
# Pairs this close to either pruning threshold are not judged.
PRUNE_TOL = 1e-9
# Elements of the (queries, points, dim) difference block, bounding the
# oracle's working set at about 16 MB.
_BLOCK_ELEMENTS = 1 << 21


def row_distances(points64: np.ndarray, origins64: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Exact distances from origins64[i] to points64[ids[i, j]], shape of ids."""
    diff = points64[ids] - origins64[:, None, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def kth_distances(
    points64: np.ndarray, origins64: np.ndarray, k: int, exclude_self: bool = False
) -> np.ndarray:
    """The k-th smallest exact distance from each origin to the points.

    With exclude_self, origin i is point i and is left out of its own list.
    """
    n, dim = points64.shape
    out = np.empty(origins64.shape[0], dtype=np.float64)
    block = max(1, _BLOCK_ELEMENTS // max(n * dim, 1))
    for start in range(0, origins64.shape[0], block):
        q = origins64[start : start + block]
        diff = q[:, None, :] - points64[None, :, :]
        d = np.sqrt((diff * diff).sum(axis=-1))
        if exclude_self:
            d[np.arange(q.shape[0]), np.arange(start, start + q.shape[0])] = np.inf
        out[start : start + q.shape[0]] = np.partition(d, k - 1, axis=1)[:, k - 1]
    return out


def check_results(
    results: list, points64: np.ndarray, queries64: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-query pass mask, plus the (queries, k) id array when every
    result has exactly k entries.

    A result passes when it holds k distinct in-range ids in ascending exact
    distance from its query.
    """
    n = points64.shape[0]
    sizes = np.asarray([len(r) for r in results])
    if not np.all(sizes == k):
        return np.zeros(len(results), dtype=bool), None
    ids = np.asarray(results, dtype=np.int64).reshape(len(results), k)
    ok = np.all((ids >= 0) & (ids < n), axis=1)
    safe = np.where(ok[:, None], ids, 0)
    srt = np.sort(safe, axis=1)
    ok &= np.all(srt[:, 1:] != srt[:, :-1], axis=1)
    d = row_distances(points64, queries64, safe)
    ok &= np.all(d[:, 1:] >= d[:, :-1] * (1.0 - ORDER_TOL), axis=1)
    return ok, ids


def hits(ids: np.ndarray, points64: np.ndarray, queries64: np.ndarray, kth: np.ndarray) -> np.ndarray:
    """Per-query count of returned ids no farther than the k-th exact distance."""
    d = row_distances(points64, queries64, ids)
    return np.count_nonzero(d <= kth[:, None] * (1.0 + TIE_TOL), axis=1)


def check_adjacency(adjacency: list, points64: np.ndarray, m: int) -> np.ndarray:
    """Per-node pass mask: out-degree at most m, ids in range, no self-edge,
    no repeated id, and the list ascends by exact distance from its node."""
    n = points64.shape[0]
    ok = np.ones(n, dtype=bool)
    if len(adjacency) != n:
        return ~ok
    for s, nbrs in enumerate(adjacency):
        nbrs = np.asarray(nbrs, dtype=np.int64)
        if (
            nbrs.size > m
            or np.any((nbrs < 0) | (nbrs >= n) | (nbrs == s))
            or np.unique(nbrs).size != nbrs.size
        ):
            ok[s] = False
            continue
        d = row_distances(points64, points64[s : s + 1], nbrs[None, :])[0]
        ok[s] = bool(np.all(d[1:] >= d[:-1] * (1.0 - ORDER_TOL)))
    return ok


def pruning_violations(s: int, kept: np.ndarray, points64: np.ndarray, mp: float) -> int:
    """Kept pairs (v before e) where v blocks e under the dynamic-radius rule.

    v blocks e when d(v,e) < d(s,e) and 1 - arccos(clip(h/r))/pi >= mp, with
    h = (d_se^2 - d_ve^2) / (2 d_sv) and r = d_se. Pairs within PRUNE_TOL of
    either threshold are skipped.
    """
    kept = np.asarray(kept, dtype=np.int64)
    if kept.size < 2:
        return 0
    x = points64[kept]
    d_s = np.sqrt(((x - points64[s]) ** 2).sum(axis=1))
    diff = x[:, None, :] - x[None, :, :]
    d_ve = np.sqrt((diff * diff).sum(axis=-1))
    d_se = d_s[None, :]
    d_sv = d_s[:, None]
    h = (d_se * d_se - d_ve * d_ve) / (2.0 * d_sv)
    prob = 1.0 - np.arccos(np.clip(h / d_se, -1.0, 1.0)) / math.pi
    blocked = (d_ve < d_se) & (prob >= mp)
    clear = (np.abs(d_ve - d_se) > PRUNE_TOL * d_se) & (np.abs(prob - mp) > PRUNE_TOL)
    earlier = np.triu(np.ones((kept.size, kept.size), dtype=bool), k=1)
    return int(np.count_nonzero(blocked & clear & earlier))


def expected_index_bytes(adjacency: list) -> int:
    """Size of the index file: a 20-byte header, then per node a u32 degree
    and that many u32 ids."""
    return 20 + 4 * (len(adjacency) + sum(len(a) for a in adjacency))


def file_matches(raw: bytes, n: int, m: int, enter_point: int, adjacency: list) -> bool:
    """True when the bytes are the documented index file of this graph:
    magic TBSG, then little-endian u32 version 1, n, m, enter point, and per
    node a u32 degree followed by that many u32 ids."""
    if len(raw) != expected_index_bytes(adjacency) or raw[:4] != b"TBSG":
        return False
    words = np.frombuffer(raw, dtype="<u4", offset=4)
    if words[:4].tolist() != [1, n, m, enter_point]:
        return False
    pos = 4
    for nbrs in adjacency:
        degree = len(nbrs)
        if words[pos] != degree or not np.array_equal(words[pos + 1 : pos + 1 + degree], nbrs):
            return False
        pos += 1 + degree
    return True


def unreachable(adjacency: list, enter_point: int) -> int:
    """Nodes not reachable from the enter point along out-edges."""
    seen = np.zeros(len(adjacency), dtype=bool)
    seen[enter_point] = True
    frontier = [enter_point]
    while frontier:
        nxt = np.unique(np.concatenate([np.asarray(adjacency[u], dtype=np.int64) for u in frontier]))
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        frontier = nxt.tolist()
    return int(np.count_nonzero(~seen))


def bracket(recalls: list[float], target: float) -> tuple[int, int] | None:
    """Ladder positions (lo, hi) that bracket the target recall: hi is the
    first pool reaching it and lo the pool before. When the first pool
    already reaches it, lo == hi == 0. None when no pool reaches it."""
    for i, r in enumerate(recalls):
        if r >= target:
            return (max(i - 1, 0), i)
    return None


def at_recall(recalls: list[float], values: list[float], target: float) -> float | None:
    """A value read off the recall curve at the target, linear in recall
    between the two bracketing ladder pools."""
    b = bracket(recalls, target)
    if b is None:
        return None
    lo, hi = b
    if lo == hi:
        return float(values[hi])
    t = (target - recalls[lo]) / (recalls[hi] - recalls[lo])
    return float(values[lo] + t * (values[hi] - values[lo]))
