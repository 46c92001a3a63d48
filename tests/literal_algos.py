"""Deliberately naive reference implementations for equivalence testing.

These re-derive the cover tree's one-point-at-a-time insert, the
candidate-pool union, the neighbor-selection scan and
the bounded-pool search (and its distance-evaluation count) with plain Python
loops, dicts, sets, and full re-sorts: no shared code paths with the library
beyond the two scalar primitives (l2_distance, min_prob), which have their
own dedicated tests. The exact top-k ranks every query's full row of
distances from the batch kernel l2_batch, itself tested bitwise against the
scalar one. The index reader unpacks one word at a time with struct. The
library's vectorized versions must reproduce these outputs exactly, element
for element.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from tbsg import TriangleGeom, l2_distance, min_prob
from tbsg.core import l2_batch


def literal_select(dataset, s, candidates, params):
    """Sequential selection scan over (id, distance) candidates.

    Candidates are visited in ascending (distance, id) order after dropping
    s itself, zero-distance duplicates of s, and repeated ids. A candidate is
    kept unless some already-kept neighbor triggers the strategy's exclusion
    rule; the scan stops once m neighbors are kept.
    """
    x = dataset.vectors64
    cand = []
    seen = set()
    for c, d in candidates:
        c = int(c)
        if c == s or c in seen or d == 0.0:
            continue
        seen.add(c)
        cand.append((float(d), c))
    cand.sort()
    selected: list[tuple[float, int]] = []
    for d_se, e in cand:
        if len(selected) == params.m:
            break
        excluded = False
        for d_sv, v in selected:
            d_ve = l2_distance(x[v], x[e])
            if params.strategy == "rng":
                if d_ve < d_se:
                    excluded = True
                    break
            elif params.strategy == "nssg":
                cos_a = (d_sv * d_sv + d_se * d_se - d_ve * d_ve) / (
                    2.0 * d_sv * d_se
                )
                if cos_a >= math.cos(params.alpha_t) - 1e-9:
                    excluded = True
                    break
            else:
                if d_ve < d_se:
                    if params.r_mode == "static":
                        r = float(params.static_r[s])
                        if r <= 0.0:
                            r = d_se
                    else:
                        r = d_se
                    p = min_prob(TriangleGeom(d_se=d_se, d_sv=d_sv, d_ve=d_ve, r=r))
                    if p >= params.mp:
                        excluded = True
                        break
        if not excluded:
            selected.append((d_se, e))
    return [e for _, e in selected]


def literal_union(kg, one_way=()):
    """Each node's candidate pool as a sorted list of (distance, id).

    A dict per node collects every KNNG edge in both directions plus the
    one-way (src, dst, distance) edges in their given direction only; a
    pair met twice keeps its smaller distance, and self entries are skipped.
    """
    pools = [{} for _ in range(kg.ids.shape[0])]

    def add(u, v, d):
        if u != v:
            pools[u][v] = min(d, pools[u].get(v, math.inf))

    for u in range(kg.ids.shape[0]):
        for v, d in zip(kg.ids[u].tolist(), kg.dists[u].tolist()):
            add(u, v, d)
            add(v, u, d)
    for u, v, d in one_way:
        add(int(u), int(v), float(d))
    return [sorted((d, v) for v, d in pool.items()) for pool in pools]


def literal_search(index, dataset, q, l, k):
    """Best-first search with a literally re-sorted, re-truncated pool.

    Each step expands the first unvisited pool entry, appends all its not-yet
    -seen neighbors, then fully re-sorts by (distance, id) and truncates the
    pool to l entries. Stops when every pool entry has been expanded.
    """
    x = dataset.vectors64
    pool = [(l2_distance(x[index.enter_point], q), index.enter_point)]
    visited: set[int] = set()
    inpool = {index.enter_point}
    while True:
        cur = None
        for _, node in pool:
            if node not in visited:
                cur = node
                break
        if cur is None:
            break
        visited.add(cur)
        for v in index.adjacency[cur]:
            v = int(v)
            if v in inpool:
                continue
            inpool.add(v)
            pool.append((l2_distance(x[v], q), v))
        pool.sort(key=lambda entry: (entry[0], entry[1]))
        pool = pool[:l]
    return [node for _, node in pool[:k]]


def literal_evals(index, dataset, q, l):
    """Distance evaluations of literal_search's loop with pool size l: every
    id that ever entered the pool cost one distance, the enter point
    included."""
    return sum(map(len, literal_expansions(index, dataset, q, l)))


def literal_expansions(index, dataset, q, l):
    """Ids first measured by each expansion of literal_search's loop with
    pool size l, in expansion order and adjacency order; the enter point
    heads the first expansion's list, and an expansion that finds no new id
    contributes an empty list."""
    x = dataset.vectors64
    ep = index.enter_point
    pool = [(l2_distance(x[ep], q), ep)]
    visited: set[int] = set()
    inpool = {ep}
    measured = [[ep]]
    while True:
        cur = next((node for _, node in pool if node not in visited), None)
        if cur is None:
            break
        if visited:
            measured.append([])
        visited.add(cur)
        for v in index.adjacency[cur]:
            v = int(v)
            if v not in inpool:
                inpool.add(v)
                measured[-1].append(v)
                pool.append((l2_distance(x[v], q), v))
        pool = sorted(pool)[:l]
    return measured


def literal_topk(x, queries, k, exclude_self):
    """Top-k (ids, distances) per query by full scan; ties by ascending id.

    Every query's whole row of l2_batch distances is ranked by (distance,
    id). With exclude_self, query row i is dataset point i and is removed
    from its own result.
    """
    n, dim = x.shape
    nq = queries.shape[0]
    ids = np.empty((nq, k), dtype=np.int64)
    dists = np.empty((nq, k), dtype=np.float64)
    col_ids = np.arange(n, dtype=np.int64)
    block = int(min(nq, max(1, (1 << 23) // max(n * max(dim, 1), 1))))
    for start in range(0, nq, block):
        q = queries[start : start + block]
        d = l2_batch(q[:, None, :], x[None, :, :])
        if exclude_self:
            self_ids = np.arange(start, start + q.shape[0])
            d[np.arange(q.shape[0]), self_ids] = np.inf
        order = np.lexsort((np.broadcast_to(col_ids, d.shape), d), axis=1)[:, :k]
        ids[start : start + q.shape[0]] = order
        dists[start : start + q.shape[0]] = np.take_along_axis(d, order, axis=1)
    return ids, dists


def literal_cover_tree(dataset, base, order):
    """Cover tree by inserting the points of order one at a time, root 0.

    Each insert descends from the root: the child at the smallest
    l2_distance (lowest id on ties) absorbs the point when it lies inside
    the child's covering ball base ** level; otherwise the point becomes a
    child of the current node one level down. Returns (parent, level,
    children) as plain lists, children in insertion order.
    """
    x = dataset.vectors64
    n = dataset.count
    parent = [-1] * n
    level = [0] * n
    children = [[] for _ in range(n)]
    for p in order:
        p = int(p)
        d_root = l2_distance(x[0], x[p])
        while base ** level[0] < d_root:
            level[0] += 1
        node = 0
        while True:
            best = None
            for c in children[node]:
                d = l2_distance(x[c], x[p])
                if best is None or (d, c) < best:
                    best = (d, c)
            if best is not None and best[0] <= base ** level[best[1]]:
                node = best[1]
                continue
            break
        parent[p] = node
        level[p] = level[node] - 1
        children[node].append(p)
    return parent, level, children


def literal_load(raw: bytes):
    """Read index-file bytes one node at a time, checking them in
    load_index's documented order. Returns (n, m, enter point, per-node id
    lists), or the FormatError message load_index must give, without its
    path prefix."""
    if raw[:4] != b"TBSG":
        return "bad magic, not an index file"
    if len(raw) < 20:
        return "truncated header"
    version, n, m, ep = struct.unpack_from("<IIII", raw, 4)
    if version != 1:
        return f"unsupported format version {version}"
    if len(raw) % 4:
        return f"truncated record at byte offset {len(raw)}"
    if n == 0:
        return "index holds no nodes"
    words = [w for (w,) in struct.iter_unpack("<I", raw[20:])]
    lists = []
    pos = 0
    for u in range(n):
        if pos == len(words):
            return f"truncated at node {u}"
        degree = words[pos]
        if pos + 1 + degree > len(words):
            return f"truncated neighbor list at node {u}"
        lists.append(words[pos + 1 : pos + 1 + degree])
        pos += 1 + degree
    if pos < len(words):
        return f"{4 * (len(words) - pos)} trailing bytes"
    for u, ids in enumerate(lists):
        if len(ids) > m:
            return f"node {u} holds {len(ids)} ids, more than m={m}"
    if ep >= n:
        return f"enter point {ep} out of range [0, {n})"
    for u, ids in enumerate(lists):
        if any(v >= n for v in ids):
            return f"neighbor id out of range at node {u}"
    return n, m, ep, lists
