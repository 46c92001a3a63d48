"""K-nearest-neighbor graph construction.

Two builders share the KnnGraph container: an exact builder, which ranks a
blocked-matmul shortlist per node, and a seeded NN-descent loop
(neighbor-of-my-neighbor refinement). build_tbsg uses the exact graph: it
costs n^2 distances but little per pair, and it was faster and smaller than
NN-descent at every size measured, up to 100k points. The exact builder is
also the quality oracle for NN-descent. Its ranking, _exact_topk, is the
package's one matmul-shortlist top-k: it also finds each cover-tree insert's
nearest root child and bench.brute_force_groundtruth's neighbours.
add_reverse_edges() closes the graph under edge reversal, together with any
one-way edges, producing the variable-degree candidate pools the index
builder prunes. It and NN-descent's list merge rank per-node entries through
one kernel, _ranked_unique: one argsort by (node, distance, id), keeping one
copy of each (node, id).

Everything here is deterministic for a fixed seed: random draws come from one
PCG64 stream, and every merge breaks ties by ascending id.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import ContextDecorator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import _BLOCK_VALUES, Dataset, l2_batch, pairwise_distances

__all__ = [
    "KnnGraph",
    "BKnnGraph",
    "build_exact_knng",
    "build_knng",
    "knng_recall",
    "add_reverse_edges",
]

# Per-round cap on each node's join pool. Local joins cost O(cap^2) per node,
# so this bounds the quadratic blowup at large K; 60 matches pynndescent's
# max_candidates default.
_MAX_CANDIDATES = 60

# Stop refining once a round changes fewer than this fraction of list slots.
_CONVERGENCE_DELTA = 0.001

# Fewest entries an NN-descent list holds, n - 1 permitting. Lists of one
# entry give round 1 pools of one new entry and no old one, so the join
# proposes no pair and the random lists come back.
_MIN_LIST = 10

# Proposed list entries (two per proposed pair) merged per node-range shard
# of an NN-descent round.
_SHARD_ENTRIES = 4_000_000

# Extra shortlist entries the exact top-k re-ranks beyond k, so that a row
# falls back to its full scan only when distances tie (or nearly) across
# this many places at its k-th neighbor. The KNNG's shortlist, of k_eff + 1
# with each point's own, is k_eff + 16 wide; with the re-rank tiled, widths
# 114-120 at sift128's K=100 shape took the same time (21-31 ms, median of
# five, 2-core Xeon).
_SHORTLIST_PAD = 15

# The sampled-threshold shortlist (_shortlist): from _THRESHOLD_FROM points
# on, each row's expansions are cut at an order statistic of about
# _SAMPLE_COLUMNS strided columns, chosen to leave about _SURVIVORS times
# the shortlist width, before the partition. build_exact_knng at K=20, d=16
# on prefixes of generate_synthetic(16000, 16, clusters=1, spread=1.0,
# seed=7), float32 expansions on one BLAS thread, 2-core Xeon (Python
# 3.11.7, NumPy 2.4.6 / OpenBLAS), medians of 7 or 9 alternating runs, full
# row partition against the cut: 13 / 18 ms at 1k, 29 / 40 ms at 2k, 74-83
# / 86-89 ms at 3k, 94-99 / 93-97 ms at 4k, 153 / 134 ms at 4.5k, 143-196 /
# 124-171 ms at 5k, 183 / 138 ms at 5.5k, 231 / 195 ms at 6k, 342 / 233 ms
# at 8k and 1.47 / 0.76 s at 16k; on 100 clusters of spread 0.02, 39 / 53
# ms at 2k, 116-124 / 107-116 ms at 4k, 173-175 / 136-143 ms at 5k and 224
# / 168 ms at 6k. The two meet near 4k points; the threshold stays at 5.5k,
# where a sweep with two BLAS threads and float64 expansions put it, since
# moving it changes build times and wants an end-to-end measurement.
# Earlier, at 16k, for 256 / 1024 / 4096 sample columns with 2, 3 or 6
# times the width: one Gaussian 0.93-0.96 / 0.91, 0.82, 0.97 / 0.91-1.14 s;
# 100 clusters of spread 0.02 0.82-0.88 / 0.87-0.92 / 0.91-1.17 s.
_THRESHOLD_FROM = 5500
_SAMPLE_COLUMNS = 1024
_SURVIVORS = 3


@dataclass
class KnnGraph:
    """Fixed-width neighbor lists: row u holds the k_eff ids nearest to u.

    ids and dists have shape (n, k_eff) with k_eff = min(K, n-1); rows are
    sorted ascending by (distance, id) and hold no self or duplicate entries.
    """

    ids: np.ndarray
    dists: np.ndarray
    K: int

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @property
    def k_eff(self) -> int:
        return self.ids.shape[1]


@dataclass
class BKnnGraph:
    """CSR adjacency: node u's entries sit in slice offsets[u]:offsets[u+1].

    Symmetric over KNNG edges: a KNNG edge (u, v) is present both ways. The
    one-way edges add_reverse_edges may also take are not reversed. Each
    node's slice is sorted ascending by (distance, id), holds each id once
    and never u itself.
    """

    offsets: np.ndarray
    ids: np.ndarray
    dists: np.ndarray

    @property
    def n(self) -> int:
        return self.offsets.shape[0] - 1


def _run_starts(srt: np.ndarray) -> np.ndarray:
    """True where a sorted array (each row, if 2-D) differs from its
    predecessor: the first entry of every run of equal values."""
    first = np.ones(srt.shape, dtype=bool)
    first[..., 1:] = srt[..., 1:] != srt[..., :-1]
    return first


def _rank_in_run(srt: np.ndarray) -> np.ndarray:
    """Position of each entry of a sorted 1-D array within its run of equal
    values."""
    pos = np.arange(srt.shape[0], dtype=np.int64)
    return pos - np.maximum.accumulate(np.where(_run_starts(srt), pos, 0))


def _dense_rank(a: np.ndarray) -> np.ndarray:
    """Rank of each entry of a 1-D array among its distinct values."""
    order = np.argsort(a)
    rank = np.empty(a.shape[0], dtype=np.int64)
    rank[order] = np.cumsum(_run_starts(a[order])) - 1
    return rank


def _ranked_topk(
    q: np.ndarray, x: np.ndarray, cand: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k best (id, distance) per query row among its candidates, ordered
    by (l2_batch distance, id): cand holds row ids of x, ascending along
    each row; rows holding all of x's ids read x in place.

    The distances are filled in tiles of about _BLOCK_VALUES gathered
    values, so each tile's rows and their difference stay in cache."""
    rows, width = cand.shape
    d = np.empty((rows, width), dtype=np.float64)
    step = max(1, _BLOCK_VALUES // max(width * x.shape[1], 1))
    for i in range(0, rows, step):
        xc = x[None] if width == x.shape[0] else x[cand[i : i + step]]
        d[i : i + step] = l2_batch(q[i : i + step, None, :], xc)
    # Stable, so equal distances keep cand's ascending id order.
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(d, order, axis=1)


def _shortlist(
    g: np.ndarray, width: int, sample: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the width smallest values of each row of g, ascending, and
    the smallest value left out.

    With a sample (one row per row of g, values of the same kind), a row is
    first cut to the values at or below the sample's order statistic chosen
    for about _SURVIVORS * width survivors, and only those are partitioned.
    Every value left out by the cut exceeds every survivor, so a row with
    more than width survivors gets the same answer as from its full row; a
    row with fewer is partitioned over its full row.
    """
    rows, n = g.shape
    cand = np.empty((rows, width), dtype=np.int64)
    left_out = np.empty(rows, dtype=np.float64)
    full = np.arange(rows)
    if sample is not None:
        j = min(_SURVIVORS * width * sample.shape[1] // n, sample.shape[1] - 1)
        sample.partition(j, axis=1)
        flat = np.flatnonzero(g <= sample[:, j : j + 1])
        row = flat // n
        col = flat - row * n
        counts = np.bincount(row, minlength=rows)
        ok = counts > width
        if ok.any():
            # The survivors of the rows that keep them, one padded row each.
            if not ok.all():
                sel = ok[row]
                flat, row, col = flat[sel], row[sel], col[sel]
                row = (np.cumsum(ok) - 1)[row]
            counts = counts[ok]
            slot = np.arange(flat.size) - (np.cumsum(counts) - counts)[row]
            vals = np.full((counts.size, counts.max()), np.inf, dtype=g.dtype)
            cols = np.zeros(vals.shape, dtype=np.int64)
            vals[row, slot] = g.ravel()[flat]
            cols[row, slot] = col
            part = np.argpartition(vals, width, axis=1)
            cand[ok] = np.take_along_axis(cols, part[:, :width], axis=1)
            left_out[ok] = np.take_along_axis(vals, part[:, width : width + 1], axis=1)[:, 0]
        full = np.flatnonzero(~ok)
    if full.size:
        g_full = g if full.size == rows else g[full]
        part = np.argpartition(g_full, width, axis=1)
        cand[full] = part[:, :width]
        left_out[full] = np.take_along_axis(g_full, part[:, width : width + 1], axis=1)[:, 0]
    cand.sort(axis=1)
    return cand, left_out


class _OneBlasThread(ContextDecorator):
    """Guard (and decorator) that runs NumPy's bundled OpenBLAS on one thread
    and then restores its count. The count is process-wide, so nested and
    concurrent entries share it: the first entrant saves it, the last to
    leave restores it. get() reads the count; without the wheel's
    scipy_openblas_{get,set}_num_threads64_ it reads None and set() does
    nothing."""

    def __init__(self) -> None:
        self.get, self.set = (lambda: None), (lambda count: None)
        self._lock, self._depth, self._saved = threading.Lock(), 0, None
        pkg = Path(np.__file__).parent
        for path in [*pkg.parent.glob("numpy.libs/*openblas*"), *pkg.glob(".dylibs/*openblas*")]:
            try:
                lib = ctypes.CDLL(str(path))  # already loaded by NumPy: one more reference
                get = lib.scipy_openblas_get_num_threads64_
                put = lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            self.get, self.set = get, put
            break

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._saved = self.get()
                self.set(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self.set(self._saved)


_one_blas_thread = _OneBlasThread()


@_one_blas_thread
def _exact_topk(
    x: np.ndarray, queries64: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (row ids, distances) per query over the float64 rows x; ties by
    ascending row id.

    The result is that of ranking a full row of l2_batch distances by
    (distance, id), bit for bit, but mostly only a shortlist is ranked: per
    block of queries one matmul of [q, 1] against [-2x, |x|^2], both centred
    on x's mean, gives the norm expansion |x|^2 - 2 q.x of every squared
    distance less |q|^2, _shortlist keeps the k + _SHORTLIST_PAD smallest,
    and l2_batch re-ranks those. A row whose k-th re-ranked squared distance
    is not below the smallest expansion left out by more than the rounding
    bound below (ties at the boundary included) is ranked over its full row
    instead. The matmul runs in float32, about twice as fast, until a row
    fails the float32 bound: its block is redone in float64, and so is every
    later block, so data too tight for float32 pay one extra block, not a
    full scan per row.

    Both matmuls run on one OpenBLAS thread (_one_blas_thread): blocks this
    small lose more to waking a second thread than it adds, and its spin
    slows the Python stages after the call. They only shortlist, so no
    output depends on the thread count.
    """
    n, dim = x.shape
    nq = queries64.shape[0]
    ids = np.empty((nq, k), dtype=np.int64)
    dists = np.empty((nq, k), dtype=np.float64)
    width = k + _SHORTLIST_PAD
    # Centring on x's mean moves no distance and shrinks (|q| + max|x|)^2
    # in the bound below to the data's own spread, wherever the data sit.
    # Rows are centred a block at a time, so no centred copy of x is held.
    mean = x.mean(axis=0)
    step = max(1, _BLOCK_VALUES // max(dim, 1))

    def centred_sq(a):
        out = np.empty(a.shape[0], dtype=np.float64)
        for i in range(0, a.shape[0], step):
            c = a[i : i + step] - mean
            out[i : i + step] = np.einsum("ij,ij->i", c, c)
        return out

    x_sq = centred_sq(x)
    q_sq = x_sq if queries64 is x else centred_sq(queries64)
    reach = np.sqrt(q_sq) + float(np.sqrt(x_sq.max()))
    # Rounding bound, u the unit roundoff of the matmul's type. A dot
    # product over dim + 1 terms, norms included, errs by at most
    # (dim + 1)*u/(1 - (dim + 1)*u) times the sum of its absolute products
    # in any summation order; rounding the centred rows and |x|^2 adds at
    # most (dim + 4)*u more. So an expansion is within slack*(|q| + max|x|)^2
    # of the exact squared distance t; adding |q|^2 fits in slack's
    # surplus. A left-out point's l2_batch distance squares to at least
    # t*(1 - slack) (difference, square and sum each round), and the k-th
    # re-ranked value times (1 + slack) covers its own rounding and keeps
    # the two apart after sqrt. float32 keeps the bound only while every
    # product stays a normal number, so it is taken for centred norms
    # between 2^-40 and 2^40.
    # About 1M expansion values per block: measured fastest at n=10k, d=16,
    # as larger blocks leave the cache for argpartition. The re-rank tiles
    # its own rows, so the block need not shrink with width * dim.
    block = max(1, (1 << 20) // n)

    def operands(dtype):
        xa = np.empty((n, dim + 1), dtype=dtype)
        for i in range(0, n, step):
            c = x[i : i + step] - mean
            np.multiply(c, -2.0, out=xa[i : i + step, :dim], casting="same_kind")
        xa[:, dim] = x_sq
        # The sampled cut's columns: about _SAMPLE_COLUMNS evenly strided
        # ones, their expansions from a matmul of their own.
        xs = xa[:: max(1, n // _SAMPLE_COLUMNS)].T.copy() if n >= _THRESHOLD_FROM else None
        # One result buffer: a fresh 8 MB float64 result per block cost
        # about a fifth more time at 16k points.
        g_buf = np.empty((min(block, nq), n), dtype=dtype)
        return xa, xs, g_buf, 2.0 * (dim + 8) * float(np.finfo(dtype).eps)

    dtype = np.float32 if nq and 2.0**-40 < reach.max() < 2.0**40 else np.float64
    xa, xs, g_buf, slack = operands(dtype)
    for start in range(0, nq, block):
        stop = min(start + block, nq)
        full = np.arange(start, stop)
        while width < n:
            q = queries64[start:stop]
            qa = np.ones((stop - start, dim + 1), dtype=dtype)
            qa[:, :dim] = q - mean
            g = np.matmul(qa, xa.T, out=g_buf[: stop - start])
            cand, left_out = _shortlist(g, width, None if xs is None else qa @ xs)
            ids[start:stop], dists[start:stop] = _ranked_topk(q, x, cand, k)
            left_out += q_sq[start:stop] - slack * reach[start:stop] ** 2
            safe = left_out * (1.0 - slack) > dists[start:stop, -1] ** 2 * (1.0 + slack)
            full = start + np.flatnonzero(~safe)
            if dtype == np.float64 or not full.size:
                break
            dtype = np.float64
            xa, xs, g_buf, slack = operands(dtype)
        if full.size:
            cand = np.broadcast_to(np.arange(n), (full.size, n))
            ids[full], dists[full] = _ranked_topk(queries64[full], x, cand, k)
    return ids, dists


def build_exact_knng(dataset: Dataset, K: int) -> KnnGraph:
    """Exact K nearest neighbors per node (K clamped to n-1), equal to a
    brute-force scan's: each point's k_eff + 1 nearest, returned as views past
    column 0, which the point leads at distance 0 unless exact duplicates of
    lower id rank ahead; such rows drop it, or their last entry if it is out."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    n = dataset.count
    k_eff = min(K, max(n - 1, 0))
    if k_eff == 0:
        return KnnGraph(np.empty((n, 0), dtype=np.int64), np.empty((n, 0)), K)
    ids, dists = _exact_topk(dataset.vectors64, dataset.vectors64, k_eff + 1)
    odd = np.flatnonzero(ids[:, 0] != np.arange(n))
    keep = ids[odd] != odd[:, None]
    keep[keep.all(axis=1), -1] = False
    ids[odd, 1:] = ids[odd][keep].reshape(-1, k_eff)
    dists[odd, 1:] = dists[odd][keep].reshape(-1, k_eff)
    return KnnGraph(ids[:, 1:], dists[:, 1:], K)


def knng_recall(approx: KnnGraph, exact: KnnGraph) -> float:
    """Mean per-node overlap fraction between two graphs' neighbor lists."""
    if approx.n != exact.n or approx.K != exact.K or approx.k_eff != exact.k_eff:
        raise ValueError(
            f"graph shape mismatch: ({approx.n}, K={approx.K}) "
            f"vs ({exact.n}, K={exact.K})"
        )
    if approx.n == 0 or approx.k_eff == 0:
        return 1.0
    # Each row holds distinct ids, so an id in both rows is a run of two.
    both = np.sort(np.concatenate([approx.ids, exact.ids], axis=1), axis=1)
    hits = int(np.count_nonzero(~_run_starts(both)))
    return hits / (approx.n * approx.k_eff)


def _ranked_unique(node: np.ndarray, ids: np.ndarray, d: np.ndarray, n: int) -> np.ndarray:
    """Positions of the (node, id, distance) entries in (node, distance, id)
    order, each (node, id) once: the copy at the lowest position.

    One argsort of an int64 key orders the entries: node * entries + the
    dense rank of (distance rank * n + id), which stays below n * entries
    (ids lie in [0, n)). Every copy of a (node, id) must carry the same
    distance bits, as l2_batch's symmetric distances do, so the copies share
    a key and sort next to each other; the lowest position of each run of
    equal keys stands for it.
    """
    key = node * np.int64(d.size) + _dense_rank(_dense_rank(d) * np.int64(n) + ids)
    order = np.argsort(key)
    return np.minimum.reduceat(order, np.flatnonzero(_run_starts(key[order])))


def add_reverse_edges(kg: KnnGraph, one_way=None) -> BKnnGraph:
    """Union of the graph's edges, their reversals and the optional one-way
    edges (src, dst, dist arrays, not reversed): per node, every distinct
    neighbor once, in (distance, id) order, with no self entry.

    _ranked_unique orders and dedupes the entries, and self entries are
    dropped.
    """
    n, k = kg.ids.shape
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = kg.ids.ravel().astype(np.int64)
    d = kg.dists.ravel().astype(np.float64)
    parts = [(src, dst, d), (dst, src, d)] + ([one_way] if one_way is not None else [])
    all_src, all_dst, all_d = (np.concatenate(p) for p in zip(*parts))
    pos = _ranked_unique(all_src, all_dst, all_d, n)
    pos = pos[all_src[pos] != all_dst[pos]]
    offsets = np.searchsorted(all_src[pos], np.arange(n + 1, dtype=np.int64))
    return BKnnGraph(offsets, all_dst[pos], all_d[pos])


def _random_neighbor_init(
    rng: np.random.Generator, n: int, K: int
) -> np.ndarray:
    """K distinct non-self neighbor ids per node, each row drawn uniformly
    from the n-1 other ids (order fixed later by distance)."""
    ids = np.empty((n, K), dtype=np.int64)
    for u in range(n):
        ids[u] = rng.choice(n - 1, K, replace=False)
    ids += ids >= np.arange(n)[:, None]
    return ids


def _cap_per_node(
    rng: np.random.Generator, node: np.ndarray, cand: np.ndarray, n: int, cap: int
) -> np.ndarray:
    """Each node's distinct candidates, at most cap of them chosen at random,
    as rows of an (n, cap) rectangle padded with -1."""
    key = _sorted_unique(node * np.int64(n) + cand)
    key = key[np.lexsort((rng.random(key.size), key // n))]
    node_s = key // n
    rank = _rank_in_run(node_s)
    keep = rank < cap
    rect = np.full((n, cap), -1, dtype=np.int64)
    rect[node_s[keep], rank[keep]] = key[keep] % n
    return rect


def _sample_candidates(
    rng: np.random.Generator, ids: np.ndarray, flags: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random join pools for this round: (new entries, old entries).

    Each node samples up to cap of its entries flagged new, which are then
    marked old (an entry joins as new in one round only), and up to cap of
    those already old when the round began. Every sampled edge also enters
    its other endpoint's pool, cut back to cap at random by _cap_per_node.
    Pools are rectangles padded with -1.
    """
    n, K = ids.shape
    pri = rng.random((n, K))
    rows = np.broadcast_to(np.arange(n, dtype=np.int64)[:, None], (n, cap))
    old = ~flags
    rects = []
    for want_new in (True, False):
        masked = np.where(flags if want_new else old, pri, np.inf)
        pos = np.argsort(masked, axis=1)[:, :cap]
        valid = np.take_along_axis(masked, pos, axis=1) < np.inf
        cand = np.take_along_axis(ids, pos, axis=1)
        fwd_node = rows[valid]
        fwd_cand = cand[valid]
        if want_new:
            flags[fwd_node, pos[valid]] = False
        node = np.concatenate([fwd_node, fwd_cand])
        cand_all = np.concatenate([fwd_cand, fwd_node])
        rects.append(_cap_per_node(rng, node, cand_all, n, cap))
    return rects[0], rects[1]


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array; equal to np.unique(a).

    From NumPy 2.3 on, np.unique deduplicates integers through a hash table.
    On the multi-million-key batches of the local join that is far slower
    than sorting and keeping each value that differs from its predecessor:
    5.4 s against 0.083 s for 5M random int64 keys (NumPy 2.4.6, 2-core
    Xeon). Through np.unique this dedupe took about two thirds of the
    10k-point default build's 264 s, so keep np.unique out of this path.
    """
    srt = np.sort(a)
    return srt[_run_starts(srt)]


def _local_join_pairs(
    new_rect: np.ndarray, old_rect: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Unique point pairs proposed by joining each node's pools: new x new
    (unordered) plus new x old."""
    cap = new_rect.shape[1]
    iu, ju = np.triu_indices(cap, k=1)
    keys = [np.empty(0, dtype=np.int64)]
    block = max(1, (1 << 21) // max(cap * cap, 1))
    for s0 in range(0, new_rect.shape[0], block):
        fn = new_rect[s0 : s0 + block]
        fo = old_rect[s0 : s0 + block]
        a = fn[:, iu].ravel()
        b = fn[:, ju].ravel()
        ok = (a >= 0) & (b >= 0)
        a, b = a[ok], b[ok]
        a2 = np.repeat(fn, cap, axis=1).ravel()
        b2 = np.tile(fo, (1, cap)).ravel()
        ok2 = (a2 >= 0) & (b2 >= 0) & (a2 != b2)
        lo = np.concatenate([np.minimum(a, b), np.minimum(a2[ok2], b2[ok2])])
        hi = np.concatenate([np.maximum(a, b), np.maximum(a2[ok2], b2[ok2])])
        keys.append(_sorted_unique(lo * np.int64(n) + hi))
    key = _sorted_unique(np.concatenate(keys))
    return key // n, key % n


def _apply_updates(
    ids: np.ndarray,
    dists: np.ndarray,
    flags: np.ndarray,
    pa: np.ndarray,
    pb: np.ndarray,
    pd: np.ndarray,
) -> int:
    """Merge proposed pairs into both endpoints' lists; keep top-K per node.

    Mutates (ids, dists, flags) and returns the number of changed slots.
    Work is sharded by node range, about _SHARD_ENTRIES proposed entries per
    shard, so the transient merge arrays stay small relative to the update
    volume. A shard's listed entries come first and its proposals follow, so
    _ranked_unique keeps the listed copy, and its new/old flag, of a pair
    proposed again; a kept position past the listed block is a changed slot.
    """
    n, K = ids.shape
    shards = max(1, -(-2 * pa.shape[0] // _SHARD_ENTRIES))
    width = -(-n // shards)
    changed = 0
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        in_a = (pa >= lo) & (pa < hi)
        in_b = (pb >= lo) & (pb < hi)
        listed = (hi - lo) * K
        own = np.repeat(np.arange(lo, hi, dtype=np.int64), K)
        node = np.concatenate([own, pa[in_a], pb[in_b]])
        cand = np.concatenate([ids[lo:hi].ravel(), pb[in_a], pa[in_b]])
        d = np.concatenate([dists[lo:hi].ravel(), pd[in_a], pd[in_b]])
        # Keep what does not sort after its node's worst entry: every listed
        # entry, and the proposals that could enter the list.
        worst_d = dists[node, K - 1]
        ok = (d < worst_d) | ((d == worst_d) & (cand <= ids[node, K - 1]))
        node, cand, d = node[ok], cand[ok], d[ok]
        flag = np.concatenate([flags[lo:hi].ravel(), np.ones(d.size - listed, dtype=bool)])
        pos = _ranked_unique(node, cand, d, n)
        pos = pos[_rank_in_run(node[pos]) < K]
        ids[lo:hi] = cand[pos].reshape(-1, K)
        dists[lo:hi] = d[pos].reshape(-1, K)
        flags[lo:hi] = flag[pos].reshape(-1, K)
        changed += int(np.count_nonzero(pos >= listed))
    return changed


def build_knng(
    dataset: Dataset,
    K: int,
    iterations: int = 10,
    seed: int = 0,
    exact: bool = False,
) -> KnnGraph:
    """KNNG by NN-descent, or the exact graph when exact=True or n <= K + 1.

    NN-descent starts from random lists and repeatedly joins each node's
    recently-added (new) entries against its pools, keeping the K best per
    node, until `iterations` rounds have run or an iteration changes almost
    nothing. The lists hold L = min(max(K, _MIN_LIST), n - 1) entries, of
    which the first K are returned, and each round's join pools hold up to
    min(L, _MAX_CANDIDATES) entries per node. iterations and seed act only
    on NN-descent; build_tbsg passes exact=True.

    NN-descent's memory is unbounded, as a round holds every proposed pair.
    At K=20 with 10 rounds on generate_synthetic(n, 16, seed=7) its peak
    RSS was 505 MB at 20k points and 980 MB at 50k (13-14 s and 37 s),
    against 60 MB and 80 MB (1.4 s and 7.7 s) for the exact graph, on a
    2-core Xeon (Python 3.11.7, NumPy 2.4.6 / OpenBLAS).
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    n = dataset.count
    if exact or n <= K + 1:
        return build_exact_knng(dataset, K)
    L = min(max(K, _MIN_LIST), n - 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    ids = _random_neighbor_init(rng, n, L)
    rows = np.repeat(np.arange(n, dtype=np.int64), L)
    dists = pairwise_distances(dataset, rows, ids.ravel()).reshape(n, L)
    order = np.lexsort((ids, dists), axis=1)
    ids = np.take_along_axis(ids, order, axis=1)
    dists = np.take_along_axis(dists, order, axis=1)
    flags = np.ones((n, L), dtype=bool)
    cap = min(L, _MAX_CANDIDATES)
    for _ in range(iterations):
        new_rect, old_rect = _sample_candidates(rng, ids, flags, cap)
        pa, pb = _local_join_pairs(new_rect, old_rect, n)
        pd = pairwise_distances(dataset, pa, pb)
        changed = _apply_updates(ids, dists, flags, pa, pb, pd)
        if changed <= _CONVERGENCE_DELTA * n * L:
            break
    return KnnGraph(ids[:, :K], dists[:, :K], K)
