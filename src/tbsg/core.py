"""Vector storage and the L2 distance kernels shared by every other module.

Vectors are held as a contiguous float32 matrix (row i is point i). Every
distance that is kept or returned is computed in float64, so comparisons
are stable. float32 arithmetic (pairwise_sq32, the exact KNNG's expansion
matmul) only screens: its callers act on a float32 value only where a
certified rounding margin shows the float64 result would decide the same,
and compute the rest in float64.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Dataset", "l2_distance"]

# float64 values (512 KB) per block of batch-distance work, so that each
# block's gathered rows and their difference stay in a 2 MiB L2 cache:
# pairwise_distances' pair chunks, the exact KNNG's re-rank tiles and
# pruning's candidates per chunk of nodes.
_BLOCK_VALUES = 1 << 16


class Dataset:
    """Immutable n x d matrix of float32 vectors with row index as point id.

    An empty dataset is canonicalized to shape (0, 0): the on-disk formats
    cannot represent a dimension without at least one record.
    """

    def __init__(self, vectors: np.ndarray):
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {vectors.shape}")
        if vectors.shape[0] == 0:
            vectors = vectors.reshape(0, 0)
        if not np.all(np.isfinite(vectors)):
            raise ValueError("dataset contains NaN or Inf values")
        self._vectors = vectors
        self._vectors.setflags(write=False)
        self._vectors64: np.ndarray | None = None

    @property
    def vectors(self) -> np.ndarray:
        return self._vectors

    @property
    def vectors64(self) -> np.ndarray:
        """float64 copy of the data, made on first use and cached."""
        if self._vectors64 is None:
            v = self._vectors.astype(np.float64)
            v.setflags(write=False)
            self._vectors64 = v
        return self._vectors64

    @property
    def dim(self) -> int:
        return self._vectors.shape[1]

    @property
    def count(self) -> int:
        return self._vectors.shape[0]

    def __len__(self) -> int:
        return self.count

    def vector(self, i: int) -> np.ndarray:
        return self._vectors[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._vectors.shape == other._vectors.shape and np.array_equal(
            self._vectors, other._vectors
        )

    def __repr__(self) -> str:
        return f"Dataset(count={self.count}, dim={self.dim})"


def l2_distance(a, b) -> float:
    """Euclidean distance between two vectors of equal dimension."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("distance arguments must be 1-D vectors")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    d = a - b
    # einsum, not np.dot: keeps the reduction order identical to l2_batch
    # so scalar and vectorized paths agree bitwise.
    return math.sqrt(np.einsum("i,i->", d, d))


def l2_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L2 distances between float64 arrays a and b over the last axis,
    broadcasting the leading ones: the one batch reduction every module uses."""
    return _norms(a - b)


def _norms(diff: np.ndarray) -> np.ndarray:
    """L2 norms of diff over its last axis: l2_batch's reduction."""
    return np.sqrt(np.einsum("...k,...k->...", diff, diff))


def distances_to_many(dataset: Dataset, query, ids=None) -> np.ndarray:
    """L2 distances from `query` to every point (or to the ids given).

    `query` is one vector, or one vector per point measured (row i against
    ids[i]). Accumulates in float64; returns a float64 array aligned with
    `ids` (or with the full dataset when ids is None).
    """
    q = np.asarray(query, dtype=np.float64)
    # take gathers the same rows as fancy indexing at about a third of its
    # fixed cost, which a search pays once per expansion.
    rows = dataset.vectors64 if ids is None else dataset.vectors64.take(ids, axis=0)
    if q.shape != (dataset.dim,) and q.shape != rows.shape:
        raise ValueError(f"query dimension {q.shape} does not match dataset dim {dataset.dim}")
    if ids is None:  # vectors64 is read-only
        return l2_batch(rows, q)
    rows -= q  # take's fresh rows: l2_batch's subtract, bit for bit, in place
    return _norms(rows)


def pairwise_distances(dataset: Dataset, left_ids, right_ids) -> np.ndarray:
    """Elementwise L2 distances between paired point ids (equal-length
    arrays), bit for bit those of l2_batch over the gathered rows.

    Each chunk's rows are gathered by take, and the right rows are subtracted
    in place from the left: two gathered operands and no third array for
    their difference."""
    x = dataset.vectors64
    out = np.empty(len(left_ids), dtype=np.float64)
    chunk = max(1, _BLOCK_VALUES // max(dataset.dim, 1))
    for i in range(0, out.size, chunk):
        diff = x.take(left_ids[i : i + chunk], axis=0)
        diff -= x.take(right_ids[i : i + chunk], axis=0)
        out[i : i + chunk] = _norms(diff)
    return out


def pairwise_sq32(dataset: Dataset, left_ids, right_ids) -> np.ndarray:
    """Elementwise squared L2 distances between paired point ids, computed
    and returned in float32: pairwise_distances' gather and in-place
    subtract over the float32 rows, in chunks of the same 512 KB, without
    the square root. Rounded as any float32 sum of squares, each value is
    within a relative gamma_{dim+2} of the exact squared distance while
    every nonzero square stays a normal number."""
    x = dataset.vectors
    out = np.empty(len(left_ids), dtype=np.float32)
    chunk = max(1, 2 * _BLOCK_VALUES // max(dataset.dim, 1))
    for i in range(0, out.size, chunk):
        diff = x.take(left_ids[i : i + chunk], axis=0)
        diff -= x.take(right_ids[i : i + chunk], axis=0)
        np.einsum("ij,ij->i", diff, diff, out=out[i : i + chunk])
    return out
