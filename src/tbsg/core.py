"""Vector storage and the L2 distance kernels shared by every other module.

Vectors are held as a contiguous float32 matrix (row i is point i). Every
distance that is kept or returned is computed in float64, so comparisons
are stable. float32 arithmetic (pairwise_sq over the float32 rows, the
exact KNNG's expansion matmul) only screens: its callers act on a float32
value only where a certified rounding margin shows the float64 result would
decide the same, and compute the rest in float64.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Dataset", "l2_distance"]

# float64 values (512 KB) per block of batch-distance work, so that each
# block's gathered rows and their difference stay in a 2 MiB L2 cache:
# pairwise_sq's pair chunks, the exact KNNG's re-rank tiles and pruning's
# candidates per chunk of nodes.
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
    diff = a - b
    return np.sqrt(np.einsum("...k,...k->...", diff, diff))


def distances_to_many(dataset: Dataset, query, ids=None) -> np.ndarray:
    """L2 distances from `query` to every point (or to the ids given).

    `query` is one vector, or one vector per point measured (row i against
    ids[i]). Accumulates in float64; returns a float64 array aligned with
    `ids` (or with the full dataset when ids is None).
    """
    q = np.asarray(query, dtype=np.float64)
    x = dataset.vectors64
    # take gathers the same rows as fancy indexing at about a third of its
    # fixed cost, which a search pays once per expansion.
    rows = x if ids is None else x.take(ids, axis=0)
    if q.shape != x.shape[1:] and q.shape != rows.shape:
        raise ValueError(f"query dimension {q.shape} does not match dataset dim {x.shape[1]}")
    if ids is None:  # vectors64 is read-only
        return l2_batch(rows, q)
    rows -= q  # take's fresh rows: l2_batch's subtract, bit for bit, in place
    # l2_batch's reduction with its subscripts spelled out for 2-D rows: the
    # same bits at a lower fixed cost.
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def pairwise_sq(x: np.ndarray, left_ids, right_ids) -> np.ndarray:
    """Elementwise squared L2 distances between paired rows of x (equal-length
    id arrays), computed and returned in x's dtype: float64 rows for every
    exact distance, float32 rows for pruning's screen.

    Each chunk of 512 KB of rows is gathered by take, and the right rows are
    subtracted in place from the left: two gathered operands and no third
    array for their difference. Over float64 rows the square roots are bit
    for bit those of l2_batch over the gathered rows. Over float32 rows each
    value, rounded as any float32 sum of squares, is within a relative
    gamma_{dim+2} of the exact squared distance while every nonzero square
    stays a normal number."""
    out = np.empty(len(left_ids), dtype=x.dtype)
    chunk = max(1, _BLOCK_VALUES * 8 // (x.itemsize * max(x.shape[1], 1)))
    for i in range(0, out.size, chunk):
        diff = x.take(left_ids[i : i + chunk], axis=0)
        diff -= x.take(right_ids[i : i + chunk], axis=0)
        np.einsum("ij,ij->i", diff, diff, out=out[i : i + chunk])
    return out


def pairwise_distances(dataset: Dataset, left_ids, right_ids) -> np.ndarray:
    """Elementwise L2 distances between paired point ids: the square roots
    of pairwise_sq over the float64 rows."""
    return np.sqrt(pairwise_sq(dataset.vectors64, left_ids, right_ids))
