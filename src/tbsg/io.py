"""Readers and writers for the fvecs/ivecs benchmark formats, plus a seeded
synthetic-data generator for desk-scale experiments.

Both file formats use the same framing: each record is a 4-byte little-endian
signed int holding the per-record dimension d, followed by d little-endian
4-byte payload values (IEEE-754 float32 for fvecs, int32 for ivecs). Every
record in a file must share the same d. Parsing is all-or-nothing: a malformed
file raises FormatError and yields no partial data.
"""

from __future__ import annotations

import os

import numpy as np

from .core import Dataset

__all__ = [
    "FormatError",
    "read_fvecs",
    "write_fvecs",
    "read_ivecs",
    "write_ivecs",
    "generate_synthetic",
    "generate_synthetic_labeled",
]


class FormatError(ValueError):
    """Raised for malformed fvecs/ivecs content or a corrupt index file."""


def _read_records(path: str | os.PathLike, payload_dtype: np.dtype) -> np.ndarray:
    """Parse the shared record framing; returns a (count, d) payload matrix."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0:
        return np.empty((0, 0), dtype=payload_dtype)
    if len(raw) < 4:
        raise FormatError(f"{path}: truncated record at byte offset 0")
    dim = int(np.frombuffer(raw, dtype="<i4", count=1)[0])
    if dim <= 0:
        raise FormatError(f"{path}: non-positive dimension {dim} at byte offset 0")
    record_size = 4 + 4 * dim
    count, trailing = divmod(len(raw), record_size)
    if trailing != 0:
        raise FormatError(
            f"{path}: truncated record at byte offset {count * record_size}"
        )
    headers = np.frombuffer(raw, dtype="<i4").reshape(count, dim + 1)[:, 0]
    bad = np.nonzero(headers != dim)[0]
    if bad.size:
        offset = int(bad[0]) * record_size
        raise FormatError(
            f"{path}: inconsistent dimension {int(headers[bad[0]])} != {dim} "
            f"at byte offset {offset}"
        )
    payload = np.frombuffer(raw, dtype=payload_dtype).reshape(count, dim + 1)[:, 1:]
    return np.ascontiguousarray(payload)


def read_fvecs(path: str | os.PathLike) -> Dataset:
    """Read an fvecs file into a Dataset (empty file -> empty Dataset)."""
    return Dataset(_read_records(path, np.dtype("<f4")))


def read_ivecs(path: str | os.PathLike) -> list[list[int]]:
    """Read an ivecs file into a list of equal-length integer lists."""
    payload = _read_records(path, np.dtype("<i4"))
    return [row.tolist() for row in payload]


def write_fvecs(path: str | os.PathLike, dataset: Dataset) -> None:
    """Write a Dataset in fvecs framing; read_fvecs(write_fvecs(x)) == x."""
    _write_records(path, dataset.vectors.astype("<f4", copy=False))


def write_ivecs(path: str | os.PathLike, lists) -> None:
    """Write a rectangular integer array-like (equal-length lists, or a 2-D
    array) in ivecs framing; empty input writes an empty file."""
    lengths = {len(row) for row in lists}
    if len(lengths) > 1:
        raise ValueError(f"ivecs records must share one length, got {sorted(lengths)}")
    payload = np.asarray(lists).reshape(len(lists), max(lengths, default=0))
    info = np.iinfo(np.int32)
    bad = (payload < info.min) | (payload > info.max) | (payload % 1 != 0)
    if bad.any():
        raise ValueError(f"ivecs value {payload[bad][0]} does not fit int32")
    _write_records(path, payload.astype("<i4"))


def _write_records(path: str | os.PathLike, payload: np.ndarray) -> None:
    count, dim = payload.shape
    if count == 0 or dim == 0:
        with open(path, "wb") as fh:
            fh.write(b"")
        return
    out = np.empty((count, dim + 1), dtype="<i4")
    out[:, 0] = dim
    out[:, 1:] = payload.view("<i4")
    with open(path, "wb") as fh:
        fh.write(out.tobytes())


def generate_synthetic_labeled(
    n: int, d: int, clusters: int = 1, spread: float = 0.1, seed: int = 0
) -> tuple[Dataset, np.ndarray, np.ndarray]:
    """Gaussian-blob data; returns (dataset, labels, centers).

    Centers are drawn from a unit normal, points get per-cluster std `spread`,
    and the rows are shuffled so any prefix mixes all clusters. Uses the PCG64
    generator, so a given seed reproduces bit-identical output anywhere numpy
    runs.
    """
    if n < 1 or d < 1 or clusters < 1:
        raise ValueError("n, d and clusters must all be >= 1")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = rng.standard_normal((clusters, d))
    labels = np.arange(n, dtype=np.int64) % clusters
    points = centers[labels] + spread * rng.standard_normal((n, d))
    order = rng.permutation(n)
    return Dataset(points[order].astype(np.float32)), labels[order], centers


def generate_synthetic(
    n: int, d: int, clusters: int = 1, spread: float = 0.1, seed: int = 0
) -> Dataset:
    """Seeded synthetic Dataset of `clusters` Gaussian blobs."""
    dataset, _, _ = generate_synthetic_labeled(n, d, clusters, spread, seed)
    return dataset
