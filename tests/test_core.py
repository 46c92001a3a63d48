"""Dataset container and L2 distance kernel tests.

The batch kernels must agree bitwise with the scalar one: the library's
equivalence guarantees (vectorized selection and search vs their naive
counterparts) lean on that, so it is asserted here with exact equality,
not a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbsg import Dataset, l2_distance
from tbsg.core import distances_to_many, l2_batch, pairwise_distances


def _vectors(dim, max_side=1e6):
    elem = st.floats(
        min_value=-max_side, max_value=max_side, allow_nan=False, width=32
    )
    return st.lists(elem, min_size=dim, max_size=dim)


class TestDataset:
    def test_basic_shape_and_dtype(self):
        ds = Dataset(np.arange(12, dtype=np.float64).reshape(4, 3))
        assert (ds.count, ds.dim) == (4, 3)
        assert len(ds) == 4
        assert ds.vectors.dtype == np.float32
        assert ds.vectors.flags["C_CONTIGUOUS"]

    def test_rows_are_write_protected(self):
        ds = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.vectors[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.vectors64[0, 0] = 5.0

    def test_empty_is_canonical(self):
        ds = Dataset(np.empty((0, 7), dtype=np.float32))
        assert (ds.count, ds.dim) == (0, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            Dataset(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="NaN or Inf"):
            Dataset(np.array([[np.inf, 0.0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.zeros(3))

    def test_vectors64_cached_and_consistent(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(5, 4)))
        v64 = ds.vectors64
        assert v64 is ds.vectors64
        assert v64.dtype == np.float64
        np.testing.assert_array_equal(v64, ds.vectors.astype(np.float64))

    def test_vector_row_access(self):
        ds = Dataset(np.arange(6, dtype=np.float32).reshape(2, 3))
        np.testing.assert_array_equal(ds.vector(1), [3.0, 4.0, 5.0])

    def test_equality_is_bitwise(self):
        a = np.random.default_rng(1).normal(size=(3, 3)).astype(np.float32)
        assert Dataset(a) == Dataset(a.copy())
        b = a.copy()
        b[2, 2] = np.nextafter(b[2, 2], np.inf)
        assert Dataset(a) != Dataset(b)
        assert Dataset(a) != Dataset(a[:2])
        assert Dataset(a).__eq__(object()) is NotImplemented

    def test_constructor_accepts_lists(self):
        ds = Dataset([[1, 2], [3, 4]])
        assert ds.count == 2 and ds.vectors.dtype == np.float32


class TestScalarDistances:
    def test_known_values(self):
        assert l2_distance([0.0, 0.0], [3.0, 4.0]) == 5.0
        assert l2_distance([1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_matches_stdlib_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.normal(size=(2, 9))
            assert l2_distance(a, b) == pytest.approx(math.dist(a, b), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            l2_distance([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="1-D"):
            l2_distance(np.zeros((2, 2)), np.zeros((2, 2)))

    @given(st.integers(1, 16).flatmap(lambda d: st.tuples(_vectors(d), _vectors(d))))
    @settings(max_examples=150)
    def test_symmetry_and_nonnegativity(self, pair):
        a, b = pair
        d_ab = l2_distance(a, b)
        assert d_ab == l2_distance(b, a)  # bitwise: (a-b)**2 == (b-a)**2
        assert d_ab >= 0.0
        assert l2_distance(a, a) == 0.0

    @given(
        st.integers(1, 8).flatmap(
            lambda d: st.tuples(_vectors(d, 1e3), _vectors(d, 1e3), _vectors(d, 1e3))
        )
    )
    @settings(max_examples=150)
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        slack = 1e-9 * (1.0 + l2_distance(a, b) + l2_distance(b, c))
        assert l2_distance(a, c) <= l2_distance(a, b) + l2_distance(b, c) + slack


class TestBatchKernels:
    """The batch paths must reproduce the scalar kernel bit for bit."""

    def setup_method(self):
        rng = np.random.default_rng(42)
        self.ds = Dataset(rng.normal(size=(30, 7)))
        self.q = rng.normal(size=7)

    def test_distances_to_many_matches_scalar_bitwise(self):
        batch = distances_to_many(self.ds, self.q)
        x = self.ds.vectors64
        scalar = [l2_distance(x[i], self.q) for i in range(30)]
        assert batch.tolist() == scalar

    def test_distances_to_many_id_subset(self):
        x = self.ds.vectors64
        before = x.copy()
        for ids in (
            np.array([4, 0, 29, 4]),
            [4, 0, 29, 4],
            [7, 7, 7],
            np.empty(0, dtype=np.int64),
        ):
            batch = distances_to_many(self.ds, self.q, ids=ids)
            assert batch.shape == (len(ids),)
            assert batch.tolist() == [l2_distance(x[i], self.q) for i in ids]
        assert np.array_equal(self.ds.vectors64, before)

    def test_distances_to_many_one_query_per_id(self):
        ids = np.array([4, 0, 29, 4])
        x = self.ds.vectors64
        queries = x[[1, 2, 3, 5]]
        batch = distances_to_many(self.ds, queries, ids=ids)
        assert batch.tolist() == [l2_distance(x[i], q) for i, q in zip(ids, queries)]

    def test_distances_to_many_gathered_rows_match_l2_batch_bitwise(self):
        # The gathered rows take the query's subtraction in place; neither
        # the query nor the dataset may change, and the bits must not either.
        x = self.ds.vectors64
        ids = np.array([4, 0, 29, 4, 11])
        per_row = x[[1, 2, 3, 5, 8]] * 0.75
        for query in (self.q, per_row):
            before = query.copy()
            batch = distances_to_many(self.ds, query, ids=ids)
            assert batch.tobytes() == l2_batch(x[ids], query).tobytes()
            assert np.array_equal(query, before)
        assert np.array_equal(self.ds.vectors64, self.ds.vectors.astype(np.float64))

    def test_distances_to_many_rejects_bad_query(self):
        with pytest.raises(ValueError, match="does not match"):
            distances_to_many(self.ds, np.zeros(3))
        with pytest.raises(ValueError, match="does not match"):
            # One row would broadcast over every gathered row.
            distances_to_many(self.ds, np.zeros((1, 7)), ids=[0, 1])
        with pytest.raises(ValueError, match="does not match"):
            distances_to_many(self.ds, np.zeros((3, 7)), ids=[0, 1])
        with pytest.raises(ValueError, match="does not match"):
            distances_to_many(self.ds, np.zeros((1, 7)))

    def test_pairwise_matches_scalar_bitwise(self):
        left = np.array([0, 5, 9, 9])
        right = np.array([1, 5, 0, 9])
        batch = pairwise_distances(self.ds, left, right)
        x = self.ds.vectors64
        assert batch.tolist() == [l2_distance(x[a], x[b]) for a, b in zip(left, right)]
        assert batch[1] == 0.0 and batch[3] == 0.0

    def test_pairwise_across_chunks_matches_scalar_bitwise(self):
        # At dim 1024 a chunk holds 64 pairs, so 4500 pairs span 71.
        rng = np.random.default_rng(7)
        x = Dataset(rng.normal(size=(10, 1024))).vectors64
        left, right = rng.integers(0, 10, size=(2, 4500))
        batch = pairwise_distances(Dataset(x), left, right)
        assert batch.tolist() == [l2_distance(x[a], x[b]) for a, b in zip(left, right)]

    @pytest.mark.parametrize("dim", [1, 2, 7, 16, 32, 100, 128, 960])
    def test_broadcast_shapes_match_scalar_bitwise(self, dim):
        # The pruning candidate matrix (rows against rows), its row blocks
        # (some kept rows against the still-alive columns) and the exact
        # KNNG's query block against all points.
        rng = np.random.default_rng(dim)
        x = Dataset(rng.normal(size=(12, dim)) * 37.0).vectors64
        q = rng.normal(size=(3, dim))
        cand = l2_batch(x[:, None, :], x[None, :, :])
        assert cand.tolist() == [[l2_distance(a, b) for b in x] for a in x]
        block = l2_batch(q[:, None, :], x[None, :, :])
        assert block.tolist() == [[l2_distance(a, b) for b in x] for a in q]
        cols = np.array([0, 3, 5, 6, 11])
        for rows in ([3], [3, 5, 11]):
            part = l2_batch(x[rows, None, :], x[None, cols, :])
            assert part.tolist() == [[l2_distance(x[a], x[b]) for b in cols] for a in rows]
