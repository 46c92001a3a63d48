"""fvecs/ivecs framing, error reporting, and the synthetic generator."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbsg import (
    Dataset,
    FormatError,
    generate_synthetic,
    generate_synthetic_labeled,
    read_fvecs,
    read_ivecs,
    write_fvecs,
    write_ivecs,
)


class TestFvecsRoundTrip:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(17, 5)) * 1e3)
        path = tmp_path / "a.fvecs"
        write_fvecs(path, ds)
        assert read_fvecs(path) == ds

    def test_single_record(self, tmp_path):
        ds = Dataset(np.array([[1.5, -2.25, 0.0]], dtype=np.float32))
        path = tmp_path / "one.fvecs"
        write_fvecs(path, ds)
        back = read_fvecs(path)
        assert back == ds and back.dim == 3

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fvecs"
        write_fvecs(path, Dataset(np.empty((0, 0))))
        assert path.read_bytes() == b""
        assert read_fvecs(path).count == 0

    def test_byte_layout(self, tmp_path):
        # One d=2 record: little-endian i32 header then two f32 payloads.
        path = tmp_path / "layout.fvecs"
        write_fvecs(path, Dataset(np.array([[1.0, -1.0]], dtype=np.float32)))
        assert path.read_bytes() == struct.pack("<iff", 2, 1.0, -1.0)

    # Keyword binding: a positional strategy would bind to the pytest
    # fixture parameter instead of rows.
    @given(
        rows=st.integers(1, 6).flatmap(
            lambda d: st.lists(
                st.lists(
                    st.floats(
                        min_value=-1e5, max_value=1e5, allow_nan=False, width=32
                    ),
                    min_size=d,
                    max_size=d,
                ),
                min_size=1,
                max_size=12,
            )
        )
    )
    @settings(max_examples=60)
    def test_round_trip_property(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("fv") / "p.fvecs"
        ds = Dataset(np.asarray(rows, dtype=np.float32))
        write_fvecs(path, ds)
        assert read_fvecs(path) == ds


class TestIvecsRoundTrip:
    def test_round_trip(self, tmp_path):
        lists = [[3, 1, 2], [0, 0, 7], [-5, 2**31 - 1, -(2**31)]]
        path = tmp_path / "a.ivecs"
        write_ivecs(path, lists)
        assert read_ivecs(path) == lists

    def test_empty(self, tmp_path):
        path = tmp_path / "e.ivecs"
        write_ivecs(path, [])
        assert read_ivecs(path) == []

    def test_integer_arrays(self, tmp_path):
        path = tmp_path / "n.ivecs"
        for rows in (np.arange(6).reshape(2, 3), np.arange(6, dtype=np.uint32).reshape(3, 2)):
            write_ivecs(path, rows)
            assert read_ivecs(path) == rows.tolist()
        write_ivecs(path, np.empty((0, 4), dtype=np.int64))
        assert path.read_bytes() == b""

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 2**31]],
            [[-(2**31) - 1]],
            [[2**70]],
            np.array([[1, 2**31]]),
            np.array([[2**63]], np.uint64),
        ],
    )
    def test_values_outside_int32_rejected(self, tmp_path, rows):
        with pytest.raises(ValueError, match="does not fit int32"):
            write_ivecs(tmp_path / "w.ivecs", rows)

    @pytest.mark.parametrize("rows", [[[1.5, 2.7]], np.array([[3.0, -0.25]]), [[np.nan]]])
    def test_fractions_rejected(self, tmp_path, rows):
        with pytest.raises(ValueError, match="does not fit int32"):
            write_ivecs(tmp_path / "f.ivecs", rows)

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="share one length"):
            write_ivecs(tmp_path / "r.ivecs", [[1, 2], [3]])

    @given(
        lists=st.integers(1, 5).flatmap(
            lambda d: st.lists(
                st.lists(
                    st.integers(-(2**31), 2**31 - 1), min_size=d, max_size=d
                ),
                min_size=1,
                max_size=10,
            )
        )
    )
    @settings(max_examples=60)
    def test_round_trip_property(self, lists, tmp_path_factory):
        path = tmp_path_factory.mktemp("iv") / "p.ivecs"
        write_ivecs(path, lists)
        assert read_ivecs(path) == lists


class TestMalformedFiles:
    """Parsing is all-or-nothing and errors name the failing byte offset."""

    def test_short_header(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"\x01\x00")
        with pytest.raises(FormatError, match="byte offset 0"):
            read_fvecs(path)

    def test_non_positive_dimension(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack("<i", -3) + b"\x00" * 12)
        with pytest.raises(FormatError, match="non-positive dimension -3"):
            read_fvecs(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad"
        # d=2 record is 12 bytes; one full record plus 5 stray bytes.
        path.write_bytes(struct.pack("<iff", 2, 0.0, 1.0) + b"\x00" * 5)
        with pytest.raises(FormatError, match="byte offset 12"):
            read_fvecs(path)

    def test_inconsistent_dimension(self, tmp_path):
        path = tmp_path / "bad"
        rec1 = struct.pack("<iff", 2, 0.0, 1.0)
        rec2 = struct.pack("<iff", 3, 0.0, 1.0)  # claims d=3, framed as d=2
        path.write_bytes(rec1 + rec2)
        with pytest.raises(FormatError, match="inconsistent dimension 3 != 2"):
            read_fvecs(path)

    def test_ivecs_shares_framing_errors(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"\xff")
        with pytest.raises(FormatError, match="byte offset 0"):
            read_ivecs(path)


class TestSyntheticGenerator:
    def test_deterministic_per_seed(self):
        a = generate_synthetic(100, 6, clusters=3, spread=0.5, seed=4)
        b = generate_synthetic(100, 6, clusters=3, spread=0.5, seed=4)
        c = generate_synthetic(100, 6, clusters=3, spread=0.5, seed=5)
        assert a == b
        assert a != c

    def test_wrapper_matches_labeled(self):
        ds, _, _ = generate_synthetic_labeled(50, 4, clusters=2, seed=1)
        assert generate_synthetic(50, 4, clusters=2, seed=1) == ds

    def test_shapes_and_label_balance(self):
        n, clusters = 103, 4
        ds, labels, centers = generate_synthetic_labeled(n, 7, clusters=clusters, seed=2)
        assert (ds.count, ds.dim) == (n, 7)
        assert labels.shape == (n,)
        assert centers.shape == (clusters, 7)
        counts = np.bincount(labels, minlength=clusters)
        # Round-robin assignment before the shuffle: sizes differ by at most 1.
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == n

    def test_zero_spread_pins_points_to_centers(self):
        ds, labels, centers = generate_synthetic_labeled(30, 5, clusters=3, spread=0.0, seed=3)
        np.testing.assert_array_equal(
            ds.vectors, centers[labels].astype(np.float32)
        )

    def test_spread_scales_dispersion(self):
        tight, _, c_t = generate_synthetic_labeled(400, 3, clusters=1, spread=0.1, seed=6)
        loose, _, c_l = generate_synthetic_labeled(400, 3, clusters=1, spread=1.0, seed=6)
        rms_tight = np.sqrt(np.mean((tight.vectors64 - c_t[0]) ** 2))
        rms_loose = np.sqrt(np.mean((loose.vectors64 - c_l[0]) ** 2))
        assert rms_tight == pytest.approx(0.1, rel=0.15)
        assert rms_loose == pytest.approx(1.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 4)
        with pytest.raises(ValueError):
            generate_synthetic(10, 0)
        with pytest.raises(ValueError):
            generate_synthetic(10, 4, clusters=0)
        with pytest.raises(ValueError):
            generate_synthetic(10, 4, spread=-0.1)
