"""End-to-end CLI coverage: every subcommand through main() with real files."""

import csv
from dataclasses import fields

import pytest

from tbsg import TriangleGeom, cli
from tbsg.bench import ProbCheckRow, ScalingRow, read_report_csv
from tbsg.cli import PROFILES, main
from tbsg.io import read_fvecs


def _capture(monkeypatch, name):
    """Record what the CLI's call to bench function `name` returns."""
    results = []
    real = getattr(cli, name)

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, recording)
    return results


def _read_csv(path):
    assert b"\r" not in path.read_bytes()
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run synth -> groundtruth -> build -> search once; tests share the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "data": str(root / "base.fvecs"),
        "queries": str(root / "queries.fvecs"),
        "gt": str(root / "gt.ivecs"),
        "index": str(root / "graph.tbsg"),
        "csv": str(root / "report.csv"),
    }
    codes = {
        "synth": main([
            "synth", "--n", "500", "--d", "8", "--clusters", "2",
            "--spread", "1.0", "--seed", "0", "--out", paths["data"],
        ]),
        "synth_queries": main([
            "synth", "--n", "50", "--d", "8", "--clusters", "2",
            "--spread", "1.0", "--seed", "1", "--out", paths["queries"],
        ]),
        "groundtruth": main([
            "groundtruth", "--data", paths["data"], "--queries", paths["queries"],
            "--k", "10", "--out", paths["gt"],
        ]),
        "build": main([
            "build", "--data", paths["data"], "--out", paths["index"],
            "--K", "10", "--m", "10",
        ]),
        "search": main([
            "search", "--index", paths["index"], "--data", paths["data"],
            "--queries", paths["queries"], "--gt", paths["gt"], "--k", "10",
            "--pool-sizes", "10,20", "--reps", "1", "--csv", paths["csv"],
        ]),
    }
    return paths, codes


class TestPipeline:
    def test_every_stage_succeeds(self, pipeline):
        _, codes = pipeline
        assert codes == {name: 0 for name in codes}

    def test_synth_output_shape(self, pipeline):
        paths, _ = pipeline
        ds = read_fvecs(paths["data"])
        assert (ds.count, ds.dim) == (500, 8)

    def test_search_csv_is_a_report(self, pipeline):
        paths, _ = pipeline
        rows, metadata = read_report_csv(paths["csv"])
        assert [r.l for r in rows] == [10, 20]
        assert all(0.0 <= r.recall <= 1.0 for r in rows)
        assert all(r.qps > 0 for r in rows)
        assert metadata["dataset"] == "base"
        assert metadata["k"] == "10"

    def test_empty_groundtruth_rejected(self, pipeline, tmp_path, capsys):
        paths, _ = pipeline
        empty = tmp_path / "empty.ivecs"
        empty.write_bytes(b"")
        code = main([
            "search", "--index", paths["index"], "--data", paths["data"],
            "--queries", paths["queries"], "--gt", str(empty), "--k", "10",
            "--pool-sizes", "10", "--reps", "1",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_recall_uses_the_first_k_groundtruth_columns(self, pipeline, tmp_path, capsys):
        paths, _ = pipeline
        wide, narrow = str(tmp_path / "wide.ivecs"), str(tmp_path / "narrow.ivecs")
        for k, out in ((40, wide), (5, narrow)):
            assert main([
                "groundtruth", "--data", paths["data"], "--queries", paths["queries"],
                "--k", str(k), "--out", out,
            ]) == 0
        csv = str(tmp_path / "wide.csv")
        assert main([
            "search", "--index", paths["index"], "--data", paths["data"],
            "--queries", paths["queries"], "--gt", wide, "--k", "10",
            "--pool-sizes", "10,20", "--reps", "1", "--csv", csv,
        ]) == 0
        got = [r.recall for r in read_report_csv(csv)[0]]
        assert got == [r.recall for r in read_report_csv(paths["csv"])[0]]
        capsys.readouterr()
        code = main([
            "search", "--index", paths["index"], "--data", paths["data"],
            "--queries", paths["queries"], "--gt", narrow, "--k", "10",
            "--pool-sizes", "10", "--reps", "1",
        ])
        assert code == 1
        assert "fewer than k" in capsys.readouterr().err

    def test_corrupt_index_reports_data_error(self, pipeline, tmp_path, capsys):
        paths, _ = pipeline
        bad = tmp_path / "bad.tbsg"
        bad.write_bytes(b"not an index at all")
        code = main([
            "search", "--index", str(bad), "--data", paths["data"],
            "--queries", paths["queries"], "--gt", paths["gt"], "--k", "10",
            "--pool-sizes", "10", "--reps", "1",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSynth:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b, c = (str(tmp_path / name) for name in ("a.fvecs", "b.fvecs", "c.fvecs"))
        for out in (a, b):
            assert main(["synth", "--n", "40", "--d", "4", "--seed", "7", "--out", out]) == 0
        assert main(["synth", "--n", "40", "--d", "4", "--seed", "8", "--out", c]) == 0
        a_bytes = open(a, "rb").read()
        assert a_bytes == open(b, "rb").read()
        assert a_bytes != open(c, "rb").read()

    def test_invalid_n_is_data_error(self, tmp_path, capsys):
        code = main(["synth", "--n", "0", "--d", "4", "--out", str(tmp_path / "x.fvecs")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_required_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n", "10", "--out", str(tmp_path / "x.fvecs")])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_int_list(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "search", "--index", "i", "--data", "d", "--queries", "q",
                "--gt", "g", "--k", "5", "--pool-sizes", "10,abc",
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--sample-rate", "0.5"], ["--iterations", "5"]])
    def test_retired_nn_descent_flags(self, tmp_path, flag):
        # The KNNG is always exact, so these would act on nothing.
        with pytest.raises(SystemExit) as exc:
            main(["build", "--data", "d", "--out", str(tmp_path / "x.tbsg"), *flag])
        assert exc.value.code == 2


class TestDataErrors:
    def test_nan_mp_is_data_error(self, pipeline, tmp_path, capsys):
        paths, _ = pipeline
        code = main([
            "build", "--data", paths["data"], "--out", str(tmp_path / "nan.tbsg"),
            "--K", "8", "--m", "6", "--mp", "nan",
        ])
        assert code == 1
        assert "mp must be" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main([
            "groundtruth", "--data", str(tmp_path / "absent.fvecs"),
            "--queries", str(tmp_path / "also-absent.fvecs"),
            "--k", "5", "--out", str(tmp_path / "gt.ivecs"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_k_larger_than_dataset(self, pipeline, tmp_path, capsys):
        paths, _ = pipeline
        code = main([
            "groundtruth", "--data", paths["data"], "--queries", paths["queries"],
            "--k", "1000", "--out", str(tmp_path / "gt.ivecs"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestProbCheck:
    def test_bounds_hold_and_csv_written(self, tmp_path, capsys, monkeypatch):
        results = _capture(monkeypatch, "prob_check")
        csv_path = tmp_path / "prob.csv"
        code = main([
            "prob-check", "--dims", "2", "--samples", "10000", "--csv", str(csv_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all bounds hold: yes" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[:5] == ["d_se", "d_sv", "d_ve", "r", "dim"]
        # TriangleGeom's fields stand in place of geom; every cell is exact.
        header, *body = _read_csv(csv_path)
        names = [f.name for f in fields(ProbCheckRow)]
        assert names[0] == "geom"
        assert header == [f.name for f in fields(TriangleGeom)] + names[1:]
        rows = results[0].rows
        assert len(body) == len(rows) > 0
        for cells, row in zip(body, rows):
            g = row.geom
            assert [float(c) for c in cells[:4]] == [g.d_se, g.d_sv, g.d_ve, g.r]
            assert int(cells[4]) == row.dim
            assert [float(c) for c in cells[5:8]] == [row.min_prob, row.estimate, row.std_error]
            assert cells[8] == str(row.bound_ok)

    def test_too_few_samples_is_data_error(self, capsys):
        assert main(["prob-check", "--samples", "100"]) == 1
        assert "samples" in capsys.readouterr().err


class TestScale:
    def test_two_sizes_no_fit(self, pipeline, capsys):
        paths, _ = pipeline
        code = main([
            "scale", "--data", paths["data"], "--sizes", "100,200",
            "--K", "5", "--m", "6", "--l", "20", "--k", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "exponent" not in out

    def test_three_sizes_prints_exponents(self, pipeline, tmp_path, capsys, monkeypatch):
        paths, _ = pipeline
        results = _capture(monkeypatch, "scaling_experiment")
        csv_path = tmp_path / "scale.csv"
        code = main([
            "scale", "--data", paths["data"], "--sizes", "100,200,400",
            "--K", "5", "--m", "6", "--l", "20", "--k", "5",
            "--csv", str(csv_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "build-time exponent" in out
        assert csv_path.read_text().splitlines()[0] == "n,build_seconds,mean_distance_evals"
        header, *body = _read_csv(csv_path)
        assert header == [f.name for f in fields(ScalingRow)]
        assert [[int(n), float(t), float(e)] for n, t, e in body] == [
            [r.n, r.build_seconds, r.mean_distance_evals] for r in results[0].rows
        ]


class TestProfiles:
    def test_frozen_presets(self):
        assert PROFILES == {
            "sift-like": {"K": 100, "mp": 0.53, "m": 50},
            "gist-like": {"K": 200, "mp": 0.515, "m": 70},
        }

    def test_profile_flags_override(self, tmp_path, capsys):
        data = str(tmp_path / "tiny.fvecs")
        assert main(["synth", "--n", "80", "--d", "4", "--seed", "2", "--out", data]) == 0
        capsys.readouterr()
        code = main([
            "build", "--data", data, "--out", str(tmp_path / "tiny.tbsg"),
            "--profile", "gist-like", "--K", "8", "--m", "8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # mp comes from the gist-like preset, K/m from the explicit flags.
        assert "0.515" in out
