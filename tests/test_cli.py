import os
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modradon import cli, experiments, fbp, forward
from modradon.cli import main
from modradon.forward import load_sinogram
from modradon.phantom import load_phantom
from oracles import unfold_sinogram_oracle


def run(args):
    return main([str(a) for a in args])


class TestPhantomCommand:
    def test_writes_table_and_raster(self, tmp_path):
        table = tmp_path / "sl.txt"
        raster = tmp_path / "sl.pgm"
        assert run(["phantom", "--name", "shepp-logan", "--out", table,
                    "--raster", raster, "--size", 64]) == 0
        assert len(load_phantom(table).ellipses) == 10
        assert raster.read_bytes().startswith(b"P5\n")

    def test_unknown_table_file_fails(self, tmp_path, capsys):
        code = run(["phantom", "--name", tmp_path / "missing.txt",
                    "--out", tmp_path / "o.txt"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("table, message", [
        (b"0 0 nan 0.5 0 1\n", "line 1: non-finite column"),
        (b"0 0 0.5 0.5 0 1\n0 0 0.5 0.5 0 inf\n", "line 2: non-finite column"),
        (b"0 0 0.5 0.5 0 \xff\n", "line 1: non-numeric column"),
        (b"0 0 0.5 0.5 0 1\n0 0 -0.5 0.5 0 1\n",
         "line 2: semi-axes must be positive, got (-0.5, 0.5)"),
        (b"0.6 0 0.5 0.5 0 1\n", "line 1: ellipse is not contained in the closed unit disk"),
    ], ids=["nan", "inf", "not-utf8", "negative-axis", "outside-disk"])
    @pytest.mark.parametrize("command, out", [
        ("phantom", ["--out", "o.txt", "--raster", "r.pgm"]),
        ("forward", ["--omega", 20, "--lam", 0.05, "--out", "f.mrts"]),
        ("pipeline", ["--omega", 20, "--lam", 0.05, "--outdir", "p"]),
    ], ids=["phantom", "forward", "pipeline"])
    def test_bad_table_exits_2(self, tmp_path, capsys, monkeypatch, table, message,
                               command, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.txt").write_bytes(table)
        flag = "--name" if command == "phantom" else "--phantom"
        code = run([command, flag, "t.txt", *out])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: t.txt: {message}" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]


class TestForwardChain:
    def test_forward_fold_unfold_fbp(self, tmp_path):
        sino = tmp_path / "s.mrts"
        assert run(["forward", "--phantom", "shepp-logan", "--omega", 60, "--lam", 0.05,
                    "--out", sino]) == 0
        s = load_sinogram(sino)
        assert s.params.M == 60

        folded = tmp_path / "m.mrts"
        assert run(["fold", "--in", sino, "--out", folded]) == 0
        ms = load_sinogram(folded)
        assert np.max(np.abs(ms.rows)) <= 0.05

        recovered = tmp_path / "r.mrts"
        report = tmp_path / "rep.csv"
        assert run(["unfold", "--in", folded, "--beta", 0.6, "--out", recovered,
                    "--report", report]) == 0
        r = load_sinogram(recovered)
        K, Kp = s.params.K, s.params.K_prime
        np.testing.assert_array_equal(r.rows, s.rows[:, Kp - K : Kp + K + 1])
        assert report.read_text().startswith("row,n_used")

        img = tmp_path / "img.pgm"
        assert run(["fbp", "--in", recovered, "--out", img, "--size", 64]) == 0
        assert img.read_bytes().startswith(b"P5\n")


def write_nonfinite_mrts(path):
    """A .mrts sinogram (M=4, K=5, K'=8) with one NaN inside its [-K, K] block."""
    from modradon.forward import SamplingParams, Sinogram, save_sinogram

    p = SamplingParams(omega=20.0, T=0.05, lam=0.5, K=5, K_prime=8, M=4)
    rows = np.ones((4, 14))
    rows[2, 6] = np.nan
    save_sinogram(Sinogram(p, rows), path)


def write_partial_sample_mrts(path):
    """A valid .mrts sinogram (M=4, K=5, K'=8) followed by 3 stray bytes."""
    from modradon.forward import SamplingParams, Sinogram, save_sinogram

    p = SamplingParams(omega=20.0, T=0.05, lam=0.5, K=5, K_prime=8, M=4)
    save_sinogram(Sinogram(p, np.ones((4, 14))), path)
    with open(path, "ab") as f:
        f.write(b"\x00\x01\x02")


class TestFbpCommand:
    def test_nonfinite_mrts_exits_2(self, tmp_path, capsys):
        src = tmp_path / "nan.mrts"
        write_nonfinite_mrts(src)
        code = run(["fbp", "--in", src, "--out", tmp_path / "img.pgm", "--size", 16])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "row 2, column 6: not a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "img.pgm").exists()

    def test_partial_sample_mrts_exits_2(self, tmp_path, capsys):
        src = tmp_path / "odd.mrts"
        write_partial_sample_mrts(src)
        code = run(["fbp", "--in", src, "--out", tmp_path / "img.pgm", "--size", 16])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "expected 56 samples" in err
        assert "Traceback" not in err


class TestUnfoldCommand:
    @pytest.mark.parametrize("K", ["-3", "0"])
    def test_bad_K_exits_2(self, tmp_path, capsys, K):
        sino, folded = tmp_path / "s.mrts", tmp_path / "m.mrts"
        assert run(["forward", "--omega", 20, "--lam", 0.05, "--out", sino]) == 0
        assert run(["fold", "--in", sino, "--out", folded]) == 0
        out = tmp_path / "r.mrts"
        code = run(["unfold", "--in", folded, "--beta", 0.6, "--K", K, "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: K must be at least 1, got {K}" in err
        assert "Traceback" not in err
        assert not out.exists()


    def test_general_mode_matches_per_row_oracle(self, tmp_path, capsys):
        from modradon.unfold import GENERAL, UnfoldReport, select_order

        sino, folded = tmp_path / "s.mrts", tmp_path / "m.mrts"
        assert run(["forward", "--omega", 20, "--lam", 0.05, "--out", sino]) == 0
        assert run(["fold", "--in", sino, "--out", folded]) == 0
        out, report = tmp_path / "r.mrts", tmp_path / "rep.csv"
        code = run(["unfold", "--in", folded, "--beta", 0.6, "--mode", "general",
                    "--out", out, "--report", report])
        ms = load_sinogram(folded)
        p = ms.params
        N = select_order(p.lam, 0.6, p.omega, p.T, GENERAL)
        want, reps = unfold_sinogram_oracle(ms, N, mode=GENERAL, beta=0.6)
        got = load_sinogram(out)
        assert got.params == replace(want.params, N=None)  # .mrts keeps no order
        assert np.array_equal(got.rows.view(np.uint64), want.rows.view(np.uint64))
        assert report.read_text() == "".join(
            [f"row,{UnfoldReport.CSV_HEADER}\n"]
            + [f"{i},{r.to_csv_line()}\n" for i, r in enumerate(reps)])
        assert code == (0 if all(r.success for r in reps) else 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_refolded_file_unfolds_at_its_own_threshold(self, tmp_path, capsys):
        # fold --lam stores its threshold in the file, and unfold reads it there:
        # at 0.1 the order is 3, where the forward run's 0.05 gives 4
        from modradon.unfold import select_order

        sino, folded, out = tmp_path / "s.mrts", tmp_path / "m.mrts", tmp_path / "r.mrts"
        assert run(["forward", "--omega", 20, "--lam", 0.05, "--out", sino]) == 0
        assert run(["fold", "--in", sino, "--lam", 0.1, "--out", folded]) == 0
        ms = load_sinogram(folded)
        assert ms.params.lam == 0.1
        assert 0.05 < np.max(np.abs(ms.rows)) < 0.1
        N = select_order(0.1, 0.6, ms.params.omega, ms.params.T)
        assert N == 3
        capsys.readouterr()
        assert run(["unfold", "--in", folded, "--beta", 0.6, "--out", out]) == 0
        assert capsys.readouterr().out == f"unfolded 20 rows (order {N}); 0 flagged\n"
        assert load_sinogram(out).rows.tobytes() == load_sinogram(sino).symmetric_rows().tobytes()


class TestForwardCommand:
    def test_K_beyond_default_scan(self, tmp_path):
        # K=500 reaches past radius 4 at this spacing; the scan widens to cover it
        out = tmp_path / "s.mrts"
        assert run(["forward", "--omega", 20, "--lam", 0.05, "--K", 500, "--out", out]) == 0
        assert load_sinogram(out).params.K == 500

    def test_no_scan_radius_flag(self, capsys):
        for command in ("forward", "pipeline"):
            with pytest.raises(SystemExit):
                run([command, "--help"])
            assert "--scan-radius" not in capsys.readouterr().out

    @pytest.mark.parametrize("command, out", [("forward", "--out"), ("pipeline", "--outdir")])
    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_k_prime_exits_2(self, tmp_path, capsys, command, out, value):
        with pytest.raises(SystemExit) as exc:
            run([command, "--omega", 20, "--lam", 0.05, "--k-prime", value,
                 out, tmp_path / "x"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "argument --k-prime: expected 'auto' or a non-negative integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value, name", [
        ("--T", "0", "T"), ("--T", "-0.01", "T"), ("--omega", "0", "omega"),
        ("--omega", "nan", "omega"), ("--t-frac", "0", "t_frac"), ("--angles", "0", "M"),
        ("--lam", "0", "lam"),
    ])
    def test_bad_value_exits_2_before_scanning(self, tmp_path, capsys, monkeypatch,
                                               flag, value, name):
        scans = []
        for scan in ("phantom_rows", "scan_from_raw"):
            monkeypatch.setattr(experiments, scan, lambda *a, **k: scans.append(a))
        out = tmp_path / "f.mrts"
        argv = ["forward", "--omega", 20, "--lam", 0.05, "--out", out]
        code = run(argv + [flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {name} must be " in err and value in err
        assert "Traceback" not in err
        assert scans == [] and not out.exists()


class TestFoldCommand:
    def test_truncated_header_exits_2(self, tmp_path, capsys):
        full = tmp_path / "s.mrts"
        assert run(["forward", "--phantom", "shepp-logan", "--omega", 20, "--lam", 0.05,
                    "--out", full]) == 0
        cut = tmp_path / "cut.mrts"
        cut.write_bytes(full.read_bytes()[:30])
        code = run(["fold", "--in", cut, "--out", tmp_path / "m.mrts"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "truncated header" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lam, message", [
        ("1e308", "threshold 1e+308 is too large: 2*lam overflows"),
        ("1e-320", "at threshold 1e-320: (max|t| + lam)/(2*lam) overflows"),
    ])
    def test_overflowing_threshold_exits_2(self, tmp_path, capsys, lam, message):
        # before, 1e308 wrote a sinogram of NaN and 1e-320 overflowed in the divide
        src = tmp_path / "s.mrts"
        assert run(["forward", "--omega", 20, "--lam", 0.05, "--angles", 4, "--T", 0.01,
                    "--out", src]) == 0
        out = tmp_path / "o.mrts"
        code = run(["fold", "--in", src, "--lam", lam, "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestPipelineCommand:
    def test_modulo_file_is_the_folded_sinogram(self, tmp_path):
        # the result keeps no folded rows; the writer folds the clean ones again
        out = tmp_path / "p"
        assert run(["pipeline", "--omega", 20, "--lam", 0.05, "--size", 16, "--tag", "t",
                    "--outdir", out]) == 0
        want = tmp_path / "want.mrts"
        forward.save_sinogram(forward.fold_sinogram(load_sinogram(out / "t_sinogram.mrts")),
                              want)
        assert (out / "t_modulo.mrts").read_bytes() == want.read_bytes()

    def test_underflowing_oversampling_exits_2(self, tmp_path, capsys):
        # T*omega*e is 0: the order formula would take log(0)
        out = tmp_path / "p"
        code = run(["pipeline", "--omega", "5e-324", "--lam", 0.1, "--T", 0.01, "--angles", 4,
                    "--size", 16, "--outdir", out])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: T*omega*e underflows to 0 at T=0.01, omega=5e-324" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_outputs_and_determinism(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        args = ["pipeline", "--phantom", "shepp-logan", "--omega", 60, "--lam", 0.05,
                "--size", 64, "--tag", "t"]
        assert run(args + ["--outdir", out1]) == 0
        assert run(args + ["--outdir", out2]) == 0
        names = ["t_sinogram.mrts", "t_modulo.mrts", "t_unfolded.mrts",
                 "t_fbp_clean.pgm", "t_fbp_recovered.pgm", "t_fbp_clean.f64",
                 "t_fbp_recovered.f64", "t_metrics.csv", "t_unfold_reports.csv"]
        for n in names:
            assert (out1 / n).exists()
            assert (out1 / n).read_bytes() == (out2 / n).read_bytes()
        header, row = (out1 / "t_metrics.csv").read_text().splitlines()
        metrics = dict(zip(header.split(","), row.split(",")))
        assert metrics["images_bit_identical"] == "1"
        assert float(metrics["sino_parity_max"]) < 1e-9
        assert metrics["success"] == "1"

    def test_threshold_far_above_the_amplitude(self, tmp_path):
        # beta/(2*lam) lies inside the rounding guard band: the grid bound is
        # still one step of 2*lam, nothing folds, and the recovery is exact
        out = tmp_path / "p"
        assert run(["pipeline", "--omega", 20, "--lam", "1e300", "--size", 32,
                    "--tag", "t", "--outdir", out]) == 0
        header, row = (out / "t_metrics.csv").read_text().splitlines()
        metrics = dict(zip(header.split(","), row.split(",")))
        assert metrics["beta_grid"] == "2e+300"
        assert (metrics["N"], metrics["images_bit_identical"], metrics["success"]) == (
            "1", "1", "1")
        clean, folded, unfolded = (load_sinogram(out / f"t_{name}.mrts")
                                   for name in ("sinogram", "modulo", "unfolded"))
        assert clean.rows.tobytes() == folded.rows.tobytes()
        lo = clean.params.K_prime - clean.params.K
        assert unfolded.rows.tobytes() == clean.rows[:, lo:].tobytes()
        images = [(out / f"t_fbp_{which}.f64").read_bytes() for which in ("clean", "recovered")]
        assert images[0] == images[1]

    def test_ingested_sinogram_is_freed_before_back_projection(self, tmp_path, monkeypatch):
        # the pipeline needs only the clean rows it cuts out of a loaded
        # sinogram, so the loaded one must not live on through fold, unfold
        # and reconstruction
        src = tmp_path / "s.mrts"
        assert run(["forward", "--phantom", "shepp-logan", "--omega", 20, "--lam", 0.05,
                    "--out", src]) == 0
        loaded, alive = [], []
        load, back_project = cli.load_sinogram, fbp.back_project

        def loading(path):
            s = load(path)
            loaded.extend((weakref.ref(s), weakref.ref(s.rows)))
            return s

        def spying(*args):
            alive.append([ref() is not None for ref in loaded])
            return back_project(*args)

        monkeypatch.setattr(cli, "load_sinogram", loading)
        monkeypatch.setattr(fbp, "back_project", spying)
        assert run(["pipeline", "--ingest", src, "--lam", 0.05, "--omega", 20, "--size", 16,
                    "--outdir", tmp_path / "out"]) == 0
        assert len(loaded) == 2 and alive == [[False, False]]

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_bad_size_exits_2_before_forward(self, tmp_path, capsys, monkeypatch, size):
        calls = []
        monkeypatch.setattr(experiments, "prepare_forward", lambda *a, **k: calls.append(a))
        out = tmp_path / "out"
        code = run(["pipeline", "--omega", 300, "--lam", 0.025, "--size", size,
                    "--outdir", out])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: image grid must have at least one pixel per axis" in err
        assert "Traceback" not in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--size", "image grid 99999999999999999999999x99999999999999999999999 is too "
                   "large to index"),
        ("--angles", "M=99999999999999999999999 angles are too many to index"),
    ])
    def test_unindexable_count_exits_2(self, tmp_path, capsys, monkeypatch, flag, message):
        # both are refused before numpy is asked for an array of that size
        projected = []
        monkeypatch.setattr(experiments, "scan_from_raw", lambda *a, **k: projected.append(a))
        out = tmp_path / "out"
        code = run(["pipeline", "--omega", 20, "--lam", 0.1, flag, "99999999999999999999999",
                    "--outdir", out])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert projected == [] and not out.exists()

    def test_unindexable_raw_rows_exit_2(self, tmp_path, capsys, monkeypatch):
        # numpy can count 1e17 angles but not index 1e17 raw rows of 219
        # samples: refused before any angle or row is allocated
        projected = []
        for stage in ("projection_angles", "radon_phantom"):
            monkeypatch.setattr(forward, stage, lambda *a: projected.append(a))
        out = tmp_path / "out"
        code = run(["pipeline", "--omega", 20, "--lam", 0.1, "--angles", 10**17,
                    "--outdir", out])
        err = capsys.readouterr().err
        assert code == 2
        assert ("error: M=100000000000000000 angles at T=0.009196986029286059: the raw rows "
                "would hold 2.19e+19 samples") in err
        assert "Traceback" not in err
        assert projected == [] and not out.exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("pipeline", "--T", "1e-300", "T=1e-300 samples too finely: a raw row would hold "
                                      "2e+300 samples"),
        ("pipeline", "--t-frac", "1e-300", "t_frac=1e-300 at omega=20.0 samples too finely: "
                                           "a raw row would hold 1.09e+302 samples"),
        ("forward", "--T", "1e-300", "T=1e-300 samples too finely: a raw row would hold "
                                     "2e+300 samples"),
        # 1/T overflows to inf, and t_frac/(omega*e) underflows to 0
        ("forward", "--T", "5e-324", "T=5e-324 samples too finely: a raw row would hold "
                                     "inf samples"),
        ("pipeline", "--t-frac", "5e-324", "t_frac=5e-324 at omega=20.0 samples too finely: "
                                           "a raw row would hold inf samples"),
    ])
    def test_unindexable_spacing_exits_2(self, tmp_path, capsys, monkeypatch, command, flag,
                                         value, message):
        # the raw rows are sized before numpy is asked for them
        projected = []
        for stage in ("phantom_rows", "scan_from_raw"):
            monkeypatch.setattr(experiments, stage, lambda *a, **k: projected.append(a))
        out = tmp_path / "out"
        code = run([command, "--omega", 20, "--lam", 0.1, flag, value,
                    "--outdir" if command == "pipeline" else "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert projected == [] and not out.exists()

    def test_ingested_file_with_another_spacing_exits_2(self, tmp_path, capsys, monkeypatch):
        sino = tmp_path / "s.mrts"
        assert run(["forward", "--omega", 20, "--lam", 0.05, "--angles", 4, "--out", sino]) == 0
        T = load_sinogram(sino).params.T
        scans = []
        monkeypatch.setattr(experiments, "scan_from_raw", lambda *a, **k: scans.append(a))
        out = tmp_path / "out"
        code = run(["pipeline", "--ingest", sino, "--omega", 20, "--lam", 0.05, "--T", 0.004,
                    "--outdir", out])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: sample spacing mismatch: T=0.004 given, the sinogram's T={T!r}" in err
        assert "Traceback" not in err
        assert scans == [] and not out.exists()


class TestIngest:
    def _write_raw_csv(self, path, rows):
        with open(path, "w") as f:
            for r in rows:
                f.write(",".join(repr(v) for v in r.tolist()) + "\n")

    def test_normalized_ingest(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.uniform(0.0, 4.0, size=(6, 21))
        src = tmp_path / "raw.csv"
        self._write_raw_csv(src, rows)
        out = tmp_path / "s.mrts"
        assert run(["ingest", "--in", src, "--omega", 20, "--T", 0.05, "--angles", 6,
                    "--K", 10, "--lam", 0.1, "--out", out]) == 0
        s = load_sinogram(out)
        assert np.max(np.abs(s.rows)) == pytest.approx(1.0)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(4, 11))
        src = tmp_path / "raw.csv"
        self._write_raw_csv(src, rows)
        out = tmp_path / "s.mrts"
        assert run(["ingest", "--in", src, "--omega", 20, "--T", 0.05, "--angles", 4,
                    "--K", 5, "--lam", 0.1, "--no-normalize", "--out", out]) == 0
        assert np.array_equal(load_sinogram(out).rows, rows)

    def test_mrts_ingest_crops_and_normalizes(self, tmp_path):
        from modradon.forward import SamplingParams, Sinogram, save_sinogram

        rng = np.random.default_rng(2)
        p = SamplingParams(omega=20.0, T=0.05, lam=0.5, K=5, K_prime=8, M=4)
        s = Sinogram(p, rng.uniform(-3.0, 3.0, size=(4, 14)))
        src = tmp_path / "wide.mrts"
        save_sinogram(s, src)
        out = tmp_path / "norm.mrts"
        assert run(["ingest", "--in", src, "--omega", 20, "--T", 0.05, "--angles", 4,
                    "--K", 5, "--lam", 0.1, "--out", out]) == 0
        r = load_sinogram(out)
        assert r.rows.shape == (4, 11)
        assert np.max(np.abs(r.rows)) == pytest.approx(1.0)
        assert r.params.lam == 0.1

    @pytest.mark.parametrize("flags, message", [
        (["--T", 0.1, "--angles", 4, "--K", 5], "header T=0.05 differs from the given T=0.1"),
        (["--T", 0.05, "--angles", 5, "--K", 5],
         "header M=4, K=5 differs from the given M=5, K=5"),
        (["--T", 0.05, "--angles", 4, "--K", 4],
         "header M=4, K=5 differs from the given M=4, K=4"),
    ], ids=["T", "M", "K"])
    def test_mrts_header_differing_from_flags_exits_2(self, tmp_path, capsys, flags, message):
        from modradon.forward import SamplingParams, Sinogram, save_sinogram

        p = SamplingParams(omega=20.0, T=0.05, lam=0.5, K=5, K_prime=8, M=4)
        src = tmp_path / "s.mrts"
        save_sinogram(Sinogram(p, np.ones((4, 14))), src)
        out = tmp_path / "out.mrts"
        code = run(["ingest", "--in", src, "--omega", 20, *flags, "--lam", 0.1, "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {src}: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_all_zero_mrts_exits_nonzero(self, tmp_path, capsys):
        from modradon.forward import SamplingParams, Sinogram, save_sinogram

        p = SamplingParams(omega=20.0, T=0.05, lam=0.5, K=5, K_prime=8, M=4)
        src = tmp_path / "zero.mrts"
        save_sinogram(Sinogram(p, np.zeros((4, 14))), src)
        code = run(["ingest", "--in", src, "--omega", 20, "--T", 0.05, "--angles", 4,
                    "--K", 5, "--lam", 0.1, "--out", tmp_path / "s.mrts"])
        assert code == 2
        assert "all samples are zero" in capsys.readouterr().err

    def test_nonfinite_csv_exits_nonzero(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("1.0,2.0,3.0\n4.0,5.0,nan\n")
        code = run(["ingest", "--in", src, "--omega", 20, "--T", 0.05, "--angles", 2,
                    "--K", 1, "--lam", 0.1, "--no-normalize", "--out", tmp_path / "s.mrts"])
        assert code == 2
        assert "row 1, column 2: not a finite number" in capsys.readouterr().err

    def test_nonfinite_mrts_exits_2(self, tmp_path, capsys):
        src = tmp_path / "nan.mrts"
        write_nonfinite_mrts(src)
        out = tmp_path / "s.mrts"
        code = run(["ingest", "--in", src, "--omega", 20, "--T", 0.05, "--angles", 4,
                    "--K", 5, "--lam", 0.1, "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "row 2, column 6: not a finite number" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("# raw\n1.0,2.0,3.0\n\n4.0,-5.0,6.5\n", None),
        ("1.0,2.0,3.0\n4.0,nope,6.0\n", "row 1, column 1: not a number"),
    ], ids=["good", "malformed"])
    def test_piped_csv_reads_like_the_file(self, tmp_path, capsys, text, message):
        flags = ["--omega", 20, "--T", 0.05, "--angles", 2, "--K", 1, "--lam", 0.1]
        src = tmp_path / "raw.csv"
        src.write_text(text)
        code = run(["ingest", "--in", src, *flags, "--out", tmp_path / "file.mrts"])
        r, w = os.pipe()
        try:
            os.write(w, text.encode())
            os.close(w)
            piped = f"/dev/fd/{r}"
            assert run(["ingest", "--in", piped, *flags, "--out", tmp_path / "pipe.mrts"]) == code
        finally:
            os.close(r)
        err = capsys.readouterr().err
        if message is None:
            assert code == 0
            assert (tmp_path / "pipe.mrts").read_bytes() == (tmp_path / "file.mrts").read_bytes()
        else:
            assert code == 2
            assert f"error: {src}: {message}" in err and f"error: {piped}: {message}" in err
            assert "Traceback" not in err

    def test_malformed_csv_exits_nonzero(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("1.0,2.0,3.0\n4.0,nope,6.0\n")
        code = run(["ingest", "--in", src, "--omega", 20, "--T", 0.05, "--angles", 2,
                    "--K", 1, "--lam", 0.1, "--out", tmp_path / "s.mrts"])
        assert code == 2
        assert "row 1, column 1" in capsys.readouterr().err

    def test_partial_sample_mrts_exits_2(self, tmp_path, capsys):
        src = tmp_path / "odd.mrts"
        write_partial_sample_mrts(src)
        code = run(["ingest", "--in", src, "--omega", 20, "--T", 0.05, "--angles", 4,
                    "--K", 5, "--lam", 0.1, "--out", tmp_path / "s.mrts"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "expected 56 samples" in err
        assert "Traceback" not in err

    def test_declared_shape_larger_than_file_exits_2(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("1.0,2.0,3.0\n")
        code = run(["ingest", "--in", src, "--omega", 20, "--T", 0.05,
                    "--angles", 1000000000000, "--K", 1, "--lam", 0.1,
                    "--out", tmp_path / "s.mrts"])
        assert code == 2
        assert "cannot fit in 12 bytes" in capsys.readouterr().err

    def test_negative_angles_exits_2(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("1.0,2.0,3.0\n")
        code = run(["ingest", "--in", src, "--omega", 20, "--T", 0.05, "--angles", -1,
                    "--K", 1, "--lam", 0.1, "--out", tmp_path / "s.mrts"])
        assert code == 2
        assert "M must be a positive integer" in capsys.readouterr().err

    def test_empty_file_exits_nonzero(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("")
        code = run(["ingest", "--in", src, "--omega", 20, "--T", 0.05, "--angles", 2,
                    "--K", 10, "--lam", 0.1, "--out", tmp_path / "s.mrts"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSweepCommand:
    def test_worker_pool_matches_sequential(self, tmp_path, monkeypatch):
        from modradon.experiments import success_sweep

        seq = success_sweep(lams=(0.1,), omegas=(10 * np.pi, 20 * np.pi), trials=4,
                            tsteps=4, seed=11, workers=1)
        par = success_sweep(lams=(0.1,), omegas=(10 * np.pi, 20 * np.pi), trials=4,
                            tsteps=4, seed=11, workers=2)
        for a, b in zip(seq, par):
            assert (a.lam, a.omega) == (b.lam, b.omega)
            np.testing.assert_array_equal(a.rates, b.rates)

        # one bandwidth and two thresholds: the trials still spread over the pool
        jobs = []

        class SpyPool(experiments.ProcessPoolExecutor):
            def map(self, fn, iterable):
                iterable = list(iterable)
                jobs.extend(iterable)
                return super().map(fn, iterable)

        kw = dict(lams=(0.1, 0.05), omegas=(10 * np.pi,), trials=5, tsteps=4, seed=11)
        seq = success_sweep(**kw, workers=1)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SpyPool)
        par = success_sweep(**kw, workers=2)
        assert len(jobs) >= 2
        assert [c.to_csv() for c in par] == [c.to_csv() for c in seq]

    @pytest.mark.parametrize("flag, value, first, second", [
        ("--lams", "0.1,0.1000001", "lam=0.1 ", "lam=0.1000001 "),
        ("--lams", "0.05,0.05", "lam=0.05 ", "lam=0.05 "),
        ("--omegas-pi", "10,10.0000001", "omega=10.0pi", "omega=10.0000001pi"),
    ], ids=["six-digits", "duplicate", "omega"])
    def test_colliding_cell_names_exit_2(self, tmp_path, capsys, monkeypatch, flag, value,
                                         first, second):
        jobs = []
        monkeypatch.setattr(experiments, "_sweep_hits", jobs.append)
        outdir = tmp_path / "sw"
        code = run(["sweep-success", "--trials", 2, "--tsteps", 3, flag, value,
                    "--outdir", outdir])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: cells " in err and "would both write success_lam" in err
        assert err.index(first) < err.rindex(second)
        assert "Traceback" not in err
        assert jobs == []
        assert not outdir.exists()

    def test_bad_lams_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep-success", "--lams", "0.1,abc", "--outdir", tmp_path])
        assert exc.value.code == 2
        assert "argument --lams" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--trials", "0", "trials must be at least 1, got 0"),
        ("--tsteps", "0", "tsteps must be at least 1, got 0"),
        ("--lams", "0", "lam must be positive and finite, got 0.0"),
        ("--lams", "-0.1", "lam must be positive and finite, got -0.1"),
        ("--omegas-pi", "0", "omega must be positive and finite, got 0.0"),
        ("--lams", "1", "lam must be below 1, got 1.0"),
        ("--lams", "2", "lam must be below 1, got 2.0"),
        ("--workers", "0", "workers must be at least 1, got 0"),
        ("--workers", "-3", "workers must be at least 1, got -3"),
        ("--seed", "-1", "seed must be non-negative, got -1"),
        ("--trials", str(10**23), "trials=100000000000000000000000 is more than numpy can index"),
        ("--tsteps", str(10**23), "tsteps=100000000000000000000000 is more than numpy can index"),
        # the Nyquist spacing pi/omega overflows
        ("--omegas-pi", "1e-320", "T must be positive and finite, got inf"),
    ])
    def test_bad_parameter_exits_2(self, tmp_path, capsys, flag, value, message):
        outdir = tmp_path / "sw"
        code = run(["sweep-success", "--trials", 2, "--tsteps", 2, flag, value,
                    "--outdir", outdir])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_unindexable_bandwidth_exits_2_before_any_job(self, tmp_path, capsys,
                                                          monkeypatch):
        # |t| <= 1 at the guaranteed spacing of 1e300*pi is about 1.7e301 lattice
        # points, more than numpy can size: the check runs before any allocation
        jobs = []
        monkeypatch.setattr(experiments, "_sweep_hits", jobs.append)
        outdir = tmp_path / "sw"
        code = run(["sweep-success", "--tsteps", 1, "--trials", 1, "--omegas-pi", "1e300",
                    "--outdir", outdir])
        err = capsys.readouterr().err
        assert code == 2
        assert ("error: omega=1e+300pi is too large: the support lattice would hold "
                "1.71e+301 samples") in err
        assert "Traceback" not in err
        assert jobs == []
        assert not outdir.exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 382. GiB"), "error: Unable to allocate 382. GiB"),
        (MemoryError(), "error: MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, exc, message):
        def exhausted(**kwargs):
            raise exc

        monkeypatch.setattr(experiments, "success_sweep", exhausted)
        code = run(["sweep-success", "--tsteps", 1, "--trials", 1, "--outdir", tmp_path / "sw"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.strip() == message

    def test_tiny_sweep_deterministic(self, tmp_path):
        out1 = tmp_path / "sw1"
        out2 = tmp_path / "sw2"
        args = ["sweep-success", "--lams", "0.1", "--omegas-pi", "10",
                "--trials", 5, "--tsteps", 5, "--seed", 42]
        assert run(args + ["--outdir", out1]) == 0
        assert run(args + ["--outdir", out2]) == 0
        name = "success_lam0.1_omega10pi.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        text = (out1 / name).read_text()
        assert "t_over_shannon,order,success_rate" in text


class TestDemoCommand:
    def test_expected_pattern(self, tmp_path):
        out = tmp_path / "demo"
        assert run(["downsample-demo", "--outdir", out]) == 0
        lines = (out / "downsample_demo.csv").read_text().splitlines()
        assert lines[0] == "stage,T,order,fold_count,mse,max_err,success"
        flags = [line.split(",")[-1] for line in lines[1:]]
        assert flags == ["1", "0", "1"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--factor", "0", "factor must be positive and finite, got 0"),
        ("--t0-frac", "0", "t0_frac must be positive and finite, got 0.0"),
        ("--omega-pi", "0", "omega must be positive and finite, got 0.0"),
        ("--lam", "0", "lam must be positive and finite, got 0.0"),
        ("--lam", "nan", "lam must be positive and finite, got nan"),
        pytest.param("--factor", "1" + "0" * 400, "factor must be positive and finite, got 10000",
                     id="factor-1e400"),
        ("--seed", "-1", "seed must be non-negative, got -1"),
        # the base spacing 0.5/(omega*e) overflows
        ("--omega-pi", "1e-310", "T must be positive and finite, got inf"),
    ])
    def test_bad_parameter_exits_2(self, tmp_path, capsys, flag, value, message):
        outdir = tmp_path / "demo"
        code = run(["downsample-demo", flag, value, "--outdir", outdir])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not outdir.exists()

    def test_spacing_past_the_support(self, tmp_path):
        # at T = 2.3e306 the support lattice is [-1, 1] and no tail is probed:
        # the run reports its recoveries without overflowing
        out = tmp_path / "demo"
        assert run(["downsample-demo", "--t0-frac", "1e308", "--outdir", out]) in (0, 3)
        lines = (out / "downsample_demo.csv").read_text().splitlines()
        assert len(lines) == 4

    @pytest.mark.parametrize("flag, value, message", [
        ("--omega-pi", "1e300", "omega=3.141592653589793e+300 with t0_frac=0.5 samples too "
                                "finely: the support lattice would hold 3.42e+301 samples"),
        ("--t0-frac", "1e-300", "omega=31.41592653589793 with t0_frac=1e-300 samples too "
                                "finely: the support lattice would hold 1.71e+302 samples"),
    ])
    def test_unindexable_lattice_exits_2(self, tmp_path, capsys, monkeypatch, flag, value,
                                         message):
        # the first lattice is sized before any signal is sampled
        recovered = []
        monkeypatch.setattr(experiments, "_recover", lambda *a: recovered.append(a))
        outdir = tmp_path / "demo"
        code = run(["downsample-demo", flag, value, "--outdir", outdir])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert recovered == [] and not outdir.exists()


class TestConfigFile:
    def test_defaults_from_file_flags_win(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("seed = 3\nlam = 0.1\nfactor = 2\n")
        out = tmp_path / "demo"
        assert run(["downsample-demo", "--config", cfg, "--seed", 0,
                    "--outdir", out]) == 0
        # the explicit --seed 0 wins over the file's seed 3; output matches seed 0
        out2 = tmp_path / "demo2"
        assert run(["downsample-demo", "--seed", 0, "--outdir", out2]) == 0
        assert ((out / "downsample_demo.csv").read_bytes()
                == (out2 / "downsample_demo.csv").read_bytes())

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_flag = 1\n")
        code = run(["downsample-demo", "--config", cfg, "--outdir", tmp_path / "x"])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_non_utf8_byte_exits_2(self, tmp_path, capsys, monkeypatch):
        # a string value would otherwise carry the replacement character on
        # into a file name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_bytes(b"# \xff in a comment is ignored\n"
                                           b"size = 16\nraster = r\xff.pgm\n")
        code = run(["phantom", "--config", "bad.cfg", "--out", "o.txt"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: bad.cfg: line 3: not UTF-8 text" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


#: Numeric flag values the property test below draws: not numbers a count
#: takes, not positive, too small or too large to sample, beyond numpy's
#: index range, or the flag's own small valid value ("ok").
DRAWN = ["nan", "inf", "-inf", "0", "-1", "1e-300", "5e-324", "1e300", "1e308", str(10**23),
         "ok"]

#: Per command: its numeric flags with their small valid values, and the
#: other flags it needs (``{dir}`` is the directory of the input files).
#: ``--workers`` only draws values that start no pool (the ``pools`` fixture
#: of test_experiments covers the cap).
COMMANDS = {
    "phantom": ({"--size": "16"}, ["--out", "{dir}/o.txt"]),
    "forward": ({"--omega": "20", "--lam": "0.1", "--t-frac": "0.5", "--T": "0.01",
                 "--angles": "4", "--K": "40", "--k-prime": "120"}, ["--out", "{dir}/o.mrts"]),
    "fold": ({"--lam": "0.05"}, ["--in", "{dir}/s.mrts", "--out", "{dir}/o.mrts"]),
    "unfold": ({"--beta": "0.4", "--order": "3", "--K": "20"},
               ["--in", "{dir}/m.mrts", "--out", "{dir}/o.mrts"]),
    "fbp": ({"--size": "16"}, ["--in", "{dir}/s.mrts", "--out", "{dir}/o.pgm"]),
    "pipeline": ({"--omega": "20", "--lam": "0.1", "--t-frac": "0.5", "--T": "0.01",
                  "--angles": "4", "--K": "40", "--k-prime": "120", "--size": "16"},
                 ["--outdir", "{dir}/p"]),
    "ingest": ({"--omega": "20", "--T": "0.05", "--angles": "2", "--K": "1", "--lam": "0.1"},
               ["--in", "{dir}/raw.csv", "--out", "{dir}/o.mrts"]),
    "sweep-success": ({"--lams": "0.1", "--omegas-pi": "10", "--trials": "2", "--tsteps": "2",
                       "--seed": "1", "--workers": "1"}, ["--outdir", "{dir}/sw"]),
    "downsample-demo": ({"--omega-pi": "10", "--lam": "0.1", "--seed": "1", "--t0-frac": "0.5",
                         "--factor": "2"}, ["--outdir", "{dir}/demo"]),
}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A directory with a small sinogram, its folded form and a raw CSV."""
    d = tmp_path_factory.mktemp("cli_inputs")
    assert run(["forward", "--omega", 20, "--lam", 0.05, "--angles", 4, "--T", 0.01,
                "--out", d / "s.mrts"]) == 0
    assert run(["fold", "--in", d / "s.mrts", "--out", d / "m.mrts"]) == 0
    (d / "raw.csv").write_text("0.5,1.0,0.25\n0.0,0.75,0.5\n")
    return d


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_drawn_numeric_flags_exit_0_2_or_3(cli_inputs, command, data):
    # up to three numeric flags drawn from DRAWN, the others valid: the
    # command runs, exits 2 with a message (argparse's own exit included) or
    # 3 for a flagged recovery, and raises nothing else
    numeric, rest = COMMANDS[command]
    argv = [command] + [a.format(dir=cli_inputs) for a in rest]
    drawn = data.draw(st.sets(st.sampled_from(sorted(numeric)), max_size=3), label="drawn")
    for flag, ok in numeric.items():
        value = "ok"
        if flag in drawn:
            values = ["nan", "-1", "0", "ok"] if flag == "--workers" else DRAWN
            value = data.draw(st.sampled_from(values), label=flag)
        argv += [flag, ok if value == "ok" else value]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3)
