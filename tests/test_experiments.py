import os
import tracemalloc
import weakref

import numpy as np
import pytest

from modradon import experiments, forward
from modradon.errors import ConfigError, DomainError, SizeError
from modradon.forward import RandomBandlimitedSignal, SamplingParams, Sinogram
from modradon.phantom import Ellipse, Phantom
from oracles import demo_attempt_oracle, median3_oracle, sample_oracle, sweep_cell_oracle

# (lam, omega, trials, tsteps, seed); the last cell's order 3*11 = 33 exceeds the
# 32-sample clear band, and at T = pi/omega its margin K' = 181 reaches one index
# past the scanned lattice [-180, 180]
SWEEP_CELLS = [
    (0.1, 10 * np.pi, 3, 5, 1),
    (0.05, 30 * np.pi, 2, 6, 5),
    (0.01, 20 * np.pi, 2, 4, 9),
    (9e-4, 30 * np.pi, 1, 3, 46),
]


def sweep_job(cell, lams=None):
    """``experiments._sweep_hits`` arguments for one SWEEP_CELLS entry."""
    lam, omega, trials, tsteps, seed = cell
    ts = np.linspace(1.0 / (omega * np.e), np.pi / omega, tsteps)
    return (lams or (lam,), omega, ts, range(trials), seed)


class TestSweepCell:
    @pytest.mark.parametrize("cell", SWEEP_CELLS, ids=lambda c: f"lam{c[0]:g}")
    def test_rates_match_oracle(self, cell):
        lam, omega, trials, tsteps, seed = cell
        want = sweep_cell_oracle(cell)
        [hits] = experiments._sweep_hits(sweep_job(cell))
        assert (hits / float(trials)).tobytes() == want.rates.tobytes()
        [got] = experiments.success_sweep(lams=(lam,), omegas=(omega,), trials=trials,
                                          tsteps=tsteps, seed=seed)
        assert got.orders == want.orders
        assert got.rates.tobytes() == want.rates.tobytes()
        assert got.to_csv() == want.to_csv()

    @pytest.mark.parametrize("tsteps", range(1, 8))
    def test_median3_matches_one_median_per_window(self, tsteps):
        # three order curves of success rates in thirds, so windows hold ties
        rates = np.random.default_rng(tsteps).integers(0, 4, size=(tsteps, 3)) / 3.0
        got = experiments._median3(rates)
        for i in range(3):
            assert got[:, i].tobytes() == median3_oracle(rates[:, i]).tobytes()

    def test_one_job_carries_every_threshold(self):
        # every threshold of SWEEP_CELLS on the 9e-4 cell's bandwidth, trials and
        # seed: one window, certified for the smallest, serves them all
        lams = tuple(c[0] for c in SWEEP_CELLS)
        hits = experiments._sweep_hits(sweep_job(SWEEP_CELLS[-1], lams))
        for lam, h in zip(lams, hits):
            want = sweep_cell_oracle((lam, *SWEEP_CELLS[-1][1:]))
            assert (h / float(SWEEP_CELLS[-1][2])).tobytes() == want.rates.tobytes()

    def test_margin_past_scanned_lattice_samples_only_the_missing_head(self, monkeypatch):
        # per spacing, a signal's first sample call is its certified window
        # and any later one the head that a margin reaches left of it: at most
        # one, ending where the window starts
        calls, spacing = {}, {}
        scan, sample = experiments.scan_exceedance, RandomBandlimitedSignal.sample

        def scanning(sigs, T, lams):
            spacing["T"] = T
            return scan(sigs, T, lams)

        def recording(self, t):
            k = np.rint(np.atleast_1d(t) / spacing["T"]).astype(int)
            calls.setdefault((spacing["T"], id(self)), []).append((int(k[0]), int(k[-1])))
            return sample(self, t)

        monkeypatch.setattr(experiments, "scan_exceedance", scanning)
        monkeypatch.setattr(RandomBandlimitedSignal, "sample", recording)
        experiments._sweep_hits(sweep_job(SWEEP_CELLS[2]))
        assert len(calls) == 2 * 4
        assert all(len(c) == 1 or len(c) == 2 and c[1][1] == c[0][0] - 1
                   for c in calls.values())
        assert [c[1] for c in calls.values() if len(c) == 2] == [(-62, -62), (-55, -53)]


@pytest.fixture
def pools(monkeypatch):
    """Swap the sweep's process pool for one that runs the jobs inline, so no
    worker process starts; returns a [size, jobs mapped] entry per pool opened."""
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append([max_workers, 0])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            opened[-1][1] += len(jobs)
            return map(fn, jobs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    return opened


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestSuccessSweep:
    def test_pool_holds_no_more_workers_than_jobs(self, monkeypatch, pools):
        # a fork start method forks every worker at the first submit, so 64
        # workers for 2 jobs would start 62 idle processes
        usable_cpus(monkeypatch, 64)
        kw = dict(lams=(0.1,), omegas=(10 * np.pi,), trials=2, tsteps=3, seed=3)
        seq = experiments.success_sweep(**kw, workers=1)
        par = experiments.success_sweep(**kw, workers=64)
        assert pools == [[2, 2]]
        assert [c.to_csv() for c in par] == [c.to_csv() for c in seq]

    def test_pool_holds_no_more_workers_than_usable_cpus(self, monkeypatch, pools):
        # 64 workers for 8 jobs on 2 CPUs: the trials still split 8 ways, and
        # the pool holds 2 workers
        usable_cpus(monkeypatch, 2)
        kw = dict(lams=(0.1,), omegas=(10 * np.pi,), trials=8, tsteps=3, seed=3)
        seq = experiments.success_sweep(**kw, workers=1)
        par = experiments.success_sweep(**kw, workers=64)
        assert pools == [[2, 8]]
        assert [c.to_csv() for c in par] == [c.to_csv() for c in seq]


def disk(intensity):
    return Phantom((Ellipse((0.0, 0.0), (1.0, 1.0), 0.0, intensity),))


class TestPrepareForward:
    def test_normalized_dim_phantom_matches_unit_phantom(self):
        # normalised before the filter, a dim disk scans like the unit disk
        kw = dict(lam=0.001, omega=20.0, normalize=True)
        unit, unit_scale = experiments.prepare_forward(disk(1.0), **kw)
        dim, dim_scale = experiments.prepare_forward(disk(0.001), **kw)
        assert (dim.params.K_prime, dim.params.N) == (unit.params.K_prime, unit.params.N)
        assert dim_scale == pytest.approx(0.001 * unit_scale)

    def test_all_zero_source_cannot_normalize(self):
        with pytest.raises(ConfigError, match="all raw samples are zero"):
            experiments.prepare_forward(Phantom(()), lam=0.1, omega=20.0, normalize=True)

    def test_raw_rows_are_freed_before_the_window_is_copied(self, monkeypatch):
        # raw rows, scan and window alive at once would raise the peak memory
        raws, alive = [], []
        scan, params = experiments.scan_from_raw, experiments.SamplingParams

        def recording_scan(raw, *args, **kwargs):
            raws.append(weakref.ref(raw))
            return scan(raw, *args, **kwargs)

        def checking_params(**kwargs):
            alive.append([ref() is not None for ref in raws])
            return params(**kwargs)

        monkeypatch.setattr(experiments, "scan_from_raw", recording_scan)
        monkeypatch.setattr(experiments, "SamplingParams", checking_params)
        experiments.prepare_forward(disk(1.0), lam=0.1, omega=20.0)
        assert alive == [[False]]

    def test_angle_count_of_a_sinogram_source_fails_before_scanning(self, monkeypatch):
        scans = []
        monkeypatch.setattr(experiments, "scan_from_raw", lambda *a, **k: scans.append(a))
        p = SamplingParams(omega=20.0, T=0.05, lam=0.1, K=5, K_prime=5, M=4)
        with pytest.raises(SizeError, match=r"^angle count mismatch: 5 != 4$"):
            experiments.prepare_forward(Sinogram(p, np.ones((4, 11))), lam=0.1, omega=20.0, M=5)
        assert scans == []

    def test_spacing_of_a_sinogram_source_fails_before_scanning(self, monkeypatch):
        # a given T would be taken over the spacing the rows were sampled at,
        # and the order and margin derived from it would be wrong
        scans = []
        monkeypatch.setattr(experiments, "scan_from_raw", lambda *a, **k: scans.append(a))
        p = SamplingParams(omega=20.0, T=0.009, lam=0.05, K=5, K_prime=5, M=4)
        with pytest.raises(ConfigError, match=r"^sample spacing mismatch: T=0\.004 given, "
                                              r"the sinogram's T=0\.009$"):
            experiments.run_pipeline(Sinogram(p, np.ones((4, 11))), lam=0.05, omega=20.0,
                                     T=0.004)
        assert scans == []

    def test_unindexable_scan_window_of_a_sinogram_source(self, monkeypatch):
        # three samples a row at T=1e-300, but radius 4 at that spacing is
        # about 8e300 lattice points: refused before the scan allocates
        convolved = []
        monkeypatch.setattr(forward, "convolve_rows", lambda *a: convolved.append(a))
        p = SamplingParams(omega=20.0, T=1e-300, lam=0.1, K=1, K_prime=1, M=2)
        with pytest.raises(ConfigError, match=r"^T=1e-300 samples too finely: the scan "
                                              r"window would hold 8e\+300 samples$"):
            experiments.prepare_forward(Sinogram(p, np.zeros((2, 3))), lam=0.1, omega=20.0)
        assert convolved == []


    def test_unindexable_scan_rows_of_a_sinogram_source(self, monkeypatch):
        # numpy can index one row's scan window, 8e17 lattice points at
        # T=1e-17, but not two of them: refused before the scan allocates
        convolved = []
        monkeypatch.setattr(forward, "convolve_rows", lambda *a: convolved.append(a))
        p = SamplingParams(omega=20.0, T=1e-17, lam=0.1, K=1, K_prime=1, M=2)
        with pytest.raises(ConfigError, match=r"^M=2 angles at T=1e-17: the scanned rows "
                                              r"would hold 1\.6e\+18 samples$"):
            experiments.prepare_forward(Sinogram(p, np.zeros((2, 3))), lam=0.1, omega=20.0)
        assert convolved == []


class TestRunPipeline:
    @pytest.mark.parametrize("kwargs, error, message", [
        ({"filter_window": "hann"}, ConfigError, "unknown window 'hann'"),
        ({"grid_size": 0}, DomainError, "at least one pixel"),
        ({"grid_size": -3}, DomainError, "at least one pixel"),
        ({"omega": 0.0}, ConfigError, r"^omega must be positive and finite, got 0.0$"),
        ({"omega": None}, TypeError, "missing 1 required keyword-only argument: 'omega'"),
    ], ids=["window", "size-0", "size-neg", "bad-omega", "no-omega"])
    def test_bad_reconstruction_setting_fails_before_forward(self, monkeypatch, kwargs,
                                                            error, message):
        calls = []
        monkeypatch.setattr(experiments, "prepare_forward", lambda *a, **k: calls.append(a))
        # a None value leaves its keyword out
        kw = {k: v for k, v in {"lam": 0.025, "omega": 300.0, **kwargs}.items() if v is not None}
        with pytest.raises(error, match=message):
            experiments.run_pipeline(disk(1.0), **kw)
        assert calls == []

    def test_scan_is_freed_before_the_fold(self, monkeypatch):
        # the wide scan rows are several times the sinogram; neither the scan
        # nor its rows (which a window sliced as a view would keep) may stay
        # alive through fold, unfold and FBP
        refs, alive_at_fold = [], []
        scan, fold = experiments.scan_from_raw, experiments.fold_sinogram

        def recording_scan(*args, **kwargs):
            out = scan(*args, **kwargs)
            refs.extend([weakref.ref(out), weakref.ref(out.rows)])
            return out

        def checking_fold(s):
            alive_at_fold.append([ref() is not None for ref in refs])
            return fold(s)

        monkeypatch.setattr(experiments, "scan_from_raw", recording_scan)
        monkeypatch.setattr(experiments, "fold_sinogram", checking_fold)
        res = experiments.run_pipeline(disk(1.0), lam=0.1, omega=20.0, grid_size=16)
        assert res.success
        assert alive_at_fold == [[False, False]]


    def test_result_holds_no_folded_rows(self):
        # the folded rows are fold_sinogram(res.clean) and live only until they
        # are unfolded: what the run leaves allocated is the result's clean and
        # unfolded rows and its two images, with less than half a clean
        # sinogram's bytes of anything else
        experiments.run_pipeline(disk(1.0), lam=0.1, omega=60.0, grid_size=16)  # warm-up
        tracemalloc.start()
        try:
            res = experiments.run_pipeline(disk(1.0), lam=0.1, omega=60.0, grid_size=16)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (res.clean.rows, res.unfolded.rows,
                                      res.image_clean.pixels, res.image_recovered.pixels))
        assert res.success
        assert live < held + res.clean.rows.nbytes / 2


class TestDownsampleDemo:
    def test_csv_matches_oracle_sampler(self, tmp_path, monkeypatch):
        experiments.downsample_demo(outdir=tmp_path / "new")
        monkeypatch.setattr(RandomBandlimitedSignal, "sample", sample_oracle)
        experiments.downsample_demo(outdir=tmp_path / "oracle")
        name = "downsample_demo.csv"
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()

    @pytest.mark.parametrize("seed, factor", [(0, 2), (1, 3), (5, 2), (11, 4)])
    def test_csv_matches_per_row_oracle(self, tmp_path, seed, factor):
        experiments.downsample_demo(seed=seed, factor=factor, outdir=tmp_path)
        omega, lam = 10 * np.pi, 0.1
        sig = RandomBandlimitedSignal.draw(omega, np.random.SeedSequence(seed))
        t0 = 0.5 / (omega * np.e)
        attempts = [demo_attempt_oracle("base_rate", sig, t0, lam, 1),
                    demo_attempt_oracle("downsampled", sig, factor * t0, lam, 1),
                    demo_attempt_oracle("downsampled", sig, factor * t0, lam, 2)]
        want = "".join(line + "\n" for line in
                       [experiments.DemoAttempt.CSV_HEADER, *(a.to_csv_line() for a in attempts)])
        assert (tmp_path / "downsample_demo.csv").read_bytes() == want.encode()
