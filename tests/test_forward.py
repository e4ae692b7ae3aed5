import os
import re
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from modradon import fbp, forward
from modradon.core import sup_norm
from modradon.errors import ConfigError, DomainError, MarginError, ParseError
from modradon.experiments import base_order, ingest_raw_csv, prepare_forward
from modradon.forward import (
    RandomBandlimitedSignal,
    SamplingParams,
    Sinogram,
    clear_band_exceedance,
    fast_len,
    fold_sinogram,
    load_sinogram,
    lowpass_kernel,
    phantom_rows,
    save_sinogram,
    scan_exceedance,
    scan_forward,
    scan_from_raw,
    support_index,
)
from modradon.phantom import Ellipse, ImageGrid, Phantom, radon_phantom, shepp_logan
from modradon.unfold import grid_upper_bound, required_margin, select_order, unfold_sinogram
from oracles import (
    clear_band_exceedance_oracle,
    convolve_rows_oracle,
    design_params,
    exceedance_index_oracle,
    highband_energy_fraction,
    lattice_samples,
    sample_oracle,
    scan_window,
    sup_norm_oracle,
    tail_bound_oracle,
    window,
)

UNIT_DISK = Phantom((Ellipse((0.0, 0.0), (1.0, 1.0), 0.0, 1.0),))


def small_params(omega=60.0, lam=0.05, **kw):
    return design_params(omega, lam=lam, **kw)


def phantom_sinogram(p, params):
    """Prefiltered sinogram over the [-K_prime, K] acquisition window."""
    return scan_window(phantom_rows(p, params.T, params.M), params)


def prefiltered_row(p, theta, params):
    """Band-limited samples over [-K_prime, K] at one arbitrary angle."""
    ks = support_index(params.T)
    raw = radon_phantom(p, theta, np.arange(-ks, ks + 1) * params.T)
    return scan_window(raw[None, :], replace(params, M=1)).rows[0]


def draw_signal(omega, seed):
    return RandomBandlimitedSignal.draw(omega, np.random.SeedSequence(seed))


def scan_one(sig, T, lams):
    """:func:`scan_exceedance` of one signal: its indices, window start and samples."""
    [scan] = scan_exceedance([sig], T, lams)
    return scan


def probe_bounds(sig, T, k):
    """``forward._probe_bounds`` of one signal: shape (2, len(k)), left side first."""
    jumps = np.diff(sig.levels, prepend=0.0, append=0.0)
    return forward._probe_bounds(np.array([sig.omega]), sig.edges[None], jumps[None], T,
                                 np.asarray(k))[0]


class TestSamplingParams:
    def test_design_matches_reference_choice(self):
        p = prepare_forward(shepp_logan(), lam=0.025, omega=300)[0].params
        assert p.T == pytest.approx(1.0 / (600.0 * np.e))
        assert p.K == 1631
        assert p.M == 300
        assert p.T * p.omega * np.e == pytest.approx(0.5)
        # classical sampling conditions for filtered back projection
        assert p.M >= p.omega and p.K >= 1.0 / p.T

    @pytest.mark.parametrize("T, K", [(0.01, 100), (0.3, 4), (1.0, 1), (1e13, 1), (1e306, 1)])
    def test_support_index(self, T, K):
        # ceil(1/T), which is 1 for every T >= 1, also where the guard band
        # takes a 1/T below 1e-12 to 0
        assert support_index(T) == K

    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplingParams(omega=-1, T=0.1, lam=0.1, K=5, K_prime=5, M=3)
        with pytest.raises(ConfigError):
            SamplingParams(omega=1, T=0.1, lam=0.1, K=5, K_prime=4, M=3)

    def test_rows_are_projected_at_the_back_projection_angles(self, monkeypatch):
        # one formula, (m*pi)/M, for the projected rows and for back projection
        angles = []
        monkeypatch.setattr(forward, "radon_phantom", lambda p, theta, t: angles.append(theta))
        phantom_rows(shepp_logan(), 0.1, 300)

        def recording(M):
            angles.append(forward.projection_angles(M))
            return angles[-1]

        monkeypatch.setattr(fbp, "projection_angles", recording)
        p = SamplingParams(omega=1, T=0.1, lam=0.1, K=5, K_prime=5, M=300)
        fbp.back_project(np.zeros((300, 11)), p, ImageGrid(2, 2))
        assert angles[0].tobytes() == angles[1].tobytes()
        assert angles[0].tolist() == [m * np.pi / 300 for m in range(300)]


class TestPrefilter:
    def test_zero_phantom_zero_rows(self):
        p = small_params()
        row = prefiltered_row(Phantom(()), 0.3, p)
        np.testing.assert_array_equal(row, np.zeros(len(row)))

    def test_unit_disk_center_value(self):
        p = design_params(300.0, lam=0.05)
        row = prefiltered_row(UNIT_DISK, 0.0, p)
        assert row[p.K_prime] == pytest.approx(2.0, abs=0.05)

    def test_rows_are_band_limited(self):
        p = small_params()
        s = phantom_sinogram(shepp_logan(), p)
        for m in range(0, p.M, 7):
            assert highband_energy_fraction(s.rows[m], p.T, p.omega) <= 1e-4

    def test_evenness_across_half_turn(self):
        p = small_params()
        fwd = prefiltered_row(shepp_logan(), 0.7, p)
        back = prefiltered_row(shepp_logan(), 0.7 + np.pi, p)
        # row at theta+pi equals the offset-reversed row at theta
        lo, hi = -p.K, min(p.K, p.K_prime)
        a = window(fwd, -p.K_prime, lo, hi)
        b = window(back, -p.K_prime, -hi, -lo)[::-1]
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_make_sinogram_shape_and_beta(self):
        p = small_params()
        s = phantom_sinogram(shepp_logan(), p)
        assert s.rows.shape == (p.M, p.K_prime + p.K + 1)
        # raw grid max sits between the filtered peak and the analytic sup 0.5557
        assert 0.52 < s.params.beta <= 0.5557
        assert np.max(np.abs(s.rows)) <= s.params.beta


class TestFold:
    def test_identity_when_threshold_dominates(self):
        p = small_params(lam=5.0)
        s = phantom_sinogram(shepp_logan(), p)
        ms = fold_sinogram(s)
        np.testing.assert_array_equal(ms.rows, s.rows)

    def test_values_in_range(self):
        p = small_params(lam=0.05)
        ms = fold_sinogram(phantom_sinogram(shepp_logan(), p))
        assert ms.rows.min() >= -0.05
        assert ms.rows.max() < 0.05

    def test_compression_factor(self):
        p = small_params(lam=0.05)
        s = phantom_sinogram(shepp_logan(), p)
        spread = s.rows.max() - s.rows.min()
        assert spread / (2 * 0.05) > 5  # an order of magnitude of range compression

    def test_modulo_sinogram_rejects_unfolded(self):
        p = small_params(lam=0.01)
        s = phantom_sinogram(shepp_logan(), p)
        N = select_order(0.01, grid_upper_bound(s.params.beta, 0.01), p.omega, p.T)
        with pytest.raises(DomainError):
            unfold_sinogram(s, N)


def _convolution_lengths(T, K):
    """Full-convolution lengths of a pipeline over [-K, K] at spacing T: the
    prefilter of the radius-4 scan window, then the ramp filter."""
    k_scan = int(np.ceil(4.0 / T))
    return [(2 * K + 1) + 2 * (k_scan + K), 6 * K + 1]


class TestFastLen:
    def test_matches_scipy_next_fast_len(self):
        ms = range(1, 200_001)
        assert [fast_len(m) for m in ms] == [next_fast_len(m, real=True) for m in ms]

    def test_benchmark_pipeline_lengths(self):
        # Shepp-Logan at omega 300 and t_frac 0.5 (pipeline-sl), then the
        # walnut geometry K = 1128 at T = 1/1128 (walnut-ingest)
        T = 0.5 / (300 * np.e)
        lengths = _convolution_lengths(T, support_index(T)) + _convolution_lengths(1 / 1128, 1128)
        assert lengths == [19573, 9787, 13537, 6769]
        fast = [fast_len(m) for m in lengths]
        assert fast == [next_fast_len(m, real=True) for m in lengths] == [19683, 10000, 13824, 6912]


class TestScan:
    @pytest.mark.parametrize("M", [1, 63, 64, 65, 130])
    def test_blocked_prefilter_matches_single_convolution(self, M):
        T, omega, k_half = 0.02, 60.0, 20
        raw = np.random.default_rng(M).normal(size=(M, 2 * k_half + 1))
        scan = scan_from_raw(raw, omega, T, radius=1.0, K=50)
        k = scan.k_scan
        kern = lowpass_kernel(np.arange(-k - k_half, k + k_half + 1) * T, omega)
        full = T * convolve_rows_oracle(raw, kern, 2 * k_half, 2 * k + 1)
        assert scan.rows.tobytes() == full.tobytes()

    @pytest.mark.parametrize("radius", [1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("source", ["phantom", "sinogram"])
    def test_stored_window_and_bounds_match_the_full_scan(self, radius, source):
        # rows kept over [-k_scan, min(K, k_scan)], the largest magnitude of
        # every column and the exceedance index, against the rows of the whole
        # window and the rule that read each column's maximum and minimum
        p = small_params()
        k_half = support_index(p.T)
        if source == "phantom":
            raw = phantom_rows(shepp_logan(), p.T, 37)
        else:
            # a measured sinogram past the disk, whose [-K, K] block is a strided view
            K = k_half + 40
            sp = SamplingParams(omega=p.omega, T=p.T, lam=1.0, K=K, K_prime=K + 8, M=37)
            rows = np.random.default_rng(3).uniform(-1.0, 1.0, size=(37, 2 * K + 9))
            raw = Sinogram(sp, rows).symmetric_rows()
        full = scan_from_raw(raw, p.omega, p.T, radius, K=int(np.ceil(radius / p.T)))
        k_scan = full.k_scan
        peak = np.max(np.abs(full.rows), axis=0)
        assert peak.shape == (2 * k_scan + 1,)
        outcomes = set()
        for K in (k_half - 5, k_half, k_half + 60, k_scan, k_scan + 7):
            scan = scan_from_raw(raw, p.omega, p.T, radius, K=K)
            assert scan.k_scan == k_scan
            assert scan.rows.tobytes() == full.rows[:, : k_scan + min(K, k_scan) + 1].tobytes()
            assert scan.peak.tobytes() == peak.tobytes()
            for lam in (0.5, 0.05, 5e-3, 1e-4, 1e-7):
                try:
                    want = clear_band_exceedance_oracle(full.rows, lam)
                except MarginError:
                    with pytest.raises(MarginError):
                        scan.exceedance_index(lam)
                    outcomes.add("margin")
                else:
                    assert scan.exceedance_index(lam) == want
                    outcomes.add("index")
        assert outcomes == {"index", "margin"}

    def test_exceedance_zero_when_quiet(self):
        scan = scan_forward(UNIT_DISK, 60.0, small_params().T, 8, radius=3.0)
        assert scan.exceedance_index(2.5) == 0

    def test_exceedance_grows_as_lambda_shrinks(self):
        p = small_params()
        scan = scan_forward(shepp_logan(), p.omega, p.T, 16, radius=4.0)
        k1 = scan.exceedance_index(0.05)
        k2 = scan.exceedance_index(0.005)
        assert 0 < k1 < k2

    @pytest.mark.parametrize("M", [1, 2, 7])
    def test_exceedance_of_rows_matches_samplewise_oracle(self, M):
        # the index from column peaks equals the one from |rows| >= lam
        # taken sample by sample, with NaN beside an exceeding sample, samples
        # at exactly +-lam, -0.0, and each row read on its own
        lam, k = 0.1, 60
        rng = np.random.default_rng(M)
        rows = rng.uniform(-0.09, 0.09, size=(M, 2 * k + 1))
        rows[:, 45] = rng.uniform(-0.3, 0.3, size=M)
        rows[0, 33] = np.nan
        rows[-1, 33] = -lam  # the outermost exceedance
        rows[0, 85] = lam
        rows[-1, 35:38] = -0.0

        def oracle(r):
            cols = np.nonzero((np.abs(r) >= lam).reshape(-1, r.shape[-1]).any(axis=0))[0]
            return int(np.max(np.abs(cols - k))) if cols.size else 0

        assert clear_band_exceedance(forward._column_peak(rows), lam) == oracle(rows)
        for row in rows:
            assert clear_band_exceedance(np.abs(row), lam) == oracle(row)
        rows[:, 32:-32] = np.nan
        assert clear_band_exceedance(forward._column_peak(rows), lam) == oracle(rows) == 0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_peak_rule_matches_the_max_min_rule(self, data):
        # one magnitude per column decides what the column's [max; min] pair
        # decided, samples at exactly +-lam and one ulp inside included, and
        # raises MarginError where that rule did; half the draws keep the
        # outer 32 columns below lam so that an index comes out
        lam = data.draw(st.floats(1e-300, 1e300), label="lam")
        M, k = data.draw(st.integers(1, 4), label="M"), data.draw(st.integers(0, 48), label="k")
        edge = [lam, -lam, np.nextafter(lam, 0.0), -np.nextafter(lam, 0.0), 0.0, -0.0]
        loud = st.sampled_from(edge) | st.floats(-3.0, 3.0).map(lambda f: f * lam)
        quiet = st.sampled_from(edge[2:]) | st.floats(-0.99, 0.99).map(lambda f: f * lam)
        quiet_band = data.draw(st.booleans(), label="quiet_band")
        rows = np.empty((M, 2 * k + 1))
        for i in range(2 * k + 1):
            outer = i < 32 or i >= 2 * k + 1 - 32
            rows[:, i] = data.draw(st.lists(quiet if quiet_band and outer else loud,
                                            min_size=M, max_size=M))
        peak = forward._column_peak(rows)
        try:
            want = clear_band_exceedance_oracle(rows, lam)
        except MarginError:
            with pytest.raises(MarginError):
                clear_band_exceedance(peak, lam)
        else:
            assert clear_band_exceedance(peak, lam) == want

    def test_narrow_scan_raises(self):
        p = small_params()
        scan = scan_forward(shepp_logan(), p.omega, p.T, 8, radius=1.2)
        with pytest.raises(MarginError):
            scan.exceedance_index(1e-7)

    def test_scan_from_raw_matches_phantom_scan(self):
        p = small_params()
        scan_a = scan_forward(shepp_logan(), p.omega, p.T, 12, radius=2.0)
        k_half = int(np.ceil(1.0 / p.T))
        t = np.arange(-k_half, k_half + 1) * p.T
        from modradon.phantom import radon_phantom

        raw = np.array([radon_phantom(shepp_logan(), m * np.pi / 12, t) for m in range(12)])
        scan_b = scan_from_raw(raw, p.omega, p.T, radius=2.0, K=int(np.ceil(2.0 / p.T)))
        np.testing.assert_allclose(scan_a.rows, scan_b.rows, atol=1e-12)
        assert sup_norm(phantom_rows(shepp_logan(), p.T, 12)) == sup_norm(raw)

    def test_sinogram_slice_consistency(self):
        p = small_params()
        s_direct = phantom_sinogram(shepp_logan(), p)
        s_sliced = scan_window(phantom_rows(shepp_logan(), p.T, p.M), p, radius=2.0)
        np.testing.assert_allclose(s_sliced.rows, s_direct.rows, atol=1e-12)


class TestRandomSignal:
    def test_deterministic_in_seed(self):
        T = 0.5 / (10 * np.pi * np.e)
        sa, sb = draw_signal(10 * np.pi, 123), draw_signal(10 * np.pi, 123)
        kw = scan_one(sa, T, (0.1,))[0][0] + 32
        assert scan_one(sb, T, (0.1,))[0][0] + 32 == kw
        np.testing.assert_array_equal(lattice_samples(sa, T, -kw, kw),
                                      lattice_samples(sb, T, -kw, kw))
        np.testing.assert_array_equal(sa.levels, sb.levels)

    def test_different_seeds_differ(self):
        T = 0.5 / (10 * np.pi * np.e)
        a = lattice_samples(draw_signal(10 * np.pi, 1), T, -100, 100)
        b = lattice_samples(draw_signal(10 * np.pi, 2), T, -100, 100)
        assert not np.array_equal(a, b)

    def test_sup_norm_stays_near_profile_range(self):
        # levels live in [-1, 1]; ringing overshoot stays bounded
        for seed in range(8):
            assert sup_norm_oracle(draw_signal(10 * np.pi, seed)) <= 1.4

    def test_quiet_beyond_reported_exceedance(self):
        lam, omega = 0.1, 10 * np.pi
        T = 0.5 / (omega * np.e)
        sig = draw_signal(omega, 5)
        (kstar,), _, _ = scan_one(sig, T, (lam,))
        g = lattice_samples(sig, T, -kstar - 32, kstar + 32)
        k = np.arange(-kstar - 32, kstar + 33)
        outside = np.abs(k) > kstar
        assert np.all(np.abs(g[outside]) < lam)
        inside_peak = np.max(np.abs(g[~outside])) if kstar > 0 else 0.0
        assert inside_peak >= lam

    def test_samples_match_signal(self):
        sig = draw_signal(20 * np.pi, 9)
        T = 0.01
        g = lattice_samples(sig, T, -5, 5)
        np.testing.assert_allclose(g, sig.sample(np.arange(-5, 6) * T), atol=0)

    @pytest.mark.parametrize("t", [0.3, np.empty(0), np.linspace(-2.0, 2.0, 41),
                                   np.linspace(-3.0, 3.0, 60).reshape(6, 10)],
                             ids=["scalar", "empty", "1d", "2d"])
    def test_sample_matches_oracle_bitwise(self, t):
        sig = draw_signal(10 * np.pi, 4)
        got, want = sig.sample(t), sample_oracle(sig, t)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed, lam, omega", [
        pytest.param(5, 0.1, 10 * np.pi, id="5-0.1"),
        pytest.param(6, 0.05, 10 * np.pi, id="6-0.05"),
        pytest.param(3, 0.01, 10 * np.pi, id="3-0.01"),
        pytest.param(2, 0.05, 30 * np.pi, id="30pi-2-0.05"),
    ])
    def test_scan_exceedance_returns_scanned_lattice(self, seed, lam, omega):
        # the exceedance matches the wide-scan oracle, and the returned samples
        # are the oracle's bits over a window that holds [-K, K] and ends, on
        # each side, where a probe interval of the tail bound did not clear
        T = 0.5 / (omega * np.e)
        sig = draw_signal(omega, seed)
        (kstar,), lo, scanned = scan_one(sig, T, (lam,))
        assert kstar == exceedance_index_oracle(sig, T, lam)
        hi = lo + len(scanned) - 1
        want = sample_oracle(sig, np.arange(lo, hi + 1) * T)
        assert scanned.tobytes() == want.tobytes()
        K, step = support_index(T), forward._PROBE_STEP
        total = np.sum(np.abs(np.diff(sig.levels, prepend=0.0, append=0.0)))
        assert lo <= -K and hi >= K
        for side, end in enumerate((-lo, hi)):
            assert (end - K) % step == 0
            if end > K:
                # the window's last interval on this side, [end - step + 1, end],
                # is one whose bound did not clear lam less the rounding margin
                bound = probe_bounds(sig, T, [end - step + 1])[side, 0]
                assert bound >= lam - 1e-12 * (lam + total)

    @given(seed=st.integers(0, 2**32 - 1), omega_pi=st.floats(5.0, 60.0),
           tsteps=st.integers(2, 100), step=st.integers(0, 99),
           lams=st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_scan_exceedance_matches_oracle(self, seed, omega_pi, tsteps, step, lams):
        # on a sweep rate grid: each threshold's index is the wide-scan
        # oracle's, and the scanned samples are the oracle's bits over their
        # range, which holds [-K, K].  With the head left of it that a sweep
        # samples on its own, they cover every order's margin [-K', K]
        omega = omega_pi * np.pi
        T = np.linspace(1.0 / (omega * np.e), np.pi / omega, tsteps)[step % tsteps]
        sig = draw_signal(omega, seed)
        kstars, lo, scanned = scan_one(sig, T, lams)
        assert kstars == [exceedance_index_oracle(sig, T, lam) for lam in lams]
        K = support_index(T)
        hi = lo + len(scanned) - 1
        assert lo <= -K and hi >= K
        k_lo = min(lo, *(-required_margin(k * T, T, 3 * base_order(lam, omega), K)
                         for k, lam in zip(kstars, lams)))
        head = lattice_samples(sig, T, k_lo, lo - 1) if k_lo < lo else np.empty(0)
        got = np.concatenate([head, scanned])
        assert got.tobytes() == sample_oracle(sig, np.arange(k_lo, hi + 1) * T).tobytes()

    @given(seed=st.integers(0, 2**32 - 1), omega_pi=st.floats(5.0, 60.0),
           tsteps=st.integers(2, 100), step=st.integers(0, 99),
           lams=st.lists(st.floats(0.01, 0.5), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_no_sample_outside_the_window_reaches_a_threshold(self, seed, omega_pi, tsteps,
                                                               step, lams):
        # the certificate is sound: on a sweep rate grid, every lattice sample
        # left and right of the returned window, out to |t| <= 16, is below
        # the smallest threshold
        omega = omega_pi * np.pi
        T = np.linspace(1.0 / (omega * np.e), np.pi / omega, tsteps)[step % tsteps]
        sig = draw_signal(omega, seed)
        _, lo, scanned = scan_one(sig, T, lams)
        far = int(16.0 / T)
        hi = lo + len(scanned) - 1
        for k in (np.arange(-far, lo), np.arange(hi + 1, far + 1)):
            assert np.all(np.abs(sample_oracle(sig, k * T)) < min(lams))

    def test_signals_probed_together_or_alone_get_the_same_windows(self, monkeypatch):
        # the probes of several signals (two bandwidths) evaluated in one pass,
        # in blocks of one signal or all at once, give each signal the window
        # and the samples it gets alone
        T = 0.5 / (10 * np.pi * np.e)
        sigs = [draw_signal(om * np.pi, seed) for om in (10, 14) for seed in range(4)]
        alone = [scan_one(sig, T, (0.1, 0.05)) for sig in sigs]
        for block in (1, 1 << 14):
            monkeypatch.setattr(forward, "_PROBE_BLOCK", block)
            together = list(scan_exceedance(sigs, T, (0.1, 0.05)))
            assert [(k, lo) for k, lo, _ in together] == [(k, lo) for k, lo, _ in alone]
            assert all(a[2].tobytes() == b[2].tobytes() for a, b in zip(together, alone))

    @given(seed=st.integers(0, 2**32 - 1), omega_pi=st.floats(5.0, 60.0),
           t_frac=st.floats(1.0 / np.e, np.pi))
    @settings(max_examples=60, deadline=None)
    def test_tail_bound_holds_beyond_the_edges(self, seed, omega_pi, t_frac):
        # |g(t)| <= the pointwise bound <= the probe bound at every t of each
        # probe interval [kT, (k + step - 1)T] and of its mirror image, out to
        # |t| <= 6; without the slack for |F| the second step fails
        omega = omega_pi * np.pi
        T = t_frac / omega
        sig = draw_signal(omega, seed)
        step = forward._PROBE_STEP
        k = np.arange(support_index(T) + 1, int(6.0 / T), step)
        bounds = probe_bounds(sig, T, k)
        t = (k[:, None] + np.linspace(0.0, step - 1.0, 4 * step - 3)) * T
        for side, bound in zip((-1.0, 1.0), bounds):
            pointwise = tail_bound_oracle(sig, side * t)
            assert np.all(np.abs(sig.sample(side * t)) <= pointwise)
            assert np.all(pointwise <= bound[:, None])

    @pytest.mark.parametrize("T, lams, reach", [
        (0.01, (0.1, 1e-300), r"inf"),  # below the rounding margin: never
        (1e-10, (1e-10,), r"\d\.\d\de\+0[89]"),
    ])
    def test_unindexable_window_raises_margin_error(self, T, lams, reach):
        sig = draw_signal(10 * np.pi, 0)
        with pytest.raises(MarginError, match=rf"^lam=1e-(300|10) needs the tails sampled out "
                                              rf"to \|t\| = {reach}, past what numpy can index$"):
            scan_one(sig, T, lams)


class TestSinogramIO:
    def _small_sinogram(self):
        p = SamplingParams(omega=25.0, T=0.02, lam=0.125, K=12, K_prime=15, M=6,
                           beta=1.0)
        rng = np.random.default_rng(0)
        return Sinogram(p, rng.normal(size=(6, 28)))

    def test_binary_round_trip_bit_exact(self, tmp_path):
        s = self._small_sinogram()
        path = tmp_path / "s.mrts"
        save_sinogram(s, path)
        r = load_sinogram(path)
        assert np.array_equal(r.rows, s.rows)
        assert r.params.omega == s.params.omega
        assert r.params.T == s.params.T
        assert r.params.lam == s.params.lam
        assert (r.params.M, r.params.K, r.params.K_prime) == (6, 12, 15)

    def test_binary_sliced_rows_round_trip_bit_exact(self, tmp_path):
        # the rows are written from their contiguous little-endian buffer; a
        # strided view is made contiguous first, and every bit survives
        s = self._small_sinogram()
        wide = np.random.default_rng(5).normal(size=(6, 56))
        wide[0, :8:2] = [-0.0, 5e-324, -np.finfo(float).max, np.finfo(float).tiny]
        sliced = Sinogram(s.params, wide[:, ::2])
        assert not sliced.rows.flags.c_contiguous
        path = tmp_path / "s.mrts"
        save_sinogram(sliced, path)
        want = wide[:, ::2].astype("<f8").tobytes()
        assert path.read_bytes()[44:] == want
        assert load_sinogram(path).rows.tobytes() == want

    def test_csv_round_trip_bit_exact(self, tmp_path):
        s = self._small_sinogram()
        path = tmp_path / "s.csv"
        save_sinogram(s, path)
        r = load_sinogram(path)
        assert np.array_equal(r.rows, s.rows)
        assert r.params.T == s.params.T

    def test_fold_then_save_round_trip(self, tmp_path):
        s = self._small_sinogram()
        ms = fold_sinogram(s)
        path = tmp_path / "m.mrts"
        save_sinogram(ms, path)
        r = load_sinogram(path)
        assert np.array_equal(r.rows, ms.rows)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mrts"
        path.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(ParseError, match="magic"):
            load_sinogram(path)

    def test_truncated_binary(self, tmp_path):
        s = self._small_sinogram()
        path = tmp_path / "s.mrts"
        save_sinogram(s, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ParseError, match="samples"):
            load_sinogram(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_binary_from_a_pipe(self, tmp_path):
        # a pipe has no file size; its body is read as it comes
        s = self._small_sinogram()
        path = tmp_path / "s.mrts"
        save_sinogram(s, path)
        r, w = os.pipe()
        try:
            with open(w, "wb") as f:
                f.write(path.read_bytes())  # 1,388 bytes: fits the pipe buffer
            loaded = load_sinogram(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert np.array_equal(loaded.rows, s.rows)
        assert loaded.params.T == s.params.T

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "s.mrts"
        save_sinogram(self._small_sinogram(), path)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ParseError, match="truncated header"):
            load_sinogram(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_binary_nonfinite_sample(self, tmp_path, value):
        s = self._small_sinogram()
        s.rows[1, 7] = value  # inside the [-K, K] block (columns 3..27)
        path = tmp_path / "s.mrts"
        save_sinogram(s, path)
        with pytest.raises(ParseError, match="row 1, column 7: not a finite number"):
            load_sinogram(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_csv_nonfinite_cell(self, tmp_path, cell):
        s = self._small_sinogram()
        path = tmp_path / "s.csv"
        save_sinogram(s, path)
        lines = path.read_text().splitlines()
        cols = lines[2].split(",")
        cols[7] = cell
        lines[2] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 1, column 7: not a finite number"):
            load_sinogram(path)

    def test_csv_bad_column(self, tmp_path):
        s = self._small_sinogram()
        path = tmp_path / "s.csv"
        save_sinogram(s, path)
        lines = path.read_text().splitlines()
        cols = lines[3].split(",")
        cols[5] = "oops"
        lines[3] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 2, column 5"):
            load_sinogram(path)

    def test_binary_partial_sample(self, tmp_path):
        path = tmp_path / "s.mrts"
        save_sinogram(self._small_sinogram(), path)
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(ParseError, match="expected 168 samples"):
            load_sinogram(path)

    @pytest.mark.parametrize("field, value", [
        ("M", 0), ("K_prime", 11), ("omega", -25.0), ("lam", np.nan)])
    def test_binary_invalid_header_value(self, tmp_path, field, value):
        p = self._small_sinogram().params
        head = dict(M=p.M, K=p.K, K_prime=p.K_prime, omega=p.omega, T=p.T, lam=p.lam)
        head[field] = value
        path = tmp_path / "s.mrts"
        path.write_bytes(b"MRTS" + struct.pack("<IIII", 1, head["M"], head["K"], head["K_prime"])
                         + struct.pack("<ddd", head["omega"], head["T"], head["lam"]))
        with pytest.raises(ParseError, match=re.escape(f"{path}: bad header field")):
            load_sinogram(path)

    def test_csv_rows_beyond_header_count(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# modradon-sinogram omega=25.0 T=0.02 lambda=0.1 M=1 K=1 K_prime=1\n"
                        "0.1,0.2,0.3\n0.4,0.5,0.6\nnot,a,row\n")
        with pytest.raises(ParseError, match=r"line 3: more than 1 data rows"):
            load_sinogram(path)

    def test_csv_trailing_blank_lines_load(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# modradon-sinogram omega=25.0 T=0.02 lambda=0.1 M=1 K=1 K_prime=1\n"
                        "0.1,0.2,0.3\n\n  \n")
        assert load_sinogram(path).rows.tolist() == [[0.1, 0.2, 0.3]]

    def test_csv_comment_and_blank_lines_between_rows(self, tmp_path):
        s = self._small_sinogram()
        path = tmp_path / "s.csv"
        save_sinogram(s, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + ["# a note\n", "\n"] + lines[3:]))
        r = load_sinogram(path)
        assert np.array_equal(r.rows, s.rows)

    def test_csv_short_file_counts_rows(self, tmp_path):
        # the sinogram loader and the raw ingest share one row reader
        rows = "0.1,0.2,0.3\n0.4,0.5,0.6\n"
        sino = tmp_path / "s.csv"
        sino.write_text("# modradon-sinogram omega=25.0 T=0.02 lambda=0.1 M=3 K=1"
                        " K_prime=1\n" + rows)
        with pytest.raises(ParseError, match="expected 3 data rows, found 2"):
            load_sinogram(sino)
        raw = tmp_path / "raw.csv"
        raw.write_text(rows)
        with pytest.raises(ParseError, match="expected 3 data rows, found 2"):
            ingest_raw_csv(raw, omega=25.0, T=0.02, M=3, K=1, lam=0.1)

    def test_csv_declared_shape_larger_than_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# modradon-sinogram omega=25.0 T=0.02 lambda=0.125"
                        " M=1000000000000 K=12 K_prime=15\n1.0\n")
        with pytest.raises(ParseError, match="cannot fit in"):
            load_sinogram(path)

    def test_csv_not_utf8(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"# modradon-sinogram omega=25.0 T=0.02 lambda=0.125 M=1 K=1"
                         b" K_prime=1\n0.5,\xff\xfe,0.5\n")
        with pytest.raises(ParseError, match="row 0, column 1: not a number"):
            load_sinogram(path)

    def test_fold_unfold_round_trip_via_files(self, tmp_path):
        p = small_params(lam=0.05)
        s = phantom_sinogram(shepp_logan(), p)
        ms = fold_sinogram(s)
        path = tmp_path / "m.mrts"
        save_sinogram(ms, path)
        loaded = load_sinogram(path)
        N = select_order(0.05, grid_upper_bound(s.params.beta, 0.05), p.omega, p.T)
        rec, reports = unfold_sinogram(loaded, N, p.K)
        lo = p.K_prime - p.K
        np.testing.assert_array_equal(rec.rows, s.rows[:, lo : lo + 2 * p.K + 1])
        assert all(r.success for r in reports)
