"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The default scale keeps
the Monte-Carlo suites CI-sized; set MODRADON_ACCEPTANCE_FULL=1 for the
full-scale runs (1000 trials, 100 sweep steps).
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from modradon.core import modulo_fold
from modradon.experiments import base_order, downsample_demo, run_pipeline, success_sweep
from modradon.forward import RandomBandlimitedSignal
from modradon.phantom import Ellipse, Phantom, radon_phantom, shepp_logan, walnut_standin
from modradon.unfold import required_margin, unfold_compact
from oracles import lattice_samples, line_integral_oracle, sup_norm_oracle, window

FULL = os.environ.get("MODRADON_ACCEPTANCE_FULL") == "1"
TRIALS = 1000 if FULL else 100
SWEEP_STEPS = 100 if FULL else 25


@contextmanager
def criterion(num, name):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} ({name}): FAIL [{time.time() - t0:.1f}s]")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS [{time.time() - t0:.1f}s]")


def test_criterion_1_exact_unfold_property_suite():
    with criterion(1, "exact unfold at the guaranteed rate"):
        t0 = time.time()
        for lam in (0.1, 0.05):
            for omega in (10 * np.pi, 20 * np.pi, 30 * np.pi):
                T = (1.0 / (omega * np.e)) * (1.0 - 1e-6)
                N = base_order(lam, omega)
                K = int(np.ceil(1.0 / T))
                hits = 0
                for trial in range(TRIALS):
                    sig = RandomBandlimitedSignal.draw(
                        omega, np.random.SeedSequence([20250, trial]))
                    (kstar,), _, _ = sig.scan_exceedance(T, (lam,))
                    K_prime = required_margin(kstar * T, T, N, K)
                    truth = lattice_samples(sig, T, -K_prime, K)
                    y = modulo_fold(truth, lam)
                    rec, _ = unfold_compact(y, -K_prime, lam, N, K)
                    if np.max(np.abs(rec - window(truth, -K_prime, -K, K))) <= 1e-9:
                        hits += 1
                assert hits == TRIALS, (
                    f"lam={lam} omega={omega / np.pi:g}pi: {hits}/{TRIALS} exact")
        elapsed = time.time() - t0
        if not FULL:
            assert elapsed < 60.0, f"runtime target exceeded: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def shepp_logan_runs():
    t0 = time.time()
    runs = {
        lam: run_pipeline(shepp_logan(), lam=lam, omega=300.0, t_frac=0.5,
                          grid_size=256, filter_window="cosine", tag=f"sl_{lam:g}")
        for lam in (0.025, 0.00025)
    }
    return runs, time.time() - t0


def test_criterion_2_shepp_logan_parity(shepp_logan_runs):
    runs, elapsed = shepp_logan_runs
    with criterion(2, "Shepp-Logan parity and sample-cost accounting"):
        for lam, res in runs.items():
            assert res.params.K == 1631
            assert res.params.M == 300
            assert res.params.T == pytest.approx(1.0 / (600.0 * np.e), rel=1e-15)
            # (a) unfolded sinogram equals the clean one
            assert res.sino_parity_max <= 1e-9, f"lam={lam}: {res.sino_parity_max}"
            # (b) reconstructions agree bit for bit
            assert res.images_bit_identical, f"lam={lam}: images differ"
            assert res.image_parity_max == 0.0
        # (c) left margins
        assert runs[0.025].params.K_prime == 1631
        assert runs[0.00025].params.K_prime == 3793
        # (d) per-angle sample cost of the general-mode alternative
        res = runs[0.00025]
        assert res.N == 12
        assert res.J == 13320
        assert res.extra_samples_general == 10071
        assert res.extra_samples_compact == 2162
        ratio = res.extra_samples_general / res.extra_samples_compact
        assert ratio == pytest.approx(4.66, abs=0.005)
        assert elapsed < 300.0, f"runtime target exceeded: {elapsed:.1f}s"


def test_criterion_3_difference_bound_suite():
    with criterion(3, "difference-growth bound"):
        omega = 10 * np.pi
        t_us = 1.0 / (omega * np.e)
        fracs = (0.3, 0.5, 0.8, 1.2, 2.0)
        for seed in range(200):
            T = fracs[seed % len(fracs)] * t_us
            sig = RandomBandlimitedSignal.draw(omega, np.random.SeedSequence([777, seed]))
            sup = sup_norm_oracle(sig)
            kw = int(np.ceil(2.5 / T))
            g = lattice_samples(sig, T, -kw, kw)
            for n in range(1, 7):
                lhs = float(np.max(np.abs(np.diff(g, n=n))))
                assert lhs <= (T * omega * np.e) ** n * sup + 1e-9, (seed, n)


def test_criterion_4_modulo_decomposition_suite():
    with criterion(4, "centered fold decomposition"):
        rng = np.random.default_rng(31419)
        total = 0
        for _ in range(100):
            lam = float(10.0 ** rng.uniform(-4, 1))
            t = rng.uniform(-1.0, 1.0, size=1000) * 10.0 ** rng.uniform(-3, 3)
            y = modulo_fold(t, lam)
            assert np.all(y >= -lam) and np.all(y < lam)
            resid = t - y
            grid = 2.0 * lam * np.round(resid / (2.0 * lam))
            assert np.all(np.abs(resid - grid) <= 1e-12 * np.maximum(1.0, np.abs(t)))
            total += t.size
        assert total == 100_000


def test_criterion_5_analytic_radon_oracle_equivalence():
    with criterion(5, "chord formula vs line-integration oracle"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            a, b = rng.uniform(0.05, 0.45, size=2)
            r_max = 1.0 - max(a, b)
            r = rng.uniform(0.0, 0.95 * r_max)
            ang = rng.uniform(0.0, 2 * np.pi)
            e = Ellipse((r * np.cos(ang), r * np.sin(ang)), (a, b),
                        rng.uniform(0.0, np.pi), rng.uniform(-2.0, 2.0))
            theta = rng.uniform(0.0, 2 * np.pi)
            t = rng.uniform(-1.2, 1.2)
            assert radon_phantom(Phantom((e,)), theta, t) == pytest.approx(
                line_integral_oracle(e, theta, t), abs=1e-8)


def test_criterion_6_success_sweep_qualitative():
    with criterion(6, "sampling-rate sweep regularities"):
        cells = success_sweep(lams=(0.1, 0.05), omegas=(10 * np.pi,), trials=TRIALS,
                              tsteps=SWEEP_STEPS, seed=42)
        for cell in cells:
            # (a) certain recovery at the guaranteed spacing, for every order
            assert np.all(cell.rates[0, :] == 1.0), cell.rates[0]
            # (b) certain failure at half the Nyquist spacing for the base order
            coarse = cell.t_over_shannon >= 0.5
            assert np.all(cell.rates[coarse, 0] == 0.0), cell.rates[coarse, 0]
            # (c) higher orders dominate pointwise
            assert np.all(cell.rates[:, 1] >= cell.rates[:, 0])
            assert np.all(cell.rates[:, 2] >= cell.rates[:, 1])
            # declining-rate regularity after 3-step median smoothing
            for i in range(3):
                assert np.all(np.diff(cell.rates_smooth3[:, i]) <= 1e-12)


def test_criterion_7_walnut_path():
    with criterion(7, "walnut-geometry data path"):
        walnut_csv = os.environ.get("MODRADON_WALNUT_CSV")
        if walnut_csv:
            from modradon.experiments import ingest_raw_csv

            src = ingest_raw_csv(walnut_csv, omega=300.0, T=1.0 / 1128.0, M=600,
                                 K=1128, lam=0.025, normalize=True)
            res = run_pipeline(src, lam=0.025, grid_size=256, tag="walnut")
            print("\n(real dataset: compare the written images by eye)")
        else:
            res = run_pipeline(walnut_standin(), lam=0.025, omega=300.0,
                               T=1.0 / 1128.0, M=600, K=1128, normalize=True,
                               grid_size=256, tag="walnut_standin")
        assert res.params.M == 600
        assert res.params.K == 1128
        assert res.sino_parity_max < 1e-9
        assert res.images_bit_identical
        assert res.success


def test_criterion_8_downsample_demo():
    with criterion(8, "order-1 failure / order-2 recovery after rate halving"):
        attempts = downsample_demo(omega=10 * np.pi, lam=0.1, seed=0, t0_frac=0.5,
                                   factor=2)
        base, down1, down2 = attempts
        assert base.order == 1 and base.success and base.fold_count > 0
        assert base.max_err <= 1e-9
        assert down1.order == 1 and not down1.success
        assert down1.mse > 1e-3, "order-1 failure should be unmistakable"
        assert down2.order == 2 and down2.success
        assert down2.max_err <= 1e-9
