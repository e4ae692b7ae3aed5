import re
from dataclasses import replace

import numpy as np
import pytest

from modradon import experiments
from modradon.core import modulo_fold
from modradon.errors import ConditionError, ConfigError, DomainError, MarginError, SizeError
from modradon.experiments import prepare_forward
from modradon.forward import (
    RandomBandlimitedSignal,
    SamplingParams,
    Sinogram,
    fold_sinogram,
    scan_exceedance,
)
from modradon.phantom import shepp_logan
from modradon.unfold import (
    COMPACT,
    GENERAL,
    compact_counts,
    cost_j,
    grid_upper_bound,
    required_margin,
    samples_compact,
    samples_general,
    select_order,
    unfold_compact,
    unfold_sinogram,
)
from oracles import (
    compact_counts_oracle,
    design_params,
    lattice_samples,
    round_to_2lambda,
    scan_window,
    sup_norm_oracle,
    unfold_sinogram_oracle,
    window,
)


def sinogram(rows, K, lam, omega, T):
    """Rows over [-K', K], one per angle, with K' taken from the row width."""
    rows = np.atleast_2d(rows)
    p = SamplingParams(omega=omega, T=T, lam=lam, K=K, K_prime=rows.shape[1] - K - 1,
                       M=rows.shape[0])
    return Sinogram(p, rows)


class TestSelectOrder:
    def test_reference_order_twelve(self):
        T = 1.0 / (600.0 * np.e)
        assert T * 300.0 * np.e == pytest.approx(0.5)
        assert select_order(0.00025, 1.0, 300.0, T) == 12

    def test_identity_when_bound_below_threshold(self):
        assert select_order(0.1, 0.05, 10.0, 0.001) == 0

    def test_general_mode_floor_is_one(self):
        # smallest admissible grid bound with heavy oversampling: formula gives 1
        assert select_order(0.1, 0.2, 10.0, 1e-5, GENERAL) == 1

    def test_log_ratio_example(self):
        T = 1.0 / (10.0 * np.e**2)  # oversampling factor exactly 1/e
        assert T * 10.0 * np.e == pytest.approx(1.0 / np.e)
        assert select_order(0.1, 1.0, 10.0, T) == 3

    def test_condition_error_without_oversampling(self):
        with pytest.raises(ConditionError, match=r"^T\*omega\*e = 27\.182818 >= 1; "):
            select_order(0.1, 1.0, 10.0, 1.0)

    def test_condition_error_when_oversampling_underflows(self):
        # log(0) would warn and give order 0
        with pytest.raises(ConditionError,
                           match=r"^T\*omega\*e underflows to 0 at T=0\.01, omega=5e-324; "):
            select_order(0.1, 1.0, 5e-324, 0.01)

    @pytest.mark.parametrize("name", ["lam", "beta", "omega", "T"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_value_is_named(self, name, bad):
        values = dict(lam=0.1, beta=1.0, omega=10.0, T=0.001)
        values[name] = bad
        with pytest.raises(ConfigError, match=f"^{name} must be positive and finite, got {bad}$"):
            select_order(**values)

    def test_override_wins(self):
        # an order given to the unfold is used as it is, even where the
        # sampling condition gives none
        with pytest.raises(ConditionError):
            select_order(0.1, 1.0, 10.0, 1.0)
        s = sinogram(np.zeros((2, 31)), 10, 0.1, 10.0, 1.0)
        out, reports = unfold_sinogram(s, 7)
        assert out.params.N == 7
        assert [r.n_used for r in reports] == [7, 7]

    def test_beta_grid_required_in_general_mode(self):
        s = sinogram(np.zeros((2, 61)), 30, 0.1, 10.0, 0.001)
        for beta in (0.33, None):
            with pytest.raises(ConfigError, match=re.escape(
                    f"general mode requires beta on the 2*lam grid; got {beta}")):
                unfold_sinogram(s, 1, mode=GENERAL, beta=beta)


class TestRequiredMargin:
    def test_zero_exceedance(self):
        assert required_margin(0.0, 0.1, 4, 10) == 10
        assert required_margin(0.0, 0.1, 15, 10) == 15

    def test_grid_aligned_rho(self):
        T = 0.01
        assert required_margin(37 * T, T, 5, 10) == 42

    def test_arrays_match_scalar_calls(self):
        # the sweep takes one signal's (threshold, order) margins in one call
        kstars = [0, 1, 7, 37, 300, 331, 1999]
        orders = np.array([0, 1, 5, 12, 15, 45])
        for T in (0.001, 0.01, 1 / 3, 0.0030656620097620196, 0.5 / (30 * np.pi * np.e)):
            for K in (1, 10, 333):
                got = required_margin(np.multiply(kstars, T)[:, None], T, orders, K)
                assert got.dtype == np.int64
                assert got.tolist() == [[required_margin(k * T, T, int(N), K) for N in orders]
                                        for k in kstars]

    @pytest.mark.parametrize("rho, N", [([0.1, -0.1], 3), (0.1, [3, -1])])
    def test_negative_array_entry_raises(self, rho, N):
        with pytest.raises(ConfigError):
            required_margin(np.array(rho), 0.01, np.array(N), 10)

    def test_sample_cost_comparison(self):
        # the compact margin wins by a wide factor in the low-threshold regime
        K, J, N = 1631, 13320, 12
        extra_general = samples_general(K, J, N) - (2 * K + 1)
        extra_compact = samples_compact(K, 3793) - (2 * K + 1)
        assert extra_general == 10071
        assert extra_compact == 2162
        assert extra_general / extra_compact == pytest.approx(4.66, abs=0.01)

    def test_cost_j_integer(self):
        assert cost_j(grid_upper_bound(0.9, 0.1), 0.1) == 60

    def test_grid_upper_bound(self):
        assert grid_upper_bound(0.554954948, 0.00025) == pytest.approx(0.555, abs=1e-12)
        assert grid_upper_bound(1.0, 0.025) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta, lam", [(1.0, 1e300), (0.6, 1e12), (1e-300, 0.05),
                                           (5e-324, 1.0)])
    def test_grid_upper_bound_is_one_step_far_below_lam(self, beta, lam):
        # beta/(2*lam) <= 1e-12 lies inside the guard band of the ceiling
        assert grid_upper_bound(beta, lam) == 2.0 * lam

    def test_grid_upper_bound_of_zero_is_zero(self):
        assert grid_upper_bound(0.0, 0.05) == 0.0


class TestUnfoldCompact:
    def test_no_folds_identity(self):
        # a slow oscillation well inside [-lam, lam): differences never fold
        lam = 0.5
        k = np.arange(-32, 33)
        y = 0.4 * lam * np.cos(0.05 * k)
        rec, rep = unfold_compact(y, -32, lam, 3, 20)
        np.testing.assert_array_equal(rec, window(y, -32, -20, 20))
        assert rep.success

    def test_order_zero_restriction(self):
        y = np.linspace(-0.04, 0.04, 17)
        N = select_order(0.05, 0.04, 10.0, 0.001)
        rec, rep = unfold_compact(y, -8, 0.05, N, 4)
        assert rep.n_used == 0
        assert len(rec) == 9
        np.testing.assert_array_equal(rec, window(y, -8, -4, 4))

    def test_exact_recovery_bits(self):
        lam, omega = 0.1, 10 * np.pi
        T = 0.5 / (omega * np.e)
        for seed in range(25):
            sig = RandomBandlimitedSignal.draw(omega, np.random.SeedSequence([99, seed]))
            [((kstar,), _, _)] = scan_exceedance([sig], T, (lam,))
            N = 4
            Kp = required_margin(kstar * T, T, N, kstar)
            truth = lattice_samples(sig, T, -Kp, kstar)
            y = modulo_fold(truth, lam)
            rec, rep = unfold_compact(y, -Kp, lam, N, kstar)
            assert np.array_equal(rec, window(truth, -Kp, -kstar, kstar))
            assert rep.success

    def test_fold_count_on_grid_even_for_garbage(self):
        rng = np.random.default_rng(42)
        lam = 0.03
        y = rng.uniform(-lam, lam, size=101)
        rec, _ = unfold_compact(y, -50, lam, 5, 40)
        resid = rec - window(y, -50, -40, 40)
        m = resid / (2 * lam)
        assert np.max(np.abs(m - np.round(m))) <= 1e-9

    @pytest.mark.parametrize("garbage", [False, True], ids=["signals", "garbage"])
    def test_counts_of_right_aligned_rows_match_single_rows(self, garbage):
        # rows with different margins, zero-padded on the left into one block,
        # unfold bit for bit like each row on its own
        lam, omega, N, K = 0.1, 10 * np.pi, 4, 40
        T = 0.5 / (omega * np.e)
        rng = np.random.default_rng(3)
        margins = [K, 55, 93, 61, 120]
        width = max(margins) + K + 1
        block = np.zeros((len(margins), width))
        for r, Kp in enumerate(margins):
            if garbage:
                row = rng.uniform(-lam, lam, size=Kp + K + 1)
            else:
                sig = RandomBandlimitedSignal.draw(omega, np.random.SeedSequence([31, r]))
                row = modulo_fold(lattice_samples(sig, T, -Kp, K), lam)
            block[r, width - row.size :] = row
        start = width - (np.array(margins) + K + 1)
        counts, residual = compact_counts(block, lam, N, start)
        assert counts.dtype == np.int64
        for r, Kp in enumerate(margins):
            assert not np.any(counts[r, : start[r]])
            rec, rep = unfold_compact(block[r, start[r] :], -Kp, lam, N, K)
            got = block[r, -(2 * K + 1) :] + (2.0 * lam) * counts[r, -(2 * K + 1) :]
            assert got.tobytes() == rec.tobytes()
            assert residual[r] == rep.residual_grid_deviation

    @pytest.mark.parametrize("N", [1, 2, 5, 12])
    def test_counts_of_quiet_blocks_match_oracle(self, N):
        # a block with no nonzero residual, then one whose only nonzero
        # residual is in its last column: a row of zeros ending in -0.9*lam,
        # 0.9*lam makes just its last N-th difference fold
        lam = 0.05
        k = np.arange(70)
        block = 0.3 * lam * np.cos(0.02 * k + np.arange(4)[:, None])
        for rows in (block, np.vstack([block, np.r_[np.zeros(68), -0.9 * lam, 0.9 * lam]])):
            counts, residual = compact_counts(rows, lam, N, np.zeros(len(rows), dtype=int))
            want_counts, want_residual = compact_counts_oracle(rows, lam, N, [0] * len(rows))
            assert counts.tobytes() == want_counts.tobytes()
            assert residual.tobytes() == want_residual.tobytes()
        assert np.flatnonzero(counts).tolist() == [counts.size - 1]

    def test_counts_of_sweep_blocks_match_oracle(self, monkeypatch):
        # every zero-padded block of a small sweep: blocks with rows starting
        # late, and blocks whose rows all start at column 0
        calls = []

        def checking(rows, lam, N, start):
            out = compact_counts(rows, lam, N, start)
            want = compact_counts_oracle(rows, lam, N, start)
            same = [a.tobytes() for a in out] == [a.tobytes() for a in want]
            calls.append((np.max(start), same))
            return out

        monkeypatch.setattr(experiments, "compact_counts", checking)
        experiments.success_sweep(lams=(0.1, 0.05), omegas=(10 * np.pi,), trials=3, tsteps=4,
                                  seed=1)
        assert len(calls) == 2 * 4 * 3
        assert all(same for _, same in calls)
        assert {late > 0 for late, _ in calls} == {True, False}

    def test_idempotent(self):
        # unfold(fold(unfold(fold(x)))) == unfold(fold(x)) on a full window
        lam, omega = 0.1, 10 * np.pi
        T = 0.5 / (omega * np.e)
        sig = RandomBandlimitedSignal.draw(omega, np.random.SeedSequence(7))
        [((kstar,), _, _)] = scan_exceedance([sig], T, (lam,))
        Kp = kstar + 4 + 8
        truth = lattice_samples(sig, T, -Kp, Kp)
        rec1, _ = unfold_compact(modulo_fold(truth, lam), -Kp, lam, 4, Kp)
        rec2, _ = unfold_compact(modulo_fold(rec1, lam), -Kp, lam, 4, Kp)
        np.testing.assert_array_equal(rec1, rec2)

    def test_margin_errors(self):
        with pytest.raises(MarginError):
            unfold_compact(np.zeros(11), -5, 0.1, 2, 8)  # base -5 > -8
        with pytest.raises(MarginError):
            unfold_compact(np.zeros(14), -12, 0.1, 2, 8)  # right end short

    def test_size_error(self):
        with pytest.raises(SizeError):
            unfold_compact(np.zeros(5), -3, 0.1, 6, 1)


class TestUnfoldGeneral:
    def _signal_sinogram(self, seeds, lam, omega, T, N, beta_grid, shift=0.0):
        """Sinogram of one signal per seed over [-K', K]: K covers the probe span
        and every settled tail, K' every exceedance plus the difference stencil."""
        sigs = [RandomBandlimitedSignal.draw(omega, np.random.SeedSequence(seed))
                for seed in seeds]
        kstars = [k for (k,), _, _ in scan_exceedance(sigs, T, (lam,))]
        J = cost_j(beta_grid, lam)
        K = max(J + N - 1, max(kstars) + 16)
        K_prime = max(K, max(kstars) + N + 16)
        rows = [lattice_samples(sig, T, -K_prime, K) + shift for sig in sigs]
        return sinogram(rows, K, lam, omega, T)

    def test_no_folds_identity(self):
        # slow decaying oscillation inside [-lam, lam): first differences stay tiny
        lam = 1.0
        k = np.arange(-259, 260)
        vals = 0.7 * lam * np.cos(0.04 * k) * np.exp(-((k / 150.0) ** 2))
        rec, [rep] = unfold_sinogram(sinogram(vals, 259, lam, 5.0, 0.001), 1, mode=GENERAL,
                                     beta=2 * lam)
        np.testing.assert_array_equal(rec.rows[0], vals)
        assert rep.tail_plateau_ok

    def test_exact_recovery(self):
        lam, omega = 0.1, 10 * np.pi
        T = 0.5 / (omega * np.e)
        beta_grid = grid_upper_bound(1.4, lam)
        N = select_order(lam, beta_grid, omega, T, GENERAL)
        truth = self._signal_sinogram((3, 11, 27), lam, omega, T, N, beta_grid)
        rec, reps = unfold_sinogram(fold_sinogram(truth), N, mode=GENERAL, beta=beta_grid)
        assert all(rep.success for rep in reps)
        np.testing.assert_allclose(rec.rows, truth.symmetric_rows(), atol=1e-9)

    def test_constant_shift_is_removed(self):
        # adding an even grid multiple leaves the folded samples unchanged,
        # and the tail limit pins the recovered run to the decaying original
        lam, omega = 0.1, 10 * np.pi
        T = 0.5 / (omega * np.e)
        beta_grid = grid_upper_bound(1.4, lam)
        N = select_order(lam, beta_grid, omega, T, GENERAL)
        truth = self._signal_sinogram((5,), lam, omega, T, N, beta_grid)
        shifted = self._signal_sinogram((5,), lam, omega, T, N, beta_grid, shift=2 * lam)
        y_shifted, y_plain = fold_sinogram(shifted), fold_sinogram(truth)
        np.testing.assert_allclose(y_shifted.rows, y_plain.rows, atol=1e-12)
        rec, _ = unfold_sinogram(y_shifted, N, mode=GENERAL, beta=beta_grid)
        np.testing.assert_allclose(rec.rows, truth.symmetric_rows(), atol=1e-9)

    def test_reference_projection_row(self):
        # full-scale projection row: folds every few samples, recovered exactly
        from modradon.forward import support_index
        from modradon.phantom import radon_phantom

        lam = 0.025
        p = design_params(300.0, lam=lam)
        ks = support_index(p.T)
        raw = radon_phantom(shepp_logan(), 0.7, np.arange(-ks, ks + 1) * p.T)
        row = scan_window(raw[None, :], replace(p, M=1))
        beta_grid = grid_upper_bound(0.56, lam)
        N = select_order(lam, beta_grid, 300.0, p.T, GENERAL)
        rec, [rep] = unfold_sinogram(fold_sinogram(row), N, mode=GENERAL, beta=beta_grid)
        assert rep.success
        np.testing.assert_allclose(rec.rows, row.rows, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_arbitrary_rows_match_per_row_oracle(self, N, seed):
        # uniform noise and folded Gaussian bumps, with random thresholds, grid
        # bounds, windows and output widths: the block unfold gives the per-row
        # oracle's bits and report lines, slope probe and tail plateau included
        rng = np.random.default_rng([N, seed])
        lam = float(rng.uniform(0.05, 1.0))
        beta = 2.0 * lam * int(rng.integers(1, 4))
        J = cost_j(beta, lam)
        K = J + N - 1 + int(rng.integers(0, 20))
        K_prime = K + int(rng.integers(0, 30))
        k = np.arange(-K_prime, K + 1)
        rows = np.empty((40, k.size))
        rows[:20] = rng.uniform(-lam, lam, size=(20, k.size))
        for row in rows[20:]:
            amp, centre, width = rng.uniform(-beta, beta), rng.uniform(-K, K), rng.uniform(2, 20)
            row[:] = modulo_fold(amp * np.exp(-(((k - centre) / width) ** 2)), lam)
        folded = sinogram(rows, K, lam, 10.0, 0.001)
        K_out = int(rng.integers(1, K + 1))
        got, got_reps = unfold_sinogram(folded, N, K_out, mode=GENERAL, beta=beta)
        want, want_reps = unfold_sinogram_oracle(folded, N, K_out, mode=GENERAL, beta=beta)
        assert np.array_equal(got.rows.view(np.uint64), want.rows.view(np.uint64))
        assert [r.to_csv_line() for r in got_reps] == [r.to_csv_line() for r in want_reps]

    def test_window_too_short(self):
        with pytest.raises(SizeError, match=r"need end index >= 61, got 14"):
            unfold_sinogram(sinogram(np.zeros(29), 14, 0.1, 10.0, 0.001), 2, mode=GENERAL,
                            beta=1.0)

    def test_output_window_outside_stored_rows(self):
        s = sinogram(np.zeros(61), 30, 0.1, 10.0, 0.001)
        with pytest.raises(DomainError, match=r"window \[-31, 31\] outside \[-30, 30\]"):
            unfold_sinogram(s, 1, 31, mode=GENERAL, beta=0.2)

    def test_mode_mismatch(self):
        # a mode that is neither general nor compact is refused, not taken
        # for compact
        s = sinogram(np.zeros(61), 30, 0.1, 10.0, 0.001)
        with pytest.raises(ConfigError, match="^unknown mode 'generel'$"):
            unfold_sinogram(s, 1, mode="generel", beta=0.2)


def _unfold_compact_float_staged(y, base, lam, N, K):
    """Literal float staging: cumulative sums rounded onto the fold grid at
    every stage.  Reference route for the packaged integer bookkeeping."""
    d = np.diff(y, n=N)
    s = modulo_fold(d, lam) - d
    for _ in range(N - 1):
        s = round_to_2lambda(np.concatenate([[0.0], np.cumsum(s)]), lam)
    eps = round_to_2lambda(np.concatenate([[0.0], np.cumsum(s)]), lam)
    return window(y + eps, base, -K, K)


class TestRouteEquivalence:
    def test_integer_staging_matches_float_staging(self):
        lam, omega = 0.1, 10 * np.pi
        T = 0.5 / (omega * np.e)
        for seed in range(10):
            sig = RandomBandlimitedSignal.draw(omega, np.random.SeedSequence([55, seed]))
            [((kstar,), _, _)] = scan_exceedance([sig], T, (lam,))
            N = 4
            Kp = required_margin(kstar * T, T, N, kstar)
            truth = lattice_samples(sig, T, -Kp, kstar)
            y = modulo_fold(truth, lam)
            rec, _ = unfold_compact(y, -Kp, lam, N, kstar)
            ref = _unfold_compact_float_staged(y, -Kp, lam, N, kstar)
            np.testing.assert_allclose(rec, ref, rtol=0, atol=1e-9 * lam)


def folded_phantom(M, noise=0.0):
    """Folded Shepp-Logan sinogram at omega=20, lam=0.05 with M angles (N=4,
    K=109, K'=110), optionally with seeded Gaussian noise added before the
    fold, and its 2*lam grid bound."""
    clean, _ = prepare_forward(shepp_logan(), lam=0.05, omega=20.0, M=M)
    rows = clean.rows
    if noise:
        rows = rows + np.random.default_rng(1).normal(0.0, noise, rows.shape)
    return fold_sinogram(Sinogram(clean.params, rows)), grid_upper_bound(clean.params.beta, 0.05)


class TestUnfoldSinogram:
    def test_general_route_matches_compact_on_shared_ground(self):
        # both algorithms recover the same rows when both sets of
        # preconditions hold (decaying tail and quiet left margin)
        from modradon.forward import phantom_rows

        lam = 0.05
        p = design_params(60.0, lam=lam, M=12)
        s = scan_window(phantom_rows(shepp_logan(), p.T, p.M), p)
        folded = fold_sinogram(s)
        beta_grid = grid_upper_bound(s.params.beta, lam)
        rec_c, _ = unfold_sinogram(folded, select_order(lam, beta_grid, 60.0, p.T), p.K)
        rec_g, reps = unfold_sinogram(folded, select_order(lam, beta_grid, 60.0, p.T, GENERAL),
                                      p.K, mode=GENERAL, beta=beta_grid)
        assert all(r.tail_plateau_ok for r in reps)
        np.testing.assert_array_equal(rec_c.rows, rec_g.rows)

    @pytest.mark.parametrize("mode", [COMPACT, GENERAL])
    @pytest.mark.parametrize("M, order, noise", [
        (1, None, 0.0), (63, None, 0.0), (64, None, 0.0), (65, None, 0.0),
        (130, None, 0.0), (65, 2, 0.0), (65, 0, 0.0), (130, None, 1e-3),
    ], ids=["M1", "M63", "M64", "M65", "M130", "order2", "order0", "noisy"])
    def test_blocks_match_per_row_oracle(self, mode, M, order, noise):
        # row blocks unfold bit for bit like single rows, across block edges;
        # order 0 is the identity in compact mode and order 1 in general mode
        folded, beta_grid = folded_phantom(M, noise)
        p = folded.params
        N = select_order(p.lam, beta_grid, p.omega, p.T, mode) if order is None else order
        got, got_reps = unfold_sinogram(folded, N, mode=mode, beta=beta_grid)
        want, want_reps = unfold_sinogram_oracle(folded, N, mode=mode, beta=beta_grid)
        assert got.params == want.params
        assert np.array_equal(got.rows.view(np.uint64), want.rows.view(np.uint64))
        assert [r.to_csv_line() for r in got_reps] == [r.to_csv_line() for r in want_reps]
        if noise and mode == GENERAL:
            assert not all(r.success for r in want_reps)

    @pytest.mark.parametrize("K, K_prime, order, K_out, error, message", [
        (30, 30, 2, 31, MarginError, "left margin too small: base -30 > -31; enlarge K_prime"),
        (20, 40, 2, 25, MarginError, "window ends at 20, needs to reach 25"),
        (1, 1, 6, 1, SizeError, "need more than 6 samples, got 3"),
        (30, 30, 2, 0, ConfigError, "K must be at least 1, got 0"),
        (30, 30, -1, 30, ConfigError, "order must be >= 0"),
    ], ids=["left-margin", "right-end", "too-few-samples", "K-below-1", "negative-order"])
    def test_rejected_window(self, K, K_prime, order, K_out, error, message):
        s = Sinogram(SamplingParams(omega=10.0, T=0.01, lam=0.1, K=K, K_prime=K_prime, M=2),
                     np.zeros((2, K + K_prime + 1)))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            unfold_sinogram(s, order, K_out)

    @pytest.mark.parametrize("mode", [COMPACT, GENERAL])
    @pytest.mark.parametrize("value", [0.1 * (1.0 + 1e-11), -0.1 * (1.0 + 1e-11)])
    def test_value_outside_fold_range_in_a_later_block(self, mode, value):
        rows = np.zeros((70, 61))
        rows[66, 40] = value
        s = sinogram(rows, 30, 0.1, 10.0, 0.001)
        with pytest.raises(DomainError, match=r"^folded values must lie within \[-lam, lam\)$"):
            unfold_sinogram(s, 1, mode=mode, beta=0.2)

    @pytest.mark.parametrize("mode", [COMPACT, GENERAL])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_nan_is_outside_the_fold_range(self, mode, order):
        # every comparison with NaN is False, so a NaN must fail the range check
        # rather than pass through (order 0) or reach modulo_fold (order >= 1)
        rows = np.zeros((2, 61))
        rows[1, 40] = np.nan
        s = sinogram(rows, 30, 0.1, 10.0, 0.001)
        with pytest.raises(DomainError, match=r"^folded values must lie within \[-lam, lam\)$"):
            unfold_sinogram(s, order, mode=mode, beta=0.2)


class TestDifferenceBound:
    def test_lemma_style_bound_subset(self):
        omega = 10 * np.pi
        T = 0.3 * np.pi / omega
        for seed in range(20):
            sig = RandomBandlimitedSignal.draw(omega, np.random.SeedSequence(seed))
            sup = sup_norm_oracle(sig)
            g = lattice_samples(sig, T, -400, 400)
            for n in range(1, 7):
                lhs = np.max(np.abs(np.diff(g, n=n)))
                assert lhs <= (T * omega * np.e) ** n * sup + 1e-9
