import numpy as np
import pytest

from modradon import experiments, fbp
from modradon.errors import SizeError
from modradon.fbp import (
    COSINE,
    RAM_LAK,
    FilterSpec,
    back_project,
    fbp_reconstruct,
    filter_kernel,
    filter_projections,
    rmse,
    write_pgm16,
    write_raw_f64,
)
from modradon.forward import SamplingParams, Sinogram, fold_sinogram, phantom_rows
from modradon.phantom import Ellipse, ImageGrid, Phantom, rasterize, shepp_logan
from modradon.unfold import COMPACT, UnfoldConfig, grid_upper_bound, unfold_sinogram
from oracles import (
    back_project_oracle,
    convolve_rows_oracle,
    design_params,
    fbp_oracle,
    kernel_quadrature_oracle,
    read_raw_f64,
    scan_window,
)

OMEGA = 60.0

# back_project against its per-pixel oracle, (width, height, M): every M mod 4
# on square grids of one and three bands, a square side that is not a power of
# two, and 1 x 1.  The non-square grids (W != H, heights below/at/above/between
# multiples of the 128-row band, 1 x n, n x 1) check that back_project refuses
# them, naming both sides.
ORACLE_CASES = [
    (40, 23, 7), (17, 130, 1), (64, 64, 4), (9, 65, 13), (33, 200, 2),
    (12, 128, 3), (10, 257, 2),
]
ORACLE_CASES += [
    (width, height, M)
    for width, height in [(64, 64), (300, 300), (45, 45), (40, 23), (1, 50), (50, 1), (1, 1)]
    for M in (1, 2, 3, 4, 5, 6, 8, 10)
    if (width, height, M) not in ORACLE_CASES
]


def phantom_sinogram(phantom, p):
    return scan_window(phantom_rows(phantom, p.T, p.M), p)


def small_sinogram(lam=0.05, omega=OMEGA, M=None):
    p = design_params(omega, lam=lam, M=M)
    return phantom_sinogram(shepp_logan(), p)


class TestFilterKernel:
    def test_rectangular_window_peak(self):
        spec = FilterSpec(OMEGA, RAM_LAK)
        assert filter_kernel(spec, 0.0) == pytest.approx(OMEGA**2 / (2 * np.pi), rel=1e-12)

    def test_evenness(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(0.0, 0.5, size=40)
        for window in (RAM_LAK, COSINE):
            spec = FilterSpec(OMEGA, window)
            np.testing.assert_allclose(filter_kernel(spec, -t), filter_kernel(spec, t),
                                       rtol=0, atol=1e-12)

    def test_closed_forms_match_quadrature(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(-1.1, 1.1, size=50)
        scale = OMEGA**2 / (2 * np.pi)
        cases = {
            RAM_LAK: lambda u: np.where(np.abs(u) <= 1.0, 1.0, 0.0),
            COSINE: lambda u: np.where(np.abs(u) <= 1.0, np.cos(np.pi * u / 2.0), 0.0),
        }
        for window, wfn in cases.items():
            got = filter_kernel(FilterSpec(OMEGA, window), t)
            want = kernel_quadrature_oracle(OMEGA, wfn, t)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * scale)

    def test_scalar_return(self):
        # a scalar offset gives the value its one-element array gives
        spec = FilterSpec(OMEGA, COSINE)
        assert np.shape(filter_kernel(spec, 0.3)) == ()
        assert filter_kernel(spec, 0.3) == filter_kernel(spec, np.array([0.3]))[0]


class TestFilterProjections:
    def _params(self, K=40, M=6):
        return SamplingParams(omega=OMEGA, T=0.02, lam=1.0, K=K, K_prime=K, M=M)

    def test_zero_rows(self):
        p = self._params()
        s = Sinogram(p, np.zeros((p.M, 2 * p.K + 1)))
        h = filter_projections(s, FilterSpec(OMEGA, RAM_LAK))
        np.testing.assert_array_equal(h, np.zeros_like(h))

    def test_impulse_row_reproduces_kernel(self):
        p = self._params(M=1)
        rows = np.zeros((1, 2 * p.K + 1))
        rows[0, p.K] = 1.0  # unit impulse at t = 0
        h = filter_projections(Sinogram(p, rows), FilterSpec(OMEGA, COSINE))
        lags = np.arange(-p.K, p.K + 1) * p.T
        np.testing.assert_allclose(h[0], filter_kernel(FilterSpec(OMEGA, COSINE), lags),
                                   rtol=0, atol=1e-9)

    def test_constant_row_suppressed(self):
        # the ramp spectrum vanishes at DC; residual is one-sided truncation leakage
        c, om = 3.0, 100.0
        p = SamplingParams(omega=om, T=0.02, lam=1.0, K=600, K_prime=600, M=1)
        rows = np.full((1, 2 * p.K + 1), c)
        h = filter_projections(Sinogram(p, rows), FilterSpec(om, RAM_LAK))
        interior = h[0][p.K // 2 : -p.K // 2]
        assert np.max(np.abs(interior)) <= 1e-2 * c * om**2 / (2 * np.pi)

    @pytest.mark.parametrize("M", [1, 63, 64, 65, 130])
    def test_blocked_matches_single_convolution(self, M):
        p = self._params(M=M)
        rows = np.random.default_rng(M).normal(size=(M, 2 * p.K + 1))
        spec = FilterSpec(OMEGA, COSINE)
        h = filter_projections(Sinogram(p, rows), spec)
        kern = filter_kernel(spec, np.arange(-2 * p.K, 2 * p.K + 1) * p.T)
        full = convolve_rows_oracle(rows, kern, 2 * p.K, 2 * p.K + 1)
        assert h.tobytes() == full.tobytes()
        assert h.base is None

    def test_linearity(self):
        rng = np.random.default_rng(8)
        p = self._params()
        a = rng.normal(size=(p.M, 2 * p.K + 1))
        b = rng.normal(size=(p.M, 2 * p.K + 1))
        spec = FilterSpec(OMEGA, COSINE)
        ha = filter_projections(Sinogram(p, a), spec)
        hb = filter_projections(Sinogram(p, b), spec)
        hab = filter_projections(Sinogram(p, 2.5 * a + b), spec)
        scale = np.max(np.abs(hab))
        np.testing.assert_allclose(hab, 2.5 * ha + hb, rtol=0, atol=1e-12 * scale)


class TestBackProject:
    def test_zero_filtered_gives_zero_image(self):
        p = SamplingParams(omega=OMEGA, T=0.02, lam=1.0, K=30, K_prime=30, M=9)
        img = back_project(np.zeros((9, 61)), p, ImageGrid(32, 32))
        np.testing.assert_array_equal(img.pixels, np.zeros((32, 32)))

    @staticmethod
    def _random_filtered(M, K=30, T=0.02, seed=0):
        p = SamplingParams(omega=OMEGA, T=T, lam=1.0, K=K, K_prime=K, M=M)
        rng = np.random.default_rng(seed)
        return p, rng.normal(size=(M, 2 * K + 1))

    # With K*T = 0.6 the image corners (radius up to sqrt(2)) project outside
    # the detector lattice at most angles, so the cases cover pixels that lie
    # outside at some angles; near the angle perpendicular to a corner's
    # diagonal it projects inside, and only a tiny M such as M = 2 leaves the
    # corners outside at every angle.
    @pytest.mark.parametrize("width, height, M", ORACLE_CASES)
    def test_matches_oracle_bitwise(self, width, height, M):
        p, h = self._random_filtered(M)
        grid = ImageGrid(width, height)
        if width != height:
            with pytest.raises(SizeError,
                               match=rf"^back projection needs a square grid, got {width}x{height}$"):
                back_project(h, p, grid)
            return
        img = back_project(h, p, grid)
        assert img.pixels.tobytes() == back_project_oracle(h, p, grid).tobytes()

    def test_negative_row_ends_match_oracle_bitwise(self):
        # outside pixels read a row's two end pairs with zero weights; with the
        # ends negative and their neighbours positive, both products and their
        # sum are -0.0, which must leave a pixel's running sum as it is; at
        # M = 2 (0 and pi/2) the corners lie outside at both angles and stay +0.0
        p, h = self._random_filtered(M=2)
        h = np.abs(h)
        h[:, [0, -1]] *= -1.0
        grid = ImageGrid(40, 40)
        img = back_project(h, p, grid)
        assert img.pixels.tobytes() == back_project_oracle(h, p, grid).tobytes()
        assert img.pixels[0, 0].tobytes() == np.float64(0.0).tobytes()

    def test_two_calls_keep_images_separate(self):
        p, h1 = self._random_filtered(M=5)
        h2 = h1.copy()
        h2[2, 31] += 1.0
        grid = ImageGrid(70, 70)
        img1, img2 = back_project(h1, p, grid), back_project(h2, p, grid)
        assert img1.pixels.tobytes() == back_project_oracle(h1, p, grid).tobytes()
        assert img2.pixels.tobytes() == back_project_oracle(h2, p, grid).tobytes()
        assert not np.array_equal(img1.pixels, img2.pixels)

    @pytest.mark.parametrize("change", [{"M": 6}, {"K": 31}])
    def test_geometry_mismatch_raises(self, change):
        p, _ = self._random_filtered(M=5)
        M, K = change.get("M", p.M), change.get("K", p.K)
        with pytest.raises(SizeError):
            back_project(np.zeros((M, 2 * K + 1)), p, ImageGrid(8, 8))

    def test_equal_rows_radially_invariant(self):
        # identical smooth rows for every angle: the image depends on radius only
        # (fine lattice keeps the interpolation kinks below the 1e-6 target)
        p = SamplingParams(omega=OMEGA, T=0.00125, lam=1.0, K=960, K_prime=960, M=180)
        t = np.arange(-p.K, p.K + 1) * p.T
        row = np.exp(-(t**2) / 0.08)
        thetas = np.arange(p.M) * np.pi / p.M
        angles = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        r = 0.43
        vals = []
        for a in angles:
            x, y = r * np.cos(a), r * np.sin(a)
            u = (x * np.cos(thetas) + y * np.sin(thetas)) / p.T + p.K
            i0 = np.floor(u).astype(int)
            f = u - i0
            vals.append(np.sum(row[i0] * (1 - f) + row[i0 + 1] * f) * p.T / (2 * p.M))
        vals = np.array(vals)
        assert np.max(vals) - np.min(vals) <= 1e-6 * np.max(np.abs(vals))

    def test_rotation_covariance(self):
        # rotating the phantom by the angular step matches a cyclic row shift
        M, om = 36, 40.0
        base = Ellipse((0.3, 0.1), (0.25, 0.45), 0.5, 1.0)
        delta = np.pi / M
        rot = Ellipse(
            (0.3 * np.cos(delta) - 0.1 * np.sin(delta),
             0.3 * np.sin(delta) + 0.1 * np.cos(delta)),
            (0.25, 0.45), 0.5 + delta, 1.0)
        p = design_params(om, lam=1.0, M=M)
        s1 = phantom_sinogram(Phantom((base,)), p)
        s2 = phantom_sinogram(Phantom((rot,)), p)
        # row m of the rotated phantom equals row m-1 of the original;
        # row 0 wraps to the last row with the offset axis reversed
        shifted = np.roll(s1.rows, 1, axis=0)
        shifted[0] = s1.rows[-1][::-1]
        np.testing.assert_allclose(s2.rows, shifted, atol=2e-4 * np.max(np.abs(s1.rows)))

        spec = FilterSpec(om, COSINE)
        g = ImageGrid(192, 192)
        img1 = fbp_reconstruct(s1, spec, g)
        img2 = fbp_reconstruct(s2, spec, g)
        # sample img1 at back-rotated pixel positions (bilinear)
        X, Y = np.meshgrid(*g.pixel_axes())
        c, sn = np.cos(-delta), np.sin(-delta)
        Xr = X * c - Y * sn
        Yr = X * sn + Y * c
        u = (Xr + 1.0) * g.width / 2.0 - 0.5
        v = (1.0 - Yr) * g.height / 2.0 - 0.5
        iu = np.clip(np.floor(u).astype(int), 0, g.width - 2)
        iv = np.clip(np.floor(v).astype(int), 0, g.height - 2)
        fu, fv = u - iu, v - iv
        P = img1.pixels
        rot_img = ((1 - fv) * ((1 - fu) * P[iv, iu] + fu * P[iv, iu + 1])
                   + fv * ((1 - fu) * P[iv + 1, iu] + fu * P[iv + 1, iu + 1]))
        mask = Xr**2 + Yr**2 < 0.81
        err = np.sqrt(np.mean((img2.pixels[mask] - rot_img[mask]) ** 2))
        assert err <= 1e-3


class TestReconstruction:
    def test_fold_unfold_reconstruction_parity_bitwise(self):
        lam = 0.05
        s = small_sinogram(lam=lam)
        p = s.params
        cfg = UnfoldConfig(lam=lam, beta=grid_upper_bound(p.beta, lam), omega=p.omega,
                           T=p.T, mode=COMPACT)
        rec, _ = unfold_sinogram(fold_sinogram(s), cfg, p.K)
        spec = FilterSpec(p.omega, COSINE)
        g = ImageGrid(96, 96)
        img_clean = fbp_reconstruct(s, spec, g)
        img_rec = fbp_reconstruct(rec, spec, g)
        assert np.array_equal(img_clean.pixels, img_rec.pixels)

    @staticmethod
    def _spy(monkeypatch):
        calls = {"filter": 0, "back_project": 0}
        filt, bp = fbp.filter_projections, fbp.back_project

        def counting_filter(s, spec):
            calls["filter"] += 1
            return filt(s, spec)

        def counting_bp(h, params, grid):
            calls["back_project"] += 1
            return bp(h, params, grid)

        monkeypatch.setattr(fbp, "filter_projections", counting_filter)
        monkeypatch.setattr(fbp, "back_project", counting_bp)
        return calls

    @staticmethod
    def _pipeline():
        return experiments.run_pipeline(shepp_logan(), lam=0.01, omega=OMEGA, M=12,
                                        grid_size=40)

    def test_identical_sinograms_reconstructed_once(self, monkeypatch):
        # an exact recovery has the clean [-K, K] rows' bits, though the clean
        # sinogram carries a wider left margin: one filter, one back projection
        calls = self._spy(monkeypatch)
        res = self._pipeline()
        assert calls == {"filter": 1, "back_project": 1}
        assert res.clean.params.K_prime > res.unfolded.params.K_prime
        want = fbp_oracle(res.clean, FilterSpec(OMEGA, COSINE), ImageGrid(40, 40))
        assert res.image_clean.pixels.tobytes() == want.tobytes()
        assert res.image_recovered.pixels.tobytes() == want.tobytes()
        assert not np.shares_memory(res.image_clean.pixels, res.image_recovered.pixels)

    @pytest.mark.parametrize("change", ["one_sample", "zero_sign"])
    def test_different_sinograms_keep_their_own_rows(self, monkeypatch, change):
        prepare, unfold = experiments.prepare_forward, experiments.unfold_sinogram
        cleans = []

        def keeping(*args, **kwargs):
            cleans.append(prepare(*args, **kwargs))
            return cleans[-1]

        def changing(folded, cfg, K):
            out, reports = unfold(folded, cfg, K)
            m = 4  # the sample at t = 0 is column K
            if change == "one_sample":
                out.rows[m, K] += 1e-3
            else:
                # the clean [-K, K] rows the pipeline compares are a view
                cleans[0][0].symmetric_rows()[m, K], out.rows[m, K] = 0.0, -0.0
            return out, reports

        monkeypatch.setattr(experiments, "prepare_forward", keeping)
        monkeypatch.setattr(experiments, "unfold_sinogram", changing)
        calls = self._spy(monkeypatch)
        res = self._pipeline()
        assert calls == {"filter": 2, "back_project": 2}
        same = np.array_equal(res.unfolded.rows, res.clean.symmetric_rows())
        assert same is (change == "zero_sign")
        spec, g = FilterSpec(OMEGA, COSINE), ImageGrid(40, 40)
        assert res.image_clean.pixels.tobytes() == fbp_oracle(res.clean, spec, g).tobytes()
        assert (res.image_recovered.pixels.tobytes()
                == fbp_oracle(res.unfolded, spec, g).tobytes())

    def test_rmse_decreases_with_bandwidth(self):
        truth = rasterize(shepp_logan(), ImageGrid(128, 128))
        errs = []
        for omega in (100.0, 200.0, 300.0):
            s = small_sinogram(lam=5.0, omega=omega)
            img = fbp_reconstruct(s, FilterSpec(omega, COSINE), ImageGrid(128, 128))
            errs.append(rmse(img, truth))
        assert errs[0] > errs[1] > errs[2]


class TestRmse:
    def test_identical_is_zero(self):
        img = rasterize(shepp_logan(), ImageGrid(32, 32))
        assert rmse(img, img) == 0.0

    def test_constant_offset(self):
        a = ImageGrid(8, 8, np.zeros((8, 8)))
        b = ImageGrid(8, 8, np.full((8, 8), 0.7))
        assert rmse(a, b) == pytest.approx(0.7)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = ImageGrid(8, 8, rng.normal(size=(8, 8)))
        b = ImageGrid(8, 8, rng.normal(size=(8, 8)))
        assert rmse(a, b) == rmse(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(SizeError):
            rmse(ImageGrid(8, 8), ImageGrid(8, 9))


class TestImageExport:
    def test_pgm_header_and_extremes(self, tmp_path):
        img = ImageGrid(4, 2, np.array([[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]]))
        path = tmp_path / "img.pgm"
        write_pgm16(img, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n")
        assert b"65535" in blob
        data = np.frombuffer(blob[blob.rindex(b"65535\n") + 6 :], dtype=">u2")
        assert data[0] == 0 and data[-1] == 65535

    def test_raw_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        img = ImageGrid(7, 5, rng.normal(size=(5, 7)))
        path = tmp_path / "img.f64"
        write_raw_f64(img, path)
        back = read_raw_f64(path)
        assert np.array_equal(back.pixels, img.pixels)
        assert (back.width, back.height) == (7, 5)

    def test_raw_of_strided_pixels_is_the_row_major_buffer(self, tmp_path):
        pixels = np.random.default_rng(5).normal(size=(7, 5)).T
        assert not pixels.flags.c_contiguous
        path = tmp_path / "img.f64"
        write_raw_f64(ImageGrid(7, 5, pixels), path)
        assert path.read_bytes() == pixels.astype("<f8").tobytes()
