import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modradon.errors import DomainError, ParseError, SizeError
from modradon.phantom import (
    Ellipse,
    ImageGrid,
    Phantom,
    load_phantom,
    radon_phantom,
    rasterize,
    save_phantom,
    shepp_logan,
    walnut_standin,
)
from oracles import line_integral_oracle, radon_phantom_oracle, rasterize_oracle

UNIT_DISK = Ellipse((0.0, 0.0), (1.0, 1.0), 0.0, 1.0)


def radon_ellipse(e, theta, t):
    """The transform of the phantom made of ``e`` alone."""
    return radon_phantom(Phantom((e,)), theta, t)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def random_ellipse(rng):
    a, b = rng.uniform(0.05, 0.45, size=2)
    r_max = 1.0 - max(a, b)
    r = rng.uniform(0.0, r_max * 0.95)
    ang = rng.uniform(0.0, 2 * np.pi)
    return Ellipse(
        (r * np.cos(ang), r * np.sin(ang)),
        (a, b),
        rng.uniform(0.0, np.pi),
        rng.uniform(-2.0, 2.0),
    )


class TestRadonEllipse:
    def test_unit_disk_diameter(self):
        for theta in (0.0, 0.7, np.pi / 2, 2.1):
            assert radon_ellipse(UNIT_DISK, theta, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_unit_disk_chord(self):
        assert radon_ellipse(UNIT_DISK, 0.0, 0.6) == pytest.approx(1.6, abs=1e-14)

    def test_miss_is_zero(self):
        assert radon_ellipse(UNIT_DISK, 0.3, 1.01) == 0.0

    def test_rotated_anisotropic_against_oracle(self):
        e = Ellipse((0.15, -0.2), (0.5, 0.2), 0.6, 1.3)
        got = radon_ellipse(e, np.pi / 3, 0.2)
        want = line_integral_oracle(e, np.pi / 3, 0.2)
        assert got == pytest.approx(want, abs=1e-8)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            e = random_ellipse(rng)
            theta = rng.uniform(0.0, 2 * np.pi)
            t = rng.uniform(-1.2, 1.2)
            assert radon_ellipse(e, theta, t) == pytest.approx(
                line_integral_oracle(e, theta, t), abs=1e-8
            )


class TestRadonPhantom:
    def test_empty_phantom(self):
        p = Phantom(())
        assert radon_phantom(p, 0.3, 0.1) == 0.0
        np.testing.assert_array_equal(radon_phantom(p, 0.3, np.linspace(-1, 1, 5)), np.zeros(5))

    def test_single_ellipse_matches(self):
        e = Ellipse((0.1, 0.2), (0.3, 0.5), 0.4, 0.8)
        p = Phantom((e,))
        t = np.linspace(-1, 1, 31)
        assert_same_bits(radon_phantom(p, 0.9, t), radon_phantom_oracle(p, 0.9, t))

    def test_evenness(self):
        # exact up to the one rounding step in representing theta + pi
        p = shepp_logan()
        rng = np.random.default_rng(5)
        for _ in range(50):
            theta = rng.uniform(0.0, 2 * np.pi)
            t = rng.uniform(-1.1, 1.1)
            a = radon_phantom(p, theta + np.pi, -t)
            b = radon_phantom(p, theta, t)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_tangent_line_misses_mass(self):
        assert radon_phantom(shepp_logan(), 0.0, 1.0) == 0.0

    def test_vanishes_outside_unit_interval(self):
        p = shepp_logan()
        t = np.array([-1.7, -1.0001, 1.0001, 2.3])
        np.testing.assert_array_equal(radon_phantom(p, 1.1, t), np.zeros(4))

    def test_mass_is_angle_independent(self):
        p = shepp_logan()
        T = 1e-3
        t = np.arange(-1.0, 1.0 + T, T)
        masses = [T * np.sum(radon_phantom(p, th, t)) for th in (0.0, 0.5, 1.3, 2.6)]
        analytic = sum(
            e.intensity * np.pi * e.semi_axes[0] * e.semi_axes[1] for e in p.ellipses
        )
        for m in masses:
            assert m == pytest.approx(analytic, abs=1e-3)
            assert m == pytest.approx(masses[0], abs=1e-3)


@st.composite
def ellipses(draw):
    """An ellipse in the closed unit disk, often touching the circle."""
    a, b = draw(st.floats(0.01, 0.6)), draw(st.floats(0.01, 0.6))
    reach = 1.0 - max(a, b)
    r = draw(st.one_of(st.just(reach), st.floats(0.0, reach)))
    ang = draw(st.floats(0.0, 2 * np.pi))
    return Ellipse((r * np.cos(ang), r * np.sin(ang)), (a, b), draw(st.floats(0.0, np.pi)),
                   draw(st.floats(-2.0, 2.0)))


phantoms = st.lists(ellipses(), min_size=1, max_size=6).map(Phantom)
_angle = st.floats(-10.0, 10.0)
_odd = st.integers(0, 40).map(lambda k: 2 * k + 1)


@st.composite
def lattices(draw):
    """Offsets k*T, |k| <= ceil(1/T), for T = t_frac/(omega*e): ascending,
    descending, or one of them as a scalar."""
    omega = draw(st.floats(5.0, 60.0))
    T = draw(st.floats(0.1, 0.95, exclude_min=True, exclude_max=True)) / (omega * np.e)
    k = int(np.ceil(1.0 / T))
    t = np.arange(-k, k + 1) * T
    kind = draw(st.sampled_from(["ascending", "descending", "scalar"]))
    if kind == "descending":
        return t[::-1]
    if kind == "scalar":
        return float(draw(st.sampled_from(t)))
    return t


class TestAgainstOracles:
    """Every result equals the one-angle, whole-lattice reference bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(p=phantoms, t=lattices(), theta=st.one_of(
        _angle, st.lists(_angle, min_size=1, max_size=40),
        # the sinogram angles m*pi/M that phantom_rows projects at
        st.integers(1, 80).map(lambda M: np.arange(M) * np.pi / M)))
    def test_radon_phantom(self, p, theta, t):
        if np.isscalar(theta):
            want = radon_phantom_oracle(p, theta, t)
        else:
            want = np.array([radon_phantom_oracle(p, th, t) for th in theta])
        assert_same_bits(radon_phantom(p, theta, t), want)

    def test_degenerate_rows_add_zeros(self):
        # an axis whose square underflows leaves the chord empty at theta = 0,
        # and a NaN angle or offset meets no chord
        p = Phantom((Ellipse((0.1, 0.0), (1e-170, 0.5), 0.0, 1.0), shepp_logan().ellipses[0]))
        theta = np.array([0.0, 0.3, np.nan, np.pi, np.inf])
        for t in (np.linspace(-1, 1, 41), np.array([-0.5, np.nan, 0.1, 0.0])):
            got = radon_phantom(p, theta, t)
            assert_same_bits(got, np.array([radon_phantom_oracle(p, th, t) for th in theta]))
            assert not np.isnan(got).any()

    @settings(max_examples=60, deadline=None)
    @given(p=phantoms, shape=st.one_of(
        st.just((1, 1)), st.just((256, 256)), st.tuples(_odd, _odd),
        st.tuples(st.just(1), st.integers(1, 64)), st.tuples(st.integers(1, 64), st.just(1))))
    # pixel centers at x = +-0.5, then y = +-0.5, lie on the circle, inside it
    @example(p=Phantom((Ellipse((0.0, 0.0), (0.5, 0.5), 0.0, 1.0),)), shape=(2, 1))
    @example(p=Phantom((Ellipse((0.0, 0.0), (0.5, 0.5), 0.0, 1.0),)), shape=(1, 2))
    def test_rasterize(self, p, shape):
        grid = ImageGrid(*shape)
        assert_same_bits(rasterize(p, grid).pixels, rasterize_oracle(p, grid))


class TestPhantoms:
    def test_shepp_logan_has_ten_ellipses(self):
        assert len(shepp_logan().ellipses) == 10

    def test_walnut_standin_valid(self):
        p = walnut_standin()
        assert len(p.ellipses) >= 5

    def test_containment_enforced(self):
        with pytest.raises(DomainError):
            Ellipse((0.8, 0.0), (0.5, 0.1), 0.0, 1.0)
        with pytest.raises(DomainError):
            Ellipse((0.0, 0.0), (0.0, 0.1), 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["center", "semi_axes", "rotation", "intensity"])
    def test_non_finite_field_rejected(self, field, bad):
        fields = dict(center=(0.0, 0.0), semi_axes=(0.5, 0.5), rotation=0.0, intensity=1.0)
        fields[field] = (bad, 0.5) if field in ("center", "semi_axes") else bad
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            Ellipse(**fields)


class TestImageGrid:
    def test_geometry_grid_holds_no_pixel_buffer(self):
        g = ImageGrid(4096, 3000)
        assert g.pixels.shape == (3000, 4096) and g.pixels.strides == (0, 0)
        assert g.pixels[2999, 4095] == 0.0 and not g.pixels.flags.writeable

    def test_pixel_axes_mirror_exactly(self):
        for n in range(1, 301):
            x, y = ImageGrid(n, n).pixel_axes()
            # compared as values: the middle of an odd side is +0.0 on both axes
            assert np.array_equal(x[::-1], -x) and np.array_equal(y, x[::-1])

    @pytest.mark.parametrize("n", [2**k for k in range(11)])
    def test_pixel_axes_unchanged_at_powers_of_two(self, n):
        # the earlier form -1 + (j + 1/2) * 2/n, exact at these sides
        x, y = ImageGrid(n, n).pixel_axes()
        assert x.tobytes() == (-1.0 + (np.arange(n) + 0.5) * (2.0 / n)).tobytes()
        assert y.tobytes() == (1.0 - (np.arange(n) + 0.5) * (2.0 / n)).tobytes()

    @pytest.mark.parametrize("width, height", [
        (10**23, 1), (1, 10**23), (2**31, 2**31), (10**400, 10**400),
    ])
    def test_unindexable_grid_raises(self, width, height):
        # checked before the grid's zero view or any axis is made
        with pytest.raises(SizeError, match="too large to index"):
            ImageGrid(width, height)


class TestRasterize:
    def test_empty_phantom_zero_image(self):
        img = rasterize(Phantom(()), ImageGrid(16, 16))
        np.testing.assert_array_equal(img.pixels, np.zeros((16, 16)))

    def test_unit_disk_center_and_corner(self):
        img = rasterize(Phantom((UNIT_DISK,)), ImageGrid(64, 64))
        assert img.pixels[32, 32] == 1.0
        assert img.pixels[0, 0] == 0.0

    def test_shepp_logan_range(self):
        img = rasterize(shepp_logan(), ImageGrid(256, 256))
        assert img.pixels.max() == pytest.approx(1.0, abs=1e-12)
        assert img.pixels.min() >= -1e-15  # intensity sums cancel to ~0 in float
        # everything lives inside the unit disk
        X, Y = np.meshgrid(*img.pixel_axes())
        outside = X**2 + Y**2 > 1.0
        assert np.all(img.pixels[outside] == 0.0)

    def test_additive_overlap(self):
        inner = Ellipse((0.0, 0.0), (0.2, 0.2), 0.0, 0.5)
        img = rasterize(Phantom((UNIT_DISK, inner)), ImageGrid(32, 32))
        assert img.pixels[16, 16] == pytest.approx(1.5)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        p = shepp_logan()
        path = tmp_path / "sl.txt"
        save_phantom(p, path)
        q = load_phantom(path)
        assert len(q.ellipses) == len(p.ellipses)
        for e1, e2 in zip(p.ellipses, q.ellipses):
            assert e1.center == e2.center
            assert e1.semi_axes == e2.semi_axes
            assert e1.rotation == pytest.approx(e2.rotation, abs=1e-15)
            assert e1.intensity == e2.intensity

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0.5 0.5 0\n")
        with pytest.raises(ParseError, match="6 columns"):
            load_phantom(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0.5 x 0 1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_phantom(path)

    @pytest.mark.parametrize("line", ["0 0 nan 0.5 0 1", "0 0 0.5 0.5 0 inf",
                                      "-inf 0 0.5 0.5 0 1"])
    def test_non_finite(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0.5 0.5 0 1\n" + line + "\n")
        with pytest.raises(ParseError, match="line 2: non-finite column"):
            load_phantom(path)

    @pytest.mark.parametrize("line, reason", [
        ("0 0 -0.5 0.5 0 1", r"semi-axes must be positive, got \(-0.5, 0.5\)"),
        ("0.6 0 0.5 0.5 0 1", "ellipse is not contained in the closed unit disk"),
    ], ids=["negative-axis", "outside-disk"])
    def test_rejected_ellipse_names_line(self, tmp_path, line, reason):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0.5 0.5 0 1\n" + line + "\n")
        with pytest.raises(ParseError, match=f"bad.txt: line 2: {reason}"):
            load_phantom(path)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# \xff in a comment is ignored\n0 0 0.5 0.5 0 1\xff\n")
        with pytest.raises(ParseError, match="line 2: non-numeric column"):
            load_phantom(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# just a comment\n")
        with pytest.raises(ParseError, match="no ellipses"):
            load_phantom(path)
