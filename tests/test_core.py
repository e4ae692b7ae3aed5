import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modradon.core import modulo_fold, sup_norm
from modradon.errors import DomainError
from oracles import anti_diff, anti_diff_bilateral, round_to_2lambda


class TestModuloFold:
    def test_identity_below_threshold(self):
        assert modulo_fold(np.array([0.3]), 1.0).tolist() == [0.3]

    def test_threshold_maps_to_negative_edge(self):
        for lam in (1.0, 0.37, 2.5e-4):
            assert modulo_fold(np.array([lam]), lam).tolist() == [-lam]

    def test_direct_values(self):
        assert modulo_fold(np.array([2.5, -2.5]), 1.0).tolist() == [0.5, -0.5]

    def test_array_input(self):
        out = modulo_fold(np.array([[0.3, 2.5, -2.5]]), 1.0)
        np.testing.assert_array_equal(out, [[0.3, 0.5, -0.5]])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            modulo_fold(np.array([np.inf]), 1.0)
        with pytest.raises(DomainError):
            modulo_fold(np.array([0.0, np.nan]), 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("where", [0, 3, -1], ids=["first", "middle", "last"])
    def test_nonfinite_array_rejected_before_any_arithmetic(self, bad, where):
        # an inf reaching the fold's subtraction would warn "invalid value"
        values = np.linspace(-2.0, 2.0, 7)
        values[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^modulo_fold requires finite input$"):
                modulo_fold(values, 0.25)

    def test_bad_threshold(self):
        for lam in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError,
                               match=rf"^threshold must be a positive finite real, got {lam}$"):
                modulo_fold(np.array([0.3]), lam)

    @given(
        t=st.floats(-1e6, 1e6, allow_nan=False),
        lam=st.floats(1e-4, 1e3, allow_nan=False),
    )
    @settings(max_examples=300)
    @example(t=-33.0, lam=1 / 3)  # rounds a few ulps below -lam unless pinned
    def test_decomposition_property(self, t, lam):
        [y] = modulo_fold(np.array([t]), lam)
        assert -lam <= y < lam
        resid = t - y
        grid = 2.0 * lam * np.round(resid / (2.0 * lam))
        assert abs(resid - grid) <= 1e-12 * max(1.0, abs(t))


class TestSupNorm:
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=300)
    @example([-0.0, -0.0])
    @example([0.0, -0.0])
    def test_equals_max_abs_bit_for_bit(self, values):
        a = np.array(values)
        got = sup_norm(a.reshape(1, -1))
        want = np.max(np.abs(a))
        assert np.float64(got).view(np.uint64) == want.view(np.uint64)
        if 0.0 < got < np.inf:
            # normalising by it gives a sup-norm of exactly 1.0
            assert sup_norm(a / got) == 1.0

    def test_nan_propagates(self):
        assert np.isnan(sup_norm(np.array([1.0, np.nan, -2.0])))


# the running-sum references of the general-mode oracle (tests/oracles.py)
class TestAntiDiff:
    def test_cumulative_sums(self):
        out = anti_diff(np.array([1.0, 3.0, 5.0]))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [0.0, 1.0, 4.0, 9.0])

    def test_zeros(self):
        out = anti_diff(np.zeros(6))
        np.testing.assert_array_equal(out, np.zeros(7))

    def test_keeps_integer_dtype(self):
        big = 2**53 + 1  # not representable in float64
        out = anti_diff(np.array([big, -1, 2], dtype=np.int64))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, np.array([0, big, big - 1, big + 1]))

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=30))
    def test_inverts_difference_up_to_base_value(self, vals):
        a = np.array(vals, dtype=float)
        rt = anti_diff(np.diff(a))
        np.testing.assert_array_equal(rt, a - a[0])


class TestAntiDiffBilateral:
    def test_ones(self):
        out = anti_diff_bilateral(np.array([1.0, 1.0, 1.0, 1.0]), -2)
        np.testing.assert_array_equal(out, [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_zeros(self):
        out = anti_diff_bilateral(np.zeros(7), -3)
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_inverts_difference_up_to_value_at_zero(self):
        rng = np.random.default_rng(11)
        base, a = -6, rng.normal(size=15)
        rt = anti_diff_bilateral(np.diff(a), base)
        at0 = a[-base]
        np.testing.assert_allclose(rt, a - at0, atol=1e-12)

    def test_rows_sum_along_last_axis(self):
        # a block of int64 rows sums like each row on its own
        rng = np.random.default_rng(12)
        a = rng.integers(-2**40, 2**40, size=(5, 17))
        out = anti_diff_bilateral(a, -6)
        assert out.dtype == np.int64
        for row, got in zip(a, out):
            np.testing.assert_array_equal(got, anti_diff_bilateral(row, -6))

    def test_requires_index_zero(self):
        with pytest.raises(DomainError):
            anti_diff_bilateral(np.array([1.0, 2.0]), 2)
        with pytest.raises(DomainError):
            anti_diff_bilateral(np.array([1.0, 2.0]), -4)


class TestRoundTo2Lambda:
    def test_grid_fixed_points(self):
        for m in (-7, -1, 0, 1, 2, 10):
            assert round_to_2lambda(2 * 0.3 * m, 0.3) == 2 * 0.3 * m

    def test_zero(self):
        assert round_to_2lambda(0.0, 1.0) == 0.0

    def test_interior_value(self):
        lam = 0.4
        assert round_to_2lambda(2.3 * lam, lam) == 2 * lam

    @given(
        x=st.floats(-1e3, 1e3, allow_nan=False),
        lam=st.floats(1e-3, 10.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_idempotent_and_on_grid(self, x, lam):
        y = round_to_2lambda(x, lam)
        m = y / (2 * lam)
        assert abs(m - round(m)) < 1e-9
        assert round_to_2lambda(y, lam) == y
