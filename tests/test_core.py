import math
from datetime import datetime
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdfkit.core import (
    Calibration,
    GdfTime,
    GdfType,
    IMPEDANCE_UNDEFINED,
    TIME_RESOLUTION_S,
    UNIX_EPOCH_DAY,
    checked_cast,
    impedance_from_digval,
    impedance_to_digval,
    is_known_type,
    type_info,
    type_size,
)
from gdfkit.errors import DomainError

EPOCH_RAW = UNIX_EPOCH_DAY << 32


class TestGdfTime:
    def test_epoch_anchor_exact(self):
        assert GdfTime.from_unix(0.0).raw == EPOCH_RAW

    def test_half_day_exact(self):
        t = GdfTime.from_unix(43200.0)
        assert t.raw == EPOCH_RAW + (1 << 31)
        assert t.day_fraction == 1 << 31

    def test_one_second_offset(self):
        # Independent oracle: exact rational evaluation of the fraction field.
        expected = round(Fraction(1, 86400) * (1 << 32))
        t = GdfTime.from_unix(1.0)
        assert t.raw - EPOCH_RAW == expected == 49710

    def test_to_unix_anchor(self):
        assert GdfTime(EPOCH_RAW).to_unix() == 0.0
        assert GdfTime(EPOCH_RAW + (1 << 31)).to_unix() == 43200.0

    def test_unset_is_not_a_time(self):
        t = GdfTime(0)
        assert not t.is_set
        with pytest.raises(DomainError):
            t.to_unix()

    def test_negative_day_count_rejected(self):
        with pytest.raises(DomainError):
            GdfTime.from_unix(-(UNIX_EPOCH_DAY + 1) * 86400.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            GdfTime.from_unix(math.nan)
        with pytest.raises(DomainError):
            GdfTime.from_unix(math.inf)

    @given(st.floats(min_value=-719529 * 86400.0 + 86400,
                     max_value=(3652424 - 719529) * 86400.0))
    def test_round_trip_within_resolution(self, seconds):
        err = abs(GdfTime.from_unix(seconds).to_unix() - seconds)
        assert err <= TIME_RESOLUTION_S

    def test_datetime_anchor(self):
        t = GdfTime.from_datetime(datetime(1970, 1, 1))
        assert t.raw == EPOCH_RAW
        assert t.to_datetime() == datetime(1970, 1, 1)

    @given(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)))
    def test_datetime_round_trip(self, dt):
        back = GdfTime.from_datetime(dt).to_datetime()
        assert abs((back - dt).total_seconds()) <= TIME_RESOLUTION_S

    def test_shift_days(self):
        t = GdfTime.from_datetime(datetime(2000, 3, 1))
        assert t.shift_days(365).to_datetime() == datetime(2001, 3, 1)
        assert t.shift_days(-30).to_datetime() == datetime(2000, 1, 31)

    def test_isoformat_unset(self):
        assert GdfTime(0).isoformat() == "unset"

    @pytest.mark.parametrize("raw", [0x37BB4A00000000, 2**64 - 1, 366 << 32])
    def test_outside_datetime_range(self, raw):
        # past 9999-12-31, the largest raw value, and the day before year 1
        t = GdfTime(raw)
        with pytest.raises(DomainError):
            t.to_datetime()
        assert t.isoformat() == f"day={t.days}+{t.day_fraction}/2^32"


class TestGdfType:
    @pytest.mark.parametrize("code,size", [
        (GdfType.INT8, 1), (GdfType.UINT8, 1),
        (GdfType.INT16, 2), (GdfType.UINT16, 2),
        (GdfType.INT32, 4), (GdfType.UINT32, 4),
        (GdfType.INT64, 8), (GdfType.UINT64, 8),
        (GdfType.FLOAT32, 4), (GdfType.FLOAT64, 8), (GdfType.FLOAT128, 16),
        (GdfType.INT24, 3), (GdfType.UINT24, 3),
    ])
    def test_sizes(self, code, size):
        assert type_size(code) == size

    def test_int24_range(self):
        info = type_info(GdfType.INT24)
        assert (info.min, info.max) == (-8_388_608, 8_388_607)
        info = type_info(GdfType.UINT24)
        assert (info.min, info.max) == (0, 16_777_215)

    def test_unknown_codes_rejected(self):
        for code in (0, 9, 15, 19, 100, 278, 280, 534, 536, 1000):
            assert not is_known_type(code)
            with pytest.raises(DomainError):
                type_size(code)

    def test_float128_is_opaque(self):
        info = type_info(GdfType.FLOAT128)
        assert info.kind == "opaque"
        assert info.dtype is None


class TestCalibration:
    def test_endpoints_exact(self):
        cal = Calibration(phys_min=0.1, phys_max=0.3, dig_min=-7.0, dig_max=3.0)
        assert cal.scale(-7.0) == 0.1
        assert cal.scale(3.0) == 0.3

    def test_out_of_range_is_nan(self):
        cal = Calibration(phys_min=0.0, phys_max=1.0, dig_min=0.0, dig_max=100.0)
        assert math.isnan(cal.scale(101))
        assert math.isnan(cal.scale(-1))

    def test_degenerate_rejected(self):
        cal = Calibration(dig_min=5.0, dig_max=5.0)
        with pytest.raises(DomainError):
            cal.scale(5.0)

    def test_midpoint(self):
        cal = Calibration(phys_min=-10.0, phys_max=10.0, dig_min=0.0, dig_max=4.0)
        assert cal.scale(2.0) == pytest.approx(0.0)

    @given(
        st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
        st.floats(-1e5, 1e5), st.floats(1e-3, 1e5),
    )
    def test_affine_and_monotone(self, pmin, span, dmin, dspan):
        cal = Calibration(pmin, pmin + abs(span) + 1.0, dmin, dmin + dspan)
        xs = np.linspace(cal.dig_min, cal.dig_max, 9)
        ys = cal.scale_array(xs)
        assert np.all(np.diff(ys) >= 0)
        # Affine: second differences vanish (up to float noise).
        d2 = np.diff(ys, 2)
        assert np.all(np.abs(d2) <= 1e-6 * (abs(ys).max() + 1))

    def test_scale_array_matches_scalar(self):
        cal = Calibration(phys_min=-1.0, phys_max=1.0, dig_min=-100.0, dig_max=100.0)
        xs = np.array([-101, -100, -1, 0, 100, 101], dtype=np.int32)
        out = cal.scale_array(xs)
        for x, y in zip(xs, out):
            expected = cal.scale(float(x))
            assert (math.isnan(y) and math.isnan(expected)) or y == expected

    def test_scale_array_float32_signalling_nan(self):
        """The float64 cast of a float32 signalling NaN raised a RuntimeWarning."""
        cal = Calibration(phys_min=-1.0, phys_max=1.0, dig_min=-100.0, dig_max=100.0)
        raw = np.array([0x7F800001, 0x42C80000, 0xFFC00001], np.uint32).view(np.float32)
        out = cal.scale_array(raw)
        assert out.dtype == np.float64
        assert [math.isnan(v) for v in out.tolist()] == [True, False, True]
        assert out[1] == 1.0

    def test_digital_inverse(self):
        cal = Calibration(phys_min=0.0, phys_max=5.0, dig_min=-200.0, dig_max=200.0)
        for value in (0.0, 1.25, 5.0):
            assert cal.scale(cal.digital(value)) == pytest.approx(value)


class TestImpedance:
    def test_undefined_sentinel(self):
        assert impedance_to_digval(None) == IMPEDANCE_UNDEFINED
        assert impedance_to_digval(math.nan) == IMPEDANCE_UNDEFINED
        assert impedance_from_digval(255) is None

    def test_exact_power_of_two(self):
        assert impedance_to_digval(256.0) == 64
        assert impedance_from_digval(64) == 256.0

    def test_10k_against_exhaustive_oracle(self):
        # 106 must minimise |8*log2(z) - d| over all byte values 0..254.
        target = 8 * math.log2(10000.0)
        best = min(range(255), key=lambda d: abs(target - d))
        assert best == 106
        assert impedance_to_digval(10000.0) == 106

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            impedance_to_digval(0.0)
        with pytest.raises(DomainError):
            impedance_to_digval(-5.0)

    def test_relative_error_bound(self):
        zs = 2.0 ** np.linspace(0.0, 254 / 8, 20001)
        for z in zs:
            back = impedance_from_digval(impedance_to_digval(float(z)))
            assert back is not None
            assert abs(back - z) / z <= 0.05

    def test_small_values_clamp_to_zero(self):
        assert impedance_to_digval(0.5) == 0
        assert impedance_from_digval(0) == 1.0

    def test_oversize_becomes_undefined(self):
        assert impedance_to_digval(1e12) == IMPEDANCE_UNDEFINED


class TestCheckedCast:
    @pytest.mark.parametrize("values, dtype, want", [
        ([1, 2], "<u2", [1, 2]),
        ([5.0, 6.0], "<u4", [5, 6]),
        ([2**63 + 1, 5], "<u8", [2**63 + 1, 5]),  # numpy alone builds float64
        ([(1.5, 2.0, 3.0)], "<f4", [[1.5, 2.0, 3.0]]),
        ([math.nan, math.inf], "<f4", [math.nan, math.inf]),
        (-1, "<i8", -1),
        # ints numpy builds as objects; a float64 that rounds down to the largest float32
        ([10**20, -(10**20)], "<f4", [1.0000000200408773e+20, -1.0000000200408773e+20]),
        ([2.0 ** 128 - 2.0 ** 104 + 2.0 ** 102], "<f4", [3.4028234663852886e+38]),
    ])
    def test_exact_values_pass(self, values, dtype, want):
        got = checked_cast(values, dtype, "x").tolist()
        assert str(got) == str(want)

    @pytest.mark.parametrize("values, dtype, message", [
        ([1, 70000], "<u2", "x[1] cannot hold 70000 (uint16)"),
        ([2**62 + 1, 0.5], "<i8", "x[1] cannot hold 0.5 (int64)"),
        ([1 << 64], "<u4", "x[0] cannot hold 18446744073709551616 (uint32)"),
        ([0.0, 1e300], "<f4", "x[1] cannot hold 1e+300 (float32)"),
        (["1.5"], "<f8", "x[0] cannot hold '1.5' (float64)"),
        ([None], "<f8", "x[0] cannot hold None (float64)"),
        (np.array([-1, 5]), "<u4", "x[0] cannot hold -1 (uint32)"),
        ([(1.0, 2.0, 3.0), (1.0, 1e300, 0.0)], "<f4", "x[1] cannot hold (1.0, 1e+300, 0.0) (float32)"),
        (np.array([[1.0, 2.0], [0.5, 3.0]]), "<i4", "x[1] cannot hold [0.5, 3.0] (int32)"),
        (256, "u1", "x cannot hold 256 (uint8)"),
        ([1, 10**40], "<f4", f"x[1] cannot hold {10**40} (float32)"),
        # numpy truncates the object to 1; naming it raised AttributeError
        (np.array([1.5], object), "<i2", "x[0] cannot hold 1.5 (int16)"),
    ])
    def test_bad_value_named(self, values, dtype, message):
        label = "x" if np.ndim(values) == 0 else "x[{}]"
        with pytest.raises(DomainError) as exc:
            checked_cast(values, dtype, label)
        assert str(exc.value) == message
