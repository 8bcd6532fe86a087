"""Scalar building blocks shared by every codec layer.

Covers the 64-bit binary timestamp, the sample data-type registry, linear
calibration between digital and physical values, and the one-byte electrode
impedance encoding kept for file versions before 2.19.

Everything here is an immutable value type or a pure function; sharing across
threads is safe.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import IntEnum
from fractions import Fraction

import numpy as np

from .errors import DomainError

#: Day count of 1970-01-01 in the timestamp's days-since-1-Jan-0000 convention.
UNIX_EPOCH_DAY = 719529

_DAY = 1 << 32  # one day in raw timestamp units
_EPOCH_RAW = UNIX_EPOCH_DAY << 32
_ORDINAL_OFFSET = 366  # datetime.date.toordinal() -> day count
_US_PER_DAY = 86_400_000_000

#: Resolution of the timestamp's day-fraction field, about 20.1 microseconds.
TIME_RESOLUTION_S = 86400 / _DAY


def _div_round(num: int, den: int) -> int:
    """Integer division rounded to nearest, halves away from the floor."""
    q, r = divmod(num, den)
    return q + (1 if 2 * r >= den else 0)


@dataclass(frozen=True)
class GdfTime:
    """64-bit timestamp: day count since 1 Jan 0000 in the high 32 bits
    (1970-01-01 = day 719529) and the fraction of that day in units of
    2**-32 day in the low 32 bits.

    ``raw == 0`` is the on-disk convention for "unknown / not set".
    """

    raw: int = 0

    def __post_init__(self):
        if not 0 <= self.raw < 1 << 64:
            raise DomainError(f"timestamp raw value {self.raw} outside uint64")

    @property
    def is_set(self) -> bool:
        return self.raw != 0

    @property
    def days(self) -> int:
        return self.raw >> 32

    @property
    def day_fraction(self) -> int:
        return self.raw & 0xFFFFFFFF

    @classmethod
    def from_unix(cls, seconds: float) -> "GdfTime":
        """Convert seconds since 1970-01-01T00:00 to a timestamp.

        The conversion is carried out in exact integer arithmetic and rounded
        to the nearest representable instant, so the round trip through
        :meth:`to_unix` is accurate to one unit of the day-fraction field
        (:data:`TIME_RESOLUTION_S`) for any instant in years 0..9999.
        """
        if isinstance(seconds, float) and not math.isfinite(seconds):
            raise DomainError("seconds must be finite")
        num, den = seconds.as_integer_ratio()
        raw = _EPOCH_RAW + _div_round(num << 32, den * 86400)
        if raw <= 0 or raw >= 1 << 64:
            raise DomainError(f"instant {seconds} s is outside the representable day range")
        return cls(raw)

    def to_unix(self) -> float:
        """Seconds since 1970-01-01T00:00, correctly rounded to a float."""
        if not self.is_set:
            raise DomainError("timestamp is unset")
        return float(Fraction((self.raw - _EPOCH_RAW) * 86400, _DAY))

    @classmethod
    def from_datetime(cls, dt: datetime) -> "GdfTime":
        """Build from a naive datetime (proleptic Gregorian calendar)."""
        days = dt.toordinal() + _ORDINAL_OFFSET
        micros = ((dt.hour * 60 + dt.minute) * 60 + dt.second) * 10**6 + dt.microsecond
        return cls((days << 32) + _div_round(micros << 32, _US_PER_DAY))

    def to_datetime(self) -> datetime:
        """Naive datetime, rounded to microseconds. Requires years 1..9999."""
        if not self.is_set:
            raise DomainError("timestamp is unset")
        try:
            return datetime.fromordinal(self.days - _ORDINAL_OFFSET) + timedelta(
                microseconds=_div_round(self.day_fraction * _US_PER_DAY, _DAY))
        except (ValueError, OverflowError):
            raise DomainError("timestamp lies outside years 1..9999") from None

    def shift_days(self, days: int) -> "GdfTime":
        """Return a copy moved by a whole number of days."""
        raw = self.raw + days * _DAY
        if not 0 < raw < 1 << 64:
            raise DomainError(f"shift by {days} days leaves the representable range")
        return GdfTime(raw)

    def isoformat(self) -> str:
        """Human-readable rendering; 'unset' when the raw value is zero."""
        if not self.is_set:
            return "unset"
        try:
            return self.to_datetime().isoformat()
        except DomainError:
            return f"day={self.days}+{self.day_fraction}/2^32"


class GdfType(IntEnum):
    """Sample data-type codes as stored in the channel header."""

    INT8 = 1
    UINT8 = 2
    INT16 = 3
    UINT16 = 4
    INT32 = 5
    UINT32 = 6
    INT64 = 7
    UINT64 = 8
    FLOAT32 = 16
    FLOAT64 = 17
    FLOAT128 = 18
    INT24 = 279
    UINT24 = 535


@dataclass(frozen=True)
class TypeInfo:
    """Static properties of one sample data type.

    ``dtype`` is the numpy container used for in-memory samples; the 24-bit
    integers use a 32-bit container, and the 16-byte float has no numeric
    container at all (``kind == "opaque"``, samples are kept as raw bytes).
    """

    name: str
    size: int
    kind: str  # "int", "float" or "opaque"
    min: int | None = None
    max: int | None = None
    dtype: np.dtype | None = None


_TYPES: dict[int, TypeInfo] = {
    GdfType.INT8: TypeInfo("int8", 1, "int", -(1 << 7), (1 << 7) - 1, np.dtype("<i1")),
    GdfType.UINT8: TypeInfo("uint8", 1, "int", 0, (1 << 8) - 1, np.dtype("<u1")),
    GdfType.INT16: TypeInfo("int16", 2, "int", -(1 << 15), (1 << 15) - 1, np.dtype("<i2")),
    GdfType.UINT16: TypeInfo("uint16", 2, "int", 0, (1 << 16) - 1, np.dtype("<u2")),
    GdfType.INT32: TypeInfo("int32", 4, "int", -(1 << 31), (1 << 31) - 1, np.dtype("<i4")),
    GdfType.UINT32: TypeInfo("uint32", 4, "int", 0, (1 << 32) - 1, np.dtype("<u4")),
    GdfType.INT64: TypeInfo("int64", 8, "int", -(1 << 63), (1 << 63) - 1, np.dtype("<i8")),
    GdfType.UINT64: TypeInfo("uint64", 8, "int", 0, (1 << 64) - 1, np.dtype("<u8")),
    GdfType.FLOAT32: TypeInfo("float32", 4, "float", dtype=np.dtype("<f4")),
    GdfType.FLOAT64: TypeInfo("float64", 8, "float", dtype=np.dtype("<f8")),
    GdfType.FLOAT128: TypeInfo("float128", 16, "opaque"),
    GdfType.INT24: TypeInfo("int24", 3, "int", -(1 << 23), (1 << 23) - 1, np.dtype("<i4")),
    GdfType.UINT24: TypeInfo("uint24", 3, "int", 0, (1 << 24) - 1, np.dtype("<u4")),
}


def type_info(code: int) -> TypeInfo:
    try:
        return _TYPES[code]
    except KeyError:
        raise DomainError(f"unsupported data type code {code}", rule="channel.type_unknown") from None


def type_size(code: int) -> int:
    """Bytes one sample of this type occupies on disk."""
    return type_info(code).size


def is_known_type(code: int) -> bool:
    return code in _TYPES


@dataclass(frozen=True)
class Calibration:
    """Linear mapping between stored (digital) and physical sample values.

    Samples outside the closed interval [dig_min, dig_max] mark invalid
    measurements (overflow, underflow or sensor-off) and scale to NaN.
    """

    phys_min: float = -1.0
    phys_max: float = 1.0
    dig_min: float = -32768.0
    dig_max: float = 32767.0

    @property
    def is_degenerate(self) -> bool:
        return self.dig_min == self.dig_max

    def scale(self, raw: float) -> float:
        """Digital -> physical. Exact at both digital endpoints."""
        if self.is_degenerate:
            raise DomainError("degenerate calibration: dig_min == dig_max")
        if not self.dig_min <= raw <= self.dig_max:
            return math.nan
        w = (raw - self.dig_min) / (self.dig_max - self.dig_min)
        return self.phys_min * (1.0 - w) + self.phys_max * w

    def scale_array(self, raw: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`scale`; returns float64 with NaN where invalid."""
        if self.is_degenerate:
            raise DomainError("degenerate calibration: dig_min == dig_max")
        with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf, as scale gives them
            x = np.asarray(raw, dtype=np.float64)  # a float32 signalling NaN is invalid
            w = (x - self.dig_min) / (self.dig_max - self.dig_min)
            out = self.phys_min * (1.0 - w) + self.phys_max * w
            invalid = ~((x >= self.dig_min) & (x <= self.dig_max))
        out[invalid] = np.nan
        return out

    def digital(self, physical: float) -> float:
        """Physical -> digital (unrounded); inverse of :meth:`scale`."""
        if self.phys_max == self.phys_min:
            return self.dig_min
        w = (physical - self.phys_min) / (self.phys_max - self.phys_min)
        return self.dig_min * (1.0 - w) + self.dig_max * w


#: Sentinel digital value for "impedance undefined or out of range".
IMPEDANCE_UNDEFINED = 255


def impedance_to_digval(z_ohm: float | None) -> int:
    """Compress an electrode impedance into the legacy one-byte encoding.

    Steps are a factor 2**(1/8) apart, so the round trip stays within a 5 %
    relative error. None (or NaN) means undefined and maps to 255, as do
    impedances too large for the 254-step scale (about 3.9 GOhm and up).
    """
    if z_ohm is None or (isinstance(z_ohm, float) and math.isnan(z_ohm)):
        return IMPEDANCE_UNDEFINED
    if z_ohm <= 0:
        raise DomainError(f"impedance must be positive, got {z_ohm}")
    digval = round(8 * math.log2(z_ohm))
    if digval < 0:
        return 0
    if digval > 254:
        return IMPEDANCE_UNDEFINED
    return digval


def impedance_from_digval(digval: int) -> float | None:
    """Expand the one-byte impedance encoding; None when undefined."""
    if not 0 <= digval <= 255:
        raise DomainError(f"impedance byte {digval} outside 0..255")
    if digval == IMPEDANCE_UNDEFINED:
        return None
    return 2.0 ** (digval / 8)


def checked_cast(values, dtype, label: str) -> np.ndarray:
    """``values`` (a scalar, a sequence or an array) as ``dtype``.

    A value the dtype cannot hold (out of range, fractional for an integer
    dtype, finite but beyond a float dtype's range, not a number) raises
    DomainError instead of wrapping or rounding. ``label`` names the values
    in the message; a ``{}`` in it becomes the index of the first bad one.
    """
    dtype = np.dtype(dtype)
    scalar = False
    try:
        column = np.asarray(values)
        scalar = column.ndim == 0
        if column.dtype == dtype:
            return column
        if dtype.kind in "iu" and column.dtype.kind in "fO" and not isinstance(values, np.ndarray):
            column = np.asarray(values, object)  # float64 would round an int beyond int64
        if dtype.kind == "f" and column.dtype.kind == "O":  # ints beyond int64 are objects
            column = np.array([float(v) if type(v) is int else v for v in column.flat]
                              ).reshape(column.shape)
        if column.dtype.kind in "biufO":  # not text, complex or dates
            with np.errstate(invalid="ignore", over="ignore"):  # NaN, or beyond the dtype
                cast = column.astype(dtype)
            lost = np.isinf(cast) & np.isfinite(column) if dtype.kind == "f" else cast != column
            if not np.count_nonzero(lost):
                return cast
            if not scalar:  # the first row with a lost value
                i = np.argwhere(lost)[0][0]
                value = values.tolist()[i] if isinstance(values, np.ndarray) else values[i]
                raise DomainError(f"{label.format(i)} cannot hold {value!r} ({dtype})")
    except (TypeError, ValueError, OverflowError):  # not a number, or uneven rows
        pass
    if scalar:
        raise DomainError(f"{label} cannot hold {values!r} ({dtype})")
    for i, value in enumerate(values.tolist() if isinstance(values, np.ndarray) else values):
        try:  # a value numpy cannot cast: the first item that fails alone
            checked_cast(value, dtype, label)
        except DomainError:
            raise DomainError(f"{label.format(i)} cannot hold {value!r} ({dtype})") from None
    raise DomainError(f"{label.format('')}: values of uneven shape")


def float32_exact(value: float | None) -> float | None:
    """Round a value to float32 precision (fields stored as float32 on disk);
    a finite value beyond the float32 range raises DomainError."""
    if value is None:
        return None
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        raise DomainError(f"{value} is outside the float32 range") from None
