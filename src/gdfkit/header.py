"""Bit-exact codecs for the fixed header and the per-channel variable header.

The fixed header is 256 bytes; the variable header is 256 bytes per channel,
laid out struct-of-arrays (all labels, then all transducer strings, and so
on). All integers and floats are little-endian.

Fixed text fields are NUL-padded on write; on read both NUL and trailing
space padding are accepted (space padding is reported as an info diagnostic
because re-serialisation normalises it away).
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from operator import attrgetter, itemgetter

import numpy as np

from . import units
from .core import (Calibration, GdfTime, GdfType, _quote, checked_cast, float32_exact,
                   impedance_from_digval, is_known_type, type_info)
from .diagnostics import Diagnostics, sink
from .errors import DomainError, FormatError, StructureError, VersionError

FIXED_HEADER_SIZE = 256
CHANNEL_HEADER_SIZE = 256

#: Version string the writer stamps on new files.
CURRENT_VERSION = "GDF 2.20"

_CANONICAL_NAN32 = np.array(math.nan, "<f4").view("<u4")  # the bits the writers give NaN


class TriState(IntEnum):
    """Two-bit yes/no/unknown fields (value 3 is reserved but preserved)."""

    UNKNOWN = 0
    NO = 1
    YES = 2
    RESERVED = 3


class Gender(IntEnum):
    UNKNOWN = 0
    MALE = 1
    FEMALE = 2
    RESERVED = 3


class Handedness(IntEnum):
    UNKNOWN = 0
    RIGHT = 1
    LEFT = 2
    EQUAL = 3


class VisualImpairment(IntEnum):
    UNKNOWN = 0
    NONE = 1
    IMPAIRED = 2
    CORRECTED = 3


class HeartImpairment(IntEnum):
    UNKNOWN = 0
    NO = 1
    YES = 2
    PACEMAKER = 3


def _two_bit_fields(**fields: int) -> int:
    """Pack four 0..3 values into one byte, the first in bits 0-1."""
    byte = 0
    for shift, (name, value) in zip((0, 2, 4, 6), fields.items()):
        if not 0 <= value <= 3:
            raise DomainError(f"{name} cannot hold {_quote(value)} (two bits, 0..3)")
        byte |= int(value) << shift
    return byte


def pack_demographics(smoking: TriState, alcohol: TriState,
                      drug: TriState, medication: TriState) -> int:
    """Pack the four lifestyle tri-states into one byte (smoking in bits 0-1)."""
    return _two_bit_fields(smoking=smoking, alcohol_abuse=alcohol, drug_abuse=drug,
                           medication=medication)


def unpack_demographics(value: int) -> tuple[TriState, TriState, TriState, TriState]:
    return (TriState(value & 3), TriState((value >> 2) & 3),
            TriState((value >> 4) & 3), TriState((value >> 6) & 3))


def pack_physio(gender: Gender, handedness: Handedness,
                visual: VisualImpairment, heart: HeartImpairment) -> int:
    """Pack gender (bits 0-1), handedness, visual and heart impairment."""
    return _two_bit_fields(gender=gender, handedness=handedness, visual_impairment=visual,
                           heart_impairment=heart)


def unpack_physio(value: int) -> tuple[Gender, Handedness, VisualImpairment, HeartImpairment]:
    return (Gender(value & 3), Handedness((value >> 2) & 3),
            VisualImpairment((value >> 4) & 3), HeartImpairment((value >> 6) & 3))


def _triple(values, name: str) -> tuple:
    """An (x, y, z) field as a tuple of 3, or DomainError naming ``name``."""
    try:
        values = tuple(values)
    except TypeError:  # a scalar or None
        raise DomainError(f"{name} needs 3 values, got {_quote(values)}") from None
    if len(values) != 3:
        raise DomainError(f"{name} needs 3 values, got {len(values)}")
    return values


def _float32_triple(values, name: str) -> tuple[float, float, float]:
    """An (x, y, z) field rounded to float32 precision."""
    return tuple(float32_exact(v, name) for v in _triple(values, name))


@dataclass(frozen=True)
class Location:
    """Place of recording, RFC1876-style (angles in 1/3 600 000 degree)."""

    vertical_precision: int = 0
    horizontal_precision: int = 0
    size: int = 0
    latitude: int = 0
    longitude: int = 0
    altitude_cm: int = 0

    @property
    def latitude_degrees(self) -> float:
        return self.latitude / 3_600_000

    @property
    def longitude_degrees(self) -> float:
        return self.longitude / 3_600_000


def parse_location(chunk: bytes) -> Location | None:
    """Decode the 16 location bytes; absent when the version byte is nonzero."""
    if len(chunk) != 16:
        raise StructureError(f"location field needs 16 bytes, got {len(chunk)}")
    vertical, horizontal, size, version, lat, lon, alt = np.ndarray((), _LOCATION, chunk).item()
    if version != 0:  # RFC1876 version byte; nonzero reclaims the area for text
        return None
    return Location(vertical, horizontal, size, lat, lon, alt)


@dataclass(frozen=True)
class PatientInfo:
    """Subject description spread over several fixed-header fields.

    ``pid`` is the raw 66-byte identification text: subfields (identification
    code, name, classification) separated by single spaces, 'X' for an empty
    subfield. Weight/height use 0 for unknown and 255 for "more than 254".
    """

    pid: str = "X X X"
    smoking: TriState = TriState.UNKNOWN
    alcohol_abuse: TriState = TriState.UNKNOWN
    drug_abuse: TriState = TriState.UNKNOWN
    medication: TriState = TriState.UNKNOWN
    weight_kg: int = 0
    height_cm: int = 0
    gender: Gender = Gender.UNKNOWN
    handedness: Handedness = Handedness.UNKNOWN
    visual_impairment: VisualImpairment = VisualImpairment.UNKNOWN
    heart_impairment: HeartImpairment = HeartImpairment.UNKNOWN
    birthday: GdfTime = field(default_factory=GdfTime)
    icd_code: str = ""
    headsize_mm: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        _triple(self.headsize_mm, "headsize_mm")

    def pid_subfields(self) -> tuple[str, str, str]:
        """(identification code, name, classification), 'X' when missing."""
        parts = self.pid.split(" ")
        parts += ["X"] * (3 - len(parts))
        return (parts[0] or "X", parts[1] or "X", parts[2] or "X")


@dataclass(frozen=True)
class RecordingInfo:
    """Study identification, start time, place and fixed electrode geometry."""

    rid: str = ""
    location: Location | None = field(default_factory=Location)
    start_time: GdfTime = field(default_factory=GdfTime)
    equipment_id: int = 0
    reference_position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    ground_position: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("reference_position", "ground_position"):
            object.__setattr__(self, name, _float32_triple(getattr(self, name), name))


@dataclass(frozen=True)
class FixedHeader:
    """Content of the 256-byte fixed header.

    ``header_blocks`` counts 256-byte blocks including this one and must be at
    least ``ns + 1``; 0 lets the file writer pick the smallest layout that
    fits the optional header. ``n_records == -1`` means "not yet known"
    (ongoing recording). The record duration is the rational
    ``duration_num / duration_den`` seconds.
    """

    version: str = CURRENT_VERSION
    patient: PatientInfo = field(default_factory=PatientInfo)
    recording: RecordingInfo = field(default_factory=RecordingInfo)
    header_blocks: int = 0
    n_records: int = -1
    duration_num: int = 1
    duration_den: int = 1
    ns: int = 0

    @property
    def version_minor(self) -> int:
        m = re.match(r"GDF (\d+)\.(\d+)", self.version)
        if not m:
            return 0
        digits = m.group(2)
        return int(digits) * 10 if len(digits) == 1 else int(digits)


@dataclass(frozen=True)
class ChannelInfo:
    """One channel's variable-header record.

    ``phys_dim_ascii`` and ``prefilter`` are the obsolete free-text twins of
    the structured fields; None lets the writer derive them, an explicit
    string (including "") is written verbatim. Filter values use None for
    unknown (stored as NaN); a negative notch means "notch off".
    ``samples_per_record == 0`` marks a sparse (non-equidistantly sampled)
    channel whose samples live in the event table. ``sensor_info`` is the raw
    20-byte sensor-specific area; its first four bytes hold a float32 whose
    meaning depends on the unit (see :func:`sensor_readings`).
    """

    label: str = ""
    transducer: str = ""
    phys_dim_ascii: str | None = None
    phys_dim: int = 0
    cal: Calibration = field(default_factory=Calibration)
    prefilter: str | None = None
    lowpass_hz: float | None = None
    highpass_hz: float | None = None
    notch_hz: float | None = None
    samples_per_record: int = 1
    gdf_type: GdfType = GdfType.INT16
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    sensor_info: bytes = bytes(20)

    def __post_init__(self):
        try:
            object.__setattr__(self, "gdf_type", GdfType(self.gdf_type))
        except ValueError:
            type_info(self.gdf_type)  # raises DomainError (channel.type_unknown)
        for name in ("lowpass_hz", "highpass_hz", "notch_hz"):  # None: unknown
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, float32_exact(value, name))
        object.__setattr__(self, "position", _float32_triple(self.position, "position"))
        if len(self.sensor_info) != 20:
            raise DomainError("sensor_info must be exactly 20 bytes")
        if self.samples_per_record < 0:
            raise DomainError("samples_per_record must be non-negative")

    @property
    def is_sparse(self) -> bool:
        return self.samples_per_record == 0


def sampling_rate(samples_per_record: int, duration_num: int, duration_den: int) -> float:
    """Samples per second of a channel; 0 for a sparse channel."""
    if samples_per_record == 0 or duration_num == 0:
        return 0.0
    return samples_per_record * duration_den / duration_num


def sensor_value_bytes(value: float | None) -> bytes:
    """Build a 20-byte sensor-info area holding one float32 (None -> NaN)."""
    value = math.nan if value is None else float32_exact(value, "sensor value")
    return np.array(value, "<f4").tobytes() + bytes(16)


def sensor_readings(channels: Sequence[ChannelInfo], version_minor: int = 20
                    ) -> tuple[list[float | None], list[float | None]]:
    """Each channel's electrode impedance in Ohm (a voltage channel) and probe
    frequency in Hz (an impedance channel), None where the channel does not
    record one, from columns. Files older than v2.19 store the impedance as a
    one-byte logarithmic code instead of the float32; pass the file's minor
    version to decode those correctly."""
    sensors = channel_column(channels, "sensor_info")
    if version_minor < 19:
        return [impedance_from_digval(s[0]) for s in sensors], [None] * len(sensors)
    values = np.frombuffer(b"".join(s[:4] for s in sensors), "<f4").tolist()
    unit = [code & 0xFFE0 for code in channel_column(channels, "phys_dim")]

    def where(base):
        return [v if u == base and v == v else None for v, u in zip(values, unit)]
    return where(units.VOLT), where(units.OHM)


def render_phys_dim_ascii(code: int) -> str:
    """Default content of the obsolete 6-byte unit text."""
    symbol = units.unit_symbol(code)
    return "" if symbol == "unknown" else symbol[:6]


def render_prefilter(lowpass_hz: float | None, highpass_hz: float | None,
                     notch_hz: float | None) -> str:
    """Default content of the obsolete prefilter text."""
    def fmt(v):
        return "?" if v is None else f"{v:g}Hz"

    notch = "off" if (notch_hz is not None and notch_hz < 0) else fmt(notch_hz)
    return f"LP:{fmt(lowpass_hz)} HP:{fmt(highpass_hz)} NOTCH:{notch}"[:68]


# --- field tables ------------------------------------------------------------
#
# Each section is described once, as (field, numpy dtype) rows in file order.
# Text fields are ``S`` (numpy drops their NUL padding on read). Fields whose
# every byte counts on read (the version, reserved bytes, the location area,
# the sensor area and the recording id, which an absent location extends) are
# raw ``V`` bytes.

_FIXED_FIELDS = (
    ("version", "V8"), ("pid", "S66"), ("reserved1", "V10"),
    ("demographics", "u1"), ("weight", "u1"), ("height", "u1"), ("physio", "u1"),
    ("rid", "V64"), ("location", "V16"), ("start", "<u8"), ("birthday", "<u8"),
    ("header_blocks", "<u2"), ("icd", "S6"), ("equipment", "<u8"),
    ("reserved2", "V6"), ("headsize", "3<u2"), ("reference", "3<f4"),
    ("ground", "3<f4"), ("n_records", "<i8"), ("duration", "2<u4"), ("ns", "<u4"),
)
_FIXED = np.dtype(list(_FIXED_FIELDS))
_FIXED_OFFSETS = {name: offset for name, (_, offset) in _FIXED.fields.items()}

#: The 16 location bytes (RFC1876).
_LOCATION = np.dtype([
    ("vertical_precision", "u1"), ("horizontal_precision", "u1"), ("size", "u1"),
    ("version", "u1"), ("latitude", "<i4"), ("longitude", "<i4"), ("altitude_cm", "<i4"),
])

#: One channel's 256 bytes as (field, dtype, ChannelInfo attribute) rows. The
#: variable header stores them transposed (struct-of-arrays): one record whose
#: fields are ``(ns,)`` columns, each holding a field of every channel.
_CHANNEL_FIELDS = (
    ("label", "S16", "label"), ("transducer", "S80", "transducer"),
    ("unit text", "S6", "phys_dim_ascii"), ("phys_dim", "<u2", "phys_dim"),
    ("phys_min", "<f8", "cal.phys_min"), ("phys_max", "<f8", "cal.phys_max"),
    ("dig_min", "<f8", "cal.dig_min"), ("dig_max", "<f8", "cal.dig_max"),
    ("prefilter", "S68", "prefilter"), ("lowpass", "<f4", "lowpass_hz"),
    ("highpass", "<f4", "highpass_hz"), ("notch", "<f4", "notch_hz"),
    ("samples_per_record", "<u4", "samples_per_record"), ("type", "<u4", "gdf_type"),
    ("position", "3<f4", "position"), ("sensor", "V20", "sensor_info"),
)
# before v2.19 the sensor area holds a 1-byte column and a 19-byte column
_LEGACY_CHANNEL_FIELDS = _CHANNEL_FIELDS[:-1] + (("sensor", "V1", "sensor_info"),
                                                 ("sensor tail", "V19", None))
#: The field that holds each ChannelInfo attribute, in file order.
_FIELD_OF = {attr: name for name, _, attr in _CHANNEL_FIELDS}


@functools.lru_cache
def _variable_header(ns: int, legacy: bool) -> np.dtype:
    """The variable header of ``ns`` channels as one record of columns."""
    fields = _LEGACY_CHANNEL_FIELDS if legacy else _CHANNEL_FIELDS
    return np.dtype([(name, np.dtype(t).base, (ns, *np.dtype(t).shape))
                     for name, t, _ in fields])


# --- field helpers -----------------------------------------------------------

def _read_text(raw: bytes, offset: int, name: str, diags: Diagnostics) -> str:
    head, _, tail = raw.partition(b"\x00")
    if tail.strip(b"\x00"):
        diags.warning("header.text_after_nul",
                      f"{name}: bytes after the NUL terminator are not zero",
                      section="header1", offset=offset)
    text = head.decode("latin-1")
    stripped = text.rstrip(" ")
    if stripped != text:
        diags.info("header.text_space_padded", f"{name}: trailing space padding",
                   section="header1", offset=offset)
    return stripped


def _pack_texts(texts: Sequence[str], size: int, label: str) -> list[bytes]:
    """Encode texts for a ``size``-byte field (numpy pads them with NULs).
    The first that is not latin-1, holds a NUL (a reader ends it there) or is
    too long raises DomainError naming ``label``, whose ``{}`` is its index."""
    try:
        data = [text.encode("latin-1") for text in texts]
        if max(map(len, data), default=0) <= size and b"\x00" not in b"".join(data):
            return data
    except UnicodeEncodeError:
        pass
    for i, text in enumerate(texts):  # find the first bad text
        try:
            encoded = text.encode("latin-1")
        except UnicodeEncodeError:
            raise DomainError(f"{label.format(i)}: text is not latin-1 encodable") from None
        if b"\x00" in encoded:
            raise DomainError(f"{label.format(i)}: text holds a NUL byte, which ends it on read")
        if (n := len(encoded)) > size:
            raise DomainError(f"{label.format(i)}: {n} bytes exceed the {size}-byte field",
                              rule="header.text_overflow")


def _cast(values, dtype: np.dtype, label: str) -> np.ndarray:
    """:func:`checked_cast` for a header number. An integer field takes
    integers only: numpy would store 2.0 as 2, the writers never have."""
    column = np.asarray(values) if dtype.kind in "iu" else None
    if column is not None and column.dtype.kind not in "biu":
        for i, value in enumerate(values if column.ndim else [values]):
            if not hasattr(value, "__index__"):
                raise DomainError(f"{label.format(i)} cannot hold {_quote(value)} ({dtype})")
            checked_cast(value, dtype, label.format(i))  # an earlier bad integer first
    return checked_cast(values if column is None else column, dtype, label)


def _kept(stored, given) -> bool:
    """Whether a record field holds ``given`` as ``stored``: bytes, or the
    same number (an integer field only takes integers)."""
    kind = type(stored)
    if kind is int:
        return stored == given and hasattr(given, "__index__")
    if kind is float:
        return stored == given or stored != stored and given != given
    return kind is bytes or all(map(_kept, stored.tolist(), given))  # bytes, or an array


def _section_bytes(dtype: np.dtype, values: Sequence) -> bytes:
    """One record of ``dtype`` from a value per field, in field order. Bytes
    go in as they are (texts are checked before); a number the field cannot
    hold raises DomainError naming the field."""
    record = np.zeros((), dtype)
    try:  # one assignment, then a check that numpy kept every number as given
        record[()] = tuple(values)
        if all(map(_kept, record.item(), values)):
            return record.tobytes()
    except (OverflowError, TypeError, ValueError):
        pass
    for name, value in zip(dtype.names, values):  # a field at a time, to name the bad one
        record[name] = value if isinstance(value, bytes) else _cast(value, dtype[name].base, name)
    return record.tobytes()


def _check_reserved(raw: bytes, offset: int, diags: Diagnostics) -> None:
    if any(raw):
        diags.warning("header.reserved_nonzero",
                      f"reserved bytes {offset}..{offset + len(raw)} are not zero",
                      section="header1", offset=offset)


def _noncanonical_nan(values: np.ndarray) -> np.ndarray:
    """Mask of the float32 NaNs whose bits writing them back would not reproduce."""
    return np.isnan(values) & (values.view("<u4") != _CANONICAL_NAN32)


def _report_nan(diags: Diagnostics, section: str, offset: int, k: int) -> None:
    """Report the float32 at index ``k`` of values stored from ``offset``."""
    diags.info("header.noncanonical_nan", "NaN payload bits are not the canonical quiet NaN",
               section=section, offset=offset + 4 * k)


def _nan_checked(values: np.ndarray, offset: int, diags: Diagnostics, section: str) -> list:
    """The float32 ``values`` stored from ``offset``, as a list; report each
    NaN whose bits writing it back would not reproduce."""
    for k in np.flatnonzero(_noncanonical_nan(values)).tolist():
        _report_nan(diags, section, offset, k)
    return values.tolist()


# --- fixed header ------------------------------------------------------------

def parse_fixed_header(buf: bytes, diags: Diagnostics | None = None) -> FixedHeader:
    """Decode the 256-byte fixed header.

    Raises :class:`FormatError` for non-GDF input, :class:`VersionError` for
    major versions other than 2, and :class:`StructureError` for inconsistent
    geometry. Recoverable oddities are appended to ``diags``.
    """
    diags = sink(diags)
    if len(buf) != FIXED_HEADER_SIZE:
        raise StructureError(f"fixed header needs {FIXED_HEADER_SIZE} bytes, got {len(buf)}")
    v = dict(zip(_FIXED.names, np.ndarray((), _FIXED, buf).item()))
    at = _FIXED_OFFSETS
    version = v["version"].decode("latin-1")
    if not version.startswith("GDF "):
        raise FormatError(f"not a GDF file (version field {version!r})", rule="header.magic")
    m = re.match(r"GDF (\d+)\.(\d+)", version)
    if not m:
        raise VersionError(f"malformed GDF version field {version!r}", rule="header.version")
    if int(m.group(1)) != 2:
        raise VersionError(f"unsupported GDF major version {m.group(1)}",
                           rule="header.version")

    pid = _read_text(v["pid"], at["pid"], "patient identification", diags)
    _check_reserved(v["reserved1"], at["reserved1"], diags)
    smoking, alcohol, drug, medication = unpack_demographics(v["demographics"])
    if TriState.RESERVED in (smoking, alcohol, drug, medication):
        diags.warning("demographics.reserved_bits",
                      "lifestyle byte uses the reserved 0b11 pattern",
                      section="header1", offset=at["demographics"])
    gender, handedness, visual, heart = unpack_physio(v["physio"])
    if gender is Gender.RESERVED:
        diags.warning("demographics.reserved_bits",
                      "gender bits use the reserved 0b11 pattern",
                      section="header1", offset=at["physio"])

    location = parse_location(v["location"])
    if location is None:
        # the first four location bytes belong to the recording id text
        rid = _read_text(v["rid"] + v["location"][:4], at["rid"],
                         "recording identification", diags)
        if any(v["location"][4:]):
            diags.warning("location.absent_data_nonzero",
                          "location marked absent but coordinate bytes are not zero",
                          section="header1", offset=at["location"] + 4)
    else:
        rid = _read_text(v["rid"], at["rid"], "recording identification", diags)

    icd = _read_text(v["icd"], at["icd"], "ICD classification", diags)
    _check_reserved(v["reserved2"], at["reserved2"], diags)
    reference = _nan_checked(v["reference"], at["reference"], diags, "header1")
    ground = _nan_checked(v["ground"], at["ground"], diags, "header1")
    header_blocks, n_records, ns32 = v["header_blocks"], v["n_records"], v["ns"]

    if ns32 >> 16:
        raise StructureError(f"channel count field 0x{ns32:08x} has its high bits set",
                             rule="header.ns_range", offset=at["ns"])
    if n_records < -1:
        raise StructureError(f"record count {n_records} is invalid",
                             rule="header.nrec_invalid", offset=at["n_records"])
    if header_blocks < ns32 + 1:
        raise StructureError(
            f"header length {header_blocks} blocks is less than NS+1 = {ns32 + 1}",
            rule="header.blocks_too_small", offset=at["header_blocks"])

    duration_num, duration_den = v["duration"].tolist()
    patient = PatientInfo(
        pid=pid, smoking=smoking, alcohol_abuse=alcohol, drug_abuse=drug,
        medication=medication, weight_kg=v["weight"], height_cm=v["height"],
        gender=gender, handedness=handedness, visual_impairment=visual,
        heart_impairment=heart, birthday=GdfTime(v["birthday"]),
        icd_code=icd, headsize_mm=tuple(v["headsize"].tolist()),
    )
    recording = RecordingInfo(
        rid=rid, location=location, start_time=GdfTime(v["start"]),
        equipment_id=v["equipment"], reference_position=reference,
        ground_position=ground,
    )
    return FixedHeader(
        version=version, patient=patient, recording=recording,
        header_blocks=header_blocks, n_records=n_records,
        duration_num=duration_num, duration_den=duration_den, ns=ns32,
    )


def write_fixed_header(h: FixedHeader) -> bytes:
    """Serialise to exactly 256 bytes; reserved regions are zero-filled.

    A ``header_blocks`` of 0 is resolved to the minimum ``ns + 1``; the file
    writers check the layout rules, this only that each value fits its field.
    """
    p, r, loc = h.patient, h.recording, h.recording.location

    def text(name, value, label, spill=0):
        return _pack_texts([value], _FIXED[name].itemsize + spill, label)[0]

    # an absent location lends its first four bytes to the recording id, whose
    # space padding keeps the location's version byte nonzero
    rid = text("rid", r.rid, "recording identification", spill=4 if loc is None else 0)
    rid = rid.ljust(68, b" ") if loc is None else rid
    location = rid[64:] if loc is None else _section_bytes(  # the version byte stays 0
        _LOCATION, [getattr(loc, name, 0) for name in _LOCATION.names])
    return _section_bytes(_FIXED, [  # _FIXED_FIELDS order; reserved bytes stay zero
        # a reader keeps every version byte: NUL padding is written back as padding
        text("version", h.version.rstrip("\x00"), "version"),
        text("pid", p.pid, "patient identification"),
        b"", pack_demographics(p.smoking, p.alcohol_abuse, p.drug_abuse, p.medication),
        p.weight_kg, p.height_cm,
        pack_physio(p.gender, p.handedness, p.visual_impairment, p.heart_impairment),
        rid[:64], location, r.start_time.raw, p.birthday.raw, h.header_blocks or h.ns + 1,
        text("icd", p.icd_code, "ICD classification"), r.equipment_id, b"", p.headsize_mm,
        r.reference_position, r.ground_position, h.n_records,
        (h.duration_num, h.duration_den), h.ns,
    ])


# --- variable header ---------------------------------------------------------

class ChannelTable(Sequence[ChannelInfo]):
    """The variable header of a file that was read: one record of ``(ns,)``
    columns over an owned copy of its ``256 * ns`` bytes, normalised as
    writing its channels would store them (text ends, NaN payloads).

    A read-only sequence of :class:`ChannelInfo`: ``len``, iteration and
    indexing build each channel on demand (a slice gives a list). It
    compares equal to a list or tuple of equal channels, and to a table whose
    columns are equal, NaN positions and bounds included. To change channels,
    store a list (``list(table)``) in the model instead.
    """

    __slots__ = ("_data", "_record", "_ns", "_legacy")

    def __init__(self, data: bytes, ns: int, legacy: bool):
        self._data = data
        self._record = np.ndarray((), _variable_header(ns, legacy), data)
        self._ns = ns
        self._legacy = legacy  # the sensor area as a 1-byte and a 19-byte column

    def __len__(self) -> int:
        return self._ns

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._channels(index)
        i = range(self._ns)[index]  # IndexError, and negative indices
        return self._channels(slice(i, i + 1))[0]

    def __iter__(self):
        return iter(self._channels(slice(None)))

    def __eq__(self, other):
        if isinstance(other, ChannelTable):  # column by column, NaN equal to NaN
            return len(self) == len(other) and all(
                np.array_equal(self._record[name], other._record[name], equal_nan=True)
                if self._record[name].dtype.kind == "f" else
                self._column(attr) == other._column(attr) for attr, name in _FIELD_OF.items())
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self) -> str:
        return f"ChannelTable({list(self)!r})"

    def _column(self, attr: str, rows: slice = slice(None)) -> list:
        """The values ChannelInfo's ``attr`` holds for ``rows``."""
        if attr == "cal":
            return list(map(Calibration, *(self._column(a, rows) for a in _FIELD_OF
                                           if a.startswith("cal."))))
        name = _FIELD_OF[attr]
        values = self._record[name][rows]
        kind = values.dtype.kind
        if kind == "S":
            return list(map(_text, values.tolist()))
        if kind == "V" and self._legacy:
            return list(map(bytes.__add__, values.tolist(),
                            self._record["sensor tail"][rows].tolist()))
        if values.ndim > 1:  # the position
            return list(map(tuple, values.tolist()))
        if values.dtype == np.float32:  # a filter frequency; NaN: unknown
            return [None if v != v else v for v in values.tolist()]
        return values.tolist()

    def _channels(self, rows: slice) -> list[ChannelInfo]:
        columns = [self._column(attr, rows) for attr in _FIELD_OF]
        return [ChannelInfo(*row[:4], Calibration(*row[4:8]), *row[8:])  # fields in file order
                for row in zip(*columns)]


def channel_column(channels: Sequence[ChannelInfo], attr: str) -> list:
    """The ChannelInfo attribute ``attr`` of every channel, in channel order;
    ``"cal.dig_min"`` names a calibration field. A :class:`ChannelTable`
    reads it from its columns, without building a ChannelInfo; its
    ``gdf_type`` values are plain integer codes."""
    if isinstance(channels, ChannelTable):
        return channels._column(attr)
    return list(map(attrgetter(attr), channels))


def _text(raw: bytes) -> str:
    """A stored text: up to its first NUL, latin-1, without trailing spaces."""
    return raw.partition(b"\x00")[0].decode("latin-1").rstrip(" ")


def parse_channel_headers(buf: bytes, ns: int, *, version_minor: int = 20,
                          diags: Diagnostics | None = None) -> ChannelTable:
    """Decode the 256*ns byte variable header into a :class:`ChannelTable`.

    The findings are worked out a column at a time and reported channel by
    channel, each channel's in field order. A channel with an unknown type
    code raises StructureError once the channels before it have reported
    theirs.
    """
    diags = sink(diags)
    if len(buf) != CHANNEL_HEADER_SIZE * ns:
        raise StructureError(
            f"variable header needs {CHANNEL_HEADER_SIZE * ns} bytes, got {len(buf)}")
    legacy = version_minor < 19
    layout = _variable_header(ns, legacy)
    data = bytes(buf)
    record = np.ndarray((), layout, data)
    findings = []  # (mask, report): each finding of a column, in field order
    for name in layout.names:
        column, start = record[name], layout.fields[name][1]
        if column.dtype.kind == "S":
            size = column.dtype.itemsize
            findings += _text_findings(np.ndarray((ns, size), np.uint8, data, start),
                                       name, start, diags)
        elif column.dtype == np.float32:  # a filter frequency, or the position
            findings.append((_noncanonical_nan(column),
                             functools.partial(_report_nan, diags, "header2", start)))
    if any(mask.any() for mask, _ in findings):
        data = _as_written(record)
    types = record["type"]
    unknown = ~_KNOWN[np.minimum(types, len(_KNOWN) - 1)]
    stop = int(unknown.argmax()) if unknown.any() else ns
    findings += _rule_findings(diags, types, record["samples_per_record"], record["dig_min"],
                               record["dig_max"], record["phys_dim"])
    _report(findings, stop)
    if stop < ns:
        raise StructureError(f"channel {stop}: unknown data type code {types[stop]}",
                             rule="channel.type_unknown",
                             offset=FIXED_HEADER_SIZE + layout.fields["type"][1] + 4 * stop)
    return ChannelTable(data, ns, legacy)


def _as_written(record: np.ndarray) -> bytes:
    """The variable header as writing its channels stores it: each text cut
    at its first NUL and trailing spaces, an unknown filter as the quiet
    NaN, and a position through float64, as its channel holds it."""
    record = record.copy()
    for name in record.dtype.names:
        column = record[name]
        if column.dtype.kind == "S":
            record[name] = [_text(raw).encode("latin-1") for raw in column.tolist()]
        elif column.ndim > 1:  # the position: float64 quiets a signalling NaN
            with np.errstate(invalid="ignore"):
                column[...] = column.astype(np.float64)
        elif column.dtype == np.float32:  # a filter: NaN is unknown
            column[np.isnan(column)] = np.nan
    return record.tobytes()


def _text_findings(raw: np.ndarray, name: str, start: int, diags: Diagnostics) -> list:
    """The findings of :func:`_read_text` on every text of a ``(ns, size)``
    byte column stored from ``start``."""
    ns, size = raw.shape
    nul = raw == 0
    count = size - nul.sum(1, dtype=np.intp)  # every byte before the first NUL counts
    end = np.where(count < size, nul.argmax(1), size)  # the first NUL
    after_nul = count > end
    padded = (end > 0) & (raw[np.arange(ns), end - 1] == 0x20)

    return [(after_nul, lambda i: diags.warning(
                "header.text_after_nul", f"{name}[{i}]: bytes after the NUL terminator are "
                "not zero", section="header2", offset=start + i * size)),
            (padded, lambda i: diags.info(
                "header.text_space_padded", f"{name}[{i}]: trailing space padding",
                section="header2", offset=start + i * size))]


# per type code, the last entry standing for every unknown code
_TYPE_INFO = [type_info(code) if is_known_type(code) else None
              for code in range(max(GdfType) + 2)]
_KNOWN = np.array([info is not None for info in _TYPE_INFO])
_SIZE = np.array([info.size if info else 0 for info in _TYPE_INFO])
_INTEGER = np.array([bool(info) and info.kind == "int" for info in _TYPE_INFO])
# an integer type's bounds as Python integers, for a model's values, and as
# the nearest float64 inside them, which a float64 compares with the same
# result (float64 rounds 2**63 - 1 and 2**64 - 1 up), for a file's columns
_MIN, _MAX = (np.array([getattr(info, bound) if _INTEGER[i] else 0
                        for i, info in enumerate(_TYPE_INFO)], object)
              for bound in ("min", "max"))
_MIN64 = _MIN.astype(np.float64)
_MAX64 = np.array([math.nextafter(top, 0) if top > bound else top
                   for top, bound in zip(_MAX.astype(np.float64).tolist(), _MAX)])
_NONSTANDARD = np.isin(np.arange(32), list(units.NONSTANDARD_PREFIXES))


def _rule_findings(diags: Diagnostics, types: np.ndarray, spr: np.ndarray,
                   dig_min: np.ndarray, dig_max: np.ndarray, codes: np.ndarray) -> list:
    """The header-2 rules on columns, shared by parsing and validation: a
    file's (float64 digital bounds) or a model's (objects, compared by
    Python's exact rules). Codes past the known types report nothing."""
    index = np.minimum(types, len(_KNOWN) - 1)
    lo, hi = (_MIN, _MAX) if dig_min.dtype == object else (_MIN64, _MAX64)
    lo, hi = lo[index], hi[index]
    with np.errstate(invalid="ignore"):  # a NaN bound compares False
        exceed = _INTEGER[index] & ~((lo <= dig_min) & (dig_min <= hi)
                                     & (lo <= dig_max) & (dig_max <= hi))
        reverse = dig_min > dig_max
        degenerate = ~reverse & (dig_min == dig_max) & (spr != 0)
    too_wide = (spr == 0) & (_SIZE[index] > 4)
    if codes.dtype.kind in "iu":  # a file's
        valid = (codes >= 0) & (codes <= 0xFFFF)
    else:
        valid = np.fromiter((hasattr(c, "__index__") and 0 <= c <= 0xFFFF for c in codes),
                            bool, len(codes))
    nonstandard = valid & _NONSTANDARD[np.where(valid, codes, 0).astype(np.intp) & 0x1F]

    def name(i):
        return _TYPE_INFO[index[i]].name

    def value(column, i):  # a Python number, as ChannelInfo holds it
        return _quote(column[i:i + 1].tolist()[0], str)
    return [
        (exceed, lambda i: diags.error(
            "channel.dig_bounds_exceed_type", f"channel {i}: digital bounds [{value(dig_min, i)}, "
            f"{value(dig_max, i)}] exceed the {name(i)} range", section="header2")),
        (reverse, lambda i: diags.error("channel.dig_bounds_reversed",
                                        f"channel {i}: dig_min > dig_max", section="header2")),
        (degenerate, lambda i: diags.error(
            "channel.dig_bounds_degenerate",
            f"channel {i}: dig_min == dig_max on a sampled channel", section="header2")),
        (too_wide, lambda i: diags.error(
            "channel.sparse_type_too_wide",
            f"channel {i}: sparse channel type {name(i)} exceeds 32 bits", section="header2")),
        (~valid, lambda i: diags.error(
            "channel.physdim_invalid",
            f"channel {i}: unit code {_quote(codes[i])} is not an integer in 0..65535",
            section="header2")),
        (nonstandard, lambda i: diags.warning(
            "channel.physdim_nonstandard_prefix", f"channel {i}: unit code {codes[i]} uses "
            f"reserved decimal prefix {codes[i] & 0x1F}", section="header2")),
    ]


def _report(findings: list, stop: int) -> None:
    """Report the findings of the channels before ``stop``, channel by
    channel, each channel's in the order of ``findings``. A mask of shape
    ``(ns, k)`` reports its flat index, a mask of shape ``(ns,)`` the
    channel."""
    found = []
    for order, (mask, report) in enumerate(findings):
        width = mask.shape[1] if mask.ndim > 1 else 1
        found += [(k // width, order, k, report) for k in np.flatnonzero(mask).tolist()
                  if k < stop * width]
    found.sort(key=itemgetter(0, 1, 2))
    for _, _, k, report in found:
        report(k)


def check_channels(channels: Sequence[ChannelInfo], diags: Diagnostics) -> None:
    """The header-2 rules of every channel, as parsing reports them."""
    attrs = ("gdf_type", "samples_per_record", "cal.dig_min", "cal.dig_max", "phys_dim")
    if isinstance(channels, ChannelTable):  # a file's columns
        columns = [channels._record[_FIELD_OF[attr]] for attr in attrs]
    else:  # a model's values
        columns = [np.fromiter(channel_column(channels, attr), object, len(channels))
                   for attr in attrs]
        columns[0] = columns[0].astype(np.intp)
    _report(_rule_findings(diags, *columns), len(channels))


def write_channel_headers(channels: Sequence[ChannelInfo], *, version_minor: int = 20) -> bytes:
    """Serialise channel records to the 256-bytes-per-channel layout. A
    :class:`ChannelTable` in the layout of ``version_minor`` gives back the
    bytes it holds, which are what this would write."""
    if isinstance(channels, ChannelTable):
        if channels._legacy == (version_minor < 19):
            return channels._data
        channels = list(channels)
    if not channels:
        return b""
    layout = _variable_header(len(channels), version_minor < 19)
    record = np.zeros((), layout)
    # the unit codes first: a default unit text is rendered from its code
    codes = _cast([ch.phys_dim for ch in channels], layout["phys_dim"].base, "phys_dim[{}]")
    rows = [(ch.label, ch.transducer,  # _CHANNEL_FIELDS order
             render_phys_dim_ascii(code) if ch.phys_dim_ascii is None else ch.phys_dim_ascii,
             code, ch.cal.phys_min, ch.cal.phys_max, ch.cal.dig_min, ch.cal.dig_max,
             render_prefilter(ch.lowpass_hz, ch.highpass_hz, ch.notch_hz)
             if ch.prefilter is None else ch.prefilter,
             math.nan if ch.lowpass_hz is None else ch.lowpass_hz,
             math.nan if ch.highpass_hz is None else ch.highpass_hz,
             math.nan if ch.notch_hz is None else ch.notch_hz,
             ch.samples_per_record, ch.gdf_type, ch.position, bytes(ch.sensor_info))
            for ch, code in zip(channels, codes.tolist())]
    columns = list(zip(*rows))
    if version_minor < 19:
        sensors = columns.pop()
        columns += [[s[:1] for s in sensors], [s[1:] for s in sensors]]
    for name, values in zip(layout.names, columns):  # a column at a time, in file order
        dtype, label = layout[name].base, name + "[{}]"
        record[name] = _pack_texts(values, dtype.itemsize, label) if dtype.kind == "S" \
            else values if dtype.kind == "V" else _cast(values, dtype, label)
    return record.tobytes()
