"""Bit-exact codecs for the fixed header and the per-channel variable header.

The fixed header is 256 bytes; the variable header is 256 bytes per channel,
laid out struct-of-arrays (all labels, then all transducer strings, and so
on). All integers and floats are little-endian.

Fixed text fields are NUL-padded on write; on read both NUL and trailing
space padding are accepted (space padding is reported as an info diagnostic
because re-serialisation normalises it away).
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple, Sequence

import numpy as np

from . import units
from .core import Calibration, GdfTime, GdfType, float32_exact, is_known_type, type_info
from .diagnostics import Diagnostics, sink
from .errors import DomainError, FormatError, StructureError, VersionError

FIXED_HEADER_SIZE = 256
CHANNEL_HEADER_SIZE = 256

#: Version string the writer stamps on new files.
CURRENT_VERSION = "GDF 2.20"

_CANONICAL_NAN32 = struct.pack("<f", math.nan)


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


def pack_demographics(smoking: TriState, alcohol: TriState,
                      drug: TriState, medication: TriState) -> int:
    """Pack the four lifestyle tri-states into one byte (smoking in bits 0-1)."""
    return (int(smoking) & 3) | ((int(alcohol) & 3) << 2) \
        | ((int(drug) & 3) << 4) | ((int(medication) & 3) << 6)


def unpack_demographics(value: int) -> tuple[TriState, TriState, TriState, TriState]:
    return (TriState(value & 3), TriState((value >> 2) & 3),
            TriState((value >> 4) & 3), TriState((value >> 6) & 3))


def pack_physio(gender: Gender, handedness: Handedness,
                visual: VisualImpairment, heart: HeartImpairment) -> int:
    """Pack gender (bits 0-1), handedness, visual and heart impairment."""
    return (int(gender) & 3) | ((int(handedness) & 3) << 2) \
        | ((int(visual) & 3) << 4) | ((int(heart) & 3) << 6)


def unpack_physio(value: int) -> tuple[Gender, Handedness, VisualImpairment, HeartImpairment]:
    return (Gender(value & 3), Handedness((value >> 2) & 3),
            VisualImpairment((value >> 4) & 3), HeartImpairment((value >> 6) & 3))


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
    if chunk[3] != 0:  # RFC1876 version byte; nonzero reclaims the area for text
        return None
    lat, lon, alt = struct.unpack_from("<iii", chunk, 4)
    return Location(chunk[0], chunk[1], chunk[2], lat, lon, alt)


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

    def pid_subfields(self) -> tuple[str, str, str]:
        """(identification code, name, classification), 'X' when missing."""
        parts = self.pid.split(" ")
        parts += ["X"] * (3 - len(parts))
        return (parts[0] or "X", parts[1] or "X", parts[2] or "X")

    @property
    def name(self) -> str:
        return self.pid_subfields()[1]


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
        object.__setattr__(self, "reference_position",
                           tuple(float32_exact(float(v)) for v in self.reference_position))
        object.__setattr__(self, "ground_position",
                           tuple(float32_exact(float(v)) for v in self.ground_position))


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

    @property
    def record_duration_s(self) -> float:
        if self.duration_den == 0:
            return math.nan
        return self.duration_num / self.duration_den


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
    meaning depends on the unit (see :func:`electrode_impedance` and
    :func:`probe_frequency`).
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
        object.__setattr__(self, "gdf_type", GdfType(self.gdf_type))
        object.__setattr__(self, "lowpass_hz", float32_exact(self.lowpass_hz))
        object.__setattr__(self, "highpass_hz", float32_exact(self.highpass_hz))
        object.__setattr__(self, "notch_hz", float32_exact(self.notch_hz))
        object.__setattr__(self, "position",
                           tuple(float32_exact(float(v)) for v in self.position))
        if len(self.sensor_info) != 20:
            raise DomainError("sensor_info must be exactly 20 bytes")
        if self.samples_per_record < 0:
            raise DomainError("samples_per_record must be non-negative")

    @property
    def is_sparse(self) -> bool:
        return self.samples_per_record == 0

    def sampling_rate(self, duration_num: int, duration_den: int) -> float:
        """Samples per second given the file's record duration."""
        if self.is_sparse or duration_num == 0:
            return 0.0
        return self.samples_per_record * duration_den / duration_num


def sensor_value_bytes(value: float | None) -> bytes:
    """Build a 20-byte sensor-info area holding one float32 (None -> NaN)."""
    return struct.pack("<f", math.nan if value is None else value) + bytes(16)


def _sensor_float(ch: ChannelInfo) -> float | None:
    value = struct.unpack_from("<f", ch.sensor_info, 0)[0]
    return None if math.isnan(value) else value


def electrode_impedance(ch: ChannelInfo, version_minor: int = 20) -> float | None:
    """Electrode impedance in Ohm, if the channel records a voltage.

    Files older than v2.19 store a one-byte logarithmic code instead of the
    float32; pass the file's minor version to decode those correctly.
    """
    if version_minor < 19:
        from .core import impedance_from_digval
        return impedance_from_digval(ch.sensor_info[0])
    if ch.phys_dim & 0xFFE0 != units.VOLT:
        return None
    return _sensor_float(ch)


def probe_frequency(ch: ChannelInfo, version_minor: int = 20) -> float | None:
    """Probe frequency in Hz, if the channel records an impedance."""
    if version_minor < 19 or ch.phys_dim & 0xFFE0 != units.OHM:
        return None
    return _sensor_float(ch)


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

#: The fixed header as (field, struct format) rows in file order.
_FIXED_FIELDS = (
    ("version", "8s"), ("pid", "66s"), ("reserved1", "10s"),
    ("demographics", "B"), ("weight", "B"), ("height", "B"), ("physio", "B"),
    ("rid", "64s"), ("location", "16s"), ("start", "Q"), ("birthday", "Q"),
    ("header_blocks", "H"), ("icd", "6s"), ("equipment", "Q"),
    ("reserved2", "6s"), ("headsize", "3H"), ("reference", "3f"),
    ("ground", "3f"), ("n_records", "q"), ("duration", "2I"), ("ns", "I"),
)

#: One channel's 256-byte record as (field, struct format) rows. The variable
#: header stores the records transposed (struct-of-arrays): the column of a
#: field holds its value for every channel and starts at ``ns`` times the
#: summed sizes of the earlier fields.
_CHANNEL_FIELDS = (
    ("label", "16s"), ("transducer", "80s"), ("unit text", "6s"),
    ("phys_dim", "H"), ("phys_min", "d"), ("phys_max", "d"),
    ("dig_min", "d"), ("dig_max", "d"), ("prefilter", "68s"),
    ("lowpass", "f"), ("highpass", "f"), ("notch", "f"),
    ("samples_per_record", "I"), ("type", "I"), ("position", "3f"),
    ("sensor", "20s"),
)


class _Field(NamedTuple):
    struct: struct.Struct
    start: int  # offset in the record: the summed sizes of the earlier fields
    index: int | slice  # position of its values in the record's unpacked tuple

    def column(self, ns: int) -> range:
        """Offsets of the field's values in a variable header of ``ns`` channels."""
        return range(ns * self.start, ns * (self.start + self.struct.size), self.struct.size)


def _record(fields) -> tuple[struct.Struct, dict[str, _Field]]:
    """The struct of a whole record and the layout of its fields."""
    layout, start, index = {}, 0, 0
    for name, fmt in fields:
        s = struct.Struct("<" + fmt)
        count = len(s.unpack(bytes(s.size)))
        layout[name] = _Field(s, start, index if count == 1 else slice(index, index + count))
        start, index = start + s.size, index + count
    return struct.Struct("<" + "".join(fmt for _, fmt in fields)), layout


_FIXED_STRUCT, _FIXED_LAYOUT = _record(_FIXED_FIELDS)
_FIXED_OFFSETS = {name: f.start for name, f in _FIXED_LAYOUT.items()}
_CHANNEL_STRUCT, _CHANNEL_LAYOUT = _record(_CHANNEL_FIELDS)


def _columns(version_minor: int) -> list[tuple[int, int]]:
    """(start, size) within the channel record of each variable-header
    column, in file order."""
    columns = [(f.start, f.struct.size) for f in _CHANNEL_LAYOUT.values()]
    if version_minor < 19:
        # the sensor area holds a 1-byte column followed by a 19-byte column
        start, size = columns.pop()
        columns += [(start, 1), (start + 1, size - 1)]
    return columns


# --- field helpers -----------------------------------------------------------

def _read_text(raw: bytes, offset: int, name: str, diags: Diagnostics,
               section: str = "header1") -> str:
    head, _, tail = raw.partition(b"\x00")
    if tail.strip(b"\x00"):
        diags.warning("header.text_after_nul",
                      f"{name}: bytes after the NUL terminator are not zero",
                      section=section, offset=offset)
    text = head.decode("latin-1")
    stripped = text.rstrip(" ")
    if stripped != text:
        diags.info("header.text_space_padded", f"{name}: trailing space padding",
                   section=section, offset=offset)
    return stripped


def _pack_text(text: str, size: int, name: str) -> bytes:
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError:
        raise DomainError(f"{name}: text is not latin-1 encodable") from None
    if len(data) > size:
        raise DomainError(f"{name}: {len(data)} bytes exceed the {size}-byte field",
                          rule="header.text_overflow")
    return data.ljust(size, b"\x00")


def _check_reserved(raw: bytes, offset: int, diags: Diagnostics) -> None:
    if any(raw):
        diags.warning("header.reserved_nonzero",
                      f"reserved bytes {offset}..{offset + len(raw)} are not zero",
                      section="header1", offset=offset)


def _nan_checked(values: Sequence[float], buf, offset: int, diags: Diagnostics,
                 section: str) -> Sequence[float]:
    """Return the float32 ``values`` read from ``offset`` in ``buf``; report
    each NaN whose bits writing it back would not reproduce."""
    for k, v in enumerate(values):
        at = offset + 4 * k
        if v != v and bytes(buf[at:at + 4]) != _CANONICAL_NAN32:
            diags.info("header.noncanonical_nan",
                       "NaN payload bits are not the canonical quiet NaN",
                       section=section, offset=at)
    return values


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
    values = _FIXED_STRUCT.unpack(buf)
    v = {name: values[f.index] for name, f in _FIXED_LAYOUT.items()}
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
    reference = _nan_checked(v["reference"], buf, at["reference"], diags, "header1")
    ground = _nan_checked(v["ground"], buf, at["ground"], diags, "header1")
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

    patient = PatientInfo(
        pid=pid, smoking=smoking, alcohol_abuse=alcohol, drug_abuse=drug,
        medication=medication, weight_kg=v["weight"], height_cm=v["height"],
        gender=gender, handedness=handedness, visual_impairment=visual,
        heart_impairment=heart, birthday=GdfTime(v["birthday"]),
        icd_code=icd, headsize_mm=v["headsize"],
    )
    recording = RecordingInfo(
        rid=rid, location=location, start_time=GdfTime(v["start"]),
        equipment_id=v["equipment"], reference_position=reference,
        ground_position=ground,
    )
    return FixedHeader(
        version=version, patient=patient, recording=recording,
        header_blocks=header_blocks, n_records=n_records,
        duration_num=v["duration"][0], duration_den=v["duration"][1], ns=ns32,
    )


def write_fixed_header(h: FixedHeader) -> bytes:
    """Serialise to exactly 256 bytes; reserved regions are zero-filled.

    A ``header_blocks`` of 0 is resolved to the minimum ``ns + 1``.
    """
    if not 0 <= h.ns <= 0xFFFF:
        raise DomainError(f"channel count {h.ns} outside uint16")
    header_blocks = h.header_blocks or (h.ns + 1)
    if header_blocks < h.ns + 1:
        raise DomainError(f"header_blocks {header_blocks} is less than NS+1 = {h.ns + 1}")
    if not -1 <= h.n_records < 1 << 63:
        raise DomainError(f"record count {h.n_records} outside int64")
    p, r, loc = h.patient, h.recording, h.recording.location

    def text(name, value, label, spill=0):
        return _pack_text(value, _FIXED_LAYOUT[name].struct.size + spill, label)

    version = text("version", h.version, "version")
    pid = text("pid", p.pid, "patient identification")
    if not (0 <= p.weight_kg <= 255 and 0 <= p.height_cm <= 255):
        raise DomainError("weight/height must fit one byte (0=unknown, 255=over 254)")
    if loc is None:
        # an absent location lends its first four bytes to the recording id
        rid = text("rid", r.rid, "recording identification", spill=4)
        rid, location = rid[:-4], rid[-4:]
    else:
        rid = text("rid", r.rid, "recording identification")
        for name, value in (("vertical", loc.vertical_precision),
                            ("horizontal", loc.horizontal_precision), ("size", loc.size)):
            if not 0 <= value <= 255:
                raise DomainError(f"location {name} precision {value} outside one byte")
        location = struct.pack("<4B3i", loc.vertical_precision, loc.horizontal_precision,
                               loc.size, 0, loc.latitude, loc.longitude, loc.altitude_cm)
    return _FIXED_STRUCT.pack(  # values in _FIXED_FIELDS order
        version, pid, b"", pack_demographics(p.smoking, p.alcohol_abuse, p.drug_abuse,
                                             p.medication),
        p.weight_kg, p.height_cm,
        pack_physio(p.gender, p.handedness, p.visual_impairment, p.heart_impairment),
        rid, location, r.start_time.raw, p.birthday.raw, header_blocks,
        text("icd", p.icd_code, "ICD classification"), r.equipment_id, b"",
        *p.headsize_mm, *r.reference_position, *r.ground_position,
        h.n_records, h.duration_num, h.duration_den, h.ns)


# --- variable header ---------------------------------------------------------

def parse_channel_headers(buf: bytes, ns: int, *, version_minor: int = 20,
                          diags: Diagnostics | None = None) -> list[ChannelInfo]:
    """Decode the 256*ns byte variable header into per-channel records."""
    diags = sink(diags)
    if len(buf) != CHANNEL_HEADER_SIZE * ns:
        raise StructureError(
            f"variable header needs {CHANNEL_HEADER_SIZE * ns} bytes, got {len(buf)}")
    rows = np.empty((ns, CHANNEL_HEADER_SIZE), np.uint8)
    data = np.frombuffer(buf, np.uint8)
    for start, size in _columns(version_minor):
        rows[:, start:start + size] = data[ns * start:ns * (start + size)].reshape(ns, size)
    at = {name: f.column(ns) for name, f in _CHANNEL_LAYOUT.items()}

    def text(raw, name, i):
        return _read_text(raw, at[name][i], f"{name}[{i}]", diags, "header2")

    def frequency(value, name, i):
        if value == value:
            return value
        _nan_checked((value,), buf, at[name][i], diags, "header2")
        return None

    channels = []
    for i, (label, transducer, unit, phys_dim, phys_min, phys_max, dig_min, dig_max,
            prefilter, lowpass, highpass, notch, spr, code, *position, sensor) \
            in enumerate(_CHANNEL_STRUCT.iter_unpack(rows)):  # _CHANNEL_FIELDS order
        if not is_known_type(code):
            raise StructureError(f"channel {i}: unknown data type code {code}",
                                 rule="channel.type_unknown",
                                 offset=FIXED_HEADER_SIZE + at["type"][i])
        ch = ChannelInfo(
            label=text(label, "label", i), transducer=text(transducer, "transducer", i),
            phys_dim_ascii=text(unit, "unit text", i), phys_dim=phys_dim,
            cal=Calibration(phys_min, phys_max, dig_min, dig_max),
            prefilter=text(prefilter, "prefilter", i),
            lowpass_hz=frequency(lowpass, "lowpass", i),
            highpass_hz=frequency(highpass, "highpass", i),
            notch_hz=frequency(notch, "notch", i),
            samples_per_record=spr, gdf_type=GdfType(code),
            position=_nan_checked(position, buf, at["position"][i], diags, "header2"),
            sensor_info=sensor,
        )
        _check_channel(ch, i, diags)
        channels.append(ch)
    return channels


def _check_channel(ch: ChannelInfo, index: int, diags: Diagnostics) -> None:
    """The header-2 rules of one channel, shared by parsing and validation."""
    info = type_info(ch.gdf_type)
    if info.kind == "int":
        if not (info.min <= ch.cal.dig_min <= info.max
                and info.min <= ch.cal.dig_max <= info.max):
            diags.error("channel.dig_bounds_exceed_type",
                        f"channel {index}: digital bounds [{ch.cal.dig_min}, "
                        f"{ch.cal.dig_max}] exceed the {info.name} range",
                        section="header2")
    if ch.cal.dig_min > ch.cal.dig_max:
        diags.error("channel.dig_bounds_reversed",
                    f"channel {index}: dig_min > dig_max", section="header2")
    elif ch.cal.is_degenerate and not ch.is_sparse:
        diags.error("channel.dig_bounds_degenerate",
                    f"channel {index}: dig_min == dig_max on a sampled channel",
                    section="header2")
    if ch.is_sparse and info.size > 4:
        diags.error("channel.sparse_type_too_wide",
                    f"channel {index}: sparse channel type {info.name} exceeds 32 bits",
                    section="header2")
    prefix = ch.phys_dim & 0x1F
    if prefix in units.NONSTANDARD_PREFIXES:
        diags.warning("channel.physdim_nonstandard_prefix",
                      f"channel {index}: unit code {ch.phys_dim} uses reserved "
                      f"decimal prefix {prefix}", section="header2")


def write_channel_headers(channels: list[ChannelInfo], *, version_minor: int = 20) -> bytes:
    """Serialise channel records to the 256-bytes-per-channel layout."""
    rows = np.empty((len(channels), CHANNEL_HEADER_SIZE), np.uint8)

    def nan_if_none(v):
        return math.nan if v is None else v

    for i, ch in enumerate(channels):
        def text(name, value):
            return _pack_text(value, _CHANNEL_LAYOUT[name].struct.size, f"{name}[{i}]")

        unit = ch.phys_dim_ascii
        if unit is None:
            unit = render_phys_dim_ascii(ch.phys_dim)
        prefilter = ch.prefilter
        if prefilter is None:
            prefilter = render_prefilter(ch.lowpass_hz, ch.highpass_hz, ch.notch_hz)
        # no * unpacking in the call: on CPython 3.11 that leaves ~200 bytes
        # per channel allocated until the next full garbage collection
        x, y, z = ch.position
        _CHANNEL_STRUCT.pack_into(  # values in _CHANNEL_FIELDS order
            rows, CHANNEL_HEADER_SIZE * i,
            text("label", ch.label), text("transducer", ch.transducer),
            text("unit text", unit), ch.phys_dim,
            ch.cal.phys_min, ch.cal.phys_max, ch.cal.dig_min, ch.cal.dig_max,
            text("prefilter", prefilter),
            nan_if_none(ch.lowpass_hz), nan_if_none(ch.highpass_hz), nan_if_none(ch.notch_hz),
            ch.samples_per_record, int(ch.gdf_type), x, y, z, ch.sensor_info)
    return b"".join(rows[:, start:start + size].tobytes()
                    for start, size in _columns(version_minor))
