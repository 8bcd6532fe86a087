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


# --- text field helpers ----------------------------------------------------

def _read_text(buf, start: int, size: int, name: str, diags: Diagnostics,
               section: str = "header1") -> str:
    raw = bytes(buf[start:start + size])
    head, _, tail = raw.partition(b"\x00")
    if tail.strip(b"\x00"):
        diags.warning("header.text_after_nul",
                      f"{name}: bytes after the NUL terminator are not zero",
                      section=section, offset=start)
    text = head.decode("latin-1")
    stripped = text.rstrip(" ")
    if stripped != text:
        diags.info("header.text_space_padded", f"{name}: trailing space padding",
                   section=section, offset=start)
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


def _check_reserved(buf, start: int, size: int, diags: Diagnostics,
                    section: str = "header1") -> None:
    if any(buf[start:start + size]):
        diags.warning("header.reserved_nonzero",
                      f"reserved bytes {start}..{start + size} are not zero",
                      section=section, offset=start)


def _read_f32(buf, offset: int, diags: Diagnostics, section: str) -> float:
    raw = bytes(buf[offset:offset + 4])
    value = struct.unpack("<f", raw)[0]
    if math.isnan(value) and raw != _CANONICAL_NAN32:
        diags.info("header.noncanonical_nan",
                   "NaN payload bits are not the canonical quiet NaN",
                   section=section, offset=offset)
    return value


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
    version = buf[0:8].decode("latin-1")
    if not version.startswith("GDF "):
        raise FormatError(f"not a GDF file (version field {version!r})", rule="header.magic")
    m = re.match(r"GDF (\d+)\.(\d+)", version)
    if not m:
        raise VersionError(f"malformed GDF version field {version!r}", rule="header.version")
    if int(m.group(1)) != 2:
        raise VersionError(f"unsupported GDF major version {m.group(1)}",
                           rule="header.version")

    pid = _read_text(buf, 8, 66, "patient identification", diags)
    _check_reserved(buf, 74, 10, diags)
    smoking, alcohol, drug, medication = unpack_demographics(buf[84])
    if TriState.RESERVED in (smoking, alcohol, drug, medication):
        diags.warning("demographics.reserved_bits",
                      "lifestyle byte uses the reserved 0b11 pattern",
                      section="header1", offset=84)
    weight = buf[85]
    height = buf[86]
    gender, handedness, visual, heart = unpack_physio(buf[87])
    if gender is Gender.RESERVED:
        diags.warning("demographics.reserved_bits",
                      "gender bits use the reserved 0b11 pattern",
                      section="header1", offset=87)

    location = parse_location(buf[152:168])
    if location is None:
        # the first four location bytes belong to the recording id text
        rid = _read_text(buf, 88, 68, "recording identification", diags)
        if any(buf[156:168]):
            diags.warning("location.absent_data_nonzero",
                          "location marked absent but coordinate bytes are not zero",
                          section="header1", offset=156)
    else:
        rid = _read_text(buf, 88, 64, "recording identification", diags)

    start_raw, birthday_raw = struct.unpack_from("<QQ", buf, 168)
    header_blocks = struct.unpack_from("<H", buf, 184)[0]
    icd = _read_text(buf, 186, 6, "ICD classification", diags)
    equipment_id = struct.unpack_from("<Q", buf, 192)[0]
    _check_reserved(buf, 200, 6, diags)
    headsize = struct.unpack_from("<3H", buf, 206)
    reference = tuple(_read_f32(buf, 212 + 4 * i, diags, "header1") for i in range(3))
    ground = tuple(_read_f32(buf, 224 + 4 * i, diags, "header1") for i in range(3))
    n_records = struct.unpack_from("<q", buf, 236)[0]
    duration_num, duration_den = struct.unpack_from("<II", buf, 244)
    ns32 = struct.unpack_from("<I", buf, 252)[0]

    if ns32 >> 16:
        raise StructureError(f"channel count field 0x{ns32:08x} has its high bits set",
                             rule="header.ns_range", offset=252)
    if n_records < -1:
        raise StructureError(f"record count {n_records} is invalid",
                             rule="header.nrec_invalid", offset=236)
    if header_blocks < ns32 + 1:
        raise StructureError(
            f"header length {header_blocks} blocks is less than NS+1 = {ns32 + 1}",
            rule="header.blocks_too_small", offset=184)

    patient = PatientInfo(
        pid=pid, smoking=smoking, alcohol_abuse=alcohol, drug_abuse=drug,
        medication=medication, weight_kg=weight, height_cm=height,
        gender=gender, handedness=handedness, visual_impairment=visual,
        heart_impairment=heart, birthday=GdfTime(birthday_raw),
        icd_code=icd, headsize_mm=tuple(headsize),
    )
    recording = RecordingInfo(
        rid=rid, location=location, start_time=GdfTime(start_raw),
        equipment_id=equipment_id, reference_position=reference,
        ground_position=ground,
    )
    return FixedHeader(
        version=version, patient=patient, recording=recording,
        header_blocks=header_blocks, n_records=n_records,
        duration_num=duration_num, duration_den=duration_den, ns=ns32,
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
    p, r = h.patient, h.recording

    buf = bytearray(FIXED_HEADER_SIZE)
    buf[0:8] = _pack_text(h.version, 8, "version")
    buf[8:74] = _pack_text(p.pid, 66, "patient identification")
    buf[84] = pack_demographics(p.smoking, p.alcohol_abuse, p.drug_abuse, p.medication)
    if not (0 <= p.weight_kg <= 255 and 0 <= p.height_cm <= 255):
        raise DomainError("weight/height must fit one byte (0=unknown, 255=over 254)")
    buf[85] = p.weight_kg
    buf[86] = p.height_cm
    buf[87] = pack_physio(p.gender, p.handedness, p.visual_impairment, p.heart_impairment)
    if r.location is None:
        buf[88:156] = _pack_text(r.rid, 68, "recording identification")
    else:
        buf[88:152] = _pack_text(r.rid, 64, "recording identification")
        loc = r.location
        for name, v in (("vertical", loc.vertical_precision),
                        ("horizontal", loc.horizontal_precision), ("size", loc.size)):
            if not 0 <= v <= 255:
                raise DomainError(f"location {name} precision {v} outside one byte")
        buf[152:156] = bytes((loc.vertical_precision, loc.horizontal_precision, loc.size, 0))
        struct.pack_into("<iii", buf, 156, loc.latitude, loc.longitude, loc.altitude_cm)
    struct.pack_into("<QQ", buf, 168, r.start_time.raw, p.birthday.raw)
    struct.pack_into("<H", buf, 184, header_blocks)
    buf[186:192] = _pack_text(p.icd_code, 6, "ICD classification")
    struct.pack_into("<Q", buf, 192, r.equipment_id)
    struct.pack_into("<3H", buf, 206, *p.headsize_mm)
    struct.pack_into("<3f", buf, 212, *r.reference_position)
    struct.pack_into("<3f", buf, 224, *r.ground_position)
    struct.pack_into("<q", buf, 236, h.n_records)
    struct.pack_into("<II", buf, 244, h.duration_num, h.duration_den)
    struct.pack_into("<I", buf, 252, h.ns)
    return bytes(buf)


# --- variable header ---------------------------------------------------------

def parse_channel_headers(buf: bytes, ns: int, *, version_minor: int = 20,
                          diags: Diagnostics | None = None) -> list[ChannelInfo]:
    """Decode the 256*ns byte variable header into per-channel records."""
    diags = sink(diags)
    if len(buf) != CHANNEL_HEADER_SIZE * ns:
        raise StructureError(
            f"variable header needs {CHANNEL_HEADER_SIZE * ns} bytes, got {len(buf)}")
    if ns == 0:
        return []

    phys_dims = struct.unpack_from(f"<{ns}H", buf, 102 * ns)
    phys_mins = struct.unpack_from(f"<{ns}d", buf, 104 * ns)
    phys_maxs = struct.unpack_from(f"<{ns}d", buf, 112 * ns)
    dig_mins = struct.unpack_from(f"<{ns}d", buf, 120 * ns)
    dig_maxs = struct.unpack_from(f"<{ns}d", buf, 128 * ns)
    sprs = struct.unpack_from(f"<{ns}I", buf, 216 * ns)
    type_codes = struct.unpack_from(f"<{ns}I", buf, 220 * ns)

    channels = []
    for i in range(ns):
        code = type_codes[i]
        if not is_known_type(code):
            raise StructureError(f"channel {i}: unknown data type code {code}",
                                 rule="channel.type_unknown",
                                 offset=FIXED_HEADER_SIZE + 220 * ns + 4 * i)

        def f32(base):
            v = _read_f32(buf, base + 4 * i, diags, "header2")
            return None if math.isnan(v) else v

        if version_minor >= 19:
            sensor = bytes(buf[236 * ns + 20 * i: 236 * ns + 20 * (i + 1)])
        else:
            sensor = bytes([buf[236 * ns + i]]) \
                + bytes(buf[237 * ns + 19 * i: 237 * ns + 19 * (i + 1)])

        ch = ChannelInfo(
            label=_read_text(buf, 16 * i, 16, f"label[{i}]", diags, "header2"),
            transducer=_read_text(buf, 16 * ns + 80 * i, 80, f"transducer[{i}]",
                                  diags, "header2"),
            phys_dim_ascii=_read_text(buf, 96 * ns + 6 * i, 6, f"unit text[{i}]",
                                      diags, "header2"),
            phys_dim=phys_dims[i],
            cal=Calibration(phys_mins[i], phys_maxs[i], dig_mins[i], dig_maxs[i]),
            prefilter=_read_text(buf, 136 * ns + 68 * i, 68, f"prefilter[{i}]",
                                 diags, "header2"),
            lowpass_hz=f32(204 * ns),
            highpass_hz=f32(208 * ns),
            notch_hz=f32(212 * ns),
            samples_per_record=sprs[i],
            gdf_type=GdfType(code),
            position=struct.unpack_from("<3f", buf, 224 * ns + 12 * i),
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
    ns = len(channels)
    buf = bytearray(CHANNEL_HEADER_SIZE * ns)

    def nan_if_none(v):
        return math.nan if v is None else v

    for i, ch in enumerate(channels):
        buf[16 * i: 16 * (i + 1)] = _pack_text(ch.label, 16, f"label[{i}]")
        buf[16 * ns + 80 * i: 16 * ns + 80 * (i + 1)] = \
            _pack_text(ch.transducer, 80, f"transducer[{i}]")
        ascii_dim = ch.phys_dim_ascii
        if ascii_dim is None:
            ascii_dim = render_phys_dim_ascii(ch.phys_dim)
        buf[96 * ns + 6 * i: 96 * ns + 6 * (i + 1)] = \
            _pack_text(ascii_dim, 6, f"unit text[{i}]")
        struct.pack_into("<H", buf, 102 * ns + 2 * i, ch.phys_dim)
        struct.pack_into("<d", buf, 104 * ns + 8 * i, ch.cal.phys_min)
        struct.pack_into("<d", buf, 112 * ns + 8 * i, ch.cal.phys_max)
        struct.pack_into("<d", buf, 120 * ns + 8 * i, ch.cal.dig_min)
        struct.pack_into("<d", buf, 128 * ns + 8 * i, ch.cal.dig_max)
        prefilter = ch.prefilter
        if prefilter is None:
            prefilter = render_prefilter(ch.lowpass_hz, ch.highpass_hz, ch.notch_hz)
        buf[136 * ns + 68 * i: 136 * ns + 68 * (i + 1)] = \
            _pack_text(prefilter, 68, f"prefilter[{i}]")
        struct.pack_into("<f", buf, 204 * ns + 4 * i, nan_if_none(ch.lowpass_hz))
        struct.pack_into("<f", buf, 208 * ns + 4 * i, nan_if_none(ch.highpass_hz))
        struct.pack_into("<f", buf, 212 * ns + 4 * i, nan_if_none(ch.notch_hz))
        struct.pack_into("<I", buf, 216 * ns + 4 * i, ch.samples_per_record)
        struct.pack_into("<I", buf, 220 * ns + 4 * i, int(ch.gdf_type))
        struct.pack_into("<3f", buf, 224 * ns + 12 * i, *ch.position)
        if version_minor >= 19:
            buf[236 * ns + 20 * i: 236 * ns + 20 * (i + 1)] = ch.sensor_info
        else:
            buf[236 * ns + i] = ch.sensor_info[0]
            buf[237 * ns + 19 * i: 237 * ns + 19 * (i + 1)] = ch.sensor_info[1:20]
    return bytes(buf)
