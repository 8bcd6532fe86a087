import functools
from dataclasses import astuple, replace
import io
import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gdfkit.core import Calibration, GdfTime, GdfType, is_known_type
from gdfkit.diagnostics import Diagnostics
from gdfkit.events import EventTable, parse_event_table, write_event_table
from gdfkit.fileio import GdfFile, StreamWriter, to_bytes
from gdfkit.errors import DomainError, FormatError, GdfError, StructureError, VersionError
from gdfkit.header import (
    CHANNEL_HEADER_SIZE,
    FIXED_HEADER_SIZE,
    _FIXED,
    _LOCATION,
    _check_reserved,
    _nan_checked,
    _read_text,
    _variable_header,
    ChannelInfo,
    ChannelTable,
    FixedHeader,
    Gender,
    Handedness,
    HeartImpairment,
    Location,
    PatientInfo,
    RecordingInfo,
    TriState,
    VisualImpairment,
    pack_demographics,
    pack_physio,
    parse_channel_headers,
    parse_fixed_header,
    parse_location,
    render_phys_dim_ascii,
    render_prefilter,
    sensor_readings,
    sensor_value_bytes,
    unpack_demographics,
    unpack_physio,
    channel_column,
    check_channels,
    write_channel_headers,
    write_fixed_header,
)
from gdfkit import units
from gdfkit.core import type_info


class TestBitFields:
    def test_all_unknown_is_zero(self):
        assert pack_demographics(*[TriState.UNKNOWN] * 4) == 0x00
        assert unpack_physio(0x00) == (Gender.UNKNOWN, Handedness.UNKNOWN,
                                       VisualImpairment.UNKNOWN, HeartImpairment.UNKNOWN)

    def test_demographics_example(self):
        # smoking=no, alcohol=yes, drug=unknown, medication=no -> 1 + 8 + 0 + 64
        b = pack_demographics(TriState.NO, TriState.YES, TriState.UNKNOWN, TriState.NO)
        assert b == 0x49

    def test_physio_example(self):
        b = pack_physio(Gender.MALE, Handedness.RIGHT,
                        VisualImpairment.NONE, HeartImpairment.PACEMAKER)
        assert b == 0xD5

    def test_demographics_exhaustive(self):
        defined = (TriState.UNKNOWN, TriState.NO, TriState.YES)
        for combo in itertools.product(defined, repeat=4):
            assert unpack_demographics(pack_demographics(*combo)) == combo

    def test_physio_exhaustive(self):
        for combo in itertools.product(Gender, Handedness, VisualImpairment,
                                       HeartImpairment):
            assert unpack_physio(pack_physio(*combo)) == combo

    def test_every_byte_decodable(self):
        for value in range(256):
            assert pack_physio(*unpack_physio(value)) == value
            assert pack_demographics(*unpack_demographics(value)) == value


class TestLocation:
    def test_present_with_latitude(self):
        chunk = bytes((1, 2, 3, 0)) + struct.pack("<iii", 169_380_000, -5_400_000, 25000)
        loc = parse_location(chunk)
        assert loc is not None
        assert loc.latitude_degrees == pytest.approx(47.05)
        assert loc.longitude_degrees == pytest.approx(-1.5)
        assert loc.altitude_cm == 25000

    def test_absent_when_version_nonzero(self):
        chunk = bytes((0, 0, 0, 7)) + bytes(12)
        assert parse_location(chunk) is None

    def test_all_zero_is_present(self):
        loc = parse_location(bytes(16))
        assert loc == Location()


def _demo_header(ns=3):
    return FixedHeader(
        patient=PatientInfo(
            pid="P123 Doe-J M45",
            smoking=TriState.NO,
            alcohol_abuse=TriState.YES,
            medication=TriState.NO,
            weight_kg=82,
            height_cm=178,
            gender=Gender.FEMALE,
            handedness=Handedness.LEFT,
            visual_impairment=VisualImpairment.CORRECTED,
            heart_impairment=HeartImpairment.NO,
            birthday=GdfTime(719165 << 32),
            icd_code="G40.3",
            headsize_mm=(560, 370, 350),
        ),
        recording=RecordingInfo(
            rid="Study-7 run2",
            location=Location(10, 20, 30, 169_380_000, 55_800_000, 4500),
            start_time=GdfTime.from_unix(1_000_000_000.0),
            equipment_id=0x1122334455667788,
            reference_position=(0.25, -1.5, 0.0),
            ground_position=(1.0, 2.0, 3.0),
        ),
        header_blocks=ns + 1,
        n_records=10,
        duration_num=1,
        duration_den=256,
        ns=ns,
    )


class TestFixedHeader:
    def test_round_trip(self):
        h = _demo_header()
        buf = write_fixed_header(h)
        assert len(buf) == 256
        diags = Diagnostics()
        assert parse_fixed_header(buf, diags) == h
        assert not diags

    def test_ns_at_offset_252(self):
        buf = write_fixed_header(_demo_header(ns=3))
        assert buf[252:254] == b"\x03\x00"
        assert buf[254:256] == b"\x00\x00"

    def test_magic_rejected(self):
        buf = bytearray(write_fixed_header(_demo_header()))
        buf[0:8] = b"EDF     "
        with pytest.raises(FormatError):
            parse_fixed_header(bytes(buf))

    def test_major_version_rejected(self):
        buf = bytearray(write_fixed_header(_demo_header()))
        buf[0:8] = b"GDF 3.00"
        with pytest.raises(VersionError):
            parse_fixed_header(bytes(buf))

    def test_minor_versions_accepted(self):
        for tag, minor in ((b"GDF 2.00", 0), (b"GDF 2.11", 11), (b"GDF 2.19", 19)):
            buf = bytearray(write_fixed_header(_demo_header()))
            buf[0:8] = tag
            h = parse_fixed_header(bytes(buf))
            assert h.version_minor == minor

    def test_unknown_record_count(self):
        buf = bytearray(write_fixed_header(_demo_header()))
        buf[236:244] = b"\xff" * 8
        assert parse_fixed_header(bytes(buf)).n_records == -1

    def test_blocks_too_small(self):
        model = GdfFile(header=FixedHeader(header_blocks=2), channels=[ChannelInfo()] * 3)
        with pytest.raises(DomainError, match="NS\\+1"):
            to_bytes(model)
        with pytest.raises(DomainError, match="NS\\+1"):
            StreamWriter(io.BytesIO(), model.header, model.channels)
        buf = bytearray(write_fixed_header(_demo_header(ns=3)))
        struct.pack_into("<H", buf, 184, 3)
        with pytest.raises(StructureError):
            parse_fixed_header(bytes(buf))

    def test_minimal_header(self):
        buf = write_fixed_header(FixedHeader())
        assert len(buf) == 256
        assert buf[0:8] == b"GDF 2.20"
        assert struct.unpack_from("<q", buf, 236)[0] == -1
        assert struct.unpack_from("<H", buf, 184)[0] == 1
        assert buf[168:176] == bytes(8)  # unset start time

    def test_weight_sentinel(self):
        h = _demo_header()
        h = FixedHeader(**{**h.__dict__, "patient":
                           PatientInfo(**{**h.patient.__dict__, "weight_kg": 255})})
        assert write_fixed_header(h)[85] == 0xFF

    def test_pid_overflow_raises(self):
        h = FixedHeader(patient=PatientInfo(pid="x" * 67))
        with pytest.raises(DomainError):
            write_fixed_header(h)

    def test_location_absent_round_trip(self):
        rid = "R" * 68  # runs through the location version byte
        h = FixedHeader(recording=RecordingInfo(rid=rid, location=None))
        parsed = parse_fixed_header(write_fixed_header(h))
        assert parsed.recording.location is None
        assert parsed.recording.rid == rid

    @pytest.mark.parametrize("rid", ["", "abc", "R" * 64, "R" * 67],
                             ids=["empty", "short", "64", "67"])
    def test_location_absent_short_rid_round_trip(self, rid):
        # spaces pad the id through the location's version byte, so it stays nonzero
        h = FixedHeader(recording=RecordingInfo(rid=rid, location=None))
        data = write_fixed_header(h)
        assert data[88:156] == rid.encode().ljust(68, b" ")
        diags = Diagnostics()
        parsed = parse_fixed_header(data, diags)
        assert (parsed.recording.location, parsed.recording.rid) == (None, rid)
        assert [d.rule for d in diags] == ["header.text_space_padded"]
        assert write_fixed_header(parsed) == data

    def test_reserved_nonzero_diagnosed(self):
        buf = bytearray(write_fixed_header(_demo_header()))
        buf[75] = 1
        diags = Diagnostics()
        parse_fixed_header(bytes(buf), diags)
        assert any(d.rule == "header.reserved_nonzero" for d in diags)

    def test_ns_high_bits_rejected(self):
        buf = bytearray(write_fixed_header(_demo_header()))
        buf[254] = 1
        with pytest.raises(StructureError):
            parse_fixed_header(bytes(buf))

    def test_pid_subfields(self):
        p = PatientInfo(pid="P123 Doe M45")
        assert p.pid_subfields() == ("P123", "Doe", "M45")
        assert p.pid_subfields()[1] == "Doe"
        assert PatientInfo(pid="P123").pid_subfields() == ("P123", "X", "X")


def _demo_channels():
    return [
        ChannelInfo(
            label="eeg:C3",
            transducer="AgAgCl electrode",
            phys_dim=4275,  # uV
            cal=Calibration(-200.0, 200.0, -30000.0, 30000.0),
            lowpass_hz=100.0,
            highpass_hz=0.5,
            notch_hz=50.0,
            samples_per_record=16,
            gdf_type=GdfType.INT16,
            position=(0.25, 0.5, 1.0),
            sensor_info=sensor_value_bytes(5000.0),
        ),
        ChannelInfo(
            label="marker",
            phys_dim=512,
            cal=Calibration(0.0, 100.0, 0.0, 100.0),
            notch_hz=-1.0,
            samples_per_record=0,  # sparse
            gdf_type=GdfType.UINT32,
        ),
        ChannelInfo(
            label="imp:C3",
            phys_dim=4291,  # kOhm
            cal=Calibration(0.0, 50.0, 0.0, 4e6),
            samples_per_record=1,
            gdf_type=GdfType.FLOAT32,
            sensor_info=sensor_value_bytes(128.0),
        ),
    ]


class TestChannelHeaders:
    def test_round_trip(self):
        channels = _demo_channels()
        buf = write_channel_headers(channels)
        assert len(buf) == 256 * len(channels)
        diags = Diagnostics()
        parsed = parse_channel_headers(buf, len(channels), diags=diags)
        assert not diags
        # obsolete text fields are derived on write, so compare them rendered
        assert parsed[0].phys_dim_ascii == "uV"
        assert parsed[1].phys_dim_ascii == "-"
        rendered = [
            ChannelInfo(**{**c.__dict__,
                           "phys_dim_ascii": parsed[i].phys_dim_ascii,
                           "prefilter": parsed[i].prefilter})
            for i, c in enumerate(channels)
        ]
        assert parsed == rendered

    def test_physdim_code_offset(self):
        buf = write_channel_headers(_demo_channels()[:1])
        # single channel: unit code lives at relative offset 102
        assert buf[102:104] == b"\xb3\x10"  # 4275 little endian

    def test_sparse_flag(self):
        parsed = parse_channel_headers(write_channel_headers(_demo_channels()), 3)
        assert not parsed[0].is_sparse
        assert parsed[1].is_sparse

    def test_sensor_dispatch(self):
        parsed = parse_channel_headers(write_channel_headers(_demo_channels()), 3)
        assert sensor_readings([parsed[0]])[0][0] == 5000.0
        assert sensor_readings([parsed[0]])[1][0] is None
        assert sensor_readings([parsed[2]])[0][0] is None
        assert sensor_readings([parsed[2]])[1][0] == 128.0

    def test_notch_off_serialized_negative(self):
        buf = write_channel_headers(_demo_channels())
        notch = struct.unpack_from("<f", buf, 212 * 3 + 4)[0]
        assert notch == -1.0

    def test_unknown_filter_is_quiet_nan(self):
        buf = write_channel_headers([ChannelInfo(label="x")])
        assert buf[204:208] == struct.pack("<f", math.nan)
        parsed = parse_channel_headers(buf, 1)
        assert parsed[0].lowpass_hz is None

    def test_unknown_type_rejected(self):
        buf = bytearray(write_channel_headers(_demo_channels()[:1]))
        struct.pack_into("<I", buf, 220, 99)
        with pytest.raises(StructureError):
            parse_channel_headers(bytes(buf), 1)

    def test_dig_bounds_diagnostic(self):
        ch = ChannelInfo(label="bad", gdf_type=GdfType.INT16,
                         cal=Calibration(0, 1, -100.0, 40000.0))
        diags = Diagnostics()
        parse_channel_headers(write_channel_headers([ch]), 1, diags=diags)
        assert any(d.rule == "channel.dig_bounds_exceed_type" for d in diags)

    def test_label_overflow(self):
        with pytest.raises(DomainError):
            write_channel_headers([ChannelInfo(label="x" * 17)])

    def test_legacy_impedance_layout(self):
        ch = ChannelInfo(label="old", phys_dim=4256,
                         sensor_info=bytes([104]) + bytes(19))
        buf = write_channel_headers([ch], version_minor=10)
        assert buf[236] == 104
        parsed = parse_channel_headers(buf, 1, version_minor=10)
        z = sensor_readings([parsed[0]], version_minor=10)[0][0]
        assert z == pytest.approx(2 ** (104 / 8))

    def test_empty_channel_list(self):
        assert write_channel_headers([]) == b""
        assert parse_channel_headers(b"", 0) == []


label_st = st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=16)


@st.composite
def channel_st(draw):
    gdf_type = draw(st.sampled_from([GdfType.INT8, GdfType.INT16, GdfType.INT24,
                                     GdfType.UINT16, GdfType.FLOAT32, GdfType.FLOAT64]))
    from gdfkit.core import type_info
    info = type_info(gdf_type)
    if info.kind == "int":
        dig_min = draw(st.integers(info.min, info.max - 1))
        dig_max = draw(st.integers(dig_min + 1, info.max))
    else:
        dig_min, dig_max = -1000, 1000
    return ChannelInfo(
        label=draw(label_st),
        transducer=draw(label_st),
        phys_dim=draw(st.sampled_from([0, 512, 4275, 4256, 2496])),
        cal=Calibration(draw(st.integers(-1000, 0)) * 1.0,
                        draw(st.integers(1, 1000)) * 1.0,
                        float(dig_min), float(dig_max)),
        lowpass_hz=draw(st.one_of(st.none(), st.floats(0, 1000, width=32))),
        highpass_hz=draw(st.one_of(st.none(), st.floats(0, 10, width=32))),
        notch_hz=draw(st.sampled_from([None, -1.0, 50.0, 60.0])),
        samples_per_record=draw(st.integers(0, 64)),
        gdf_type=gdf_type,
        position=tuple(draw(st.lists(st.floats(-10, 10, width=32),
                                     min_size=3, max_size=3))),
        sensor_info=draw(st.binary(min_size=20, max_size=20)),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(channel_st(), max_size=5))
def test_channel_headers_byte_identity(channels):
    buf = write_channel_headers(channels)
    parsed = parse_channel_headers(buf, len(channels))
    assert write_channel_headers(parsed) == buf


def test_render_prefilter():
    assert render_prefilter(100.0, 0.5, 50.0) == "LP:100Hz HP:0.5Hz NOTCH:50Hz"
    assert render_prefilter(None, None, -1.0) == "LP:? HP:? NOTCH:off"
    assert render_prefilter(None, None, None) == "LP:? HP:? NOTCH:?"


def test_reserved_demographic_bits_round_trip_verbatim():
    buf = bytearray(write_fixed_header(_demo_header()))
    buf[84] = 0b11_00_11_00  # reserved patterns in two fields
    diags = Diagnostics()
    h = parse_fixed_header(bytes(buf), diags)
    assert h.patient.alcohol_abuse == TriState.RESERVED
    assert h.patient.medication == TriState.RESERVED
    assert any(d.rule == "demographics.reserved_bits" for d in diags)
    assert write_fixed_header(h)[84] == 0b11_00_11_00


def test_noncanonical_nan_diagnosed():
    buf = bytearray(write_channel_headers([ChannelInfo(label="x")]))
    buf[204:208] = b"\x01\x00\xc0\x7f"  # NaN with a payload bit set
    diags = Diagnostics()
    parsed = parse_channel_headers(bytes(buf), 1, diags=diags)
    assert parsed[0].lowpass_hz is None
    assert any(d.rule == "header.noncanonical_nan" for d in diags)

    ns = 2
    buf = bytearray(write_channel_headers([ChannelInfo(label="x")] * ns))
    buf[224 * ns:224 * ns + 4] = b"\x01\x00\x80\x7f"  # signalling NaN, channel 0 x
    diags = Diagnostics()
    parsed = parse_channel_headers(bytes(buf), ns, diags=diags)
    assert math.isnan(parsed[0].position[0])
    assert [(d.rule, d.section, d.offset) for d in diags] == \
        [("header.noncanonical_nan", "header2", 224 * ns)]

    table = bytearray(write_event_table(EventTable(1, 1.0, [], [])))
    table[4:8] = b"\x01\x00\x80\x7f"
    diags = Diagnostics()
    assert math.isnan(parse_event_table(bytes(table), diags).sample_rate_hz)
    assert [(d.rule, d.section, d.offset) for d in diags] == \
        [("header.noncanonical_nan", "events", 4)]


# Byte offset and on-disk type of every field, from the GDF 2.x specification
# (Schlögl, arXiv:cs/0608052); channel offsets are within one channel's
# 256-byte record and are multiplied by ns in the transposed variable header.
_SPEC_FIXED = [
    ("version", 0, "|V8"), ("pid", 8, "|S66"), ("reserved1", 74, "|V10"),
    ("demographics", 84, "|u1"), ("weight", 85, "|u1"), ("height", 86, "|u1"),
    ("physio", 87, "|u1"), ("rid", 88, "|V64"), ("location", 152, "|V16"),
    ("start", 168, "<u8"), ("birthday", 176, "<u8"), ("header_blocks", 184, "<u2"),
    ("icd", 186, "|S6"), ("equipment", 192, "<u8"), ("reserved2", 200, "|V6"),
    ("headsize", 206, "<u2", 3), ("reference", 212, "<f4", 3), ("ground", 224, "<f4", 3),
    ("n_records", 236, "<i8"), ("duration", 244, "<u4", 2), ("ns", 252, "<u4"),
]
_SPEC_LOCATION = [
    ("vertical_precision", 0, "|u1"), ("horizontal_precision", 1, "|u1"), ("size", 2, "|u1"),
    ("version", 3, "|u1"), ("latitude", 4, "<i4"), ("longitude", 8, "<i4"),
    ("altitude_cm", 12, "<i4"),
]
_SPEC_CHANNEL = [
    ("label", 0, "|S16"), ("transducer", 16, "|S80"), ("unit text", 96, "|S6"),
    ("phys_dim", 102, "<u2"), ("phys_min", 104, "<f8"), ("phys_max", 112, "<f8"),
    ("dig_min", 120, "<f8"), ("dig_max", 128, "<f8"), ("prefilter", 136, "|S68"),
    ("lowpass", 204, "<f4"), ("highpass", 208, "<f4"), ("notch", 212, "<f4"),
    ("samples_per_record", 216, "<u4"), ("type", 220, "<u4"), ("position", 224, "<f4", 3),
    ("sensor", 236, "|V20"),
]


def _field_rows(dtype, ns=None):
    """(name, offset, base type[, count]) of every field of a record dtype,
    with the per-channel count of a variable-header column."""
    rows = []
    for name, (sub, offset) in dtype.fields.items():
        shape = sub.shape[1:] if ns is not None else sub.shape
        rows.append((name, offset, sub.base.str, *shape))
    return rows


def test_field_tables_span_their_sections():
    assert _field_rows(_FIXED) == _SPEC_FIXED
    assert _FIXED.itemsize == FIXED_HEADER_SIZE
    assert _field_rows(_LOCATION) == _SPEC_LOCATION
    assert _LOCATION.itemsize == 16
    for ns in (1, 3):
        layout = _variable_header(ns, False)
        assert _field_rows(layout, ns) == [(name, ns * offset, *rest)
                                           for name, offset, *rest in _SPEC_CHANNEL]
        assert all(layout[name].shape[0] == ns for name in layout.names)
        assert layout.itemsize == CHANNEL_HEADER_SIZE * ns
        legacy = _variable_header(ns, True)
        assert _field_rows(legacy, ns) == [(name, ns * offset, *rest) for name, offset, *rest
                                           in _SPEC_CHANNEL[:-1]] + \
            [("sensor", ns * 236, "|V1"), ("sensor tail", ns * 237, "|V19")]
        assert legacy.itemsize == CHANNEL_HEADER_SIZE * ns


def test_text_after_nul_diagnosed():
    buf = bytearray(write_fixed_header(_demo_header()))
    buf[8:20] = b"P1\x00garbage!\x00"
    diags = Diagnostics()
    h = parse_fixed_header(bytes(buf), diags)
    assert h.patient.pid == "P1"
    assert any(d.rule == "header.text_after_nul" for d in diags)


@pytest.mark.parametrize("build", [
    lambda v: ChannelInfo(lowpass_hz=v),
    lambda v: RecordingInfo(reference_position=(v, 0.0, 0.0)),
    lambda v: EventTable(1, v, [1], [1]),
], ids=["channel-lowpass", "recording-position", "event-rate"])
def test_float32_fields_reject_finite_overflow(build):
    for value in (1e300, -1e300):
        with pytest.raises(DomainError, match=r"cannot hold -?1e\+300 \(float32\)"):
            build(value)
    for value in (math.inf, -math.inf, math.nan, 3.4028234e38):
        build(value)


@pytest.mark.parametrize("build, field", [
    (lambda v: ChannelInfo(lowpass_hz=v), "lowpass_hz"),
    (lambda v: ChannelInfo(notch_hz=v), "notch_hz"),
    (lambda v: ChannelInfo(position=(0.0, v, 0.0)), "position"),
    (lambda v: RecordingInfo(ground_position=(v, 0.0, 0.0)), "ground_position"),
    (lambda v: EventTable(1, v, [1], [1]), "sample_rate_hz"),
    (sensor_value_bytes, "sensor value"),
])
@pytest.mark.parametrize("value", [1e300, "x", [1.0, 2.0]])
def test_float32_refusal_names_the_field(build, field, value):
    with pytest.raises(DomainError, match=rf"^{field} cannot hold "):
        build(value)


def test_unknown_type_code_refused():
    with pytest.raises(DomainError, match="99") as exc:
        ChannelInfo(gdf_type=99)
    assert exc.value.rule == "channel.type_unknown"


class TestWrongLengthTuples:
    def test_channel_position(self):
        with pytest.raises(DomainError, match="position needs 3 values, got 2"):
            write_channel_headers([ChannelInfo(position=(1.0, 2.0))])

    def test_reference_position(self):
        with pytest.raises(DomainError, match="reference_position needs 3 values, got 2"):
            write_fixed_header(FixedHeader(recording=RecordingInfo(
                reference_position=(1.0, 2.0))))

    def test_ground_position(self):
        with pytest.raises(DomainError, match="ground_position needs 3 values, got 4"):
            write_fixed_header(FixedHeader(recording=RecordingInfo(
                ground_position=(1.0, 2.0, 3.0, 4.0))))

    def test_headsize(self):
        with pytest.raises(DomainError, match="headsize_mm needs 3 values, got 4"):
            write_fixed_header(FixedHeader(patient=PatientInfo(headsize_mm=(1, 2, 3, 4))))

    @pytest.mark.parametrize("build, field", [
        (lambda v: ChannelInfo(position=v), "position"),
        (lambda v: RecordingInfo(reference_position=v), "reference_position"),
        (lambda v: RecordingInfo(ground_position=v), "ground_position"),
        (lambda v: PatientInfo(headsize_mm=v), "headsize_mm"),
    ])
    @pytest.mark.parametrize("value", [5, 1.5, None])
    def test_scalar_refused(self, build, field, value):
        with pytest.raises(DomainError, match=rf"^{field} needs 3 values, got {value}$"):
            build(value)


@pytest.mark.parametrize("header, message", [
    (FixedHeader(patient=PatientInfo(weight_kg=300)), "weight cannot hold 300 (uint8)"),
    (FixedHeader(recording=RecordingInfo(equipment_id=-1)),
     "equipment cannot hold -1 (uint64)"),
])
def test_scalar_refusal_quotes_the_value(header, message):
    with pytest.raises(DomainError) as exc:
        write_fixed_header(header)
    assert str(exc.value) == message


@pytest.mark.parametrize("write, message", [
    (lambda: write_channel_headers([ChannelInfo(), ChannelInfo(label="a\x00b")]),
     "label[1]: text holds a NUL byte"),
    (lambda: write_channel_headers([ChannelInfo(transducer="\x00")]),
     "transducer[0]: text holds a NUL byte"),
    (lambda: write_channel_headers([ChannelInfo(phys_dim_ascii="u\x00")]),
     "unit text[0]: text holds a NUL byte"),
    (lambda: write_channel_headers([ChannelInfo(prefilter="x\x00")]),
     "prefilter[0]: text holds a NUL byte"),
    (lambda: write_fixed_header(FixedHeader(patient=PatientInfo(pid="P\x00 X X"))),
     "patient identification: text holds a NUL byte"),
    (lambda: write_fixed_header(FixedHeader(recording=RecordingInfo(rid="r\x00"))),
     "recording identification: text holds a NUL byte"),
    (lambda: write_fixed_header(FixedHeader(recording=RecordingInfo(rid="r\x00",
                                                                    location=None))),
     "recording identification: text holds a NUL byte"),
    (lambda: write_fixed_header(FixedHeader(patient=PatientInfo(icd_code="\x00a"))),
     "ICD classification: text holds a NUL byte"),
])
def test_text_with_nul_refused(write, message):
    """A reader ends a header text at its first NUL, so "a\\x00b" would read
    back as "a"."""
    with pytest.raises(DomainError, match="NUL") as exc:
        write()
    assert str(exc.value).startswith(message)


def test_version_nul_padding_written_as_padding():
    """The version field is read with every byte, NUL padding included."""
    assert write_fixed_header(FixedHeader(version="GDF 2.1\x00"))[:8] == b"GDF 2.1\x00"


@pytest.mark.parametrize("field, value", [
    ("smoking", 7), ("alcohol_abuse", 4), ("drug_abuse", -1), ("medication", 4),
    ("gender", 5), ("handedness", 4), ("visual_impairment", 8), ("heart_impairment", -2),
])
def test_two_bit_fields_reject_out_of_range(field, value):
    with pytest.raises(DomainError, match=rf"^{field} cannot hold {value} "):
        write_fixed_header(FixedHeader(patient=PatientInfo(**{field: value})))


@pytest.mark.parametrize("field, header", [
    ("weight", FixedHeader(patient=PatientInfo(weight_kg=70.0))),
    ("headsize", FixedHeader(patient=PatientInfo(headsize_mm=(1, 2.0, 3)))),
    ("latitude", FixedHeader(recording=RecordingInfo(location=Location(latitude=5.0)))),
    ("n_records", FixedHeader(n_records=7.0)),
    ("duration", FixedHeader(duration_den=1.0)),
    ("ns", FixedHeader(header_blocks=1, ns=0.0)),
])
def test_integral_float_fixed_field_refused(field, header):
    """numpy would store 7.0 as 7; an integer field takes integers only."""
    with pytest.raises(DomainError, match=rf"^{field} cannot hold "):
        write_fixed_header(header)


@pytest.mark.parametrize("code", [3.0, 70000])
def test_unit_code_checked_before_default_unit_text(code):
    """The default unit text is rendered from the code, so the code comes first."""
    with pytest.raises(DomainError, match=rf"^phys_dim\[1\] cannot hold {code} "):
        write_channel_headers([ChannelInfo(), ChannelInfo(phys_dim=code)])


# --- differential test against a struct reference ---------------------------
#
# A compact reference of the three layouts that unpacks and packs each field
# with `struct` at offsets it works out itself. Parsing is compared on model,
# diagnostics and exception; writing on bytes, or on the exception type and
# the field it names. The variable-header writer checks the unit codes,
# renders the default texts channel by channel, then checks its columns in
# file order, channel by channel within a column.

_REF_FIXED = [
    ("version", "8s"), ("pid", "66s"), ("reserved1", "10s"), ("demographics", "B"),
    ("weight", "B"), ("height", "B"), ("physio", "B"), ("rid", "64s"), ("location", "16s"),
    ("start", "Q"), ("birthday", "Q"), ("header_blocks", "H"), ("icd", "6s"),
    ("equipment", "Q"), ("reserved2", "6s"), ("headsize", "3H"), ("reference", "3f"),
    ("ground", "3f"), ("n_records", "q"), ("duration", "2I"), ("ns", "I"),
]
_REF_LOCATION = [("vertical_precision", "B"), ("horizontal_precision", "B"), ("size", "B"),
                 ("version", "B"), ("latitude", "i"), ("longitude", "i"), ("altitude_cm", "i")]
_REF_CHANNEL = [
    ("label", "16s"), ("transducer", "80s"), ("unit text", "6s"), ("phys_dim", "H"),
    ("phys_min", "d"), ("phys_max", "d"), ("dig_min", "d"), ("dig_max", "d"),
    ("prefilter", "68s"), ("lowpass", "f"), ("highpass", "f"), ("notch", "f"),
    ("samples_per_record", "I"), ("type", "I"), ("position", "3f"), ("sensor", "20s"),
]


def _ref_table(minor):
    if minor < 19:
        return _REF_CHANNEL[:-1] + [("sensor", "1s"), ("sensor tail", "19s")]
    return _REF_CHANNEL


def _ref_unpack(table, buf, ns=1):
    """name -> [(offset, values)] per channel of a struct-of-arrays section."""
    fields, at = {}, 0
    for name, fmt in table:
        s = struct.Struct("<" + fmt)
        fields[name] = [(at + i * s.size, s.unpack_from(buf, at + i * s.size))
                        for i in range(ns)]
        at += ns * s.size
    return fields


def _ref_pack(table, columns, label):
    """Pack {name: [value per channel]} column by column. A callable value
    (a channel's text) is evaluated in that order; a value struct rejects
    raises DomainError naming the field."""
    out = []
    for name, fmt in table:
        for i, v in enumerate(columns[name]):
            v = v() if callable(v) else v
            try:
                out.append(struct.pack("<" + fmt, *(v if isinstance(v, tuple) else (v,))))
            except (struct.error, OverflowError):
                raise DomainError(label(name, i)) from None
    return b"".join(out)


def _ref_nan_checked(values, buf, offset, diags, section):
    """Report each float32 NaN of ``values`` (read from ``offset`` in
    ``buf``) whose bytes are not the canonical quiet NaN."""
    for k, v in enumerate(values):
        at = offset + 4 * k
        if v != v and bytes(buf[at:at + 4]) != struct.pack("<f", math.nan):
            diags.info("header.noncanonical_nan",
                       "NaN payload bits are not the canonical quiet NaN",
                       section=section, offset=at)
    return values


def _ref_parse_fixed(buf, diags):
    f = {name: col[0] for name, col in _ref_unpack(_REF_FIXED, buf).items()}
    val = {name: v if len(v) > 1 else v[0] for name, (_, v) in f.items()}
    at = {name: off for name, (off, _) in f.items()}
    version = val["version"].decode("latin-1")
    if not version.startswith("GDF "):
        raise FormatError(f"not a GDF file (version field {version!r})", rule="header.magic")
    m = re.match(r"GDF (\d+)\.(\d+)", version)
    if not m:
        raise VersionError(f"malformed GDF version field {version!r}", rule="header.version")
    if int(m.group(1)) != 2:
        raise VersionError(f"unsupported GDF major version {m.group(1)}",
                           rule="header.version")
    pid = _read_text(val["pid"], at["pid"], "patient identification", diags)
    _check_reserved(val["reserved1"], at["reserved1"], diags)
    lifestyle = unpack_demographics(val["demographics"])
    if TriState.RESERVED in lifestyle:
        diags.warning("demographics.reserved_bits",
                      "lifestyle byte uses the reserved 0b11 pattern",
                      section="header1", offset=at["demographics"])
    physio = unpack_physio(val["physio"])
    if physio[0] is Gender.RESERVED:
        diags.warning("demographics.reserved_bits", "gender bits use the reserved 0b11 pattern",
                      section="header1", offset=at["physio"])
    loc = dict(zip([n for n, _ in _REF_LOCATION],
                   struct.unpack("<" + "".join(f for _, f in _REF_LOCATION), val["location"])))
    if loc.pop("version"):
        location = None
        rid = _read_text(val["rid"] + val["location"][:4], at["rid"],
                         "recording identification", diags)
        if any(val["location"][4:]):
            diags.warning("location.absent_data_nonzero",
                          "location marked absent but coordinate bytes are not zero",
                          section="header1", offset=at["location"] + 4)
    else:
        location = Location(**loc)
        rid = _read_text(val["rid"], at["rid"], "recording identification", diags)
    icd = _read_text(val["icd"], at["icd"], "ICD classification", diags)
    _check_reserved(val["reserved2"], at["reserved2"], diags)
    reference = _ref_nan_checked(val["reference"], buf, at["reference"], diags, "header1")
    ground = _ref_nan_checked(val["ground"], buf, at["ground"], diags, "header1")
    ns, n_records, blocks = val["ns"], val["n_records"], val["header_blocks"]
    if ns >> 16:
        raise StructureError(f"channel count field 0x{ns:08x} has its high bits set",
                             rule="header.ns_range", offset=at["ns"])
    if n_records < -1:
        raise StructureError(f"record count {n_records} is invalid",
                             rule="header.nrec_invalid", offset=at["n_records"])
    if blocks < ns + 1:
        raise StructureError(f"header length {blocks} blocks is less than NS+1 = {ns + 1}",
                             rule="header.blocks_too_small", offset=at["header_blocks"])
    patient = PatientInfo(pid, *lifestyle, val["weight"], val["height"], *physio,
                          GdfTime(val["birthday"]), icd, val["headsize"])
    recording = RecordingInfo(rid, location, GdfTime(val["start"]), val["equipment"],
                              reference, ground)
    return FixedHeader(version, patient, recording, blocks, n_records, *val["duration"], ns)


def _ref_parse_channels(buf, ns, minor, diags):
    if len(buf) != 256 * ns:
        raise StructureError(f"variable header needs {256 * ns} bytes, got {len(buf)}")
    fields = _ref_unpack(_ref_table(minor), buf, ns)
    channels = []
    for i in range(ns):
        f = {name: col[i] for name, col in fields.items()}
        val = {name: v if len(v) > 1 else v[0] for name, (_, v) in f.items()}
        if minor < 19:
            val["sensor"] += val["sensor tail"]
        if not is_known_type(val["type"]):
            raise StructureError(f"channel {i}: unknown data type code {val['type']}",
                                 rule="channel.type_unknown", offset=256 + f["type"][0])

        def text(name):
            return _old_read_text(val[name], f[name][0], f"{name}[{i}]", diags, "header2")

        def frequency(name):
            if val[name] == val[name]:
                return val[name]
            _ref_nan_checked((val[name],), buf, f[name][0], diags, "header2")
            return None

        ch = ChannelInfo(
            text("label"), text("transducer"), text("unit text"), val["phys_dim"],
            Calibration(val["phys_min"], val["phys_max"], val["dig_min"], val["dig_max"]),
            text("prefilter"), frequency("lowpass"), frequency("highpass"),
            frequency("notch"), val["samples_per_record"], GdfType(val["type"]),
            _ref_nan_checked(val["position"], buf, f["position"][0], diags, "header2"),
            val["sensor"])
        _old_check_channel(ch, i, diags)
        channels.append(ch)
    return channels


# The variable-header parser that built one ChannelInfo per channel, with its
# text reader and per-channel rules, kept as the oracle of ChannelTable.

def _old_read_text(raw, offset, name, diags, section="header1"):
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


def _old_parse_channel_headers(buf, ns, *, version_minor=20, diags=None):
    diags = Diagnostics() if diags is None else diags
    if len(buf) != CHANNEL_HEADER_SIZE * ns:
        raise StructureError(
            f"variable header needs {CHANNEL_HEADER_SIZE * ns} bytes, got {len(buf)}")
    layout = _variable_header(ns, version_minor < 19)
    record = np.ndarray((), layout, buf)
    found = [Diagnostics() for _ in range(ns)]  # each channel's findings, in field order
    columns = []
    for name in layout.names:  # _CHANNEL_FIELDS order
        column, start = record[name], layout.fields[name][1]
        if column.dtype.kind == "S":
            size = column.dtype.itemsize
            columns.append([_old_read_text(raw, start + i * size, f"{name}[{i}]", found[i],
                                           "header2")
                            for i, raw in enumerate(column.tolist())])
        elif column.dtype == np.float32:  # a filter frequency (NaN: unknown), or the position
            nans = Diagnostics()
            values = _nan_checked(column, start, nans, "header2")
            for d in nans:  # to the channel whose value it is
                found[(d.offset - start) // column.strides[0]].append(d)
            columns.append(values if column.ndim > 1 else [None if v != v else v for v in values])
        else:
            columns.append(column.tolist())
    if version_minor < 19:  # the sensor area's 1-byte and 19-byte columns
        tail = columns.pop()
        columns.append(list(map(bytes.__add__, columns.pop(), tail)))

    channels = []
    for i, row in enumerate(zip(*columns)):  # row[13] is the type code
        if not is_known_type(row[13]):
            raise StructureError(f"channel {i}: unknown data type code {row[13]}",
                                 rule="channel.type_unknown",
                                 offset=FIXED_HEADER_SIZE + layout.fields["type"][1] + 4 * i)
        ch = ChannelInfo(*row[:4], Calibration(*row[4:8]), *row[8:])  # fields in file order
        diags.extend(found[i])
        _old_check_channel(ch, i, diags)
        channels.append(ch)
    return channels


def _old_check_channel(ch, index, diags):
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
    if not (hasattr(ch.phys_dim, "__index__") and 0 <= ch.phys_dim <= 0xFFFF):
        diags.error("channel.physdim_invalid", f"channel {index}: unit code "
                    f"{ch.phys_dim!r} is not an integer in 0..65535", section="header2")
    elif (prefix := ch.phys_dim & 0x1F) in units.NONSTANDARD_PREFIXES:
        diags.warning("channel.physdim_nonstandard_prefix",
                      f"channel {index}: unit code {ch.phys_dim} uses reserved "
                      f"decimal prefix {prefix}", section="header2")


def _ref_two_bits(**fields):
    for name, v in fields.items():
        if not 0 <= v <= 3:
            raise DomainError(name)
    return sum(int(v) << (2 * k) for k, v in enumerate(fields.values()))


def _ref_text(text, size, label):
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError:
        raise DomainError(f"{label}: text is not latin-1 encodable") from None
    if len(data) > size:
        raise DomainError(f"{label}: {len(data)} bytes exceed the {size}-byte field")
    return data


def _ref_write_fixed(h):
    """Checks the recording id, the location, the other texts and the bit
    fields, then the numbers, each group in file order."""
    p, r, loc = h.patient, h.recording, h.recording.location
    rid = _ref_text(r.rid, 64 if loc else 68, "recording identification")
    rid = rid if loc else rid.ljust(68, b" ")  # keeps the location version byte nonzero
    location = rid[64:] if loc is None else _ref_pack(_REF_LOCATION, {
        name: [0 if name == "version" else getattr(loc, name)] for name, _ in _REF_LOCATION},
        lambda name, i: name)
    fields = {
        "version": _ref_text(h.version, 8, "version"),
        "pid": _ref_text(p.pid, 66, "patient identification"), "reserved1": b"",
        "demographics": _ref_two_bits(smoking=p.smoking, alcohol_abuse=p.alcohol_abuse,
                                      drug_abuse=p.drug_abuse, medication=p.medication),
        "weight": p.weight_kg, "height": p.height_cm,
        "physio": _ref_two_bits(gender=p.gender, handedness=p.handedness,
                                visual_impairment=p.visual_impairment,
                                heart_impairment=p.heart_impairment),
        "rid": rid[:64], "location": location,
        "start": r.start_time.raw, "birthday": p.birthday.raw,
        "header_blocks": h.header_blocks or h.ns + 1,
        "icd": _ref_text(p.icd_code, 6, "ICD classification"),
        "equipment": r.equipment_id, "reserved2": b"", "headsize": tuple(p.headsize_mm),
        "reference": r.reference_position, "ground": r.ground_position,
        "n_records": h.n_records, "duration": (h.duration_num, h.duration_den), "ns": h.ns,
    }
    return _ref_pack(_REF_FIXED, {k: [v] for k, v in fields.items()}, lambda name, i: name)


def _ref_write_channels(channels, minor):
    def text(name, value, i):
        size = struct.calcsize(dict(_REF_CHANNEL)[name])
        return lambda: _ref_text(value, size, f"{name}[{i}]")

    def nan(v):
        return math.nan if v is None else v

    for i, ch in enumerate(channels):  # the unit codes first: the default unit text needs them
        _ref_pack([("phys_dim", "H")], {"phys_dim": [ch.phys_dim]}, lambda name, _: f"{name}[{i}]")
    columns = {name: [] for name, _ in _ref_table(minor)}
    for i, ch in enumerate(channels):
        for name, value in [
            ("label", text("label", ch.label, i)),
            ("transducer", text("transducer", ch.transducer, i)),
            ("unit text", text("unit text", render_phys_dim_ascii(ch.phys_dim)
                               if ch.phys_dim_ascii is None else ch.phys_dim_ascii, i)),
            ("phys_dim", ch.phys_dim), ("phys_min", ch.cal.phys_min),
            ("phys_max", ch.cal.phys_max), ("dig_min", ch.cal.dig_min),
            ("dig_max", ch.cal.dig_max),
            ("prefilter", text("prefilter", render_prefilter(
                ch.lowpass_hz, ch.highpass_hz, ch.notch_hz)
                if ch.prefilter is None else ch.prefilter, i)),
            ("lowpass", nan(ch.lowpass_hz)), ("highpass", nan(ch.highpass_hz)),
            ("notch", nan(ch.notch_hz)), ("samples_per_record", ch.samples_per_record),
            ("type", int(ch.gdf_type)), ("position", tuple(ch.position)),
        ]:
            columns[name].append(value)
        if minor < 19:
            columns["sensor"].append(ch.sensor_info[:1])
            columns["sensor tail"].append(ch.sensor_info[1:])
        else:
            columns["sensor"].append(ch.sensor_info)
    return _ref_pack(_ref_table(minor), columns, lambda name, i: f"{name}[{i}]")


def _write_outcome(fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except DomainError as exc:
        return DomainError, str(exc)


def _same_write(got, want):
    """Same bytes, or a DomainError naming the same field."""
    if isinstance(want, bytes) or isinstance(got, bytes):
        return got == want
    return got == want or got[1].startswith(want[1] + " cannot hold ")


def _parse_outcome(fn, *args):
    """A parse's exception, or its model, shown as the list of channels a
    ChannelTable stands for, and its diagnostics."""
    diags = Diagnostics()
    try:
        model = fn(*args, diags)
    except GdfError as exc:
        return type(exc), str(exc), exc.rule, exc.offset, list(diags)
    return repr(list(model) if isinstance(model, ChannelTable) else model), list(diags), model


def _small(bits, signed=False, bad=False):
    """Integers of a field: in range and at its bounds, or (when ``bad``)
    sometimes just beyond it or an integral float."""
    lo, hi = (-(1 << bits - 1), (1 << bits - 1) - 1) if signed else (0, (1 << bits) - 1)
    edges = [lo, hi, lo - 1, hi + 1, float(lo)] if bad else [lo, hi]
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi), st.sampled_from(edges))


def _texts(bad=False, size=8):
    """Texts that fit ``size`` bytes, some space-padded; when ``bad``, some
    too long or not latin-1."""
    return st.text(st.characters(min_codepoint=1, max_codepoint=300 if bad else 255),
                   max_size=size - 1 + 2 * bad).map(lambda t: t + " " * (len(t) % 3 == 0))


_f32 = st.floats(width=32)
_triples = st.tuples(_f32, _f32, _f32)


@st.composite
def _fixed_headers(draw):
    """One header in four may hold values its fields cannot."""
    bad = draw(st.integers(0, 3)) == 0
    ns = draw(st.integers(0, 3))
    texts, small = _texts(bad, 6), functools.partial(_small, bad=bad)
    bits = st.one_of(st.integers(0, 3), st.sampled_from([-1, 4, 7] if bad else [3]))
    location = draw(st.one_of(st.none(), st.builds(
        Location, small(8), small(8), small(8), small(32, True), small(32, True),
        small(32, True))))
    return FixedHeader(
        version=draw(st.sampled_from(["GDF 2.20", "GDF 2.1"] + ["GDF 2.10x"] * bad)),
        patient=PatientInfo(
            draw(st.one_of(texts, st.just("x" * (66 + bad)))),
            *(draw(bits) for _ in range(4)), draw(small(8)), draw(small(8)),
            *(draw(bits) for _ in range(4)),
            GdfTime(draw(st.integers(0, (1 << 64) - 1))), draw(texts),
            draw(st.tuples(small(16), small(16), small(16)))),
        recording=RecordingInfo(
            draw(st.one_of(texts, st.just("r" * (64 + bad + 4 * (location is None))))),
            location,
            GdfTime(draw(st.integers(0, (1 << 64) - 1))), draw(small(64)),
            draw(_triples), draw(_triples)),
        header_blocks=draw(st.sampled_from([0, ns + 1, 0xFFFF] + [0x10000, ns + 1.0] * bad)),
        n_records=draw(st.sampled_from([-1, 0, 7, (1 << 63) - 1] + [1 << 63, 7.0] * bad)),
        duration_num=draw(small(32)), duration_den=draw(small(32)), ns=ns)


@st.composite
def _channels(draw, bad):
    texts = _texts(bad)
    return ChannelInfo(
        draw(texts), draw(texts), draw(st.one_of(st.none(), _texts(bad, 6))),
        draw(_small(16, bad=bad)),
        Calibration(*(draw(st.floats()) for _ in range(4))),
        draw(st.one_of(st.none(), texts)),
        *(draw(st.one_of(st.none(), _f32)) for _ in range(3)),
        draw(st.one_of(st.integers(0, (1 << 32) - 1),
                       st.sampled_from([(1 << 32) - 1 + bad] + [2.0] * bad))),
        draw(st.sampled_from(list(GdfType))), draw(_triples),
        draw(st.binary(min_size=20, max_size=20)))


# byte strings the parse mutations write: padding, text after a NUL, NaN
# payloads, a nonzero location version byte, type codes known and unknown
_PATCHES = [b" ", b"  ", b"\x00", b"\x00x", b"x", b"\xe9", b"\x01", b"\x03", b"\xff",
            b"\x01\x00\xc0\x7f", b"\x00\x00\x80\x7f", b"\xff\xff\xff\xff",
            b"\x00\x00\xc0\x7f", b"\x63\x00\x00\x00", b"\x17\x01\x00\x00",
            b"\x11\x00\x00\x00", b"GDF 2.", b"GDF 3.0", b"EDF"]


def _patched(draw, buf, starts):
    """``buf`` with a few patches, each at or near the start of a field."""
    buf = bytearray(buf)
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.sampled_from(starts)) + draw(st.sampled_from([0, 0, 1, 3, -1, -2]))
        payload = draw(st.one_of(st.sampled_from(_PATCHES), st.binary(min_size=1, max_size=4)))
        at = min(max(at, 0), len(buf) - len(payload))
        if at >= 0:
            buf[at:at + len(payload)] = payload
    return bytes(buf)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fixed_header_against_struct_reference(data):
    h = data.draw(_fixed_headers())
    want = _write_outcome(_ref_write_fixed, h)
    assert _same_write(_write_outcome(write_fixed_header, h), want)
    if not isinstance(want, bytes):
        return
    starts = [at for _, at, *_ in _SPEC_FIXED] + [152 + k for k in range(16)] \
        + list(range(212, 236, 4)) + [36, 72, 120, 148, 154, 155]
    buf = _patched(data.draw, want, starts)
    got, ref = _parse_outcome(parse_fixed_header, buf), _parse_outcome(_ref_parse_fixed, buf)
    assert got[:-1] == ref[:-1] if len(got) == 3 else got == ref
    if len(got) == 3:
        assert _same_write(_write_outcome(write_fixed_header, got[2]),
                           _write_outcome(_ref_write_fixed, ref[2]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_channel_headers_against_struct_reference(data):
    # one list in four may hold values its fields cannot
    channels = data.draw(st.lists(_channels(data.draw(st.integers(0, 3)) == 0), max_size=4))
    minor = data.draw(st.sampled_from([10, 20]))
    want = _write_outcome(_ref_write_channels, channels, minor)
    assert _same_write(_write_outcome(write_channel_headers, channels, version_minor=minor),
                       want)
    if not isinstance(want, bytes) or not channels:
        return
    ns = len(channels)
    starts = [ns * at + i * struct.calcsize(fmt)
              for (_, fmt), (_, at, *_) in zip(_REF_CHANNEL, _SPEC_CHANNEL)
              for i in range(ns)] + [ns * 237]
    buf = _patched(data.draw, want, starts)

    def parse(reference):
        if reference:
            return lambda b, d: _ref_parse_channels(b, ns, minor, d)
        return lambda b, d: parse_channel_headers(b, ns, version_minor=minor, diags=d)

    got, ref = _parse_outcome(parse(False), buf), _parse_outcome(parse(True), buf)
    assert got[:-1] == ref[:-1] if len(got) == 3 else got == ref
    if len(got) == 3:
        assert _same_write(
            _write_outcome(write_channel_headers, got[2], version_minor=minor),
            _write_outcome(_ref_write_channels, ref[2], minor))


# --- ChannelTable against the list-building parser and the struct reference
#
# A variable header of ns channels in either sensor layout, written from a
# varied template, then patched cell by cell with the anomalies each finding
# stands for.

_TEMPLATE_TYPES = [GdfType.INT16, GdfType.UINT8, GdfType.INT24, GdfType.FLOAT32,
                   GdfType.INT64, GdfType.UINT64, GdfType.FLOAT64, GdfType.UINT32]


@functools.lru_cache
def _template(ns, minor):
    """A header without findings."""
    return write_channel_headers([ChannelInfo(
        label=f"ch{i}", transducer="AgAgCl" * (i % 3), phys_dim=(4256, 4275, 4288, 512)[i % 4],
        cal=Calibration(-1.0 * i, 1.0 + i, float(i % 50), 100.0 + i % 100),
        prefilter=None if i % 2 else "LP:?", lowpass_hz=None if i % 3 else 70.0 + i,
        notch_hz=(None, -1.0, 50.0)[i % 3], samples_per_record=0 if i % 7 == 1 else i % 5 + 1,
        gdf_type=GdfType.UINT32 if i % 7 == 1 else _TEMPLATE_TYPES[i % len(_TEMPLATE_TYPES)],
        position=(float(i), -0.5, math.nan if i % 4 == 0 else 2.0),
        sensor_info=sensor_value_bytes(1000.0 + i)) for i in range(ns)], version_minor=minor)


_NANS = [b"\x01\x00\xc0\x7f", b"\x01\x00\x80\x7f", b"\x00\x00\xc0\xff", b"\x00\x00\xc0\x7f",
         b"\x00\x00\x80\x7f"]
_BOUNDS = [(5.0, 1.0), (3.0, 3.0), (-1e10, 1e10), (math.nan, 1.0), (-128.0, 255.0),
           (-2.0 ** 63, 2.0 ** 63), (0.0, 2.0 ** 64), (0.0, 2.0 ** 64 - 2048), (-0.0, 0.0)]


@st.composite
def _anomalous_headers(draw):
    ns = draw(st.sampled_from([0, 1, 9, 64, 512]))
    minor = draw(st.sampled_from([10, 18, 19, 20]))
    buf = bytearray(_template(ns, minor))
    layout = _variable_header(ns, minor < 19)

    def put(name, k, data, j=0):
        sub, start = layout.fields[name]
        at = start + k * (sub.itemsize // ns) + j
        buf[at:at + len(data)] = data

    for _ in range(draw(st.integers(0, 12)) if ns else 0):
        k = draw(st.integers(0, ns - 1))
        kind = draw(st.sampled_from(["after_nul", "spaces", "nan", "type", "bounds", "wide",
                                     "prefix"]))
        if kind in ("after_nul", "spaces"):
            name = draw(st.sampled_from(["label", "transducer", "unit text", "prefilter"]))
            size = layout[name].base.itemsize
            text = draw(st.sampled_from([b"a\x00b", b"\x00\x00\x01", b"\x00" * (size - 1) + b"z"])
                        if kind == "after_nul" else
                        st.sampled_from([b"x ", b" ", b" " * size, b"ab  \x00\x00"]))
            put(name, k, text.ljust(size, b"\x00")[:size])
        elif kind == "nan":
            name = draw(st.sampled_from(["lowpass", "highpass", "notch", "position"]))
            put(name, k, draw(st.sampled_from(_NANS)),
                4 * draw(st.integers(0, 2)) if name == "position" else 0)
        elif kind == "type":
            put("type", k, struct.pack("<I", draw(st.sampled_from([0, 9, 19, 280, 536, 2**32 - 1]))))
        elif kind == "bounds":
            lo, hi = draw(st.sampled_from(_BOUNDS))
            put("dig_min", k, struct.pack("<d", lo))
            put("dig_max", k, struct.pack("<d", hi))
        elif kind == "wide":
            put("samples_per_record", k, bytes(4))
            put("type", k, struct.pack("<I", draw(st.sampled_from(
                [GdfType.INT64, GdfType.UINT64, GdfType.FLOAT64, GdfType.FLOAT128, GdfType.INT24]))))
        else:
            put("phys_dim", k, struct.pack("<H", 4256 | draw(st.integers(0, 31))))
    return bytes(buf), ns, minor


@settings(max_examples=150, deadline=None)
@given(_anomalous_headers())
def test_channel_table_against_list_parser(case):
    buf, ns, minor = case
    got = _parse_outcome(lambda b, d: parse_channel_headers(b, ns, version_minor=minor, diags=d),
                         buf)
    old = _parse_outcome(lambda b, d: _old_parse_channel_headers(b, ns, version_minor=minor,
                                                                 diags=d), buf)
    ref = _parse_outcome(lambda b, d: _ref_parse_channels(b, ns, minor, d), buf)
    assert got[:2] == old[:2] == ref[:2] if len(got) == 3 else got == old == ref
    for rule in {d.rule for d in got[-2 if len(got) == 3 else -1]}:
        event(rule)
    if len(got) != 3:
        event(got[2])
        return
    table, channels = got[2], old[2]
    assert isinstance(table, ChannelTable) and len(table) == ns
    assert table == parse_channel_headers(buf, ns, version_minor=minor)  # NaN included
    assert _same_channels([table[i] for i in range(-ns, ns)], channels + channels)
    assert _same_channels(table[1::3], channels[1::3])
    for attr in _ATTRS_AND_CAL:  # a table's type codes are plain integers
        want = channel_column(channels, attr)
        want = list(map(int, want)) if attr == "gdf_type" else want
        assert _same_values(channel_column(table, attr), want), attr
    for layout_minor in (10, 20):  # the stored bytes, or the channels written again
        assert write_channel_headers(table, version_minor=layout_minor) \
            == write_channel_headers(channels, version_minor=layout_minor)
    if not [d for d in got[1] if d.rule.startswith("header.")]:
        assert write_channel_headers(table, version_minor=minor) == buf
    rules, by_list, by_old = Diagnostics(), Diagnostics(), Diagnostics()
    check_channels(table, rules)
    check_channels(channels, by_list)
    for i, ch in enumerate(channels):
        _old_check_channel(ch, i, by_old)
    assert rules == by_list == by_old == [d for d in got[1] if d.rule.startswith("channel.")]


def _same_values(got, want):
    """Equal column values of equal Python types, NaN equal to NaN (numbers
    and position triples are compared as float64 arrays)."""
    if [type(v) for v in got] != [type(v) for v in want]:
        return False
    got, want = ([astuple(v) if isinstance(v, Calibration) else v for v in values]
                 for values in (got, want))
    numbers = [v for v in want if isinstance(v, (float, tuple))]
    if not numbers:
        return got == want
    return np.array_equal(np.array(got, np.float64), np.array(want, np.float64), equal_nan=True)


def _same_channels(got, want):
    """Equal channel lists, compared column by column with NaN equal to NaN."""
    return len(got) == len(want) and all(
        _same_values(channel_column(got, attr), channel_column(want, attr))
        for attr in _ATTRS_AND_CAL)


_ATTRS_AND_CAL = ["label", "transducer", "phys_dim_ascii", "phys_dim", "cal", "cal.phys_min",
                  "cal.dig_max", "prefilter", "lowpass_hz", "highpass_hz", "notch_hz",
                  "samples_per_record", "gdf_type", "position", "sensor_info"]


@pytest.mark.parametrize("dig_min, dig_max", [
    (-2**63, 2**63 - 1), (-2**63, 2**63), (-2**63 - 1, 0), (0, 2**64 - 1), (-0.5, 2**64),
    (-2.0**63, 2.0**63), (-1e300, 1.5), (math.nan, 0), ("x", 1), (5, 1)])
def test_model_rules_compare_exactly(dig_min, dig_max):
    """A model's bounds may be Python integers beyond float64 or values of
    no number type; the rules compare them as the per-channel check did."""
    channels = [ChannelInfo(cal=Calibration(0, 1, dig_min, dig_max), gdf_type=t,
                            phys_dim=code, samples_per_record=spr)
                for t in (GdfType.INT64, GdfType.UINT64, GdfType.INT16)
                for code, spr in ((4256, 1), (4256 | 11, 0), (70000, 1), ("uV", 0), (2.0, 1))]

    def outcome(check):
        diags = Diagnostics()
        try:
            check(diags)
        except TypeError as exc:
            return type(exc), list(diags)
        return list(diags)
    want = outcome(lambda d: [_old_check_channel(ch, i, d) for i, ch in enumerate(channels)])
    assert outcome(lambda d: check_channels(channels, d)) == (
        want if isinstance(want, list) else (TypeError, []))


def test_channel_table_sequence_contract():
    channels = _demo_channels()
    table = parse_channel_headers(write_channel_headers(channels), 3)
    written = list(table)  # the unit and prefilter texts as written
    assert table == written and written == table and table == tuple(written)
    assert table == parse_channel_headers(write_channel_headers(channels), 3)
    assert table != written[:2] and table != written[::-1] and table != "x"
    assert parse_channel_headers(b"", 0) == [] and [] == parse_channel_headers(b"", 0)
    assert table[-1] == written[2] and table[:2] == written[:2]
    assert written[1] in table and table.index(written[2]) == 2
    with pytest.raises(IndexError):
        table[3]
    with pytest.raises(TypeError):
        table[0] = written[0]
    edited = [written[0], replace(written[1], label="edited"), written[2]]
    assert parse_channel_headers(write_channel_headers(edited), 3)[1].label == "edited"


@pytest.mark.parametrize("minor", [10, 20])
def test_channel_table_equal_with_nan(minor):
    """Two reads of the same bytes are equal tables when a channel holds a
    NaN position or digital bound (their channels, as dataclasses, are not
    equal); a table still differs from one with another value in a column."""
    nan = replace(_demo_channels()[0], position=(math.nan, 1.0, 2.0),
                  cal=Calibration(-1.0, 1.0, math.nan, 5.0))
    channels = [nan, *_demo_channels()[1:]]
    data = write_channel_headers(channels, version_minor=minor)
    table = parse_channel_headers(data, 3, version_minor=minor)
    assert table == parse_channel_headers(data, 3, version_minor=minor)
    assert list(table) != list(parse_channel_headers(data, 3, version_minor=minor))
    for other in (replace(nan, position=(math.nan, 1.0, 3.0)),
                  replace(nan, cal=Calibration(-1.0, 1.0, math.nan, 6.0)),
                  replace(nan, label="other")):
        assert table != parse_channel_headers(
            write_channel_headers([other, *channels[1:]], version_minor=minor), 3,
            version_minor=minor)
    plain = parse_channel_headers(write_channel_headers(_demo_channels()), 3)
    assert plain == list(plain) and plain != table


@pytest.mark.parametrize("minor", [10, 20])
def test_channel_table_holds_what_its_channels_write(minor):
    """Each anomaly a parse reports is normalised in the table's bytes as
    the list writer would store it: a signalling NaN position comes back
    quiet, a filter NaN canonical, a text cut at its NUL and spaces."""
    ns = 9
    buf = bytearray(_template(ns, minor))
    layout = _variable_header(ns, minor < 19)
    for name, k, data in [("position", 2, b"\x01\x00\x80\x7f"), ("position", 5, b"\x00\x00\xc0\xff"),
                          ("lowpass", 3, b"\x01\x00\xc0\x7f"), ("label", 4, b"ab \x00c"),
                          ("transducer", 0, b"x  ")]:
        sub, start = layout.fields[name]
        at = start + k * (sub.itemsize // ns)
        buf[at:at + len(data)] = data
    diags = Diagnostics()
    table = parse_channel_headers(bytes(buf), ns, version_minor=minor, diags=diags)
    assert {d.rule for d in diags} == {"header.noncanonical_nan", "header.text_after_nul",
                                       "header.text_space_padded"}
    written = write_channel_headers(table, version_minor=minor)
    assert written == write_channel_headers(list(table), version_minor=minor) != bytes(buf)
    again = Diagnostics()
    parse_channel_headers(written, ns, version_minor=minor, diags=again)
    assert not [d for d in again if d.rule != "header.noncanonical_nan"]
