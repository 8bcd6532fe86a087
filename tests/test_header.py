import itertools
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdfkit.core import Calibration, GdfTime, GdfType
from gdfkit.diagnostics import Diagnostics
from gdfkit.events import EventTable, parse_event_table, write_event_table
from gdfkit.errors import DomainError, FormatError, StructureError, VersionError
from gdfkit.header import (
    CHANNEL_HEADER_SIZE,
    FIXED_HEADER_SIZE,
    _CHANNEL_LAYOUT,
    _FIXED_STRUCT,
    ChannelInfo,
    FixedHeader,
    Gender,
    Handedness,
    HeartImpairment,
    Location,
    PatientInfo,
    RecordingInfo,
    TriState,
    VisualImpairment,
    electrode_impedance,
    pack_demographics,
    pack_physio,
    parse_channel_headers,
    parse_fixed_header,
    parse_location,
    probe_frequency,
    render_prefilter,
    sensor_value_bytes,
    unpack_demographics,
    unpack_physio,
    write_channel_headers,
    write_fixed_header,
)


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
        with pytest.raises(DomainError):
            write_fixed_header(FixedHeader(ns=3, header_blocks=2))
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
        assert p.name == "Doe"
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
        assert electrode_impedance(parsed[0]) == 5000.0
        assert probe_frequency(parsed[0]) is None
        assert electrode_impedance(parsed[2]) is None
        assert probe_frequency(parsed[2]) == 128.0

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
        z = electrode_impedance(parsed[0], version_minor=10)
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

    table = bytearray(write_event_table(EventTable.empty(1, 1.0)))
    table[4:8] = b"\x01\x00\x80\x7f"
    diags = Diagnostics()
    assert math.isnan(parse_event_table(bytes(table), diags).sample_rate_hz)
    assert [(d.rule, d.section, d.offset) for d in diags] == \
        [("header.noncanonical_nan", "events", 4)]


def test_field_tables_span_their_sections():
    assert _FIXED_STRUCT.format == "<8s66s10sBBBB64s16sQQH6sQ6s3H3f3fq2II"
    assert _FIXED_STRUCT.size == FIXED_HEADER_SIZE
    assert sum(f.struct.size for f in _CHANNEL_LAYOUT.values()) == CHANNEL_HEADER_SIZE


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
        with pytest.raises(DomainError, match="float32 range"):
            build(value)
    for value in (math.inf, -math.inf, math.nan, 3.4028234e38):
        build(value)
