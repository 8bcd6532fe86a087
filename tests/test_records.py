import io
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdfkit.core import Calibration, GdfType, type_info
from gdfkit.errors import DomainError, TruncatedDataError
from gdfkit.fileio import StreamWriter
from gdfkit.header import ChannelInfo, FixedHeader
from gdfkit.records import (
    SignalBlock,
    decode_records,
    encode_records,
    layout_from_channels,
    overflow_scan,
)


def make_channel(gdf_type=GdfType.INT16, spr=4, dig=(-30000.0, 30000.0)):
    return ChannelInfo(label="ch", gdf_type=gdf_type, samples_per_record=spr,
                       cal=Calibration(-1.0, 1.0, dig[0], dig[1]))


class TestLayout:
    def test_single_int16(self):
        layout = layout_from_channels([make_channel(GdfType.INT16, spr=4)])
        assert layout.bytes_per_record == 8
        assert layout.channels[0].offset == 0

    def test_mixed_with_sparse(self):
        channels = [
            make_channel(GdfType.INT16, spr=2),
            make_channel(GdfType.UINT32, spr=0),
            make_channel(GdfType.FLOAT32, spr=1),
        ]
        layout = layout_from_channels(channels)
        assert [c.offset for c in layout.channels] == [0, None, 4]
        assert layout.bytes_per_record == 8

    def test_no_channels(self):
        layout = layout_from_channels([])
        assert layout.bytes_per_record == 0


class TestInt24:
    """24-bit samples through the record codec, one sample per record."""

    @staticmethod
    def layout(gdf_type):
        return layout_from_channels([make_channel(gdf_type, spr=1)])

    def decode(self, gdf_type, raw):
        return decode_records(raw, self.layout(gdf_type), 1).samples[0][0]

    def encode(self, gdf_type, value):
        info = type_info(gdf_type)
        block = SignalBlock([np.array([value], info.dtype)], 1)
        return encode_records(block, self.layout(gdf_type))

    def test_all_ones_signed(self):
        assert self.decode(GdfType.INT24, b"\xff\xff\xff") == -1
        assert self.encode(GdfType.INT24, -1) == b"\xff\xff\xff"

    def test_minimum(self):
        assert self.decode(GdfType.INT24, b"\x00\x00\x80") == -8_388_608
        assert self.encode(GdfType.INT24, -8_388_608) == b"\x00\x00\x80"

    def test_all_ones_unsigned(self):
        assert self.decode(GdfType.UINT24, b"\xff\xff\xff") == 16_777_215
        assert self.encode(GdfType.UINT24, 16_777_215) == b"\xff\xff\xff"

    @given(st.integers(-(1 << 23), (1 << 23) - 1))
    def test_signed_round_trip(self, value):
        b = self.encode(GdfType.INT24, value)
        assert b == value.to_bytes(3, "little", signed=True)
        assert self.decode(GdfType.INT24, b) == value

    @given(st.integers(0, (1 << 24) - 1))
    def test_unsigned_round_trip(self, value):
        b = self.encode(GdfType.UINT24, value)
        assert b == value.to_bytes(3, "little")
        assert self.decode(GdfType.UINT24, b) == value

    def test_range_checked(self):
        for gdf_type, value in ((GdfType.INT24, 1 << 23), (GdfType.INT24, -(1 << 23) - 1),
                                (GdfType.UINT24, -1), (GdfType.UINT24, 1 << 24)):
            block = SignalBlock([np.array([value], np.int64)], 1)
            with pytest.raises(DomainError):
                encode_records(block, self.layout(gdf_type))


class TestDecodeRecords:
    def test_channel_major_ordering(self):
        channels = [make_channel(GdfType.INT8, spr=1, dig=(-100, 100)),
                    make_channel(GdfType.INT8, spr=1, dig=(-100, 100))]
        layout = layout_from_channels(channels)
        block = decode_records(bytes([1, 2, 3, 4]), layout, 2)
        assert block.samples[0].tolist() == [1, 3]
        assert block.samples[1].tolist() == [2, 4]

    def test_empty(self):
        layout = layout_from_channels([make_channel()])
        block = decode_records(b"", layout, 0)
        assert block.n_records == 0
        assert block.samples[0].size == 0

    def test_truncated(self):
        layout = layout_from_channels([make_channel(GdfType.INT16, spr=2)])
        with pytest.raises(TruncatedDataError) as exc:
            decode_records(bytes(10), layout, 3)
        assert exc.value.complete_records == 2
        assert exc.value.remainder_bytes == 2

    def test_sparse_consumes_nothing(self):
        channels = [make_channel(GdfType.UINT32, spr=0),
                    make_channel(GdfType.UINT8, spr=3, dig=(0, 255))]
        layout = layout_from_channels(channels)
        block = decode_records(bytes([9, 8, 7, 6, 5, 4]), layout, 2)
        assert block.samples[0] is None
        assert block.samples[1].tolist() == [9, 8, 7, 6, 5, 4]


class TestEncodeRecords:
    def test_inverse_of_decode_example(self):
        channels = [make_channel(GdfType.INT8, spr=1, dig=(-100, 100)),
                    make_channel(GdfType.INT8, spr=1, dig=(-100, 100))]
        layout = layout_from_channels(channels)
        block = SignalBlock([np.array([1, 3], np.int8), np.array([2, 4], np.int8)], 2)
        assert encode_records(block, layout) == bytes([1, 2, 3, 4])

    def test_empty_block(self):
        layout = layout_from_channels([])
        assert encode_records(SignalBlock.empty(), layout) == b""

    def test_inconsistent_counts_rejected(self):
        layout = layout_from_channels([make_channel(GdfType.INT8, spr=2)])
        block = SignalBlock([np.array([1, 2, 3], np.int8)], 2)
        with pytest.raises(DomainError):
            encode_records(block, layout)

    @pytest.mark.parametrize("gdf_type, samples", [
        (GdfType.INT16, [70000]),
        (GdfType.INT16, np.array([70000])),
        (GdfType.INT16, np.array([np.nan])),
        (GdfType.INT24, np.array([np.nan])),
        (GdfType.INT64, np.array([2.0 ** 63])),
        (GdfType.FLOAT32, np.array([1e300])),
    ], ids=["int16-list", "int16-from-int64", "int16-nan", "int24-nan", "int64-from-float",
            "float32-from-float64"])
    def test_out_of_range_rejected(self, gdf_type, samples):
        ch = make_channel(gdf_type, spr=1)
        with pytest.raises(DomainError):
            encode_records(SignalBlock([samples], 1), layout_from_channels([ch]))
        writer = StreamWriter(io.BytesIO(), FixedHeader(), [ch])
        with pytest.raises(DomainError):
            writer.append_record([samples])

    def test_float32_takes_nonfinite_float64(self):
        layout = layout_from_channels([make_channel(GdfType.FLOAT32, spr=4)])
        samples = np.array([np.nan, np.inf, -np.inf, 1.5])
        back = decode_records(encode_records(SignalBlock([samples], 1), layout), layout, 1)
        assert np.array_equal(back.samples[0], samples.astype(np.float32), equal_nan=True)


ALL_TYPES = [GdfType.INT8, GdfType.UINT8, GdfType.INT16, GdfType.UINT16,
             GdfType.INT32, GdfType.UINT32, GdfType.INT64, GdfType.UINT64,
             GdfType.FLOAT32, GdfType.FLOAT64, GdfType.FLOAT128,
             GdfType.INT24, GdfType.UINT24]


def _random_samples(rng, gdf_type, count):
    info = type_info(gdf_type)
    if info.kind == "opaque":
        return rng.integers(0, 256, size=(count, 16), dtype=np.uint8)
    if info.kind == "float":
        return rng.normal(size=count).astype(info.dtype)
    if info.size == 3:
        return rng.integers(info.min, info.max + 1, size=count).astype(info.dtype)
    return rng.integers(info.min, int(info.max) + 1 if info.max < 1 << 63 else info.max,
                        size=count, dtype=info.dtype)


@pytest.mark.parametrize("gdf_type", ALL_TYPES)
def test_round_trip_every_type(gdf_type):
    rng = np.random.default_rng(int(gdf_type))
    spr, n_records = 5, 7
    ch = ChannelInfo(label="t", gdf_type=gdf_type, samples_per_record=spr,
                     cal=Calibration(0, 1, 0.0, 1.0))
    layout = layout_from_channels([ch])
    samples = _random_samples(rng, gdf_type, spr * n_records)
    block = SignalBlock([samples], n_records)
    data = encode_records(block, layout)
    assert len(data) == n_records * layout.bytes_per_record
    back = decode_records(data, layout, n_records)
    assert back == block
    assert encode_records(back, layout) == data


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 20), st.lists(st.sampled_from(ALL_TYPES), max_size=5),
       st.integers(0, 1 << 31))
def test_round_trip_randomized(n_records, types, seed):
    rng = np.random.default_rng(seed)
    channels = [ChannelInfo(label=f"c{i}", gdf_type=t,
                            samples_per_record=int(rng.integers(0, 5)),
                            cal=Calibration(0, 1, 0.0, 1.0))
                for i, t in enumerate(types)]
    layout = layout_from_channels(channels)
    samples = [None if ch.is_sparse
               else _random_samples(rng, ch.gdf_type, ch.samples_per_record * n_records)
               for ch in channels]
    block = SignalBlock(samples, n_records)
    data = encode_records(block, layout)
    assert decode_records(data, layout, n_records) == block


def test_ordering_against_brute_force():
    """Decode must agree with the sequential reference decoder on all small
    instances (up to 3 channels, 3 records, 3 samples per record)."""
    rng = np.random.default_rng(7)
    type_pool = [GdfType.UINT8, GdfType.INT16, GdfType.INT24, GdfType.FLOAT64]
    per_channel = [(t, spr) for t in type_pool for spr in (1, 2, 3)]
    checked = 0
    for n_ch in (1, 2, 3):
        combos = itertools.product(per_channel, repeat=n_ch) if n_ch < 3 else \
            itertools.islice(itertools.product(per_channel, repeat=n_ch), 0, None, 7)
        for combo in combos:
            channels = [ChannelInfo(label=f"c{i}", gdf_type=t, samples_per_record=spr,
                                    cal=Calibration(0, 1, 0.0, 1.0))
                        for i, (t, spr) in enumerate(combo)]
            layout = layout_from_channels(channels)
            for n_records in (0, 1, 2, 3):
                data = rng.bytes(n_records * layout.bytes_per_record)
                block = decode_records(data, layout, n_records)
                expected = _ref_decode(data, channels, n_records)
                for got, want in zip(block.samples, expected):
                    assert _as_reference(got) == want
                checked += 1
    assert checked > 500


# Reference codec for the differential test: one sample at a time through
# struct or int.from_bytes. Floats are compared by their bit patterns, so NaN
# payloads count, and 16-byte floats as raw bytes.
_REFERENCE = {  # type code: (struct format of one sample, decoded dtype)
    GdfType.INT8: ("<b", "int8"), GdfType.UINT8: ("<B", "uint8"),
    GdfType.INT16: ("<h", "int16"), GdfType.UINT16: ("<H", "uint16"),
    GdfType.INT32: ("<i", "int32"), GdfType.UINT32: ("<I", "uint32"),
    GdfType.INT64: ("<q", "int64"), GdfType.UINT64: ("<Q", "uint64"),
    GdfType.FLOAT32: ("<I", "float32"), GdfType.FLOAT64: ("<Q", "float64"),
    GdfType.FLOAT128: ("16s", "uint8"),
    GdfType.INT24: (None, "int32"), GdfType.UINT24: (None, "uint32"),
}


def _ref_size(gdf_type):
    fmt = _REFERENCE[gdf_type][0]
    return 3 if fmt is None else struct.calcsize(fmt)


def _ref_decode(data, channels, n_records):
    """Per channel, its samples in file order, read sequentially."""
    out = [[] for _ in channels]
    at = 0
    for _ in range(n_records):
        for values, ch in zip(out, channels):
            fmt, size = _REFERENCE[ch.gdf_type][0], _ref_size(ch.gdf_type)
            for _ in range(ch.samples_per_record):
                raw = data[at:at + size]
                values.append(int.from_bytes(raw, "little", signed=ch.gdf_type == GdfType.INT24)
                              if fmt is None else struct.unpack(fmt, raw)[0])
                at += size
    assert at == len(data)
    return out


def _ref_encode(values, channels, n_records):
    parts = []
    for r in range(n_records):
        for vals, ch in zip(values, channels):
            fmt, spr = _REFERENCE[ch.gdf_type][0], ch.samples_per_record
            for v in vals[r * spr:(r + 1) * spr]:
                parts.append(v.to_bytes(3, "little", signed=ch.gdf_type == GdfType.INT24)
                             if fmt is None else struct.pack(fmt, v))
    return b"".join(parts)


def _as_reference(arr):
    """A decoded channel in the reference codec's terms."""
    if arr.dtype.kind == "f":
        return arr.view(f"<u{arr.itemsize}").tolist()
    if arr.ndim == 2:
        return [bytes(row) for row in arr]
    return arr.tolist()


@st.composite
def _record_cases(draw):
    """(channels, n_records, data): spr 0 makes a sparse channel; a 24-bit
    channel may close the record, so its last sample ends the buffer."""
    spec = draw(st.lists(st.tuples(st.sampled_from(ALL_TYPES), st.integers(0, 5)),
                         max_size=5))
    if draw(st.booleans()):
        spec.append((draw(st.sampled_from([GdfType.INT24, GdfType.UINT24])),
                     draw(st.integers(1, 5))))
    channels = [ChannelInfo(label=f"c{i}", gdf_type=t, samples_per_record=spr,
                            cal=Calibration(0, 1, 0.0, 1.0))
                for i, (t, spr) in enumerate(spec)]
    n_records = draw(st.integers(0, 4))
    size = n_records * sum(spr * _ref_size(t) for t, spr in spec)
    return channels, n_records, draw(st.binary(min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(_record_cases())
def test_codec_against_reference(case):
    channels, n_records, data = case
    layout = layout_from_channels(channels)
    want = _ref_decode(data, channels, n_records)
    assert _ref_encode(want, channels, n_records) == data
    padded = b"\xa5" + data + b"\x5a"
    for source in (data, memoryview(padded)[1:-1]):
        block = decode_records(source, layout, n_records)
        for ch, got, values in zip(channels, block.samples, want):
            if ch.is_sparse:
                assert got is None
                continue
            assert got.dtype == np.dtype(_REFERENCE[ch.gdf_type][1])
            row = (16,) if ch.gdf_type == GdfType.FLOAT128 else ()
            assert got.shape == (len(values), *row)
            assert got.flags.writeable and got.flags.owndata and got.flags.c_contiguous
            assert _as_reference(got) == values
        assert encode_records(block, layout) == data


class TestOverflowScan:
    def test_clean(self):
        ch = make_channel(GdfType.INT16, spr=4, dig=(-1000.0, 1000.0))
        layout = layout_from_channels([ch])
        block = decode_records(struct.pack("<4h", 0, 1, -2, 3), layout, 1)
        (report,) = overflow_scan(block, [ch])
        assert report.saturation_ratio == 0.0
        assert (report.raw_min, report.raw_max) == (-2.0, 3.0)

    def test_one_of_four_invalid(self):
        ch = make_channel(GdfType.INT16, spr=4, dig=(-1000.0, 1000.0))
        layout = layout_from_channels([ch])
        block = decode_records(struct.pack("<4h", 0, 1500, -2, 3), layout, 1)
        (report,) = overflow_scan(block, [ch])
        assert report.n_invalid == 1
        assert report.saturation_ratio == 0.25

    def test_bounds_inclusive(self):
        ch = make_channel(GdfType.INT16, spr=4, dig=(-1000.0, 1000.0))
        layout = layout_from_channels([ch])
        block = decode_records(struct.pack("<4h", 0, 1500, -1000, 1000), layout, 1)
        (report,) = overflow_scan(block, [ch])
        assert report.n_invalid == 1

    @pytest.mark.filterwarnings("error")
    def test_float32_bounds_beyond_float32_range(self):
        ch = make_channel(GdfType.FLOAT32, spr=4, dig=(-1e300, 1e300))
        block = SignalBlock([np.array([0.5, 3e38, -3e38, np.nan], np.float32)], 1)
        (report,) = overflow_scan(block, [ch])
        assert report.n_invalid == 1

    @pytest.mark.filterwarnings("error")
    @settings(deadline=None)
    @given(st.lists(st.floats(width=32), min_size=1, max_size=8), st.floats(), st.floats())
    def test_float32_counts_match_float64(self, values, lo, hi):
        ch = make_channel(GdfType.FLOAT32, spr=len(values), dig=(lo, hi))
        arr = np.array(values, np.float32)
        (report,) = overflow_scan(SignalBlock([arr], 1), [ch])
        wide = arr.astype(np.float64)
        assert report.n_invalid == np.count_nonzero(~((wide >= lo) & (wide <= hi)))

    def test_sensor_off_nan(self):
        ch = make_channel(GdfType.FLOAT32, spr=2, dig=(-1.0, 1.0))
        layout = layout_from_channels([ch])
        block = SignalBlock([np.array([0.5, np.nan], np.float32)], 1)
        (report,) = overflow_scan(block, [ch])
        assert report.n_invalid == 1

    def test_sparse_channel_empty_report(self):
        ch = make_channel(GdfType.UINT32, spr=0)
        block = SignalBlock([None], 3)
        (report,) = overflow_scan(block, [ch])
        assert report.n_samples == 0
        assert report.saturation_ratio == 0.0
