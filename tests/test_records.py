import copy
import io
import itertools
import math
import pickle
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdfkit import records
from gdfkit.core import Calibration, GdfType, type_info
from gdfkit.errors import DomainError, TruncatedDataError
from gdfkit.fileio import GdfFile, StreamWriter, read_file, to_bytes
from gdfkit.header import ChannelInfo, FixedHeader, channel_column
from gdfkit.records import (
    OverflowReport,
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
        assert layout.runs == ()

    def test_runs(self):
        """Consecutive continuous channels of one type form a run; a sparse
        channel does not break it, another type does."""
        channels = [make_channel(GdfType.INT16, spr=2), make_channel(GdfType.UINT32, spr=0),
                    make_channel(GdfType.INT16, spr=3), make_channel(GdfType.INT24, spr=1),
                    make_channel(GdfType.INT16, spr=1)]
        layout = layout_from_channels(channels)
        assert [(r.offset, r.samples_per_record, r.gdf_type, [e.index for e in r.entries])
                for r in layout.runs] == [(0, 5, GdfType.INT16, [0, 2]),
                                          (10, 1, GdfType.INT24, [3]),
                                          (13, 1, GdfType.INT16, [4])]


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

    @pytest.mark.parametrize("gdf_type, spr, samples, match", [
        (GdfType.INT16, 4, np.zeros((4, 2), np.int16), r"channel 0: samples of shape \(4, 2\)"),
        (GdfType.FLOAT128, 4, np.zeros((4, 8), np.uint8), "channel 0: .* rows of 16 bytes"),
        (GdfType.INT16, 1, 5, "channel 0 needs 1 samples for 1 records, has a scalar"),
        (GdfType.INT24, 4, np.int32(5), "channel 0 needs 4 samples for 1 records, has a scalar"),
        (GdfType.FLOAT128, 1, np.zeros((), np.uint8), "channel 0 needs 1 samples .* a scalar"),
        (GdfType.INT16, 0, 5, "channel 0 is sparse but carries samples"),
        (GdfType.INT16, 0, np.int16(0), "channel 0 is sparse but carries samples"),
    ], ids=["int16-2d", "float128-short-rows", "int16-scalar", "int24-numpy-scalar",
            "float128-0d", "sparse-scalar", "sparse-numpy-scalar"])
    def test_wrong_shape_rejected(self, gdf_type, spr, samples, match):
        """A scalar has no length: it is refused naming the channel, not with
        a TypeError."""
        ch = make_channel(gdf_type, spr=spr)
        with pytest.raises(DomainError, match=match):
            encode_records(SignalBlock([samples], 1), layout_from_channels([ch]))
        sink = io.BytesIO()
        writer = StreamWriter(sink, FixedHeader(), [ch])
        size = len(sink.getvalue())
        with pytest.raises(DomainError, match=match):
            writer.append_record([samples])
        assert len(sink.getvalue()) == size
        f = GdfFile(header=FixedHeader(n_records=1), channels=[ch],
                    signals=SignalBlock([samples], 1))
        with pytest.raises(DomainError, match=match):
            to_bytes(f)

    def test_failed_append_writes_nothing(self):
        channels = [make_channel(GdfType.INT16, spr=2), make_channel(GdfType.INT24, spr=2)]
        sink = io.BytesIO()
        writer = StreamWriter(sink, FixedHeader(), channels)
        writer.append_record([np.array([1, 2], np.int16), np.array([3, 4])])
        size = len(sink.getvalue())
        with pytest.raises(DomainError, match="channel 1: sample outside int24 range"):
            writer.append_record([np.array([5, 6], np.int16), np.array([7, 1 << 23])])
        assert (len(sink.getvalue()), writer.records_written) == (size, 1)

    def test_list_samples_stored_exactly(self):
        """numpy builds both lists as float64, which rounds 2**63 + 1 and
        2**62 + 1 and truncates 0.5."""
        ch = make_channel(GdfType.UINT64, spr=2)
        values = [2**63 + 1, 5]
        data = encode_records(SignalBlock([values], 1), layout_from_channels([ch]))
        assert np.frombuffer(data, "<u8").tolist() == values
        sink = io.BytesIO()
        writer = StreamWriter(sink, FixedHeader(), [ch])
        writer.append_record([values])
        assert sink.getvalue()[-16:] == data
        ch = make_channel(GdfType.INT64, spr=2)
        with pytest.raises(DomainError, match=r"channel 0 cannot hold 0\.5 \(int64\)"):
            encode_records(SignalBlock([[2**62 + 1, 0.5]], 1), layout_from_channels([ch]))
        with pytest.raises(DomainError, match=r"channel 0 cannot hold 0\.5 \(int64\)"):
            StreamWriter(io.BytesIO(), FixedHeader(), [ch]).append_record([[2**62 + 1, 0.5]])

    def test_float32_takes_nonfinite_float64(self):
        layout = layout_from_channels([make_channel(GdfType.FLOAT32, spr=4)])
        samples = np.array([np.nan, np.inf, -np.inf, 1.5])
        back = decode_records(encode_records(SignalBlock([samples], 1), layout), layout, 1)
        assert np.array_equal(back.samples[0], samples.astype(np.float32), equal_nan=True)

    # the least float64 that rounds to infinity in float32, the one below it,
    # and the largest float32
    _ROUNDS_TO_INF = 2.0 ** 128 - 2.0 ** 103
    _BELOW = float(np.nextafter(_ROUNDS_TO_INF, 0))
    _MAX = float(np.finfo(np.float32).max)

    @staticmethod
    def _float32_outcomes(samples):
        """The float32 sample of channel 1 as ``to_bytes`` and as
        ``StreamWriter.append_record`` store it, or their error texts."""
        channels = [make_channel(GdfType.INT16, spr=1), make_channel(GdfType.FLOAT32, spr=1)]
        block = SignalBlock([np.array([7], np.int16), samples], 1)
        f = GdfFile(header=FixedHeader(n_records=1, ns=2), channels=channels, signals=block)
        sink = io.BytesIO()
        writer = StreamWriter(sink, FixedHeader(), channels)
        outcomes = []
        for write in (lambda: to_bytes(f),
                      lambda: writer.append_record(block.samples) or sink.getvalue()):
            try:  # the record is last: no events follow it
                outcomes.append(np.frombuffer(write()[-4:], "<f4").tolist())
            except DomainError as exc:
                outcomes.append(str(exc))
        return outcomes

    @pytest.mark.parametrize("samples, message", [
        ([10**40], f"channel 1 cannot hold {10**40} (float32)"),
        ([10**400], f"channel 1 cannot hold {10**400} (float32)"),
        ([_ROUNDS_TO_INF], f"channel 1 cannot hold {_ROUNDS_TO_INF!r} (float32)"),
        ((-_ROUNDS_TO_INF,), f"channel 1 cannot hold {-_ROUNDS_TO_INF!r} (float32)"),
        (np.array([_ROUNDS_TO_INF]), f"channel 1 cannot hold {_ROUNDS_TO_INF!r} (float32)"),
        (np.array([-_ROUNDS_TO_INF]), f"channel 1 cannot hold {-_ROUNDS_TO_INF!r} (float32)"),
    ], ids=["int-1e40", "int-1e400", "list-midpoint", "tuple-midpoint", "array-midpoint",
            "array-negative-midpoint"])
    def test_float32_overflow_refused(self, samples, message):
        """The encoder wrote 10**40 as inf with a RuntimeWarning and let an
        OverflowError escape for 10**400. An array is refused with the
        message of a sequence (it was ``channel 1: finite sample outside
        float32 range``)."""
        assert self._float32_outcomes(samples) == [message, message]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gdf_type, values, message", [
        (GdfType.FLOAT32, [10**40], f"channel 1 cannot hold {10**40} (float32)"),
        (GdfType.FLOAT32, [10**400], f"channel 1 cannot hold {10**400} (float32)"),
        (GdfType.INT16, [1.5], "channel 1 cannot hold 1.5 (int16)"),
        (GdfType.INT16, [None], "channel 1 cannot hold None (int16)"),
    ], ids=["float32-1e40", "float32-1e400", "int16-fraction", "int16-none"])
    def test_object_array_refused(self, gdf_type, values, message):
        """An object array went past the checks: 10**40 was written as inf
        with a RuntimeWarning, 10**400 raised OverflowError, 1.5 was stored
        as 1 and None raised TypeError."""
        channels = [make_channel(GdfType.INT16, spr=1), make_channel(gdf_type, spr=1)]
        samples = [np.array([7], np.int16), np.array(values, object)]
        f = GdfFile(header=FixedHeader(n_records=1, ns=2), channels=channels,
                    signals=SignalBlock(samples, 1))
        exact = f"^{re.escape(message)}$"
        with pytest.raises(DomainError, match=exact):
            to_bytes(f)
        sink = io.BytesIO()
        writer = StreamWriter(sink, FixedHeader(), channels)
        writer.append_record([np.array([7], np.int16), np.array([1], object)])
        size = len(sink.getvalue())
        with pytest.raises(DomainError, match=exact):
            writer.append_record(samples)
        assert (len(sink.getvalue()), writer.records_written) == (size, 1)

    @pytest.mark.parametrize("gdf_type, samples, message", [
        (GdfType.INT16, np.array([1.0, 1.5]), "channel 0 cannot hold 1.5 (int16)"),
        (GdfType.INT16, np.array([1, 40000]), "channel 0 cannot hold 40000 (int16)"),
        (GdfType.UINT8, np.array([2.0, -1.0], np.float32), "channel 0 cannot hold -1.0 (uint8)"),
        (GdfType.INT24, np.array([0, 1 << 31]), "channel 0 cannot hold 2147483648 (int32)"),
        (GdfType.INT24, np.array([0, 1 << 23]), "channel 0: sample outside int24 range"),
        (GdfType.FLOAT128, np.full((2, 16), 256), f"channel 0 cannot hold {[256] * 16} (uint8)"),
        (GdfType.FLOAT128, [[0] * 16, [300] * 16], f"channel 0 cannot hold {[300] * 16} (uint8)"),
    ], ids=["int16-fraction", "int16-range", "uint8-negative", "int24-container",
            "int24-range", "float128-byte-range", "float128-list-byte-range"])
    def test_array_cast_checked(self, gdf_type, samples, message):
        """An array of another dtype goes through the checked cast: it was
        truncated (1.5 to 1), range-checked with its own message (``sample
        outside int16 range``) or, for the 16-byte float, wrapped (256 to 0);
        a list of 16-byte rows let numpy's OverflowError escape. A 24-bit
        channel names its 32-bit container for a value beyond it."""
        ch = make_channel(gdf_type, spr=2)
        exact = f"^{re.escape(message)}$"
        with pytest.raises(DomainError, match=exact):
            encode_records(SignalBlock([samples], 1), layout_from_channels([ch]))
        with pytest.raises(DomainError, match=exact):
            StreamWriter(io.BytesIO(), FixedHeader(), [ch]).append_record([samples])

    @pytest.mark.parametrize("samples, stored", [
        ([_BELOW], _MAX),
        (np.array([_BELOW]), _MAX),
        (np.array([np.nextafter(_MAX, np.inf)]), _MAX),
        ([10**20], float(np.float32(1e20))),
    ], ids=["list-below-midpoint", "array-below-midpoint", "array-above-max", "int-1e20"])
    def test_float32_rounding_to_max_stored(self, samples, stored):
        """The encoder refused the first three, which ``checked_cast`` and
        ``float32_exact`` store as the largest float32."""
        assert self._float32_outcomes(samples) == [[stored], [stored]]


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
            assert got.flags.writeable and got.flags.c_contiguous
            assert got.base is not None and got.base.ndim == got.ndim + 1  # a row of its group
            assert _as_reference(got) == values
        assert encode_records(block, layout) == data


# Differential test of the run encoder against its contract, restated here
# in plain Python one value at a time: same bytes, or the same exception type
# and text. The reference rejects a wrongly shaped input with a ValueError or
# a TypeError; the cases below are all shaped right.
def _value_bytes(v, dtype):
    """The on-disk bytes of ``v`` in a sample dtype, or None when the dtype
    cannot hold it: an integer dtype holds an integral number within its
    bounds; a float dtype holds every number that does not round to infinity
    in it, which is when struct refuses to pack it (OverflowError for a float,
    struct.error for an int or a non-number)."""
    if dtype.kind == "f":
        try:
            return struct.pack(f"<{dtype.char}", v)
        except (OverflowError, struct.error):
            return None
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    bounds = np.iinfo(dtype)
    if isinstance(v, int) and bounds.min <= v <= bounds.max:
        return v.to_bytes(dtype.itemsize, "little", signed=bounds.min < 0)
    return None


def _channel_encode(block, layout):
    """The count checks come first. Then the continuous channels are taken a
    run at a time (consecutive channels of one type; a sparse channel does
    not break a run). Each channel of a run is taken as it is when it is an
    array of its sample dtype, and otherwise cast value by value to that
    dtype, or refused at its first value the dtype cannot hold. After the
    casts of a run, a 24-bit run refuses its first channel that holds a value
    beyond 24 bits. A 16-byte float sample is a row of 16 uint8 values."""
    if len(block.samples) != len(layout.channels):
        raise DomainError(f"block has {len(block.samples)} channels, layout "
                          f"{len(layout.channels)}")
    n = block.n_records
    runs = []
    for entry in layout.channels:
        arr = block.samples[entry.index]
        if entry.is_sparse:
            if arr is not None and len(arr) > 0:
                raise DomainError(f"channel {entry.index} is sparse but carries samples")
            continue
        if arr is None or len(arr) != n * entry.samples_per_record:
            have = "none" if arr is None else str(len(arr))
            raise DomainError(
                f"channel {entry.index} needs {n * entry.samples_per_record} "
                f"samples for {n} records, has {have}")
        if runs and runs[-1][0].gdf_type == entry.gdf_type:
            runs[-1].append(entry)
        else:
            runs.append([entry])
    out = bytearray(n * layout.bytes_per_record)
    for run in runs:
        info = type_info(run[0].gdf_type)
        opaque = info.kind == "opaque"
        dtype = np.dtype(np.uint8) if opaque else info.dtype
        stored = []  # per channel, the bytes of each sample
        for entry in run:
            arr = block.samples[entry.index]
            if isinstance(arr, np.ndarray) and arr.dtype == dtype:
                step = 16 if opaque else dtype.itemsize
                data = arr.tobytes()
                stored.append([data[k:k + step] for k in range(0, len(data), step)])
                continue
            samples = []
            for v in arr.tolist() if isinstance(arr, np.ndarray) else arr:
                parts = [_value_bytes(x, dtype) for x in v] if opaque else [_value_bytes(v, dtype)]
                if None in parts or opaque and len(parts) != 16:
                    raise DomainError(f"channel {entry.index} cannot hold {v!r} ({dtype})")
                samples.append(b"".join(parts))
            stored.append(samples)
        if info.size == 3:
            signed = info.min < 0
            for entry, samples in zip(run, stored):
                values = [int.from_bytes(b, "little", signed=signed) for b in samples]
                if values and not info.min <= min(values) <= max(values) <= info.max:
                    raise DomainError(f"channel {entry.index}: sample outside {info.name} "
                                      "range")
            stored = [[b[:3] for b in samples] for samples in stored]
        for entry, samples in zip(run, stored):
            for k, b in enumerate(samples):
                r, j = divmod(k, entry.samples_per_record)
                at = r * layout.bytes_per_record + entry.offset + j * info.size
                out[at:at + info.size] = b
    return bytes(out)


def _encode_outcome(fn, block, layout):
    try:
        return bytes(fn(block, layout))
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)


# values at and beyond the bounds of every type, near 2**63 where a shared
# int64/uint64 staging dtype would round, and beyond uint64, where numpy
# builds a list as objects (10**40 rounds to infinity in float32, 10**400 in
# float64)
_EDGE_INTS = [0, -1, 1 << 7, -(1 << 7) - 1, 1 << 15, 1 << 16, 1 << 23, -(1 << 23) - 1, 1 << 24,
              1 << 31, 1 << 32, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, -(1 << 63), (1 << 64) - 1,
              10**20, 10**40, -10**400]
_EDGE_FLOATS = [np.nan, np.inf, -np.inf, 1e300, -1e300, 3.5e38, 0.5, -0.5, 2.0 ** 63, 2.0 ** 24]
# the largest float32 and the float64 values around the midpoint between it
# and 2**128, from which on a value rounds to infinity in float32
_FLT_MAX = float(np.finfo(np.float32).max)
_EDGE_FLOATS += [_FLT_MAX, -_FLT_MAX, float(np.nextafter(_FLT_MAX, np.inf)),
                 float(np.nextafter(2.0 ** 128 - 2.0 ** 103, 0)), 2.0 ** 128 - 2.0 ** 103,
                 -(2.0 ** 128 - 2.0 ** 103)]
_INPUT_KINDS = ["disk", "int64", "uint64", "int32", "float64", "float32", "list", "tuple"]


@st.composite
def _channel_input(draw, gdf_type, count, kinds=_INPUT_KINDS):
    """Samples for one channel: in range for its type, or (one channel in
    five) with values at and beyond its bounds, in one of ``kinds`` of
    dtypes."""
    info = type_info(gdf_type)
    if info.kind == "opaque":
        return np.frombuffer(draw(st.binary(min_size=16 * count, max_size=16 * count)),
                             np.uint8).reshape(count, 16)
    lo, hi = (info.min, info.max) if info.kind == "int" else (-(1 << 40), 1 << 40)
    ints = [st.integers(lo, hi)]
    floats = [st.integers(lo, hi).map(float), st.floats(float(lo), float(hi))]
    if draw(st.integers(0, 4)) == 0:
        ints.append(st.sampled_from(_EDGE_INTS))
        floats += [st.sampled_from(_EDGE_FLOATS), st.floats()]
    kind = draw(st.sampled_from(kinds))
    if kind in ("list", "tuple"):  # Python ints, with floats among them in one list in four
        pool = ints + (floats[:1] + floats[2:] if draw(st.integers(0, 3)) == 0 else [])
        values = draw(st.lists(st.one_of(pool), min_size=count, max_size=count))
        return values if kind == "list" else tuple(values)
    dtype = info.dtype if kind == "disk" else np.dtype(kind)
    if dtype is not None and dtype.kind == "f":
        wide = np.array(draw(st.lists(st.one_of(floats), min_size=count, max_size=count)),
                        np.float64)
        if dtype == np.float32:
            big = float(np.finfo(np.float32).max)
            wide = np.where(np.isfinite(wide), np.clip(wide, -big, big), wide)
        return wide.astype(dtype)
    values = draw(st.lists(st.one_of(ints), min_size=count, max_size=count))
    bounds = np.iinfo(dtype)
    return np.array([min(max(v, bounds.min), bounds.max) for v in values], dtype)


@st.composite
def _encode_cases(draw):
    """(layout, block): runs of up to four channels of one type, sparse
    channels inside them, 0-4 records."""
    spec = []
    for gdf_type, count in draw(st.lists(st.tuples(st.sampled_from(ALL_TYPES),
                                                   st.integers(1, 4)), max_size=4)):
        for _ in range(count):
            if draw(st.integers(0, 5)) == 0:
                spec.append((GdfType.UINT32, 0))
            spec.append((gdf_type, draw(st.integers(1, 3))))
    n = draw(st.integers(0, 4))
    channels = [ChannelInfo(label=f"c{i}", gdf_type=t, samples_per_record=spr,
                            cal=Calibration(0, 1, 0.0, 1.0))
                for i, (t, spr) in enumerate(spec)]
    samples = [None if spr == 0 else draw(_channel_input(t, n * spr)) for t, spr in spec]
    return layout_from_channels(channels), SignalBlock(samples, n)


@settings(max_examples=500, deadline=None)
@given(_encode_cases(), st.sampled_from([records._STAGING_BYTES, 1]))
def test_encoder_against_channel_encoder(case, budget):
    """A budget of one byte stages one record at a time, so a bad value
    shows up in a later chunk than another channel's."""
    layout, block = case
    want = _encode_outcome(_channel_encode, block, layout)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records, "_STAGING_BYTES", budget)
        assert _encode_outcome(encode_records, block, layout) == want


def test_encoder_stages_in_chunks():
    """A block larger than the staging budget, with a bad value in a later
    channel at an earlier record than the first bad channel's."""
    spr, n = 1000, 80
    channels = [make_channel(t, spr=spr) for t in [GdfType.INT24] * 4 + [GdfType.FLOAT32] * 2]
    layout = layout_from_channels(channels)
    assert n * 4 * spr * 4 > records._STAGING_BYTES  # the 24-bit run takes two chunks
    rng = np.random.default_rng(5)
    samples = [rng.integers(-(1 << 23), 1 << 23, n * spr) for _ in range(4)]
    samples += [rng.normal(size=n * spr) * 1e30 for _ in range(2)]
    block = SignalBlock(samples, n)
    data = encode_records(block, layout)
    assert data == _channel_encode(block, layout)
    samples[3][5] = 1 << 23
    samples[1][n * spr - 1] = -(1 << 23) - 1
    samples[5][7] = 1e300
    assert _encode_outcome(encode_records, block, layout) == \
        _encode_outcome(_channel_encode, block, layout) == \
        (DomainError, "channel 1: sample outside int24 range")
    # every channel of a run is cast before the run is range-checked, and
    # the float32 run comes after the 24-bit one
    samples[2][n * spr - 1] = 1 << 31
    assert _encode_outcome(encode_records, block, layout) == \
        _encode_outcome(_channel_encode, block, layout) == \
        (DomainError, f"channel 2 cannot hold {1 << 31} (int32)")
    samples[2][n * spr - 1] = samples[1][n * spr - 1] = samples[3][5] = 0
    assert _encode_outcome(encode_records, block, layout) == \
        _encode_outcome(_channel_encode, block, layout) == \
        (DomainError, "channel 5 cannot hold 1e+300 (float32)")


# how a record's samples for one channel are given to the one-record path:
# as the channel's sample array (contiguous or not), in another dtype, byte
# order or shape, or not as an array at all
_RECORD_FORMS = ["array", "array", "strided", "drawn", "big-endian", "column", "short",
                 "long", "scalar", "none"]


def _plan_takes(samples, gdf_type, spr):
    """Whether the one-record path takes a channel's samples as they are: an
    array of the channel's sample dtype and shape (for a 24-bit channel,
    with every value within 24 bits), or None for a sparse channel."""
    if spr == 0:
        return samples is None
    info = type_info(gdf_type)
    opaque = info.kind == "opaque"
    return (isinstance(samples, np.ndarray)
            and samples.dtype == (np.uint8 if opaque else info.dtype)
            and samples.shape == ((spr, 16) if opaque else (spr,))
            and (info.size != 3 or bool(info.min <= samples.min() <= samples.max() <= info.max)))


@st.composite
def _record_input(draw, gdf_type, spr, forms=_RECORD_FORMS):
    """One channel's samples for one record, in one of ``forms``."""
    info = type_info(gdf_type)
    opaque = info.kind == "opaque"
    if spr == 0:  # sparse: None, or empty, or samples it may not carry
        return draw(st.sampled_from([None, None, None, [], np.zeros(0, np.uint32),
                                     np.ones(1, np.uint32), 0]))
    form = draw(st.sampled_from(forms))
    if form == "none":
        return None
    if form == "scalar":
        return draw(st.sampled_from([0, 1.5, np.uint8(0) if opaque else info.dtype.type(0)]))
    if form == "drawn":  # another dtype, a list or a tuple (or, by chance, the array)
        return draw(_channel_input(gdf_type, spr))
    count = {"short": spr - 1, "long": spr + 1, "strided": 2 * spr}.get(form, spr)
    samples = draw(_channel_input(gdf_type, count, ["disk"]))
    if form == "strided":
        return samples[::2]
    if form == "big-endian":
        return samples.astype(samples.dtype.newbyteorder(">"))
    if form == "column":  # (spr, 1) values, or a 16-byte float's rows as flat bytes
        return samples.reshape(-1) if opaque else samples.reshape(count, 1)
    return samples


@st.composite
def _append_cases(draw):
    """(channels, records): runs of up to four channels of any type with 1-3
    samples per record, sparse channels between and inside them, and 1-4
    records of per-channel samples: about half of them arrays of the
    channels' sample dtypes (a 24-bit one may hold a value beyond 24 bits),
    and one record in five with a channel too few or too many."""
    spec = []
    for gdf_type, count in draw(st.lists(st.tuples(st.sampled_from(ALL_TYPES),
                                                   st.integers(1, 4)), max_size=4)):
        for _ in range(count):
            if draw(st.integers(0, 4)) == 0:
                spec.append((GdfType.UINT32, 0))
            spec.append((gdf_type, draw(st.integers(1, 3))))
    channels = [ChannelInfo(label=f"c{i}", gdf_type=t, samples_per_record=spr,
                            cal=Calibration(0, 1, 0.0, 1.0))
                for i, (t, spr) in enumerate(spec)]
    records_ = []
    for _ in range(draw(st.integers(1, 4))):
        forms = ["array", "strided"] if draw(st.booleans()) else _RECORD_FORMS
        samples = [None if spr == 0 and len(forms) == 2
                   else draw(_record_input(t, spr, forms)) for t, spr in spec]
        extra = draw(st.sampled_from([0] * 8 + [-1, 1]))  # one channel too few or too many
        records_.append(samples[:-1] if extra < 0 else samples + [None] * extra)
    return channels, records_


class _KeepingSink(io.RawIOBase):
    """An unseekable sink that keeps every object it is given to write."""

    def __init__(self):
        self.parts = []

    def writable(self):
        return True

    def write(self, b):
        self.parts.append(b)
        return memoryview(b).nbytes


@settings(max_examples=200, deadline=None)
@given(_append_cases())
def test_record_plan_against_per_record_encoder(case):
    """The plan and StreamWriter.append_record give, record after record,
    the per-record encoder's bytes or its exception; a failed append writes
    nothing; the plan falls back to the encoder exactly for the records it
    does not take as they are."""
    channels, records_ = case
    layout = layout_from_channels(channels)
    plan = records.RecordPlan(layout)
    sink = _KeepingSink()
    writer = StreamWriter(sink, FixedHeader(), channels)
    head = len(sink.parts)
    appended = []
    per_record = records.encode_records
    for samples in records_:
        want = _outcome(lambda: bytes(per_record(SignalBlock(list(samples), 1), layout, out=np.empty(
            layout.bytes_per_record, np.uint8))))
        fallbacks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records, "encode_records",
                       lambda *args, **kwargs: fallbacks.append(1) or per_record(*args, **kwargs))
            assert _outcome(lambda: bytes(plan.encode(samples))) == want
        assert bool(fallbacks) != (len(samples) == len(channels) and all(map(
            _plan_takes, samples, (ch.gdf_type for ch in channels),
            (ch.samples_per_record for ch in channels))))
        parts = len(sink.parts)
        assert _outcome(lambda: writer.append_record(tuple(samples)) or bytes(sink.parts[-1])) \
            == want
        if isinstance(want, bytes):
            appended.append(want)
        else:
            assert issubclass(want[0], DomainError), want
            assert len(sink.parts) == parts
    assert writer.records_written == len(appended)
    assert b"".join(map(bytes, sink.parts[head:])) == b"".join(appended)


# The per-channel decoder and scan that the run decoder and the chunked scan
# replaced, kept as the oracles of the differential tests below.
def _old_decode_records(data, layout, n_records):
    if n_records < 0:
        raise DomainError(f"record count {n_records} is negative")
    expected = n_records * layout.bytes_per_record
    if len(data) != expected:
        bpr = layout.bytes_per_record
        complete = len(data) // bpr if bpr else 0
        raise TruncatedDataError(
            f"data section has {len(data)} bytes, expected {expected} "
            f"({complete} complete records)",
            rule="data.truncated",
            complete_records=complete,
            remainder_bytes=len(data) - complete * bpr)
    samples = []
    for entry in layout.channels:
        if entry.is_sparse:
            samples.append(None)
            continue
        info = type_info(entry.gdf_type)
        shape = (n_records, entry.samples_per_record)
        if info.kind == "opaque":
            out = np.empty((n_records * entry.samples_per_record, 16), np.uint8)
            out.reshape(*shape, 16)[...] = records._channel_view(
                data, layout, entry, n_records, records._OPAQUE)
        else:
            out = np.empty(n_records * entry.samples_per_record, info.dtype)
            grid = out.reshape(shape)
            if info.size == 3:
                high = records._channel_view(data, layout, entry, n_records,
                                             records._HIGH8[info.min < 0], 2)
                np.left_shift(high, 16, out=grid, dtype=info.dtype)  # sign-extends int24
                grid |= records._channel_view(data, layout, entry, n_records, records._LOW16)
            else:
                grid[...] = records._channel_view(data, layout, entry, n_records, info.dtype)
        samples.append(out)
    return SignalBlock(samples, n_records)


def _old_float32_bounds(lo, hi):
    with np.errstate(over="ignore"):  # beyond the float32 range: +-inf
        lo32, hi32 = np.float32(lo), np.float32(hi)
        if lo32 < lo:
            lo32 = np.nextafter(lo32, np.float32(np.inf))
        if hi32 > hi:
            hi32 = np.nextafter(hi32, np.float32(-np.inf))
    return lo32, hi32


def _old_overflow_scan(block, channels):
    reports = []
    for i, (code, lo, hi) in enumerate(zip(*(channel_column(channels, attr) for attr in (
            "gdf_type", "cal.dig_min", "cal.dig_max")))):
        arr = block.samples[i] if i < len(block.samples) else None
        if arr is None or type_info(code).kind == "opaque" or arr.size == 0:
            reports.append(OverflowReport(i, 0 if arr is None else len(arr), 0, None, None))
            continue
        lo, hi = np.float64(lo), np.float64(hi)
        if arr.dtype == np.float32:
            lo, hi = _old_float32_bounds(lo, hi)
        with np.errstate(invalid="ignore"):
            valid = (arr >= lo) & (arr <= hi)
        finite = arr[~np.isnan(arr)] if arr.dtype.kind == "f" else arr
        reports.append(OverflowReport(
            channel=i,
            n_samples=int(arr.size),
            n_invalid=int(arr.size - np.count_nonzero(valid)),
            raw_min=float(finite.min()) if finite.size else None,
            raw_max=float(finite.max()) if finite.size else None,
        ))
    return reports


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

    def test_float32_bounds_next_to_the_float32_extremes(self):
        """A bound that rounds to the largest float32 in magnitude must not
        step past it with an overflow warning, whichever bound of the row
        is the one that moves."""
        big = float(np.finfo(np.float32).max)
        near = [big, -big, 3.402823364973241e+38, -3.402823364973241e+38,
                3.4028235677973366e+38, -3.4028235677973366e+38, 0.0]
        channels = [make_channel(GdfType.FLOAT32, spr=2, dig=(lo, hi))
                    for lo in near for hi in near]
        arr = np.array([-big, big], np.float32)
        block = SignalBlock([arr.copy() for _ in channels], 1)
        want = _outcome(_old_overflow_scan, block, channels)
        assert _outcome(overflow_scan, block, channels) == want

    def test_sensor_off_nan(self):
        ch = make_channel(GdfType.FLOAT32, spr=2, dig=(-1.0, 1.0))
        layout = layout_from_channels([ch])
        block = SignalBlock([np.array([0.5, np.nan], np.float32)], 1)
        (report,) = overflow_scan(block, [ch])
        assert report.n_invalid == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signalling_nan_is_no_extreme(self, dtype):
        """A signalling NaN hides no value of its row from the extremes (as
        fmin would, dropping the values before it) and raises no warning."""
        rows = np.array([[np.nan, 0.0, 5.0], [5.0, np.nan, 0.0], [np.nan] * 3,
                         [np.nan, -2.0, 3.0]], dtype)
        bits = rows[:3].view(np.uint32 if dtype == np.float32 else np.uint64)
        bits[np.isnan(rows[:3])] = 0x7f810000 if dtype == np.float32 else 0x7ff0000000000001
        assert np.isnan(rows).sum() == 6
        channels = [make_channel(GdfType.FLOAT32 if dtype == np.float32 else GdfType.FLOAT64,
                                 spr=3, dig=(-1.0, 1.0)) for _ in rows]
        block = decode_records(rows.tobytes(), layout_from_channels(channels), 1)
        got = [(r.n_invalid, r.raw_min, r.raw_max) for r in overflow_scan(block, channels)]
        assert got == [(2, 0.0, 5.0), (2, 0.0, 5.0), (3, None, None), (3, -2.0, 3.0)]

    def test_sparse_channel_empty_report(self):
        ch = make_channel(GdfType.UINT32, spr=0)
        block = SignalBlock([None], 3)
        (report,) = overflow_scan(block, [ch])
        assert report.n_samples == 0
        assert report.saturation_ratio == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", [list, tuple])
    def test_sequence_samples_scanned_as_arrays(self, form):
        """Samples built in code as a list or tuple are cast to the channel's
        sample dtype, as the encoder takes them, and report as that array."""
        channels = [ChannelInfo(samples_per_record=3),
                    make_channel(GdfType.INT16, spr=3, dig=(-1.0, 1.0)),
                    make_channel(GdfType.FLOAT32, spr=3, dig=(-1.0, 1.0)),
                    make_channel(GdfType.INT24, spr=3, dig=(-1.0, 1.0)),
                    make_channel(GdfType.UINT32, spr=0),
                    make_channel(GdfType.FLOAT64, spr=0)]
        values = [[1, 2, 3], [1, -2, 0], [0.5, 2.0, float("nan")], [2, 1, 1.0], [], []]
        arrays = [np.array(v, type_info(ch.gdf_type).dtype) for ch, v in zip(channels, values)]
        want = overflow_scan(SignalBlock(arrays, 1), channels)
        assert [r.n_invalid for r in want] == [0, 1, 2, 1, 0, 0]
        assert overflow_scan(SignalBlock(list(map(form, values)), 1), channels) == want
        assert overflow_scan(SignalBlock([form(values[0])], 1), channels[:1]) == want[:1]

    @pytest.mark.parametrize("value", [40000, 1.5, float("nan"), "x"])
    def test_sequence_sample_the_dtype_cannot_hold_refused(self, value):
        with pytest.raises(DomainError, match="channel 1"):
            overflow_scan(SignalBlock([[1], [0, value]], 1),
                          [make_channel(spr=1), make_channel(spr=2)])


# --- the run decoder and the chunked scan against the per-channel oracles ----

@st.composite
def _run_layouts(draw):
    """Channels and a record count: runs of one type whose samples per record
    change inside the run, sparse channels among them, 0-4 records."""
    spec = []
    for gdf_type, sprs in draw(st.lists(st.tuples(
            st.sampled_from(ALL_TYPES), st.lists(st.integers(1, 3), min_size=1, max_size=4)),
            max_size=4)):
        for spr in sprs:
            if draw(st.integers(0, 4)) == 0:
                spec.append((GdfType.UINT32, 0))
            spec.append((gdf_type, spr))
    return spec, draw(st.integers(0, 4))


# digital bounds: fractional, reversed, NaN, infinite, beyond every integer
# type, beyond the float32 range, and near 2**63 and 2**64
_SCAN_BOUNDS = [(-0.5, 0.5), (-100.25, 100.75), (1.5, 1.5), (3.0, 3.0), (5.0, 1.0),
                (math.nan, 1.0), (0.0, math.nan), (-math.inf, math.inf), (math.inf, -math.inf),
                (-1e10, 1e10), (300.0, 400.0), (-1e10, -1e9), (-1e300, 1e300), (3.5e38, 1e39),
                (-3.5e38, -3.4e38), (-2.0 ** 63, 2.0 ** 63 - 1024), (0.0, 2.0 ** 64 - 2048),
                (2.0 ** 63 - 2048, 2.0 ** 63), (2.0 ** 64 - 4096, 2.0 ** 64),
                (-(2.0 ** 31) - 0.5, 2.0 ** 31 + 0.5), (-8388608.5, 8388607.0),
                (0.0, 16777215.5), (-32768.0, 32767.0), (-128.0, 255.0)]
_SCAN_DTYPES = ["int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64",
                "float16", "float32", "float64"]


@st.composite
def _scan_values(draw, dtype, count):
    """``count`` samples of ``dtype``: values at its bounds and near 2**63,
    2**64 and the drawn digital bounds, or (floats) NaN, infinities and one
    channel in four of NaN only."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        if draw(st.integers(0, 3)) == 0:
            return np.full(count, np.nan, dtype)
        width = 16 if dtype.itemsize == 2 else 32 if dtype.itemsize == 4 else 64
        edges = st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -0.5, 1.5, 3.0, 100.5,
                                 float(np.finfo(dtype).max), -float(np.finfo(dtype).max)])
        values = draw(st.lists(st.one_of(edges, st.floats(width=width)), min_size=count,
                               max_size=count))
        return np.array(values, dtype)
    bounds = np.iinfo(dtype)
    near = [bounds.min, bounds.max, 0, 1, -1, 2, 3, 100, -100, 300, 1 << 23, -(1 << 23),
            (1 << 24) - 1, 1 << 31, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]
    near += [v + d for v in (1 << 63, 1 << 64) for d in (-2048, -1024, -1000, -1, 1, 1000)]
    pool = st.sampled_from([v for v in near if bounds.min <= v <= bounds.max])
    values = draw(st.lists(st.one_of(pool, st.integers(int(bounds.min), int(bounds.max))),
                           min_size=count, max_size=count))
    return np.array(values, dtype)


def _channels_of(spec, draw):
    return [ChannelInfo(label=f"c{i}", gdf_type=t, samples_per_record=spr,
                        cal=Calibration(0, 1, *draw(st.one_of(
                            st.sampled_from(_SCAN_BOUNDS),
                            st.tuples(st.floats(), st.floats())))))
            for i, (t, spr) in enumerate(spec)]


@st.composite
def _decoded_blocks(draw):
    """(channels, block): a decoded block, some of whose arrays may then be
    swapped, copied, replaced, dropped or given another dtype in place."""
    spec, n = draw(_run_layouts())
    channels = _channels_of(spec, draw)
    samples = []
    for ch in channels:
        info = type_info(ch.gdf_type)
        count = n * ch.samples_per_record
        if ch.is_sparse:
            samples.append(None)
        elif info.kind == "opaque":
            samples.append(np.frombuffer(draw(st.binary(min_size=16 * count,
                                                        max_size=16 * count)),
                                         np.uint8).reshape(count, 16))
        elif info.size == 3:
            samples.append(draw(_scan_values(info.dtype, count)).clip(info.min, info.max))
        else:
            samples.append(draw(_scan_values(info.dtype, count)))
    layout = layout_from_channels(channels)
    block = decode_records(encode_records(SignalBlock(samples, n), layout), layout, n)
    for _ in range(draw(st.integers(0, 2))):
        held = [i for i, a in enumerate(block.samples) if a is not None]
        if not held:
            break
        i, j = draw(st.sampled_from(held)), draw(st.sampled_from(held))
        change = draw(st.sampled_from(["swap", "copy", "other", "dtype", "none"]))
        if change == "none":
            block.samples[i] = None
        elif change == "swap":
            block.samples[i], block.samples[j] = block.samples[j], block.samples[i]
        elif change == "copy":
            block.samples[i] = block.samples[i].copy()
        elif change == "other":
            block.samples[i] = draw(_scan_values(draw(st.sampled_from(_SCAN_DTYPES)),
                                                 len(block.samples[i])))
        elif block.samples[i].dtype.kind in "iu":  # the same bytes, read as the other sign
            arr = block.samples[i]
            arr.dtype = np.dtype(arr.dtype.str.replace("i", "u") if arr.dtype.kind == "i"
                                 else arr.dtype.str.replace("u", "i"))
    # a deep or unpickled copy holds arrays that are rows of no group array
    duplicate = draw(st.sampled_from([None, "deepcopy", *range(pickle.HIGHEST_PROTOCOL + 1)]))
    if duplicate == "deepcopy":
        block = copy.deepcopy(block)
    elif duplicate is not None:
        block = pickle.loads(pickle.dumps(block, duplicate))
    return channels, block


@st.composite
def _row_blocks(draw):
    """(channels, block): arrays built in code as rows of one 2-D array (its
    own, a slice of it, Fortran-ordered, with reversed rows or the transpose
    of a Fortran-ordered square), in order or drawn in any order with
    repeats; or views of the same length that are no row: every step-th
    sample, or a slice starting inside a row."""
    spec, _ = draw(_run_layouts())
    channels = _channels_of(spec, draw)
    k = draw(st.integers(1, 4))
    square = draw(st.integers(0, 3)) == 0  # its rows are columns of the array owning them
    count = k + 1 if square else draw(st.integers(1, 4))
    values = draw(_scan_values(draw(st.sampled_from(_SCAN_DTYPES)), (k + 1) * count))
    grid = values.reshape(k + 1, count).copy()
    grid = np.asfortranarray(grid).T if square else grid
    grid = draw(st.sampled_from([grid, grid[1:], np.asfortranarray(grid), grid[:, ::-1]]))
    flat = grid.reshape(-1) if grid.flags.c_contiguous else None
    views = [grid[i] for i in range(len(grid))]
    if flat is not None:
        views += [flat[at:at + count] for at in range(len(flat) - count + 1)]
        views += [flat[at::step][:count] for step in (2, 3) for at in range(count)
                  if len(flat[at::step]) >= count]
    picks = draw(st.lists(st.integers(0, len(views) - 1), min_size=len(channels),
                          max_size=len(channels)))
    if draw(st.booleans()):
        picks = [i % len(grid) for i in range(picks[0], picks[0] + len(picks))] if picks else []
    return channels, SignalBlock([views[i] for i in picks], 1)


@st.composite
def _built_blocks(draw):
    """(channels, block): arrays built in code, of any dtype and length (one
    in eight of shape (n, 1)), some of them strided views, for a block of as
    many channels as the layout, one fewer or one more."""
    spec, _ = draw(_run_layouts())
    channels = _channels_of(spec, draw)
    samples = []
    for ch in channels + [None]:
        if ch is not None and ch.is_sparse and draw(st.booleans()):
            samples.append(None)
            continue
        count = draw(st.integers(0, 6))
        arr = draw(_scan_values(draw(st.sampled_from(_SCAN_DTYPES)), 2 * count))
        arr = arr[::2] if draw(st.booleans()) else arr[:count]  # strided, or contiguous
        samples.append(arr.reshape(count, 1) if draw(st.integers(0, 7)) == 0 else arr)
    size = draw(st.sampled_from([len(channels) - 1, len(channels), len(channels) + 1]))
    return channels, SignalBlock(samples[:max(size, 0)], 1)


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and text of what it raises; a
    warning is raised as an error and fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except Warning:
            raise
        except Exception as exc:
            return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_run_layouts(), st.data())
def test_run_decoder_against_channel_decoder(case, data):
    """Equal blocks (the bytes of every sample included), or the same
    exception; every decoded array is a writable, C-contiguous row view of
    its group, the array of its run's channels with its samples per record."""
    spec, n = case
    channels = _channels_of(spec, data.draw)
    layout = layout_from_channels(channels)
    size = n * layout.bytes_per_record
    raw = data.draw(st.binary(min_size=size, max_size=size))
    if size and data.draw(st.integers(0, 9)) == 0:
        raw = raw[:-1]  # truncated
    count = data.draw(st.sampled_from([n, n, n, -1]))
    want = _outcome(_old_decode_records, raw, layout, count)
    got = _outcome(decode_records, raw, layout, count)
    assert got == want
    if not isinstance(got, SignalBlock):
        return
    assert [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in got.samples] == \
        [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in want.samples]
    groups = {}  # each group array's channels, in row order
    for entry, arr in zip(layout.channels, got.samples):
        if arr is None:
            continue
        assert arr.flags.writeable and arr.flags.c_contiguous
        assert arr.base.ndim == arr.ndim + 1 and arr.base.flags.c_contiguous
        base, members = groups.setdefault(id(arr.base), (arr.base, []))
        assert base[len(members)].tobytes() == arr.tobytes()
        assert not arr.size or np.shares_memory(arr, base[len(members)])
        members.append(entry)
    for base, members in groups.values():
        assert len(members) == len(base)
        assert len({(e.gdf_type, e.samples_per_record) for e in members}) == 1
        indices = [e.index for e in members]
        between = [c for c in layout.channels[indices[0]:indices[-1] + 1]
                   if c.index not in indices]
        assert all(c.is_sparse for c in between)  # a group does not span another type
    with pytest.MonkeyPatch.context() as mp:  # the scan reads the groups, stacking no copy
        mp.setattr(np, "stack", None)
        assert _outcome(overflow_scan, got, channels) == _old_overflow_scan(got, channels)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_decoded_blocks(), _built_blocks(), _row_blocks()),
       st.sampled_from([records._SCAN_BYTES, 1]), st.sampled_from([records._LONG_ROW, 1]))
def test_scan_against_channel_scan(case, budget, long_row):
    """The same reports, or the same exception, for decoded blocks (as
    decoded, or with arrays swapped, copied, replaced, dropped or retyped in
    place, and deep or pickled copies of them) and blocks built in code (rows
    of a 2-D array among them); a budget of one byte scans a row at a time,
    and a long row of one sample counts every row on its own."""
    channels, block = case
    want = _outcome(_old_overflow_scan, block, channels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records, "_SCAN_BYTES", budget)
        mp.setattr(records, "_LONG_ROW", long_row)
        assert _outcome(overflow_scan, block, channels) == want


def test_scan_reads_the_arrays_the_channels_hold():
    """A decoded group is read at once only where its channels still hold
    their rows: after a swap, a dropped channel between two rows, a row
    retyped in place and a row replaced by a copy before the group changes,
    the reports are those of the arrays the block holds."""
    rows = [[0, 0, 0, 0], [-1, 0, 0, 0], [-1, -1, 0, 0], [-1, -1, -1, 0], [-1, -1, -1, -1],
            [-1, -1, 0, 0], [5, 5, 5, 5], [-1, 0, 0, 0]]
    channels = [make_channel(GdfType.INT16, spr=2, dig=(0.0, 70000.0)) for _ in rows]
    layout = layout_from_channels(channels)
    block = decode_records(encode_records(SignalBlock([np.array(r, np.int16) for r in rows], 2),
                                          layout), layout, 2)
    assert len({id(a.base) for a in block.samples}) == 1
    block.samples[0], block.samples[1] = block.samples[1], block.samples[0]
    block.samples[3] = None
    block.samples[5].dtype = np.uint16  # -1 reads as 65535
    copy = block.samples[6].copy()
    block.samples[6][:] = -1  # the group changes, the copy does not
    block.samples[6] = copy
    want = _old_overflow_scan(block, channels)
    assert [r.n_invalid for r in want] == [1, 0, 2, 0, 4, 0, 0, 1]
    for budget, long_row in ((records._SCAN_BYTES, records._LONG_ROW), (1, 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(records, "_SCAN_BYTES", budget)
            mp.setattr(records, "_LONG_ROW", long_row)
            assert overflow_scan(block, channels) == want


@pytest.mark.parametrize("duplicate", ["deepcopy", *range(pickle.HIGHEST_PROTOCOL + 1)])
def test_scan_of_a_copied_block(duplicate):
    """A deep copy or an unpickled copy of a decoded block holds arrays whose
    base is None, bytes or a 1-D buffer array, not their group: the scan
    gives the reports of the block it copies."""
    rows = [[0, 0, 0, 0], [-1, 0, 0, 0], [-1, -1, 0, 0], [5, 5, 5, 5]]
    channels = [make_channel(GdfType.INT16, spr=2, dig=(0.0, 70000.0)) for _ in rows]
    layout = layout_from_channels(channels)
    block = decode_records(encode_records(SignalBlock([np.array(r, np.int16) for r in rows], 2),
                                          layout), layout, 2)
    copied = (copy.deepcopy(block) if duplicate == "deepcopy"
              else pickle.loads(pickle.dumps(block, duplicate)))
    want = _old_overflow_scan(block, channels)
    assert [r.n_invalid for r in want] == [0, 1, 2, 0]
    assert _outcome(overflow_scan, copied, channels) == want


def test_scan_of_rows_ctypes_cannot_address():
    """Rows of a read-only array or of a dtype without a buffer format
    (datetime64) are read as stacked copies: the per-channel scan's outcome."""
    grid = np.arange(8, dtype=np.int16).reshape(2, 4)
    read_only = grid.copy()
    read_only.flags.writeable = False
    channels = [make_channel(GdfType.INT16, spr=4, dig=(1.0, 6.0)) for _ in grid]
    for rows in (read_only, grid.astype("M8[s]")):
        block = SignalBlock(list(rows), 1)
        assert _outcome(overflow_scan, block, channels) == \
            _outcome(_old_overflow_scan, block, channels)
    assert [r.n_invalid for r in overflow_scan(SignalBlock(list(read_only), 1), channels)] == [1, 1]
