import io
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdfkit import records
from gdfkit.core import Calibration, GdfType, type_info
from gdfkit.errors import DomainError, TruncatedDataError
from gdfkit.fileio import GdfFile, StreamWriter, read_file, to_bytes
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

    @pytest.mark.parametrize("gdf_type, samples, match", [
        (GdfType.INT16, np.zeros((4, 2), np.int16), r"channel 0: samples of shape \(4, 2\)"),
        (GdfType.FLOAT128, np.zeros((4, 8), np.uint8), "channel 0: .* rows of 16 bytes"),
    ], ids=["int16-2d", "float128-short-rows"])
    def test_wrong_shape_rejected(self, gdf_type, samples, match):
        ch = make_channel(gdf_type, spr=4)
        with pytest.raises(DomainError, match=match):
            encode_records(SignalBlock([samples], 1), layout_from_channels([ch]))
        writer = StreamWriter(io.BytesIO(), FixedHeader(), [ch])
        with pytest.raises(DomainError, match=match):
            writer.append_record([samples])

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
        (np.array([_ROUNDS_TO_INF]), "channel 1: finite sample outside float32 range"),
        (np.array([-_ROUNDS_TO_INF]), "channel 1: finite sample outside float32 range"),
    ], ids=["int-1e40", "int-1e400", "list-midpoint", "tuple-midpoint", "array-midpoint",
            "array-negative-midpoint"])
    def test_float32_overflow_refused(self, samples, message):
        """The encoder wrote 10**40 as inf with a RuntimeWarning and let an
        OverflowError escape for 10**400."""
        assert self._float32_outcomes(samples) == [message, message]

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
            assert got.flags.writeable and got.flags.owndata and got.flags.c_contiguous
            assert _as_reference(got) == values
        assert encode_records(block, layout) == data


# Differential test of the run encoder against the channel-by-channel
# encoder it replaced: same bytes, or the same exception type and text. The
# reference rejects a wrongly shaped array with numpy's ValueError; the cases
# below are all shaped right.
def _channel_encode(block, layout):
    def view(buffer, entry, dtype, skip=0):
        return np.ndarray((n, entry.samples_per_record), dtype, buffer,
                          offset=entry.offset + skip if n else 0,
                          strides=(layout.bytes_per_record, type_info(entry.gdf_type).size))

    if len(block.samples) != len(layout.channels):
        raise DomainError(f"block has {len(block.samples)} channels, layout "
                          f"{len(layout.channels)}")
    n = block.n_records
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
    # a sequence for an integer channel holds integers its container dtype
    # holds, built from the Python numbers (see test_list_samples_stored_exactly);
    # one for a float channel holds numbers that do not round to infinity in
    # its type, which is when struct refuses to pack them (OverflowError for a
    # float, struct.error for an int)
    samples = list(block.samples)
    for entry in layout.channels:
        info, arr = type_info(entry.gdf_type), samples[entry.index]
        if entry.is_sparse or info.kind == "opaque" or isinstance(arr, np.ndarray):
            continue
        if info.kind == "float":
            for v in arr:
                try:
                    struct.pack("<f" if info.size == 4 else "<d", v)
                except (OverflowError, struct.error):
                    raise DomainError(f"channel {entry.index} cannot hold {v!r} ({info.dtype})"
                                      ) from None
            continue
        bounds = np.iinfo(info.dtype)
        for v in arr:
            if not ((isinstance(v, int) or isinstance(v, float) and v.is_integer())
                    and bounds.min <= v <= bounds.max):
                raise DomainError(f"channel {entry.index} cannot hold {v!r} ({info.dtype})")
        samples[entry.index] = np.array([int(v) for v in arr], info.dtype)
    out = np.empty(n * layout.bytes_per_record, np.uint8)
    for entry in layout.channels:
        if entry.is_sparse:
            continue
        info = type_info(entry.gdf_type)
        channel = samples[entry.index]
        shape = (n, entry.samples_per_record)
        if info.kind == "opaque":
            rows = np.asarray(channel, dtype=np.uint8)
            if rows.size != n * entry.samples_per_record * 16:
                raise DomainError("opaque samples must be rows of 16 bytes")
            view(out, entry, np.dtype((np.uint8, 16)))[...] = rows.reshape(*shape, 16)
            continue
        v = np.asarray(channel)
        if (info.kind == "int" and (v.dtype != info.dtype or info.size == 3) and v.size
                and not (v.min() >= info.min and v.max() < info.max + 1)):
            raise DomainError(f"channel {entry.index}: sample outside {info.name} range")
        if info.kind == "float" and info.size == 4 and v.dtype.kind == "f":
            with np.errstate(over="ignore"):  # a finite sample that rounds to infinity
                if np.any(np.isfinite(v) & np.isinf(v.astype(np.float32))):
                    raise DomainError(f"channel {entry.index}: finite sample outside "
                                      "float32 range")
        v = v.reshape(shape)
        if info.size == 3:
            if v.dtype.kind not in "iu":
                v = v.astype(np.int64)
            view(out, entry, "<u2")[...] = v
            np.right_shift(v, 16, out=view(out, entry, "i1" if info.min < 0 else "u1", 2),
                           casting="unsafe")
        else:
            view(out, entry, info.dtype)[...] = v
    return out.tobytes()


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
def _channel_input(draw, gdf_type, count):
    """Samples for one channel: in range for its type, or (one channel in
    five) with values at and beyond its bounds, in one of several dtypes."""
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
    kind = draw(st.sampled_from(_INPUT_KINDS))
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
    assert n * 4 * spr * 8 > 2 * records._STAGING_BYTES
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
