"""Record-oriented data section codec.

A record holds ``samples_per_record`` consecutive samples of channel 1, then
of channel 2, and so on; the data section is the concatenation of all
records. Sparse channels (samples_per_record == 0) contribute no bytes here.
Each continuous channel is thus a strided slice of the data section, which
the codec reads and writes through a zero-copy numpy view. Consecutive
channels of one type (a run) are one contiguous range of each record, so the
encoder writes each run at once. 24-bit integers are stored in 3
little-endian bytes and go through two views: the low 16 bits and the top
byte. The 16-byte float type passes through as opaque bytes and is never
scaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import TypeInfo, checked_cast, type_info
from .errors import DomainError, TruncatedDataError
from .header import ChannelInfo


@dataclass(frozen=True)
class ChannelLayout:
    """Placement of one channel inside a record; sparse channels have no offset."""

    index: int
    samples_per_record: int
    gdf_type: int
    offset: int | None

    @property
    def is_sparse(self) -> bool:
        return self.samples_per_record == 0


@dataclass(frozen=True)
class RunLayout:
    """A maximal sequence of consecutive continuous channels of one data type.

    Its channels' samples lie back to back inside a record (sparse channels
    have no bytes, so they do not break a run), so a run is placed like one
    channel whose ``samples_per_record`` is the sum of its members'.
    """

    offset: int
    samples_per_record: int
    gdf_type: int
    entries: tuple[ChannelLayout, ...]


@dataclass(frozen=True)
class RecordLayout:
    channels: tuple[ChannelLayout, ...]
    bytes_per_record: int

    @cached_property
    def runs(self) -> tuple[RunLayout, ...]:
        """The continuous channels grouped into runs; worked out on first use
        (only the encoder needs them) and kept."""
        runs: list[list[ChannelLayout]] = []
        for entry in self.channels:
            if entry.is_sparse:
                continue
            if runs and runs[-1][0].gdf_type == entry.gdf_type:
                runs[-1].append(entry)
            else:
                runs.append([entry])
        return tuple(RunLayout(run[0].offset, sum(e.samples_per_record for e in run),
                               run[0].gdf_type, tuple(run)) for run in runs)


def layout_from_channels(channels: Sequence[ChannelInfo]) -> RecordLayout:
    """Assign record-local byte offsets in channel order."""
    entries = []
    offset = 0
    for i, ch in enumerate(channels):
        info = type_info(ch.gdf_type)
        if ch.is_sparse:
            entries.append(ChannelLayout(i, 0, int(ch.gdf_type), None))
            continue
        entries.append(ChannelLayout(i, ch.samples_per_record, int(ch.gdf_type), offset))
        offset += ch.samples_per_record * info.size
    return RecordLayout(tuple(entries), offset)


@dataclass
class SignalBlock:
    """Decoded samples of all continuous channels.

    ``samples[i]`` is the record-concatenated raw array of channel ``i``
    (None for sparse channels; an (n, 16) uint8 array for the opaque 16-byte
    float type).
    """

    samples: list[np.ndarray | None]
    n_records: int

    def __eq__(self, other):
        if not isinstance(other, SignalBlock):
            return NotImplemented
        if self.n_records != other.n_records or len(self.samples) != len(other.samples):
            return False
        for a, b in zip(self.samples, other.samples):
            if (a is None) != (b is None):
                return False
            if a is None:
                continue
            if a.dtype != b.dtype or a.shape != b.shape:
                return False
            equal_nan = a.dtype.kind == "f"
            if not np.array_equal(a, b, equal_nan=equal_nan):
                return False
        return True

    @classmethod
    def empty(cls) -> "SignalBlock":
        return cls([], 0)


_OPAQUE = np.dtype((np.uint8, 16))  # one 16-byte float sample as a row of bytes
_LOW16 = np.dtype("<u2")            # low two bytes of a 24-bit sample
_HIGH8 = {True: np.dtype("i1"), False: np.dtype("u1")}  # its top byte, by signedness
_FLOAT32_OVERFLOW = 2.0 ** 128 - 2.0 ** 103  # from here on a value rounds to inf in float32


def _channel_view(buffer, layout: RecordLayout, entry: ChannelLayout | RunLayout,
                  n_records: int, dtype, skip: int = 0) -> np.ndarray:
    """Zero-copy (n_records, samples_per_record) view of one channel or run in
    a record buffer; ``skip`` shifts it by bytes within each sample."""
    return np.ndarray((n_records, entry.samples_per_record), dtype, buffer,
                      offset=entry.offset + skip if n_records else 0,
                      strides=(layout.bytes_per_record, type_info(entry.gdf_type).size))


def decode_records(data: bytes | memoryview, layout: RecordLayout,
                   n_records: int) -> SignalBlock:
    """Split the data section into per-channel sample arrays.

    ``data`` is any buffer (bytes, memoryview). Each channel is one owned,
    C-contiguous copy of its strided view. The byte count must equal
    ``n_records * bytes_per_record`` exactly; anything else raises
    :class:`TruncatedDataError` reporting how many complete records are
    present.
    """
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
    samples: list[np.ndarray | None] = []
    for entry in layout.channels:
        if entry.is_sparse:
            samples.append(None)
            continue
        info = type_info(entry.gdf_type)
        shape = (n_records, entry.samples_per_record)
        if info.kind == "opaque":
            out = np.empty((n_records * entry.samples_per_record, 16), np.uint8)
            out.reshape(*shape, 16)[...] = _channel_view(data, layout, entry, n_records,
                                                         _OPAQUE)
        else:
            out = np.empty(n_records * entry.samples_per_record, info.dtype)
            grid = out.reshape(shape)
            if info.size == 3:
                high = _channel_view(data, layout, entry, n_records, _HIGH8[info.min < 0], 2)
                np.left_shift(high, 16, out=grid, dtype=info.dtype)  # sign-extends int24
                grid |= _channel_view(data, layout, entry, n_records, _LOW16)
            else:
                grid[...] = _channel_view(data, layout, entry, n_records, info.dtype)
        samples.append(out)
    return SignalBlock(samples, n_records)


def _range_error(v: np.ndarray, info: TypeInfo) -> str | None:
    """Why samples ``v`` cannot be stored as ``info``'s type, or None."""
    # A 24-bit container holds out-of-range values; other matching dtypes
    # cannot. min and max + 1 are 0 or powers of two, so they stay exact
    # against float input, and NaN fails both comparisons.
    if (info.kind == "int" and (v.dtype != info.dtype or info.size == 3) and v.size
            and not (v.min() >= info.min and v.max() < info.max + 1)):
        return f"sample outside {info.name} range"
    if (info.kind == "float" and info.size == 4 and v.dtype != info.dtype
            and v.dtype.kind == "f" and v.size
            and np.any(np.isfinite(v) & (np.abs(v) >= _FLOAT32_OVERFLOW))):
        return "finite sample outside float32 range"
    return None


def encode_records(block: SignalBlock, layout: RecordLayout, out=None):
    """Interleave per-channel arrays back into records; inverse of decode.

    ``out``, a writable buffer of exactly ``n_records * bytes_per_record``
    bytes, is filled in place and returned; without it the records come back
    as new bytes. Each run of the layout is written at once, split only where
    the input dtype changes.
    """
    if len(block.samples) != len(layout.channels):
        raise DomainError(f"block has {len(block.samples)} channels, layout "
                          f"{len(layout.channels)}")
    n = block.n_records
    sequences = []  # continuous channels given as a list or other sequence
    for entry, arr in zip(layout.channels, block.samples):
        if entry.offset is None:  # sparse
            if arr is not None and len(arr) > 0:
                raise DomainError(f"channel {entry.index} is sparse but carries samples")
            continue
        if arr is None or len(arr) != n * entry.samples_per_record:
            have = "none" if arr is None else str(len(arr))
            raise DomainError(
                f"channel {entry.index} needs {n * entry.samples_per_record} "
                f"samples for {n} records, has {have}")
        if not isinstance(arr, np.ndarray):
            sequences.append(entry)
    samples = block.samples
    if sequences:  # a sequence is stored exactly as its channel's dtype holds it, or refused
        samples = list(samples)
        for entry in sequences:
            info = type_info(entry.gdf_type)
            if info.kind != "opaque":
                samples[entry.index] = checked_cast(samples[entry.index], info.dtype,
                                                    f"channel {entry.index}")
    size = n * layout.bytes_per_record
    buffer = bytearray(size) if out is None else out
    if memoryview(buffer).nbytes != size:
        raise DomainError(f"output buffer has {memoryview(buffer).nbytes} bytes, "
                          f"the records need {size}")
    for run in layout.runs:
        _encode_run(samples, layout, run, n, buffer)
    return bytes(buffer) if out is None else out


# Inputs that need a range check or a cast are staged in chunks of whole
# records of at most this many bytes, so one min/max covers many channels.
_STAGING_BYTES = 1 << 20


def _encode_run(samples: list, layout: RecordLayout, run: RunLayout, n: int,
                buffer) -> None:
    """Write one run's channels into the record buffer, one group of
    consecutive channels with the same input dtype at a time."""
    info = type_info(run.gdf_type)
    opaque = info.kind == "opaque"
    want = np.uint8 if opaque else None
    arrays = []
    cuts = []  # the entry index at which each group starts
    dtype = None
    for k, entry in enumerate(run.entries):
        v = np.asarray(samples[entry.index], want)
        spr = entry.samples_per_record
        try:
            v = v.reshape(n, spr, 16) if opaque else v.reshape(n, spr)
        except ValueError:
            raise DomainError(f"channel {entry.index}: samples of shape {v.shape} are not "
                              f"{n * spr} " + ("rows of 16 bytes" if opaque else "values")
                              ) from None
        if dtype is None or v.dtype != dtype:  # np.dtype(None) is float64
            cuts.append(k)
            dtype = v.dtype
        arrays.append(v)
    cuts.append(len(arrays))
    if info.size == 3:
        low = _channel_view(buffer, layout, run, n, _LOW16)
        high = _channel_view(buffer, layout, run, n, _HIGH8[info.min < 0], 2)
    else:
        view = _channel_view(buffer, layout, run, n, _OPAQUE if opaque else info.dtype)
    for first, last in zip(cuts, cuts[1:]):
        entries, chunks = run.entries[first:last], arrays[first:last]
        start = (entries[0].offset - run.offset) // info.size
        stop = (entries[-1].offset - run.offset) // info.size + entries[-1].samples_per_record
        if info.size != 3 and chunks[0].dtype == view.dtype:
            np.concatenate(chunks, axis=1, out=view[:, start:stop])
            continue
        step = max(1, _STAGING_BYTES // (chunks[0].dtype.itemsize * (stop - start)))
        for r in range(0, n, step):
            stage = np.concatenate(chunks if step >= n else [c[r:r + step] for c in chunks],
                                   axis=1)
            if _range_error(stage, info):
                # the first failing channel over all records, as a
                # channel-by-channel check would find it
                for entry, chunk in zip(entries, chunks):
                    reason = _range_error(chunk, info)
                    if reason:
                        raise DomainError(f"channel {entry.index}: {reason}")
            if info.size == 3:
                if stage.dtype.kind not in "iu":
                    stage = stage.astype(np.int64)
                low[r:r + step, start:stop] = stage  # the cast keeps the low 16 bits
                np.right_shift(stage, 16, out=high[r:r + step, start:stop],
                               casting="unsafe")
            else:
                view[r:r + step, start:stop] = stage
            del stage  # before the next chunk is staged, so one chunk is alive at a time


@dataclass(frozen=True)
class OverflowReport:
    """Saturation summary of one channel."""

    channel: int
    n_samples: int
    n_invalid: int
    raw_min: float | None
    raw_max: float | None

    @property
    def saturation_ratio(self) -> float:
        return self.n_invalid / self.n_samples if self.n_samples else 0.0


def _float32_bounds(lo: np.float64, hi: np.float64) -> tuple[np.float32, np.float32]:
    """The float32 bounds that admit exactly the float32 values within
    [lo, hi], so a float32 channel is compared in its own dtype (a float64
    comparison is several times slower) with the same result."""
    with np.errstate(over="ignore"):  # beyond the float32 range: +-inf
        lo32, hi32 = np.float32(lo), np.float32(hi)
        if lo32 < lo:
            lo32 = np.nextafter(lo32, np.float32(np.inf))
        if hi32 > hi:
            hi32 = np.nextafter(hi32, np.float32(-np.inf))
    return lo32, hi32


def overflow_scan(block: SignalBlock, channels: Sequence[ChannelInfo]) -> list[OverflowReport]:
    """Count samples outside each channel's digital bounds."""
    reports = []
    for i, ch in enumerate(channels):
        arr = block.samples[i] if i < len(block.samples) else None
        if arr is None or type_info(ch.gdf_type).kind == "opaque" or arr.size == 0:
            reports.append(OverflowReport(i, 0 if arr is None else len(arr), 0, None, None))
            continue
        lo, hi = np.float64(ch.cal.dig_min), np.float64(ch.cal.dig_max)
        if arr.dtype == np.float32:
            lo, hi = _float32_bounds(lo, hi)
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
