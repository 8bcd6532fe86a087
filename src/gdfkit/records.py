"""Record-oriented data section codec.

A record holds ``samples_per_record`` consecutive samples of channel 1, then
of channel 2, and so on; the data section is the concatenation of all
records. Sparse channels (samples_per_record == 0) contribute no bytes here.
Each continuous channel is thus a strided slice of the data section, which
the codec reads and writes through a zero-copy numpy view. Consecutive
channels of one type (a run) are one contiguous range of each record, so the
encoder casts each channel's samples to the channel's sample dtype (checked,
so nothing is rounded or wrapped) and writes each run with one concatenate.
24-bit integers are stored in 3 little-endian bytes and go through two views:
the low 16 bits and the top byte; their 32-bit container holds values beyond
24 bits, so a 24-bit run is range-checked and split in staged chunks. The
16-byte float type passes through as opaque rows of 16 bytes and is never
scaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, starmap
from typing import Sequence

import numpy as np

from .core import checked_cast, type_info
from .errors import DomainError, TruncatedDataError
from .header import ChannelInfo, channel_column


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
    """Assign record-local byte offsets in channel order, from the type and
    sample-count columns."""
    types = list(map(int, channel_column(channels, "gdf_type")))
    sprs = channel_column(channels, "samples_per_record")
    sizes = [spr * type_info(code).size for code, spr in zip(types, sprs)]
    offsets = list(accumulate(sizes, initial=0))
    return RecordLayout(tuple(starmap(ChannelLayout, zip(
        range(len(types)), sprs, types,
        [offset if spr else None for offset, spr in zip(offsets, sprs)]))), offsets[-1])


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


def encode_records(block: SignalBlock, layout: RecordLayout, out=None):
    """Interleave per-channel arrays back into records; inverse of decode.

    ``out``, a writable buffer of exactly ``n_records * bytes_per_record``
    bytes, is filled in place and returned; without it the records come back
    as new bytes. Each run of the layout is written at once.
    """
    if len(block.samples) != len(layout.channels):
        raise DomainError(f"block has {len(block.samples)} channels, layout "
                          f"{len(layout.channels)}")
    n = block.n_records
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
    size = n * layout.bytes_per_record
    buffer = bytearray(size) if out is None else out
    if memoryview(buffer).nbytes != size:
        raise DomainError(f"output buffer has {memoryview(buffer).nbytes} bytes, "
                          f"the records need {size}")
    for run in layout.runs:
        _encode_run(block.samples, layout, run, n, buffer)
    return bytes(buffer) if out is None else out


# A 24-bit run is staged in chunks of whole records of at most this many
# bytes: its 32-bit container holds values beyond 24 bits, so each chunk
# takes one min/max check before it is split into the two views.
_STAGING_BYTES = 1 << 20


def _encode_run(samples: list, layout: RecordLayout, run: RunLayout, n: int,
                buffer) -> None:
    """Write one run's channels into the record buffer. Each channel's samples
    are taken as they are if they are an array of the channel's sample dtype
    (rows of 16 bytes for the 16-byte float), and go through
    :func:`checked_cast` to that dtype otherwise."""
    info = type_info(run.gdf_type)
    opaque = info.kind == "opaque"
    dtype = np.dtype(np.uint8) if opaque else info.dtype
    arrays = []
    for entry in run.entries:
        v = samples[entry.index]
        if not (isinstance(v, np.ndarray) and v.dtype == dtype):
            v = checked_cast(v, dtype, f"channel {entry.index}")
        spr = entry.samples_per_record
        try:
            arrays.append(v.reshape(n, spr, 16) if opaque else v.reshape(n, spr))
        except ValueError:
            raise DomainError(f"channel {entry.index}: samples of shape {v.shape} are not "
                              f"{n * spr} " + ("rows of 16 bytes" if opaque else "values")
                              ) from None
    if info.size != 3:
        np.concatenate(arrays, axis=1,
                       out=_channel_view(buffer, layout, run, n, _OPAQUE if opaque else dtype))
        return
    low = _channel_view(buffer, layout, run, n, _LOW16)
    high = _channel_view(buffer, layout, run, n, _HIGH8[info.min < 0], 2)
    step = max(1, _STAGING_BYTES // (dtype.itemsize * run.samples_per_record))
    for r in range(0, n, step):
        stage = np.concatenate(arrays if step >= n else [a[r:r + step] for a in arrays], axis=1)
        if not info.min <= stage.min() <= stage.max() <= info.max:
            # the first failing channel over all records, as a
            # channel-by-channel check would find it
            for entry, a in zip(run.entries, arrays):
                if not info.min <= a.min() <= a.max() <= info.max:
                    raise DomainError(f"channel {entry.index}: sample outside {info.name} range")
        low[r:r + step] = stage  # the cast keeps the low 16 bits
        np.right_shift(stage, 16, out=high[r:r + step], casting="unsafe")
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
    for i, (code, lo, hi) in enumerate(zip(*(channel_column(channels, attr) for attr in (
            "gdf_type", "cal.dig_min", "cal.dig_max")))):
        arr = block.samples[i] if i < len(block.samples) else None
        if arr is None or type_info(code).kind == "opaque" or arr.size == 0:
            reports.append(OverflowReport(i, 0 if arr is None else len(arr), 0, None, None))
            continue
        lo, hi = np.float64(lo), np.float64(hi)
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
