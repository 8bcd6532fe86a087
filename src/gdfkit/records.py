"""Record-oriented data section codec.

A record holds ``samples_per_record`` consecutive samples of channel 1, then
of channel 2, and so on; the data section is the concatenation of all
records. Sparse channels (samples_per_record == 0) contribute no bytes here.
Consecutive channels of one type (a run) are one contiguous range of each
record, which the codec reads and writes through a zero-copy numpy view. The
decoder copies each group of a run's channels with equal samples per record
into one 2-D array, whose rows are the channels' samples, and the overflow
scan compares such rows a chunk at a time. The encoder casts each channel's
samples to the channel's sample dtype (checked, so nothing is rounded or
wrapped) and writes each run with one concatenate. 24-bit integers are stored
in 3 little-endian bytes and go through two views: the low 16 bits and the
top byte; their 32-bit container holds values beyond 24 bits, so a 24-bit run
is range-checked and split in staged chunks. The 16-byte float type passes
through as opaque rows of 16 bytes and is never scaled.
"""

from __future__ import annotations

from ctypes import addressof, c_char
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, count, groupby, repeat, starmap
from operator import attrgetter
from typing import NamedTuple, Sequence

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
        and kept."""
        runs = [tuple(run) for _, run in groupby(
            (entry for entry in self.channels if not entry.is_sparse), attrgetter("gdf_type"))]
        return tuple(RunLayout(run[0].offset, sum(e.samples_per_record for e in run),
                               run[0].gdf_type, run) for run in runs)


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

    ``data`` is any buffer (bytes, memoryview). Each run of the layout is
    split into groups of consecutive channels with equal samples per record,
    and each group is one new ``(channels, samples)`` array (rows of 16 bytes
    for the 16-byte float), filled with one copy; a channel's samples are a
    writable, C-contiguous row view of it, so they keep the group alive and
    cannot be resized. The byte count must equal ``n_records *
    bytes_per_record`` exactly; anything else raises
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
    samples: list[np.ndarray | None] = [None] * len(layout.channels)
    for run in layout.runs:
        info = type_info(run.gdf_type)
        opaque = info.kind == "opaque"
        for spr, entries in groupby(run.entries, attrgetter("samples_per_record")):
            entries = tuple(entries)
            k = len(entries)
            group = RunLayout(entries[0].offset, k * spr, run.gdf_type, entries)

            def view(dtype, skip=0):  # the group's samples as (k, n_records, spr)
                v = _channel_view(data, layout, group, n_records, dtype, skip)
                return v.reshape(n_records, k, spr, *v.shape[2:]).swapaxes(0, 1)
            out = np.empty((k, n_records * spr) + (16,) * opaque, _OPAQUE.base if opaque
                           else info.dtype)
            grid = out.reshape(k, n_records, spr, *out.shape[2:])
            if info.size == 3:
                np.copyto(grid, view(_HIGH8[info.min < 0], 2))  # sign-extends int24
                grid <<= 16
                grid |= view(_LOW16)
            else:
                np.copyto(grid, view(_OPAQUE if opaque else info.dtype))
            for entry, row in zip(entries, out):
                samples[entry.index] = row
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


class OverflowReport(NamedTuple):
    """Saturation summary of one channel."""

    channel: int
    n_samples: int
    n_invalid: int
    raw_min: float | None
    raw_max: float | None

    @property
    def saturation_ratio(self) -> float:
        return self.n_invalid / self.n_samples if self.n_samples else 0.0


def _bounds(dtype: np.dtype, lo: np.ndarray, hi: np.ndarray):
    """Per-row bounds that admit exactly the samples of ``dtype`` a float64
    comparison with [lo, hi] admits, so that float32 and integers of at most
    32 bits are compared in their own dtype (a float64 comparison is several
    times slower): the float32 values within [lo, hi], and integers within
    ``ceil(lo)..floor(hi)`` cut to the dtype, with max..min (empty) for a
    NaN, reversed or out-of-dtype range; 64-bit integers compare in float64."""
    if dtype == np.float32:
        with np.errstate(over="ignore"):  # beyond the float32 range: +-inf
            lo32, hi32 = lo.astype(np.float32), hi.astype(np.float32)
            return (np.where(lo32 < lo, np.nextafter(lo32, np.float32(np.inf)), lo32),
                    np.where(hi32 > hi, np.nextafter(hi32, np.float32(-np.inf)), hi32))
    if dtype.kind not in "iu" or dtype.itemsize > 4:
        return lo, hi
    info = np.iinfo(dtype)
    lo, hi = np.ceil(lo), np.floor(hi)
    empty = ~(lo <= hi) | (lo > info.max) | (hi < info.min)
    return (np.where(empty, info.max, np.maximum(lo, info.min)).astype(dtype),
            np.where(empty, info.min, np.minimum(hi, info.max)).astype(dtype))


# overflow_scan compares at most about this many bytes of samples at once, so
# a large group is scanned in cache-sized chunks of whole channels, and counts
# the valid samples of rows this long one row at a time
_SCAN_BYTES = 1 << 18
_LONG_ROW = 4096


def _address(arr: np.ndarray) -> int | None:
    """Where a writable C-contiguous array's data starts, through ctypes'
    buffer (several times faster than ``arr.ctypes``); None for any other."""
    try:
        return addressof(c_char.from_buffer(arr))
    except (TypeError, ValueError):  # read-only, not C-contiguous, or no buffer format
        return None


def overflow_scan(block: SignalBlock, channels: Sequence[ChannelInfo]) -> list[OverflowReport]:
    """Count samples outside each channel's digital bounds.

    Consecutive channels whose arrays share a dtype and shape are scanned as
    the rows of one 2-D array: the array they are consecutive rows of (a
    decoded group), a stacked copy otherwise. Each chunk of rows takes one
    compare against per-row bounds. Samples that are not an array (a list or
    tuple built in code) go through :func:`checked_cast` to the channel's
    sample dtype, as the encoder takes them.
    """
    codes, lows, highs = (channel_column(channels, attr) for attr in (
        "gdf_type", "cal.dig_min", "cal.dig_max"))
    opaque = {code for code in dict.fromkeys(codes) if type_info(code).kind == "opaque"}
    reports: list = [None] * len(codes)
    spans = []  # [channels, arrays, group array or None, row of the first channel]
    key = following = origin = start = None
    for i, code, arr in zip(count(), codes, chain(block.samples, repeat(None))):
        if not (arr is None or code in opaque or isinstance(arr, np.ndarray)):
            arr = checked_cast(arr, type_info(code).dtype, f"channel {i}")
        if arr is None or code in opaque or arr.size == 0:
            reports[i] = OverflowReport(i, 0 if arr is None else len(arr), 0, None, None)
            continue
        if arr.base is not origin:  # a decoded group array, its data at `start`
            origin = arr.base
            start = _address(origin) if type(origin) is np.ndarray and origin.ndim > 1 else None
        address = _address(arr) if (start is not None and arr.dtype == origin.dtype
                                    and arr.shape == origin.shape[1:]) else None
        # arr is row j of its base if its data starts j whole rows in (a view
        # lies within its base)
        j, rest = (None, 1) if address is None else divmod(address - start, arr.nbytes)
        base, j = (None, None) if rest else (origin, j)
        if key == (arr.dtype, arr.shape, id(base)) and j == following:
            span[0].append(i)
            span[1].append(arr)
        else:
            key, span = (arr.dtype, arr.shape, id(base)), [[i], [arr], base, j]
            spans.append(span)
        following = None if j is None else j + 1
    lows, highs = np.array(lows, np.float64), np.array(highs, np.float64)
    for indices, arrays, base, first in spans:
        size, dtype = arrays[0].size, arrays[0].dtype
        lo, hi = _bounds(dtype, lows[indices, None], highs[indices, None])
        step = max(1, _SCAN_BYTES // arrays[0].nbytes)
        for at in range(0, len(indices), step):
            end = min(at + step, len(indices))
            chunk = (np.stack(arrays[at:end]) if base is None
                     else base[first + at:first + end]).reshape(end - at, size)
            with np.errstate(invalid="ignore"):
                valid = (chunk >= lo[at:end]) & (chunk <= hi[at:end])
            # a long row is counted several times faster a row at a time
            counts = np.add.reduce(valid.view(np.uint8), axis=1, dtype=np.uint32) \
                if size < _LONG_ROW \
                else np.fromiter(map(np.count_nonzero, valid), np.intp, end - at)
            # NaN is no extreme (all NaN: None). A NaN sample is never valid,
            # so only a chunk with invalid samples is searched for one; fmin
            # is not used, as a signalling NaN makes it drop the values before
            nan = np.isnan(chunk) if dtype.kind == "f" and (counts < size).any() else None
            if nan is not None and not nan.any():
                nan = None
            extremes = ([None if gone else v for v, gone in zip(
                            ufunc.reduce(chunk if nan is None else np.where(nan, fill, chunk),
                                         axis=1).astype(np.float64).tolist(),
                            repeat(False) if nan is None else nan.all(axis=1).tolist())]
                        for ufunc, fill in ((np.minimum, np.inf), (np.maximum, -np.inf)))
            for i, report in zip(indices[at:end], map(OverflowReport._make, zip(
                    indices[at:end], repeat(size), (size - counts).tolist(), *extremes))):
                reports[i] = report
    return reports
