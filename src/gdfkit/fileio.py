"""Whole-file and windowed reading, writing, streaming and validation.

A file is five consecutive sections: the 256-byte fixed header, 256 bytes of
variable header per channel, an optional tag-length-value header padded to
256-byte blocks, the record-oriented data section, and (only once the record
count is known) the event table.

Records have a fixed size, so :func:`read_window` decodes only a range of
them, and :func:`read_file` is its whole-file case. A regular file's path is
read range by range (the fixed header, the rest of the header, the event
table, the window's records): records outside the window are never read.

Reading is strict by default: error-severity findings raise
:class:`~gdfkit.errors.DiagnosticError`. Lenient reading recovers whatever it
can and reports everything through the returned diagnostics.
"""

from __future__ import annotations

import operator
import os
import stat
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Sequence

import numpy as np

from . import tlv as tlvmod
from .core import GdfTime, _quote
from .diagnostics import Diagnostics, Severity
from .errors import DiagnosticError, DomainError, GdfError, StructureError, TruncatedDataError
from .events import (
    EventTable,
    SPARSE_SAMPLE_TYPE,
    _usable_sparse_rows,
    event_table_position,
    event_table_size,
    parse_event_table,
    write_event_table,
)
from .header import (
    CHANNEL_HEADER_SIZE,
    ChannelInfo,
    ChannelTable,
    FIXED_HEADER_SIZE,
    FixedHeader,
    _FIXED,
    _FIXED_OFFSETS,
    check_channels,
    parse_channel_headers,
    parse_fixed_header,
    write_channel_headers,
    write_fixed_header,
)
from .records import (
    RecordLayout,
    SignalBlock,
    decode_records,
    encode_records,
    layout_from_channels,
)

@dataclass
class GdfFile:
    """A fully assembled file model.

    ``channels`` is any sequence of channels; :func:`read_file` gives a
    read-only :class:`~gdfkit.header.ChannelTable`. To change the channels
    of a model that was read, store a new list (``replace(f, channels=...)``).
    """

    header: FixedHeader = field(default_factory=FixedHeader)
    channels: Sequence[ChannelInfo] = field(default_factory=list)
    tlv: list[tlvmod.TlvElement] = field(default_factory=list)
    signals: SignalBlock = field(default_factory=SignalBlock.empty)
    events: EventTable | None = None

    @property
    def ns(self) -> int:
        return len(self.channels)

    def layout(self) -> RecordLayout:
        return layout_from_channels(self.channels)


def required_header_blocks(ns: int, tlv: Sequence[tlvmod.TlvElement]) -> int:
    """Header length the writers pick when ``header_blocks`` is 0: NS+1
    blocks plus room for the optional header content and its terminator
    byte. This is the default layout, not the smallest legal one: content
    that fills its blocks exactly needs no terminator."""
    return ns + 1 + tlvmod.region_blocks(tlv)


def _check_geometry(f: GdfFile, diags: Diagnostics) -> int:
    """Check the layout rules shared by :func:`validate` and both writers and
    return the header length checked. An ``ns`` or ``header_blocks`` of 0 is
    filled in on write, and ``n_records == -1`` accepts any record count."""
    h = f.header
    ns = len(f.channels)
    if ns > 0xFFFF:
        diags.error("header.ns_range", f"{ns} channels exceed the 16-bit channel count",
                    section="header1", offset=_FIXED_OFFSETS["ns"])
    if h.ns not in (0, ns):
        diags.error("header.ns_mismatch",
                    f"header says {_quote(h.ns, str)} channels, model has {ns}",
                    section="header1", offset=_FIXED_OFFSETS["ns"])
    blocks = h.header_blocks or required_header_blocks(ns, f.tlv)
    if blocks < ns + 1:
        diags.error("header.blocks_too_small",
                    f"header length {_quote(blocks, str)} blocks is less than NS+1 = {ns + 1}",
                    section="header1", offset=_FIXED_OFFSETS["header_blocks"])
    elif blocks > 0xFFFF:
        diags.error("header.blocks_range", f"header length {_quote(blocks, str)} blocks "
                    "exceeds the 16-bit header_blocks field", section="header1",
                    offset=_FIXED_OFFSETS["header_blocks"])
    elif tlvmod.serialized_size(f.tlv) > 256 * (blocks - ns - 1):
        diags.error("header.tlv_overflow", f"{blocks - ns - 1} optional-header blocks "
                    f"cannot hold {tlvmod.serialized_size(f.tlv)} bytes", section="header3")
    seen = set()
    for e in f.tlv:  # parse_tlv never returns a duplicate; a model built in code may hold one
        if e.tag in seen:
            diags.error("tlv.duplicate_tag", f"tag {e.tag} occurs more than once",
                        section="header3")
        seen.add(e.tag)
    if h.n_records < -1:
        diags.error("header.nrec_invalid", f"record count {_quote(h.n_records, str)} is invalid",
                    section="header1", offset=_FIXED_OFFSETS["n_records"])
    elif h.n_records == -1:
        if f.events is not None:
            diags.error("event.with_ongoing",
                        "event table present although the record count is unknown",
                        section="events")
    elif f.signals.n_records != h.n_records:
        diags.error("data.length_mismatch",
                    f"signal block holds {f.signals.n_records} records, header "
                    f"says {_quote(h.n_records, str)}", section="data")
    return blocks


def _header_sections(f: GdfFile) -> list[bytes]:
    """Header sections 1-3 as both writers emit them: the geometry is checked
    first, then derived header fields are filled in."""
    errors = Diagnostics()
    blocks = _check_geometry(f, errors)
    if errors:
        raise DomainError(errors[0].message, rule=errors[0].rule)
    ns = len(f.channels)
    h = replace(f.header, ns=ns, header_blocks=blocks)
    return [write_fixed_header(h),
            write_channel_headers(f.channels, version_minor=h.version_minor),
            tlvmod.write_tlv_region(f.tlv, 256 * (blocks - ns - 1))]


def read_file(source, *, lenient: bool = False) -> tuple[GdfFile, Diagnostics]:
    """Read and decode a whole file from a path, file object or bytes.

    Returns the model plus all diagnostics gathered along the way. In strict
    mode (default), any error-severity diagnostic raises
    :class:`DiagnosticError`; unrecoverable structural problems raise their
    specific error in either mode.
    """
    return _read(source, None, lenient)


def read_window(source, start_record: int, n_records: int, *,
                lenient: bool = False) -> tuple[GdfFile, Diagnostics]:
    """Read a file as :func:`read_file` does, decoding only records
    ``[start_record, start_record + n_records)``.

    The headers and the event table are parsed, and every diagnostic and
    exception is the one :func:`read_file` gives for the same input. The
    model's ``header.n_records`` is the file's record count (inferred or cut
    as :func:`read_file` would), while ``signals`` holds the window, so
    :func:`to_bytes` and :func:`validate` report ``data.length_mismatch`` for
    any window but the whole file. A negative start or count, or a window
    past the last complete record, raises :class:`DomainError` naming the
    record count; the window is checked last, so a file :func:`read_file`
    refuses raises what :func:`read_file` raises. ``n_records=0`` decodes no
    samples, and reads none from a path.
    """
    return _read(source, (operator.index(start_record), operator.index(n_records)), lenient)


def _read(source, window: tuple[int, int] | None, lenient: bool):
    """Read a regular file's path range by range (its size from ``fstat``),
    a bytes-like source through zero-copy slices, and anything else whole."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):
                size = info.st_size

                def read(start: int, end: int) -> bytes:
                    fh.seek(start)
                    chunk = fh.read(end - start)
                    if len(chunk) < end - start:
                        now = os.fstat(fh.fileno()).st_size
                        raise StructureError(f"file is {now} bytes long now, {size} when "
                                             "reading began", rule="file.shrank", offset=now)
                    return chunk
                return _read_sections(size, read, window, lenient)
            source = fh.read()  # a pipe or a device has no size
    elif not isinstance(source, (bytes, bytearray, memoryview)):
        source = source.read()
    data = memoryview(source).cast("B")
    return _read_sections(len(data), lambda start, end: data[start:end], window, lenient)


def _read_sections(size: int, read, window: tuple[int, int] | None,
                   lenient: bool) -> tuple[GdfFile, Diagnostics]:
    """The body of both readers: ``read(start, end)`` gives bytes [start, end)
    of a file of ``size`` bytes, and ``window`` the records to decode (all of
    them if None)."""
    diags = Diagnostics()
    if size < FIXED_HEADER_SIZE:
        raise StructureError(f"file is only {size} bytes; the fixed header "
                             f"needs {FIXED_HEADER_SIZE}", rule="header.truncated")
    header = parse_fixed_header(read(0, FIXED_HEADER_SIZE), diags)
    ns = header.ns

    h2_size = CHANNEL_HEADER_SIZE * ns
    h2_end = FIXED_HEADER_SIZE + h2_size
    header_end = 256 * header.header_blocks
    if size < header_end:
        raise StructureError(f"file ends inside the header ({size} of "
                             f"{header_end} bytes)", rule="header.truncated")
    rest = memoryview(read(FIXED_HEADER_SIZE, header_end))
    channels = parse_channel_headers(rest[:h2_size], ns,
                                     version_minor=header.version_minor,
                                     diags=diags)
    try:
        elements = tlvmod.parse_tlv(rest[h2_size:], diags=diags, lenient=lenient)
    except StructureError as exc:
        exc.offset += h2_end  # absolute; lenient diagnostics stay section-relative
        raise

    layout = layout_from_channels(channels)
    bpr = layout.bytes_per_record
    available = size - header_end
    complete = available // bpr if bpr else 0
    remainder = available - complete * bpr
    declared_ongoing = header.n_records == -1
    n_records, message = header.n_records, None
    if declared_ongoing:
        n_records = complete
        diags.info("data.nrec_inferred",
                   f"record count unknown (ongoing recording); inferred "
                   f"{n_records} records from the file size",
                   section="data", offset=header_end)
        if remainder:
            message = f"{remainder} stray bytes after the last complete record"
    elif available < n_records * bpr:
        message = (f"data section holds {complete} complete records, "
                   f"header declares {n_records}")
        n_records = complete
    if message:
        if not lenient:
            raise TruncatedDataError(message, rule="data.truncated",
                                     complete_records=complete,
                                     remainder_bytes=remainder)
        diags.warning("data.truncated", message, section="data", offset=header_end)
    # the event table follows all declared records: a file cut before that has none
    tail_start = size if declared_ongoing else \
        event_table_position(header.header_blocks, header.n_records, bpr)
    header = replace(header, n_records=n_records)
    data_end = header_end + n_records * bpr

    events = None
    if tail_start < size:
        tail = read(tail_start, size)
        try:
            events = parse_event_table(tail, diags)
        except StructureError as exc:
            if not lenient:
                raise
            diags.error(exc.rule or "event.malformed", str(exc), section="events",
                        offset=data_end)
        else:
            leftover = len(tail) - event_table_size(events.mode, events.n_events)
            if leftover:
                message = f"{leftover} trailing bytes after the event table"
                if not lenient:
                    raise StructureError(message, rule="file.trailing_bytes",
                                         offset=size - leftover)
                diags.warning("file.trailing_bytes", message, section="events")

    if not lenient and diags.has_errors:
        first = next(d for d in diags if d.severity == Severity.ERROR)
        raise DiagnosticError(f"strict read failed: {first.message}", diags,
                              rule=first.rule)
    begin, count = (0, n_records) if window is None else window
    if begin < 0 or count < 0 or begin + count > n_records:
        raise DomainError(f"a window of {count} records from record {begin} does not "
                          f"lie within the {n_records} records of the file")
    start = header_end + begin * bpr
    signals = decode_records(read(start, start + count * bpr), layout, count)
    return GdfFile(header=header, channels=channels, tlv=elements,
                   signals=signals, events=events), diags


def write_file(f: GdfFile, sink) -> int:
    """Serialise the model; returns the byte count written.

    ``sink`` may be a path or a binary file object. Geometry is checked
    before any byte is emitted, and identical models always produce
    identical bytes.
    """
    blob = to_bytes(f)
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "wb") as fh:
            fh.write(blob)
    else:
        sink.write(blob)
    return len(blob)


def to_bytes(f: GdfFile) -> bytes:
    """Serialise the model to bytes."""
    head = b"".join(_header_sections(f))
    tail = b"" if f.events is None else write_event_table(f.events)
    layout = f.layout()
    start = len(head)
    end = start + f.signals.n_records * layout.bytes_per_record
    buf = bytearray(end + len(tail))
    view = memoryview(buf)  # slice assignment through a view copies no temporary
    view[:start], view[end:] = head, tail
    # at the peak, only the buffer and its final copy are alive
    del head, tail
    encode_records(f.signals, layout, out=view[start:end])
    del layout
    return bytes(buf)


class StreamWriter:
    """Write a recording record by record while its length is still unknown.

    The header goes out immediately with a record count of -1;
    :meth:`finalize` patches the true count in place and appends the event
    table. An unseekable sink can still be finalized, but only without
    events and the stored count stays -1 (readers infer it from the size).
    """

    def __init__(self, sink, header: FixedHeader,
                 channels: Sequence[ChannelInfo],
                 tlv: Sequence[tlvmod.TlvElement] = ()):
        skeleton = GdfFile(header=replace(header, n_records=-1),
                           channels=list(channels), tlv=list(tlv))
        self._layout = skeleton.layout()
        sections = _header_sections(skeleton)
        self._own_file = isinstance(sink, (str, os.PathLike))
        self._fh: BinaryIO = open(sink, "wb") if self._own_file else sink
        self._fh.writelines(sections)
        self._bytes = sum(map(len, sections))
        self._n_records = 0
        self._finalized = False

    @property
    def records_written(self) -> int:
        return self._n_records

    def append_record(self, samples: Sequence) -> None:
        """Write one record; ``samples[i]`` holds channel i's samples for this
        record (None or empty for sparse channels, ``(spr, 16)`` byte rows for
        the 16-byte float type)."""
        if self._finalized:
            raise GdfError("cannot append: the writer is already finalized")
        chunk = encode_records(SignalBlock(list(samples), 1), self._layout,
                               out=np.empty(self._layout.bytes_per_record, np.uint8))
        self._fh.write(chunk)
        self._bytes += len(chunk)
        self._n_records += 1

    def finalize(self, events: EventTable | None = None) -> int:
        """Patch the record count, append events if any, and return the total
        byte count of the finished file."""
        if self._finalized:
            raise GdfError("writer is already finalized")
        if events is not None and not self._fh.seekable():
            raise GdfError("cannot store an event table: the sink is not "
                           "seekable, so the record count cannot be patched")
        if self._fh.seekable():
            self._fh.seek(_FIXED_OFFSETS["n_records"])
            self._fh.write(np.array(self._n_records, _FIXED["n_records"]).tobytes())
            self._fh.seek(self._bytes)
        if events is not None:
            blob = write_event_table(events)
            self._fh.write(blob)
            self._bytes += len(blob)
        self._fh.flush()
        self._finalized = True
        if self._own_file:
            self._fh.close()
        return self._bytes

    def close(self) -> None:
        """Abandon the writer without patching; the file keeps its -1 count
        and stays readable in lenient mode."""
        self._finalized = True
        self._fh.flush()
        if self._own_file:
            self._fh.close()


def validate(f: GdfFile) -> Diagnostics:
    """Model-level consistency checks; never raises, returns findings."""
    diags = Diagnostics()
    _check_geometry(f, diags)
    if f.header.duration_den == 0:
        diags.error("header.duration_zero_denominator",
                    "record duration denominator is zero", section="header1",
                    offset=_FIXED_OFFSETS["duration"])

    check_channels(f.channels, diags)

    for e in f.tlv:
        try:
            tlvmod.decode_tag_value(e, ns=f.ns, diags=diags)
        except StructureError as exc:
            diags.error(exc.rule, str(exc), section="header3")

    if f.events is not None:
        _validate_events(f, diags)
    return diags


def _validate_events(f: GdfFile, diags: Diagnostics) -> None:
    t = f.events
    h = f.header
    if np.any(t.pos == 0):
        diags.error("event.pos_zero",
                    "event positions are one-based; position 0 is invalid",
                    section="events")
    if h.n_records >= 0 and h.duration_den and t.sample_rate_hz > 0:
        limit = h.n_records * h.duration_num * t.sample_rate_hz / h.duration_den
        ends = t.pos.astype(np.float64)
        if t.mode == 3:
            ends = ends + t.dur.astype(np.float64) * (t.typ != SPARSE_SAMPLE_TYPE)
        past = ends > limit + 0.5
        if np.any(past):
            diags.warning("event.pos_past_end",
                          f"{int(past.sum())} event(s) lie past the end of the "
                          f"recording ({limit:g} samples)", section="events")
    ns = len(f.channels)
    if t.mode == 3:
        bad_chn = t.chn > ns
        if np.any(bad_chn):
            diags.error("event.channel_range",
                        f"{int(bad_chn.sum())} event(s) reference channels "
                        f"beyond NS = {ns}", section="events")
        _usable_sparse_rows(t, f.channels, diags)
    elif np.any(t.typ == SPARSE_SAMPLE_TYPE):
        diags.error("event.sparse_in_mode1",
                    "sparse sample rows (type 0x7FFF) are only valid in mode 3",
                    section="events")


def anonymize(f: GdfFile, *, birthday_offset_days: int | None = None) -> GdfFile:
    """Strip identifying content: the name subfield becomes 'X', technician
    and lab elements are dropped, and the birthday is zeroed (or shifted by
    at most one year when an offset is given, trading privacy for age
    accuracy). Everything else is preserved. With the default zeroing the
    operation is idempotent.
    """
    p = f.header.patient
    parts = p.pid.split(" ")
    parts += ["X"] * (3 - len(parts))
    parts[1] = "X"
    if birthday_offset_days is None:
        birthday = GdfTime(0)
    else:
        if abs(birthday_offset_days) > 366:
            raise DomainError("birthday offset must stay within one year "
                              "(366 days)")
        birthday = p.birthday.shift_days(birthday_offset_days) \
            if p.birthday.is_set else p.birthday
    patient = replace(p, pid=" ".join(parts), birthday=birthday)
    header = replace(f.header, patient=patient)
    elements = [e for e in f.tlv
                if e.tag not in (tlvmod.TAG_TECHNICIAN, tlvmod.TAG_LAB)]
    # a table is read-only, so both models can hold it
    channels = f.channels if isinstance(f.channels, ChannelTable) else list(f.channels)
    return GdfFile(header=header, channels=channels, tlv=elements,
                   signals=f.signals, events=f.events)
