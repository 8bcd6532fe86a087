"""Whole-file reading, writing, streaming and validation.

A file is five consecutive sections: the 256-byte fixed header, 256 bytes of
variable header per channel, an optional tag-length-value header padded to
256-byte blocks, the record-oriented data section, and (only once the record
count is known) the event table.

Reading is strict by default: error-severity findings raise
:class:`~gdfkit.errors.DiagnosticError`. Lenient reading recovers whatever it
can and reports everything through the returned diagnostics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import BinaryIO, Sequence

import numpy as np

from . import tlv as tlvmod
from .core import GdfTime
from .diagnostics import Diagnostics, Severity
from .errors import DiagnosticError, DomainError, GdfError, StructureError, TruncatedDataError
from .events import (
    EventTable,
    SPARSE_SAMPLE_TYPE,
    _usable_sparse_rows,
    event_table_size,
    parse_event_table,
    write_event_table,
)
from .header import (
    CHANNEL_HEADER_SIZE,
    ChannelInfo,
    FIXED_HEADER_SIZE,
    FixedHeader,
    _FIXED_LAYOUT,
    _FIXED_OFFSETS,
    _check_channel,
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
    """A fully assembled file model."""

    header: FixedHeader = field(default_factory=FixedHeader)
    channels: list[ChannelInfo] = field(default_factory=list)
    tlv: list[tlvmod.TlvElement] = field(default_factory=list)
    signals: SignalBlock = field(default_factory=SignalBlock.empty)
    events: EventTable | None = None

    @property
    def ns(self) -> int:
        return len(self.channels)

    def layout(self) -> RecordLayout:
        return layout_from_channels(self.channels)


def required_header_blocks(ns: int, tlv: Sequence[tlvmod.TlvElement]) -> int:
    """Smallest legal header length: NS+1 blocks plus room for the optional
    header content and its terminator byte."""
    return ns + 1 + tlvmod.region_blocks(tlv)


def _header_sections(f: GdfFile) -> list[bytes]:
    """Header sections 1-3 as both writers emit them: derived header fields
    are filled in and the geometry is checked first."""
    h = f.header
    ns = len(f.channels)
    if h.ns not in (0, ns):
        raise DomainError(f"header says {h.ns} channels but the model has {ns}")
    minimum = required_header_blocks(ns, f.tlv)
    blocks = h.header_blocks or minimum
    if blocks < minimum:
        raise DomainError(f"header_blocks {blocks} cannot hold {ns} channels "
                          f"plus {tlvmod.serialized_size(f.tlv)} bytes of "
                          "optional header")
    if h.n_records == -1:
        if f.events is not None:
            raise DomainError("an ongoing recording (n_records == -1) cannot "
                              "carry an event table")
    elif h.n_records != f.signals.n_records:
        raise DomainError(f"header says {h.n_records} records but the signal "
                          f"block holds {f.signals.n_records}")
    h = replace(h, ns=ns, header_blocks=blocks)
    return [write_fixed_header(h),
            write_channel_headers(f.channels, version_minor=h.version_minor),
            tlvmod.write_tlv_region(f.tlv, 256 * (blocks - ns - 1))]


def _open_source(source) -> bytes | memoryview:
    if isinstance(source, (bytes, bytearray, memoryview)):
        return memoryview(source).cast("B")
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read()
    return source.read()


def read_file(source, *, lenient: bool = False) -> tuple[GdfFile, Diagnostics]:
    """Read and decode a whole file from a path, file object or bytes.

    Returns the model plus all diagnostics gathered along the way. In strict
    mode (default), any error-severity diagnostic raises
    :class:`DiagnosticError`; unrecoverable structural problems raise their
    specific error in either mode.
    """
    data = _open_source(source)
    diags = Diagnostics()
    if len(data) < FIXED_HEADER_SIZE:
        raise StructureError(f"file is only {len(data)} bytes; the fixed header "
                             f"needs {FIXED_HEADER_SIZE}", rule="header.truncated")
    header = parse_fixed_header(data[:FIXED_HEADER_SIZE], diags)
    ns = header.ns

    h2_end = FIXED_HEADER_SIZE + CHANNEL_HEADER_SIZE * ns
    header_end = 256 * header.header_blocks
    if len(data) < header_end:
        raise StructureError(f"file ends inside the header ({len(data)} of "
                             f"{header_end} bytes)", rule="header.truncated")
    channels = parse_channel_headers(data[FIXED_HEADER_SIZE:h2_end], ns,
                                     version_minor=header.version_minor,
                                     diags=diags)
    elements = tlvmod.parse_tlv(data[h2_end:header_end], diags=diags, lenient=lenient)

    layout = layout_from_channels(channels)
    bpr = layout.bytes_per_record
    available = len(data) - header_end
    declared_ongoing = header.n_records == -1

    if header.n_records >= 0:
        n_records = header.n_records
        need = n_records * bpr
        if available < need:
            complete = available // bpr if bpr else 0
            message = (f"data section holds {complete} complete records, "
                       f"header declares {n_records}")
            if not lenient:
                raise TruncatedDataError(message, rule="data.truncated",
                                         complete_records=complete,
                                         remainder_bytes=available - complete * bpr)
            diags.warning("data.truncated", message, section="data", offset=header_end)
            n_records = complete
            header = replace(header, n_records=n_records)
        data_end = header_end + n_records * bpr
    else:
        # ongoing recording: infer the record count from the file size
        n_records = available // bpr if bpr else 0
        remainder = available - n_records * bpr
        diags.info("data.nrec_inferred",
                   f"record count unknown (ongoing recording); inferred "
                   f"{n_records} records from the file size",
                   section="data", offset=header_end)
        if remainder:
            message = f"{remainder} stray bytes after the last complete record"
            if not lenient:
                raise TruncatedDataError(message, rule="data.truncated",
                                         complete_records=n_records,
                                         remainder_bytes=remainder)
            diags.warning("data.truncated", message, section="data")
        header = replace(header, n_records=n_records)
        data_end = header_end + n_records * bpr

    signals = decode_records(memoryview(data)[header_end:data_end], layout, n_records)

    events = None
    tail = data[data_end:]
    if tail and not declared_ongoing:
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
                                         offset=len(data) - leftover)
                diags.warning("file.trailing_bytes", message, section="events")

    f = GdfFile(header=header, channels=channels, tlv=elements,
                signals=signals, events=events)
    if not lenient and diags.has_errors:
        first = next(d for d in diags if d.severity == Severity.ERROR)
        raise DiagnosticError(f"strict read failed: {first.message}", diags,
                              rule=first.rule)
    return f, diags


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
    parts = _header_sections(f)
    parts.append(encode_records(f.signals, f.layout()))
    if f.events is not None:
        parts.append(write_event_table(f.events))
    return b"".join(parts)


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
        if len(samples) != len(self._layout.channels):
            raise DomainError(f"record needs {len(self._layout.channels)} channel "
                              f"entries, got {len(samples)}")
        chunk = encode_records(SignalBlock(list(samples), 1), self._layout)
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
            self._fh.write(_FIXED_LAYOUT["n_records"].struct.pack(self._n_records))
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
    h = f.header
    ns = len(f.channels)

    if h.ns != ns:
        diags.error("header.ns_mismatch",
                    f"header says {h.ns} channels, model has {ns}",
                    section="header1", offset=_FIXED_OFFSETS["ns"])
    blocks = h.header_blocks or required_header_blocks(ns, f.tlv)
    if blocks < ns + 1:
        diags.error("header.blocks_too_small",
                    f"header length {blocks} blocks is less than NS+1 = {ns + 1}",
                    section="header1", offset=_FIXED_OFFSETS["header_blocks"])
    elif tlvmod.serialized_size(f.tlv) > 256 * (blocks - ns - 1):
        diags.error("header.tlv_overflow",
                    "optional header content does not fit the reserved blocks",
                    section="header3")
    if h.duration_den == 0:
        diags.error("header.duration_zero_denominator",
                    "record duration denominator is zero", section="header1",
                    offset=_FIXED_OFFSETS["duration"])

    for i, ch in enumerate(f.channels):
        _check_channel(ch, i, diags)

    seen = set()
    for e in f.tlv:
        # models built in code never pass parse_tlv's duplicate check
        if e.tag in seen:
            diags.error("tlv.duplicate_tag", f"tag {e.tag} occurs more than once",
                        section="header3")
        seen.add(e.tag)
        try:
            tlvmod.decode_tag_value(e, ns=ns, diags=diags)
        except StructureError as exc:
            diags.error(exc.rule, str(exc), section="header3")

    if f.signals.n_records != max(h.n_records, 0):
        diags.error("data.length_mismatch",
                    f"signal block holds {f.signals.n_records} records, header "
                    f"says {h.n_records}", section="data")

    if f.events is not None:
        _validate_events(f, diags)
    return diags


def _validate_events(f: GdfFile, diags: Diagnostics) -> None:
    t = f.events
    h = f.header
    if h.n_records < 0:
        diags.error("event.with_ongoing",
                    "event table present although the record count is unknown",
                    section="events")
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
    return GdfFile(header=header, channels=list(f.channels), tlv=elements,
                   signals=f.signals, events=f.events)
