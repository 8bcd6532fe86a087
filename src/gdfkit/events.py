"""Event table codec and helpers.

The event table sits after the data section and exists only when the record
count is known. Mode 1 stores {type, position}; mode 3 adds {channel,
duration}. Positions are one-based sample indices at the table's own sample
rate; a rendered timeline uses (pos - 1) / rate seconds. Mode-1 span ends
set bit 15 of the type (code | 0x8000). Type 0x7FFF rows carry one sample of
a sparse channel in the duration field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import float32_exact, type_info
from .diagnostics import Diagnostics, sink
from .errors import CapacityError, DomainError, StructureError
from .header import ChannelInfo, _nan_checked

#: Bit or-ed into a mode-1 event type to mark the end of a span.
END_FLAG = 0x8000
#: Event type whose duration field carries one sparse-channel sample.
SPARSE_SAMPLE_TYPE = 0x7FFF

_HEADER_SIZE = 8

# The embedded event-code table, in the interchange format also accepted by
# EventCodeRegistry.from_text: '#' comment lines and '0xHHHH description' rows.
BUILTIN_EVENT_CODES = """\
#### EEG artifacts
0x0101 artifact:EOG
0x0102 artifact:ECG
0x0103 artifact:EMG/Muscle
0x0104 artifact:Movement
0x0105 artifact:Failing Electrode
0x0106 artifact:Sweat
0x0107 artifact:50/60 Hz mains interference
0x0108 artifact:breathing
0x0109 artifact:pulse
#### EEG patterns
0x0111 eeg:Sleep spindles
0x0112 eeg:K-complexes
0x0113 eeg:Saw-tooth waves
#### Trigger, cues, classlabels
0x0300 Trigger, start of Trial (unspecific)
0x0301 Left - cue onset (BCI experiment)
0x0302 Right - cue onset (BCI experiment)
0x0303 Foot - cue onset (BCI experiment)
0x0304 Tongue - cue onset (BCI experiment)
0x0306 Down - cue onset (BCI experiment)
0x030C Up - cue onset (BCI experiment)
0x030D Feedback (continuous) - onset (BCI experiment)
0x030E Feedback (discrete) - onset (BCI experiment)
0x0311 Beep (accoustic stimulus, BCI experiment)
0x0312 Cross on screen (BCI experiment)
0x03FF Rejection of whole trial
#### Sleep-related respiratory events
0x0401 Obstructive Apnea/Hypopnea Event (OAHE)
0x0402 Respiratory Effort Related Arousal (RERA)
0x0403 Central Apnea/Hypopnea Event (CAHE)
0x0404 Cheyne-Stokes Breathing (CSB)
0x0405 Sleep Hypoventilation
#### Sleep stages
0x0410 Wake
0x0411 Stage 1
0x0412 Stage 2
0x0413 Stage 3
0x0414 Stage 4
0x0415 REM
#### ECG events
0x0501 ecg:Fiducial point of QRS complex
0x0502 ecg:P-wave
0x0503 ecg:Q-point
0x0504 ecg:R-point
0x0505 ecg:S-point
0x0506 ecg:T-point
0x0507 ecg:U-wave
#### Other
0x0000 No event
0x7FFF non-equidistant sampled value
"""


def parse_event_code_table(text: str) -> dict[int, str]:
    """Parse '0xHHHH description' rows; lines starting with '#' are skipped."""
    table: dict[int, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        code_text, _, description = line.partition(" ")
        table[int(code_text, 16)] = description.strip()
    return table


class EventCodeRegistry:
    """Resolve event type codes to descriptions.

    User entries (for example from the event-descriptions element of the
    optional header) shadow the built-in table.
    """

    def __init__(self, user: dict[int, str] | None = None):
        self._builtin = parse_event_code_table(BUILTIN_EVENT_CODES)
        self._user: dict[int, str] = dict(user or {})

    @classmethod
    def from_text(cls, text: str) -> "EventCodeRegistry":
        return cls(parse_event_code_table(text))

    @classmethod
    def from_file(cls, path) -> "EventCodeRegistry":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def add_descriptions(self, descriptions: Sequence[str]) -> None:
        """Register a description list: list index i maps to code i (1-based)."""
        for i, description in enumerate(descriptions, start=1):
            if i > 255:
                break
            if description:
                self._user[i] = description

    def get(self, code: int) -> str | None:
        return self._user.get(code) or self._builtin.get(code)

    def describe(self, code: int) -> str:
        if code & END_FLAG and code != END_FLAG:
            return "end of: " + self.describe(code & 0x7FFF)
        known = self.get(code)
        return known if known is not None else f"user-defined (0x{code:04X})"


_DEFAULT_REGISTRY = EventCodeRegistry()


def describe_event(code: int, registry: EventCodeRegistry | None = None) -> str:
    return (registry or _DEFAULT_REGISTRY).describe(code)


@dataclass(frozen=True)
class EventTable:
    """Parallel event arrays plus the sample rate their positions refer to.

    Mode 1 keeps only positions and types; mode 3 adds per-event channel
    (0 = all channels) and duration arrays.
    """

    mode: int
    sample_rate_hz: float
    pos: np.ndarray
    typ: np.ndarray
    chn: np.ndarray | None = None
    dur: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in (1, 3):
            raise DomainError(f"event table mode must be 1 or 3, got {self.mode}")
        object.__setattr__(self, "sample_rate_hz",
                           float32_exact(float(self.sample_rate_hz)))
        pos = np.asarray(self.pos, dtype="<u4")
        typ = np.asarray(self.typ, dtype="<u2")
        if len(pos) != len(typ):
            raise DomainError("pos and typ arrays differ in length")
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "typ", typ)
        if self.mode == 3:
            chn = np.zeros(len(pos), "<u2") if self.chn is None \
                else np.asarray(self.chn, dtype="<u2")
            dur = np.zeros(len(pos), "<u4") if self.dur is None \
                else np.asarray(self.dur, dtype="<u4")
            if len(chn) != len(pos) or len(dur) != len(pos):
                raise DomainError("chn/dur arrays differ in length from pos")
            object.__setattr__(self, "chn", chn)
            object.__setattr__(self, "dur", dur)
        elif self.chn is not None or self.dur is not None:
            raise DomainError("chn/dur arrays are only valid in mode 3")

    @property
    def n_events(self) -> int:
        return len(self.pos)

    def times_seconds(self) -> np.ndarray:
        """Event onsets on a timeline where the first sample is t = 0."""
        return (self.pos.astype(np.float64) - 1.0) / self.sample_rate_hz

    def __eq__(self, other):
        if not isinstance(other, EventTable):
            return NotImplemented
        if self.mode != other.mode or self.n_events != other.n_events:
            return False
        rate_equal = (self.sample_rate_hz == other.sample_rate_hz
                      or (np.isnan(self.sample_rate_hz) and np.isnan(other.sample_rate_hz)))
        return (rate_equal
                and np.array_equal(self.pos, other.pos)
                and np.array_equal(self.typ, other.typ)
                and (self.mode == 1
                     or (np.array_equal(self.chn, other.chn)
                         and np.array_equal(self.dur, other.dur))))

    @classmethod
    def empty(cls, mode: int = 1, sample_rate_hz: float = 0.0) -> "EventTable":
        return cls(mode, sample_rate_hz, np.array([], "<u4"), np.array([], "<u2"))


def event_table_size(mode: int, n_events: int) -> int:
    """Serialised size: 8 + 6*NEV (mode 1) or 8 + 12*NEV (mode 3)."""
    return _HEADER_SIZE + n_events * (6 if mode == 1 else 12)


def event_table_position(header_blocks: int, n_records: int, bytes_per_record: int) -> int:
    """Absolute byte offset of the event table.

    Undefined while the recording is ongoing (n_records == -1): no event
    table may exist then.
    """
    if n_records < 0:
        raise DomainError("no event table position: the record count is still unknown")
    return 256 * header_blocks + n_records * bytes_per_record


def parse_event_table(data: bytes, diags: Diagnostics | None = None) -> EventTable:
    """Decode an event table from the start of ``data``.

    Extra bytes after the table are ignored here; whole-file reading checks
    them separately.
    """
    diags = sink(diags)
    if len(data) < _HEADER_SIZE:
        raise StructureError(f"event table header needs 8 bytes, got {len(data)}",
                             rule="event.truncated")
    mode = data[0]
    if mode not in (1, 3):
        raise StructureError(f"event table mode must be 1 or 3, got {mode}",
                             rule="event.bad_mode")
    n_events = int.from_bytes(data[1:4], "little")
    sample_rate, = _nan_checked(struct.unpack_from("<f", data, 4), data, 4, diags, "events")
    needed = event_table_size(mode, n_events)
    if len(data) < needed:
        raise StructureError(
            f"event table declares {n_events} events ({needed} bytes) but only "
            f"{len(data)} bytes remain", rule="event.truncated")
    at = _HEADER_SIZE
    pos = np.frombuffer(data, "<u4", n_events, at).copy()
    at += 4 * n_events
    typ = np.frombuffer(data, "<u2", n_events, at).copy()
    at += 2 * n_events
    chn = dur = None
    if mode == 3:
        chn = np.frombuffer(data, "<u2", n_events, at).copy()
        at += 2 * n_events
        dur = np.frombuffer(data, "<u4", n_events, at).copy()
    return EventTable(mode, sample_rate, pos, typ, chn, dur)


def write_event_table(table: EventTable) -> bytes:
    """Serialise; byte-exact inverse of :func:`parse_event_table`."""
    if table.n_events >= 1 << 24:
        raise CapacityError(f"{table.n_events} events exceed the 24-bit count field")
    out = bytearray(event_table_size(table.mode, table.n_events))
    out[0] = table.mode
    out[1:4] = table.n_events.to_bytes(3, "little")
    struct.pack_into("<f", out, 4, table.sample_rate_hz)
    at = _HEADER_SIZE
    for arr in (table.pos, table.typ) + ((table.chn, table.dur) if table.mode == 3 else ()):
        raw = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        out[at:at + len(raw)] = raw
        at += len(raw)
    return bytes(out)


# --- span pairing and mode conversion ---------------------------------------

@dataclass(frozen=True)
class EventSpan:
    """A paired begin/end (end is None for an open-ended event)."""

    typ: int
    start: int
    end: int | None = None

    @property
    def duration(self) -> int:
        return 0 if self.end is None else self.end - self.start


@dataclass
class PairedEvents:
    spans: list[EventSpan] = field(default_factory=list)
    orphan_ends: list[tuple[int, int]] = field(default_factory=list)  # (typ, pos)


def pair_mode1_events(table: EventTable, diags: Diagnostics | None = None) -> PairedEvents:
    """Match end markers (bit 15 set) to the most recent unmatched start.

    Ends without a start are kept verbatim in ``orphan_ends`` and reported as
    diagnostics; starts without an end become open spans.
    """
    if table.mode != 1:
        raise DomainError("span pairing expects a mode-1 event table")
    diags = sink(diags)
    result = PairedEvents()
    open_spans: dict[int, list[int]] = {}
    spans: list[list] = []  # [typ, start, end]
    for pos, typ in zip(table.pos.tolist(), table.typ.tolist()):
        if typ & END_FLAG:
            base = typ & 0x7FFF
            stack = open_spans.get(base)
            if stack:
                spans[stack.pop()][2] = pos
            else:
                diags.warning("event.unmatched_end",
                              f"end marker 0x{typ:04X} at position {pos} has no "
                              "open start", section="events")
                result.orphan_ends.append((typ, pos))
        else:
            open_spans.setdefault(typ, []).append(len(spans))
            spans.append([typ, pos, None])
    for typ, start, end in spans:
        if end is None:
            diags.info("event.open_span",
                       f"event 0x{typ:04X} at position {start} never ends",
                       section="events")
        result.spans.append(EventSpan(typ, start, end))
    return result


def flatten_spans(paired: PairedEvents) -> list[tuple[int, int]]:
    """Inverse of pairing: the original multiset of (typ, pos) rows."""
    out = []
    for span in paired.spans:
        out.append((span.typ, span.start))
        if span.end is not None:
            out.append((span.typ | END_FLAG, span.end))
    out.extend(paired.orphan_ends)
    return out


def convert_mode(table: EventTable, target_mode: int,
                 diags: Diagnostics | None = None) -> EventTable:
    """Re-encode between the two event-table forms.

    1 -> 3 turns paired begin/end markers into duration rows (channel 0);
    3 -> 1 splits rows with a duration into begin and end markers. Sparse
    sample rows (type 0x7FFF) have no mode-1 form.
    """
    diags = sink(diags)
    if target_mode not in (1, 3):
        raise DomainError(f"target mode must be 1 or 3, got {target_mode}")
    if table.mode == target_mode:
        raise DomainError("event table is already in the requested mode")

    if target_mode == 3:
        paired = pair_mode1_events(table, diags)
        rows = [(span.start, span.typ, 0, span.duration) for span in paired.spans]
        rows += [(pos, typ, 0, 0) for typ, pos in paired.orphan_ends]
        rows.sort(key=lambda r: (r[0], r[1]))
        return EventTable(
            3, table.sample_rate_hz,
            np.array([r[0] for r in rows], "<u4"),
            np.array([r[1] for r in rows], "<u2"),
            np.array([r[2] for r in rows], "<u2"),
            np.array([r[3] for r in rows], "<u4"),
        )

    if np.any(table.typ == SPARSE_SAMPLE_TYPE):
        raise DomainError("sparse sample rows (type 0x7FFF) cannot be expressed "
                          "in a mode-1 event table")
    if np.any(table.chn != 0):
        diags.warning("event.channel_dropped",
                      "mode 1 has no channel field; channel associations are lost",
                      section="events")
    rows = []
    for pos, typ, dur in zip(table.pos.tolist(), table.typ.tolist(), table.dur.tolist()):
        rows.append((pos, typ))
        if dur > 0:
            end_pos = pos + dur
            if end_pos >= 1 << 32:
                raise CapacityError(f"span end {end_pos} exceeds the 32-bit "
                                    "position field")
            rows.append((end_pos, typ | END_FLAG))
    # at equal positions, ends sort before starts so touching spans re-pair
    rows.sort(key=lambda r: (r[0], 0 if r[1] & END_FLAG else 1, r[1]))
    return EventTable(
        1, table.sample_rate_hz,
        np.array([r[0] for r in rows], "<u4"),
        np.array([r[1] for r in rows], "<u2"),
    )


# --- sparse-channel samples ---------------------------------------------------

@dataclass(frozen=True)
class SparseSample:
    """One sample of a sparse channel, recovered from an event row."""

    pos: int
    raw: int | float
    physical: float


def sparse_value_from_dur(dur: int, gdf_type: int) -> int | float:
    """Reinterpret the 32-bit duration field as a sample of the given type."""
    info = type_info(gdf_type)
    if info.size > 4:
        raise DomainError(f"sparse samples cannot use {info.name}: wider than 32 bits")
    if info.kind == "float":
        return struct.unpack("<f", struct.pack("<I", dur))[0]
    bits = info.size * 8
    value = dur & ((1 << bits) - 1)
    if info.min < 0 and value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def dur_from_sparse_value(value: int | float, gdf_type: int) -> int:
    """Inverse of :func:`sparse_value_from_dur` (zero-extended)."""
    info = type_info(gdf_type)
    if info.size > 4:
        raise DomainError(f"sparse samples cannot use {info.name}: wider than 32 bits")
    if info.kind == "float":
        return struct.unpack("<I", struct.pack("<f", value))[0]
    if not info.min <= value <= info.max:
        raise DomainError(f"{value} outside the {info.name} range")
    bits = info.size * 8
    return int(value) & ((1 << bits) - 1)


def _usable_sparse_rows(table: EventTable, channels: Sequence[ChannelInfo],
                        diags: Diagnostics) -> np.ndarray:
    """Mask of the 0x7FFF rows of a mode-3 table whose channel is a sparse
    channel of at most 32 bits; every other 0x7FFF row is reported."""
    sparse = table.typ == SPARSE_SAMPLE_TYPE
    if not sparse.any():
        return sparse
    ns = len(channels)
    # indexed by the 1-based channel number; 0 and everything above NS stay False
    usable = np.zeros(ns + 2, bool)
    usable[1:ns + 1] = [ch.is_sparse and type_info(ch.gdf_type).size <= 4
                        for ch in channels]
    ok = usable[np.minimum(table.chn, ns + 1)]
    bad = np.flatnonzero(sparse & ~ok)
    for pos, chn in zip(table.pos[bad].tolist(), table.chn[bad].tolist()):
        diags.error("event.sparse_channel_invalid",
                    f"sparse sample at position {pos} references channel {chn}, "
                    "which is not a sparse channel of at most 32 bits",
                    section="events")
    return sparse & ok


def extract_sparse_samples(table: EventTable, channels: Sequence[ChannelInfo],
                           diags: Diagnostics | None = None
                           ) -> dict[int, list[SparseSample]]:
    """Collect the sparse-channel samples carried by 0x7FFF rows.

    Returns a mapping from 0-based channel index to samples in table order.
    Rows that point at channel 0, beyond NS, at a continuous channel or at a
    sparse channel wider than 32 bits are skipped with an error diagnostic.
    """
    if table.mode != 3:
        raise DomainError("sparse samples live in mode-3 event tables")
    diags = sink(diags)
    out: dict[int, list[SparseSample]] = {
        i: [] for i, ch in enumerate(channels) if ch.is_sparse}
    rows = _usable_sparse_rows(table, channels, diags)
    for pos, chn, dur in zip(table.pos[rows].tolist(), table.chn[rows].tolist(),
                             table.dur[rows].tolist()):
        ch = channels[chn - 1]
        raw = sparse_value_from_dur(dur, ch.gdf_type)
        out[chn - 1].append(SparseSample(pos, raw, ch.cal.scale(raw)))
    return out


def default_event_rate(channels: Sequence[ChannelInfo],
                       duration_num: int, duration_den: int) -> float:
    """The writer's default: the fastest channel sampling rate."""
    rates = [ch.sampling_rate(duration_num, duration_den) for ch in channels]
    return max(rates, default=0.0)
