"""Event table codec and helpers.

The event table sits after the data section and exists only when the record
count is known. Mode 1 stores {type, position}; mode 3 adds {channel,
duration}. Positions are one-based sample indices at the table's own sample
rate; a rendered timeline uses (pos - 1) / rate seconds. Mode-1 span ends
set bit 15 of the type (code | 0x8000). Type 0x7FFF rows carry one sample of
a sparse channel in the duration field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import checked_cast, float32_exact, type_info
from .diagnostics import Diagnostics, sink
from .errors import CapacityError, DomainError, StructureError
from .header import ChannelInfo, _nan_checked, channel_column, sampling_rate
from .records import ChannelLayout, RecordLayout, SignalBlock, decode_records, encode_records

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
    """Parse '0xHHHH description' rows; lines starting with '#' are skipped.
    A row whose code is not a hexadecimal number in 0..0xFFFF raises
    DomainError quoting the row."""
    table: dict[int, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        code_text, _, description = line.partition(" ")
        try:
            code = int(code_text, 16)
        except ValueError:
            code = -1
        if not 0 <= code <= 0xFFFF:
            raise DomainError(f"event code row {line!r}: the code is not a hexadecimal "
                              "number in 0x0000..0xFFFF")
        table[code] = description.strip()
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
        for i, description in enumerate(descriptions[:255], start=1):
            if description:
                self._user[i] = description

    def get(self, code: int) -> str | None:
        return self._user.get(code) or self._builtin.get(code)

    def describe(self, code: int) -> str:
        if code & END_FLAG:
            return "end of: " + self.describe(code & 0x7FFF)
        known = self.get(code)
        return known if known is not None else f"user-defined (0x{code:04X})"


# The on-disk columns of an event table in file order; a table of mode m
# stores the first m + 1 of them.
_COLUMNS = (("pos", "<u4"), ("typ", "<u2"), ("chn", "<u2"), ("dur", "<u4"))


@dataclass(frozen=True)
class EventTable:
    """Parallel event arrays plus the sample rate their positions refer to.

    Mode 1 keeps only positions and types; mode 3 adds per-event channel
    (0 = all channels) and duration arrays, which default to zeros.
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
        if self.mode == 1 and (self.chn is not None or self.dur is not None):
            raise DomainError("chn/dur arrays are only valid in mode 3")
        object.__setattr__(self, "sample_rate_hz",
                           float32_exact(self.sample_rate_hz, "sample_rate_hz"))
        n = len(self.pos)
        for name, dtype in _COLUMNS[:self.mode + 1]:
            values = getattr(self, name)
            column = np.zeros(n, dtype) if values is None else \
                checked_cast(values, dtype, f"event column {name!r}")
            if len(column) != n:
                raise DomainError(f"event column {name!r} has {len(column)} rows, "
                                  f"'pos' has {n}")
            object.__setattr__(self, name, column)

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
        return rate_equal and all(np.array_equal(getattr(self, name), getattr(other, name))
                                  for name, _ in _COLUMNS[:self.mode + 1])


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
    sample_rate, = _nan_checked(np.ndarray(1, "<f4", data, 4), 4, diags, "events")
    needed = event_table_size(mode, n_events)
    if len(data) < needed:
        raise StructureError(
            f"event table declares {n_events} events ({needed} bytes) but only "
            f"{len(data)} bytes remain", rule="event.truncated")
    columns, at = [], _HEADER_SIZE
    for _, dtype in _COLUMNS[:mode + 1]:
        columns.append(np.frombuffer(data, dtype, n_events, at).copy())
        at += columns[-1].nbytes
    return EventTable(mode, sample_rate, *columns)


def write_event_table(table: EventTable) -> bytes:
    """Serialise; byte-exact inverse of :func:`parse_event_table`."""
    if table.n_events >= 1 << 24:
        raise CapacityError(f"{table.n_events} events exceed the 24-bit count field")
    head = (bytes([table.mode]) + table.n_events.to_bytes(3, "little")
            + np.array(table.sample_rate_hz, "<f4").tobytes())
    return b"".join([head] + [getattr(table, name).tobytes()
                              for name, _ in _COLUMNS[:table.mode + 1]])


# --- span pairing and mode conversion ---------------------------------------

class EventSpan(NamedTuple):
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


def _pair_rows(pos: np.ndarray, typ: np.ndarray, diags: Diagnostics
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack pairing of mode-1 rows: the start rows, the end row of each
    start (-1 while open) and the rows of ends without a start.

    Rows are taken type by type, in row order within a type. The depth of a
    row is the number of open starts of its type before it: a running sum
    of +1 per start and -1 per end, less its running minimum. An end at
    depth 0 has no start. A start's level is its depth after it, an end's
    the depth before it, so within one (type, level) the rows alternate
    start, end, start, ... and each start is followed by its end.
    """
    n = len(typ)
    base = typ & 0x7FFF
    order = base.argsort(kind="stable")  # uint16: a radix sort
    start = typ[order] < END_FLAG
    step = start * 2 - 1
    depth = step.cumsum()
    depth -= step  # the running sum before each row
    # each type sits 2n + 1 below the one before, so the running minimum
    # restarts at every type and one running sum serves them all
    depth -= np.multiply(base[order], 2 * n + 1, dtype=np.int64)
    depth -= np.minimum.accumulate(depth)
    level = depth + start  # 0 exactly for an orphan end
    if n and level.max() <= 0xFFFF:  # a radix sort, unless 65536 starts nest
        level = level.astype(np.uint16)
    by_level = level.argsort(kind="stable")  # by level, then type, then row
    start = start[by_level]
    paired = np.flatnonzero(start[:-1] > start[1:])  # a start, then its end
    rows = order[by_level]
    end_of = np.full(n, -1, np.intp)
    end_of[rows[paired]] = rows[paired + 1]
    starts = np.flatnonzero(typ < END_FLAG)
    ends = end_of[starts]
    orphans = np.sort(order[level == 0])
    for p, t in zip(pos[orphans].tolist(), typ[orphans].tolist()):
        diags.warning("event.unmatched_end",
                      f"end marker 0x{t:04X} at position {p} has no open start",
                      section="events")
    never = starts[ends < 0]
    for p, t in zip(pos[never].tolist(), typ[never].tolist()):
        diags.info("event.open_span", f"event 0x{t:04X} at position {p} never ends",
                   section="events")
    return starts, ends, orphans


def pair_mode1_events(table: EventTable, diags: Diagnostics | None = None) -> PairedEvents:
    """Match end markers (bit 15 set) to the most recent unmatched start.

    Ends without a start are kept verbatim in ``orphan_ends`` and reported as
    diagnostics; starts without an end become open spans.
    """
    if table.mode != 1:
        raise DomainError("span pairing expects a mode-1 event table")
    pos, typ = table.pos, table.typ
    starts, ends, orphans = _pair_rows(pos, typ, sink(diags))
    end_pos = pos[ends].tolist()
    for i in np.flatnonzero(ends < 0).tolist():
        end_pos[i] = None
    return PairedEvents(
        list(map(EventSpan._make, zip(typ[starts].tolist(), pos[starts].tolist(), end_pos))),
        list(zip(typ[orphans].tolist(), pos[orphans].tolist())))


def convert_mode(table: EventTable, target_mode: int,
                 diags: Diagnostics | None = None) -> EventTable:
    """Re-encode between the two event-table forms.

    1 -> 3 turns paired begin/end markers into duration rows (channel 0);
    3 -> 1 splits rows with a duration into begin and end markers. Sparse
    sample rows (type 0x7FFF) and rows with a duration whose code is already
    an end marker have no mode-1 form.
    """
    diags = sink(diags)
    if target_mode not in (1, 3):
        raise DomainError(f"target mode must be 1 or 3, got {target_mode}")
    if table.mode == target_mode:
        raise DomainError("event table is already in the requested mode")

    if target_mode == 3:
        starts, ends, orphans = _pair_rows(table.pos, table.typ, diags)
        # spans first, then orphan ends, each its own end: duration 0
        rows = np.concatenate((starts, orphans))
        last = np.concatenate((ends, orphans))
        pos = table.pos[rows].astype(np.int64)
        dur = np.where(last < 0, pos, table.pos[last]) - pos
        backwards = np.flatnonzero(dur < 0)
        if backwards.size:
            i = backwards[0]
            raise DomainError(f"span 0x{table.typ[rows[i]]:04X} starting at position "
                              f"{pos[i]} ends before it, at position {pos[i] + dur[i]}")
        typ = table.typ[rows]
        order = np.lexsort((typ, pos))
        return EventTable(3, table.sample_rate_hz, pos[order], typ[order],
                          dur=dur[order])

    if np.any(table.typ == SPARSE_SAMPLE_TYPE):
        raise DomainError("sparse sample rows (type 0x7FFF) cannot be expressed "
                          "in a mode-1 event table")
    ended = np.flatnonzero((table.typ & END_FLAG != 0) & (table.dur > 0))
    if ended.size:
        i = ended[0]
        raise DomainError(f"event 0x{table.typ[i]:04X} at position {table.pos[i]} has a "
                          "duration but its code is an end marker (bit 15 set); mode 1 "
                          "cannot express it")
    if np.any(table.chn != 0):
        diags.warning("event.channel_dropped",
                      "mode 1 has no channel field; channel associations are lost",
                      section="events")
    spans = np.flatnonzero(table.dur > 0)
    end_pos = table.pos[spans].astype(np.int64) + table.dur[spans]
    too_far = np.flatnonzero(end_pos >= 1 << 32)
    if too_far.size:
        raise CapacityError(f"span end {end_pos[too_far[0]]} exceeds the 32-bit "
                            "position field")
    pos = np.concatenate([table.pos, end_pos])
    typ = np.concatenate([table.typ, table.typ[spans] | END_FLAG])
    # at equal positions, ends sort before starts so touching spans re-pair
    order = np.lexsort((typ, typ < END_FLAG, pos))
    return EventTable(1, table.sample_rate_hz, pos[order], typ[order])


# --- sparse-channel samples ---------------------------------------------------

class SparseSample(NamedTuple):
    """One sample of a sparse channel, recovered from an event row."""

    pos: int
    raw: int | float
    physical: float


def _sparse_layout(gdf_type: int) -> RecordLayout:
    """Duration words as a data section: 4-byte records with one sample each."""
    info = type_info(gdf_type)
    if info.size > 4:
        raise DomainError(f"sparse samples cannot use {info.name}: wider than 32 bits")
    return RecordLayout((ChannelLayout(0, 1, int(gdf_type), 0),), 4)


def _encode_sparse(values, gdf_type: int) -> np.ndarray:
    """Duration words (zero-extended) from samples of the given type."""
    layout = _sparse_layout(gdf_type)  # a type over 32 bits is refused first
    values = checked_cast(values, type_info(gdf_type).dtype, "sparse sample")
    return np.frombuffer(encode_records(SignalBlock([values], len(values)), layout), "<u4")


def sparse_value_from_dur(dur: int, gdf_type: int) -> int | float:
    """Reinterpret the 32-bit duration field as a sample of the given type."""
    layout = _sparse_layout(gdf_type)
    word = checked_cast([dur], "<u4", "duration word").tobytes()
    return decode_records(word, layout, 1).samples[0].item()


def dur_from_sparse_value(value: int | float, gdf_type: int) -> int:
    """Inverse of :func:`sparse_value_from_dur` (zero-extended); a value the
    type cannot hold raises DomainError."""
    return int(_encode_sparse([value], gdf_type)[0])


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
    usable[1:ns + 1] = [spr == 0 and type_info(code).size <= 4 for spr, code in zip(
        channel_column(channels, "samples_per_record"), channel_column(channels, "gdf_type"))]
    ok = usable[np.minimum(table.chn, ns + 1, dtype=np.intp)]
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
        i: [] for i, spr in enumerate(channel_column(channels, "samples_per_record"))
        if spr == 0}
    rows = np.flatnonzero(_usable_sparse_rows(table, channels, diags))
    if not rows.size:
        return out
    rows = rows[table.chn[rows].argsort(kind="stable")]  # by channel, then row
    chn = table.chn[rows]
    cuts = np.flatnonzero(chn[1:] != chn[:-1]) + 1
    for first, end in zip([0, *cuts.tolist()], [*cuts.tolist(), len(rows)]):
        group, i = rows[first:end], int(chn[first]) - 1
        ch = channels[i]  # a degenerate calibration raises only once there are samples
        raw = decode_records(table.dur[group].tobytes(), _sparse_layout(ch.gdf_type),
                             len(group)).samples[0]
        out[i] = list(map(SparseSample._make, zip(
            table.pos[group].tolist(), raw.tolist(), ch.cal.scale_array(raw).tolist())))
    return out


def default_event_rate(channels: Sequence[ChannelInfo],
                       duration_num: int, duration_den: int) -> float:
    """The writer's default: the fastest channel sampling rate."""
    return max((sampling_rate(spr, duration_num, duration_den)
                for spr in channel_column(channels, "samples_per_record")), default=0.0)
