import math
import re
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdfkit import synth
from gdfkit.core import Calibration, GdfType, type_info
from gdfkit.diagnostics import Diagnostics, sink
from gdfkit.errors import CapacityError, DomainError, StructureError
from gdfkit.events import (
    END_FLAG,
    SPARSE_SAMPLE_TYPE,
    EventCodeRegistry,
    EventSpan,
    EventTable,
    PairedEvents,
    SparseSample,
    _pair_rows,
    _sparse_layout,
    _usable_sparse_rows,
    convert_mode,
    default_event_rate,
    dur_from_sparse_value,
    event_table_position,
    event_table_size,
    extract_sparse_samples,
    pair_mode1_events,
    parse_event_table,
    sparse_value_from_dur,
    write_event_table,
)
from gdfkit.fileio import GdfFile, validate
from gdfkit.header import (ChannelInfo, FixedHeader, parse_channel_headers, parse_fixed_header,
                           write_channel_headers, write_fixed_header)
from gdfkit.records import decode_records
from gdfkit.tlv import decode_device_ident, parse_tlv


def mode1(pos, typ, rate=256.0):
    return EventTable(1, rate, np.array(pos, "<u4"), np.array(typ, "<u2"))


def mode3(pos, typ, chn, dur, rate=256.0):
    return EventTable(3, rate, np.array(pos, "<u4"), np.array(typ, "<u2"),
                      np.array(chn, "<u2"), np.array(dur, "<u4"))


class TestPosition:
    def test_formula(self):
        assert event_table_position(2, 10, 8) == 592

    def test_zero_records(self):
        assert event_table_position(4, 0, 8) == 1024

    def test_ongoing_recording_has_no_table(self):
        with pytest.raises(DomainError):
            event_table_position(2, -1, 8)


class TestSerialization:
    def test_empty_mode1_is_8_bytes(self):
        data = write_event_table(EventTable(1, 100.0, [], []))
        assert len(data) == 8
        assert data[0] == 1
        parsed = parse_event_table(data)
        assert parsed.n_events == 0

    def test_empty_mode3_is_8_bytes(self):
        assert len(write_event_table(EventTable(3, 100.0, [], []))) == 8

    def test_mode3_two_events_is_32_bytes(self):
        t = mode3([1, 5], [0x0300, 0x0411], [0, 2], [0, 100])
        assert len(write_event_table(t)) == 32
        assert event_table_size(3, 2) == 32

    def test_size_formulas(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            nev = int(rng.integers(0, 10_000))
            pos = rng.integers(1, 1 << 31, nev)
            typ = rng.integers(0, 1 << 16, nev)
            t1 = EventTable(1, 128.0, pos, typ)
            assert len(write_event_table(t1)) == 8 + 6 * nev
            t3 = EventTable(3, 128.0, pos, typ,
                            rng.integers(0, 4, nev), rng.integers(0, 1000, nev))
            assert len(write_event_table(t3)) == 8 + 12 * nev

    def test_round_trip(self):
        t = mode3([1, 5, 9], [0x0300, 0x7FFF, 0x0411], [0, 2, 0], [0, 77, 100])
        data = write_event_table(t)
        assert parse_event_table(data) == t
        assert write_event_table(parse_event_table(data)) == data

    def test_one_based_positions(self):
        t = mode1([1], [0x0300])
        assert t.times_seconds()[0] == 0.0

    def test_bad_mode(self):
        data = bytearray(write_event_table(EventTable(1, 1.0, [], [])))
        data[0] = 2
        with pytest.raises(StructureError):
            parse_event_table(bytes(data))

    def test_truncated(self):
        data = write_event_table(mode1([1, 2], [3, 4]))
        with pytest.raises(StructureError):
            parse_event_table(data[:-1])
        with pytest.raises(StructureError):
            parse_event_table(data[:5])

    def test_capacity(self):
        oversized = EventTable(1, 1.0, np.ones(1 << 24, "<u4"), np.ones(1 << 24, "<u2"))
        with pytest.raises(CapacityError):
            write_event_table(oversized)

    def test_values_out_of_range_rejected(self):
        with pytest.raises(DomainError, match="'pos' cannot hold -1"):
            EventTable(3, 100.0, np.array([-1, 5]), np.array([70000, 1]),
                       np.array([0, -2]), [1, 2])
        for column, values in [("typ", [70000]), ("chn", [-2]), ("dur", [1 << 32]),
                               ("dur", [1.5]), ("pos", [1 << 64])]:
            columns = {"pos": [1], "typ": [1], "chn": [0], "dur": [0], column: values}
            with pytest.raises(DomainError, match=f"'{column}'"):
                EventTable(3, 100.0, **columns)

    def test_columns_take_their_dtype(self):
        t = EventTable(3, 100.0, [1, 2], np.array([3, 4], ">u2"), [0, 1], [5.0, 6.0])
        assert [c.dtype.str for c in (t.pos, t.typ, t.chn, t.dur)] == \
            ["<u4", "<u2", "<u2", "<u4"]
        assert t == mode3([1, 2], [3, 4], [0, 1], [5, 6], rate=100.0)
        with pytest.raises(DomainError, match="'dur' has 1 rows"):
            EventTable(3, 100.0, [1, 2], [3, 4], dur=[5])

    def test_mode1_rejects_chn(self):
        with pytest.raises(DomainError):
            EventTable(1, 1.0, np.array([1], "<u4"), np.array([1], "<u2"),
                       chn=np.array([0], "<u2"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 200), st.sampled_from([1, 3]), st.integers(0, 1 << 31))
def test_serialization_identity(nev, mode, seed):
    rng = np.random.default_rng(seed)
    t = EventTable(
        mode, float(rng.integers(1, 10_000)),
        rng.integers(1, 1 << 32, nev, dtype=np.uint64).astype("<u4"),
        rng.integers(0, 1 << 16, nev).astype("<u2"),
        rng.integers(0, 8, nev).astype("<u2") if mode == 3 else None,
        rng.integers(0, 1 << 20, nev).astype("<u4") if mode == 3 else None,
    )
    data = write_event_table(t)
    assert len(data) == event_table_size(mode, nev)
    assert parse_event_table(data) == t


class TestPairing:
    def test_simple_span(self):
        t = mode1([100, 500], [0x0411, 0x8411])
        paired = pair_mode1_events(t)
        assert paired.spans == [type(paired.spans[0])(0x0411, 100, 500)]
        assert paired.spans[0].duration == 400
        assert not paired.orphan_ends

    def test_lone_start_is_open(self):
        diags = Diagnostics()
        paired = pair_mode1_events(mode1([10], [0x0300]), diags)
        assert paired.spans[0].end is None
        assert any(d.rule == "event.open_span" for d in diags)

    def test_orphan_end_diagnosed(self):
        diags = Diagnostics()
        paired = pair_mode1_events(mode1([10], [0x8411]), diags)
        assert paired.orphan_ends == [(0x8411, 10)]
        assert any(d.rule == "event.unmatched_end" for d in diags)

    def test_nested_spans_stack_discipline(self):
        t = mode1([10, 50, 70, 110], [0x0411, 0x0411, 0x8411, 0x8411])
        paired = pair_mode1_events(t)
        assert [(s.start, s.end) for s in paired.spans] == [(10, 110), (50, 70)]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 10_000),
                              st.integers(0, 0xFFFF)), max_size=40))
    def test_flatten_restores_multiset(self, rows):
        t = mode1([r[0] for r in rows], [r[1] for r in rows])
        paired = pair_mode1_events(t)
        flat = [(s.typ, s.start) for s in paired.spans]
        flat += [(s.typ | END_FLAG, s.end) for s in paired.spans if s.end is not None]
        flat += paired.orphan_ends
        assert Counter(flat) == Counter((typ, pos) for pos, typ in rows)

    def test_spans_and_samples_are_named_tuples(self):
        span = EventSpan(0x0411, 100, 500)
        assert span._fields == ("typ", "start", "end")
        assert (span.typ, span.start, span.end, span.duration) == (0x0411, 100, 500, 400)
        assert span == (0x0411, 100, 500) and hash(span) == hash((0x0411, 100, 500))
        typ, start, end = span
        assert (typ, start, end) == (0x0411, 100, 500)
        assert EventSpan(0x0300, 7) == (0x0300, 7, None) and EventSpan(0x0300, 7).duration == 0
        assert span._replace(end=600) == EventSpan(0x0411, 100, 600)
        with pytest.raises(AttributeError):
            span.end = 600
        sample = SparseSample(3, 50, 0.5)
        assert sample._fields == ("pos", "raw", "physical")
        assert sample == (3, 50, 0.5) and (sample.pos, sample.raw, sample.physical) == sample
        with pytest.raises(AttributeError):
            sample.raw = 51
        paired = pair_mode1_events(mode1([10, 20, 30], [0x0411, 0x8411, 0x0300]))
        assert paired.spans == [(0x0411, 10, 20), (0x0300, 30, None)]
        assert {type(s) for s in paired.spans} == {EventSpan}
        assert paired.orphan_ends == []


class TestConvertMode:
    def test_mode1_to_mode3(self):
        t = mode1([100, 500], [0x0411, 0x8411])
        converted = convert_mode(t, 3)
        assert converted.mode == 3
        assert converted.pos.tolist() == [100]
        assert converted.dur.tolist() == [400]
        assert converted.chn.tolist() == [0]

    def test_mode3_to_mode1(self):
        t = mode3([100], [0x0411], [0], [400])
        converted = convert_mode(t, 1)
        assert converted.pos.tolist() == [100, 500]
        assert converted.typ.tolist() == [0x0411, 0x8411]

    def test_zero_duration_stays_single(self):
        t = mode3([5], [0x0300], [0], [0])
        converted = convert_mode(t, 1)
        assert converted.pos.tolist() == [5]
        assert converted.typ.tolist() == [0x0300]

    def test_sparse_rows_unconvertible(self):
        t = mode3([5], [SPARSE_SAMPLE_TYPE], [1], [42])
        with pytest.raises(DomainError):
            convert_mode(t, 1)

    def test_end_marker_span_unconvertible(self):
        with pytest.raises(DomainError, match="event 0x8411 at position 5 has a duration"):
            convert_mode(EventTable(3, 100.0, [5], [0x8411], [0], [10]), 1)
        orphan = convert_mode(EventTable(3, 100.0, [5], [0x8411], [0], [0]), 1)
        assert (orphan.pos.tolist(), orphan.typ.tolist()) == ([5], [0x8411])

    def test_channel_dropped_warning(self):
        diags = Diagnostics()
        convert_mode(mode3([5], [0x0300], [2], [0]), 1, diags)
        assert any(d.rule == "event.channel_dropped" for d in diags)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 1000), st.integers(0, 50)),
                    max_size=20),
           st.integers(0, 1 << 30))
    def test_mode3_round_trip(self, rows, seed):
        # one code per row: stack pairing cannot round-trip a zero-duration
        # event sitting inside an open span of the same code
        rng = np.random.default_rng(seed)
        typs = rng.choice(np.arange(1, 0x7FFF), size=len(rows),
                          replace=False).tolist()
        t = mode3([r[0] for r in rows], typs, [0] * len(rows),
                  [r[1] for r in rows])
        back = convert_mode(convert_mode(t, 1), 3)
        want = Counter(zip(t.pos.tolist(), t.typ.tolist(), t.dur.tolist()))
        got = Counter(zip(back.pos.tolist(), back.typ.tolist(), back.dur.tolist()))
        assert got == want

    def test_mode3_round_trip_nested_same_code(self):
        t = mode3([10, 20], [0x0411, 0x0411], [0, 0], [100, 30])
        back = convert_mode(convert_mode(t, 1), 3)
        want = Counter([(10, 0x0411, 100), (20, 0x0411, 30)])
        got = Counter(zip(back.pos.tolist(), back.typ.tolist(), back.dur.tolist()))
        assert got == want

    def test_paired_mode1_round_trip(self):
        t = mode1([10, 20, 30, 45], [0x0411, 0x8411, 0x0412, 0x8412])
        back = convert_mode(convert_mode(t, 3), 1)
        assert Counter(zip(back.pos.tolist(), back.typ.tolist())) == \
            Counter(zip(t.pos.tolist(), t.typ.tolist()))


# --- reference: the row loop of the span pairing -----------------------------
# The loop the array pairing replaced, kept as the oracle of the tests below.

def _ref_pair_rows(pos, typ, diags):
    starts, ends, orphans = [], [], []
    open_starts = {}  # code -> indices into starts
    for row, (p, t) in enumerate(zip(pos, typ)):
        if t & END_FLAG:
            stack = open_starts.get(t & 0x7FFF)
            if stack:
                ends[stack.pop()] = row
            else:
                diags.warning("event.unmatched_end",
                              f"end marker 0x{t:04X} at position {p} has no "
                              "open start", section="events")
                orphans.append(row)
        else:
            open_starts.setdefault(t, []).append(len(starts))
            starts.append(row)
            ends.append(-1)
    for start, end in zip(starts, ends):
        if end < 0:
            diags.info("event.open_span",
                       f"event 0x{typ[start]:04X} at position {pos[start]} never ends",
                       section="events")
    return starts, ends, orphans


def _same_pairing(pos, typ):
    pos, typ = np.asarray(pos, "<u4"), np.asarray(typ, "<u2")
    want_diags, got_diags = Diagnostics(), Diagnostics()
    want = _ref_pair_rows(pos.tolist(), typ.tolist(), want_diags)
    got = _pair_rows(pos, typ, got_diags)
    assert [rows.tolist() for rows in got] == list(want)
    assert [(d.severity, d.rule, d.message, d.section, d.offset) for d in got_diags] == \
        [(d.severity, d.rule, d.message, d.section, d.offset) for d in want_diags]
    return want


# 0x0000 ends with 0x8000 and 0x7FFF with 0xFFFF; few codes, so spans of one
# code nest and ends without a start occur
_PAIR_CODES = st.sampled_from([0x0000, 0x0411, 0x0412, 0x7FFF])


class TestPairRowsAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, (1 << 32) - 1), _PAIR_CODES, st.booleans()),
                    max_size=300))
    @example([])
    @example([(5, 0x0411, False), (9, 0x0411, False), (12, 0x0411, True),
              (15, 0x7FFF, True), (20, 0x0000, False), (30, 0x0411, True),
              (31, 0x0411, True), (40, 0x0000, True)])
    def test_random_tables(self, rows):
        _same_pairing([p for p, _, _ in rows], [c | END_FLAG if end else c for _, c, end in rows])

    def test_synthetic_recording(self):
        model = synth.synthesize(synth.SynthSpec(
            channels=2, samples_per_record=8, records=20, events=7000, seed=12))
        t = convert_mode(model.events, 1)
        assert t.n_events >= 10_000
        starts, ends, orphans = _same_pairing(t.pos, t.typ)
        assert not orphans and len(starts) == model.events.n_events

    def test_seeded_table(self):
        rng = np.random.default_rng(2024)
        n = 12_000
        codes = rng.choice(np.array([0x0000, 0x0300, 0x0411, 0x0412, 0x7FFF]), n)
        end = rng.random(n) < 0.48
        starts, ends, orphans = _same_pairing(rng.integers(1, 1 << 20, n),
                                              codes | np.where(end, END_FLAG, 0))
        assert orphans and -1 in ends and max(ends) >= 0

    def test_deep_nesting(self):
        # more open starts of one code than a 16-bit level can count
        n = 70_000
        starts, ends, orphans = _same_pairing(
            np.arange(1, 2 * n + 4), [0x0411] * n + [0x0300] + [0x8411] * (n + 1) + [0x8300])
        assert ends[0] == 2 * n and ends[n - 1] == n + 1 and ends[n] == 2 * n + 2
        assert orphans == [2 * n + 1]


# --- reference: pairing and conversion over tuple rows -------------------------
# The implementation the column code replaced, kept as the oracle of the
# differential tests below.

def _ref_pair(table, diags=None):
    diags = sink(diags)
    result = PairedEvents()
    open_spans = {}
    spans = []  # [typ, start, end]
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


def _ref_convert(table, target_mode, diags=None):
    diags = sink(diags)
    if target_mode == 3:
        paired = _ref_pair(table, diags)
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
    rows.sort(key=lambda r: (r[0], 0 if r[1] & END_FLAG else 1, r[1]))
    return EventTable(
        1, table.sample_rate_hz,
        np.array([r[0] for r in rows], "<u4"),
        np.array([r[1] for r in rows], "<u2"),
    )


def _outcome(fn, *args):
    """What ``fn(*args, diags)`` returns or raises, plus every diagnostic."""
    diags = Diagnostics()
    try:
        result = fn(*args, diags)
    except Exception as exc:  # compared by type and text
        result = exc
    return result, [(d.severity, d.rule, d.message, d.section, d.offset) for d in diags]


def _same_outcome(ref, new):
    (want, want_diags), (got, got_diags) = ref, new
    assert got_diags == want_diags
    if isinstance(want, OverflowError):
        # the tuple code failed building an array from a span that ends
        # before it starts; the column code names that span instead
        assert isinstance(got, DomainError) and "ends before it" in str(got)
    elif isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want


_POSITIONS = st.one_of(st.integers(1, 40), st.integers((1 << 32) - 4, (1 << 32) - 1))
# few codes, so that spans of one code nest and ends meet other spans' starts
_CODES = st.sampled_from([0x0000, 0x0300, 0x0411, 0x0412, 0x7FFF])


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_POSITIONS, _CODES, st.booleans()), max_size=30))
    def test_mode1(self, rows):
        t = mode1([p for p, _, _ in rows], [c | END_FLAG if end else c for _, c, end in rows])
        _same_outcome(_outcome(_ref_pair, t), _outcome(pair_mode1_events, t))
        _same_outcome(_outcome(_ref_convert, t, 3), _outcome(convert_mode, t, 3))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 40), st.one_of(_CODES, st.just(0x8411)),
                              st.integers(0, 2), st.integers(0, 60)), max_size=30),
           st.sampled_from([0, 0, (1 << 32) - 70]),
           st.sampled_from([False, False, False, True]))
    def test_mode3(self, rows, base, sparse):
        pos, typ, chn, dur = map(list, zip(*rows)) if rows else ([], [], [], [])
        if sparse and rows:
            typ[0] = SPARSE_SAMPLE_TYPE
        t = mode3([base + p for p in pos], typ, chn, dur)
        ended = [i for i, (c, d) in enumerate(zip(typ, dur)) if c & END_FLAG and d > 0]
        if ended and SPARSE_SAMPLE_TYPE not in typ:
            # the tuple code wrote two end markers for such a row, losing its span
            i = ended[0]
            with pytest.raises(DomainError, match=f"event 0x{typ[i]:04X} at position "
                                                  f"{base + pos[i]} has a duration"):
                convert_mode(t, 1)
        else:
            _same_outcome(_outcome(_ref_convert, t, 1), _outcome(convert_mode, t, 1))

    def test_unsorted_negative_span(self):
        t = mode1([50, 10], [0x0411, 0x8411])
        assert isinstance(_outcome(_ref_convert, t, 3)[0], OverflowError)
        with pytest.raises(DomainError, match="0x0411 starting at position 50 ends "
                                              "before it, at position 10"):
            convert_mode(t, 3)


class TestSparseSamples:
    def _channels(self):
        return [
            ChannelInfo(label="eeg", samples_per_record=4, gdf_type=GdfType.INT16),
            ChannelInfo(label="marker", samples_per_record=0, gdf_type=GdfType.UINT32,
                        cal=Calibration(0.0, 1.0, 0.0, 100.0)),
            ChannelInfo(label="temp", samples_per_record=0, gdf_type=GdfType.INT16,
                        cal=Calibration(-50.0, 50.0, -500.0, 500.0)),
        ]

    def test_extract_scaled_midpoint(self):
        t = mode3([10], [SPARSE_SAMPLE_TYPE], [2], [50])
        samples = extract_sparse_samples(t, self._channels())
        (s,) = samples[1]
        assert (s.pos, s.raw, s.physical) == (10, 50, 0.5)

    def test_endpoint_exact(self):
        t = mode3([3], [SPARSE_SAMPLE_TYPE], [2], [100])
        (s,) = extract_sparse_samples(t, self._channels())[1]
        assert s.physical == 1.0

    def test_signed_reinterpretation(self):
        t = mode3([3], [SPARSE_SAMPLE_TYPE], [3], [0xFFFF])
        (s,) = extract_sparse_samples(t, self._channels())[2]
        assert s.raw == -1

    def test_bad_channel_reference(self):
        diags = Diagnostics()
        t = mode3([3, 4], [SPARSE_SAMPLE_TYPE, SPARSE_SAMPLE_TYPE], [0, 1], [1, 1])
        out = extract_sparse_samples(t, self._channels(), diags)
        assert not any(out.values())
        assert sum(d.rule == "event.sparse_channel_invalid" for d in diags) == 2

    def test_value_round_trip(self):
        for gdf_type, values in [
            (GdfType.INT8, [-128, -1, 0, 127]),
            (GdfType.UINT16, [0, 65535]),
            (GdfType.INT24, [-8_388_608, 8_388_607, -1]),
            (GdfType.INT32, [-(1 << 31), (1 << 31) - 1]),
            (GdfType.FLOAT32, [0.5, -2.25]),
        ]:
            for v in values:
                dur = dur_from_sparse_value(v, gdf_type)
                assert 0 <= dur < 1 << 32
                assert sparse_value_from_dur(dur, gdf_type) == v

    def test_wide_types_rejected(self):
        with pytest.raises(DomainError):
            sparse_value_from_dur(0, GdfType.INT64)
        with pytest.raises(DomainError):
            dur_from_sparse_value(0.0, GdfType.FLOAT64)

    @pytest.mark.parametrize("call, match", [
        (lambda: dur_from_sparse_value(2.5, GdfType.INT16), "cannot hold 2.5"),
        (lambda: dur_from_sparse_value(1e300, GdfType.FLOAT32), "cannot hold 1e"),
        (lambda: sparse_value_from_dur(2**32, GdfType.UINT8), "cannot hold 4294967296"),
        (lambda: sparse_value_from_dur(-1, GdfType.INT8), "cannot hold -1"),
        (lambda: dur_from_sparse_value(1 << 23, GdfType.INT24), "outside int24 range"),
    ], ids=["fraction", "float32-overflow", "word-too-wide", "word-negative", "int24"])
    def test_unrepresentable_values_rejected(self, call, match):
        # the per-row code returned 2, raised OverflowError, returned 0 and 255
        with pytest.raises(DomainError, match=match):
            call()

    def test_extract_float32_signalling_nan(self):
        """A signalling NaN word (0x7F800001) raised a RuntimeWarning in the
        float64 cast of ``scale_array``."""
        channels = [ChannelInfo(label="f", samples_per_record=0, gdf_type=GdfType.FLOAT32,
                                cal=Calibration(0.0, 1.0, 0.0, 2.0))]
        t = mode3([4, 6], [SPARSE_SAMPLE_TYPE] * 2, [1, 1], [0x7F800001, 0x3F800000])
        first, second = extract_sparse_samples(t, channels)[0]
        assert math.isnan(first.raw) and math.isnan(first.physical)
        assert (second.raw, second.physical) == (1.0, 0.5)

    def test_extract_groups_channels_in_table_order(self):
        t = mode3([7, 3, 5, 9, 1], [SPARSE_SAMPLE_TYPE] * 5, [3, 2, 3, 0, 2],
                  [0xFFFF, 10, 2, 1, 20])
        diags = Diagnostics()
        out = extract_sparse_samples(t, self._channels(), diags)
        assert [(s.pos, s.raw) for s in out[1]] == [(3, 10), (1, 20)]
        assert [(s.pos, s.raw) for s in out[2]] == [(7, -1), (5, 2)]
        assert [s.physical for s in out[2]] == pytest.approx([-0.1, 0.2])
        assert [d.rule for d in diags] == ["event.sparse_channel_invalid"]


    def test_sparse_row_at_channel_65535(self):
        """The largest NS: clipping the channel column at NS + 1 overflowed
        uint16 with an OverflowError."""
        eeg, marker = self._channels()[:2]
        channels = [eeg] * 65534 + [marker]
        t = mode3([10, 11], [SPARSE_SAMPLE_TYPE] * 2, [65535, 1], [50, 7])
        diags = Diagnostics()
        assert extract_sparse_samples(t, channels, diags) == {65534: [(10, 50, 0.5)]}
        invalid = [("event.sparse_channel_invalid",
                    "sparse sample at position 11 references channel 1, which is not "
                    "a sparse channel of at most 32 bits")]
        assert [(d.rule, d.message) for d in diags] == invalid
        found = validate(GdfFile(channels=channels, events=t))
        assert [(d.rule, d.message) for d in found
                if d.rule.startswith("event.sparse")] == invalid

# --- reference: the per-row sparse codec ---------------------------------------
# The bit-mask and struct code the record codec replaced, kept as the oracle
# of the differential tests below.

def _ref_sparse_value_from_dur(dur, gdf_type):
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


def _ref_dur_from_sparse_value(value, gdf_type):
    info = type_info(gdf_type)
    if info.size > 4:
        raise DomainError(f"sparse samples cannot use {info.name}: wider than 32 bits")
    if info.kind == "float":
        return struct.unpack("<I", struct.pack("<f", value))[0]
    if not info.min <= value <= info.max:
        raise DomainError(f"{value} outside the {info.name} range")
    bits = info.size * 8
    return int(value) & ((1 << bits) - 1)


def _ref_extract(table, channels, diags):
    if table.mode != 3:
        raise DomainError("sparse samples live in mode-3 event tables")
    out = {i: [] for i, ch in enumerate(channels) if ch.is_sparse}
    rows = _usable_sparse_rows(table, channels, diags)
    for pos, chn, dur in zip(table.pos[rows].tolist(), table.chn[rows].tolist(),
                             table.dur[rows].tolist()):
        ch = channels[chn - 1]
        raw = _ref_sparse_value_from_dur(dur, ch.gdf_type)
        out[chn - 1].append(SparseSample(pos, raw, ch.cal.scale(raw)))
    return out


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type
        return exc


def _same_value(got, want):
    """Same type and value; floats bit for bit, NaN payloads included."""
    if isinstance(want, float):
        return type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)
    return type(got) is type(want) and got == want


def _nan_equal(got, want):
    return got == want or (got != got and want != want)


_SPARSE_TYPES = [t for t in GdfType if type_info(t).size <= 4]
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# sign bits, NaN payloads (quiet and signalling), infinities, subnormals and
# nonzero high bytes under narrow types
_WORDS = st.one_of(st.integers(0, (1 << 32) - 1), st.sampled_from([
    0x80, 0xFF, 0x8000, 0xFFFF, 0x800000, 0xFFFFFF, 0x80000000, 0xFFFFFFFF,
    0x7FC00000, 0x7FC00001, 0x7F800001, 0xFFBFFFFF, 0x7F800000, 0xFF800000,
    0x00000001, 0x807FFFFF, 0x12FF8000, 0xAB00007F]))


class TestSparseAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(_SPARSE_TYPES),
           st.one_of(_WORDS, st.integers(-(1 << 40), -1), st.integers(1 << 32, 1 << 40)))
    def test_decode(self, gdf_type, word):
        got = _attempt(sparse_value_from_dur, word, gdf_type)
        if not 0 <= word < 1 << 32:
            # the per-row code masked such a word (or struct refused it)
            assert isinstance(got, DomainError)
        else:
            assert _same_value(got, _ref_sparse_value_from_dur(word, gdf_type))

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(_SPARSE_TYPES), st.data())
    def test_encode(self, gdf_type, data):
        info = type_info(gdf_type)
        if info.kind == "float":
            # ints up to 2**53 reach float32 the same way with or without a
            # float64 between; the record codec rounds a wider one only once
            value = data.draw(st.one_of(
                st.floats(width=32), st.floats(), st.integers(-(1 << 53), 1 << 53),
                st.sampled_from([_FLOAT32_MAX, np.nextafter(_FLOAT32_MAX, np.inf),
                                 float.fromhex("0x1.ffffffp+127"), 2.0**128])))
        else:
            in_range = st.integers(info.min, info.max)
            value = data.draw(st.one_of(
                in_range, in_range.map(float), st.floats(info.min - 2.0, info.max + 2.0),
                st.integers(info.min - (1 << 33), info.max + (1 << 33)),
                st.sampled_from([-0.0, math.nan, math.inf, -math.inf])))
        want = _attempt(_ref_dur_from_sparse_value, value, gdf_type)
        got = _attempt(dur_from_sparse_value, value, gdf_type)
        truncated = info.kind == "int" and isinstance(value, float) \
            and not value.is_integer()
        if truncated or isinstance(want, OverflowError):
            assert isinstance(got, DomainError), (value, want, got)
        elif isinstance(want, Exception):
            assert type(got) is type(want), (value, want, got)
        else:
            assert _same_value(got, want), (value, want, got)
            assert 0 <= got < 1 << 32

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_extract(self, data):
        calibrations = st.one_of(
            st.just((-1.0, 1.0, -32768.0, 32767.0)), st.just((0.0, 1.0, 5.0, 5.0)),
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                      st.floats(-1e9, 0.0), st.floats(0.0, 5e9)),
            st.tuples(*[st.floats()] * 4))
        channels = [
            ChannelInfo(label=f"c{i}", samples_per_record=data.draw(st.sampled_from([0, 0, 2])),
                        gdf_type=data.draw(st.sampled_from(list(GdfType))),
                        cal=Calibration(*data.draw(calibrations)))
            for i in range(data.draw(st.integers(1, 5)))]
        rows = data.draw(st.lists(st.tuples(
            st.integers(1, (1 << 32) - 1),
            st.sampled_from([SPARSE_SAMPLE_TYPE] * 3 + [0x0300]),
            st.integers(0, len(channels) + 1), _WORDS), max_size=30))
        t = mode3(*zip(*rows)) if rows else EventTable(3, 256.0, [], [])
        want_diags, got_diags = Diagnostics(), Diagnostics()
        want = _attempt(_ref_extract, t, channels, want_diags)
        got = _attempt(extract_sparse_samples, t, channels, got_diags)
        assert list(got_diags) == list(want_diags)
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
            return
        assert got.keys() == want.keys()
        for index, samples in want.items():
            assert len(got[index]) == len(samples)
            for g, w in zip(got[index], samples):
                assert g.pos == w.pos
                assert _same_value(g.raw, w.raw)
                assert _nan_equal(g.physical, w.physical)


def _old_extract(table, channels, diags):
    """The per-channel loop :func:`extract_sparse_samples` replaced: one mask
    of the whole table per sparse channel."""
    if table.mode != 3:
        raise DomainError("sparse samples live in mode-3 event tables")
    out = {i: [] for i, ch in enumerate(channels) if ch.is_sparse}
    usable = _usable_sparse_rows(table, channels, diags)
    for i in out:
        group = np.flatnonzero(usable & (table.chn == i + 1))
        if group.size:
            ch = channels[i]
            raw = decode_records(table.dur[group].tobytes(), _sparse_layout(ch.gdf_type),
                                 len(group)).samples[0]
            out[i] = list(map(SparseSample._make, zip(
                table.pos[group].tolist(), raw.tolist(), ch.cal.scale_array(raw).tolist())))
    return out


@pytest.mark.parametrize("n_sparse", [0, 1, 64, 256])
@pytest.mark.parametrize("seed", [0, 1])
def test_extract_groups_as_the_per_channel_loop(n_sparse, seed):
    """Sparse channels of five types mixed in one table; then the same with
    three more sparse channels whose calibration has dig_min == dig_max,
    which raises once such a channel has samples."""
    for degenerate in (False, True):
        rng = np.random.default_rng(seed)
        types = [GdfType.INT8, GdfType.UINT16, GdfType.INT24, GdfType.FLOAT32, GdfType.UINT32]
        channels = [ChannelInfo(label=f"c{i}", samples_per_record=int(i >= n_sparse),
                                gdf_type=types[rng.integers(len(types))],
                                cal=Calibration(-1.0, 1.0,
                                                *sorted(rng.choice(99, 2, False) * 1.0)))
                    for i in range(n_sparse + 8)]
        channels.append(ChannelInfo(samples_per_record=0, gdf_type=GdfType.INT64))  # refused
        if degenerate:
            channels += [ChannelInfo(samples_per_record=0, gdf_type=types[k],
                                     cal=Calibration(-1.0, 1.0, 7.0, 7.0)) for k in range(3)]
        channels = [channels[i] for i in rng.permutation(len(channels))]  # sparse ones spread
        n = 3000
        t = mode3(rng.integers(1, 10**6, n), rng.choice([SPARSE_SAMPLE_TYPE] * 5 + [0x0300], n),
                  rng.integers(0, len(channels) + 2, n), rng.integers(0, 1 << 32, n))
        want_diags, got_diags = Diagnostics(), Diagnostics()
        want = _attempt(_old_extract, t, channels, want_diags)
        got = _attempt(extract_sparse_samples, t, channels, got_diags)
        assert list(got_diags) == list(want_diags)
        if degenerate:
            assert (type(got), str(got)) == (type(want), str(want)) == \
                (DomainError, "degenerate calibration: dig_min == dig_max")
            continue
        assert list(got) == list(want)  # every sparse channel, in channel order
        assert [len(v) for v in got.values()] == [len(v) for v in want.values()]
        assert n_sparse == 0 or any(got.values())
        assert n_sparse < 64 or len({channels[i].gdf_type for i, v in got.items() if v}) == 5
        assert all(_same_value(g, w) for key in want for a, b in zip(got[key], want[key])
                   for g, w in zip(a, b))


def test_extract_degenerate_channel_without_samples():
    """A degenerate calibration raises only for a channel that has samples."""
    channels = [ChannelInfo(samples_per_record=2),
                ChannelInfo(samples_per_record=0, gdf_type=GdfType.UINT16,
                            cal=Calibration(-1.0, 1.0, 7.0, 7.0)),
                ChannelInfo(samples_per_record=0, gdf_type=GdfType.FLOAT32)]
    t = mode3([5, 9], [SPARSE_SAMPLE_TYPE] * 2, [3, 3], [0x3F800000, 0x40000000])
    got = extract_sparse_samples(t, channels)
    assert got == _old_extract(t, channels, Diagnostics())
    assert [s.raw for s in got[2]] == [1.0, 2.0] and got[1] == []


class TestRegistry:
    def test_builtin_codes(self):
        assert EventCodeRegistry().describe(0x0300) == "Trigger, start of Trial (unspecific)"
        assert EventCodeRegistry().describe(0x0000) == "No event"
        assert EventCodeRegistry().describe(0x7FFF) == "non-equidistant sampled value"

    def test_end_flag(self):
        assert EventCodeRegistry().describe(0x8101) == "end of: artifact:EOG"
        assert EventCodeRegistry().describe(0x8411) == "end of: Stage 1"
        # pairing ends code 0x0000 with 0x8000, so it is described as that end
        assert EventCodeRegistry().describe(0x8000) == "end of: No event"
        assert EventCodeRegistry({0x8000: "mine"}).describe(0x8000) == "end of: No event"

    def test_unknown(self):
        assert EventCodeRegistry().describe(0x0223) == "user-defined (0x0223)"

    def test_user_entries_shadow(self):
        reg = EventCodeRegistry({0x0300: "my trigger"})
        assert reg.describe(0x0300) == "my trigger"
        assert reg.describe(0x0301) == "Left - cue onset (BCI experiment)"

    def test_tag1_index_mapping(self):
        reg = EventCodeRegistry()
        reg.add_descriptions(["Left", "Right"])
        assert reg.describe(1) == "Left"
        assert reg.describe(2) == "Right"

    def test_from_text(self):
        reg = EventCodeRegistry.from_text("# comment\n0x0010 blink\n")
        assert reg.describe(0x0010) == "blink"

    def test_from_file(self, tmp_path):
        path = tmp_path / "codes.txt"
        path.write_text("# lab codes\n\n0x0300 my trigger\n  0xFFFF last  \n",
                        encoding="utf-8")
        reg = EventCodeRegistry.from_file(path)
        assert reg.describe(0x0300) == "my trigger" and reg.get(0xFFFF) == "last"
        assert reg.describe(0x0301) == "Left - cue onset (BCI experiment)"

    @pytest.mark.parametrize("row", [
        "zz", "0xZZ foo",                 # raised ValueError
        "0x10000 big", "-0x1 neg",        # loaded as codes no 16-bit type holds
    ])
    def test_malformed_row_quoted(self, tmp_path, row):
        path = tmp_path / "codes.txt"
        path.write_text(f"0x0010 blink\n{row}\n", encoding="utf-8")
        with pytest.raises(DomainError, match=re.escape(f"event code row {row!r}: ")):
            EventCodeRegistry.from_file(path)


def test_default_event_rate():
    channels = [
        ChannelInfo(label="a", samples_per_record=16),
        ChannelInfo(label="b", samples_per_record=64),
        ChannelInfo(label="s", samples_per_record=0),
    ]
    assert default_event_rate(channels, 1, 4) == 256.0
    assert default_event_rate([], 1, 1) == 0.0


def _event_table_with_signalling_nan_rate() -> bytes:
    table = bytearray(write_event_table(mode1([1], [1])))
    table[4:8] = b"\x01\x00\x80\x7f"
    return bytes(table)


def _fixed_header_with_reserved_byte() -> bytes:
    buf = bytearray(write_fixed_header(FixedHeader()))
    buf[75] = 1  # reserved
    return bytes(buf)


def _channel_header_with_padded_label() -> bytes:
    buf = bytearray(write_channel_headers([ChannelInfo(label="x")]))
    buf[1:4] = b"   "  # trailing space padding
    return bytes(buf)


_SPARSE_CHANNELS = [ChannelInfo(label="eeg", samples_per_record=4),
                    ChannelInfo(label="marker", samples_per_record=0, gdf_type=GdfType.UINT32,
                                cal=Calibration(0.0, 1.0, 0.0, 100.0))]


@pytest.mark.parametrize("call", [
    lambda d: parse_event_table(_event_table_with_signalling_nan_rate(), d),
    lambda d: pair_mode1_events(mode1([1, 2, 3], [1, 0x8002, 3]), d),
    lambda d: convert_mode(mode1([1, 2, 3], [1, 0x8002, 3]), 3, d),
    lambda d: convert_mode(mode3([1], [1], [2], [0]), 1, d),
    lambda d: extract_sparse_samples(
        mode3([3, 4, 5], [SPARSE_SAMPLE_TYPE] * 3, [0, 1, 2], [7, 8, 9]), _SPARSE_CHANNELS, d),
    lambda d: parse_fixed_header(_fixed_header_with_reserved_byte(), d),
    lambda d: parse_channel_headers(_channel_header_with_padded_label(), 1, diags=d),
    lambda d: parse_tlv(b"\x00" + bytes(3) + b"\x07", diags=d),
    lambda d: decode_device_ident(b"x" * 126 + b"\x00\x00\x00\x00", d),
], ids=["event-table", "pairing", "to-mode-3", "to-mode-1", "sparse", "fixed-header",
        "channel-header", "tlv", "device-ident"])
def test_no_collector_gives_the_same_result(call):
    """Every function that takes a collector only adds to it, so the one
    ``sink(None)`` gives, which drops what it is given, changes no result."""
    found = Diagnostics()
    assert call(None) == call(found)
    assert found


def test_sink_without_collector_keeps_nothing():
    dropped = sink(None)
    dropped.error("x.y", "message")
    dropped.extend([Diagnostics()])
    dropped.append("anything")
    assert dropped == [] and sink(found := Diagnostics()) is found
