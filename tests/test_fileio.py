import functools
import io
import struct
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdfkit.core import Calibration, GdfTime, GdfType, type_info
from gdfkit.diagnostics import Diagnostics
from gdfkit.errors import (
    DiagnosticError,
    DomainError,
    GdfError,
    StructureError,
    TruncatedDataError,
)
from gdfkit.events import (
    SPARSE_SAMPLE_TYPE,
    EventTable,
    event_table_position,
    extract_sparse_samples,
)
from gdfkit.fileio import (
    GdfFile,
    StreamWriter,
    anonymize,
    read_file,
    required_header_blocks,
    to_bytes,
    validate,
    write_file,
)
from gdfkit.header import ChannelInfo, ChannelTable, FixedHeader, PatientInfo, write_fixed_header
from gdfkit.records import SignalBlock
from gdfkit.synth import SynthSpec, corpus_specs, synthesize
from gdfkit import tlv as tlvmod

GEOMETRY_RULES = ("header.ns_range", "header.ns_mismatch", "header.blocks_too_small",
                  "header.blocks_range", "header.tlv_overflow", "tlv.duplicate_tag",
                  "header.nrec_invalid", "event.with_ongoing", "data.length_mismatch")
SWEEP_BASES = ("events_mode1", "sparse_mode3", "tlv_full", "exactly_full")
# 5000 digits, more than Python prints (sys.get_int_max_str_digits), and its size
LONG_INT, LONG_INT_SIZE = 10**4999, "an integer of 16607 bits"

# one fixed-header value outside its field's struct range, by field name
FIXED_FIELD_EDITS = {
    "header_blocks": lambda h: replace(h, header_blocks=70000),
    "equipment": lambda h: replace(h, recording=replace(h.recording, equipment_id=-1)),
    "headsize": lambda h: replace(h, patient=replace(h.patient, headsize_mm=(70000, 0, 0))),
    "duration": lambda h: replace(h, duration_num=-1),
    "weight": lambda h: replace(h, patient=replace(h.patient, weight_kg=256)),
    "height": lambda h: replace(h, patient=replace(h.patient, height_cm=-1)),
    "latitude": lambda h: replace(h, recording=replace(
        h.recording, location=replace(h.recording.location, latitude=2**40))),
    "size": lambda h: replace(h, recording=replace(
        h.recording, location=replace(h.recording.location, size=256))),
    "n_records": lambda h: replace(h, n_records=1 << 63),
}


def _writers_agree(g: GdfFile, case) -> set[str]:
    """``to_bytes`` refuses ``g`` with the rule and message of the first
    geometry error ``validate`` reports, or writes it; the ``StreamWriter``
    constructor does the same for the part of ``g`` it writes (no records, no
    events, an unknown record count), before any byte reaches its sink.
    Returns the rules raised."""
    raised = set()
    sink = io.BytesIO()
    streamed = GdfFile(header=replace(g.header, n_records=-1), channels=g.channels, tlv=g.tlv)
    for model, write in ((g, to_bytes),
                         (streamed, lambda m: StreamWriter(sink, m.header, m.channels, m.tlv))):
        first = next((d for d in validate(model) if d.rule in GEOMETRY_RULES), None)
        if first is not None:
            with pytest.raises(DomainError) as exc:
                write(model)
            assert (exc.value.rule, str(exc.value)) == (first.rule, first.message), case
            assert sink.getvalue() == b"", case
            raised.add(first.rule)
        elif write is to_bytes:
            blob = to_bytes(model)
            back, diags = read_file(blob)
            assert not diags.has_errors, case
            if model.header.n_records != -1:
                assert to_bytes(back) == blob, case
        else:
            write(model).close()
            assert sink.getvalue(), case
    return raised


@functools.lru_cache
def _geometry_sweep(name: str, with_events: bool) -> frozenset[str]:
    """Every combination of a stated, short, long or default channel count,
    header length (70,000 blocks included) and record count on one corpus
    model, with and without a duplicate TLV tag, plus 65,535 and 65,536
    channels; returns the rules raised."""
    if name == "exactly_full":
        f = synthesize(SynthSpec(channels=2, tlv=(tlvmod.free_tlv(bytes(508)),)))
    else:
        f = synthesize(dict(corpus_specs())[name])
    assert list(validate(f)) == []
    n, size = f.ns, tlvmod.serialized_size(f.tlv)
    nrec = f.signals.n_records
    exact = n + 1 + -(-size // 256)
    events = f.events if with_events else None
    raised = set()
    for elements in (f.tlv, [*f.tlv, tlvmod.free_tlv(b"a"), tlvmod.free_tlv(b"b")]):
        for ns in (0, n, n - 1, n + 1):
            for blocks in (0, n, n + 1, exact, required_header_blocks(n, f.tlv), 70000):
                for n_records in (-2, -1, nrec, nrec - 1, nrec + 1):
                    header = replace(f.header, ns=ns, header_blocks=blocks,
                                     n_records=n_records)
                    g = replace(f, header=header, tlv=elements, events=events)
                    raised |= _writers_agree(g, (len(elements), ns, blocks, n_records))
    sparse = replace(f.channels[0], samples_per_record=0)
    for count in (65535, 65536):  # 65,535 channels need 65,536 header blocks
        for header in (f.header, replace(f.header, ns=0, header_blocks=0)):
            g = replace(f, header=header, channels=[sparse] * count, events=events)
            raised |= _writers_agree(g, (count, header.ns, header.header_blocks))
    return frozenset(raised)


class TestMinimalFiles:
    def test_header_only_file(self):
        f = GdfFile(header=FixedHeader(n_records=0))
        blob = to_bytes(f)
        assert len(blob) == 256
        back, diags = read_file(blob)
        assert back.header.n_records == 0
        assert back.channels == []
        assert back.events is None
        assert not diags

    def test_minimal_write_returns_count(self):
        sink = io.BytesIO()
        assert write_file(GdfFile(header=FixedHeader(n_records=0)), sink) == 256

    def test_pure_event_file(self):
        events = EventTable(1, 100.0, np.array([1, 5], "<u4"),
                            np.array([0x0300, 0x0301], "<u2"))
        f = GdfFile(header=FixedHeader(n_records=0), events=events)
        back, diags = read_file(to_bytes(f))
        assert back.header.ns == 0
        assert back.events == events

    def test_section_sizes(self):
        spec_tlv = (tlvmod.free_tlv(b"x" * 10),)
        f = synthesize(SynthSpec(channels=2, records=5, events=3,
                                 event_mode=1, tlv=spec_tlv))
        blob = to_bytes(f)
        ns, nrec = 2, 5
        bpr = 2 * 16 * 2  # two int16 channels, 16 samples per record
        expected = 256 * (ns + 2) + nrec * bpr + 8 + 3 * 6
        assert len(blob) == expected

    def test_section_arithmetic_mixed_types(self):
        # 2 channels totalling 6 bytes per record, 5 records, 3 mode-1 events:
        # 3*256 header + 30 data + 26 events = 824 bytes
        channels = [
            ChannelInfo(label="a", gdf_type=GdfType.INT16, samples_per_record=1,
                        cal=Calibration(-1, 1, -100.0, 100.0)),
            ChannelInfo(label="b", gdf_type=GdfType.INT32, samples_per_record=1,
                        cal=Calibration(-1, 1, -100.0, 100.0)),
        ]
        signals = SignalBlock([np.arange(5, dtype="<i2"),
                               np.arange(5, dtype="<i4")], 5)
        events = EventTable(1, 1.0, np.array([1, 2, 3], "<u4"),
                            np.array([3, 3, 3], "<u2"))
        f = GdfFile(header=FixedHeader(n_records=5, ns=2),
                    channels=channels, signals=signals, events=events)
        assert len(to_bytes(f)) == 768 + 30 + 26 == 824


class TestBufferSources:
    def _blob(self):
        f = synthesize(SynthSpec(channels=64, samples_per_record=1000, records=30,
                                 events=0))
        return to_bytes(f)

    def test_bytearray_read_in_place(self):
        blob = self._blob()
        expected, _ = read_file(blob)
        source = bytearray(blob)
        tracemalloc.start()
        try:
            f, _ = read_file(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * len(blob)
        assert f.header == expected.header and f.channels == expected.channels
        assert f.signals == expected.signals

    def test_no_view_of_the_source_kept(self):
        source = bytearray(to_bytes(synthesize(SynthSpec(seed=4))))
        f, _ = read_file(source)
        source.extend(b"x")  # BufferError while a view is exported
        assert f.header.n_records == 8


class TestRoundTrip:
    def test_model_identity(self):
        f = synthesize(SynthSpec())
        back, diags = read_file(to_bytes(f))
        assert not diags.has_errors
        assert back.header == f.header
        assert back.channels == f.channels
        assert back.tlv == f.tlv
        assert back.signals == f.signals
        assert back.events == f.events

    def test_byte_identity(self):
        blob = to_bytes(synthesize(SynthSpec(seed=5)))
        back, _ = read_file(blob)
        assert to_bytes(back) == blob

    def test_event_table_at_computed_position(self):
        f = synthesize(SynthSpec(seed=9, events=3))
        blob = to_bytes(f)
        etp = event_table_position(f.header.header_blocks or
                                   required_header_blocks(f.ns, f.tlv),
                                   f.header.n_records,
                                   f.layout().bytes_per_record)
        assert blob[etp] == f.events.mode

    def test_deterministic_output(self):
        a = to_bytes(synthesize(SynthSpec(seed=3)))
        b = to_bytes(synthesize(SynthSpec(seed=3)))
        assert a == b


class TestNRecUnknown:
    def _ongoing_blob(self, records=4):
        f = synthesize(SynthSpec(channels=2, records=records, events=0))
        finished = to_bytes(f)
        etp = 256 * read_file(finished)[0].header.header_blocks \
            + records * f.layout().bytes_per_record
        blob = bytearray(finished[:etp])
        struct.pack_into("<q", blob, 236, -1)
        return bytes(blob), f

    def test_count_inferred(self):
        blob, original = self._ongoing_blob()
        back, diags = read_file(blob)
        assert back.header.n_records == 4
        assert any(d.rule == "data.nrec_inferred" for d in diags)
        assert back.signals == original.signals

    def test_partial_record_strict(self):
        blob, _ = self._ongoing_blob()
        with pytest.raises(TruncatedDataError):
            read_file(blob[:-3])

    def test_partial_record_lenient(self):
        blob, _ = self._ongoing_blob()
        back, diags = read_file(blob[:-3], lenient=True)
        assert back.header.n_records == 3
        assert any(d.rule == "data.truncated" for d in diags)

    def test_declared_count_truncated_lenient(self):
        f = synthesize(SynthSpec(channels=1, records=6, events=0))
        blob = to_bytes(f)
        bpr = f.layout().bytes_per_record
        back, diags = read_file(blob[:len(blob) - 2 * bpr], lenient=True)
        assert back.header.n_records == 4
        assert any(d.rule == "data.truncated" for d in diags)

    def test_cut_record_not_parsed_as_events(self):
        # one uint8 channel, 16 samples per record, 4 records; record 3 starts
        # with the bytes of a mode-1 event table header declaring no events
        ch = ChannelInfo(label="a", samples_per_record=16, gdf_type=GdfType.UINT8,
                         cal=Calibration(0.0, 1.0, 0.0, 255.0))
        samples = np.zeros(64, np.uint8)
        samples[48:52] = [1, 0, 0, 0]
        f = GdfFile(header=FixedHeader(n_records=4), channels=[ch],
                    signals=SignalBlock([samples], 4), events=EventTable(1, 8.0, [], []))
        blob = to_bytes(f)
        record3 = 512 + 3 * 16
        for cut in [record3 + 12] + list(range(record3, record3 + 16)):
            back, diags = read_file(blob[:cut], lenient=True)
            assert [d.rule for d in diags] == ["data.truncated"], cut
            assert back.events is None
            assert back.signals.n_records == 3
        assert read_file(blob)[0].events == f.events


class TestStrictness:
    def test_error_diagnostic_raises_strict(self):
        f = synthesize(SynthSpec(channels=1, events=0))
        blob = bytearray(to_bytes(f))
        # inflate dig_max (float64 at 256 + 128*ns) beyond the int16 range
        struct.pack_into("<d", blob, 256 + 128 * 1, 40000.0)
        with pytest.raises(DiagnosticError) as exc:
            read_file(bytes(blob))
        assert any(d.rule == "channel.dig_bounds_exceed_type"
                   for d in exc.value.diagnostics)

    def test_lenient_returns_model(self):
        f = synthesize(SynthSpec(channels=1, events=0))
        blob = bytearray(to_bytes(f))
        struct.pack_into("<d", blob, 256 + 128, 40000.0)
        back, diags = read_file(bytes(blob), lenient=True)
        assert diags.has_errors
        assert back.channels[0].cal.dig_max == 40000.0

    @pytest.mark.parametrize("rule", ["tlv.length_overrun", "tlv.duplicate_tag"])
    def test_tlv_error_offsets(self, rule):
        # the optional header of a two-channel file starts at byte 768
        elements = (tlvmod.free_tlv(b"abc"), tlvmod.text_tlv(tlvmod.TAG_LAB, "lab"))
        blob = bytearray(to_bytes(synthesize(SynthSpec(channels=2, events=0,
                                                       tlv=elements))))
        second = 768 + elements[0].size
        if rule == "tlv.length_overrun":
            blob[second + 1:second + 4] = (1 << 20).to_bytes(3, "little")
        else:
            blob[second] = elements[0].tag
        with pytest.raises(StructureError) as exc:
            read_file(bytes(blob))
        assert (exc.value.rule, exc.value.offset) == (rule, second)
        _, diags = read_file(bytes(blob), lenient=True)
        assert [d.offset for d in diags if d.rule == rule] == [second - 768]

    def test_trailing_garbage_strict(self):
        blob = to_bytes(synthesize(SynthSpec(channels=1, events=2)))
        with pytest.raises(StructureError):
            read_file(blob + b"\x99")

    def test_trailing_garbage_lenient(self):
        blob = to_bytes(synthesize(SynthSpec(channels=1, events=2)))
        back, diags = read_file(blob + b"\x99", lenient=True)
        assert any(d.rule == "file.trailing_bytes" for d in diags)
        assert back.events is not None


class TestWriteValidation:
    def test_record_count_mismatch(self):
        f = synthesize(SynthSpec(records=4))
        broken = GdfFile(header=replace(f.header, n_records=5),
                         channels=f.channels, signals=f.signals)
        with pytest.raises(DomainError):
            to_bytes(broken)

    def test_ongoing_with_events_rejected(self):
        f = synthesize(SynthSpec(records=2, events=2))
        broken = GdfFile(header=replace(f.header, n_records=-1),
                         channels=f.channels, signals=f.signals, events=f.events)
        with pytest.raises(DomainError):
            to_bytes(broken)

    def test_undersized_header_blocks_rejected(self):
        f = synthesize(SynthSpec(channels=2, tlv=(tlvmod.free_tlv(bytes(300)),)))
        broken = GdfFile(header=replace(f.header, header_blocks=3),
                         channels=f.channels, tlv=f.tlv, signals=f.signals,
                         events=f.events)
        with pytest.raises(DomainError):
            to_bytes(broken)

    def test_oversized_header_blocks_respected(self):
        f = synthesize(SynthSpec(channels=1, events=0))
        padded = GdfFile(header=replace(f.header, header_blocks=5),
                         channels=f.channels, signals=f.signals)
        blob = to_bytes(padded)
        back, diags = read_file(blob)
        assert back.header.header_blocks == 5
        assert to_bytes(back) == blob

    def test_exactly_full_optional_header_round_trips(self):
        # 4 + 252 bytes fill the one optional-header block with no room for
        # a terminator byte, which the format does not require
        f = synthesize(SynthSpec(channels=2, tlv=(tlvmod.free_tlv(bytes(252)),)))
        full = replace(f, header=replace(f.header, header_blocks=4))
        assert list(validate(full)) == []
        blob = to_bytes(full)
        back, diags = read_file(blob)
        assert list(diags) == []
        assert back.tlv == full.tlv
        assert to_bytes(back) == blob

    @pytest.mark.parametrize("with_events", [True, False])
    @pytest.mark.parametrize("name", SWEEP_BASES)
    def test_writers_refuse_what_validate_reports(self, name, with_events):
        _geometry_sweep(name, with_events)

    def test_sweep_raises_every_geometry_rule(self):
        raised = set().union(*(_geometry_sweep(name, with_events)
                               for name in SWEEP_BASES for with_events in (True, False)))
        assert sorted(raised) == sorted(GEOMETRY_RULES)

    @pytest.mark.parametrize("field", list(FIXED_FIELD_EDITS))
    def test_out_of_range_fixed_field_named(self, field):
        f = synthesize(SynthSpec(channels=2, events=0))
        edit = FIXED_FIELD_EDITS[field]
        with pytest.raises(DomainError, match=field):
            write_fixed_header(edit(f.header))
        if field != "n_records":  # the record count is checked against the data first
            with pytest.raises(DomainError, match=field):
                to_bytes(replace(f, header=edit(f.header)))

    @pytest.mark.parametrize("field, value", [
        ("phys_dim", 70000), ("samples_per_record", 1 << 32),
        ("phys_dim", 3.0), ("samples_per_record", 2.0),  # numpy would store 2.0 as 2
    ])
    def test_out_of_range_channel_field_named(self, field, value):
        f = synthesize(SynthSpec(channels=2, events=0))
        channels = [f.channels[0], replace(f.channels[1], **{field: value})]
        with pytest.raises(DomainError, match=rf"{field}\[1\] cannot hold {value} "):
            to_bytes(replace(f, channels=channels))
        sink = io.BytesIO()
        with pytest.raises(DomainError, match=rf"{field}\[1\] cannot hold {value} "):
            StreamWriter(sink, f.header, channels)
        assert sink.getvalue() == b""

    @pytest.mark.parametrize("f, finding, error", [
        pytest.param(GdfFile(header=FixedHeader(duration_num=LONG_INT)), None,
                     f"duration cannot hold {LONG_INT_SIZE} (uint32)", id="duration"),
        pytest.param(GdfFile(header=FixedHeader(n_records=-LONG_INT)),
                     f"record count {LONG_INT_SIZE} is invalid", None, id="n_records"),
        pytest.param(GdfFile(header=FixedHeader(ns=LONG_INT)),
                     f"header says {LONG_INT_SIZE} channels, model has 0", None, id="ns"),
        pytest.param(GdfFile(header=FixedHeader(header_blocks=-LONG_INT)),
                     f"header length {LONG_INT_SIZE} blocks is less than NS+1 = 1", None,
                     id="header_blocks"),
        pytest.param(GdfFile(channels=[ChannelInfo(phys_dim=LONG_INT)]),
                     f"channel 0: unit code {LONG_INT_SIZE} is not an integer in 0..65535",
                     f"phys_dim[0] cannot hold {LONG_INT_SIZE} (uint16)", id="phys_dim"),
        pytest.param(GdfFile(channels=[ChannelInfo(cal=Calibration(dig_min=-LONG_INT))]),
                     f"channel 0: digital bounds [{LONG_INT_SIZE}, 32767.0] exceed the "
                     "int16 range", f"dig_min[0] cannot hold {LONG_INT_SIZE} (float64)",
                     id="dig_min"),
        pytest.param(GdfFile(header=FixedHeader(n_records=1), channels=[ChannelInfo()],
                             signals=SignalBlock([[LONG_INT]], 1)), None,
                     f"channel 0 cannot hold {LONG_INT_SIZE} (int16)", id="sample"),
    ])
    def test_int_too_long_to_print_named_by_size(self, f, finding, error):
        """An int with more digits than Python prints is quoted by its size:
        validate returns its finding, and to_bytes and StreamWriter raise a
        DomainError, a layout rule's with the finding's message."""
        assert [d.message for d in validate(f)] == ([finding] if finding else [])
        with pytest.raises(DomainError) as exc:
            to_bytes(f)
        assert str(exc.value) == (error or finding)
        if f.signals.n_records:  # a record to stream
            writer = StreamWriter(io.BytesIO(), f.header, f.channels)
            with pytest.raises(DomainError) as exc:
                writer.append_record(f.signals.samples)
            assert str(exc.value) == error


def _extreme_samples(rng, gdf_type, count):
    """Random samples of a type, with its smallest and largest values (NaN
    and infinities for a float type) among them."""
    info = type_info(gdf_type)
    if info.kind == "opaque":
        return rng.integers(0, 256, (count, 16)).astype(np.uint8)
    if info.kind == "float":
        values = rng.normal(size=count).astype(info.dtype)
        ends = [np.nan, -np.inf, np.inf, np.finfo(info.dtype).max]
    else:
        values = rng.integers(info.min, info.max, count, info.dtype, endpoint=True)
        ends = [info.min, info.max]
    at = rng.choice(count, min(count, len(ends)), replace=False)
    values[at] = ends[:len(at)]
    return values


class TestStreamWriter:
    def _pieces(self, spec=SynthSpec(channels=3, records=6, events=3)):
        f = synthesize(spec)
        layout = f.layout()
        per_record = []
        for r in range(f.signals.n_records):
            rec = []
            for entry, arr in zip(layout.channels, f.signals.samples):
                if entry.is_sparse:
                    rec.append(None)
                else:
                    rec.append(arr[r * entry.samples_per_record:
                                   (r + 1) * entry.samples_per_record])
            per_record.append(rec)
        return f, per_record

    def test_equivalent_to_one_shot(self):
        f, per_record = self._pieces()
        sink = io.BytesIO()
        writer = StreamWriter(sink, f.header, f.channels, f.tlv)
        for rec in per_record:
            writer.append_record(rec)
        total = writer.finalize(f.events)
        assert total == len(sink.getvalue())
        assert sink.getvalue() == to_bytes(f)

    def test_count_patched(self):
        f, per_record = self._pieces(SynthSpec(channels=2, records=3, events=0))
        sink = io.BytesIO()
        writer = StreamWriter(sink, f.header, f.channels)
        for rec in per_record:
            writer.append_record(rec)
        writer.finalize()
        assert struct.unpack_from("<q", sink.getvalue(), 236)[0] == 3

    def test_crash_before_finalize_recoverable(self):
        f, per_record = self._pieces(SynthSpec(channels=2, records=3, events=0))
        sink = io.BytesIO()
        writer = StreamWriter(sink, f.header, f.channels)
        for rec in per_record[:2]:
            writer.append_record(rec)
        # no finalize: the file still declares -1 records
        back, diags = read_file(sink.getvalue(), lenient=True)
        assert back.header.n_records == 2
        assert any(d.rule == "data.nrec_inferred" for d in diags)

    @pytest.mark.parametrize("finalized", [False, True], ids=["unfinished", "finalized"])
    @settings(max_examples=40, deadline=None)
    @given(channels=st.lists(st.tuples(st.sampled_from(list(GdfType)), st.integers(0, 3)),
                             min_size=1, max_size=5),
           n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_every_cut_recovers_complete_records(self, finalized, channels, n, seed):
        """Each prefix of a stream, from the end of its header on, reads
        leniently to exactly its complete records and no event table, for
        drawn channel sets: every type, sparse channels (0 samples per
        record) among them, values at the ends of each type's range."""
        channels = [ChannelInfo(label=f"c{i}", gdf_type=t, samples_per_record=spr,
                                cal=Calibration(-1.0, 1.0, 0.0, 100.0))
                    for i, (t, spr) in enumerate(channels)]
        rng = np.random.default_rng(seed)
        samples = [None if ch.samples_per_record == 0 else
                   _extreme_samples(rng, ch.gdf_type, n * ch.samples_per_record)
                   for ch in channels]
        sink = io.BytesIO()
        writer = StreamWriter(sink, FixedHeader(), channels)
        for r in range(n):
            writer.append_record([None if s is None else
                                  s[r * len(s) // n:(r + 1) * len(s) // n] for s in samples])
        if finalized:
            writer.finalize()
        blob = sink.getvalue()
        header_end = 256 * (len(channels) + 1)
        bpr = sum(ch.samples_per_record * type_info(ch.gdf_type).size for ch in channels)
        assert len(blob) == header_end + n * bpr
        for cut in range(header_end, len(blob) + 1):
            back, _ = read_file(blob[:cut], lenient=True)
            # with no data bytes, only a patched count tells the records
            k = (cut - header_end) // bpr if bpr else n * finalized
            assert back.signals == SignalBlock(
                [None if s is None else s[:k * len(s) // n] for s in samples], k), cut
            assert back.events is None, cut

    def test_append_after_finalize_rejected(self):
        f, per_record = self._pieces(SynthSpec(channels=2, records=1, events=0))
        writer = StreamWriter(io.BytesIO(), f.header, f.channels)
        writer.append_record(per_record[0])
        writer.finalize()
        with pytest.raises(GdfError):
            writer.append_record(per_record[0])

    def test_unseekable_sink_without_events(self):
        class NoSeek(io.RawIOBase):
            def __init__(self):
                self.chunks = []

            def writable(self):
                return True

            def write(self, b):
                self.chunks.append(b)  # kept as given: a sink may hold on to it
                return memoryview(b).nbytes

            def seekable(self):
                return False

        f, per_record = self._pieces(SynthSpec(channels=3, gdf_type=GdfType.INT24, records=3,
                                               events=0, with_sparse=True))
        sink = NoSeek()
        writer = StreamWriter(sink, f.header, f.channels)
        for rec in per_record:
            writer.append_record(rec)
        writer.finalize()  # allowed: count stays -1
        blob = b"".join(map(bytes, sink.chunks))
        assert struct.unpack_from("<q", blob, 236)[0] == -1
        # each record reached the sink as bytes that the writer never overwrote
        assert blob == to_bytes(replace(f, header=replace(f.header, n_records=-1), events=None))
        back, _ = read_file(blob, lenient=True)
        assert back.header.n_records == 3

    def test_unseekable_sink_with_events_rejected(self):
        class NoSeek(io.BytesIO):
            def seekable(self):
                return False

        f, per_record = self._pieces(SynthSpec(channels=2, records=1, events=1))
        writer = StreamWriter(NoSeek(), f.header, f.channels)
        writer.append_record(per_record[0])
        with pytest.raises(GdfError):
            writer.finalize(f.events)

    def test_path_sink(self, tmp_path):
        f, per_record = self._pieces(SynthSpec(channels=2, records=2, events=2))
        path = tmp_path / "stream.gdf"
        writer = StreamWriter(path, f.header, f.channels, f.tlv)
        for rec in per_record:
            writer.append_record(rec)
        writer.finalize(f.events)
        assert path.read_bytes() == to_bytes(f)

    def test_bad_geometry_leaves_existing_file(self, tmp_path):
        path = tmp_path / "existing.gdf"
        path.write_bytes(b"keep me")
        with pytest.raises(DomainError):
            StreamWriter(path, FixedHeader(ns=5), [ChannelInfo(label="a")])
        assert path.read_bytes() == b"keep me"

    def test_close_abandons_without_patching(self, tmp_path):
        f, per_record = self._pieces(SynthSpec(channels=2, records=3, events=0))
        path = tmp_path / "abandoned.gdf"
        writer = StreamWriter(path, f.header, f.channels)
        writer.append_record(per_record[0])
        writer.close()
        with pytest.raises(GdfError):
            writer.append_record(per_record[1])
        blob = path.read_bytes()
        assert struct.unpack_from("<q", blob, 236)[0] == -1
        back, _ = read_file(blob, lenient=True)
        assert back.header.n_records == 1


class TestValidate:
    def test_clean_synthetic_file(self):
        assert list(validate(synthesize(SynthSpec()))) == []

    def test_dig_bounds(self):
        f = synthesize(SynthSpec(channels=1, events=0))
        bad = ChannelInfo(**{**f.channels[0].__dict__,
                             "cal": Calibration(0, 1, -100.0, 40000.0)})
        broken = GdfFile(header=f.header, channels=[bad], signals=f.signals)
        assert any(d.rule == "channel.dig_bounds_exceed_type"
                   for d in validate(broken))

    def test_physdim_nonstandard_prefix(self):
        f = synthesize(SynthSpec(channels=1, events=0))
        odd = replace(f.channels[0], phys_dim=(f.channels[0].phys_dim & ~0x1F) | 11)
        broken = GdfFile(header=f.header, channels=[odd], signals=f.signals)
        assert [d.rule for d in validate(broken)] == ["channel.physdim_nonstandard_prefix"]

    @pytest.mark.parametrize("code", [3.0, 1.5, -1, 70000])
    def test_physdim_invalid(self, code):
        # the unit codes the writers refuse; -1 is no longer read as prefix 31
        f = synthesize(SynthSpec(channels=2, events=0))
        odd = replace(f.channels[1], phys_dim=code)
        broken = GdfFile(header=f.header, channels=[f.channels[0], odd], signals=f.signals)
        diags = validate(broken)
        assert [(d.rule, d.severity.name) for d in diags] == \
            [("channel.physdim_invalid", "ERROR")]
        assert diags[0].message == \
            f"channel 1: unit code {code!r} is not an integer in 0..65535"
        with pytest.raises(DomainError, match=r"phys_dim\[1\] cannot hold"):
            to_bytes(broken)

    def test_sparse_rows_reported_as_extract_reports_them(self):
        f = synthesize(SynthSpec(channels=3, records=2, events=0, with_sparse=True))
        wide = replace(f.channels[2], label="wide", gdf_type=GdfType.FLOAT64)
        channels = f.channels + [wide]
        signals = SignalBlock(f.signals.samples + [None], f.signals.n_records)
        # channel 0, NS + 1, a continuous channel, a sparse float64 channel
        events = EventTable(3, 16.0, np.arange(1, 5), np.full(4, SPARSE_SAMPLE_TYPE),
                            np.array([0, 5, 1, 4]), np.ones(4))
        broken = GdfFile(header=f.header, channels=channels, signals=signals,
                         events=events)
        from_validate = [d for d in validate(broken)
                         if d.rule == "event.sparse_channel_invalid"]
        extracted = Diagnostics()
        assert not any(extract_sparse_samples(events, channels, extracted).values())
        assert len(from_validate) == len(extracted) == 4

    def test_event_pos_zero(self):
        f = synthesize(SynthSpec(records=2, events=0))
        events = EventTable(1, 16.0, np.array([0], "<u4"), np.array([3], "<u2"))
        broken = GdfFile(header=f.header, channels=f.channels,
                         signals=f.signals, events=events)
        assert any(d.rule == "event.pos_zero" for d in validate(broken))

    def test_event_past_end(self):
        f = synthesize(SynthSpec(records=2, events=0))
        events = EventTable(1, 16.0, np.array([10_000], "<u4"),
                            np.array([3], "<u2"))
        broken = GdfFile(header=f.header, channels=f.channels,
                         signals=f.signals, events=events)
        assert any(d.rule == "event.pos_past_end" for d in validate(broken))

    @pytest.mark.parametrize("header, past", [
        (FixedHeader(n_records=10**400), None),
        (FixedHeader(n_records=10**400, duration_num=-1), "2 event(s) lie past the end of "
                                                          "the recording (-inf samples)"),
        (FixedHeader(n_records=10**400, duration_den=10**400), "1 event(s) lie past the end "
                                                               "of the recording (1 samples)"),
        (FixedHeader(n_records=10**400, duration_num=3, duration_den=10**400 - 1),
         "1 event(s) lie past the end of the recording (3 samples)"),
    ], ids=["beyond-float64", "negative-beyond-float64", "exact-ratio", "rounded-ratio"])
    def test_event_limit_beyond_float64(self, header, past):
        """validate never raises: the end of a recording whose record count
        is beyond float64 is worked out exactly, and is infinite only if it
        lies beyond float64 too."""
        events = EventTable(1, 1.0, [1, 4], [1, 1])
        found = [d.message for d in validate(GdfFile(header=header, events=events))
                 if d.rule == "event.pos_past_end"]
        assert found == ([] if past is None else [past])

    def test_sparse_in_mode1(self):
        f = synthesize(SynthSpec(records=2, events=0))
        events = EventTable(1, 16.0, np.array([1], "<u4"),
                            np.array([0x7FFF], "<u2"))
        broken = GdfFile(header=f.header, channels=f.channels,
                         signals=f.signals, events=events)
        assert any(d.rule == "event.sparse_in_mode1" for d in validate(broken))

    def test_tlv_checks(self):
        f = synthesize(SynthSpec(channels=2, events=0))
        bad_tlv = [tlvmod.TlvElement(4, bytes(10)),  # wrong length for ns=2
                   tlvmod.TlvElement(5, bytes(5)),
                   tlvmod.TlvElement(3, b"Acme\x00M1\x00v2\x00")]  # 3 strings
        broken = GdfFile(header=f.header, channels=f.channels,
                         signals=f.signals, tlv=bad_tlv)
        rules = {d.rule for d in validate(broken)}
        assert "tlv.tag4_bad_length" in rules
        assert "tlv.tag5_bad_length" in rules
        assert "tlv.tag3_malformed" in rules


class TestAnonymize:
    def _personal_file(self):
        elements = (tlvmod.text_tlv(tlvmod.TAG_TECHNICIAN, "tech-1"),
                    tlvmod.text_tlv(tlvmod.TAG_LAB, "lab-9"),
                    tlvmod.free_tlv(b"keep me"))
        f = synthesize(SynthSpec(channels=2, records=2, events=2, tlv=elements))
        patient = PatientInfo(pid="P77 Doe M", birthday=GdfTime.from_unix(0.0))
        header = replace(f.header, patient=patient)
        return GdfFile(header=header, channels=f.channels, tlv=list(elements),
                       signals=f.signals, events=f.events)

    def test_name_masked_and_tags_dropped(self):
        result = anonymize(self._personal_file())
        assert result.header.patient.pid == "P77 X M"
        assert not result.header.patient.birthday.is_set
        assert [e.tag for e in result.tlv] == [255]

    def test_birthday_offset(self):
        result = anonymize(self._personal_file(), birthday_offset_days=30)
        assert result.header.patient.birthday.days == 719529 + 30

    def test_offset_over_one_year_rejected(self):
        with pytest.raises(DomainError):
            anonymize(self._personal_file(), birthday_offset_days=400)

    def test_idempotent(self):
        once = anonymize(self._personal_file())
        twice = anonymize(once)
        assert to_bytes(twice) == to_bytes(once)

    def test_signals_untouched(self):
        f = self._personal_file()
        result = anonymize(f)
        assert result.signals == f.signals
        assert result.events == f.events


def test_legacy_version_file_round_trip():
    """A pre-2.19 file keeps its version tag and its one-byte impedance
    sensor layout through a read/write cycle."""
    from gdfkit.header import sensor_readings

    f = synthesize(SynthSpec(channels=2, records=3, events=0, seed=50))
    legacy_channels = [
        ChannelInfo(**{**ch.__dict__,
                       "sensor_info": bytes([96 + i]) + bytes(19)})
        for i, ch in enumerate(f.channels)
    ]
    legacy = GdfFile(header=replace(f.header, version="GDF 2.10"),
                     channels=legacy_channels, signals=f.signals)
    blob = to_bytes(legacy)
    assert blob[0:8] == b"GDF 2.10"
    # the legacy layout packs all impedance bytes first
    assert blob[256 + 236 * 2] == 96
    assert blob[256 + 236 * 2 + 1] == 97
    back, diags = read_file(blob)
    assert not diags.has_errors
    assert back.header.version == "GDF 2.10"
    assert back.channels == legacy_channels
    assert sensor_readings([back.channels[0]], back.header.version_minor)[0][0] \
        == pytest.approx(2 ** (96 / 8))
    assert to_bytes(back) == blob


def _benchmark_recordings():
    """The recordings of the benchmark's three workloads at full geometry."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    rng = np.random.default_rng(7)
    return [item for geometry in workloads.GEOMETRIES.values()
            for item in geometry(False).make(rng)]


def test_corpus_round_trips():
    from gdfkit.synth import corpus_specs
    names = []
    for name, spec in corpus_specs():
        f = synthesize(spec)
        blob = to_bytes(f)
        back, diags = read_file(blob)
        assert not diags.has_errors, name
        assert back.signals == f.signals, name
        assert back.events == f.events, name
        assert to_bytes(back) == blob, name
        names.append(name)
    assert len(names) >= 20
    for name, f in _benchmark_recordings():
        blob = to_bytes(f)
        back = read_file(blob)[0]
        assert isinstance(back.channels, ChannelTable) and len(back.channels) == f.ns, name
        assert to_bytes(back) == blob, name
