"""The three workloads: inputs made from a seed, the operations of one cycle,
and the check each operation's output must pass.

Every workload runs the same cycle on its own inputs (see :meth:`Workload.cycle`),
so every metric exists on every workload; the inputs decide which layer
dominates. ``README.md`` next to this file says why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from gdfkit import cli, events, fileio, records, synth, tlv
from gdfkit.core import GdfType

SPARSE = events.SPARSE_SAMPLE_TYPE
END_FLAG = events.END_FLAG


class CheckFailed(Exception):
    """An operation returned without error but its output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is not."""

    kind: str
    item: str
    nbytes: int
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class SelfTimed:
    """Returned by an op that times its own gdfkit calls, leaving out the
    benchmark's work in between (the stream op copies its file mid-way)."""

    result: object
    elapsed_ns: int
    samples: dict[str, list[int]]


@dataclass
class EventCase:
    """One recording's event tables and what the event ops must return."""

    table: events.EventTable            # mode 3, as stored in the file
    plain: events.EventTable            # mode 3 without sparse-sample rows
    mode1: events.EventTable            # convert_mode(plain, 1)
    starts: np.ndarray                  # sorted (typ, pos) keys of plain
    ends: np.ndarray                    # sorted (typ, pos + dur) keys, dur > 0
    sparse: dict[int, list[tuple[int, int]]]


@dataclass
class Recording:
    name: str
    model: fileio.GdfFile
    data: bytes                         # to_bytes(model)
    path: str                           # data on disk, for the CLI
    invalid: list[int]                  # samples outside the digital bounds
    events: EventCase
    record_samples: list[list]          # per record, per channel, for streaming
    bytes_per_record: int
    stream_path: str
    cut_record: int                     # after this append the file is copied


@dataclass
class CsvCase:
    name: str
    gdf_path: str
    csv_path: str
    back_path: str
    model: fileio.GdfFile
    scaled: list[np.ndarray]            # per exported channel, NaN = invalid
    reference: bytes | None = None      # first export, checked cell by cell


def _key(typ, pos) -> np.ndarray:
    return np.sort((np.asarray(typ, np.int64) << 32) | np.asarray(pos, np.int64))


def _event_case(model: fileio.GdfFile) -> EventCase:
    t = model.events
    keep = t.typ != SPARSE
    plain = events.EventTable(3, t.sample_rate_hz, t.pos[keep], t.typ[keep],
                              t.chn[keep], t.dur[keep])
    spans = plain.dur > 0
    sparse: dict[int, list[tuple[int, int]]] = {
        i: [] for i, ch in enumerate(model.channels) if ch.is_sparse}
    for pos, chn, dur in zip(t.pos[~keep].tolist(), t.chn[~keep].tolist(),
                             t.dur[~keep].tolist()):
        sparse[chn - 1].append((pos, dur))  # synth's sparse channels are uint32
    return EventCase(
        table=t, plain=plain, mode1=events.convert_mode(plain, 1),
        starts=_key(plain.typ, plain.pos),
        ends=_key(plain.typ[spans], plain.pos[spans].astype(np.int64) + plain.dur[spans]),
        sparse=sparse)


def _invalid_counts(model: fileio.GdfFile) -> list[int]:
    out = []
    for ch, s in zip(model.channels, model.signals.samples):
        if s is None:
            out.append(0)
            continue
        lo, hi = ch.cal.dig_min, ch.cal.dig_max
        out.append(int(np.count_nonzero(~((s >= lo) & (s <= hi)))))
    return out


def _excerpt(model: fileio.GdfFile, size: tuple[int, int] | None) -> fileio.GdfFile:
    """The first (channels, records) of a recording, without events or
    optional header (None: all of it)."""
    if size is None:
        return model
    ns, n_records = size
    channels = model.channels[:ns]
    samples = [None if s is None else s[:n_records * ch.samples_per_record]
               for s, ch in zip(model.signals.samples, channels)]
    return fileio.GdfFile(
        header=replace(model.header, n_records=n_records, ns=ns, header_blocks=0),
        channels=channels, signals=records.SignalBlock(samples, n_records))


def _scaled_columns(model: fileio.GdfFile) -> list[np.ndarray]:
    return [ch.cal.scale_array(s) for ch, s in zip(model.channels, model.signals.samples)
            if s is not None]


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@dataclass
class Geometry:
    """Fixed sizes of one workload; only the seed varies the content."""

    make: Callable[[np.random.Generator], list[tuple[str, fileio.GdfFile]]]
    # (channels, records) the CSV ops convert; None converts whole recordings
    csv_excerpt: tuple[int, int] | None = None
    # how often one cycle runs the recording ops, the stream op and the CSV
    # ops, so that every operation gathers enough samples within one run
    repeat: int = 1
    streams: int = 1
    conversions: int = 1


class Workload:
    """Inputs of one workload plus the operations that use them."""

    def __init__(self, geometry: Geometry, seed: int, workdir: str):
        seed %= 2**63  # any integer seed; numpy takes non-negative ones
        rng = np.random.default_rng(seed)
        self.recordings: list[Recording] = []
        self.csv_cases: list[CsvCase] = []
        for item, model in geometry.make(rng):
            data = fileio.to_bytes(model)
            path = os.path.join(workdir, f"{item}.gdf")
            with open(path, "wb") as fh:
                fh.write(data)
            n = model.signals.n_records
            bpr = model.layout().bytes_per_record
            # copy the unfinished file once the writer's buffer must have
            # reached the disk with at least two records
            first = min(n - 1, max(n // 2, (io.DEFAULT_BUFFER_SIZE + 2 * bpr) // bpr))
            self.recordings.append(Recording(
                name=item, model=model, data=data, path=path,
                invalid=_invalid_counts(model), events=_event_case(model),
                record_samples=_split_records(model), bytes_per_record=bpr,
                stream_path=os.path.join(workdir, f"{item}.stream.gdf"),
                cut_record=int(rng.integers(first, n))))
            excerpt = _excerpt(model, geometry.csv_excerpt)
            stem = os.path.join(workdir, f"{item}.csvcase")
            gdf_path = path
            if excerpt is not model:
                gdf_path = stem + ".gdf"
                fileio.write_file(excerpt, gdf_path)
            self.csv_cases.append(CsvCase(
                name=item, gdf_path=gdf_path, csv_path=stem + ".csv",
                back_path=stem + ".back.gdf", model=excerpt,
                scaled=_scaled_columns(excerpt)))
        self.check_rng = np.random.default_rng(seed + 1)
        self.geometry = geometry

    def warm_up(self) -> None:
        """Read and re-serialise every recording and append a few of its
        records: the first acquisition in a process is slower than the rest."""
        for rec in self.recordings:
            fileio.to_bytes(fileio.read_file(rec.data)[0])
            m = rec.model
            writer = fileio.StreamWriter(rec.stream_path, m.header, m.channels, m.tlv)
            for samples in rec.record_samples[:20]:
                writer.append_record(samples)
            writer.close()

    def cycle(self, index: int) -> list[Op]:
        """One closed-loop cycle on one recording and one CSV case: the CSV
        exports and imports, the streams spread between them, and the rounds
        of short ops spread between all of those. Spreading samples the short
        ops at many moments of a run, not only between two long ops."""
        g = self.geometry
        rec = self.recordings[index % len(self.recordings)]
        case = self.csv_cases[index % len(self.csv_cases)]
        long_ops = _spread([op for _ in range(g.conversions) for op in self._csv(case)],
                           [self._stream(rec) for _ in range(g.streams)])
        rounds = [self._round(rec) for _ in range(g.repeat)]
        return [op for part in _spread([[op] for op in long_ops], rounds) for op in part]

    def _round(self, rec: Recording) -> list[Op]:
        """Read, re-serialise and validate every recording, then the event
        ops and inspect on one of them."""
        ops: list[Op] = []
        for each in self.recordings:
            ops += self._read_write_validate(each)
        return ops + [self._events(rec), self._inspect(rec)]

    # --- operations ---------------------------------------------------------

    def _read_write_validate(self, rec: Recording) -> list[Op]:
        box: dict[str, object] = {}

        def check_read(result):
            f, diags = result
            expect(not diags.has_errors, f"{rec.name}: read reported errors")
            expect(f.signals.n_records == rec.model.signals.n_records,
                   f"{rec.name}: read {f.signals.n_records} records")
            box["model"] = f

        def check_write(blob):
            expect(blob == rec.data, f"{rec.name}: read + to_bytes is not byte-identical")

        def check_validate(result):
            diags, reports = result
            expect(len(diags) == 0, f"{rec.name}: validate found {[d.rule for d in diags]}")
            got = [r.n_invalid for r in reports]
            expect(got == rec.invalid, f"{rec.name}: overflow_scan counts differ")

        def validate():
            f = box["model"]
            return fileio.validate(f), records.overflow_scan(f.signals, f.channels)

        return [
            Op("read", rec.name, len(rec.data), lambda: fileio.read_file(rec.data), check_read),
            Op("write", rec.name, len(rec.data), lambda: fileio.to_bytes(box["model"]),
               check_write),
            Op("validate", rec.name, len(rec.data), validate, check_validate),
        ]

    def _events(self, rec: Recording) -> Op:
        case = rec.events
        channels = rec.model.channels

        def call():
            return (events.pair_mode1_events(case.mode1),
                    events.convert_mode(case.mode1, 3),
                    events.convert_mode(case.plain, 1),
                    events.extract_sparse_samples(case.table, channels))

        def check(result):
            paired, to3, to1, sparse = result
            expect(not paired.orphan_ends, "pairing left orphan ends")
            expect(np.array_equal(_key([s.typ for s in paired.spans],
                                       [s.start for s in paired.spans]), case.starts),
                   "paired span starts differ")
            closed = [s for s in paired.spans if s.end is not None]
            expect(np.array_equal(_key([s.typ for s in closed], [s.end for s in closed]),
                                  case.ends), "paired span ends differ")
            spans = to3.dur > 0
            expect(np.array_equal(_key(to3.typ, to3.pos), case.starts)
                   and np.array_equal(_key(to3.typ[spans], to3.pos[spans].astype(np.int64)
                                           + to3.dur[spans]), case.ends)
                   and not np.any(to3.chn), "convert 1->3 differs")
            is_end = (to1.typ & END_FLAG) != 0
            expect(np.array_equal(_key(to1.typ[~is_end], to1.pos[~is_end]), case.starts)
                   and np.array_equal(_key(to1.typ[is_end] & 0x7FFF, to1.pos[is_end]),
                                      case.ends)
                   and np.all(np.diff(to1.pos.astype(np.int64)) >= 0),
                   "convert 3->1 differs")
            got = {k: [(s.pos, s.raw) for s in v] for k, v in sparse.items()}
            expect(got == case.sparse, "sparse samples differ")

        return Op("events", rec.name, 0, call, check)

    def _inspect(self, rec: Recording) -> Op:
        model = rec.model
        n_events = model.events.n_events

        def check(result):
            code, text = result
            expect(code == 0, f"inspect exited {code}")
            keys = [line.split(None, 1)[0] for line in text.splitlines() if line]
            labels = sum(1 for k in keys if k.startswith("channel.") and k.endswith(".label"))
            positions = sum(1 for k in keys if k.startswith("event.") and k.endswith(".pos"))
            expect(labels == model.ns and positions == n_events,
                   f"inspect listed {labels} channels and {positions} events")
            expect("events.count" in keys, "inspect printed no event count")

        return Op("inspect", rec.name, len(rec.data),
                  lambda: _quiet_cli(["inspect", rec.path]), check)

    def _stream(self, rec: Recording) -> Op:
        model = rec.model
        h, channels, elements = model.header, model.channels, model.tlv
        table = model.events
        clock = time.perf_counter_ns

        def call():
            appends = []
            start = clock()
            writer = fileio.StreamWriter(rec.stream_path, h, channels, elements)
            spent = clock() - start
            copy = b""
            for i, samples in enumerate(rec.record_samples):
                start = clock()
                writer.append_record(samples)
                appends.append(clock() - start)
                if i == rec.cut_record:
                    with open(rec.stream_path, "rb") as fh:
                        copy = fh.read()
            start = clock()
            writer.finalize(table)
            spent += clock() - start + sum(appends)
            return SelfTimed(copy, spent, {"append": appends})

        def check(copy):
            with open(rec.stream_path, "rb") as fh:
                expect(fh.read() == rec.data, f"{rec.name}: streamed file differs from to_bytes")
            _check_recovery(rec, copy, self.check_rng)

        return Op("stream", rec.name, len(rec.data), call, check)

    def _csv(self, case: CsvCase) -> list[Op]:
        def check_export(result):
            code, _ = result
            expect(code == 0, f"export exited {code}")
            with open(case.csv_path, "rb") as fh:
                text = fh.read()
            if case.reference is None:
                _check_csv_cells(case, text)
                case.reference = text
            expect(text == case.reference, f"{case.name}: export is not deterministic")

        def check_import(result):
            code, _ = result
            expect(code == 0, f"import exited {code}")
            _check_round_trip(case)

        return [
            Op("csv_export", case.name, 0,
               lambda: _quiet_cli(["convert", case.gdf_path, case.csv_path]), check_export),
            Op("csv_import", case.name, 0,
               lambda: _quiet_cli(["convert", case.csv_path, case.back_path]), check_import),
        ]


def _spread(items: list, fill: list) -> list:
    """``items`` in order, with ``fill`` spread as evenly as possible over
    the gaps before, between and after them."""
    out = []
    gaps = len(items) + 1
    for k in range(gaps):
        out += fill[k * len(fill) // gaps:(k + 1) * len(fill) // gaps]
        out += items[k:k + 1]
    return out


def _split_records(model: fileio.GdfFile) -> list[list]:
    spr = [ch.samples_per_record for ch in model.channels]
    return [[None if s is None else s[r * k:(r + 1) * k]
             for s, k in zip(model.signals.samples, spr)]
            for r in range(model.signals.n_records)]


def _check_recovery(rec: Recording, copy: bytes, rng: np.random.Generator) -> None:
    """A copy of the unfinished stream, cut inside a record, must read
    leniently to exactly its complete records."""
    header_end = 256 * rec.model.header.header_blocks
    bpr = rec.bytes_per_record
    complete = (len(copy) - header_end) // bpr
    expect(complete >= 1, f"{rec.name}: no complete record on disk at the copy point")
    cut = header_end + (complete - 1) * bpr + int(rng.integers(1, bpr))
    f, diags = fileio.read_file(copy[:cut], lenient=True)
    n = complete - 1
    expect(f.signals.n_records == n and f.events is None,
           f"{rec.name}: lenient read of a cut stream gave {f.signals.n_records} "
           f"records, expected {n}")
    expect(any(d.rule == "data.truncated" for d in diags),
           f"{rec.name}: cut stream not reported as truncated")
    for ch, got, want in zip(rec.model.channels, f.signals.samples,
                             rec.model.signals.samples):
        if want is not None:
            expect(np.array_equal(got, want[:n * ch.samples_per_record]),
                   f"{rec.name}: recovered samples differ")


def _check_csv_cells(case: CsvCase, text: bytes) -> None:
    """The first export of a run is parsed and compared cell by cell."""
    rows = list(csv.reader(io.StringIO(text.decode("utf-8"))))
    expect(len(rows) == 1 + len(case.scaled[0]) and len(rows[0]) == len(case.scaled),
           f"{case.name}: export has the wrong shape")
    cells = np.array([[math.nan if c == "" else float(c) for c in row] for row in rows[1:]])
    for j, want in enumerate(case.scaled):
        expect(np.array_equal(cells[:, j], want, equal_nan=True),
               f"{case.name}: exported column {j} differs from scale_array")
    if case.model.events is not None:
        sidecar = case.csv_path[:-len(".csv")] + ".events.csv"
        with open(sidecar, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        expect(lines == 1 + case.model.events.n_events, f"{case.name}: sidecar row count")


def _check_round_trip(case: CsvCase) -> None:
    """csv -> gdf keeps every value within one quantisation step."""
    f, _ = fileio.read_file(case.back_path)
    expect(f.signals.n_records == 1 and len(f.channels) == len(case.scaled),
           f"{case.name}: re-imported file has the wrong geometry")
    for ch, raw, want in zip(f.channels, f.signals.samples, case.scaled):
        got = ch.cal.scale_array(raw)
        step = (ch.cal.phys_max - ch.cal.phys_min) / (ch.cal.dig_max - ch.cal.dig_min)
        invalid = np.isnan(want)
        expect(np.array_equal(np.isnan(got), invalid), f"{case.name}: invalid cells moved")
        expect(bool(np.all(np.abs(got[~invalid] - want[~invalid]) <= step)),
               f"{case.name}: {ch.label} off by more than one step")
    want_events = case.model.events
    if want_events is not None:
        t = f.events
        expect(t is not None and all(np.array_equal(getattr(t, a), getattr(want_events, a))
                                     for a in ("pos", "typ", "chn", "dur")),
               f"{case.name}: events did not survive the round trip")


# --- inputs -------------------------------------------------------------------

def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _bulk(tiny: bool):
    ch, spr, nrec, ev = (4, 50, 40, (8, 13)) if tiny else (64, 1000, 60, (190, 211))

    def make(rng):
        return [(t.name.lower(), synth.synthesize(synth.SynthSpec(
            channels=ch, gdf_type=t, samples_per_record=spr, records=nrec,
            events=int(rng.integers(*ev)), seed=_seed(rng), with_overflow=True)))
            for t in (GdfType.INT16, GdfType.INT24, GdfType.FLOAT32)]
    return Geometry(make, csv_excerpt=(2, 1) if tiny else (8, 1), repeat=2, streams=2,
                    conversions=2)


def _montage(tiny: bool):
    ns, ev = (16, (100, 111)) if tiny else (512, (6600, 6801))

    def make(rng):
        elements = (
            tlv.event_descriptions_tlv(["Left", "Right", "Rest", "Artifact"]),
            tlv.text_tlv(tlv.TAG_BCI2000, "SamplingRate=8\nSourceCh=512"),
            tlv.device_ident_tlv("gdfkit", "montage", "2.20", "0512"),
            tlv.orientation_tlv([(float(i % 7), float(i % 5), 1.0) for i in range(ns)]),
            tlv.ip_address_tlv("10.0.0.17"),
            tlv.text_tlv(tlv.TAG_TECHNICIAN, "technician"),
            tlv.text_tlv(tlv.TAG_LAB, "sleep lab"),
            tlv.free_tlv(bytes(range(64))),
        )
        return [("montage", synth.synthesize(synth.SynthSpec(
            channels=ns, gdf_type=GdfType.INT16, samples_per_record=8, records=20,
            events=int(rng.integers(*ev)), seed=_seed(rng), with_sparse=True,
            tlv=elements)))]
    # the CSV ops convert the first 8 records of every channel but the sparse
    # one, which leaves most of a cycle to the header and event work
    return Geometry(make, csv_excerpt=(ns - 1, 8), repeat=3, streams=3, conversions=2)


def _acquire(tiny: bool):
    groups = ((6, GdfType.INT24, "eeg"), (2, GdfType.FLOAT32, "aux"),
              (1, GdfType.UINT16, "status")) if tiny else \
        ((48, GdfType.INT24, "eeg"), (12, GdfType.FLOAT32, "aux"),
         (4, GdfType.UINT16, "status"))
    nrec, ev = (40, (4, 7)) if tiny else (1000, (45, 56))

    def make(rng):
        n_events = int(rng.integers(*ev))
        parts = [synth.synthesize(synth.SynthSpec(
            channels=n, gdf_type=t, samples_per_record=10, records=nrec,
            events=n_events if i == 0 else 0, seed=_seed(rng), label_prefix=prefix))
            for i, (n, t, prefix) in enumerate(groups)]
        channels = [ch for p in parts for ch in p.channels]
        header = replace(parts[0].header, ns=len(channels),
                         header_blocks=fileio.required_header_blocks(len(channels), ()))
        samples = [s for p in parts for s in p.signals.samples]
        return [("acquire", fileio.GdfFile(header=header, channels=channels,
                                           signals=records.SignalBlock(samples, nrec),
                                           events=parts[0].events))]
    return Geometry(make, csv_excerpt=(9, 5) if tiny else (64, 50), repeat=12, conversions=4)


GEOMETRIES = {"bulk": _bulk, "montage": _montage, "acquire": _acquire}
