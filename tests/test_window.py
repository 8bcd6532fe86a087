"""``read_window`` against the whole-file reader it replaced.

``_old_read_file`` is ``read_file`` as it was before it became the
whole-file case of ``read_window``: one ``fh.read()`` of a path, and every
record decoded. Every read path (``read_file`` and ``read_window`` from bytes,
a path and a file object) must give its model, diagnostics and exceptions on
files cut at every section boundary and mutated in a few bytes, with no
warning of any kind (numpy's, or a ``ResourceWarning`` of a handle left open).
"""

import gc
import io
import os
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gdfkit import fileio
from gdfkit import tlv as tlvmod
from gdfkit.core import Calibration, GdfType
from gdfkit.diagnostics import Diagnostics, Severity
from gdfkit.errors import DiagnosticError, DomainError, GdfError, StructureError, \
    TruncatedDataError
from gdfkit.events import event_table_position, event_table_size, parse_event_table
from gdfkit.fileio import GdfFile, read_file, read_window, to_bytes, validate
from gdfkit.header import (CHANNEL_HEADER_SIZE, FIXED_HEADER_SIZE, ChannelInfo, FixedHeader,
                           _FIXED_OFFSETS, parse_channel_headers, parse_fixed_header)
from gdfkit.records import SignalBlock, decode_records, layout_from_channels
from gdfkit.synth import corpus_specs, synthesize


def _old_read_file(source, *, lenient=False):
    """The whole-file reader before ``read_window``, kept as the oracle."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        data = memoryview(source).cast("B")
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
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
                                     version_minor=header.version_minor, diags=diags)
    try:
        elements = tlvmod.parse_tlv(data[h2_end:header_end], diags=diags, lenient=lenient)
    except StructureError as exc:
        exc.offset += h2_end
        raise
    layout = layout_from_channels(channels)
    bpr = layout.bytes_per_record
    available = len(data) - header_end
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
                                     complete_records=complete, remainder_bytes=remainder)
        diags.warning("data.truncated", message, section="data", offset=header_end)
    tail = b"" if declared_ongoing else \
        data[event_table_position(header.header_blocks, header.n_records, bpr):]
    header = replace(header, n_records=n_records)
    data_end = header_end + n_records * bpr
    signals = decode_records(memoryview(data)[header_end:data_end], layout, n_records)
    events = None
    if tail:
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
    f = GdfFile(header=header, channels=channels, tlv=elements, signals=signals, events=events)
    if not lenient and diags.has_errors:
        first = next(d for d in diags if d.severity == Severity.ERROR)
        raise DiagnosticError(f"strict read failed: {first.message}", diags, rule=first.rule)
    return f, diags


def _outcome(read, *args, **kwargs):
    """The model and diagnostics ``read`` gives, or what identifies the
    ``GdfError`` it raises; any other exception fails the test."""
    try:
        return read(*args, **kwargs)
    except GdfError as exc:
        return (type(exc), str(exc), exc.rule, exc.offset, getattr(exc, "diagnostics", None),
                getattr(exc, "complete_records", None), getattr(exc, "remainder_bytes", None))


def _parts(f: GdfFile) -> tuple:
    """Everything of a model but its samples; the header as text, since it
    may hold a NaN."""
    return repr(f.header), f.channels, f.tlv, f.events


def _window_of(block: SignalBlock, f: GdfFile, begin: int, count: int) -> SignalBlock:
    sprs = [c.samples_per_record for c in f.layout().channels]
    return SignalBlock([None if s is None else s[begin * spr:(begin + count) * spr]
                        for s, spr in zip(block.samples, sprs)], count)


def _section_ends(blob: bytes) -> list[int]:
    f, _ = read_file(blob, lenient=True)
    h = f.header
    data_end = 256 * h.header_blocks + max(h.n_records, 0) * f.layout().bytes_per_record
    return sorted({e + d for e in (0, 256, 256 * (h.ns + 1), 256 * h.header_blocks,
                                   data_end, data_end + 8, len(blob))
                   for d in (-1, 0, 1) if 0 <= e + d <= len(blob)})


def _ongoing(blob: bytes) -> bytes:
    """The file with its record count field set to -1 (unknown)."""
    at = _FIXED_OFFSETS["n_records"]
    return blob[:at] + np.array(-1, "<i8").tobytes() + blob[at + 8:]


def _tiny_benchmark_recordings():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    rng = np.random.default_rng(7)
    return [f for geometry in workloads.GEOMETRIES.values()
            for _, f in geometry(True).make(rng)]


_BASES = [(blob, _section_ends(blob))
          for f in [synthesize(spec) for _, spec in corpus_specs()] + _tiny_benchmark_recordings()
          for blob in (to_bytes(f), _ongoing(to_bytes(f)))]


@st.composite
def _cut_files(draw):
    """A base file cut at, or a byte either side of, a section boundary, or
    whole with 0-4 stray bytes after it; then 0-4 bytes changed: anywhere,
    or near a section start or a fixed-header field."""
    blob, ends = draw(st.sampled_from(_BASES))
    end = draw(st.sampled_from(ends))
    blob = bytearray(blob[:end] + (draw(st.binary(max_size=4)) if end == len(blob) else b""))
    near = ends + list(_FIXED_OFFSETS.values())
    for _ in range(draw(st.integers(0, 4))):
        if not blob:
            break
        at = draw(st.one_of(st.integers(0, len(blob) - 1),
                            st.builds(int.__add__, st.sampled_from(near), st.integers(0, 8))))
        blob[min(at, len(blob) - 1)] = draw(st.integers(0, 255))
    return bytes(blob)


def _check_reads(path: Path, blob: bytes, lenient: bool, window) -> None:
    """``read_file`` from every source kind gives the oracle's outcome, and
    ``read_window`` the same model with the window's samples and the same
    diagnostics, or the same exception; a window outside the records the
    oracle read is refused with a ``DomainError`` naming their count.
    ``window(n)`` draws the window once the oracle's record count ``n`` is
    known (2 if it raised). No warning is issued."""
    path.write_bytes(blob)
    sources = [lambda: blob, lambda: bytearray(blob), lambda: memoryview(blob),
               lambda: path, lambda: str(path), lambda: io.BytesIO(blob)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want = _outcome(_old_read_file, blob, lenient=lenient)
        model = isinstance(want[0], GdfFile)
        n = want[0].header.n_records if model else 2
        begin, count = window(n)
        for source in sources:
            got = _outcome(read_file, source(), lenient=lenient)
            got_window = _outcome(read_window, source(), begin, count, lenient=lenient)
            if not model:
                assert got == want and got_window == want
                continue
            (f, diags), (g, got_diags) = want, got
            assert _parts(g) == _parts(f) and g.signals == f.signals and got_diags == diags
            if begin < 0 or count < 0 or begin + count > n:
                assert got_window[0] is DomainError and f" {n} records" in got_window[1]
                continue
            w, window_diags = got_window
            assert _parts(w) == _parts(f) and window_diags == diags
            assert w.signals == _window_of(f.signals, f, begin, count)
        del got, got_window  # a handle left open warns as it is freed
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("base", range(len(_BASES)))
def test_every_cut_against_the_whole_file_reader(tmp_path, base):
    """Each base file cut at, or a byte either side of, every section
    boundary, and whole with two stray bytes after it; strict and lenient,
    with the records from the second on."""
    blob, ends = _BASES[base]
    for cut in [blob[:end] for end in ends] + [blob + b"\x01\x02"]:
        for lenient in (False, True):
            _check_reads(tmp_path / "cut.gdf", cut, lenient, lambda n: (min(n, 1), max(n - 1, 0)))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cut_files(), st.booleans(), st.data())
def test_window_against_the_whole_file_reader(tmp_path_factory, blob, lenient, data):
    """As above on cut files with a few bytes changed, on drawn windows."""
    def window(n):
        begin = data.draw(st.integers(-1, n + 1), label="begin")
        return begin, data.draw(st.integers(-1, n + 1 - max(begin, 0)), label="count")
    _check_reads(tmp_path_factory.mktemp("window") / "cut.gdf", blob, lenient, window)


class TestWindowEdges:
    def _blob(self):
        return to_bytes(synthesize(dict(corpus_specs())["events_mode1"]))

    @pytest.mark.parametrize("begin, count", [(-1, 0), (0, -1), (-1, 2), (3, -2),
                                              ("all", 1), ("all+1", 0)])
    def test_out_of_range_refused(self, tmp_path, begin, count):
        blob = self._blob()
        f, _ = read_file(blob)
        n = f.header.n_records
        begin = {"all": n, "all+1": n + 1}.get(begin, begin)
        path = tmp_path / "f.gdf"
        path.write_bytes(blob)
        for source in (blob, path, io.BytesIO(blob)):
            with pytest.raises(DomainError, match=f"within the {n} records of the file"):
                read_window(source, begin, count)

    def test_edge_windows(self):
        blob = self._blob()
        f, diags = read_file(blob)
        n = f.header.n_records
        for begin, count in ((0, 0), (n, 0), (0, n), (n - 1, 1), (1, n - 2)):
            w, window_diags = read_window(blob, begin, count)
            assert w.header == f.header and w.events == f.events and window_diags == diags
            assert w.signals == _window_of(f.signals, f, begin, count)

    def test_window_model_reports_length_mismatch(self):
        blob = self._blob()
        w, _ = read_window(blob, 1, 2)
        assert "data.length_mismatch" in {d.rule for d in validate(w)}
        with pytest.raises(DomainError) as exc:
            to_bytes(w)
        assert exc.value.rule == "data.length_mismatch"
        whole, _ = read_window(blob, 0, w.header.n_records)
        assert to_bytes(whole) == blob

    @pytest.mark.parametrize("ns", [0, 2])
    def test_zero_byte_records(self, ns):
        """Records 0 bytes long (no channels, or only sparse ones): any
        window within the declared count decodes to no samples."""
        channels = [ChannelInfo(label=f"s{i}", gdf_type=GdfType.UINT32, samples_per_record=0,
                                cal=Calibration(-1.0, 1.0, 0.0, 100.0)) for i in range(ns)]
        blob = to_bytes(GdfFile(header=FixedHeader(n_records=5), channels=channels,
                                signals=SignalBlock([None] * ns, 5)))
        for begin, count in ((0, 0), (5, 0), (2, 3), (0, 5)):
            w, _ = read_window(blob, begin, count)
            assert w.header.n_records == 5
            assert w.signals == SignalBlock([None] * ns, count)
        with pytest.raises(DomainError, match="within the 5 records"):
            read_window(blob, 0, 6)
        w, diags = read_window(_ongoing(blob), 0, 0)  # an unknown count infers 0 records
        assert w.header.n_records == 0 and [d.rule for d in diags] == ["data.nrec_inferred"]

    @pytest.mark.filterwarnings("error")
    def test_pipe_read_whole(self, tmp_path):
        """A path with no size of its own (a named pipe) is read whole."""
        blob = self._blob()
        f, diags = read_file(blob)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(blob,), daemon=True)
        writer.start()
        w, window_diags = read_window(pipe, 1, 2)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert _parts(w) == _parts(f) and window_diags == diags
        assert w.signals == _window_of(f.signals, f, 1, 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("where", ["fixed", "header", "data", "events"])
    @pytest.mark.parametrize("window", [None, (0, 0), (2, 3)])
    def test_file_shrinking_after_it_was_sized(self, tmp_path, monkeypatch, where, window):
        """A path that gets shorter once its size was taken raises
        ``StructureError`` (``file.shrank``) from whichever range runs short,
        and its handle is closed."""
        blob = self._blob()
        f, _ = read_file(blob)
        header_end = 256 * f.header.header_blocks
        cut = {"fixed": 100, "header": header_end - 10,
               "data": header_end + 3 * f.layout().bytes_per_record + 1,
               "events": len(blob) - 4}[where]
        path = tmp_path / "f.gdf"
        path.write_bytes(blob)
        fstat = os.fstat

        def fstat_then_cut(fd):
            stat = fstat(fd)
            os.truncate(path, cut)
            return stat
        monkeypatch.setattr(fileio.os, "fstat", fstat_then_cut)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(StructureError) as exc:
                read_file(path) if window is None else read_window(path, *window)
            gc.collect()
        assert exc.value.rule == "file.shrank" and exc.value.offset == cut
        assert f"{len(blob)} when reading began" in str(exc.value)
        assert not caught
