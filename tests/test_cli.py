import argparse
import contextlib
import csv
import importlib.util
import io
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdfkit import cli
from gdfkit import tlv as tlvmod
from gdfkit.cli import main
from gdfkit.core import Calibration, GdfType, type_info
from gdfkit.errors import GdfError
from gdfkit.fileio import GdfFile, read_file, to_bytes, write_file
from gdfkit.events import EventTable
from gdfkit.header import (ChannelInfo, FixedHeader, Location, RecordingInfo, sampling_rate,
                           sensor_readings, sensor_value_bytes)
from gdfkit.records import SignalBlock, overflow_scan
from gdfkit.synth import corpus_specs, synthesize
from gdfkit.units import unit_symbol


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.gdf"
    assert main(["synthesize", str(path), "--seed", "1"]) == 0
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


class TestSynthesize:
    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.gdf", tmp_path / "b.gdf"
        assert main(["synthesize", str(a), "--seed", "7"]) == 0
        assert main(["synthesize", str(b), "--seed", "7"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a.gdf", tmp_path / "b.gdf"
        main(["synthesize", str(a), "--seed", "1"])
        main(["synthesize", str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()

    def test_with_sparse_has_sparse_rows(self, tmp_path):
        path = tmp_path / "sparse.gdf"
        assert main(["synthesize", str(path), "--with-sparse"]) == 0
        f, _ = read_file(path)
        assert np.any(f.events.typ == 0x7FFF)

    def test_with_overflow_saturates(self, tmp_path):
        path = tmp_path / "over.gdf"
        assert main(["synthesize", str(path), "--with-overflow"]) == 0
        f, _ = read_file(path)
        reports = overflow_scan(f.signals, f.channels)
        assert any(r.saturation_ratio > 0 for r in reports)

    def test_bad_flags_exit_2(self, tmp_path):
        assert main(["synthesize", str(tmp_path / "x.gdf"), "--type", "bogus"]) == 2


class TestValidate:
    def test_clean_exits_0_no_output(self, clean_file, capsys):
        code, out, err = run(capsys, "validate", clean_file)
        assert code == 0
        assert out == ""

    def test_overflow_reported(self, tmp_path, capsys):
        path = tmp_path / "over.gdf"
        main(["synthesize", str(path), "--with-overflow"])
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert "data.saturation" in out

    def test_dig_bounds_fixture(self, clean_file, capsys):
        blob = bytearray(clean_file.read_bytes())
        ns = 3
        # one byte turns dig_max of channel 0 into a huge float64
        blob[256 + 128 * ns + 6] = 0xF0
        bad = clean_file.with_name("bad_range.gdf")
        bad.write_bytes(bytes(blob))
        for flags in ((), ("--lenient",)):
            code, out, _ = run(capsys, "validate", bad, *flags)
            assert code == 2
            assert out.count("channel.dig_bounds_exceed_type") == 1

    def test_event_pos_zero_fixture(self, clean_file, capsys):
        f, _ = read_file(clean_file)
        etp = 256 * f.header.header_blocks \
            + f.header.n_records * f.layout().bytes_per_record
        blob = bytearray(clean_file.read_bytes())
        # zero the low byte of the first event position
        struct.pack_into("<I", blob, etp + 8, 0)
        bad = clean_file.with_name("bad_pos.gdf")
        bad.write_bytes(bytes(blob))
        code, out, _ = run(capsys, "validate", bad)
        assert code == 2
        assert "event.pos_zero" in out

    def test_tlv_overrun_fixture(self, tmp_path, capsys):
        src = tmp_path / "tlv.gdf"
        main(["synthesize", str(src), "--seed", "3"])
        f, _ = read_file(src)
        # append an optional-header block whose element overruns the region
        from gdfkit import tlv as tlvmod
        from gdfkit.fileio import GdfFile, write_file
        from dataclasses import replace
        g = GdfFile(header=replace(f.header, header_blocks=f.header.header_blocks + 1),
                    channels=f.channels, tlv=[tlvmod.free_tlv(b"xy")],
                    signals=f.signals, events=f.events)
        bad = tmp_path / "bad_tlv.gdf"
        write_file(g, bad)
        blob = bytearray(bad.read_bytes())
        tlv_start = 256 * (f.header.ns + 1)
        blob[tlv_start + 3] = 0xFF  # length high byte: ~16M, overruns the region
        bad.write_bytes(bytes(blob))
        code, out, _ = run(capsys, "validate", bad)
        assert code == 2
        assert "tlv.length_overrun" in out

    def test_truncated_event_table_fixture(self, clean_file, capsys):
        blob = clean_file.read_bytes()
        bad = clean_file.with_name("cut_events.gdf")
        bad.write_bytes(blob[:-5])  # cut into the event table
        code, out, _ = run(capsys, "validate", bad)
        assert code == 2
        assert "event.truncated" in out

    def test_unreadable_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.gdf"
        path.write_bytes(b"not a biosignal file" + bytes(300))
        code, out, err = run(capsys, "validate", path)
        assert code == 2
        assert "header.magic" in out


class TestInspect:
    def test_machine_format(self, clean_file, capsys):
        code, out, _ = run(capsys, "inspect", clean_file, "--format", "machine")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert lines["file.version"] == "GDF 2.20"
        assert lines["file.ns"] == "3"
        assert lines["channel.0.unit"] == "uV"
        assert lines["channel.0.unit_code"] == "4275"
        assert lines["channel.0.impedance_ohm"] == "5000"
        assert lines["events.mode"] == "3"
        assert "event.0.description" in lines

    def test_text_format(self, clean_file, capsys):
        code, out, _ = run(capsys, "inspect", clean_file)
        assert code == 0
        assert "GDF 2.20" in out

    def test_device_ident_rendered(self, tmp_path, capsys):
        from gdfkit import tlv as tlvmod
        from gdfkit.fileio import write_file
        from gdfkit.synth import SynthSpec, synthesize
        f = synthesize(SynthSpec(
            channels=1, events=0,
            tlv=(tlvmod.device_ident_tlv("Acme", "M1", "2.0", "SN7"),)))
        path = tmp_path / "dev.gdf"
        write_file(f, path)
        code, out, _ = run(capsys, "inspect", path, "--format", "machine")
        assert code == 0
        assert "manufacturer=Acme|model=M1|version=2.0|serial=SN7" in out

    def test_malformed_event_descriptions_rendered(self, tmp_path, capsys):
        from gdfkit.fileio import write_file
        from gdfkit.synth import SynthSpec, synthesize
        from gdfkit.tlv import TlvElement
        f = synthesize(SynthSpec(channels=1, events=2,
                                 tlv=(TlvElement(1, b"left\x00right"),)))
        path = tmp_path / "tag1.gdf"
        write_file(f, path)
        code, out, _ = run(capsys, "inspect", path, "--format", "machine")
        assert code == 0
        assert "<malformed, 10 bytes>" in out
        assert "event.0.description" in out

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.gdf"
        path.write_bytes(bytes(256))
        code, out, err = run(capsys, "inspect", path)
        assert code == 2
        assert err

    def test_event_only_file(self, tmp_path, capsys):
        import numpy as np
        from gdfkit.events import EventTable
        from gdfkit.fileio import GdfFile, write_file
        from gdfkit.header import FixedHeader
        events = EventTable(1, 100.0, np.array([1, 2], "<u4"),
                            np.array([0x0300, 0x8300], "<u2"))
        path = tmp_path / "events.gdf"
        write_file(GdfFile(header=FixedHeader(n_records=0), events=events), path)
        code, out, _ = run(capsys, "inspect", path, "--format", "machine")
        assert code == 0
        assert "events.count=2" in out
        assert "end of: Trigger" in out


    def test_dates_outside_datetime_range(self, clean_file, capsys):
        blob = bytearray(clean_file.read_bytes())
        struct.pack_into("<QQ", blob, 168, 0x37BB4A00000000, 2**64 - 1)
        clean_file.write_bytes(blob)
        code, out, _ = run(capsys, "inspect", clean_file, "--format", "machine")
        assert code == 0
        lines = dict(line.split("=", 1) for line in out.splitlines())
        assert lines["recording.start_time"] == "day=3652426+0/2^32"
        assert lines["patient.birthday"] == "day=4294967295+4294967295/2^32"


def _section_ends(f: GdfFile, size: int) -> list[int]:
    """Where header 1, header 2, header 3, the data and the events end."""
    h = f.header
    data_end = 256 * h.header_blocks + h.n_records * f.layout().bytes_per_record
    return [256, 256 * (h.ns + 1), 256 * h.header_blocks, data_end, size]


def test_cut_file_exit_codes(tmp_path, capsys, monkeypatch):
    """Every command on a file cut at, or a byte either side of, a section
    boundary exits 0, 1 or 2, with no traceback and no numpy warning. The
    commands that print no sample (``inspect`` and ``convert --to text``),
    which decode no record, give the stdout, stderr, exit code and output
    file they give on the whole file's model."""
    blob = to_bytes(synthesize(dict(corpus_specs())["tlv_full"]))
    f, _ = read_file(blob)
    cut, dump = tmp_path / "cut.gdf", tmp_path / "dump.txt"

    def outcome(argv, mode):
        dump.unlink(missing_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, mode)
        return code, out, err, dump.read_bytes() if dump.exists() else None
    for end in sorted({e + d for e in _section_ends(f, len(blob)) for d in (-1, 0, 1)}):
        cut.write_bytes(blob[:end])
        for argv in (["inspect", cut], ["inspect", cut, "--format", "machine"],
                     ["validate", cut], ["convert", cut, dump, "--to", "text"]):
            for mode in ("--strict", "--lenient"):
                got = outcome(argv, mode)
                code, err = got[0], got[2]
                assert code in (0, 1, 2) and "Traceback" not in err, (end, argv, mode)
                if argv[0] != "validate":  # the oracle: read_file's model of the file
                    with monkeypatch.context() as m:
                        m.setattr(cli, "read_window", lambda *args, **kwargs: read_file(
                            cut, lenient=mode == "--lenient"))
                        assert got == outcome(argv, mode), (end, argv, mode)


@pytest.mark.parametrize("argv, files, names", [
    (["convert", "in.csv", "out.gdf"],
     {"in.csv": "a [uV] @1Hz\n1\n2\n", "in.events.csv": "pos,typ\nabc,0x0300\n"},
     "'abc'"),
    (["convert", "in.csv", "out.gdf"],
     {"in.csv": "a [uV] @1Hz\n1\n2\n", "in.events.csv": "pos,typ\n-1,0x0300\n"},
     "'pos' cannot hold -1"),
    (["convert", "in.csv", "out.gdf"],
     {"in.csv": "a [uV] @1Hz\n1\n2\n", "in.events.csv": "pos,typ\n4294967296,0x0300\n"},
     "'pos' cannot hold 4294967296"),
    (["convert", "in.csv", "out.gdf"],
     {"in.csv": "a [uV] @1Hz\n1\n2\n", "in.events.csv": "pos,typ\n1,0x10000\n"},
     "'typ' cannot hold 65536"),
    (["convert", "in.csv", "out.gdf"], {"in.csv": "a [uV] @1Hz\n1\nx\n"}, "column 'a'"),
    (["convert", "in.csv", "out.gdf"], {"in.csv": "a [uV] @0Hz\n1\n"}, "@0Hz"),
    (["convert", "in.csv", "out.gdf"], {"in.csv": "a [uV] @abcHz\n1\n"}, "@abcHz"),
    (["synthesize", "out.gdf", "--duration", "abc"], {}, "--duration: 'abc'"),
    # a numerator or denominator beyond the 32-bit duration fields
    (["convert", "in.csv", "out.gdf"], {"in.csv": "a [uV] @1e-5000Hz\n1\n2\n"}, "'1e-5000'"),
    (["convert", "in.csv", "out.gdf"], {"in.csv": "a [uV] @1e5000Hz\n1\n2\n"}, "'1e5000'"),
    (["convert", "in.csv", "out.gdf"], {"in.csv": "a [uV] @4294967296Hz\n1\n2\n"},
     "'4294967296'"),
    (["synthesize", "out.gdf", "--duration", "1e5000"], {}, "--duration: '1e5000'"),
    (["synthesize", "out.gdf", "--duration", "1e-5000"], {}, "--duration: '1e-5000'"),
], ids=["sidecar-pos", "sidecar-pos-negative", "sidecar-pos-wide", "sidecar-typ-wide",
        "csv-cell", "zero-rate", "bad-rate", "duration", "rate-tiny", "rate-huge",
        "rate-33-bits", "duration-huge", "duration-tiny"])
def test_bad_input_exits_2(tmp_path, capsys, monkeypatch, argv, files, names):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        Path(name).write_text(text)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and names in err


# --- CLI inputs fuzzed: every call exits 0, 1 or 2 ---------------------------

_NUMBER_TEXTS = st.one_of(
    st.integers(-3, 10**10).map(str),
    st.builds("{}e{}".format, st.sampled_from(["1", "2.5", "-1", "0", ".5"]),
              st.integers(-5000, 5000)),
    st.builds("{}/{}".format, st.integers(-1, 10**10), st.integers(0, 10**10)),
    st.text(st.sampled_from("0123456789.e-+/_ "), max_size=6),
)
# up to 5000 digits: more than Python converts between int and text
_DIGIT_TEXTS = st.builds("{}{}".format, st.sampled_from(["", "-", "+", "0x"]),
                         st.integers(1, 5000).map("9".__mul__))
# each drawn text is as often plain as mutated, so that some files convert
_CSV_HEADERS = st.builds(
    str.format, st.sampled_from(["{} [{}] @{}Hz"] * 4 + ["{} [{}] @{}", "{} [{}] {}Hz",
                                                          "{} {} @{}Hz", "{} [{}]] @{}Hz"]),
    st.sampled_from(["a", "b c"]) | st.text(st.sampled_from("a ,[]@"), max_size=4),
    st.sampled_from(["uV", "", "mV", "K", "[", "]"]),
    st.sampled_from(["1", "2", "0.5"]) | _NUMBER_TEXTS)
_CSV_CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1", "-2.5", "1e308", "x"]),
    st.integers(-2**64, 2**64).map(str), st.floats().map(repr), _DIGIT_TEXTS, _NUMBER_TEXTS)
_EVENT_CELLS = st.sampled_from(["1", "2", "0x0300", "0x8300", "0x7fff"]) | st.one_of(
    st.sampled_from(["", "pos", "abc"]), _DIGIT_TEXTS, _NUMBER_TEXTS)


def _csv_text(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


_CLI_CASES = st.one_of(
    st.builds(lambda headers, rows, sidecar, type_, raw: (
        ["convert", "in.csv", "out.gdf", "--type", type_] + ["--raw"] * raw,
        {"in.csv": _csv_text([headers, *rows])}
        | ({} if sidecar is None else {"in.events.csv": _csv_text(sidecar)})),
        st.lists(_CSV_HEADERS, min_size=1, max_size=3),
        st.lists(st.lists(_CSV_CELLS, max_size=3), min_size=1, max_size=5),
        st.none() | st.lists(st.lists(_EVENT_CELLS, min_size=2, max_size=4), max_size=3),
        st.sampled_from([t.name.lower() for t in GdfType]), st.booleans()),
    st.builds(lambda duration: (["synthesize", "out.gdf", f"--duration={duration}",
                                 "--channels", "2", "--records", "2", "--spr", "2"], {}),
              _NUMBER_TEXTS),
)


@settings(max_examples=150, deadline=None)
@given(_CLI_CASES)
@example((["convert", "in.csv", "out.gdf"], {"in.csv": "a [uV] @1e-5000Hz\n1\n2\n"}))
@example((["convert", "in.csv", "out.gdf"], {"in.csv": "a [uV] @1e5000Hz\n1\n2\n"}))
@example((["synthesize", "out.gdf", "--duration=1e5000"], {}))
@example((["synthesize", "out.gdf", "--duration=1e-5000"], {}))
def test_cli_inputs_exit_0_1_or_2(case):
    """Mutated CSVs and event sidecars through ``convert`` with every
    ``--type``, and rational texts through ``synthesize --duration``: each
    call returns 0, 1 or 2, lets no exception out and raises no warning."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [str(Path(tmp, arg)) if arg in ("in.csv", "out.gdf") else arg for arg in argv]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 1, 2), err.getvalue()


class TestConvertCsv:
    def test_round_trip_quantization(self, tmp_path, capsys):
        src = tmp_path / "src.gdf"
        main(["synthesize", str(src), "--seed", "11", "--channels", "2",
              "--events", "2"])
        out_csv = tmp_path / "sig.csv"
        assert main(["convert", str(src), str(out_csv)]) == 0
        back = tmp_path / "back.gdf"
        assert main(["convert", str(out_csv), str(back)]) == 0

        f0, _ = read_file(src)
        f1, _ = read_file(back)
        for i in (0, 1):
            original = f0.channels[i].cal.scale_array(f0.signals.samples[i])
            rebuilt = f1.channels[i].cal.scale_array(f1.signals.samples[i])
            step = (f1.channels[i].cal.phys_max - f1.channels[i].cal.phys_min) \
                / (f1.channels[i].cal.dig_max - f1.channels[i].cal.dig_min)
            assert rebuilt.shape == original.shape
            assert np.nanmax(np.abs(rebuilt - original)) <= step

    def test_invalid_cells_survive(self, tmp_path, capsys):
        src = tmp_path / "over.gdf"
        main(["synthesize", str(src), "--with-overflow", "--channels", "2",
              "--events", "0"])
        out_csv = tmp_path / "sig.csv"
        main(["convert", str(src), str(out_csv)])
        rows = read_csv(out_csv)
        assert any("" in row for row in rows[1:])  # invalid cells are empty
        back = tmp_path / "back.gdf"
        main(["convert", str(out_csv), str(back)])
        f0, _ = read_file(src)
        f1, _ = read_file(back)
        for i in range(2):
            v0 = f0.channels[i].cal.scale_array(f0.signals.samples[i])
            v1 = f1.channels[i].cal.scale_array(f1.signals.samples[i])
            assert np.array_equal(np.isnan(v0), np.isnan(v1))

    def test_events_sidecar(self, tmp_path, capsys):
        src = tmp_path / "src.gdf"
        main(["synthesize", str(src), "--seed", "4", "--events", "3"])
        out_csv = tmp_path / "sig.csv"
        main(["convert", str(src), str(out_csv)])
        sidecar = tmp_path / "sig.events.csv"
        assert sidecar.exists()
        rows = read_csv(sidecar)
        assert rows[0] == ["pos", "typ", "chn", "dur", "description"]
        f, _ = read_file(src)
        assert len(rows) - 1 == f.events.n_events
        # descriptions come from the embedded registry
        assert any("0x" in row[1] for row in rows[1:])

        back = tmp_path / "back.gdf"
        main(["convert", str(out_csv), str(back)])
        f1, _ = read_file(back)
        assert f1.events is not None
        assert f1.events.pos.tolist() == f.events.pos.tolist()
        assert f1.events.typ.tolist() == f.events.typ.tolist()

    def test_float32_signalling_nan_exported_blank(self, tmp_path, capsys):
        """The scaled export of a float32 signalling NaN raised a RuntimeWarning."""
        ch = ChannelInfo(label="f", samples_per_record=3, gdf_type=GdfType.FLOAT32,
                         cal=Calibration(-1.0, 1.0, -2.0, 2.0))
        raw = np.array([0x7F800001, 0x3F800000, 0x7FC00000], np.uint32).view(np.float32)
        src, out_csv = tmp_path / "snan.gdf", tmp_path / "sig.csv"
        write_file(GdfFile(FixedHeader(n_records=1, ns=1), [ch],
                           signals=SignalBlock([raw], 1)), src)
        assert run(capsys, "convert", src, out_csv)[0] == 0
        assert read_csv(out_csv)[1:] == [[""], ["0.5"], [""]]

    def test_sparse_channels_noted(self, tmp_path, capsys):
        src = tmp_path / "sparse.gdf"
        main(["synthesize", str(src), "--with-sparse", "--channels", "3"])
        out_csv = tmp_path / "sig.csv"
        code, out, err = run(capsys, "convert", src, out_csv)
        assert code == 0
        assert "sidecar" in err
        header = read_csv(out_csv)[0]
        assert len(header) == 2  # the sparse channel has no column

    def test_text_dump(self, tmp_path, clean_file):
        out_txt = tmp_path / "dump.txt"
        assert main(["convert", str(clean_file), str(out_txt)]) == 0
        content = out_txt.read_text()
        assert "file.version=GDF 2.20" in content

    def test_text_dump_equals_machine_inspect(self, tmp_path, clean_file, capsys):
        out_txt = tmp_path / "dump.txt"
        assert main(["convert", str(clean_file), str(out_txt), "--to", "text"]) == 0
        code, out, _ = run(capsys, "inspect", clean_file, "--format", "machine")
        assert out_txt.read_text() == out

    def test_unknown_extension_rejected(self, tmp_path, clean_file, capsys):
        code, out, err = run(capsys, "convert", clean_file, tmp_path / "x.bin")
        assert code == 2

    def test_raw_mode(self, tmp_path):
        src = tmp_path / "src.gdf"
        main(["synthesize", str(src), "--seed", "2", "--channels", "1",
              "--events", "0"])
        out_csv = tmp_path / "raw.csv"
        assert main(["convert", str(src), str(out_csv), "--raw"]) == 0
        rows = read_csv(out_csv)
        f, _ = read_file(src)
        assert int(rows[1][0]) == int(f.signals.samples[0][0])

    @staticmethod
    def _import(tmp_path, capsys, text, *flags):
        """``csv -> gdf`` with numpy warnings as errors: the exit code, the
        error text and the model a strict read of the output gives."""
        src, out = tmp_path / "in.csv", tmp_path / "out.gdf"
        src.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "convert", src, out, *flags)
            return code, err, read_file(out)[0] if code == 0 else None

    @pytest.mark.parametrize("type_", ["int16", "int64", "float64"])
    def test_constant_column_beyond_float_precision(self, tmp_path, capsys, type_):
        """1e17 + 1.0 == 1e17: the range is one float64 step wide."""
        code, err, f = self._import(tmp_path, capsys, "a [uV] @1Hz\n1e17\n1e17\n",
                                    "--type", type_)
        assert (code, err) == (0, "")
        assert f.channels[0].cal.scale_array(f.signals.samples[0]).tolist() == [1e17, 1e17]

    @pytest.mark.parametrize("cells", ["inf", "inf\n1", "1\n-inf"])
    @pytest.mark.parametrize("flags", [("--type", "int16"), ("--type", "float64"), ("--raw",)])
    def test_infinite_cell_refused(self, tmp_path, capsys, cells, flags):
        code, err, _ = self._import(tmp_path, capsys, f"a [uV] @1Hz\n{cells}\n", *flags)
        assert code == 2 and err.startswith("error: column 'a': an infinite value")

    @pytest.mark.parametrize("cells, type_, message", [
        ("1e308\n-1e308", "int16", "values -1e+308..1e+308 span more than float64 holds"),
        ("1.7976931348623157e308", "float64", "span more than float64 holds"),
        ("1e300\n1", "float32", "column 'a' sample 0 cannot hold 1e+300 (float32)")])
    def test_column_beyond_its_range_refused(self, tmp_path, capsys, cells, type_, message):
        code, err, _ = self._import(tmp_path, capsys, f"a [uV] @1Hz\n{cells}\n",
                                    "--type", type_)
        assert code == 2 and message in err

    @pytest.mark.parametrize("type_", ["int64", "uint64"])
    @pytest.mark.parametrize("middle", ["7", ""])
    def test_64_bit_targets_read_back(self, tmp_path, capsys, type_, middle):
        """The digital bounds are the float64s nearest the type range inside
        it, and an empty cell writes the invalid marker without a warning."""
        text = f"a [uV] @1Hz\n1\n{middle}\n3\n"
        code, _, f = self._import(tmp_path, capsys, text, "--type", type_)
        assert code == 0
        np.testing.assert_allclose(f.channels[0].cal.scale_array(f.signals.samples[0]),
                                   [1.0, float(middle or "nan"), 3.0], rtol=1e-12)
        code, _, f = self._import(tmp_path, capsys, text, "--type", type_, "--raw")
        assert code == 0
        marker = type_info(GdfType[type_.upper()]).max
        assert f.signals.samples[0].tolist() == [1, int(middle) if middle else marker, 3]

    @pytest.mark.parametrize("cells, type_", [
        ("0.1\n0.3", "float32"),  # both round up in float32: 0.3 read back as NaN
        ("-0.008657830405882161\n-0.00046558507337761835", "float64"),  # lo + (hi - lo) < hi
        ("-0.008657830405882161\n-0.00046558507337761835", "float32")])
    def test_float_target_keeps_its_extremes(self, tmp_path, capsys, cells, type_):
        code, err, f = self._import(tmp_path, capsys, f"a [uV] @1Hz\n{cells}\n", "--type", type_)
        assert (code, err) == (0, "")
        stored = np.array(cells.split(), GdfType[type_.upper()].name.lower()).astype(float)
        assert f.channels[0].cal.scale_array(f.signals.samples[0]).tolist() == stored.tolist()

    @pytest.mark.parametrize("type_, cells, stored", [
        ("int64", ["9007199254740993", "-9007199254740995", " 2e3 ", "-9223372036854775808"],
         [9007199254740993, -9007199254740995, 2000, -2**63]),
        ("int64", ["9223372036854774784", "9223372036854774783.5", "9223372036854774783"],
         [2**63 - 1024, 2**63 - 1024, 2**63 - 1025]),
        ("uint64", ["18446744073709549568", "9007199254740993.5", "18446744073709549567"],
         [2**64 - 2048, 9007199254740994, 2**64 - 2049])])
    def test_64_bit_raw_cells_read_exactly(self, tmp_path, capsys, type_, cells, stored):
        """float64 rounds an integer beyond 2**53; the raw cells are read
        from their text, rounding a fraction half to even."""
        text = "a [uV] @1Hz\n" + "\n".join(cells) + "\n"
        code, err, f = self._import(tmp_path, capsys, text, "--type", type_, "--raw")
        assert (code, err) == (0, "")
        assert f.signals.samples[0].tolist() == stored

    @pytest.mark.parametrize("type_, cell", [
        ("int64", "9223372036854774785"), ("int64", "-9223372036854775809"),
        ("uint64", "18446744073709549569"), ("uint64", "-1")])
    def test_64_bit_raw_cells_beyond_the_range_refused(self, tmp_path, capsys, type_, cell):
        """Beyond the digital range, which float64 rounding of the cell hid."""
        code, err, _ = self._import(tmp_path, capsys, f"a [uV] @1Hz\n{cell}\n",
                                    "--type", type_, "--raw")
        assert code == 2 and "raw values exceed the" in err


# --- the CSV converter a cell at a time: the oracle of the column code -------

def _ref_column_header(ch: ChannelInfo, rate: float) -> str:
    return f"{ch.label} [{unit_symbol(ch.phys_dim)}] @{rate:g}Hz"


def _ref_convert_gdf_to_csv(f: GdfFile, args) -> int:
    h = f.header
    exported, skipped = [], []
    for i, ch in enumerate(f.channels):
        if ch.is_sparse or type_info(ch.gdf_type).kind == "opaque":
            skipped.append(ch.label)
        else:
            exported.append(i)
    columns = []
    for i in exported:
        ch = f.channels[i]
        raw = f.signals.samples[i]
        if args.scaled:
            values = ch.cal.scale_array(raw)
            cells = ["" if np.isnan(v) else repr(float(v)) for v in values]
        else:
            kind = type_info(ch.gdf_type).kind
            cells = [repr(float(v)) if kind == "float" else str(int(v)) for v in raw]
        columns.append(cells)
    n_rows = max((len(c) for c in columns), default=0)
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            _ref_column_header(f.channels[i],
                               sampling_rate(f.channels[i].samples_per_record,
                                             h.duration_num, h.duration_den))
            for i in exported])
        for row in range(n_rows):
            writer.writerow([c[row] if row < len(c) else "" for c in columns])
    registry = cli._registry_for(f)
    sidecar = cli._sidecar_path(args.output)
    if f.events is not None:
        with open(sidecar, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["pos", "typ", "chn", "dur", "description"])
            t = f.events
            typ = t.typ.tolist()
            blank = [""] * len(typ)
            chn_dur = (t.chn.tolist(), t.dur.tolist()) if t.mode == 3 else (blank, blank)
            writer.writerows(zip(t.pos.tolist(), [f"0x{c:04X}" for c in typ], *chn_dur,
                                 map(registry.describe, typ)))
        print(f"events written to {sidecar}", file=sys.stderr)
    if skipped:
        print("note: sparse/opaque channels exported only through the event "
              f"sidecar: {', '.join(skipped)}", file=sys.stderr)
    return 0


def _ref_convert_csv_to_gdf(args) -> int:
    gdf_type = cli._parse_type(args.type)
    if type_info(gdf_type).kind == "opaque":
        raise GdfError("csv->gdf cannot target the opaque 16-byte float type")
    with open(args.input, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise GdfError("input CSV has no header row")
    if len(rows) < 2:
        raise GdfError("input CSV has no sample rows")
    headers = [cli._parse_column_header(cell) for cell in rows[0]]
    if not headers:
        raise GdfError("input CSV declares no channel columns")
    columns: list[list[str]] = [[] for _ in headers]
    for row in rows[1:]:
        for i in range(len(headers)):
            columns[i].append(row[i] if i < len(row) else "")
    n_rows = len(rows) - 1
    max_rate = max(rate for _, _, rate in headers)
    duration = Fraction(n_rows, 1) / max_rate

    channels, arrays = [], []
    for (label, unit, rate), cells in zip(headers, columns):
        expected = duration * rate
        if expected.denominator != 1:
            raise GdfError(f"column {label!r}: rate {rate} Hz does not produce a "
                           f"whole sample count over {duration} s")
        expected = int(expected)
        if any(c.strip() for c in cells[expected:]):
            raise GdfError(f"column {label!r}: values beyond the {expected} "
                           "samples its rate allows")
        try:
            values = np.array([np.nan if not c.strip() else float(c)
                               for c in cells[:expected]])
        except ValueError as exc:
            raise GdfError(f"column {label!r}: {exc}") from None
        channel, raw = cli._column_to_channel(label, unit, values, gdf_type, args.scaled,
                                              cells[:expected])
        channels.append(channel)
        arrays.append(raw)

    header = FixedHeader(
        n_records=1,
        duration_num=duration.numerator,
        duration_den=duration.denominator,
    )
    events = cli._read_sidecar(args.input, channels, header)
    f = GdfFile(header=header, channels=channels,
                signals=SignalBlock(arrays, 1), events=events)
    write_file(f, args.output)
    return 0


_CONVERTERS = {"column code": (cli._convert_gdf_to_csv, cli._convert_csv_to_gdf),
               "oracle": (_ref_convert_gdf_to_csv, _ref_convert_csv_to_gdf)}


def _step(convert, args, workdir: Path):
    """What one conversion leaves: its messages, its numpy warnings and
    every file in ``workdir``, or the error it raised. The import shares
    ``_column_to_channel`` with the oracle, so its warnings are compared
    here; the tests of ``TestConvertCsv`` forbid them."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stderr(err):
                convert(*args)
        except GdfError as exc:
            return type(exc).__name__, str(exc), [str(w.message) for w in caught]
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    return (err.getvalue().replace(str(workdir), "<dir>"), files,
            [str(w.message) for w in caught])


def _export_import(converters, f: GdfFile | None, scaled: bool, csv_text: str | None,
                   types):
    """Export ``f`` (or take ``csv_text`` as the export) and import the CSV
    once per target type, each step's outcome in a list."""
    export, import_ = converters
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        csv_path = work / "sig.csv"
        if csv_text is None:
            outcomes = [_step(export, (f, argparse.Namespace(output=str(csv_path),
                                                             scaled=scaled)), work)]
        else:
            csv_path.write_text(csv_text, encoding="utf-8", newline="")
            outcomes = []
        for gdf_type in types:
            back = work / f"back.{gdf_type}.gdf"
            outcomes.append(_step(import_, (argparse.Namespace(
                input=str(csv_path), output=str(back), scaled=scaled, type=gdf_type),),
                work))
    return outcomes


def _assert_same_as_oracle(f: GdfFile | None = None, csv_text: str | None = None,
                           types=("int16",)):
    """The CSV, the sidecar, the re-imported GDF, the messages and the
    errors equal the oracle's, scaled and raw."""
    for scaled in (True, False):
        got, want = (_export_import(c, f, scaled, csv_text, types)
                     for c in _CONVERTERS.values())
        assert got == want, f"scaled={scaled}"


@pytest.mark.parametrize("name", [name for name, _ in corpus_specs()])
def test_csv_matches_oracle_on_corpus(name):
    f, _ = read_file(to_bytes(synthesize(dict(corpus_specs())[name])))
    _assert_same_as_oracle(f, types=("int16", "int64", "float32"))


_SAMPLE_TYPES = (GdfType.INT8, GdfType.UINT8, GdfType.INT16, GdfType.INT24, GdfType.UINT32,
                 GdfType.INT64, GdfType.UINT64, GdfType.FLOAT32, GdfType.FLOAT64)


@st.composite
def _csv_models(draw):
    """Channels of mixed rates and types (ragged columns), labels with
    commas and quotes, integers up to the int64/uint64 extremes, float32
    signalling NaNs, and digital bounds that leave some scaled cells blank."""
    n_records = draw(st.integers(1, 3))
    channels, samples = [], []
    for _ in range(draw(st.integers(1, 4))):
        gdf_type = draw(st.sampled_from(_SAMPLE_TYPES))
        info = type_info(gdf_type)
        spr = draw(st.integers(1, 4))
        n = spr * n_records
        if info.kind == "float":
            values = st.one_of(st.floats(width=32 if info.dtype.itemsize == 4 else 64),
                               st.sampled_from([0.1, 1e-5]))
            raw = np.array(draw(st.lists(values, min_size=n, max_size=n)), info.dtype)
            if gdf_type == GdfType.FLOAT32:  # signalling NaNs, set by their bits
                raw.view(np.uint32)[draw(st.lists(st.integers(0, n - 1)))] = 0x7F800001
        else:
            lo, hi = int(info.min), int(info.max)
            values = st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi, 0]))
            raw = np.array(draw(st.lists(values, min_size=n, max_size=n)), info.dtype)
        dig_min = draw(st.integers(0, 50))
        cal = Calibration(draw(st.floats(-1e3, 0)), draw(st.floats(1, 1e3)),
                          dig_min, dig_min + draw(st.integers(1, 77)))
        label = draw(st.text(st.sampled_from('ab ,"\''), max_size=8))
        channels.append(ChannelInfo(label=label, cal=cal, samples_per_record=spr,
                                    gdf_type=gdf_type))
        samples.append(raw)
    model = GdfFile(FixedHeader(n_records=n_records), channels,
                    signals=SignalBlock(samples, n_records))
    return read_file(to_bytes(model))[0]


@settings(max_examples=60, deadline=None)
@given(_csv_models())
def test_csv_matches_oracle_on_drawn_models(f):
    _assert_same_as_oracle(f, types=("int16", "int64", "float32"))


def test_single_column_with_blank_cells_matches_oracle():
    ch = ChannelInfo(label="a,\"b", samples_per_record=4, gdf_type=GdfType.INT16,
                     cal=Calibration(-1.0, 1.0, -10.0, 10.0))
    raw = np.array([11, 0, -11, 10], np.int16)
    f = GdfFile(FixedHeader(n_records=1), [ch], signals=SignalBlock([raw], 1))
    _assert_same_as_oracle(read_file(to_bytes(f))[0])


_CELLS = st.sampled_from(["", " ", "1", "-2.5", " 3 ", "nan", "1e3", "x", "inf"])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3),
       st.lists(st.lists(_CELLS, max_size=4), max_size=9))
def test_csv_import_matches_oracle_on_ragged_text(rates, rows):
    """Short rows, extra cells, blank lines and cells that do not parse."""
    header = ",".join(f"c{i} [uV] @{rate}Hz" for i, rate in enumerate(rates))
    text = "".join(f"{','.join(row)}\n" for row in [[header], *rows])
    _assert_same_as_oracle(csv_text=text, types=("int16", "float32"))


# --- the inspect dump a pair at a time: the oracle of the column renderer ----

def _ref_inspect_lines(f: GdfFile) -> list[tuple[str, str]]:
    h, p, r = f.header, f.header.patient, f.header.recording
    code, name, classification = p.pid_subfields()
    out = [
        ("file.version", h.version),
        ("file.header_blocks", str(h.header_blocks)),
        ("file.n_records", str(h.n_records)),
        ("file.record_duration_s", f"{h.duration_num}/{h.duration_den}"),
        ("file.ns", str(h.ns)),
        ("recording.rid", r.rid),
        ("recording.start_time", r.start_time.isoformat()),
        ("recording.equipment_id", str(r.equipment_id)),
        ("patient.pid", p.pid),
        ("patient.id_code", code),
        ("patient.name", name),
        ("patient.classification", classification),
        ("patient.gender", p.gender.name.lower()),
        ("patient.handedness", p.handedness.name.lower()),
        ("patient.visual_impairment", p.visual_impairment.name.lower()),
        ("patient.heart_impairment", p.heart_impairment.name.lower()),
        ("patient.smoking", p.smoking.name.lower()),
        ("patient.alcohol_abuse", p.alcohol_abuse.name.lower()),
        ("patient.drug_abuse", p.drug_abuse.name.lower()),
        ("patient.medication", p.medication.name.lower()),
        ("patient.weight_kg", cli._byte_sentinel(p.weight_kg, ">254")),
        ("patient.height_cm", cli._byte_sentinel(p.height_cm, ">254")),
        ("patient.birthday", p.birthday.isoformat()),
        ("patient.icd", p.icd_code),
        ("patient.headsize_mm", ",".join(map(str, p.headsize_mm))),
    ]
    if r.location is not None:
        out += [
            ("recording.location.latitude_deg", f"{r.location.latitude_degrees:.6f}"),
            ("recording.location.longitude_deg", f"{r.location.longitude_degrees:.6f}"),
            ("recording.location.altitude_cm", str(r.location.altitude_cm)),
        ]
    out += [
        ("recording.reference_xyz", ",".join(f"{v:g}" for v in r.reference_position)),
        ("recording.ground_xyz", ",".join(f"{v:g}" for v in r.ground_position)),
    ]
    for i, ch in enumerate(f.channels):
        key = f"channel.{i}"
        out += [
            (f"{key}.label", ch.label),
            (f"{key}.transducer", ch.transducer),
            (f"{key}.unit", unit_symbol(ch.phys_dim)),
            (f"{key}.unit_code", str(ch.phys_dim)),
            (f"{key}.type", type_info(ch.gdf_type).name),
            (f"{key}.samples_per_record", str(ch.samples_per_record)),
            (f"{key}.rate_hz",
             f"{sampling_rate(ch.samples_per_record, h.duration_num, h.duration_den):g}"),
            (f"{key}.phys_range", f"{ch.cal.phys_min:g}..{ch.cal.phys_max:g}"),
            (f"{key}.dig_range", f"{ch.cal.dig_min:g}..{ch.cal.dig_max:g}"),
            (f"{key}.lowpass_hz", "unknown" if ch.lowpass_hz is None else f"{ch.lowpass_hz:g}"),
            (f"{key}.highpass_hz", "unknown" if ch.highpass_hz is None else f"{ch.highpass_hz:g}"),
            (f"{key}.notch_hz", "unknown" if ch.notch_hz is None
             else "off" if ch.notch_hz < 0 else f"{ch.notch_hz:g}"),
            (f"{key}.position", ",".join(f"{v:g}" for v in ch.position)),
        ]
        for name, value in (("impedance_ohm", sensor_readings([ch], h.version_minor)[0][0]),
                            ("probe_frequency_hz",
                             sensor_readings([ch], h.version_minor)[1][0])):
            if value is not None:
                out.append((f"{key}.{name}", f"{value:g}"))
    for i, e in enumerate(f.tlv):
        out += [(f"tlv.{i}.tag", str(e.tag)), (f"tlv.{i}.name", e.name),
                (f"tlv.{i}.value", cli._render_tlv(e, f.ns))]
    registry = cli._registry_for(f)
    if f.events is not None:
        t = f.events
        out += [
            ("events.mode", str(t.mode)),
            ("events.count", str(t.n_events)),
            ("events.rate_hz", f"{t.sample_rate_hz:g}"),
        ]
        times = t.times_seconds().tolist() if t.sample_rate_hz > 0 else None
        chn, dur = (t.chn.tolist(), t.dur.tolist()) if t.mode == 3 else (None, None)
        for i, (pos, typ) in enumerate(zip(t.pos.tolist(), t.typ.tolist())):
            key = f"event.{i}"
            out += [(f"{key}.pos", str(pos)), (f"{key}.typ", f"0x{typ:04X}"),
                    (f"{key}.description", registry.describe(typ))]
            if times is not None:
                out.append((f"{key}.time_s", f"{times[i]:g}"))
            if chn is not None:
                out += [(f"{key}.chn", str(chn[i])), (f"{key}.dur", str(dur[i]))]
    return out


def _ref_render(f: GdfFile, machine: bool) -> str:
    lines = _ref_inspect_lines(f)
    if machine:
        return "".join([f"{key}={value}\n" for key, value in lines])
    width = max(len(key) for key, _ in lines)
    return "".join([f"{key:<{width}}  {value}\n" for key, value in lines])


def _assert_renders_as_oracle(f: GdfFile):
    for machine in (False, True):
        assert cli._render(f, machine) == _ref_render(f, machine), f"machine={machine}"


@pytest.mark.parametrize("name", [name for name, _ in corpus_specs()])
def test_inspect_matches_oracle_on_corpus(name):
    _assert_renders_as_oracle(read_file(to_bytes(synthesize(dict(corpus_specs())[name])))[0])


def test_inspect_matches_oracle_on_tiny_montage(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    (_, model), = workloads.GEOMETRIES["montage"](True).make(np.random.default_rng(7))
    _assert_renders_as_oracle(read_file(to_bytes(model))[0])


_SENSED = (4275, 4288)  # uV carries an electrode impedance, Ohm a probe frequency


def _inspect_model(version: str, ns: int, sensed: int, n_events: int | None, mode: int,
                   rate: float, seed: int, labels=(), malformed_tag1=False,
                   located=True) -> GdfFile:
    """``ns`` channels of which the first ``sensed`` carry an impedance or a
    probe frequency, so the widest optional key is not on the last row;
    ``n_events`` rows of mode ``mode`` (None: no event table). Without a
    location, whose keys are the longest of the header, the channel keys set
    the width."""
    rng = np.random.default_rng(seed)
    channels = []
    for i in range(ns):
        if i < sensed:
            phys_dim, sensor = _SENSED[i % 2], sensor_value_bytes(float(rng.integers(1, 10**6)))
        else:  # a unit with no sensor value, and the legacy "undefined" impedance byte
            phys_dim, sensor = 0, b"\xff" + bytes(19)
        channels.append(ChannelInfo(
            label=labels[i] if i < len(labels) else f"ch{i}", transducer="Ag=AgCl",
            phys_dim=phys_dim, sensor_info=sensor, samples_per_record=1 + i % 3,
            lowpass_hz=None if i % 4 else 70.0, notch_hz=-1.0 if i % 5 == 1 else None))
    elements = [tlvmod.TlvElement(1, b"left\x00right") if malformed_tag1
                else tlvmod.event_descriptions_tlv(["Left", "Right=R", "Rüst"])]
    events = None
    if n_events is not None:
        pos = np.sort(rng.integers(1, 10**6, n_events))
        typ = rng.choice([1, 2, 3, 4, 0x0300, 0x8300, 0x8001], n_events)
        events = EventTable(mode, rate, pos, typ,
                            *(() if mode == 1 else (rng.integers(0, ns + 1, n_events),
                                                    rng.integers(0, 50, n_events))))
    signals = SignalBlock([np.zeros(ch.samples_per_record, np.int16) for ch in channels], 1)
    header = FixedHeader(version=version, n_records=1, recording=RecordingInfo(
        location=Location() if located else None))
    model = GdfFile(header, channels, elements, signals, events)
    return read_file(to_bytes(model), lenient=True)[0]


@pytest.mark.parametrize("version", ["GDF 2.10", "GDF 2.20"])
@pytest.mark.parametrize("n_events, mode, rate", [
    (None, 3, 0.0), (10, 1, 250.0), (10, 3, 250.0), (10, 1, 0.0), (10, 3, 0.0), (0, 3, 0.0)])
def test_inspect_matches_oracle_on_edge_cases(version, n_events, mode, rate):
    _assert_renders_as_oracle(_inspect_model(
        version, 11, 3, n_events, mode, rate, seed=1,
        labels=["a=b", "é", "", "=", "ü=ö"], malformed_tag1=True, located=rate > 0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["GDF 2.10", "GDF 2.20"]), st.sampled_from([9, 10, 11, 99, 100, 101]),
       st.integers(0, 101), st.sampled_from([None, 0, 9, 10, 1000, 10000]),
       st.sampled_from([1, 3]), st.sampled_from([0.0, 0.5, 1000.0]), st.integers(0, 2**32),
       st.lists(st.text(st.sampled_from("ab =éü"), max_size=8), max_size=12), st.booleans(),
       st.booleans())
def test_inspect_matches_oracle_across_digit_boundaries(version, ns, sensed, n_events, mode,
                                                        rate, seed, labels, malformed, located):
    """Channel and event counts on both sides of 10, 100, 1000 and 10000 rows."""
    _assert_renders_as_oracle(_inspect_model(version, ns, min(sensed, ns), n_events, mode,
                                             rate, seed, labels, malformed, located))


class TestAnonymize:
    def test_masks_and_preserves(self, tmp_path, capsys):
        from dataclasses import replace
        from gdfkit.core import GdfTime
        from gdfkit.fileio import GdfFile, write_file
        from gdfkit.header import PatientInfo
        from gdfkit.synth import SynthSpec, synthesize
        from gdfkit import tlv as tlvmod

        elements = (tlvmod.text_tlv(6, "tech"), tlvmod.free_tlv(b"keep"))
        f = synthesize(SynthSpec(channels=2, seed=5, tlv=elements))
        f = GdfFile(header=replace(f.header, patient=PatientInfo(
                        pid="P1 Doe X", birthday=GdfTime.from_unix(0.0))),
                    channels=f.channels, tlv=list(elements),
                    signals=f.signals, events=f.events)
        src = tmp_path / "personal.gdf"
        write_file(f, src)
        dst = tmp_path / "anon.gdf"
        assert main(["anonymize", str(src), str(dst)]) == 0

        g, _ = read_file(dst)
        assert g.header.patient.pid == "P1 X X"
        assert not g.header.patient.birthday.is_set
        assert [e.tag for e in g.tlv] == [255]
        assert g.signals == f.signals
        # output re-validates cleanly
        assert main(["validate", str(dst)]) == 0
        capsys.readouterr()

    def test_signal_bytes_identical(self, tmp_path, capsys):
        src = tmp_path / "src.gdf"
        main(["synthesize", str(src), "--seed", "6"])
        dst = tmp_path / "anon.gdf"
        assert main(["anonymize", str(src), str(dst)]) == 0
        a, b = src.read_bytes(), dst.read_bytes()
        f, _ = read_file(src)
        data_start = 256 * f.header.header_blocks
        assert a[data_start:] == b[data_start:]
        assert a[88:168] == b[88:168]  # recording id + location + start time

    def test_offset_limit(self, tmp_path, clean_file, capsys):
        code, out, err = run(capsys, "anonymize", clean_file,
                             tmp_path / "x.gdf", "--birthday-offset", "400")
        assert code == 2
        assert "one year" in err


def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    src_dir = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = f"{src_dir}{os.pathsep}" + env.get("PYTHONPATH", "")
    out = tmp_path / "cli.gdf"
    proc = subprocess.run(
        [sys.executable, "-m", "gdfkit", "synthesize", str(out), "--seed", "9"],
        capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "gdfkit", "validate", str(out)],
        capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
