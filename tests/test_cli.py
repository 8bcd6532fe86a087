import csv
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gdfkit.cli import main
from gdfkit.fileio import read_file
from gdfkit.records import overflow_scan


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
