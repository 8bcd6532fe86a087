"""Command-line toolkit: inspect, validate, convert, anonymize, synthesize.

Exit codes are stable: 0 clean, 1 warnings only, 2 errors (including usage
errors and unreadable input). All commands are deterministic given the same
inputs and flags.
"""

from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import tlv as tlvmod
from .core import Calibration, GdfType, type_info
from .diagnostics import Severity
from .errors import DiagnosticError, GdfError, StructureError
from .events import EventCodeRegistry, EventTable, default_event_rate
from .fileio import GdfFile, anonymize, read_file, validate, write_file
from .header import ChannelInfo, FixedHeader, electrode_impedance, probe_frequency
from .records import SignalBlock, overflow_scan
from .synth import SynthSpec, synthesize
from .units import BASE_SYMBOLS, PREFIXES, unit_symbol

OK, WARNINGS, FAILURE = 0, 1, 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GdfError as exc:
        rule = f" [{exc.rule}]" if exc.rule else ""
        print(f"error{rule}: {exc}", file=sys.stderr)
        return FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdfkit", description="GDF 2.x biosignal file toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="dump every header field, decoded")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    _read_mode_flags(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("validate", help="run consistency checks, report rule ids")
    p.add_argument("path")
    _read_mode_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="convert gdf->csv, gdf->text or csv->gdf")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=("csv", "text", "gdf"),
                   help="target form (default: by output file extension)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--scaled", dest="scaled", action="store_true", default=True,
                       help="physical units (default)")
    group.add_argument("--raw", dest="scaled", action="store_false",
                       help="raw digital values")
    p.add_argument("--type", default="int16", help="sample type for csv->gdf")
    _read_mode_flags(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("anonymize", help="strip identifying content")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--birthday-offset", type=int, default=None, metavar="DAYS",
                   help="shift the birthday instead of zeroing it (at most one year)")
    _read_mode_flags(p)
    p.set_defaults(func=cmd_anonymize)

    p = sub.add_parser("synthesize", help="write a deterministic test file")
    p.add_argument("output")
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--type", default="int16",
                   help="sample type name or code (default int16)")
    p.add_argument("--spr", type=int, default=16, help="samples per record")
    p.add_argument("--records", type=int, default=8)
    p.add_argument("--duration", default="1", metavar="N[/D]",
                   help="record duration in seconds, as a rational")
    p.add_argument("--events", type=int, default=4)
    p.add_argument("--event-mode", type=int, choices=(1, 3), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--with-overflow", action="store_true",
                   help="include an out-of-range burst")
    p.add_argument("--with-sparse", action="store_true",
                   help="include a sparse channel fed through the event table")
    p.set_defaults(func=cmd_synthesize)
    return parser


def _read_mode_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--strict", dest="lenient", action="store_false",
                       default=False, help="fail on any error finding (default)")
    group.add_argument("--lenient", dest="lenient", action="store_true",
                       help="recover what is readable and keep going")


def _parse_type(text: str) -> GdfType:
    try:
        return GdfType(int(text))
    except ValueError:
        pass
    try:
        return GdfType[text.upper()]
    except KeyError:
        raise GdfError(f"unknown sample type {text!r}") from None


# --- inspect -----------------------------------------------------------------

def _registry_for(f: GdfFile) -> EventCodeRegistry:
    registry = EventCodeRegistry()
    for e in f.tlv:
        if e.tag == tlvmod.TAG_EVENT_DESCRIPTIONS:
            try:
                descriptions = tlvmod.decode_event_descriptions(e.value)
            except StructureError:
                continue  # inspect renders the element as malformed
            registry.add_descriptions(descriptions)
    return registry


def _byte_sentinel(value: int, over: str) -> str:
    if value == 0:
        return "unknown"
    if value == 255:
        return over
    return str(value)


def _enum_name(value) -> str:
    return value.name.lower()


def _notch_text(notch_hz: float | None) -> str:
    if notch_hz is None:
        return "unknown"
    if notch_hz < 0:
        return "off"
    return f"{notch_hz:g}"


def inspect_lines(f: GdfFile) -> list[tuple[str, str]]:
    """Flat key/value dump of everything the file declares."""
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
        ("patient.gender", _enum_name(p.gender)),
        ("patient.handedness", _enum_name(p.handedness)),
        ("patient.visual_impairment", _enum_name(p.visual_impairment)),
        ("patient.heart_impairment", _enum_name(p.heart_impairment)),
        ("patient.smoking", _enum_name(p.smoking)),
        ("patient.alcohol_abuse", _enum_name(p.alcohol_abuse)),
        ("patient.drug_abuse", _enum_name(p.drug_abuse)),
        ("patient.medication", _enum_name(p.medication)),
        ("patient.weight_kg", _byte_sentinel(p.weight_kg, ">254")),
        ("patient.height_cm", _byte_sentinel(p.height_cm, ">254")),
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
            (f"{key}.rate_hz", f"{ch.sampling_rate(h.duration_num, h.duration_den):g}"),
            (f"{key}.phys_range", f"{ch.cal.phys_min:g}..{ch.cal.phys_max:g}"),
            (f"{key}.dig_range", f"{ch.cal.dig_min:g}..{ch.cal.dig_max:g}"),
            (f"{key}.lowpass_hz", "unknown" if ch.lowpass_hz is None else f"{ch.lowpass_hz:g}"),
            (f"{key}.highpass_hz", "unknown" if ch.highpass_hz is None else f"{ch.highpass_hz:g}"),
            (f"{key}.notch_hz", _notch_text(ch.notch_hz)),
            (f"{key}.position", ",".join(f"{v:g}" for v in ch.position)),
        ]
        impedance = electrode_impedance(ch, h.version_minor)
        if impedance is not None:
            out.append((f"{key}.impedance_ohm", f"{impedance:g}"))
        frequency = probe_frequency(ch, h.version_minor)
        if frequency is not None:
            out.append((f"{key}.probe_frequency_hz", f"{frequency:g}"))
    for i, e in enumerate(f.tlv):
        out.append((f"tlv.{i}.tag", str(e.tag)))
        out.append((f"tlv.{i}.name", e.name))
        out.append((f"tlv.{i}.value", _render_tlv(e, f.ns)))
    registry = _registry_for(f)
    if f.events is not None:
        t = f.events
        out += [
            ("events.mode", str(t.mode)),
            ("events.count", str(t.n_events)),
            ("events.rate_hz", f"{t.sample_rate_hz:g}"),
        ]
        times = t.times_seconds() if t.sample_rate_hz > 0 else None
        for i in range(t.n_events):
            key = f"event.{i}"
            out += [
                (f"{key}.pos", str(int(t.pos[i]))),
                (f"{key}.typ", f"0x{int(t.typ[i]):04X}"),
                (f"{key}.description", registry.describe(int(t.typ[i]))),
            ]
            if times is not None:
                out.append((f"{key}.time_s", f"{times[i]:g}"))
            if t.mode == 3:
                out.append((f"{key}.chn", str(int(t.chn[i]))))
                out.append((f"{key}.dur", str(int(t.dur[i]))))
    return out


def _render_tlv(e: tlvmod.TlvElement, ns: int) -> str:
    try:
        decoded = tlvmod.decode_tag_value(e, ns=ns)
    except GdfError:
        return f"<malformed, {len(e.value)} bytes>"
    if isinstance(decoded, list) and decoded and isinstance(decoded[0], str):
        return "|".join(decoded)
    if isinstance(decoded, tlvmod.DeviceIdent):
        return f"manufacturer={decoded.manufacturer}|model={decoded.model}" \
               f"|version={decoded.version}|serial={decoded.serial}"
    if isinstance(decoded, bytes):
        return decoded.hex()
    if isinstance(decoded, list):
        return ";".join(",".join(f"{c:g}" for c in v) for v in decoded)
    return str(decoded)


def cmd_inspect(args) -> int:
    try:
        f, diags = read_file(args.path, lenient=args.lenient)
    except DiagnosticError as exc:
        for d in exc.diagnostics:
            print(str(d), file=sys.stderr)
        return FAILURE
    lines = inspect_lines(f)
    if args.format == "machine":
        for key, value in lines:
            print(f"{key}={value}")
    else:
        width = max(len(key) for key, _ in lines)
        for key, value in lines:
            print(f"{key:<{width}}  {value}")
    for d in diags:
        print(str(d), file=sys.stderr)
    return OK


# --- validate ----------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        f, diags = read_file(args.path, lenient=args.lenient)
    except DiagnosticError as exc:
        for d in exc.diagnostics:
            print(str(d))
        return FAILURE
    except GdfError as exc:
        rule = exc.rule or "file.unreadable"
        print(f"error: [{rule}] {exc}")
        return FAILURE
    parsed = set(diags)
    diags.extend(d for d in validate(f) if d not in parsed)
    for report in overflow_scan(f.signals, f.channels):
        if report.n_invalid:
            label = f.channels[report.channel].label
            diags.info("data.saturation",
                       f"channel {report.channel} ({label}): {report.n_invalid} of "
                       f"{report.n_samples} samples outside the digital bounds "
                       f"(ratio {report.saturation_ratio:.3f})", section="data")
    for d in diags:
        print(str(d))
    worst = diags.worst()
    if worst == Severity.ERROR:
        return FAILURE
    if worst == Severity.WARNING:
        return WARNINGS
    return OK


# --- convert -----------------------------------------------------------------

def cmd_convert(args) -> int:
    direction = args.to
    if direction is None:
        suffix = Path(args.output).suffix.lower()
        direction = {".csv": "csv", ".txt": "text", ".text": "text",
                     ".gdf": "gdf"}.get(suffix)
        if direction is None:
            raise GdfError(f"cannot infer the target form from {args.output!r}; "
                           "pass --to")
    if direction == "gdf":
        return _convert_csv_to_gdf(args)
    f, diags = read_file(args.input, lenient=args.lenient)
    for d in diags:
        print(str(d), file=sys.stderr)
    if direction == "text":
        with open(args.output, "w", encoding="utf-8") as fh:
            for key, value in inspect_lines(f):
                fh.write(f"{key}={value}\n")
        return OK
    return _convert_gdf_to_csv(f, args)


def _column_header(ch: ChannelInfo, rate: float) -> str:
    return f"{ch.label} [{unit_symbol(ch.phys_dim)}] @{rate:g}Hz"


def _convert_gdf_to_csv(f: GdfFile, args) -> int:
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
            _column_header(f.channels[i],
                           f.channels[i].sampling_rate(h.duration_num, h.duration_den))
            for i in exported])
        for row in range(n_rows):
            writer.writerow([c[row] if row < len(c) else "" for c in columns])
    registry = _registry_for(f)
    sidecar = _sidecar_path(args.output)
    if f.events is not None:
        with open(sidecar, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["pos", "typ", "chn", "dur", "description"])
            t = f.events
            for i in range(t.n_events):
                chn = int(t.chn[i]) if t.mode == 3 else ""
                dur = int(t.dur[i]) if t.mode == 3 else ""
                writer.writerow([int(t.pos[i]), f"0x{int(t.typ[i]):04X}", chn, dur,
                                 registry.describe(int(t.typ[i]))])
        print(f"events written to {sidecar}", file=sys.stderr)
    if skipped:
        print("note: sparse/opaque channels exported only through the event "
              f"sidecar: {', '.join(skipped)}", file=sys.stderr)
    return OK


def _sidecar_path(output) -> Path:
    path = Path(output)
    return path.with_name(path.stem + ".events.csv")


def _parse_column_header(text: str) -> tuple[str, str, Fraction]:
    base, sep, rate_text = text.rpartition("@")
    if not sep or not rate_text.endswith("Hz"):
        raise GdfError(f"column header {text!r} is not 'label [unit] @rateHz'")
    rate = Fraction(rate_text[:-2])
    base = base.strip()
    if not base.endswith("]") or "[" not in base:
        raise GdfError(f"column header {text!r} is missing the [unit] part")
    label, _, unit = base[:-1].rpartition("[")
    return label.strip(), unit.strip(), rate


def _unit_code_from_symbol(symbol: str) -> int:
    for base, base_symbol in BASE_SYMBOLS.items():
        for p in PREFIXES.values():
            if p.symbol + base_symbol == symbol:
                return base + p.code
    return 0


def _column_to_channel(label: str, unit: str, values: np.ndarray,
                       gdf_type: GdfType, scaled: bool) -> tuple[ChannelInfo, np.ndarray]:
    """Turn one CSV column (NaN = invalid cell) into a channel and raw samples.

    Integer targets reserve the type maximum as the invalid marker, so the
    digital range is [type min, type max - 1]; float targets use an identity
    calibration with NaN marking invalid samples.
    """
    info = type_info(gdf_type)
    finite = values[~np.isnan(values)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    if info.kind == "float":
        span = hi - lo if hi > lo else 1.0
        cal = Calibration(lo, lo + span, lo, lo + span)
        raw = values.astype(info.dtype)
    else:
        dig_min, dig_max = float(info.min), float(info.max - 1)
        if scaled:
            phys_lo, phys_hi = (lo, hi) if hi > lo else (lo, lo + 1.0)
            cal = Calibration(phys_lo, phys_hi, dig_min, dig_max)
            digital = np.rint(cal.digital(values))
        else:
            cal = Calibration(dig_min, dig_max, dig_min, dig_max)
            digital = np.rint(values)
            with np.errstate(invalid="ignore"):
                if np.any((digital < info.min) | (digital > info.max - 1)):
                    raise GdfError(f"column {label!r}: raw values exceed the "
                                   f"{info.name} range")
        digital[np.isnan(values)] = info.max  # reserved invalid marker
        raw = digital.astype(info.dtype)
    channel = ChannelInfo(
        label=label,
        phys_dim=_unit_code_from_symbol(unit),
        phys_dim_ascii=unit[:6],
        cal=cal,
        samples_per_record=len(values),
        gdf_type=gdf_type,
    )
    return channel, raw


def _convert_csv_to_gdf(args) -> int:
    gdf_type = _parse_type(args.type)
    if type_info(gdf_type).kind == "opaque":
        raise GdfError("csv->gdf cannot target the opaque 16-byte float type")
    with open(args.input, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise GdfError("input CSV has no header row")
    if len(rows) < 2:
        raise GdfError("input CSV has no sample rows")
    headers = [_parse_column_header(cell) for cell in rows[0]]
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
        values = np.array([np.nan if not c.strip() else float(c)
                           for c in cells[:expected]])
        channel, raw = _column_to_channel(label, unit, values, gdf_type, args.scaled)
        channels.append(channel)
        arrays.append(raw)

    header = FixedHeader(
        header_blocks=len(channels) + 1,
        n_records=1,  # the whole recording is one record
        duration_num=duration.numerator,
        duration_den=duration.denominator,
        ns=len(channels),
    )
    events = _read_sidecar(args.input, channels, header)
    f = GdfFile(header=header, channels=channels,
                signals=SignalBlock(arrays, 1), events=events)
    write_file(f, args.output)
    return OK


def _read_sidecar(input_path, channels, header) -> EventTable | None:
    sidecar = _sidecar_path(input_path)
    if not sidecar.exists():
        return None
    with open(sidecar, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r]
    if not rows:
        return None
    body = rows[1:] if rows[0] and rows[0][0] == "pos" else rows
    pos, typ, chn, dur = [], [], [], []
    has_mode3 = False
    for row in body:
        pos.append(int(row[0]))
        typ.append(int(row[1], 0))
        c = row[2].strip() if len(row) > 2 else ""
        d = row[3].strip() if len(row) > 3 else ""
        if c or d:
            has_mode3 = True
        chn.append(int(c) if c else 0)
        dur.append(int(d) if d else 0)
    rate = default_event_rate(channels, header.duration_num, header.duration_den)
    if has_mode3:
        return EventTable(3, rate, np.array(pos, "<u4"), np.array(typ, "<u2"),
                          np.array(chn, "<u2"), np.array(dur, "<u4"))
    return EventTable(1, rate, np.array(pos, "<u4"), np.array(typ, "<u2"))


# --- anonymize ---------------------------------------------------------------

def cmd_anonymize(args) -> int:
    f, diags = read_file(args.input, lenient=args.lenient)
    for d in diags:
        print(str(d), file=sys.stderr)
    result = anonymize(f, birthday_offset_days=args.birthday_offset)
    write_file(result, args.output)
    return OK


# --- synthesize --------------------------------------------------------------

def _parse_duration(text: str) -> tuple[int, int]:
    frac = Fraction(text)
    return frac.numerator, frac.denominator


def cmd_synthesize(args) -> int:
    spec = SynthSpec(
        channels=args.channels,
        gdf_type=_parse_type(args.type),
        samples_per_record=args.spr,
        records=args.records,
        duration=_parse_duration(args.duration),
        events=args.events,
        event_mode=args.event_mode,
        seed=args.seed,
        with_overflow=args.with_overflow,
        with_sparse=args.with_sparse,
    )
    f = synthesize(spec)
    count = write_file(f, args.output)
    print(f"wrote {count} bytes to {args.output}", file=sys.stderr)
    return OK


if __name__ == "__main__":
    sys.exit(main())
