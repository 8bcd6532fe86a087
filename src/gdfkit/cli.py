"""Command-line toolkit: inspect, validate, convert, anonymize, synthesize.

Exit codes are stable: 0 clean, 1 warnings only, 2 errors (including usage
errors and unreadable input). All commands are deterministic given the same
inputs and flags.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import tlv as tlvmod
from .core import Calibration, GdfType, checked_cast, type_info
from .diagnostics import Severity
from .errors import DiagnosticError, GdfError, StructureError
from .events import EventCodeRegistry, EventTable, default_event_rate
from .fileio import GdfFile, anonymize, read_file, read_window, validate, write_file
from .header import ChannelInfo, FixedHeader, channel_column, sampling_rate, sensor_readings
from .records import SignalBlock, overflow_scan
from .synth import SynthSpec, synthesize
from .units import _CODE_BY_SYMBOL, unit_symbol

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


class Rows(NamedTuple):
    """Keys ``<prefix>.<i>.<name>``, row by row, each row's in column order.
    A column is a list of value texts, one per row, or a dict holding only
    the rows that have the key; the first column is a list."""

    prefix: str
    columns: dict[str, list[str] | dict[int, str]]


def inspect_sections(f: GdfFile) -> list[list[tuple[str, str]] | Rows]:
    """Everything the file declares, in key order: the header, the channels,
    the optional header, the event summary and the events."""
    h, p, r = f.header, f.header.patient, f.header.recording
    code, name, classification = p.pid_subfields()
    header = [
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
        ("patient.weight_kg", _byte_sentinel(p.weight_kg, ">254")),
        ("patient.height_cm", _byte_sentinel(p.height_cm, ">254")),
        ("patient.birthday", p.birthday.isoformat()),
        ("patient.icd", p.icd_code),
        ("patient.headsize_mm", ",".join(map(str, p.headsize_mm))),
    ]
    if r.location is not None:
        header += [
            ("recording.location.latitude_deg", f"{r.location.latitude_degrees:.6f}"),
            ("recording.location.longitude_deg", f"{r.location.longitude_degrees:.6f}"),
            ("recording.location.altitude_cm", str(r.location.altitude_cm)),
        ]
    header += [
        ("recording.reference_xyz", ",".join(f"{v:g}" for v in r.reference_position)),
        ("recording.ground_xyz", ",".join(f"{v:g}" for v in r.ground_position)),
    ]
    elements = [(f"tlv.{i}.{key}", value) for i, e in enumerate(f.tlv)
                for key, value in (("tag", str(e.tag)), ("name", e.name),
                                   ("value", _render_tlv(e, f.ns)))]
    sections = [header, Rows("channel", _channel_columns(f)), elements]
    if f.events is not None:
        t = f.events
        sections += [[("events.mode", str(t.mode)), ("events.count", str(t.n_events)),
                      ("events.rate_hz", f"{t.sample_rate_hz:g}")],
                     Rows("event", _event_columns(t, _registry_for(f)))]
    return sections


def _present(values) -> dict[int, str]:
    """The rows whose value is not None, each with its ``:g`` text."""
    return {i: f"{v:g}" for i, v in enumerate(values) if v is not None}


def _channel_columns(f: GdfFile) -> dict[str, list[str] | dict[int, str]]:
    chs, duration = f.channels, (f.header.duration_num, f.header.duration_den)

    def column(attr):
        return channel_column(chs, attr)
    codes, spr = column("phys_dim"), column("samples_per_record")
    symbols = {code: unit_symbol(code) for code in set(codes)}
    impedance, probe = sensor_readings(chs, f.header.version_minor)
    return {
        "label": column("label"),
        "transducer": column("transducer"),
        "unit": [symbols[code] for code in codes],
        "unit_code": list(map(str, codes)),
        "type": [type_info(code).name for code in column("gdf_type")],
        "samples_per_record": list(map(str, spr)),
        "rate_hz": [f"{sampling_rate(n, *duration):g}" for n in spr],
        "phys_range": [f"{lo:g}..{hi:g}" for lo, hi in zip(column("cal.phys_min"),
                                                           column("cal.phys_max"))],
        "dig_range": [f"{lo:g}..{hi:g}" for lo, hi in zip(column("cal.dig_min"),
                                                          column("cal.dig_max"))],
        "lowpass_hz": ["unknown" if v is None else f"{v:g}" for v in column("lowpass_hz")],
        "highpass_hz": ["unknown" if v is None else f"{v:g}" for v in column("highpass_hz")],
        "notch_hz": ["unknown" if v is None else "off" if v < 0 else f"{v:g}"
                     for v in column("notch_hz")],
        "position": [",".join(f"{v:g}" for v in xyz) for xyz in column("position")],
        "impedance_ohm": _present(impedance),
        "probe_frequency_hz": _present(probe),
    }


def _event_columns(t: EventTable, registry: EventCodeRegistry) -> dict[str, list[str]]:
    """Type texts are worked out once per distinct code; ``time_s`` needs a
    sample rate, and ``chn``/``dur`` are mode 3's."""
    codes, row_code = np.unique(t.typ, return_inverse=True)
    codes = codes.tolist()
    hex_of, description_of = [f"0x{c:04X}" for c in codes], list(map(registry.describe, codes))
    row_code = row_code.tolist()
    columns = {"pos": list(map(str, t.pos.tolist())),
               "typ": [hex_of[i] for i in row_code],
               "description": [description_of[i] for i in row_code]}
    if t.sample_rate_hz > 0:
        columns["time_s"] = [f"{v:g}" for v in t.times_seconds().tolist()]
    if t.mode == 3:
        columns["chn"] = list(map(str, t.chn.tolist()))
        columns["dur"] = list(map(str, t.dur.tolist()))
    return columns


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


def _render(f: GdfFile, machine: bool) -> str:
    """The :func:`inspect_sections` dump as one text: ``key=value`` lines,
    or each key padded to the widest key for reading."""
    sections = inspect_sections(f)
    width = 0 if machine else max(map(_widest_key, sections))
    line = "{}={}\n".format if machine else f"{{:<{width}}}  {{}}\n".format
    out = []
    for section in sections:
        if isinstance(section, Rows):
            out.append(_render_rows(section, width, line, machine))
        else:
            out += itertools.starmap(line, section)
    return "".join(out)


def _widest_key(section: list[tuple[str, str]] | Rows) -> int:
    """A key's length grows only with its row's digit count, so a column
    counts at the last row that holds it."""
    if not isinstance(section, Rows):
        return max((len(key) for key, _ in section), default=0)
    last = {name: max(column) if isinstance(column, dict) else len(column) - 1
            for name, column in section.columns.items() if column}
    return max((len(f"{section.prefix}.{i}.{name}") for name, i in last.items()), default=0)


def _render_rows(rows: Rows, width: int, line, machine: bool) -> str:
    """The lines in row order, from one zip over the columns. A list column
    has its key on the last row, so its padding is the last row's, and each
    row with fewer digits adds its own. A dict column goes through ``line``
    row by row."""
    prefix, columns = rows
    heads = [f"{prefix}.{i}" for i in range(len(next(iter(columns.values()))))]
    end = len(heads[-1]) if heads else 0
    tails = itertools.repeat("=") if machine else \
        [" " * (end - len(head)) + "  " for head in heads]
    pieces = []
    for name, column in columns.items():
        if isinstance(column, dict):
            pieces.append([line(f"{head}.{name}", column[i]) if i in column else ""
                           for i, head in enumerate(heads)])
        else:
            pad = "" if machine else " " * (width - end - len(name) - 1)
            pieces += [heads, itertools.repeat(f".{name}{pad}"), tails, column,
                       itertools.repeat("\n")]
    return "".join(itertools.chain.from_iterable(zip(*pieces)))


def cmd_inspect(args) -> int:
    try:  # prints no sample, so decodes none
        f, diags = read_window(args.path, 0, 0, lenient=args.lenient)
    except DiagnosticError as exc:
        sys.stderr.writelines(f"{d}\n" for d in exc.diagnostics)
        return FAILURE
    sys.stdout.write(_render(f, args.format == "machine"))
    sys.stderr.writelines(f"{d}\n" for d in diags)
    return OK


# --- validate ----------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        f, diags = read_file(args.path, lenient=args.lenient)
    except DiagnosticError as exc:
        sys.stdout.writelines(f"{d}\n" for d in exc.diagnostics)
        return FAILURE
    except GdfError as exc:
        rule = exc.rule or "file.unreadable"
        print(f"error: [{rule}] {exc}")
        return FAILURE
    parsed = set(diags)
    diags.extend(d for d in validate(f) if d not in parsed)
    labels = channel_column(f.channels, "label")
    for report in overflow_scan(f.signals, f.channels):
        if report.n_invalid:
            label = labels[report.channel]
            diags.info("data.saturation",
                       f"channel {report.channel} ({label}): {report.n_invalid} of "
                       f"{report.n_samples} samples outside the digital bounds "
                       f"(ratio {report.saturation_ratio:.3f})", section="data")
    sys.stdout.writelines(f"{d}\n" for d in diags)
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
    # the text form prints no sample, so it decodes none
    f, diags = read_window(args.input, 0, 0, lenient=args.lenient) if direction == "text" \
        else read_file(args.input, lenient=args.lenient)
    sys.stderr.writelines(f"{d}\n" for d in diags)
    if direction == "text":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(_render(f, machine=True))
        return OK
    return _convert_gdf_to_csv(f, args)


def _convert_gdf_to_csv(f: GdfFile, args) -> int:
    """One column per continuous channel, headed ``label [unit] @rateHz``: a
    cell is ``repr`` of the sample (scaled or raw); an invalid scaled sample
    is an empty cell."""
    h = f.header
    headers, columns, skipped = [], [], []
    for label, code, spr, gdf_type, cal, raw in zip(*(channel_column(f.channels, attr) for attr in (
            "label", "phys_dim", "samples_per_record", "gdf_type", "cal")), f.signals.samples):
        if spr == 0 or type_info(gdf_type).kind == "opaque":
            skipped.append(label)
            continue
        values = cal.scale_array(raw) if args.scaled else raw
        cells = list(map(repr, values.tolist()))  # Python ints and floats
        for i in np.flatnonzero(np.isnan(values)).tolist() if args.scaled else ():
            cells[i] = ""
        rate = sampling_rate(spr, h.duration_num, h.duration_den)
        headers.append(f"{label} [{unit_symbol(code)}] @{rate:g}Hz")
        columns.append(cells)
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(itertools.zip_longest(*columns, fillvalue=""))
    sidecar = _sidecar_path(args.output)
    if f.events is not None:
        with open(sidecar, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["pos", "typ", "chn", "dur", "description"])
            t = f.events
            typ = t.typ.tolist()
            blank = [""] * len(typ)
            chn_dur = (t.chn.tolist(), t.dur.tolist()) if t.mode == 3 else (blank, blank)
            writer.writerows(zip(t.pos.tolist(), [f"0x{c:04X}" for c in typ], *chn_dur,
                                 map(_registry_for(f).describe, typ)))
        print(f"events written to {sidecar}", file=sys.stderr)
    if skipped:
        print("note: sparse/opaque channels exported only through the event "
              f"sidecar: {', '.join(skipped)}", file=sys.stderr)
    return OK


def _sidecar_path(output) -> Path:
    path = Path(output)
    return path.with_name(path.stem + ".events.csv")


def _positive_fraction(text: str, what: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = 0
    if value <= 0:
        raise GdfError(f"{what}: {text!r} is not a positive rational number")
    return value


def _parse_column_header(text: str) -> tuple[str, str, Fraction]:
    base, sep, rate_text = text.rpartition("@")
    if not sep or not rate_text.endswith("Hz"):
        raise GdfError(f"column header {text!r} is not 'label [unit] @rateHz'")
    rate = _positive_fraction(rate_text[:-2], f"column header {text!r}")
    base = base.strip()
    if not base.endswith("]") or "[" not in base:
        raise GdfError(f"column header {text!r} is missing the [unit] part")
    label, _, unit = base[:-1].rpartition("[")
    return label.strip(), unit.strip(), rate


def _column_range(label: str, values: np.ndarray) -> tuple[float, float]:
    """The calibration range of a column's valid values (NaN = invalid). A
    constant column's range is one unit wide, or one float64 step where that
    is wider. An infinite value, or a range wider than float64 holds, raises
    GdfError."""
    valid = values[~np.isnan(values)]
    lo = float(valid.min()) if valid.size else 0.0
    hi = float(valid.max()) if valid.size else 1.0
    if math.isinf(lo) or math.isinf(hi):
        raise GdfError(f"column {label!r}: an infinite value has no calibrated sample")
    span = hi - lo if hi > lo else max(1.0, math.nextafter(lo, math.inf) - lo)
    if math.isinf(span):
        raise GdfError(f"column {label!r}: values {lo:g}..{hi:g} span more than float64 holds")
    return lo, hi if hi > lo else lo + span


def _column_to_channel(label: str, unit: str, values: np.ndarray, gdf_type: GdfType,
                       scaled: bool, cells: Sequence[str]) -> tuple[ChannelInfo, np.ndarray]:
    """Turn one CSV column (NaN = invalid cell) into a channel and raw samples.

    Integer targets reserve the type maximum as the invalid marker, so the
    digital range is [type min, type max - 1], each bound the nearest float64
    inside the type; float targets use an identity calibration over the
    samples as stored (float32 rounds them), with NaN marking invalid
    samples. A raw 64-bit integer target reads each cell beyond 2**53, which
    float64 ``values`` round, exactly from its text ``cells[i]``.
    """
    info = type_info(gdf_type)
    lo, top = _column_range(label, values)
    invalid = np.isnan(values)
    if info.kind == "float":
        raw = checked_cast(values, info.dtype, f"column {label!r} sample {{}}")
        if raw.dtype != values.dtype:
            lo, top = _column_range(label, raw.astype(values.dtype))
        cal = Calibration(lo, top, lo, top)
    else:
        dig_min, dig_max = float(info.min), float(info.max - 1)
        if dig_max > info.max - 1:  # 64 bits: float64 rounds the bound beyond the type
            dig_max = math.nextafter(dig_max, 0)
        exact = {}
        if scaled:
            cal = Calibration(lo, top, dig_min, dig_max)
            digital = np.rint(cal.digital(values))
        else:
            cal = Calibration(dig_min, dig_max, dig_min, dig_max)
            digital = np.rint(values)
            if info.size == 8:  # rounded from the text, halves to even as np.rint does
                exact = {i: int(Decimal(cells[i]).to_integral_value())
                         for i in np.flatnonzero(np.abs(values) >= 2.0 ** 53).tolist()}
            outside = (digital < dig_min) | (digital > dig_max)  # False for NaN
            if np.any(outside) or not all(dig_min <= v <= dig_max for v in exact.values()):
                raise GdfError(f"column {label!r}: raw values exceed the {info.name} range")
        digital[invalid] = dig_min  # NaN has no integer to cast to
        raw = digital.astype(info.dtype)
        raw[invalid] = info.max  # reserved invalid marker
        for i, value in exact.items():
            raw[i] = value
    channel = ChannelInfo(
        label=label,
        phys_dim=_CODE_BY_SYMBOL.get(unit, 0),
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
    duration = Fraction(len(rows) - 1) / max(rate for _, _, rate in headers)

    channels, arrays = [], []
    # a column at a time, its header cell first: short rows are padded with
    # empty cells, and zip drops the cells beyond the header row
    for (label, unit, rate), column in zip(headers,
                                           itertools.zip_longest(*rows, fillvalue="")):
        expected = duration * rate
        if expected.denominator != 1:
            raise GdfError(f"column {label!r}: rate {rate} Hz does not produce a "
                           f"whole sample count over {duration} s")
        expected = int(expected)
        if any(c.strip() for c in column[1 + expected:]):
            raise GdfError(f"column {label!r}: values beyond the {expected} "
                           "samples its rate allows")
        cells = column[1:1 + expected]
        try:
            values = np.array([np.nan if not c.strip() else float(c) for c in cells])
        except ValueError as exc:
            raise GdfError(f"column {label!r}: {exc}") from None
        channel, raw = _column_to_channel(label, unit, values, gdf_type, args.scaled, cells)
        channels.append(channel)
        arrays.append(raw)

    header = FixedHeader(
        n_records=1,  # the whole recording is one record; ns and header_blocks are filled in
        duration_num=duration.numerator,
        duration_den=duration.denominator,
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
        try:
            pos.append(int(row[0]))
            typ.append(int(row[1], 0))
            c = row[2].strip() if len(row) > 2 else ""
            d = row[3].strip() if len(row) > 3 else ""
            chn.append(int(c) if c else 0)
            dur.append(int(d) if d else 0)
        except (ValueError, IndexError) as exc:
            raise GdfError(f"{sidecar.name}: row {row}: {exc}") from None
        has_mode3 = has_mode3 or bool(c or d)
    rate = default_event_rate(channels, header.duration_num, header.duration_den)
    if has_mode3:
        return EventTable(3, rate, pos, typ, chn, dur)
    return EventTable(1, rate, pos, typ)


# --- anonymize ---------------------------------------------------------------

def cmd_anonymize(args) -> int:
    f, diags = read_file(args.input, lenient=args.lenient)
    sys.stderr.writelines(f"{d}\n" for d in diags)
    result = anonymize(f, birthday_offset_days=args.birthday_offset)
    write_file(result, args.output)
    return OK


# --- synthesize --------------------------------------------------------------

def cmd_synthesize(args) -> int:
    spec = SynthSpec(
        channels=args.channels,
        gdf_type=_parse_type(args.type),
        samples_per_record=args.spr,
        records=args.records,
        duration=_positive_fraction(args.duration, "--duration").as_integer_ratio(),
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
