"""Deterministic synthetic-file generator.

Backs the ``synthesize`` CLI command and the test corpus: sinusoids spanning
80 % of each channel's digital range, optional out-of-range bursts (to
exercise overflow detection), optional sparse channels fed through the event
table, and an event set drawn from the built-in code registry. The same seed
always produces byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tlv as tlvmod
from .core import Calibration, GdfTime, GdfType, type_info
from .errors import DomainError
from .events import (
    EventTable,
    SPARSE_SAMPLE_TYPE,
    _encode_sparse,
    default_event_rate,
)
from .fileio import GdfFile, required_header_blocks
from .header import (
    ChannelInfo,
    FixedHeader,
    PatientInfo,
    RecordingInfo,
    render_phys_dim_ascii,
    render_prefilter,
    sensor_value_bytes,
)
from .records import SignalBlock

#: Trigger/cue codes the generator draws event types from.
EVENT_POOL = (0x0300, 0x0301, 0x0302, 0x0311, 0x0411, 0x0412)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic recording."""

    channels: int = 3
    gdf_type: GdfType = GdfType.INT16
    samples_per_record: int = 16
    records: int = 8
    duration: tuple[int, int] = (1, 1)  # record length as a rational second
    events: int = 4
    event_mode: int = 3
    seed: int = 0
    with_overflow: bool = False
    with_sparse: bool = False
    tlv: tuple[tlvmod.TlvElement, ...] = ()
    label_prefix: str = "ch"


def _digital_bounds(gdf_type: GdfType) -> tuple[float, float]:
    """Digital bounds leaving headroom inside the type range so that
    out-of-range (overflow) values remain representable."""
    info = type_info(gdf_type)
    if info.kind in ("float", "opaque"):
        return -1000.0, 1000.0
    span = info.max - info.min
    lo = info.min + max(1, span // 8)
    hi = info.max - max(1, span // 8)
    return float(lo), float(hi)


def _make_channel(spec: SynthSpec, index: int, sparse: bool) -> ChannelInfo:
    gdf_type = spec.gdf_type if not sparse else GdfType.UINT32
    dig_min, dig_max = (0.0, 1000.0) if sparse else _digital_bounds(gdf_type)
    phys_dim = 4275  # uV
    lowpass, highpass, notch = 100.0, 0.5, 50.0
    return ChannelInfo(
        label=f"{spec.label_prefix}{index + 1}",
        transducer="synthetic",
        phys_dim_ascii=render_phys_dim_ascii(phys_dim),
        phys_dim=phys_dim,
        cal=Calibration(-200.0, 200.0, dig_min, dig_max),
        prefilter=render_prefilter(lowpass, highpass, notch),
        lowpass_hz=lowpass,
        highpass_hz=highpass,
        notch_hz=notch,
        samples_per_record=0 if sparse else spec.samples_per_record,
        gdf_type=gdf_type,
        position=(float(index), 0.0, 1.0),
        sensor_info=sensor_value_bytes(5000.0 + index),
    )


def _channel_samples(rng, ch: ChannelInfo, n_records: int, spec: SynthSpec) -> np.ndarray:
    info = type_info(ch.gdf_type)
    n = ch.samples_per_record * n_records
    if info.kind == "opaque":
        return rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
    center = (ch.cal.dig_max + ch.cal.dig_min) / 2
    amplitude = 0.4 * (ch.cal.dig_max - ch.cal.dig_min)  # spans 80 % of the range
    phase = rng.uniform(0, 2 * math.pi)
    cycles = rng.uniform(1.0, 4.0)
    t = np.arange(n) * (2 * math.pi * cycles / max(n, 1))
    wave = center + amplitude * np.sin(t + phase)
    if spec.with_overflow and n:
        burst = slice(n // 2, n // 2 + max(1, n // 10))
        wave[burst] = ch.cal.dig_max + max(1.0, 0.05 * (ch.cal.dig_max - ch.cal.dig_min))
    if info.kind == "float":
        return wave.astype(info.dtype)
    return np.rint(wave).astype(info.dtype)


def _make_events(rng, spec: SynthSpec, channels, total_event_samples: int) -> EventTable | None:
    rate = default_event_rate(channels, *spec.duration)
    pos, typ, chn, dur = [], [], [], []
    if spec.with_sparse:
        sparse_index = next(i for i, ch in enumerate(channels) if ch.is_sparse)
        ch = channels[sparse_index]
        for _ in range(max(2, spec.events // 2)):
            pos.append(int(rng.integers(1, max(total_event_samples, 2))))
            dur.append(int(rng.integers(int(ch.cal.dig_min), int(ch.cal.dig_max) + 1)))
        typ, chn = [SPARSE_SAMPLE_TYPE] * len(dur), [sparse_index + 1] * len(dur)
        dur = _encode_sparse(dur, ch.gdf_type).tolist()  # the raw values, in one codec call
    if spec.event_mode == 1 and pos:
        raise DomainError("sparse channels need a mode-3 event table")
    if not spec.events and not pos:
        return None
    for _ in range(spec.events):
        pos.append(int(rng.integers(1, max(total_event_samples, 2))))
        typ.append(EVENT_POOL[rng.integers(0, len(EVENT_POOL))])
        chn.append(0)
        dur.append(int(rng.integers(0, max(total_event_samples - pos[-1], 1)))
                   if spec.event_mode == 3 else 0)
    columns = (pos, typ, chn, dur) if spec.event_mode == 3 else (pos, typ)
    order = np.lexsort(columns[::-1])  # by pos, then typ, chn and dur
    return EventTable(spec.event_mode, rate, *(np.array(c)[order] for c in columns))


def synthesize(spec: SynthSpec = SynthSpec()) -> GdfFile:
    """Build a complete in-memory file from the recipe."""
    if spec.channels < 0 or spec.records < 0 or spec.samples_per_record <= 0:
        raise DomainError("channel count and record count must be non-negative, "
                          "samples per record positive")
    if spec.with_sparse and spec.channels < 2:
        raise DomainError("a sparse channel needs at least two channels")
    rng = np.random.default_rng(spec.seed)
    channels = [_make_channel(spec, i, sparse=(spec.with_sparse and i == spec.channels - 1))
                for i in range(spec.channels)]
    header = FixedHeader(
        patient=PatientInfo(pid=f"S{spec.seed:04d} X X"),
        recording=RecordingInfo(
            rid=f"synthetic run {spec.seed}",
            start_time=GdfTime.from_unix(946_684_800.0),  # 2000-01-01
        ),
        header_blocks=required_header_blocks(spec.channels, spec.tlv),
        n_records=spec.records,
        duration_num=spec.duration[0],
        duration_den=spec.duration[1],
        ns=spec.channels,
    )
    samples = [None if ch.is_sparse else _channel_samples(rng, ch, spec.records, spec)
               for ch in channels]
    signals = SignalBlock(samples, spec.records)
    # event positions index the event-rate timeline: max spr per record
    total_event_samples = max((ch.samples_per_record for ch in channels), default=0) \
        * spec.records
    events = _make_events(rng, spec, channels, max(total_event_samples, 1)) \
        if spec.events or spec.with_sparse else None
    return GdfFile(header=header, channels=channels, tlv=list(spec.tlv),
                   signals=signals, events=events)


def corpus_specs() -> list[tuple[str, SynthSpec]]:
    """The standing test corpus: one entry per data type plus the structural
    variations (sparse channels, both event modes, optional-header tags,
    overflow bursts)."""
    entries: list[tuple[str, SynthSpec]] = []
    for i, gdf_type in enumerate([
            GdfType.INT8, GdfType.UINT8, GdfType.INT16, GdfType.UINT16,
            GdfType.INT32, GdfType.UINT32, GdfType.INT64, GdfType.UINT64,
            GdfType.FLOAT32, GdfType.FLOAT64, GdfType.FLOAT128,
            GdfType.INT24, GdfType.UINT24]):
        entries.append((f"type_{gdf_type.name.lower()}",
                        SynthSpec(channels=2, gdf_type=gdf_type, seed=100 + i)))
    tlv_set = (
        tlvmod.event_descriptions_tlv(["Left", "Right", "Rest"]),
        tlvmod.text_tlv(tlvmod.TAG_BCI2000, "SamplingRate=256"),
        tlvmod.device_ident_tlv("gdfkit", "synth", "1.0", "0001"),
        tlvmod.orientation_tlv([(1.0, 0.0, 0.0)] * 3),
        tlvmod.ip_address_tlv("192.168.0.1"),
        tlvmod.free_tlv(b"free-form bytes"),
    )
    entries += [
        ("sparse_mode3", SynthSpec(channels=3, with_sparse=True, seed=200)),
        ("events_mode1", SynthSpec(channels=2, event_mode=1, events=6, seed=201)),
        ("events_mode3", SynthSpec(channels=2, event_mode=3, events=6, seed=202)),
        ("overflow", SynthSpec(channels=2, with_overflow=True, seed=203)),
        ("tlv_full", SynthSpec(channels=3, tlv=tlv_set, seed=204)),
        ("rational_duration", SynthSpec(channels=2, duration=(1, 4), seed=205)),
        ("no_events", SynthSpec(channels=1, events=0, seed=206)),
        ("wide", SynthSpec(channels=6, samples_per_record=32, records=12, seed=207)),
        ("single_record", SynthSpec(channels=2, records=1, events=1, seed=208)),
    ]
    return entries
