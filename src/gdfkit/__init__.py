"""Bit-exact reader, writer and toolkit for GDF 2.x biosignal files."""

from .core import (
    Calibration,
    GdfTime,
    GdfType,
    IMPEDANCE_UNDEFINED,
    TIME_RESOLUTION_S,
    impedance_from_digval,
    impedance_to_digval,
    type_info,
)
from .diagnostics import Diagnostic, Diagnostics, Severity
from .errors import (
    CapacityError,
    DiagnosticError,
    DomainError,
    FormatError,
    GdfError,
    StructureError,
    TruncatedDataError,
    VersionError,
)
from .events import (
    EventCodeRegistry,
    EventTable,
    convert_mode,
    event_table_position,
    extract_sparse_samples,
    pair_mode1_events,
)
from .fileio import (GdfFile, StreamWriter, anonymize, read_file, read_window, to_bytes, validate,
                     write_file)
from .header import (
    ChannelInfo,
    FixedHeader,
    Gender,
    Handedness,
    HeartImpairment,
    Location,
    PatientInfo,
    RecordingInfo,
    TriState,
    VisualImpairment,
)
from .records import OverflowReport, RecordLayout, SignalBlock, layout_from_channels, overflow_scan
from .tlv import TlvElement
from .units import decode_physdim, encode_physdim, unit_symbol

__version__ = "0.1.0"

__all__ = [
    "Calibration", "GdfTime", "GdfType", "IMPEDANCE_UNDEFINED",
    "TIME_RESOLUTION_S", "impedance_from_digval", "impedance_to_digval",
    "type_info",
    "Diagnostic", "Diagnostics", "Severity",
    "CapacityError", "DiagnosticError", "DomainError", "FormatError",
    "GdfError", "StructureError", "TruncatedDataError", "VersionError",
    "EventCodeRegistry", "EventTable", "convert_mode",
    "event_table_position", "extract_sparse_samples", "pair_mode1_events",
    "GdfFile", "StreamWriter", "anonymize", "read_file", "read_window",
    "to_bytes", "validate", "write_file",
    "ChannelInfo", "FixedHeader", "Gender", "Handedness", "HeartImpairment",
    "Location", "PatientInfo", "RecordingInfo", "TriState", "VisualImpairment",
    "OverflowReport", "RecordLayout", "SignalBlock", "layout_from_channels",
    "overflow_scan",
    "TlvElement",
    "decode_physdim", "encode_physdim", "unit_symbol",
]
