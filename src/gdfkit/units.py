"""Physical-dimension codes.

A unit is a 16-bit code: the upper 11 bits select the base unit and the low
5 bits a decimal prefix, e.g. microvolt = 4256 (Volt) + 19 (micro) = 4275.

Only a practical subset of the normative base-unit table is embedded (the
full table lives in the point-of-care nomenclature standards); extra base
codes can be merged in from a CSV file via :func:`load_units_csv`. Unit
symbols are kept ASCII-only so they survive CSV headers and terminals.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping

from .errors import DomainError

# Common base codes used elsewhere in the package.
DIMENSIONLESS = 512
HERTZ = 2496
VOLT = 4256
OHM = 4288

#: Base code -> display symbol.
BASE_SYMBOLS: dict[int, str] = {
    0: "?",
    512: "-",
    544: "%",
    736: "degree",
    768: "rad",
    2496: "Hz",
    2848: "l/(min m2)",
    3072: "l/min",
    3872: "mmHg",
    4128: "dyn s/cm5",
    4256: "V",
    4288: "Ohm",
    4384: "K",
    6016: "dyn s/(m2 cm5)",
    6048: "degC",
}


@dataclass(frozen=True)
class Prefix:
    code: int
    name: str
    symbol: str
    magnitude: float


_PREFIX_ROWS = [
    (10, "yotta", "Y", 1e24),
    (9, "zetta", "Z", 1e21),
    (8, "exa", "E", 1e18),
    (7, "peta", "P", 1e15),
    (6, "tera", "T", 1e12),
    (5, "giga", "G", 1e9),
    (4, "mega", "M", 1e6),
    (3, "kilo", "k", 1e3),
    (2, "hecto", "h", 1e2),
    (1, "deca", "da", 1e1),
    (0, "", "", 1e0),
    (16, "deci", "d", 1e-1),
    (17, "centi", "c", 1e-2),
    (18, "milli", "m", 1e-3),
    (19, "micro", "u", 1e-6),
    (20, "nano", "n", 1e-9),
    (21, "pico", "p", 1e-12),
    (22, "femto", "f", 1e-15),
    (23, "atto", "a", 1e-18),
    (24, "zepto", "z", 1e-21),
    (25, "yocto", "y", 1e-24),
]

PREFIXES: dict[int, Prefix] = {code: Prefix(code, name, sym, mag)
                               for code, name, sym, mag in _PREFIX_ROWS}
_PREFIX_BY_NAME: dict[str, Prefix] = {p.name: p for p in PREFIXES.values()}

# Unit symbol -> code, composed as decode_physdim renders a symbol.
_CODE_BY_SYMBOL = {p.symbol + symbol: base + p.code
                   for base, symbol in BASE_SYMBOLS.items() for p in PREFIXES.values()}

#: Prefix codes with no assigned meaning (decodable, but flagged).
NONSTANDARD_PREFIXES = frozenset(range(11, 16)) | frozenset(range(26, 32))


def split_code(code: int) -> tuple[int, int]:
    """Split a 16-bit unit code into (base, prefix)."""
    if not 0 <= code <= 0xFFFF:
        raise DomainError(f"unit code {code} outside uint16")
    return code & 0xFFE0, code & 0x1F


def encode_physdim(base: int, prefix: str = "") -> int:
    """Combine a base unit code with a decimal prefix name ('' for none)."""
    if not 0 <= base <= 0xFFFF:
        raise DomainError(f"base unit code {base} outside uint16")
    if base & 0x1F:
        raise DomainError(f"base unit code {base} has prefix bits set")
    name = "" if prefix in ("", "none", None) else prefix
    try:
        return base + _PREFIX_BY_NAME[name].code
    except KeyError:
        raise DomainError(f"unknown decimal prefix {prefix!r}") from None


@dataclass(frozen=True)
class UnitInfo:
    """Decomposition of a unit code."""

    code: int
    base: int
    prefix: int
    magnitude: float | None  # None for the reserved prefix codes
    symbol: str              # e.g. "uV"; "?" when the base is unregistered
    prefix_name: str | None

    @property
    def standard_prefix(self) -> bool:
        return self.prefix not in NONSTANDARD_PREFIXES


def decode_physdim(code: int, extra_symbols: Mapping[int, str] | None = None) -> UnitInfo:
    """Split a unit code and resolve its display string.

    ``extra_symbols`` extends (and may shadow) the embedded base-code table.
    Code 0 renders as "unknown"; reserved prefix values yield a None magnitude.
    """
    base, prefix = split_code(code)
    if code == 0:
        return UnitInfo(0, 0, 0, 1.0, "unknown", "")
    base_symbol = None
    if extra_symbols is not None:
        base_symbol = extra_symbols.get(base)
    if base_symbol is None:
        base_symbol = BASE_SYMBOLS.get(base)
    p = PREFIXES.get(prefix)
    if base_symbol is None or base == 0:
        symbol = "?"
    elif p is None:
        symbol = f"?{base_symbol}"
    else:
        symbol = p.symbol + base_symbol
    return UnitInfo(
        code=code,
        base=base,
        prefix=prefix,
        magnitude=p.magnitude if p is not None else None,
        symbol=symbol,
        prefix_name=p.name if p is not None else None,
    )


def unit_symbol(code: int, extra_symbols: Mapping[int, str] | None = None) -> str:
    return decode_physdim(code, extra_symbols).symbol


def load_units_csv(path) -> dict[int, str]:
    """Read extra base-unit symbols from a CSV file.

    Expected columns: ``code,symbol[,description]``. Lines starting with '#'
    and blank lines are skipped. Codes must be prefix-free base codes.
    """
    table: dict[int, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#") or not row[0].strip():
                continue
            try:
                code, symbol = int(row[0].strip(), 0), row[1].strip()
            except (ValueError, IndexError):
                raise DomainError(f"units CSV row {row}: not code,symbol[,description]") from None
            if code & 0x1F:
                raise DomainError(f"units CSV row {row}: {code} is not a base code")
            table[code] = symbol
    return table
