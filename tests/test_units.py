import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdfkit.errors import DomainError
from gdfkit.units import (
    _CODE_BY_SYMBOL,
    BASE_SYMBOLS,
    NONSTANDARD_PREFIXES,
    PREFIXES,
    decode_physdim,
    encode_physdim,
    load_units_csv,
    split_code,
    unit_symbol,
)


def test_microvolt_is_4275():
    assert encode_physdim(4256, "micro") == 4275
    info = decode_physdim(4275)
    assert (info.base, info.magnitude, info.symbol) == (4256, 1e-6, "uV")


def test_dimensionless():
    assert encode_physdim(512, "") == 512
    assert decode_physdim(512).symbol == "-"


def test_kiloohm():
    assert encode_physdim(4288, "kilo") == 4291


def test_millihertz():
    info = decode_physdim(2514)
    assert (info.base, info.magnitude, info.symbol) == (2496, 1e-3, "mHz")


def test_zero_code_is_unknown():
    info = decode_physdim(0)
    assert (info.base, info.symbol) == (0, "unknown")


def test_unregistered_base_renders_question_mark():
    assert unit_symbol(0x1000 + 19) == "?"


def test_nonstandard_prefix_flagged():
    for prefix in sorted(NONSTANDARD_PREFIXES):
        info = decode_physdim(4256 + prefix)
        assert not info.standard_prefix
        assert info.magnitude is None


def test_encode_rejects_bad_inputs():
    with pytest.raises(DomainError):
        encode_physdim(4257, "micro")  # low bits already set
    with pytest.raises(DomainError):
        encode_physdim(4256, "quecto")  # not in the prefix table


def test_encode_decode_identity_over_full_table():
    for base in BASE_SYMBOLS:
        for prefix in PREFIXES.values():
            code = encode_physdim(base, prefix.name)
            info = decode_physdim(code)
            assert info.base == base
            assert info.prefix == prefix.code
            assert encode_physdim(info.base, info.prefix_name) == code


@given(st.integers(0, 0xFFFF))
def test_split_code_reassembles(code):
    base, prefix = split_code(code)
    assert base + prefix == code
    assert base & 0x1F == 0
    assert 0 <= prefix < 32


def test_extra_symbols_from_csv(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text("# code,symbol,description\n3104,l/s,litre per second\n4480,T,Tesla\n")
    table = load_units_csv(path)
    assert table == {3104: "l/s", 4480: "T"}
    assert unit_symbol(3104 + 18, table) == "ml/s"
    # untouched default table still applies
    assert unit_symbol(4275, table) == "uV"


def test_units_csv_rejects_prefixed_codes(tmp_path):
    path = tmp_path / "units.csv"
    path.write_text("4275,uV\n")
    with pytest.raises(DomainError):
        load_units_csv(path)


@pytest.mark.parametrize("text, row", [
    ("3104,l/s\nzz,foo\n", "['zz', 'foo']"),  # raised ValueError
    ("3104,l/s\n4256\n", "['4256']"),         # raised IndexError
    ("3104,l/s\n-32,neg\n", "['-32', 'neg']"),     # loaded: no 16-bit code names it
    ("3104,l/s\n65536,big\n", "['65536', 'big']"),
])
def test_units_csv_malformed_row_named(tmp_path, text, row):
    path = tmp_path / "units.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match=re.escape(f"units CSV row {row}: ")):
        load_units_csv(path)


def _ref_code_from_symbol(symbol):
    """The CLI's former per-column search, kept as the oracle."""
    for base, base_symbol in BASE_SYMBOLS.items():
        for p in PREFIXES.values():
            if p.symbol + base_symbol == symbol:
                return base + p.code
    return 0


def test_symbol_map_matches_search():
    symbols = [p.symbol + s for s in BASE_SYMBOLS.values() for p in PREFIXES.values()]
    assert len(symbols) == len(BASE_SYMBOLS) * len(PREFIXES) == 315
    for symbol in symbols + ["furlong"]:
        assert _CODE_BY_SYMBOL.get(symbol, 0) == _ref_code_from_symbol(symbol), symbol
    assert _CODE_BY_SYMBOL["uV"] == 4275
    assert "furlong" not in _CODE_BY_SYMBOL
