import io
import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdfkit.diagnostics import Diagnostics
from gdfkit.errors import DomainError, StructureError
from gdfkit.fileio import GdfFile, StreamWriter, to_bytes
from gdfkit.header import FixedHeader
from gdfkit.tlv import (
    DeviceIdent,
    TlvElement,
    decode_device_ident,
    decode_event_descriptions,
    decode_ip_address,
    decode_orientation,
    decode_tag_value,
    decode_text,
    device_ident_tlv,
    event_descriptions_tlv,
    free_tlv,
    ip_address_tlv,
    orientation_tlv,
    parse_tlv,
    region_blocks,
    serialized_size,
    text_tlv,
    write_tlv_region,
)


class TestParse:
    def test_empty_region(self):
        assert parse_tlv(b"") == []

    def test_immediate_terminator(self):
        assert parse_tlv(b"\x00" + bytes(20)) == []

    def test_single_event_description(self):
        region = bytes([1, 6, 0, 0]) + b"Left\x00\x00" + bytes(10)
        elements = parse_tlv(region)
        assert elements == [TlvElement(1, b"Left\x00\x00")]
        assert decode_tag_value(elements[0]) == ["Left"]

    def test_length_overrun_strict(self):
        region = bytes([1, 200, 0, 0]) + bytes(10)
        with pytest.raises(StructureError):
            parse_tlv(region)

    def test_length_overrun_lenient(self):
        region = bytes([2, 3, 0, 0]) + b"ab\x00" + bytes([1, 200, 0, 0]) + bytes(4)
        diags = Diagnostics()
        elements = parse_tlv(region, diags=diags, lenient=True)
        assert [e.tag for e in elements] == [2]
        assert any(d.rule == "tlv.length_overrun" for d in diags)

    def test_duplicate_tag_strict(self):
        one = bytes([5, 4, 0, 0]) + bytes(4)
        with pytest.raises(StructureError):
            parse_tlv(one + one + b"\x00")

    def test_duplicate_tag_lenient(self):
        one = bytes([5, 4, 0, 0, 192, 168, 0, 1])
        diags = Diagnostics()
        elements = parse_tlv(one + one + b"\x00", diags=diags, lenient=True)
        assert len(elements) == 1
        assert any(d.rule == "tlv.duplicate_tag" for d in diags)

    def test_trailing_garbage_diagnosed(self):
        region = b"\x00" + bytes(3) + b"\x07"
        diags = Diagnostics()
        parse_tlv(region, diags=diags)
        assert any(d.rule == "tlv.trailing_nonzero" for d in diags)

    def test_short_tail_without_terminator(self):
        # fewer than 4 bytes remain: list ends, zeros required
        region = bytes([9, 1, 0, 0, 0xAA]) + bytes(2)
        elements = parse_tlv(region)
        assert elements == [TlvElement(9, b"\xaa")]


class TestWrite:
    def test_round_trip(self):
        elements = [
            event_descriptions_tlv(["Left", "Right"]),
            text_tlv(2, "BCI2000 params"),
            device_ident_tlv("Acme", "M1", "", "SN7"),
            ip_address_tlv("192.168.0.1"),
            free_tlv(b"\x01\x02"),
        ]
        size = region_blocks(elements) * 256
        region = write_tlv_region(elements, size)
        assert len(region) == size
        assert parse_tlv(region) == elements

    def test_region_too_small(self):
        with pytest.raises(DomainError):
            write_tlv_region([free_tlv(bytes(300))], 256)

    def test_exact_fit_without_terminator(self):
        e = free_tlv(bytes(4))
        region = write_tlv_region([e], e.size)
        assert parse_tlv(region) == [e]

    def test_duplicate_rejected(self):
        elements = [free_tlv(b"a"), free_tlv(b"b")]
        with pytest.raises(DomainError, match="more than once"):
            to_bytes(GdfFile(header=FixedHeader(n_records=0), tlv=elements))
        with pytest.raises(DomainError, match="more than once"):
            StreamWriter(io.BytesIO(), FixedHeader(), [], elements)

    def test_no_elements_no_blocks(self):
        assert region_blocks([]) == 0
        assert region_blocks([free_tlv(bytes(250))]) == 1
        assert region_blocks([free_tlv(bytes(252))]) == 2  # value + header + terminator


class TestBuilderInputs:
    @pytest.mark.parametrize("vectors", [
        [(1e300, 0.0, 0.0)], [("x", 0.0, 0.0)], [(1.0, 2.0)], [(1.0, 2.0, 3.0), (1.0, 2.0)],
        [1, 2, 3], [None],  # a scalar where a vector goes
    ])
    def test_orientation_refused(self, vectors):
        with pytest.raises(DomainError, match="^sensor orientation"):
            orientation_tlv(vectors)

    def test_orientation_empty(self):
        assert orientation_tlv([]).value == b""
        assert decode_orientation(b"", ns=0) == []

    @pytest.mark.parametrize("build", [
        lambda text: text_tlv(6, text),
        lambda text: event_descriptions_tlv(["ok", text]),
        lambda text: device_ident_tlv("Acme", text),
    ], ids=["text", "event-descriptions", "device-ident"])
    @pytest.mark.parametrize("text", ["\u20ac", "a\x00b"], ids=["not-latin-1", "nul"])
    def test_text_refused(self, build, text):
        with pytest.raises(DomainError, match="latin-1|NUL"):
            build(text)

    @pytest.mark.parametrize("descriptions", [[""], ["", "x"], ["x", ""]])
    def test_empty_description_refused(self, descriptions):
        with pytest.raises(DomainError, match="empty description"):
            event_descriptions_tlv(descriptions)

    def test_ip_address_refused(self):
        with pytest.raises(DomainError, match="'nope'"):
            ip_address_tlv("nope")


class TestTagCodecs:
    def test_event_descriptions_empty_list(self):
        assert decode_event_descriptions(b"\x00\x00") == []
        assert decode_tag_value(event_descriptions_tlv([])) == []

    def test_device_ident(self):
        value = b"Acme\x00M1\x00\x00SN7\x00"
        assert decode_device_ident(value) == DeviceIdent("Acme", "M1", "", "SN7")

    def test_device_ident_wrong_count(self):
        with pytest.raises(StructureError):
            decode_device_ident(b"Acme\x00M1\x00")

    def test_device_ident_length_diagnostic(self):
        diags = Diagnostics()
        decode_device_ident(b"x" * 126 + b"\x00\x00\x00\x00", diags)
        assert any(d.rule == "tlv.tag3_too_long" for d in diags)

    def test_ipv4(self):
        assert decode_ip_address(bytes([192, 168, 0, 1])) == \
            ipaddress.IPv4Address("192.168.0.1")

    def test_ipv6_round_trip(self):
        addr = ipaddress.IPv6Address("2001:db8::7")
        assert decode_tag_value(ip_address_tlv(addr)) == addr

    def test_ip_bad_length(self):
        with pytest.raises(StructureError):
            decode_ip_address(bytes(5))

    def test_orientation(self):
        vectors = [(1.0, 0.0, 0.0), (0.0, -1.0, 0.5)]
        element = orientation_tlv(vectors)
        assert decode_tag_value(element, ns=2) == vectors
        with pytest.raises(StructureError):
            decode_orientation(element.value, ns=3)

    def test_text(self):
        assert decode_text(b"tech-42\x00") == "tech-42"
        assert decode_tag_value(text_tlv(6, "tech-42")) == "tech-42"

    def test_reserved_tag_passthrough(self):
        e = TlvElement(9, b"\x01\x02")
        assert decode_tag_value(e) == b"\x01\x02"
        assert e.name == "reserved tag 9"


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.builds(TlvElement,
              st.integers(1, 255),
              st.binary(max_size=64)),
    max_size=6,
    unique_by=lambda e: e.tag,
))
def test_write_parse_identity(elements):
    size = region_blocks(elements) * 256
    region = write_tlv_region(elements, size)
    parsed = parse_tlv(region)
    assert parsed == list(elements)
    assert write_tlv_region(parsed, size) == region


def test_serialized_size():
    assert serialized_size([free_tlv(b"abc"), text_tlv(2, "x")]) == 7 + 6
