"""Tag-length-value optional header section.

Each element is one tag byte (1..255), a 3-byte little-endian length, then
the value. The list ends at a tag-0 byte or when fewer than 4 bytes remain;
every byte after that must be zero. A tag may occur at most once.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .diagnostics import Diagnostics, sink
from .errors import CapacityError, DomainError, StructureError
from .header import _float32_triple, _pack_texts

TAG_EVENT_DESCRIPTIONS = 1
TAG_BCI2000 = 2
TAG_DEVICE_IDENT = 3
TAG_SENSOR_ORIENTATION = 4
TAG_IP_ADDRESS = 5
TAG_TECHNICIAN = 6
TAG_LAB = 7
TAG_SNOMED = 8
TAG_FREE = 255

TAG_NAMES = {
    TAG_EVENT_DESCRIPTIONS: "event descriptions",
    TAG_BCI2000: "BCI2000 header",
    TAG_DEVICE_IDENT: "device identification",
    TAG_SENSOR_ORIENTATION: "sensor orientation",
    TAG_IP_ADDRESS: "recording IP address",
    TAG_TECHNICIAN: "technician id",
    TAG_LAB: "lab id",
    TAG_SNOMED: "SNOMED classification",
    TAG_FREE: "free header",
}


@dataclass(frozen=True)
class TlvElement:
    tag: int
    value: bytes

    def __post_init__(self):
        if not 1 <= self.tag <= 255:
            raise DomainError(f"TLV tag {self.tag} outside 1..255")
        if len(self.value) >= 1 << 24:
            raise CapacityError("TLV value exceeds the 24-bit length field")

    @property
    def name(self) -> str:
        return TAG_NAMES.get(self.tag, f"reserved tag {self.tag}")

    @property
    def size(self) -> int:
        """Serialised size: tag + length + value."""
        return 4 + len(self.value)


def parse_tlv(region: bytes, *, diags: Diagnostics | None = None,
              lenient: bool = False) -> list[TlvElement]:
    """Decode the optional header region into its element list.

    Strict mode raises on duplicate tags and lengths that run past the
    region; lenient mode records a diagnostic and keeps what was readable.
    Nonzero padding after the terminator is always only a diagnostic.
    """
    diags = sink(diags)
    elements: list[TlvElement] = []
    seen: set[int] = set()
    off = 0
    while len(region) - off >= 4:
        tag = region[off]
        if tag == 0:
            off += 1
            break
        length = int.from_bytes(region[off + 1:off + 4], "little")
        end = off + 4 + length
        if end > len(region):
            message = (f"tag {tag} declares {length} bytes but only "
                       f"{len(region) - off - 4} remain")
            if not lenient:
                raise StructureError(message, rule="tlv.length_overrun", offset=off)
            diags.error("tlv.length_overrun", message, section="header3", offset=off)
            return elements
        if tag in seen:
            message = f"tag {tag} occurs more than once"
            if not lenient:
                raise StructureError(message, rule="tlv.duplicate_tag", offset=off)
            diags.error("tlv.duplicate_tag", message, section="header3", offset=off)
        else:
            if 9 <= tag <= 254:
                diags.info("tlv.reserved_tag",
                           f"tag {tag} is reserved; value passed through verbatim",
                           section="header3", offset=off)
            seen.add(tag)
            elements.append(TlvElement(tag, bytes(region[off + 4:end])))
        off = end
    if any(region[off:]):
        diags.warning("tlv.trailing_nonzero",
                      "bytes after the terminating tag are not zero",
                      section="header3", offset=off)
    return elements


def serialized_size(elements: Sequence[TlvElement]) -> int:
    """Bytes the element list itself needs, excluding terminator and padding."""
    return sum(e.size for e in elements)


def region_blocks(elements: Sequence[TlvElement]) -> int:
    """256-byte blocks the optional header needs (terminator included)."""
    if not elements:
        return 0
    return -(-(serialized_size(elements) + 1) // 256)


def write_tlv_region(elements: Sequence[TlvElement], region_size: int) -> bytes:
    """Serialise elements, terminator and zero padding into the given size.
    Whether the tags are unique is checked by the file writers."""
    body = b"".join(bytes([e.tag]) + len(e.value).to_bytes(3, "little") + e.value
                    for e in elements)
    if len(body) > region_size:
        raise DomainError(f"TLV content needs {len(body)} bytes but the optional "
                          f"header region has {region_size}")
    return body.ljust(region_size, b"\x00")  # the first zero byte is the terminator


# --- per-tag decoding --------------------------------------------------------

class DeviceIdent(NamedTuple):
    manufacturer: str
    model: str
    version: str
    serial: str


def decode_event_descriptions(value: bytes) -> list[str]:
    """Tag 1: NUL-terminated strings, list closed by an empty string."""
    if value and not value.endswith(b"\x00"):
        raise StructureError("event descriptions: value is not NUL-terminated",
                             rule="tlv.tag1_malformed")
    out: list[str] = []
    for part in value.split(b"\x00")[:-1]:
        if part == b"":
            break
        out.append(part.decode("latin-1"))
    return out


def decode_text(value: bytes) -> str:
    """Tags 2, 6, 7: one NUL-terminated string."""
    return value.split(b"\x00", 1)[0].decode("latin-1")


def decode_device_ident(value: bytes, diags: Diagnostics | None = None) -> DeviceIdent:
    """Tag 3: manufacturer, model, version and serial number."""
    diags = sink(diags)
    parts = value.split(b"\x00")
    if len(parts) != 5 or parts[4]:
        raise StructureError(
            "device identification needs exactly 4 NUL-terminated strings, "
            f"has {len(parts) - 1} NUL bytes", rule="tlv.tag3_malformed")
    if len(value) > 128:
        diags.warning("tlv.tag3_too_long",
                      f"device identification is {len(value)} bytes (limit 128)",
                      section="header3")
    return DeviceIdent(*(p.decode("latin-1") for p in parts[:4]))


def decode_orientation(value: bytes, ns: int) -> list[tuple[float, float, float]]:
    """Tag 4: one float32 x-y-z direction vector per channel."""
    if len(value) != 12 * ns:
        raise StructureError(
            f"sensor orientation needs 12*NS = {12 * ns} bytes, got {len(value)}",
            rule="tlv.tag4_bad_length")
    return list(map(tuple, np.frombuffer(value, "<f4").reshape(ns, 3).tolist()))


def decode_ip_address(value: bytes):
    """Tag 5: IPv4 or IPv6 address, most significant byte first."""
    if len(value) not in (4, 16):
        raise StructureError(f"IP address must be 4 or 16 bytes, got {len(value)}",
                             rule="tlv.tag5_bad_length")
    return ipaddress.ip_address(value)


def decode_tag_value(element: TlvElement, *, ns: int | None = None,
                     diags: Diagnostics | None = None):
    """Dispatch to the tag-specific decoder; unknown tags pass through as bytes."""
    tag, value = element.tag, element.value
    if tag == TAG_EVENT_DESCRIPTIONS:
        return decode_event_descriptions(value)
    if tag in (TAG_BCI2000, TAG_TECHNICIAN, TAG_LAB):
        return decode_text(value)
    if tag == TAG_DEVICE_IDENT:
        return decode_device_ident(value, diags)
    if tag == TAG_SENSOR_ORIENTATION:
        if ns is None:
            raise DomainError("decoding a sensor orientation needs the channel count")
        return decode_orientation(value, ns)
    if tag == TAG_IP_ADDRESS:
        return decode_ip_address(value)
    return value


# --- per-tag builders --------------------------------------------------------

def _nul_terminated(texts: Sequence[str], what: str) -> bytes:
    """The texts as latin-1, each NUL-terminated (a text holding a NUL raises)."""
    data = _pack_texts(texts, 1 << 24, what)  # the length is checked by TlvElement
    return b"".join(d + b"\x00" for d in data)


def event_descriptions_tlv(descriptions: Sequence[str]) -> TlvElement:
    if "" in descriptions:
        raise DomainError("event descriptions: an empty description ends the list on read")
    body = _nul_terminated(descriptions, "event descriptions")
    return TlvElement(TAG_EVENT_DESCRIPTIONS, body + b"\x00")


def text_tlv(tag: int, text: str) -> TlvElement:
    return TlvElement(tag, _nul_terminated([text], TAG_NAMES.get(tag, f"tag {tag}")))


def device_ident_tlv(manufacturer: str = "", model: str = "",
                     version: str = "", serial: str = "") -> TlvElement:
    body = _nul_terminated((manufacturer, model, version, serial), "device identification")
    if len(body) > 128:
        raise DomainError("device identification exceeds 128 bytes")
    return TlvElement(TAG_DEVICE_IDENT, body)


def orientation_tlv(vectors: Sequence[tuple[float, float, float]]) -> TlvElement:
    flat = [c for i, vector in enumerate(vectors)
            for c in _float32_triple(vector, f"sensor orientation[{i}]")]
    return TlvElement(TAG_SENSOR_ORIENTATION, np.array(flat, "<f4").tobytes())


def ip_address_tlv(address) -> TlvElement:
    try:
        return TlvElement(TAG_IP_ADDRESS, ipaddress.ip_address(address).packed)
    except ValueError:
        raise DomainError(f"{address!r} is not an IPv4 or IPv6 address") from None


def free_tlv(data: bytes) -> TlvElement:
    return TlvElement(TAG_FREE, data)
