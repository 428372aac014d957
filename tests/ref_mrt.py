"""Frozen reference MRT decoder: the package's decoder before it became one
offset-based record loop, kept as an oracle for it.

Deliberately written without importing the package.  It slices each record
and attribute into copies and builds one event per NLRI prefix, as the
original did; `ref_parse` returns the events in writer form together with
the counters, so the two decoders can be compared line for line.
"""

from __future__ import annotations

import bz2
import gzip
import ipaddress
import json
import re
import socket
import struct
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

ANNOUNCEMENT = "announcement"
WITHDRAWAL = "withdrawal"


class RefEvent(NamedTuple):
    timestamp: int
    collector: str
    prefix: str
    kind: str
    origin_asn: int | None = None
    peer_asn: int | None = None
    ambiguous_origin: bool = False

    def to_line(self) -> str:
        """The canonical writer form, spelled out with json.dumps."""
        rec = {"ts": self.timestamp, "collector": self.collector}
        if self.peer_asn is not None:
            rec["peer_asn"] = self.peer_asn
        rec["prefix"] = self.prefix
        if self.origin_asn is not None:
            rec["origin_asn"] = self.origin_asn
        rec["type"] = "A" if self.kind == ANNOUNCEMENT else "W"
        if self.ambiguous_origin:
            rec["ambiguous_origin"] = True
        return json.dumps(rec, separators=(",", ":"))

MRT_HEADER_LEN = 12

# MRT record types
MRT_BGP4MP = 16
MRT_BGP4MP_ET = 17

# BGP4MP subtypes
BGP4MP_STATE_CHANGE = 0
BGP4MP_MESSAGE = 1
BGP4MP_MESSAGE_AS4 = 4
BGP4MP_STATE_CHANGE_AS4 = 5

# BGP message types
BGP_MSG_UPDATE = 2
BGP_HEADER_LEN = 19

# Path attribute types
ATTR_AS_PATH = 2
ATTR_MP_REACH_NLRI = 14
ATTR_MP_UNREACH_NLRI = 15
ATTR_FLAG_EXT_LEN = 0x10

# AS_PATH segment types
SEG_AS_SET = 1
SEG_AS_SEQUENCE = 2

AFI_IPV4 = 1
AFI_IPV6 = 2
SAFI_UNICAST = 1

AS_TRANS = 23456  # 2-byte placeholder for 4-byte ASNs, passed through verbatim


class MrtParseError(ValueError):
    """Structurally broken MRT input; carries the failing byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class _MalformedUpdate(Exception):
    """Internal: one BGP update could not be decoded; record is skipped."""


@dataclass
class MrtStats:
    """Counters for one parse run; emitted + dropped always equals nlri_seen."""

    records_total: int = 0
    records_skipped: int = 0   # non-update MRT records and unknown types
    updates_parsed: int = 0
    malformed_updates: int = 0
    malformed_paths: int = 0
    nlri_seen: int = 0
    events_emitted: int = 0
    events_dropped: int = 0
    announcements: int = 0
    withdrawals: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class MrtParseResult:
    events: list[RefEvent] = field(default_factory=list)
    stats: MrtStats = field(default_factory=MrtStats)


# A bzip2 stream opens with "BZh", a block size digit 1-9 and the magic of
# its first block, or of its end of stream when it is empty.  "BZh" alone
# is also the first timestamp bytes of plain MRT from 2005-04-11 12:05 UTC.
_BZ2_HEAD = re.compile(rb"BZh[1-9](?:1AY&SY|\x17rE8P\x90)")


def decompress(raw: bytes) -> bytes:
    """Transparently undo gzip/bzip2 framing; plain input passes through.

    A corrupt or truncated compressed stream raises MrtParseError.
    """
    try:
        if raw[:2] == b"\x1f\x8b":
            return gzip.decompress(raw)
        if _BZ2_HEAD.match(raw):
            return bz2.decompress(raw)
    except (OSError, EOFError, ValueError, zlib.error) as exc:
        raise MrtParseError(f"cannot decompress input: {exc}", 0) from exc
    return raw


_V4_MASKS = [(0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF for plen in range(33)]
_V6_MASKS = [((1 << 128) - 1) ^ ((1 << (128 - plen)) - 1) for plen in range(129)]
_V6_ZERO_HEAD = bytes(10)


def _prefix_str(packed: bytes, plen: int, afi: int) -> str:
    """Text form of a prefix, host bits cleared, as ipaddress prints it.

    Equal to str(ipaddress.ip_network((packed padded, plen), strict=False)).
    """
    if afi == AFI_IPV4:
        n = int.from_bytes(packed.ljust(4, b"\x00"), "big") & _V4_MASKS[plen]
        return "%d.%d.%d.%d/%d" % (n >> 24, n >> 16 & 255, n >> 8 & 255, n & 255, plen)
    n = int.from_bytes(packed.ljust(16, b"\x00"), "big") & _V6_MASKS[plen]
    addr = n.to_bytes(16, "big")
    if addr[:10] == _V6_ZERO_HEAD:
        # inet_ntop prints ::ffff:a.b.c.d and ::a.b.c.d where ipaddress
        # prints hex groups; these rare addresses keep the slow path.
        return str(ipaddress.ip_network((addr, plen)))
    return f"{socket.inet_ntop(socket.AF_INET6, addr)}/{plen}"


def _read_nlri(buf: bytes, afi: int) -> list[str]:
    """Decode a run of (length, prefix) NLRI entries covering the whole buffer."""
    max_bits = 32 if afi == AFI_IPV4 else 128
    prefixes = []
    pos = 0
    while pos < len(buf):
        plen = buf[pos]
        pos += 1
        if plen > max_bits:
            raise _MalformedUpdate(f"prefix length {plen} exceeds {max_bits}")
        nbytes = (plen + 7) // 8
        if pos + nbytes > len(buf):
            raise _MalformedUpdate("NLRI truncated")
        prefixes.append(_prefix_str(buf[pos : pos + nbytes], plen, afi))
        pos += nbytes
    return prefixes


def _read_attributes(buf: bytes) -> list[tuple[int, bytes]]:
    attrs = []
    pos = 0
    while pos < len(buf):
        if pos + 2 > len(buf):
            raise _MalformedUpdate("attribute header truncated")
        flags = buf[pos]
        atype = buf[pos + 1]
        pos += 2
        if flags & ATTR_FLAG_EXT_LEN:
            if pos + 2 > len(buf):
                raise _MalformedUpdate("extended attribute length truncated")
            alen = struct.unpack_from(">H", buf, pos)[0]
            pos += 2
        else:
            if pos + 1 > len(buf):
                raise _MalformedUpdate("attribute length truncated")
            alen = buf[pos]
            pos += 1
        if pos + alen > len(buf):
            raise _MalformedUpdate("attribute value truncated")
        attrs.append((atype, buf[pos : pos + alen]))
        pos += alen
    return attrs


def _origin_from_as_path(value: bytes, asn_size: int) -> tuple[int, bool]:
    """Origin ASN from the final path segment; True when it was an AS_SET.

    Raises _MalformedUpdate for empty paths, unknown segment types, or
    byte-count mismatches.
    """
    segments = []
    pos = 0
    while pos < len(value):
        if pos + 2 > len(value):
            raise _MalformedUpdate("AS_PATH segment header truncated")
        seg_type = value[pos]
        count = value[pos + 1]
        pos += 2
        size = count * asn_size
        if pos + size > len(value):
            raise _MalformedUpdate("AS_PATH segment truncated")
        if seg_type not in (SEG_AS_SET, SEG_AS_SEQUENCE):
            raise _MalformedUpdate(f"unsupported AS_PATH segment type {seg_type}")
        fmt = ">H" if asn_size == 2 else ">I"
        asns = [
            struct.unpack_from(fmt, value, pos + i * asn_size)[0] for i in range(count)
        ]
        if not asns:
            raise _MalformedUpdate("empty AS_PATH segment")
        segments.append((seg_type, asns))
        pos += size
    if not segments:
        raise _MalformedUpdate("empty AS_PATH")
    seg_type, asns = segments[-1]
    return asns[-1], seg_type == SEG_AS_SET


def _parse_update_body(
    body: bytes, asn_size: int
) -> tuple[list[str], list[str], bytes | None]:
    """Split one UPDATE into (withdrawn v4, announced prefixes, AS_PATH bytes)."""
    if len(body) < 4:
        raise _MalformedUpdate("update body too short")
    wlen = struct.unpack_from(">H", body, 0)[0]
    pos = 2
    if pos + wlen > len(body):
        raise _MalformedUpdate("withdrawn routes truncated")
    withdrawn = _read_nlri(body[pos : pos + wlen], AFI_IPV4)
    pos += wlen
    if pos + 2 > len(body):
        raise _MalformedUpdate("attribute block length truncated")
    alen = struct.unpack_from(">H", body, pos)[0]
    pos += 2
    if pos + alen > len(body):
        raise _MalformedUpdate("attribute block truncated")
    attrs = _read_attributes(body[pos : pos + alen])
    pos += alen
    announced = _read_nlri(body[pos:], AFI_IPV4)

    as_path = None
    for atype, value in attrs:
        if atype == ATTR_AS_PATH:
            as_path = value
        elif atype == ATTR_MP_REACH_NLRI:
            if len(value) < 5:
                raise _MalformedUpdate("MP_REACH_NLRI truncated")
            afi, safi, nhlen = struct.unpack_from(">HBB", value, 0)
            off = 4 + nhlen + 1  # next hop then one reserved byte
            if off > len(value):
                raise _MalformedUpdate("MP_REACH_NLRI next hop truncated")
            if afi in (AFI_IPV4, AFI_IPV6) and safi == SAFI_UNICAST:
                announced.extend(_read_nlri(value[off:], afi))
        elif atype == ATTR_MP_UNREACH_NLRI:
            if len(value) < 3:
                raise _MalformedUpdate("MP_UNREACH_NLRI truncated")
            afi, safi = struct.unpack_from(">HB", value, 0)
            if afi in (AFI_IPV4, AFI_IPV6) and safi == SAFI_UNICAST:
                withdrawn.extend(_read_nlri(value[3:], afi))
    return withdrawn, announced, as_path


def parse_mrt_updates(raw: bytes, collector: str = "") -> MrtParseResult:
    """Parse a concatenation of MRT records into announcement events.

    Compressed input (gzip or bzip2) is decompressed first.  Truncation at
    the record level raises MrtParseError; per-update problems only bump
    counters so one bad update cannot poison a multi-hour dump.
    """
    data = decompress(raw)
    result = MrtParseResult()
    stats = result.stats
    pos = 0
    total = len(data)
    while pos < total:
        if pos + MRT_HEADER_LEN > total:
            raise MrtParseError("truncated MRT header", pos)
        ts, mtype, subtype, length = struct.unpack_from(">IHHI", data, pos)
        body_start = pos + MRT_HEADER_LEN
        if body_start + length > total:
            raise MrtParseError("truncated MRT record body", pos)
        body = data[body_start : body_start + length]
        stats.records_total += 1
        record_offset = pos
        pos = body_start + length

        if mtype not in (MRT_BGP4MP, MRT_BGP4MP_ET):
            stats.records_skipped += 1
            continue
        if mtype == MRT_BGP4MP_ET:
            # Extended-timestamp variant: drop the microseconds, keep seconds.
            if len(body) < 4:
                raise MrtParseError("truncated BGP4MP_ET microseconds", record_offset)
            body = body[4:]
        if subtype not in (BGP4MP_MESSAGE, BGP4MP_MESSAGE_AS4):
            stats.records_skipped += 1
            continue
        asn_size = 2 if subtype == BGP4MP_MESSAGE else 4

        try:
            _emit_from_bgp4mp(body, asn_size, ts, collector, result)
        except _MalformedUpdate:
            stats.malformed_updates += 1
    return result


def _emit_from_bgp4mp(
    body: bytes, asn_size: int, ts: int, collector: str, result: MrtParseResult
) -> None:
    stats = result.stats
    head = asn_size * 2 + 4  # peer AS, local AS, ifindex, AFI
    if len(body) < head:
        raise _MalformedUpdate("BGP4MP header truncated")
    fmt = ">HHHH" if asn_size == 2 else ">IIHH"
    peer_asn, _local_asn, _ifindex, afi = struct.unpack_from(fmt, body, 0)
    addr_len = 4 if afi == AFI_IPV4 else 16
    msg_start = head + 2 * addr_len
    if len(body) < msg_start + BGP_HEADER_LEN:
        raise _MalformedUpdate("BGP message header truncated")
    msg = body[msg_start:]
    msg_len, msg_type = struct.unpack_from(">HB", msg, 16)
    if msg_len < BGP_HEADER_LEN or msg_len > len(msg):
        raise _MalformedUpdate("BGP message length out of range")
    if msg_type != BGP_MSG_UPDATE:
        stats.records_skipped += 1
        return

    withdrawn, announced, as_path = _parse_update_body(
        msg[BGP_HEADER_LEN:msg_len], asn_size
    )
    stats.updates_parsed += 1
    stats.nlri_seen += len(withdrawn) + len(announced)

    for prefix in withdrawn:
        result.events.append(
            RefEvent(
                timestamp=ts,
                collector=collector,
                prefix=prefix,
                kind=WITHDRAWAL,
                peer_asn=peer_asn,
            )
        )
        stats.events_emitted += 1
        stats.withdrawals += 1

    if not announced:
        return
    if as_path is None:
        stats.malformed_paths += 1
        stats.events_dropped += len(announced)
        return
    try:
        origin, ambiguous = _origin_from_as_path(as_path, asn_size)
    except _MalformedUpdate:
        stats.malformed_paths += 1
        stats.events_dropped += len(announced)
        return
    for prefix in announced:
        result.events.append(
            RefEvent(
                timestamp=ts,
                collector=collector,
                prefix=prefix,
                kind=ANNOUNCEMENT,
                origin_asn=origin,
                peer_asn=peer_asn,
                ambiguous_origin=ambiguous,
            )
        )
        stats.events_emitted += 1
        stats.announcements += 1


def ref_parse(raw: bytes, collector: str = "") -> tuple[list[str], dict]:
    """Writer-form lines and counters of one input; MrtParseError as the original."""
    result = parse_mrt_updates(raw, collector)
    return [ev.to_line() for ev in result.events], result.stats.as_dict()
