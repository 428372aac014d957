"""MRT update-dump parser (RFC 6396), restricted to BGP4MP update messages.

Only what a route-collector update archive contains is handled: BGP4MP and
BGP4MP_ET records with MESSAGE / MESSAGE_AS4 subtypes carrying BGP UPDATEs.
Everything else (state changes, RIB dumps, unknown types) is counted and
skipped.  One record loop, read_updates, walks the inflated buffer by
offset and yields the plain fields of each UPDATE; parse_mrt_updates builds
one AnnouncementEvent per NLRI prefix from them, and `ingest` formats its
lines from them directly.
"""

from __future__ import annotations

import bz2
import gzip
import ipaddress
import re
import struct
import zlib

# socket's own functions, from its C module: socket.py builds enums on import.
from _socket import AF_INET6, inet_ntoa, inet_ntop
from typing import Iterator

from .events import ANNOUNCEMENT, WITHDRAWAL, AnnouncementEvent, Record

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


class MrtStats(Record):
    """Counters for one parse run; emitted + dropped always equals nlri_seen.
    records_skipped counts non-update MRT records and unknown types."""

    __slots__ = (
        "records_total", "records_skipped", "updates_parsed", "malformed_updates",
        "malformed_paths", "nlri_seen", "events_emitted", "events_dropped", "announcements",
        "withdrawals",
    )
    _defaults = dict.fromkeys(__slots__, 0)


class MrtParseResult(Record):
    __slots__ = ("events", "stats")

    def __init__(self, events: list[AnnouncementEvent] | None = None, stats: MrtStats | None = None):
        self._set_fields([] if events is None else events, MrtStats() if stats is None else stats)


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


# The network bits of a prefix's last byte, by prefix length modulo 8.
_LAST_BYTE_MASKS = [0xFF00 >> bits & 0xFF for bits in range(8)]
_V6_ZERO_HEAD = bytes(10)


def _prefix_str(packed: bytes, plen: int, afi: int) -> str:
    """Text form of a prefix, host bits cleared, as ipaddress prints it.

    Equal to str(ipaddress.ip_network((packed padded, plen), strict=False)).
    """
    if plen & 7:
        packed = packed[:-1] + bytes((packed[-1] & _LAST_BYTE_MASKS[plen & 7],))
    if afi == AFI_IPV4:
        return inet_ntoa(packed.ljust(4, b"\0")) + f"/{plen}"
    addr = packed.ljust(16, b"\0")
    if addr[:10] == _V6_ZERO_HEAD:
        # inet_ntop prints ::ffff:a.b.c.d and ::a.b.c.d where ipaddress
        # prints hex groups; these rare addresses keep the slow path.
        return str(ipaddress.ip_network((addr, plen)))
    return f"{inet_ntop(AF_INET6, addr)}/{plen}"


# Prefix texts by their NLRI bytes (length byte and address bytes), one
# table per address family.  A table that reaches the limit starts over, so
# its size stays bounded whatever the input.
_PREFIX_CACHE_LIMIT = 1 << 16


def _read_nlri(data: bytes, pos: int, end: int, afi: int, cache: dict) -> list[str]:
    """Decode the (length, prefix) NLRI entries that exactly fill data[pos:end],
    taking each prefix text from `cache` or adding it there."""
    max_bits = 32 if afi == AFI_IPV4 else 128
    prefixes = []
    while pos < end:
        plen = data[pos]
        if plen > max_bits:
            raise _MalformedUpdate(f"prefix length {plen} exceeds {max_bits}")
        stop = pos + 1 + ((plen + 7) >> 3)
        if stop > end:
            raise _MalformedUpdate("NLRI truncated")
        key = data[pos:stop]
        text = cache.get(key)
        if text is None:
            if len(cache) >= _PREFIX_CACHE_LIMIT:
                cache.clear()
            text = cache[key] = _prefix_str(key[1:], plen, afi)
        prefixes.append(text)
        pos = stop
    return prefixes


def _origin_from_as_path(data: bytes, pos: int, end: int, asn_size: int) -> tuple[int, bool]:
    """Origin ASN from the final segment of the AS_PATH in data[pos:end];
    True when that segment is an AS_SET.

    Raises _MalformedUpdate for empty paths or segments, unknown segment
    types, or byte-count mismatches.
    """
    seg_type = None
    while pos < end:
        if pos + 2 > end:
            raise _MalformedUpdate("AS_PATH segment header truncated")
        seg_type = data[pos]
        count = data[pos + 1]
        pos += 2 + count * asn_size
        if pos > end:
            raise _MalformedUpdate("AS_PATH segment truncated")
        if seg_type != SEG_AS_SEQUENCE and seg_type != SEG_AS_SET:
            raise _MalformedUpdate(f"unsupported AS_PATH segment type {seg_type}")
        if not count:
            raise _MalformedUpdate("empty AS_PATH segment")
    if seg_type is None:
        raise _MalformedUpdate("empty AS_PATH")
    return int.from_bytes(data[pos - asn_size : pos], "big"), seg_type == SEG_AS_SET


_MRT_HEADER = struct.Struct(">IHHI").unpack_from


def read_updates(
    raw: bytes, stats: MrtStats
) -> Iterator[tuple[int, int, list[str], list[str], int | None, bool]]:
    """Decode a concatenation of MRT records, one BGP UPDATE at a time.

    Yields (timestamp, peer_asn, withdrawn, announced, origin_asn,
    ambiguous_origin) for each update that carries prefixes: the prefix
    texts it withdraws and announces, and the origin of its announcements.
    When a missing or malformed AS_PATH drops the announcements, `announced`
    is empty and `origin_asn` None.  Every update is decoded whole before
    it is yielded, so a malformed one yields nothing and is counted once.

    Compressed input (gzip or bzip2) is decompressed first.  Truncation at
    the record level raises MrtParseError; per-update problems only bump
    counters so one bad update cannot poison a multi-hour dump.  `stats` is
    filled as records are read and is final once the generator is drained.
    Records are read in place by offset, never sliced out of the buffer.
    """
    data = decompress(raw)
    v4_cache: dict[bytes, str] = {}
    caches = {AFI_IPV4: v4_cache, AFI_IPV6: {}}
    pos = 0
    total = len(data)
    while pos < total:
        if pos + MRT_HEADER_LEN > total:
            raise MrtParseError("truncated MRT header", pos)
        ts, mtype, subtype, length = _MRT_HEADER(data, pos)
        start = pos + MRT_HEADER_LEN
        end = start + length
        if end > total:
            raise MrtParseError("truncated MRT record body", pos)
        stats.records_total += 1
        if mtype == MRT_BGP4MP_ET:
            # Extended-timestamp variant: drop the microseconds, keep seconds.
            if length < 4:
                raise MrtParseError("truncated BGP4MP_ET microseconds", pos)
            start += 4
        elif mtype != MRT_BGP4MP:
            stats.records_skipped += 1
            pos = end
            continue
        pos = end
        if subtype == BGP4MP_MESSAGE:
            asn_size = 2
        elif subtype == BGP4MP_MESSAGE_AS4:
            asn_size = 4
        else:
            stats.records_skipped += 1
            continue

        try:
            # BGP4MP: peer AS, local AS, ifindex, AFI, peer and local address.
            head = asn_size * 2 + 4
            if end - start < head:
                raise _MalformedUpdate("BGP4MP header truncated")
            peer_asn = int.from_bytes(data[start : start + asn_size], "big")
            afi = data[start + head - 2] << 8 | data[start + head - 1]
            msg = start + head + (8 if afi == AFI_IPV4 else 32)
            if end - msg < BGP_HEADER_LEN:
                raise _MalformedUpdate("BGP message header truncated")
            msg_len = data[msg + 16] << 8 | data[msg + 17]
            if msg_len < BGP_HEADER_LEN or msg_len > end - msg:
                raise _MalformedUpdate("BGP message length out of range")
            if data[msg + 18] != BGP_MSG_UPDATE:
                stats.records_skipped += 1
                continue

            # UPDATE: withdrawn routes, path attributes, announced NLRI.
            at = msg + BGP_HEADER_LEN
            end = msg + msg_len
            if end - at < 4:
                raise _MalformedUpdate("update body too short")
            stop = at + 2 + (data[at] << 8 | data[at + 1])
            if stop > end:
                raise _MalformedUpdate("withdrawn routes truncated")
            withdrawn = _read_nlri(data, at + 2, stop, AFI_IPV4, v4_cache) if stop > at + 2 else []
            at = stop
            if at + 2 > end:
                raise _MalformedUpdate("attribute block length truncated")
            attrs_end = at + 2 + (data[at] << 8 | data[at + 1])
            if attrs_end > end:
                raise _MalformedUpdate("attribute block truncated")
            at += 2
            announced = _read_nlri(data, attrs_end, end, AFI_IPV4, v4_cache) if end > attrs_end else []

            as_path = None
            while at < attrs_end:
                if at + 2 > attrs_end:
                    raise _MalformedUpdate("attribute header truncated")
                atype = data[at + 1]
                if data[at] & ATTR_FLAG_EXT_LEN:
                    if at + 4 > attrs_end:
                        raise _MalformedUpdate("extended attribute length truncated")
                    value = at + 4
                    at = value + (data[at + 2] << 8 | data[at + 3])
                else:
                    if at + 3 > attrs_end:
                        raise _MalformedUpdate("attribute length truncated")
                    value = at + 3
                    at = value + data[at + 2]
                if at > attrs_end:
                    raise _MalformedUpdate("attribute value truncated")
                if atype == ATTR_AS_PATH:
                    as_path = value
                    as_path_end = at
                elif atype == ATTR_MP_REACH_NLRI:
                    if at - value < 5:
                        raise _MalformedUpdate("MP_REACH_NLRI truncated")
                    family = data[value] << 8 | data[value + 1]
                    nlri = value + 5 + data[value + 3]  # after the next hop and a reserved byte
                    if nlri > at:
                        raise _MalformedUpdate("MP_REACH_NLRI next hop truncated")
                    if family in caches and data[value + 2] == SAFI_UNICAST:
                        announced += _read_nlri(data, nlri, at, family, caches[family])
                elif atype == ATTR_MP_UNREACH_NLRI:
                    if at - value < 3:
                        raise _MalformedUpdate("MP_UNREACH_NLRI truncated")
                    family = data[value] << 8 | data[value + 1]
                    if family in caches and data[value + 2] == SAFI_UNICAST:
                        withdrawn += _read_nlri(data, value + 3, at, family, caches[family])
        except _MalformedUpdate:
            stats.malformed_updates += 1
            continue

        stats.updates_parsed += 1
        stats.nlri_seen += len(withdrawn) + len(announced)
        stats.withdrawals += len(withdrawn)
        origin = None
        ambiguous = False
        if announced:
            try:
                if as_path is None:
                    raise _MalformedUpdate("no AS_PATH")
                origin, ambiguous = _origin_from_as_path(data, as_path, as_path_end, asn_size)
            except _MalformedUpdate:
                stats.malformed_paths += 1
                stats.events_dropped += len(announced)
                announced = []
            else:
                stats.announcements += len(announced)
        stats.events_emitted += len(withdrawn) + len(announced)
        if withdrawn or announced:
            yield ts, peer_asn, withdrawn, announced, origin, ambiguous


def parse_mrt_updates(raw: bytes, collector: str = "") -> MrtParseResult:
    """Parse a concatenation of MRT records into announcement events.

    One event per prefix of each update that read_updates yields:
    withdrawals first, then announcements.  Errors and counters are
    read_updates'.
    """
    result = MrtParseResult()
    events = result.events
    for ts, peer_asn, withdrawn, announced, origin, ambiguous in read_updates(raw, result.stats):
        for prefix in withdrawn:
            events.append(AnnouncementEvent(ts, collector, prefix, WITHDRAWAL, peer_asn=peer_asn))
        for prefix in announced:
            events.append(
                AnnouncementEvent(ts, collector, prefix, ANNOUNCEMENT, origin, peer_asn, ambiguous)
            )
    return result
