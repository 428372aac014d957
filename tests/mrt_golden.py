"""Standalone MRT encoder used to build golden fixtures.

Encodes BGP4MP records straight from the wire layout (RFC 6396 / RFC 4271)
with struct.pack only, independent of the package's parser, so the two can
check each other.
"""

import ipaddress
import struct

BGP4MP = 16
BGP4MP_ET = 17
TABLE_DUMP_V2 = 13

MESSAGE = 1
MESSAGE_AS4 = 4
STATE_CHANGE = 0

AS_SET = 1
AS_SEQUENCE = 2


def encode_nlri(prefixes):
    """Prefix texts, or raw (length, bytes) pairs that may carry host bits."""
    out = b""
    for text in prefixes:
        if isinstance(text, tuple):
            plen, packed = text
            out += bytes([plen]) + packed
            continue
        net = ipaddress.ip_network(text)
        plen = net.prefixlen
        nbytes = (plen + 7) // 8
        out += bytes([plen]) + net.network_address.packed[:nbytes]
    return out


def encode_as_path(segments, asn_size):
    """segments: list of (segment_type, [asn, ...])."""
    fmt = ">H" if asn_size == 2 else ">I"
    out = b""
    for seg_type, asns in segments:
        out += bytes([seg_type, len(asns)])
        for asn in asns:
            out += struct.pack(fmt, asn)
    return out


def encode_attr(atype, value, flags=0x40):
    if len(value) > 255:
        return bytes([flags | 0x10, atype]) + struct.pack(">H", len(value)) + value
    return bytes([flags, atype, len(value)]) + value


def encode_mp_reach(afi, prefixes, next_hop):
    nh = ipaddress.ip_address(next_hop).packed
    body = struct.pack(">HBB", afi, 1, len(nh)) + nh + b"\x00" + encode_nlri(prefixes)
    return encode_attr(14, body, flags=0x80)


def encode_mp_unreach(afi, prefixes):
    body = struct.pack(">HB", afi, 1) + encode_nlri(prefixes)
    return encode_attr(15, body, flags=0x80)


def encode_bgp_update(withdrawn=(), attrs=(), nlri=()):
    wd = encode_nlri(withdrawn)
    pa = b"".join(attrs)
    body = struct.pack(">H", len(wd)) + wd + struct.pack(">H", len(pa)) + pa
    body += encode_nlri(nlri)
    msg = b"\xff" * 16 + struct.pack(">HB", 19 + len(body), 2) + body
    return msg


def encode_bgp4mp(peer_asn, local_asn, bgp_msg, as4=False, peer_ip="192.0.2.1", local_ip="192.0.2.2"):
    fmt = ">IIHH" if as4 else ">HHHH"
    head = struct.pack(fmt, peer_asn, local_asn, 7, 1)
    head += ipaddress.ip_address(peer_ip).packed
    head += ipaddress.ip_address(local_ip).packed
    return head + bgp_msg


def mrt_record(timestamp, mtype, subtype, body):
    return struct.pack(">IHHI", timestamp, mtype, subtype, len(body)) + body


def update_record(
    timestamp,
    peer_asn,
    path_segments,
    announce=(),
    withdraw=(),
    as4=False,
    microseconds=None,
    mp_reach=None,
    mp_unreach=None,
    raw_as_path=None,
):
    """One complete BGP4MP (or _ET) record carrying a single UPDATE."""
    asn_size = 4 if as4 else 2
    attrs = []
    if raw_as_path is not None:
        attrs.append(encode_attr(2, raw_as_path))
    elif path_segments:
        attrs.append(encode_attr(2, encode_as_path(path_segments, asn_size)))
    if mp_reach is not None:
        afi, prefixes, next_hop = mp_reach
        attrs.append(encode_mp_reach(afi, prefixes, next_hop))
    if mp_unreach is not None:
        attrs.append(encode_mp_unreach(*mp_unreach))
    msg = encode_bgp_update(withdrawn=withdraw, attrs=attrs, nlri=announce)
    body = encode_bgp4mp(peer_asn, 65000, msg, as4=as4)
    subtype = MESSAGE_AS4 if as4 else MESSAGE
    if microseconds is not None:
        return mrt_record(timestamp, BGP4MP_ET, subtype, struct.pack(">I", microseconds) + body)
    return mrt_record(timestamp, BGP4MP, subtype, body)


def keepalive_record(timestamp, peer_asn=65001):
    msg = b"\xff" * 16 + struct.pack(">HB", 19, 4)
    return mrt_record(timestamp, BGP4MP, MESSAGE, encode_bgp4mp(peer_asn, 65000, msg))


def state_change_record(timestamp, peer_asn=65001):
    body = struct.pack(">HHHH", peer_asn, 65000, 7, 1)
    body += ipaddress.ip_address("192.0.2.1").packed
    body += ipaddress.ip_address("192.0.2.2").packed
    body += struct.pack(">HH", 5, 6)
    return mrt_record(timestamp, BGP4MP, STATE_CHANGE, body)


def table_dump_v2_record(timestamp):
    return mrt_record(timestamp, TABLE_DUMP_V2, 1, b"\x00" * 16)


def golden_file():
    """Five-update golden fixture; returns (bytes, nlri_entry_count).

    Record roster: plain MESSAGE with three v4 prefixes, MESSAGE_AS4 with a
    32-bit origin, a withdrawal-only _ET record, an AS_SET-terminated path,
    and an AS4 update whose announcement rides in MP_REACH_NLRI (IPv6).
    """
    records = [
        update_record(
            1396463160,
            peer_asn=3356,
            path_segments=[(AS_SEQUENCE, [701, 1299, 4761])],
            announce=["10.0.0.0/8", "172.16.0.0/12", "192.168.128.0/17"],
        ),
        update_record(
            1396463161,
            peer_asn=2914,
            path_segments=[(AS_SEQUENCE, [2914, 196615])],
            announce=["203.0.113.0/24"],
            as4=True,
        ),
        update_record(
            1396463162,
            peer_asn=3356,
            path_segments=[],
            withdraw=["198.51.100.0/24"],
            as4=True,
            microseconds=654321,
        ),
        update_record(
            1396463163,
            peer_asn=6453,
            path_segments=[(AS_SEQUENCE, [6453]), (AS_SET, [64512, 64513])],
            announce=["198.18.0.0/15"],
        ),
        update_record(
            1396463164,
            peer_asn=2914,
            path_segments=[(AS_SEQUENCE, [2914, 4761])],
            as4=True,
            mp_reach=(2, ["2001:db8::/32"], "2001:db8::1"),
        ),
    ]
    nlri_entries = 3 + 1 + 1 + 1 + 1
    return b"".join(records), nlri_entries


def prefix_forms_file():
    """Updates whose prefixes cover every text form the parser prints.

    IPv4 and IPv6 (MP_REACH / MP_UNREACH), default routes, host routes,
    IPv4-mapped and IPv4-compatible IPv6, zero runs in several places, and
    raw NLRI with host bits set past the prefix length.
    """
    v4 = [
        "10.0.0.0/8", "192.0.2.0/24", "0.0.0.0/0", "255.255.255.255/32",
        (9, b"\x0a\xff"), (20, b"\xc0\xa8\xff"), (31, bytes([1, 2, 3, 5])),
        (1, b"\xff"), (7, b"\x0b"),
    ]
    v6 = [
        "2001:db8::/32", "2001:db8:0:1::/64", "::/0", "fe80::/10",
        "::ffff:0:0/96", "::ffff:192.0.2.0/120", "::192.0.2.0/120", "::1/128",
        "::ffff:1/128", "1:0:0:2::3/128", "1:0:0:2:0:0:3:4/128", "2001:db8::1:0:0:1/128",
        "::1:0:0:0:0/64", "0:0:0:0:0:1::/96",
        (33, b"\x20\x01\x0d\xb8\xff"), (127, bytes(range(1, 17))),
        (100, bytes(10) + b"\xff\xff\x1f"), (101, bytes(12) + b"\xc7"),
    ]
    records = [
        update_record(
            1396463200, 2914, [(AS_SEQUENCE, [2914, 64496])],
            announce=v4, withdraw=["198.51.100.0/24", (23, b"\xc6\x33\x65")], as4=True,
        ),
        update_record(
            1396463201, 2914, [(AS_SEQUENCE, [2914, 64497])],
            as4=True, mp_reach=(2, v6, "2001:db8::1"),
        ),
        update_record(1396463202, 3356, [], as4=True, mp_unreach=(2, v6[::-1])),
    ]
    return b"".join(records)
