"""Frozen reference reader of canonical event lines: the package's per-line
JSON reader from before every reader was built on its line scanner, kept
as an oracle for it.

Deliberately written without importing the package.  Each stripped,
nonblank line is decoded with json and checked field by field, with the
two input rules added since (integers of at most 18 digits, a collector
without lone surrogates) spelt out here on their own; prefixes
are checked by ipaddress alone, which the package's faster prefix checks
must agree with.  `ref_parse_lines` returns the events, `ref_groups`
their usable announcements as per-series columns, and RefEvent.to_line
the writer form, so the package's readers can be compared field by field
and error by error.
"""

from __future__ import annotations

import ipaddress
import json
import reprlib
from typing import NamedTuple

ANNOUNCEMENT = "announcement"
WITHDRAWAL = "withdrawal"
_CODE_KIND = {"A": ANNOUNCEMENT, "W": WITHDRAWAL}
# Integers have at most 18 digits; strings must be encodable as UTF-8.
_DIGITS = 18
_OF_DIGITS = f" of at most {_DIGITS} digits"


def _bounded(value) -> bool:
    return type(value) is int and 0 <= value < 10**_DIGITS


def _utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class EventFormatError(ValueError):
    """A canonical event line is missing fields or cannot be parsed."""


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


_raw_decode = json.JSONDecoder().raw_decode


def _load_record(line: str):
    try:
        rec, end = _raw_decode(line)
        if end == len(line):
            return rec
    except json.JSONDecodeError:
        pass
    return json.loads(line)  # fails as well, with json's own message


def _parse_line(line: str, lineno: int) -> RefEvent:
    try:
        rec = _load_record(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise EventFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer of over 4300 digits
        raise EventFormatError(f"line {lineno}: an integer has more than {_DIGITS} digits") from exc
    if not isinstance(rec, dict):
        raise EventFormatError(f"line {lineno}: expected an object")
    try:
        ts = rec["ts"]
        collector = rec["collector"]
        prefix = rec["prefix"]
        code = rec["type"]
    except KeyError as exc:
        raise EventFormatError(f"line {lineno}: missing field {exc.args[0]!r}") from exc
    if not _bounded(ts):
        raise EventFormatError(f"line {lineno}: ts must be a nonnegative integer{_OF_DIGITS}")
    if type(collector) is not str or not _utf8(collector):
        raise EventFormatError(f"line {lineno}: collector must be a string without lone surrogates")
    if type(prefix) is not str:
        raise EventFormatError(f"line {lineno}: prefix must be a string")
    kind = _CODE_KIND.get(code) if type(code) is str else None
    if kind is None:
        raise EventFormatError(f"line {lineno}: type must be 'A' or 'W', got {code!r}")
    origin = rec.get("origin_asn")
    if kind == ANNOUNCEMENT and origin is None:
        raise EventFormatError(f"line {lineno}: missing field 'origin_asn'")
    if origin is not None and not _bounded(origin):
        raise EventFormatError(f"line {lineno}: origin_asn must be a nonnegative integer{_OF_DIGITS}")
    peer = rec.get("peer_asn")
    if peer is not None and not _bounded(peer):
        raise EventFormatError(f"line {lineno}: peer_asn must be a nonnegative integer{_OF_DIGITS}")
    ambiguous = rec.get("ambiguous_origin", False)
    if type(ambiguous) is not bool:
        raise EventFormatError(f"line {lineno}: ambiguous_origin must be true or false")
    try:
        ipaddress.ip_network(prefix, strict=False)
    except ValueError as exc:
        raise EventFormatError(
            f"line {lineno}: bad prefix {reprlib.repr(prefix)}: not an IPv4 or IPv6 network"
        ) from exc
    return RefEvent(ts, collector, prefix, kind, origin, peer, ambiguous)


def ref_parse_lines(lines) -> list[RefEvent]:
    """The events of canonical lines; raises at the first bad line, numbered from 1."""
    return [
        _parse_line(line.strip(), lineno)
        for lineno, line in enumerate(lines, start=1)
        if line.strip()
    ]


def ref_groups(lines, prefixes: bool = True) -> dict:
    """The usable announcements of canonical lines as per-series columns:
    {(origin_asn, collector): (timestamps, prefixes)}, or (timestamps,)
    without prefixes, keys sorted and each column in line order."""
    groups: dict = {}
    for ev in ref_parse_lines(lines):
        if ev.kind == ANNOUNCEMENT and not ev.ambiguous_origin:
            ts, pfx = groups.setdefault((ev.origin_asn, ev.collector), ([], []))
            ts.append(ev.timestamp)
            pfx.append(ev.prefix)
    return {key: columns if prefixes else columns[:1] for key, columns in sorted(groups.items())}
