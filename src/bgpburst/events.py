"""Normalized announcement events, canonical line format, and series builders.

Every data source (MRT dumps, synthetic streams) is reduced to a flat stream
of AnnouncementEvent records.  From those we build per-(origin AS, collector)
timestamp series and per-second unique-prefix volume series, which are the
inputs to all downstream statistics.
"""

from __future__ import annotations

import ipaddress
import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

ANNOUNCEMENT = "announcement"
WITHDRAWAL = "withdrawal"

_KIND_CODE = {ANNOUNCEMENT: "A", WITHDRAWAL: "W"}
_CODE_KIND = {"A": ANNOUNCEMENT, "W": WITHDRAWAL}


class EventFormatError(ValueError):
    """A canonical event line is missing fields or cannot be parsed."""


def _check_prefix(prefix: str) -> None:
    try:
        ipaddress.ip_network(prefix, strict=False)
    except ValueError as exc:
        raise EventFormatError(f"bad prefix {prefix!r}: {exc}") from exc


@dataclass(frozen=True, slots=True)
class AnnouncementEvent:
    """One BGP announcement or withdrawal seen at a collector (1 s accuracy)."""

    timestamp: int
    collector: str
    prefix: str
    kind: str
    origin_asn: int | None = None
    peer_asn: int | None = None
    ambiguous_origin: bool = False

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")
        if self.kind not in _KIND_CODE:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == ANNOUNCEMENT and self.origin_asn is None:
            raise ValueError("announcement without origin_asn")

    def to_line(self) -> str:
        rec: dict = {"ts": self.timestamp, "collector": self.collector}
        if self.peer_asn is not None:
            rec["peer_asn"] = self.peer_asn
        rec["prefix"] = self.prefix
        if self.origin_asn is not None:
            rec["origin_asn"] = self.origin_asn
        rec["type"] = _KIND_CODE[self.kind]
        if self.ambiguous_origin:
            rec["ambiguous_origin"] = True
        return json.dumps(rec, separators=(",", ":"))


@dataclass(frozen=True)
class EventSeries:
    """Announcement timestamps for one (origin AS, collector) pair, sorted."""

    origin_asn: int
    collector: str
    timestamps: tuple[int, ...]

    def __post_init__(self):
        ts = self.timestamps
        if any(ts[i] > ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("timestamps must be nondecreasing")

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def span(self) -> tuple[int, int] | None:
        if not self.timestamps:
            return None
        return self.timestamps[0], self.timestamps[-1]

    def restrict(self, start: int, end: int) -> "EventSeries":
        """Sub-series with timestamps in [start, end)."""
        ts = self.timestamps
        kept = ts[bisect_left(ts, start):bisect_left(ts, end)]
        return EventSeries(self.origin_asn, self.collector, kept)


@dataclass(frozen=True)
class VolumeSeries:
    """Per-second unique announced prefix counts for one (origin AS, collector)."""

    origin_asn: int
    collector: str
    points: tuple[tuple[int, int], ...]  # (timestamp, unique prefix count)

    def __post_init__(self):
        prev = None
        for ts, count in self.points:
            if count < 1:
                raise ValueError(f"volume count {count} < 1 at ts {ts}")
            if prev is not None and ts <= prev:
                raise ValueError("volume timestamps must be strictly increasing")
            prev = ts

    def __len__(self) -> int:
        return len(self.points)

    def timestamps(self) -> tuple[int, ...]:
        return tuple(ts for ts, _ in self.points)

    def counts(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.points)


def parse_event_lines(source: Iterable[str] | IO[str]) -> Iterator[AnnouncementEvent]:
    """Parse canonical line-delimited events; blank lines are ignored.

    Raises EventFormatError with the 1-based line number on any bad line.
    """
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EventFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise EventFormatError(f"line {lineno}: expected an object")
        try:
            ts = rec["ts"]
            collector = rec["collector"]
            prefix = rec["prefix"]
            code = rec["type"]
        except KeyError as exc:
            raise EventFormatError(f"line {lineno}: missing field {exc.args[0]!r}") from exc
        if not isinstance(ts, int) or ts < 0:
            raise EventFormatError(f"line {lineno}: ts must be a nonnegative integer")
        if code not in _CODE_KIND:
            raise EventFormatError(f"line {lineno}: type must be 'A' or 'W', got {code!r}")
        kind = _CODE_KIND[code]
        origin = rec.get("origin_asn")
        if kind == ANNOUNCEMENT and origin is None:
            raise EventFormatError(f"line {lineno}: missing field 'origin_asn'")
        if origin is not None and (not isinstance(origin, int) or origin < 0):
            raise EventFormatError(f"line {lineno}: origin_asn must be a nonnegative integer")
        peer = rec.get("peer_asn")
        if peer is not None and (not isinstance(peer, int) or peer < 0):
            raise EventFormatError(f"line {lineno}: peer_asn must be a nonnegative integer")
        try:
            _check_prefix(prefix)
        except EventFormatError as exc:
            raise EventFormatError(f"line {lineno}: {exc}") from exc
        yield AnnouncementEvent(
            timestamp=ts,
            collector=collector,
            prefix=prefix,
            kind=kind,
            origin_asn=origin,
            peer_asn=peer,
            ambiguous_origin=bool(rec.get("ambiguous_origin", False)),
        )


def write_event_lines(events: Iterable[AnnouncementEvent], out: IO[str]) -> int:
    """Write events in the canonical format, one per line. Returns line count."""
    n = 0
    for ev in events:
        out.write(ev.to_line())
        out.write("\n")
        n += 1
    return n


def _usable(ev: AnnouncementEvent) -> bool:
    # Withdrawals and ambiguous origins never contribute to statistics.
    return ev.kind == ANNOUNCEMENT and not ev.ambiguous_origin


def _series_events(
    events: Iterable[AnnouncementEvent], origin_asn: int, collector: str
) -> Iterator[AnnouncementEvent]:
    for ev in events:
        if _usable(ev) and ev.origin_asn == origin_asn and ev.collector == collector:
            yield ev


def build_series(
    events: Iterable[AnnouncementEvent], origin_asn: int, collector: str
) -> EventSeries:
    """Announcement timestamps for (origin_asn, collector), sorted.

    Duplicate timestamps are preserved: each announcement is its own event
    even when several arrive within the same second.
    """
    ts = sorted(ev.timestamp for ev in _series_events(events, origin_asn, collector))
    return EventSeries(origin_asn, collector, tuple(ts))


def build_volume_series(
    events: Iterable[AnnouncementEvent], origin_asn: int, collector: str
) -> VolumeSeries:
    """Unique announced prefixes per second for (origin_asn, collector)."""
    per_second: dict[int, set[str]] = {}
    for ev in _series_events(events, origin_asn, collector):
        per_second.setdefault(ev.timestamp, set()).add(ev.prefix)
    points = tuple((ts, len(per_second[ts])) for ts in sorted(per_second))
    return VolumeSeries(origin_asn, collector, points)


def series_keys(
    events: Iterable[AnnouncementEvent],
) -> dict[tuple[int, str], list[AnnouncementEvent]]:
    """Usable announcements grouped by (origin_asn, collector) in one pass.

    Keys come in sorted order and each bucket keeps input order.  Building a
    series from a key's bucket gives the same result as building it from the
    whole event list, at the cost of the bucket instead of the list.
    """
    groups: dict[tuple[int, str], list[AnnouncementEvent]] = {}
    for ev in events:
        if _usable(ev):
            groups.setdefault((ev.origin_asn, ev.collector), []).append(ev)
    return {key: groups[key] for key in sorted(groups)}


def write_volume_csv(volume: VolumeSeries, out: IO[str]) -> None:
    out.write("ts,count\n")
    for ts, count in volume.points:
        out.write(f"{ts},{count}\n")
