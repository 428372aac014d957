"""Normalized announcement events, canonical line format, and series builders.

A canonical line has one validating reader, which parse_event_lines turns
into an AnnouncementEvent per line; MRT dumps and synthetic streams give
events too.  Canonical text is read in runs of whole lines, each matched
once by one regex split: its lines in the form every writer emits give
the matches, and only the lines between them go to the line reader.  A
per-(origin AS, collector) series is built from its timestamp and prefix
columns, which series_from_columns and volume_from_columns turn into the
timestamp series and per-second unique-prefix volume series that feed all
downstream statistics.  read_groups goes from canonical text straight to every
series' columns in one pass, without an event per line, and series_keys
gives the same columns from events in memory; build_series and
build_volume_series build one pair's series from series_keys.
"""

from __future__ import annotations

import ipaddress
import json
import re
import reprlib

# socket's own functions, from its C module: socket.py builds enums on import.
from _socket import AF_INET6, inet_ntop, inet_pton
from bisect import bisect_left
from itertools import compress, islice, repeat
from operator import countOf, ge, gt
from typing import IO, Iterable, Iterator

from .fields import INT_DIGITS, INT_LIMIT, OF_DIGITS as _OF_DIGITS, utf8_text

ANNOUNCEMENT = "announcement"
WITHDRAWAL = "withdrawal"

_KIND_CODE = {ANNOUNCEMENT: "A", WITHDRAWAL: "W"}
_CODE_KIND = {"A": ANNOUNCEMENT, "W": WITHDRAWAL}


class EventFormatError(ValueError):
    """A canonical event line is missing fields or cannot be parsed."""


# Dotted-quad IPv4 prefixes in the form every writer emits: octets 0-255
# without leading zeros, length 0-32.  Each match is also accepted by
# ipaddress; anything else is left to ipaddress, which owns the error text.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4_PREFIX = re.compile(rf"(?:{_OCTET}\.){{3}}{_OCTET}/(?:3[0-2]|[12]?[0-9])")
# IPv6 prefixes whose address is its own inet_ntop form (how mrt writes every
# address but the IPv4-mapped and -compatible ones), length 0-128 without a
# leading zero.  ipaddress accepts each of them.
_IPV6_PREFIX = re.compile(r"([0-9a-f:.]+)/(12[0-8]|1[01][0-9]|[1-9]?[0-9])")


def _check_prefix(prefix: str) -> None:
    if _IPV4_PREFIX.fullmatch(prefix):
        return
    v6 = _IPV6_PREFIX.fullmatch(prefix)
    if v6 is not None:
        addr = v6[1]
        try:
            if inet_ntop(AF_INET6, inet_pton(AF_INET6, addr)) == addr:
                return
        except OSError:  # not an IPv6 address; ipaddress words the error
            pass
    try:
        ipaddress.ip_network(prefix, strict=False)
    except ValueError as exc:  # its text only repeats the prefix
        raise EventFormatError(f"bad prefix {reprlib.repr(prefix)}: not an IPv4 or IPv6 network") from exc


class Record:
    """Value semantics for the package's record classes, without generated code.

    A subclass's fields are its parent's, then its own __slots__ in order.
    The shared __init__ takes the fields by position, then by name, in that
    order; a field left out takes its value from the class's _defaults.  A
    record with rules of its own keeps its own __init__, which checks the
    arguments and then passes every field's value, in order, to
    self._set_fields: DetectorConfig, IncidentWindow, GeneratorSpec,
    IncidentSpec, EventSeries and VolumeSeries for their checks,
    MrtParseResult for its fresh default objects, and AnnouncementEvent,
    the hot path, which writes each slot with its own setter.  Records are
    equal when they are of the same class with equal fields, and repr shows
    Name(field=value, ...).  A plain Record is mutable and so unhashable;
    FrozenRecord is neither.
    """

    __slots__ = ()
    __hash__ = None
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}  # field -> its value when left out

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *values, **named):
        fields = self._fields
        given = len(values)
        if named or given != len(fields):  # else every field by position
            name = self.__class__.__qualname__
            if given > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} fields but {given} were given")
            for field in fields[:given]:
                if field in named:
                    raise TypeError(f"{name}() got field {field!r} by position and by name")
            values = list(values)
            for field in fields[given:]:
                if field in named:
                    values.append(named.pop(field))
                elif field in self._defaults:
                    values.append(self._defaults[field])
                else:
                    raise TypeError(f"{name}() missing field {field!r}")
            if named:
                raise TypeError(f"{name}() got an unknown field {next(iter(named))!r}")
        self._set_fields(*values)

    def _set_fields(self, *values) -> None:
        """Write one value per field, in order, past FrozenRecord.__setattr__."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild a record through __init__ and its checks.
        return self.__class__, self._values()

    def as_dict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self._fields, self._values()))


class FrozenRecord(Record):
    """A Record whose fields stay as __init__ set them, hashed by their values.

    __init__ writes the fields past the __setattr__ here, which refuses every
    later assignment: with Record._set_fields, or with each slot's own setter
    in AnnouncementEvent.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AnnouncementEvent(FrozenRecord):
    """One BGP announcement or withdrawal seen at a collector (1 s accuracy)."""

    __slots__ = (
        "timestamp", "collector", "prefix", "kind", "origin_asn", "peer_asn", "ambiguous_origin",
    )

    def __init__(
        self,
        timestamp: int,
        collector: str,
        prefix: str,
        kind: str,
        origin_asn: int | None = None,
        peer_asn: int | None = None,
        ambiguous_origin: bool = False,
    ):
        if timestamp < 0:
            raise ValueError(f"negative timestamp {timestamp}")
        if kind not in _KIND_CODE:
            raise ValueError(f"unknown event kind {kind!r}")
        if kind == ANNOUNCEMENT and origin_asn is None:
            raise ValueError("announcement without origin_asn")
        if (origin_asn or 0) < 0 or (peer_asn or 0) < 0:  # to_line() would be unreadable
            raise ValueError(f"negative AS number in origin_asn={origin_asn}, peer_asn={peer_asn}")
        _set_timestamp(self, timestamp)
        _set_collector(self, collector)
        _set_prefix(self, prefix)
        _set_kind(self, kind)
        _set_origin_asn(self, origin_asn)
        _set_peer_asn(self, peer_asn)
        _set_ambiguous_origin(self, ambiguous_origin)

    def to_line(self) -> str:
        """Compact JSON with keys in canonical order; optional keys omitted."""
        head, tail = line_parts(
            self.timestamp, json.dumps(self.collector), self.peer_asn,
            self.kind, self.origin_asn, self.ambiguous_origin,
        )
        return head + json.dumps(self.prefix) + tail


# One event is built per canonical line, NLRI prefix or simulated announcement,
# so its slots' own setters write it: 0.62 us against 1.65 us through
# Record._set_fields (median of timeit runs, CPython 3.11, one Xeon core).
(
    _set_timestamp, _set_collector, _set_prefix, _set_kind,
    _set_origin_asn, _set_peer_asn, _set_ambiguous_origin,
) = (getattr(AnnouncementEvent, name).__set__ for name in AnnouncementEvent.__slots__)


def line_parts(
    timestamp: int,
    collector_json: str,
    peer_asn: int | None,
    kind: str,
    origin_asn: int | None,
    ambiguous_origin: bool,
) -> tuple[str, str]:
    """The writer form of an event around its prefix, as (head, tail).

    `collector_json` is json.dumps(collector); the event's line is head +
    json.dumps(prefix) + tail.  Writers that emit many events of one
    update or one collector build the parts once and reuse them.
    """
    peer = "" if peer_asn is None else f',"peer_asn":{peer_asn}'
    origin = "" if origin_asn is None else f',"origin_asn":{origin_asn}'
    ambiguous = ',"ambiguous_origin":true' if ambiguous_origin else ""
    return (
        f'{{"ts":{timestamp},"collector":{collector_json}{peer},"prefix":',
        f'{origin},"type":"{_KIND_CODE[kind]}"{ambiguous}}}',
    )


class EventSeries(FrozenRecord):
    """Announcement timestamps for one (origin AS, collector) pair, sorted."""

    __slots__ = ("origin_asn", "collector", "timestamps")

    def __init__(self, origin_asn: int, collector: str, timestamps: tuple[int, ...]):
        if any(map(gt, timestamps, islice(timestamps, 1, None))):
            raise ValueError("timestamps must be nondecreasing")
        self._set_fields(origin_asn, collector, timestamps)

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



class VolumeSeries(FrozenRecord):
    """Per-second unique announced prefix counts for one (origin AS, collector), as columns."""

    __slots__ = ("origin_asn", "collector", "timestamps", "counts")

    def __init__(
        self, origin_asn: int, collector: str, timestamps: tuple[int, ...], counts: tuple[int, ...]
    ):
        if len(timestamps) != len(counts):
            raise ValueError(f"{len(timestamps)} volume timestamps but {len(counts)} counts")
        if min(counts, default=1) < 1:
            ts, count = next(compress(zip(timestamps, counts), map(gt, repeat(1), counts)))
            raise ValueError(f"volume count {count} < 1 at ts {ts}")
        if any(map(ge, timestamps, islice(timestamps, 1, None))):
            raise ValueError("volume timestamps must be strictly increasing")
        self._set_fields(origin_asn, collector, timestamps, counts)

    def __len__(self) -> int:
        return len(self.timestamps)


_raw_decode = json.JSONDecoder().raw_decode


def _load_record(line: str):
    """json.loads for one stripped line, without its per-call overhead."""
    try:
        rec, end = _raw_decode(line)
        if end == len(line):
            return rec
    except json.JSONDecodeError:
        pass
    return json.loads(line)  # fails as well, with json's own message


def _parse_line(line: str, lineno: int) -> tuple[int, str, str, str, int | None, int | None, bool]:
    """The validating reader of one stripped, nonblank canonical line.

    Returns the event's fields in AnnouncementEvent's slot order.
    """
    try:
        rec = _load_record(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise EventFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
    except ValueError as exc:  # json's int() of over 4300 digits
        raise EventFormatError(f"line {lineno}: an integer has more than {INT_DIGITS} digits") from exc
    if not isinstance(rec, dict):
        raise EventFormatError(f"line {lineno}: expected an object")
    try:
        ts = rec["ts"]
        collector = rec["collector"]
        prefix = rec["prefix"]
        code = rec["type"]
    except KeyError as exc:
        raise EventFormatError(f"line {lineno}: missing field {exc.args[0]!r}") from exc
    # type() rather than isinstance(): JSON true/false decode to bool,
    # which is an int subclass.
    if type(ts) is not int or not 0 <= ts < INT_LIMIT:
        raise EventFormatError(f"line {lineno}: ts must be a nonnegative integer{_OF_DIGITS}")
    if not utf8_text(collector):
        raise EventFormatError(f"line {lineno}: collector must be a string without lone surrogates")
    if type(prefix) is not str:
        raise EventFormatError(f"line {lineno}: prefix must be a string")
    kind = _CODE_KIND.get(code) if type(code) is str else None
    if kind is None:
        raise EventFormatError(f"line {lineno}: type must be 'A' or 'W', got {code!r}")
    origin = rec.get("origin_asn")
    if kind == ANNOUNCEMENT and origin is None:
        raise EventFormatError(f"line {lineno}: missing field 'origin_asn'")
    if origin is not None and (type(origin) is not int or not 0 <= origin < INT_LIMIT):
        raise EventFormatError(f"line {lineno}: origin_asn must be a nonnegative integer{_OF_DIGITS}")
    peer = rec.get("peer_asn")
    if peer is not None and (type(peer) is not int or not 0 <= peer < INT_LIMIT):
        raise EventFormatError(f"line {lineno}: peer_asn must be a nonnegative integer{_OF_DIGITS}")
    ambiguous = rec.get("ambiguous_origin", False)
    if type(ambiguous) is not bool:
        raise EventFormatError(f"line {lineno}: ambiguous_origin must be true or false")
    try:
        _check_prefix(prefix)
    except EventFormatError as exc:
        raise EventFormatError(f"line {lineno}: {exc}") from exc
    return ts, collector, prefix, kind, origin, peer, ambiguous


# One line exactly as AnnouncementEvent.to_line writes it.  json.dumps
# escapes `"`, `\`, control characters and non-ASCII, so an unescaped
# printable-ASCII string decodes to its own text; integers carry no sign or
# leading zero, and have at most INT_DIGITS.  Groups: ts, collector, prefix,
# origin_asn, type code, ambiguous flag.  peer_asn, which no row uses, has
# none: a seventh group makes each split ~6% slower.
_INT = rf"(?:[1-9][0-9]{{0,{INT_DIGITS - 1}}}|0)"
_TEXT = r'[ !#-\[\]-~]*'
_WRITER_FORM = (
    rf'\{{"ts":({_INT}),"collector":"({_TEXT})"(?:,"peer_asn":{_INT})?,'
    rf'"prefix":"({_TEXT})"(?:,"origin_asn":({_INT}))?,'
    rf'"type":"([AW])"(,"ambiguous_origin":true)?\}}'
)
# Every line of a text that is in writer form once stripped: a line ending
# in "\r\n" is one, and strip() takes nothing else off a writer-form line.
_WRITER_LINES = re.compile(rf"^{_WRITER_FORM}\r?$", re.MULTILINE)
# The length of a run of lines before it is extended to the end of its last
# line: ~600 lines per split, while a run's columns stay small.
_CHUNK_CHARS = 1 << 16


def parse_event_lines(source: Iterable[str] | IO[str]) -> Iterator[AnnouncementEvent]:
    """Parse canonical line-delimited events; blank lines are ignored.

    One AnnouncementEvent per stripped, nonblank line, read by the one
    validating reader of a line.  Raises EventFormatError with the 1-based
    line number on any bad line.
    """
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if line:
            yield AnnouncementEvent(*_parse_line(line, lineno))


def _rows_accepted(columns: list[list], known: dict[str, str]) -> bool:
    """Whether every row announces with an origin and has a prefix that
    _check_prefix takes; the new prefixes are added to `known`."""
    _, _, prefixes, origins, codes, _ = columns
    if (None, "A") in zip(origins, codes):
        return False
    for prefix in set(prefixes).difference(known):
        try:
            _check_prefix(prefix)
        except EventFormatError:
            return False
        known[prefix] = prefix
    return True


def _text_runs(text: str, known: dict[str, str]) -> Iterator[tuple[list[list], str]]:
    """Cut canonical text into runs of whole lines of about _CHUNK_CHARS.

    Yields (columns, run) per run, matched once by _WRITER_LINES.split:
    columns are its events' groups as six lists (ts, collector, prefix,
    origin_asn, type code, ambiguous flag; a str, or None for an optional
    group left out), and run is the same events in writer form, each line
    ended by "\n".  A run of writer-form lines is its own text (without
    "\r"); in any other, _read_gaps reads the lines between the matches.  A
    run with a row that announces without an origin, or with a prefix that
    _check_prefix refuses, is read by _parse_line whole, which raises at its
    first bad line.  Every prefix read is added to `known`.
    """
    start, lineno, size = 0, 1, len(text)
    while start < size:
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or size
        run = text[start:end]
        parts = _WRITER_LINES.split(run)
        columns = [parts[group::7] for group in range(1, 7)]
        if not _rows_accepted(columns, known):
            parts, columns = [run], [[] for _ in columns]
        gaps = parts[::7]
        if gaps[0] or gaps.count("\n") < len(columns[0]):
            run, lineno = _read_gaps(run, gaps, columns, lineno, known)
        else:  # every line is a match, and ends in "\n"
            lineno += len(columns[0])
        if "\r" in run:  # a fast search, where replace() counts first
            run = run.replace("\r", "")
        yield columns, run
        start = end


def _read_gaps(run: str, gaps: list, columns: list, lineno: int, known: dict) -> tuple[str, int]:
    """The writer-form text of a run with lines out of writer form, and the
    number of the next run's first line.

    A writer-form line always matches at the start of its line, so gaps[i],
    the text before the run's i-th match (or after its last), holds exactly
    the lines out of writer form there; past the first gap, each opens with
    the "\n" that ends the match before it.  Each nonblank line of a gap is
    read by _parse_line, and its row is spliced into `columns` before the match.
    """
    pieces, at, added, last, before = [], 0, 0, len(gaps) - 1, -1
    read = [i for i, gap in enumerate(gaps) if gap != "\n"]
    if gaps[0] == "\n":  # a blank first line: no match's "\n" opens the first gap
        read.insert(0, 0)
    for i in read:
        gap = gaps[i]
        # No writer-form line between gaps holds a gap's text; the next match's start speeds find.
        pos = 0 if i == 0 else len(run) - len(gap) if i == last else run.find(
            f'{gap}{{"ts":{columns[0][i + added]}', at)
        pieces.append(run[at:pos])
        rows, forms = [], ["\n"] if i else []
        # From the line of the match before the gap; matches are one line each.
        for lineno, line in enumerate(gap.split("\n"), lineno + i - 1 - before):
            line = line.strip()
            if line:
                ts, collector, prefix, kind, origin, peer, ambiguous = _parse_line(line, lineno)
                prefix = known.setdefault(prefix, prefix)
                rows.append((str(ts), collector, prefix, None if origin is None else str(origin),
                             _KIND_CODE[kind], ',"ambiguous_origin":true' if ambiguous else None))
                head, tail = line_parts(ts, json.dumps(collector), peer, kind, origin, ambiguous)
                forms.append(head + json.dumps(prefix) + tail + "\n")
        pieces += forms
        for column, values in zip(columns, zip(*rows)):
            column[i + added:i + added] = values
        added, at, before = added + len(rows), pos + len(gap), i
    pieces.append(run[at:])
    return "".join(pieces), lineno + last - before


def copy_event_text(
    text: str, out: IO[str], collector: str | None = None, asn: int | None = None
) -> tuple[int, int, int]:
    """Write the events of canonical text to `out` in writer form, one per line.

    Keeps only the events at `collector` and with origin `asn`, where given.
    Returns the counts of events read, of events written and of
    announcements among them.  Each run of _text_runs is written as its
    writer-form lines, and a filter keeps the lines whose rows it matches:
    a line in writer form is copied through as it is (without "\r"), and
    every other line is re-serialised from its fields, or rejected with its
    line number, as parse_event_lines reads it.
    """
    filtered = collector is not None or asn is not None
    origin = None if asn is None else str(asn)
    emitted = written = announcements = 0
    for (_, collectors, _, origins, codes, _), run in _text_runs(text, {}):
        emitted += len(codes)
        if filtered:
            keep = [
                (collector is None or c == collector) and (origin is None or o == origin)
                for c, o in zip(collectors, origins)
            ]
            codes = list(compress(codes, keep))
            # "\n" is the one line break in writer form: json.dumps escapes the others.
            run = "".join(compress(run.splitlines(True), keep))
        out.write(run)
        written += len(codes)
        announcements += countOf(codes, "A")
    return emitted, written, announcements


def write_event_lines(events: Iterable[AnnouncementEvent], out: IO[str]) -> int:
    """Write events in the canonical format, one per line. Returns line count."""
    n = 0
    for ev in events:
        out.write(ev.to_line())
        out.write("\n")
        n += 1
    return n


def series_from_columns(origin_asn: int, collector: str, timestamps: Iterable[int]) -> EventSeries:
    """The EventSeries of one pair's announcement timestamps, in any order.

    Duplicate timestamps are preserved: each announcement is its own event
    even when several arrive within the same second.
    """
    return EventSeries(origin_asn, collector, tuple(sorted(timestamps)))


def volume_from_columns(
    origin_asn: int, collector: str, timestamps: Iterable[int], prefixes: Iterable[str]
) -> VolumeSeries:
    """The VolumeSeries of one pair's announcements, given as parallel columns."""
    per_second: dict[int, set[str]] = {}
    for ts, prefix in zip(timestamps, prefixes):
        seen = per_second.get(ts)
        if seen is None:
            per_second[ts] = {prefix}
        else:
            seen.add(prefix)
    stamps = sorted(per_second)
    counts = tuple(map(len, map(per_second.__getitem__, stamps)))
    return VolumeSeries(origin_asn, collector, tuple(stamps), counts)


def series_keys(
    events: Iterable[AnnouncementEvent],
) -> dict[tuple[int, str], tuple[list[int], list[str]]]:
    """Events in memory to per-series columns, in one pass: read_groups' twin.

    Returns what read_groups returns for the events' lines: every (origin
    AS, collector) pair with a usable announcement, keys sorted, to its
    (timestamps, prefixes) columns in input order.
    """
    groups: dict[tuple[int, str], tuple[list[int], list[str]]] = {}
    for ev in events:
        # Withdrawals and ambiguous origins never contribute to statistics.
        if ev.kind == ANNOUNCEMENT and not ev.ambiguous_origin:
            columns = groups.get((ev.origin_asn, ev.collector))
            if columns is None:
                columns = groups[ev.origin_asn, ev.collector] = ([], [])
            columns[0].append(ev.timestamp)
            columns[1].append(ev.prefix)
    return {key: groups[key] for key in sorted(groups)}


def build_series(
    events: Iterable[AnnouncementEvent], origin_asn: int, collector: str
) -> EventSeries:
    """Announcement timestamps for (origin_asn, collector), sorted."""
    timestamps, _ = series_keys(events).get((origin_asn, collector), ((), ()))
    return series_from_columns(origin_asn, collector, timestamps)


def build_volume_series(
    events: Iterable[AnnouncementEvent], origin_asn: int, collector: str
) -> VolumeSeries:
    """Unique announced prefixes per second for (origin_asn, collector)."""
    timestamps, prefixes = series_keys(events).get((origin_asn, collector), ((), ()))
    return volume_from_columns(origin_asn, collector, timestamps, prefixes)


def read_groups(
    text: str, prefixes: bool = True
) -> dict[tuple[int, str], tuple[list[int], list[str]] | tuple[list[int]]]:
    """Canonical text straight to per-series columns, in one pass.

    series_keys(parse_event_lines(lines)) == read_groups("\n".join(lines)):
    every pair with a usable announcement, keys sorted, to its (timestamps,
    prefixes) columns in input order.  Pass the columns to series_from_columns
    and volume_from_columns.  With prefixes=False the prefix column is left
    out and each value is (timestamps,).  Lines are read, and rejected, as by
    parse_event_lines; the text is read in runs of whole lines, each run of
    writer-form lines by one regex call.
    """
    known: dict[str, str] = {}
    # (origin text, collector) -> columns; every origin text is an integer's own digits.
    by_text: dict[tuple[str, str], tuple[list, ...]] = {}
    for columns, _ in _text_runs(text, known):
        for ts, collector, prefix, origin, code, ambiguous in zip(*columns):
            # Withdrawals and ambiguous origins never contribute to statistics.
            if code == "A" and ambiguous is None:
                columns = by_text.get((origin, collector))
                if columns is None:
                    columns = by_text[origin, collector] = ([], []) if prefixes else ([],)
                columns[0].append(int(ts))
                if prefixes:
                    columns[1].append(known[prefix])
    groups = {(int(origin), collector): columns for (origin, collector), columns in by_text.items()}
    return {key: groups[key] for key in sorted(groups)}
