"""Hypothesis strategies for canonical event lines, in and out of writer form.

`event_lines` draws lists of lines that the frozen reference reader in
ref_events.py accepts: most are AnnouncementEvent.to_line() output, the
rest are the same events written another way (escapes, raw non-ASCII,
key order, spacing, `\\r`, explicit defaults), blank, or only whitespace
that str.strip() removes (`\\x85` and `\\u2028` among it).  Half of the
lists carry one more line at a random place that breaks the contract or
leaves writer form (leading zeros, other JSON types for integers,
integers of 18 digits and more, a lone surrogate in the collector, an
announcement without origin, bad prefixes, trailing garbage).  Readers
must treat every line exactly as the reference reader does.
"""

from __future__ import annotations

import json

from hypothesis import strategies as st

from bgpburst.events import ANNOUNCEMENT, WITHDRAWAL, AnnouncementEvent

COLLECTORS = ["rrc00", "route-views.linx", "a b", "", 'q"uote', "back\\slash", "tab\t", "é☃", "\x7f"]
PREFIXES = [
    "10.0.0.0/8", "192.0.2.1/24", "0.0.0.0/0", "255.255.255.255/32", "10.0.0.0/255.0.0.0",
    "1.2.3.4", "10.0.0.0/08", "2001:db8::/32", "2001:DB8::/32", "::ffff:1.2.3.0/120",
    "::1.2.3.4/128", "::/0",
]
BAD_PREFIXES = ["010.0.0.0/8", "10.0.0.0/33", "256.0.0.0/8", "2001:db8::/129", "", "x"]
# Lines that strip() leaves empty: the readers end a line at "\n" alone.
WHITESPACE = [" ", "\t", " \r", "\x0c", "\x85", "\u2028"]


def _events(prefixes):
    return st.builds(
        lambda ts, collector, prefix, withdrawal, origin, peer, ambiguous: AnnouncementEvent(
            ts, collector, prefix, WITHDRAWAL if withdrawal else ANNOUNCEMENT,
            origin_asn=origin if origin is not None or withdrawal else 0,
            peer_asn=peer, ambiguous_origin=ambiguous,
        ),
        ts=st.integers(min_value=0, max_value=40),
        collector=st.sampled_from(COLLECTORS),
        prefix=st.sampled_from(prefixes),
        withdrawal=st.booleans(),
        origin=st.one_of(st.none(), st.integers(min_value=0, max_value=3), st.just(2**32 - 1)),
        peer=st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
        ambiguous=st.booleans(),
    )


def _record(line: str) -> dict:
    return json.loads(line)


def _compact(rec: dict) -> str:
    return json.dumps(rec, separators=(",", ":"))


def _first_char_escaped(line: str) -> str:
    text = _compact(_record(line))
    key = '"collector":"'
    at = text.index(key) + len(key)
    if text[at] in '"\\':
        return text
    return f"{text[:at]}\\u{ord(text[at]):04x}{text[at + 1:]}"


def _set(key, value):
    def mutate(line: str) -> str:
        rec = _record(line)
        rec[key] = value
        return _compact(rec)

    return mutate


# The same event written another way: the reader must take it.
REWRITES = [
    lambda line: json.dumps(_record(line), separators=(",", ":"), ensure_ascii=False),
    _first_char_escaped,
    lambda line: _compact(dict(reversed(_record(line).items()))),
    lambda line: json.dumps(_record(line)),
    lambda line: f"  {line}\r",
    lambda line: "".join(WHITESPACE) + line + "".join(reversed(WHITESPACE)),
    lambda line: line.replace(",", ",\r", 1),
    lambda line: line.replace('"type":"', '"type" :"', 1),
    lambda line: line[:-1] + ',"ambiguous_origin":false}',
]
# Lines the reader must reject, or take only as the reference reader does.
BREAKS = [
    lambda line: line.replace('"ts":', '"ts":0', 1),
    lambda line: line.replace('"origin_asn":', '"origin_asn":0', 1),
    _set("ts", True),
    _set("ts", 1.0),
    _set("ts", -1),
    _set("ts", 10**18 - 1),
    _set("ts", 10**18),
    _set("ts", 10**400),
    lambda line: line.replace('"ts":', '"ts":' + "9" * 5000, 1),
    _set("origin_asn", 10**18),
    _set("peer_asn", 10**19),
    _set("collector", "c\ud800"),
    _set("origin_asn", 1.0),
    _set("origin_asn", True),
    _set("peer_asn", False),
    _set("prefix", 5),
    _set("type", "X"),
    lambda line: _compact({k: v for k, v in _record(line).items() if k != "origin_asn"}),
    lambda line: line.replace('"prefix":"', '"prefix":"::ffff:', 1),
    lambda line: line + "x",
]

_good = _events(PREFIXES)
writer_lines = _good.map(AnnouncementEvent.to_line)
good_lines = st.one_of(
    writer_lines,
    st.builds(lambda ev, rewrite: rewrite(ev.to_line()), _good, st.sampled_from(REWRITES)),
    st.sampled_from(["", *WHITESPACE]),
)
bad_lines = st.one_of(
    _events(BAD_PREFIXES).map(AnnouncementEvent.to_line),
    st.builds(lambda ev, brk: brk(ev.to_line()), _good, st.sampled_from(BREAKS)),
)
# Good lines, with at most one other line inserted at a random place.
event_lines = st.builds(
    lambda good, bad, at: good if bad is None else good[:at] + [bad] + good[at:],
    st.lists(good_lines, max_size=12),
    st.one_of(st.none(), bad_lines),
    st.integers(min_value=0, max_value=12),
)
