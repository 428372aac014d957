import contextlib
import io
import ipaddress
import json
import operator
import random
import reprlib
import socket
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import differential
from bgpburst import events
from bgpburst.events import (
    _KIND_CODE,
    ANNOUNCEMENT,
    WITHDRAWAL,
    AnnouncementEvent,
    EventFormatError,
    EventSeries,
    VolumeSeries,
    _check_prefix,
    build_series,
    build_volume_series,
    copy_event_text,
    parse_event_lines,
    read_groups,
    series_from_columns,
    series_keys,
    volume_from_columns,
    write_event_lines,
)
from canonical_lines import WHITESPACE, bad_lines, event_lines, good_lines, writer_lines
from ref_events import ref_groups, ref_parse_lines


def _parse(text):
    return list(parse_event_lines(io.StringIO(text)))


class TestCanonicalFormat:
    def test_announcement_line(self):
        line = (
            '{"ts":1396463160,"collector":"route-views.linx",'
            '"prefix":"10.0.0.0/8","origin_asn":4761,"type":"A"}'
        )
        (ev,) = _parse(line)
        assert ev.timestamp == 1396463160
        assert ev.collector == "route-views.linx"
        assert ev.prefix == "10.0.0.0/8"
        assert ev.origin_asn == 4761
        assert ev.kind == ANNOUNCEMENT
        assert ev.peer_asn is None
        assert not ev.ambiguous_origin

    def test_withdrawal_without_origin(self):
        (ev,) = _parse('{"ts":5,"collector":"c","prefix":"10.0.0.0/8","type":"W"}')
        assert ev.kind == WITHDRAWAL
        assert ev.origin_asn is None

    def test_blank_lines_ignored(self):
        text = '\n{"ts":1,"collector":"c","prefix":"10.0.0.0/8","origin_asn":1,"type":"A"}\n\n'
        assert len(_parse(text)) == 1

    def test_missing_field_reports_line_number(self):
        text = (
            '{"ts":1,"collector":"c","prefix":"10.0.0.0/8","origin_asn":1,"type":"A"}\n'
            '{"ts":2,"collector":"c","type":"A","origin_asn":1}\n'
        )
        with pytest.raises(EventFormatError, match="line 2.*prefix"):
            _parse(text)

    def test_announcement_requires_origin(self):
        with pytest.raises(EventFormatError, match="origin_asn"):
            _parse('{"ts":1,"collector":"c","prefix":"10.0.0.0/8","type":"A"}')

    def test_unparseable_prefix(self):
        with pytest.raises(EventFormatError, match="line 1.*prefix"):
            _parse('{"ts":1,"collector":"c","prefix":"10.0.0.0/99","origin_asn":1,"type":"A"}')

    def test_bad_json(self):
        with pytest.raises(EventFormatError, match="line 1"):
            _parse("not json")

    def test_bad_type_code(self):
        with pytest.raises(EventFormatError, match="'A' or 'W'"):
            _parse('{"ts":1,"collector":"c","prefix":"10.0.0.0/8","origin_asn":1,"type":"X"}')

    @pytest.mark.parametrize(
        "line", ["not json", '{"ts":1} {}', '{"ts":1}x', "\ufeff{}", "{", '{"a":1,}', "[1]]", '"x"y']
    )
    def test_bad_json_keeps_json_error_text(self, line):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line)
        with pytest.raises(EventFormatError) as err:
            _parse(line)
        assert str(err.value) == f"line 1: invalid JSON: {expected.value}"

    def test_deeply_nested_line(self):
        with pytest.raises(EventFormatError, match="line 2: invalid JSON: maximum recursion"):
            _parse("\n" + "[" * 100_000)

    def test_unhashable_type_code(self):
        with pytest.raises(EventFormatError, match="line 1.*'A' or 'W'"):
            _parse('{"ts":1,"collector":"c","prefix":"10.0.0.0/8","origin_asn":1,"type":["A"]}')


GOOD = {"ts": 1, "collector": "c", "prefix": "10.0.0.0/8", "origin_asn": 1, "peer_asn": 2, "type": "A"}


def _parse_second_line(**changes):
    """Parse a good line followed by GOOD with `changes` applied."""
    return _parse(json.dumps(GOOD) + "\n" + json.dumps({**GOOD, **changes}))


class TestTypeContract:
    """Each field has one JSON type; bool is not an integer here."""

    @pytest.mark.parametrize("fields", [{"origin_asn": -7}, {"origin_asn": 1, "peer_asn": -1}])
    def test_event_with_a_line_its_reader_rejects_is_not_built(self, fields):
        with pytest.raises(ValueError, match="negative AS number"):
            AnnouncementEvent(1, "c", "10.0.0.0/8", ANNOUNCEMENT, **fields)

    @pytest.mark.parametrize("field", ["ts", "origin_asn", "peer_asn"])
    @pytest.mark.parametrize("value", [True, False, 1.0, "1"])
    def test_non_integer_fields_rejected(self, field, value):
        with pytest.raises(EventFormatError, match=f"line 2: {field} must be a nonnegative integer"):
            _parse_second_line(**{field: value})

    @pytest.mark.parametrize("value", [5, None, ["10.0.0.0/8"], {"p": 1}, True])
    def test_non_string_prefix_rejected(self, value):
        with pytest.raises(EventFormatError, match="line 2: prefix must be a string"):
            _parse_second_line(prefix=value)

    @pytest.mark.parametrize("value", [5, None, ["c"], {"c": 1}, False])
    def test_non_string_collector_rejected(self, value):
        with pytest.raises(EventFormatError, match="line 2: collector must be a string"):
            _parse_second_line(collector=value)

    @pytest.mark.parametrize("value", [1, 0, None, "true", [], 1.0])
    def test_non_boolean_ambiguous_origin_rejected(self, value):
        with pytest.raises(EventFormatError, match="line 2: ambiguous_origin must be true or false"):
            _parse_second_line(ambiguous_origin=value)


def _ipaddress_verdict(text):
    try:
        ipaddress.ip_network(text, strict=False)
    except ValueError:
        return f"bad prefix {reprlib.repr(text)}: not an IPv4 or IPv6 network"
    return None


def _check_verdict(text):
    try:
        _check_prefix(text)
    except EventFormatError as exc:
        return str(exc)
    return None


_octets = st.lists(st.integers(0, 255), min_size=4, max_size=4)
_MUTATIONS = [
    lambda o, n: f"{'.'.join(map(str, o))}/{n}",
    lambda o, n: f"{'.'.join(map(str, o))}/0{n}",
    lambda o, n: f"0{'.'.join(map(str, o))}/{n}",
    lambda o, n: f"{o[0]}.0{o[1]}.{o[2]}.{o[3]}/{n}",
    lambda o, n: f"{'.'.join(map(str, o))}/{n + 33}",
    lambda o, n: f"{'.'.join(map(str, o))}/{n}\n",
    lambda o, n: f" {'.'.join(map(str, o))}/{n} ",
    lambda o, n: f"{'.'.join(map(str, o))}/{n}".replace("1", "\u0661"),
    lambda o, n: f"{'.'.join(map(str, o))}/{n}".replace("2", "\uff12"),
    lambda o, n: f"{'.'.join(map(str, o))}/{ipaddress.IPv4Network((0, n)).netmask}",
    lambda o, n: f"{'.'.join(map(str, o))}/{ipaddress.IPv4Network((0, n)).hostmask}",
    lambda o, n: ".".join(map(str, o)),
    lambda o, n: f"{'.'.join(map(str, o[:3]))}/{n}",
    lambda o, n: f"{'.'.join(map(str, o))}.{o[0]}/{n}",
    lambda o, n: f"{o[0] + 256}.{o[1]}.{o[2]}.{o[3]}/{n}",
    lambda o, n: f"{'.'.join(map(str, o))}/{n}/{n}",
    lambda o, n: f"::ffff:{'.'.join(map(str, o))}/{n + 96}",
    lambda o, n: f"{o[0]:x}:{o[1]:x}::{o[2]:X}/{n * 4}",
]
_mutated = st.builds(lambda o, n, f: f(o, n), _octets, st.integers(0, 32), st.sampled_from(_MUTATIONS))
prefix_texts = st.one_of(
    _mutated,
    st.builds(
        lambda text, i, c: text[: i % len(text)] + c + text[i % len(text) + 1 :],
        _mutated,
        st.integers(0, 40),
        st.sampled_from(["\u0661", "\uff12", "\u0663", "0", "9", "/", ".", "\n", " "]),
    ),
    st.text(alphabet="0123456789./:abcdefABCDEF \n\t\u0661\uff12x%-", max_size=24),
    st.text(max_size=12),
)


@settings(max_examples=1000)
@given(prefix_texts)
def test_check_prefix_accepts_what_ipaddress_accepts(text):
    assert _check_verdict(text) == _ipaddress_verdict(text)


def _v4_tail(a):
    return ipaddress.IPv4Address(a.packed[12:])


_V6_FORMS = [
    lambda a, n: f"{a.compressed}/{n}",
    lambda a, n: f"{socket.inet_ntop(socket.AF_INET6, a.packed)}/{n}",
    lambda a, n: f"{a.exploded}/{n}",
    lambda a, n: f"{a.compressed.upper()}/{n}",
    lambda a, n: ":".join(f"{int(g, 16):04x}" if g else "" for g in a.compressed.split(":")) + f"/{n}",
    lambda a, n: f"0{a.compressed}/{n}",
    lambda a, n: f"::ffff:{_v4_tail(a)}/{n}",
    lambda a, n: f"::{_v4_tail(a)}/{n}",
    lambda a, n: f"64:ff9b::{_v4_tail(a)}/{n}",
    lambda a, n: f"::ffff:0{_v4_tail(a)}/{n}",
    lambda a, n: f"{a.compressed}%eth0/{n}",
    lambda a, n: f"{a.compressed}%{n}/{n}",
    lambda a, n: f"{a.compressed}/0{n}",
    lambda a, n: f"{a.compressed}/{n + 129}",
    lambda a, n: f"{a.compressed}/-{n}",
    lambda a, n: f"{a.compressed}/",
    lambda a, n: a.compressed,
    lambda a, n: f"{a.compressed}:/{n}",
    lambda a, n: f"{a.compressed}::1/{n}",
    lambda a, n: f"{a.compressed}/{n}".replace("1", "\u0661"),
]
_v6_addresses = st.one_of(
    st.binary(min_size=16, max_size=16),
    st.lists(st.sampled_from([0, 0, 0, 1, 0xDB8, 0x2001, 0xFFFF]), min_size=8, max_size=8).map(
        lambda groups: b"".join(g.to_bytes(2, "big") for g in groups)
    ),
    st.binary(min_size=4, max_size=4).map(lambda v4: bytes(10) + b"\xff\xff" + v4),
    st.binary(min_size=4, max_size=4).map(lambda v4: bytes(12) + v4),
).map(ipaddress.IPv6Address)
_v6_mutated = st.builds(
    lambda a, n, f: f(a, n), _v6_addresses, st.integers(0, 128), st.sampled_from(_V6_FORMS)
)
v6_prefix_texts = st.one_of(
    _v6_mutated,
    st.builds(
        lambda text, i, c: text[: i % len(text)] + c + text[i % len(text) + 1 :],
        _v6_mutated,
        st.integers(0, 60),
        st.sampled_from(["0", "f", "F", "g", ":", ".", "/", "%", " ", "\u0661"]),
    ),
    st.text(alphabet="0123456789abcdefABCDEF:./%", max_size=48),
)


@settings(max_examples=1000)
@given(v6_prefix_texts)
def test_check_prefix_ipv6_accepts_what_ipaddress_accepts(text):
    assert _check_verdict(text) == _ipaddress_verdict(text)


def test_long_bad_prefix_gives_a_short_message():
    text = "1" * 100_000
    verdict = _check_verdict(text)
    assert verdict == _ipaddress_verdict(text) and len(verdict) < 100


@pytest.mark.parametrize(
    "text", ["::/0", "2001:db8::/32", "2001:db8:0:1::/64", "::ffff:1.2.3.0/120", "::1/128"]
)
def test_check_prefix_takes_inet_ntop_ipv6_without_ipaddress(text, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ipaddress called")

    monkeypatch.setattr(events.ipaddress, "ip_network", refuse)
    _check_prefix(text)


def _old_to_line(ev):
    """The dict-and-json.dumps writer the canonical format was defined by."""
    rec = {"ts": ev.timestamp, "collector": ev.collector}
    if ev.peer_asn is not None:
        rec["peer_asn"] = ev.peer_asn
    rec["prefix"] = ev.prefix
    if ev.origin_asn is not None:
        rec["origin_asn"] = ev.origin_asn
    rec["type"] = _KIND_CODE[ev.kind]
    if ev.ambiguous_origin:
        rec["ambiguous_origin"] = True
    return json.dumps(rec, separators=(",", ":"))


line_events = st.builds(
    lambda ts, collector, prefix, withdrawal, origin, peer, ambiguous: AnnouncementEvent(
        ts, collector, prefix, WITHDRAWAL if withdrawal else ANNOUNCEMENT,
        origin_asn=origin if origin is not None or withdrawal else 0,
        peer_asn=peer, ambiguous_origin=ambiguous,
    ),
    ts=st.integers(min_value=0, max_value=2**40),
    collector=st.one_of(
        st.sampled_from(["rrc00", "route-views.linx", "", 'q"uote', "back\\slash", "tab\tnl\n", "\u00e9\u2603\U0001f600", "\x00\x1f\x7f"]),
        st.text(max_size=8),
    ),
    prefix=st.one_of(st.sampled_from(["10.0.0.0/8", "2001:db8::/32", "::ffff:1.2.3.0/120"]), st.text(max_size=8)),
    withdrawal=st.booleans(),
    origin=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    peer=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    ambiguous=st.booleans(),
)


@given(line_events)
def test_to_line_matches_dict_encoding(ev):
    assert ev.to_line() == _old_to_line(ev)


events_strategy = st.lists(
    st.builds(
        AnnouncementEvent,
        timestamp=st.integers(min_value=0, max_value=2**32 - 1),
        collector=st.sampled_from(["route-views.linx", "rrc00", "c"]),
        prefix=st.sampled_from(["10.0.0.0/8", "192.0.2.0/24", "2001:db8::/32"]),
        kind=st.just(ANNOUNCEMENT),
        origin_asn=st.integers(min_value=0, max_value=2**32 - 1),
        peer_asn=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
        ambiguous_origin=st.booleans(),
    ),
    max_size=20,
)


class TestRoundTrip:
    @given(events_strategy)
    def test_round_trip_lossless(self, events):
        buf = io.StringIO()
        write_event_lines(events, buf)
        assert _parse(buf.getvalue()) == events

    def test_withdrawal_round_trip(self):
        ev = AnnouncementEvent(9, "c", "10.0.0.0/8", WITHDRAWAL, peer_asn=3356)
        buf = io.StringIO()
        write_event_lines([ev], buf)
        assert _parse(buf.getvalue()) == [ev]

    def test_write_is_deterministic(self):
        events = [
            AnnouncementEvent(1, "c", "10.0.0.0/8", ANNOUNCEMENT, origin_asn=1),
            AnnouncementEvent(2, "c", "10.1.0.0/16", WITHDRAWAL),
        ]
        one, two = io.StringIO(), io.StringIO()
        write_event_lines(events, one)
        write_event_lines(events, two)
        assert one.getvalue() == two.getvalue()


def _ev(ts, asn=4761, collector="linx", prefix="10.0.0.0/8", kind=ANNOUNCEMENT, ambiguous=False):
    return AnnouncementEvent(
        ts, collector, prefix, kind,
        origin_asn=asn if kind == ANNOUNCEMENT else None,
        ambiguous_origin=ambiguous,
    )


class TestBuildSeries:
    def test_filters_to_requested_pair(self):
        events = [_ev(1), _ev(2, asn=1), _ev(3, asn=2), _ev(4), _ev(5, collector="other")]
        series = build_series(events, 4761, "linx")
        assert series.timestamps == (1, 4)
        assert series.origin_asn == 4761 and series.collector == "linx"

    def test_out_of_order_input_sorted(self):
        series = build_series([_ev(30), _ev(10), _ev(20)], 4761, "linx")
        assert series.timestamps == (10, 20, 30)

    def test_withdrawals_excluded(self):
        events = [_ev(1), _ev(2, kind=WITHDRAWAL), _ev(3)]
        assert build_series(events, 4761, "linx").timestamps == (1, 3)

    def test_ambiguous_origin_excluded(self):
        events = [_ev(1), _ev(2, ambiguous=True)]
        assert build_series(events, 4761, "linx").timestamps == (1,)

    def test_duplicate_timestamps_preserved(self):
        assert build_series([_ev(7), _ev(7), _ev(7)], 4761, "linx").timestamps == (7, 7, 7)

    def test_empty_series_is_valid(self):
        assert build_series([], 4761, "linx").timestamps == ()

    def test_nondecreasing_enforced(self):
        with pytest.raises(ValueError):
            EventSeries(1, "c", (2, 1))

    def test_restrict_half_open(self):
        series = EventSeries(1, "c", (0, 5, 10, 15))
        assert series.restrict(5, 15).timestamps == (5, 10)


class TestBuildVolumeSeries:
    def test_distinct_prefixes_counted_once(self):
        events = [
            _ev(100, prefix="10.0.0.0/8"),
            _ev(100, prefix="10.0.0.0/8"),
            _ev(100, prefix="10.1.0.0/16"),
            _ev(100, prefix="10.1.0.0/16"),
        ]
        vol = build_volume_series(events, 4761, "linx")
        assert (vol.timestamps, vol.counts) == ((100,), (2,))

    def test_one_point_per_active_second(self):
        events = [_ev(100), _ev(200)]
        vol = build_volume_series(events, 4761, "linx")
        assert (vol.timestamps, vol.counts) == ((100, 200), (1, 1))

    def test_matches_group_by_oracle(self):
        rng = random.Random(11)
        prefixes = [f"10.{i}.0.0/16" for i in range(8)]
        events = [
            _ev(rng.randrange(50), prefix=rng.choice(prefixes)) for _ in range(500)
        ]
        vol = build_volume_series(events, 4761, "linx")
        # independent oracle: plain group-by with a set per second
        buckets = {}
        for ev in events:
            buckets.setdefault(ev.timestamp, set()).add(ev.prefix)
        stamps = tuple(sorted(buckets))
        assert vol.timestamps == stamps
        assert vol.counts == tuple(len(buckets[ts]) for ts in stamps)

    def test_other_as_never_leaks_in(self):
        events = [_ev(1), _ev(1, asn=999, prefix="10.9.0.0/16")]
        vol = build_volume_series(events, 4761, "linx")
        assert (vol.timestamps, vol.counts) == ((1,), (1,))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="volume count 0 < 1 at ts 2"):
            VolumeSeries(1, "c", (1, 2), (1, 0))
        with pytest.raises(ValueError, match="strictly increasing"):
            VolumeSeries(1, "c", (2, 2), (1, 1))
        with pytest.raises(ValueError, match="2 volume timestamps but 1 counts"):
            VolumeSeries(1, "c", (1, 2), (1,))


def test_series_keys_sorted_and_deduplicated():
    events = [
        _ev(1, asn=5, collector="b"),
        _ev(2, asn=5, collector="a"),
        _ev(3, asn=5, collector="a", prefix="10.1.0.0/16"),
    ]
    groups = series_keys(events)
    assert list(groups) == [(5, "a"), (5, "b")]
    assert groups[5, "a"] == ([2, 3], ["10.0.0.0/8", "10.1.0.0/16"])
    assert groups[5, "b"] == ([1], ["10.0.0.0/8"])


def test_series_keys_skips_unusable_events():
    events = [_ev(1, kind=WITHDRAWAL), _ev(2, ambiguous=True), _ev(3, asn=7, ambiguous=True)]
    assert series_keys(events) == {}


mixed_events_strategy = st.lists(
    st.builds(
        lambda ts, collector, prefix, withdrawal, origin, ambiguous: AnnouncementEvent(
            ts, collector, prefix, WITHDRAWAL if withdrawal else ANNOUNCEMENT,
            origin_asn=None if withdrawal and origin == 0 else origin,
            ambiguous_origin=ambiguous,
        ),
        ts=st.integers(min_value=0, max_value=12),
        collector=st.sampled_from(["rrc00", "linx", "c"]),
        prefix=st.sampled_from(["10.0.0.0/8", "10.1.0.0/16", "2001:db8::/32"]),
        withdrawal=st.booleans(),
        origin=st.integers(min_value=0, max_value=3),
        ambiguous=st.booleans(),
    ),
    max_size=60,
)


@given(mixed_events_strategy)
def test_grouped_columns_build_the_same_series(events):
    groups = series_keys(events)
    usable = [ev for ev in events if ev.kind == ANNOUNCEMENT and not ev.ambiguous_origin]
    assert list(groups) == sorted({(ev.origin_asn, ev.collector) for ev in usable})
    for (asn, collector), (timestamps, prefixes) in groups.items():
        pair = [ev for ev in usable if (ev.origin_asn, ev.collector) == (asn, collector)]
        assert timestamps == [ev.timestamp for ev in pair]
        assert prefixes == [ev.prefix for ev in pair]
        assert build_series(events, asn, collector) == series_from_columns(asn, collector, timestamps)
        assert build_volume_series(events, asn, collector) == volume_from_columns(
            asn, collector, timestamps, prefixes
        )


@given(mixed_events_strategy)
def test_builders_equal_reference_grouping(events):
    """The event builders group events as the reference reader groups their lines."""
    expected = ref_groups([ev.to_line() for ev in events])
    assert list(series_keys(events).items()) == list(expected.items())
    for (asn, collector), (timestamps, prefixes) in expected.items():
        assert build_series(events, asn, collector) == EventSeries(
            asn, collector, tuple(sorted(timestamps))
        )
        per_second = {}
        for ts, prefix in zip(timestamps, prefixes):
            per_second.setdefault(ts, set()).add(prefix)
        stamps = sorted(per_second)
        assert build_volume_series(events, asn, collector) == VolumeSeries(
            asn, collector, tuple(stamps), tuple(len(per_second[ts]) for ts in stamps)
        )
    absent = (4, "rrc00")  # the strategy's origins are 0-3
    assert build_series(events, *absent) == EventSeries(*absent, ())
    assert build_volume_series(events, *absent) == VolumeSeries(*absent, (), ())


@given(
    st.lists(st.integers(min_value=0, max_value=50), max_size=40),
    st.integers(min_value=-5, max_value=55),
    st.integers(min_value=-5, max_value=55),
)
def test_restrict_matches_linear_filter(stamps, start, end):
    series = EventSeries(1, "c", tuple(sorted(stamps)))
    expected = tuple(t for t in sorted(stamps) if start <= t < end)
    assert series.restrict(start, end) == EventSeries(1, "c", expected)


def _outcome(read, lines):
    """What a reader returns for `lines`, or the type name and text of its error."""
    try:
        return read(lines)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)


def _fields_of_ref(lines):
    return [(ev.to_line(), *ev) for ev in ref_parse_lines(lines)]


class TestFusedReader:
    """Every reader reads every line as the frozen reference reader does."""

    @settings(max_examples=300, deadline=None)
    @given(event_lines)
    def test_readers_equal_reference(self, lines):
        assert _outcome(read_groups, "\n".join(lines)) == _outcome(ref_groups, lines)
        assert _outcome(
            lambda ls: [(ev.to_line(), *ev.as_dict().values()) for ev in parse_event_lines(ls)],
            lines,
        ) == _outcome(_fields_of_ref, lines)

    @settings(max_examples=300, deadline=None)
    @given(event_lines)
    def test_series_keys_equals_read_groups(self, lines):
        """Events in memory and canonical text reach the same columns, keys in the same order."""
        assert _outcome(
            lambda ls: list(series_keys(list(parse_event_lines(ls))).items()), lines
        ) == _outcome(lambda text: list(read_groups(text).items()), "\n".join(lines))

    def test_other_forms_are_reserialised(self):
        lines = ['{"type":"W","prefix":"10.0.0.0/8","collector":"c","ts":5}', "\r", ""]
        assert differential.copied("\n".join(lines), None, None) == (
            '{"ts":5,"collector":"c","prefix":"10.0.0.0/8","type":"W"}\n', (1, 1, 0)
        )

    def test_error_line_numbers_count_blank_lines(self):
        lines = [_ev(1).to_line(), "", '{"ts":2,"collector":"c","prefix":"10.0.0.0/8","type":"A"}']
        with pytest.raises(EventFormatError, match="^line 3: missing field 'origin_asn'$"):
            read_groups("\n".join(lines))

    def test_bad_prefix_in_writer_form_keeps_its_error(self):
        line = _ev(1, prefix="10.0.0.0/33").to_line()
        with pytest.raises(EventFormatError) as expected:
            list(parse_event_lines([line]))
        with pytest.raises(EventFormatError) as err:
            read_groups(line)
        assert str(err.value) == str(expected.value)

    def test_each_distinct_prefix_is_stored_once(self):
        lines = [_ev(ts, prefix="2001:db8::/32").to_line() for ts in range(3)]
        ((_, prefixes),) = read_groups("\n".join(lines)).values()
        assert prefixes[0] is prefixes[1] is prefixes[2]

    def test_columns_build_the_same_series(self):
        events = [_ev(5), _ev(3, prefix="10.1.0.0/16"), _ev(5, prefix="10.1.0.0/16"), _ev(5)]
        timestamps = [ev.timestamp for ev in events]
        prefixes = [ev.prefix for ev in events]
        assert series_from_columns(4761, "linx", timestamps) == build_series(events, 4761, "linx")
        assert volume_from_columns(4761, "linx", timestamps, prefixes) == build_volume_series(
            events, 4761, "linx"
        )


@st.composite
def event_texts(draw):
    """Canonical text: lines ended by \\n, \\r\\n or a blank line, the last one
    sometimes unterminated, mostly in writer form."""
    lines = draw(st.lists(st.one_of(writer_lines, good_lines), max_size=16))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(bad_lines))
    ends = draw(st.lists(
        st.sampled_from(["\n", "\n", "\r\n", "\n\n", "\r\n\r\n"]),
        min_size=len(lines), max_size=len(lines),
    ))
    text = "".join(map(operator.add, lines, ends))
    if lines and draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    return text


def _reordered(line):
    """A writer-form line with its keys in reverse order: the same event out of writer form."""
    return json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":"))


@contextlib.contextmanager
def _counted_writer_lines():
    """Patch events._WRITER_LINES with a wrapper that records the name of each method called."""
    calls, pattern = [], events._WRITER_LINES

    class Counted:
        def __getattr__(self, name):
            method = getattr(pattern, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return call

    with mock.patch.object(events, "_WRITER_LINES", Counted()):
        yield calls


class TestChunkScanner:
    """A text read in runs of whole lines gives what the reference reader gives."""

    @settings(max_examples=400, deadline=None)
    @given(
        event_texts(),
        st.integers(min_value=1, max_value=200),
        st.sampled_from(differential.COPY_FILTERS),
    )
    def test_runs_read_as_lines(self, text, chunk, filters):
        lines = text.split("\n")
        with mock.patch.object(events, "_CHUNK_CHARS", chunk):
            for prefixes in (True, False):
                expected = _outcome(lambda ls: ref_groups(ls, prefixes), lines)
                assert _outcome(lambda t: read_groups(t, prefixes), text) == expected
            assert _outcome(lambda t: differential.copied(t, *filters), text) == _outcome(
                lambda t: differential.copied_by_lines(t, *filters), text
            )

    def test_writer_runs_are_copied_through(self):
        lines = [_ev(ts, prefix=f"10.{ts}.0.0/16").to_line() for ts in range(50)]
        text = "\r\n".join(lines)
        by_line = mock.patch.object(events, "_parse_line", wraps=events._parse_line)
        with mock.patch.object(events, "_CHUNK_CHARS", 300), by_line as read_by_line:
            runs = list(events._text_runs(text, {}))
        assert len(runs) > 1 and not read_by_line.called
        assert [ts for columns, _ in runs for ts in columns[0]] == [str(ts) for ts in range(50)]
        copied = "".join(line + "\n" for line in lines)
        assert "".join(run for _, run in runs) == copied
        assert differential.copied(text, None, None) == (copied, (50, 50, 50))

    @pytest.mark.parametrize("filters", [("rrc00", None), (None, 4761), ("linx", 4761), ("x", None)])
    def test_filtered_writer_runs_are_not_read_line_by_line(self, filters):
        lines = [
            _ev(ts, asn=4761 + ts % 2, collector=["linx", "rrc00"][ts % 3 == 0], kind=kind).to_line()
            for ts in range(60) for kind in (ANNOUNCEMENT, WITHDRAWAL)
        ]
        text = "\n".join(lines) + "\n"
        by_line = mock.patch.object(events, "_parse_line", wraps=events._parse_line)
        with mock.patch.object(events, "_CHUNK_CHARS", 500), by_line as read_by_line:
            copied = differential.copied(text, *filters)
            assert len(list(events._text_runs(text, {}))) > 1
        assert not read_by_line.called
        assert copied == differential.copied_by_lines(text, *filters)

    def test_lines_out_of_writer_form_alone_go_to_the_line_reader(self):
        # Runs of one group each: writer-form lines, a blank line, a
        # whitespace-only line and a key-reordered line, every group as long.
        groups = []
        for group in range(12):
            lines = [
                _ev(1000 + 10 * group + i, asn=4761 + i % 2, collector=f"rrc0{i % 3}").to_line()
                for i in range(8)
            ]
            lines[5] = _reordered(lines[5])
            lines[2:2] = ["", (WHITESPACE[group % len(WHITESPACE)] * 2)[:2]]
            groups.append("".join(line + "\n" for line in lines))
        text = "".join(groups)
        parse = mock.patch.object(events, "_parse_line", wraps=events._parse_line)
        with mock.patch.object(events, "_CHUNK_CHARS", len(groups[0])):
            with _counted_writer_lines() as calls, parse as parsed:
                runs = list(events._text_runs(text, {}))
            assert len(runs) == len(calls) == 12
            assert sum(len(columns[0]) for columns, _ in runs) == 12 * 8
            assert [call.args[1] for call in parsed.call_args_list] == [10 * group + 8 for group in range(12)]
            lines = text.split("\n")
            for prefixes in (True, False):
                assert read_groups(text, prefixes) == ref_groups(lines, prefixes)
            for filters in [(None, None), ("rrc01", None), (None, 4762)]:
                assert differential.copied(text, *filters) == differential.copied_by_lines(text, *filters)

    @pytest.mark.parametrize("chunk", [1, 150, 400, 1 << 16])
    def test_each_run_is_matched_once(self, chunk):
        """One _WRITER_LINES call per run, clean or mixed, and one _parse_line
        call per nonblank line out of writer form."""
        lines = [
            _ev(ts, asn=4761 + ts % 2, collector=["linx", "rrc00"][ts % 3 == 0]).to_line()
            for ts in range(40)
        ]
        odd = {5: "", 11: " \t", 17: _reordered(lines[17]), 23: "\r", 31: " " + _reordered(lines[31])}
        mixed = [odd.get(at, line) for at, line in enumerate(lines)]
        for text, parsed_lines in [
            ("\n".join(lines) + "\n", []),
            ("\n".join(mixed) + "\n", [18, 32]),
            ("\n".join(mixed[:23]), [18]),  # ends in a writer-form line without "\n"
        ]:
            parse = mock.patch.object(events, "_parse_line", wraps=events._parse_line)
            with mock.patch.object(events, "_CHUNK_CHARS", chunk), _counted_writer_lines() as calls, \
                    parse as parsed:
                runs = len(list(events._text_runs(text, {})))
            assert runs > 1 or chunk > len(text)
            assert calls == ["split"] * runs
            assert [call.args[1] for call in parsed.call_args_list] == parsed_lines

    @pytest.mark.parametrize("lines", [
        pytest.param(["", _ev(1).to_line(), _ev(2).to_line()], id="opens-with-a-blank-line"),
        pytest.param([_ev(1).to_line(), "", "", _ev(2).to_line(), _ev(3).to_line()], id="run-opens-blank"),
        pytest.param(
            [_ev(1).to_line(), " " + _reordered(_ev(2).to_line()), _ev(3, collector="rrc00").to_line()],
            id="run-opens-odd",
        ),
        pytest.param(
            [_ev(1).to_line(), "", " \t", _reordered(_ev(2, asn=4762).to_line()), "\r", _ev(3).to_line()],
            id="odd-lines-only",
        ),
        pytest.param([_ev(1).to_line(), "\r", _ev(2, kind=WITHDRAWAL).to_line()], id="lone-cr"),
        pytest.param([_ev(1).to_line(), "", _ev(2).to_line(), "", _ev(3).to_line()], id="equal-gaps"),
        pytest.param(
            [_ev(1).to_line(), _reordered(_ev(2).to_line()), _ev(3).to_line(),
             _reordered(_ev(4, collector="rrc00").to_line()), _ev(5).to_line()],
            id="two-odd-lines",
        ),
        pytest.param([_ev(1).to_line(), _ev(2).to_line(), _reordered(_ev(3).to_line())], id="ends-odd"),
        pytest.param([_ev(1).to_line(), _ev(2).to_line(), " \t"], id="ends-whitespace"),
        pytest.param(
            [_ev(1).to_line(), "", _ev(2).to_line(), _ev(3, prefix="10.0.0.0/33").to_line(), _ev(4).to_line()],
            id="bad-prefix-in-a-mixed-run",
        ),
    ])
    def test_run_edges_read_as_lines(self, lines):
        """Every cut of a small text into runs reads as the reference reader
        reads it, the last line with no final "\\n"."""
        text = "\n".join(lines)
        for chunk in range(1, len(text) + 2):
            with mock.patch.object(events, "_CHUNK_CHARS", chunk):
                for prefixes in (True, False):
                    assert _outcome(lambda t: read_groups(t, prefixes), text) == _outcome(
                        lambda ls: ref_groups(ls, prefixes), lines
                    )
                for filters in [(None, None), ("rrc00", None), (None, 4761), ("linx", 4761)]:
                    assert _outcome(lambda t: differential.copied(t, *filters), text) == _outcome(
                        lambda t: differential.copied_by_lines(t, *filters), text
                    )

    @pytest.mark.parametrize("bad, error", [
        (_ev(1).to_line().replace('"origin_asn":', '"origin_asn":0'), "invalid JSON"),
        (_ev(1).to_line().replace(',"origin_asn":4761', ""), "missing field 'origin_asn'"),
        (_ev(1, prefix="10.0.0.0/33").to_line(), "bad prefix '10.0.0.0/33'"),
    ])
    def test_error_in_a_later_run_keeps_its_line_number(self, bad, error):
        # A blank line sends the first run to the per-line reader, and the
        # bad line is in a later run of writer-form lines.
        lines = [_ev(ts).to_line() for ts in range(2000)]
        lines[1500] = bad
        text = "\n".join([lines[0], "", *lines[1:]])
        for read in (read_groups, lambda t: copy_event_text(t, io.StringIO())):
            with pytest.raises(EventFormatError, match=f"^line 1502: {error}"):
                read(text)
