import bz2
import gzip
import io
import ipaddress
import struct

import pytest
from hypothesis import given, settings, strategies as st

import differential
import mrt_golden as golden
from bgpburst.events import ANNOUNCEMENT, WITHDRAWAL, AnnouncementEvent, parse_event_lines, write_event_lines
from bgpburst.mrt import (
    AFI_IPV4, AFI_IPV6, MrtParseError, MrtStats, _prefix_str, decompress, parse_mrt_updates, read_updates,
)

COLLECTOR = "route-views.test"

GOLDEN_EXPECTED = [
    AnnouncementEvent(1396463160, COLLECTOR, "10.0.0.0/8", ANNOUNCEMENT, 4761, 3356),
    AnnouncementEvent(1396463160, COLLECTOR, "172.16.0.0/12", ANNOUNCEMENT, 4761, 3356),
    AnnouncementEvent(1396463160, COLLECTOR, "192.168.128.0/17", ANNOUNCEMENT, 4761, 3356),
    AnnouncementEvent(1396463161, COLLECTOR, "203.0.113.0/24", ANNOUNCEMENT, 196615, 2914),
    AnnouncementEvent(1396463162, COLLECTOR, "198.51.100.0/24", WITHDRAWAL, None, 3356),
    AnnouncementEvent(1396463163, COLLECTOR, "198.18.0.0/15", ANNOUNCEMENT, 64513, 6453, True),
    AnnouncementEvent(1396463164, COLLECTOR, "2001:db8::/32", ANNOUNCEMENT, 4761, 2914),
]


class TestGoldenFile:
    def test_events_field_for_field(self):
        data, _ = golden.golden_file()
        result = parse_mrt_updates(data, collector=COLLECTOR)
        assert result.events == GOLDEN_EXPECTED

    def test_conservation(self):
        data, nlri_entries = golden.golden_file()
        stats = parse_mrt_updates(data, collector=COLLECTOR).stats
        assert stats.nlri_seen == nlri_entries
        assert stats.events_emitted + stats.events_dropped == stats.nlri_seen
        assert stats.updates_parsed == 5
        assert stats.events_dropped == 0

    def test_et_microseconds_truncated_to_seconds(self):
        data, _ = golden.golden_file()
        withdrawal = parse_mrt_updates(data, collector=COLLECTOR).events[4]
        assert withdrawal.timestamp == 1396463162  # 654321 us discarded

    def test_as_set_origin_flagged(self):
        data, _ = golden.golden_file()
        flagged = [ev for ev in parse_mrt_updates(data, COLLECTOR).events if ev.ambiguous_origin]
        assert len(flagged) == 1
        assert flagged[0].prefix == "198.18.0.0/15"

    def test_deterministic(self):
        data, _ = golden.golden_file()
        assert parse_mrt_updates(data, COLLECTOR).events == parse_mrt_updates(data, COLLECTOR).events

    def test_canonical_round_trip_of_parsed_events(self):
        data, _ = golden.golden_file()
        events = parse_mrt_updates(data, COLLECTOR).events
        buf = io.StringIO()
        write_event_lines(events, buf)
        assert list(parse_event_lines(io.StringIO(buf.getvalue()))) == events


class TestSkippedRecords:
    def test_table_dump_v2_skipped(self):
        data = golden.table_dump_v2_record(1396463160)
        result = parse_mrt_updates(data, COLLECTOR)
        assert result.events == []
        assert result.stats.records_skipped == 1

    def test_state_change_skipped(self):
        result = parse_mrt_updates(golden.state_change_record(1396463160), COLLECTOR)
        assert result.events == []
        assert result.stats.records_skipped == 1

    def test_keepalive_skipped(self):
        result = parse_mrt_updates(golden.keepalive_record(1396463160), COLLECTOR)
        assert result.events == []
        assert result.stats.records_skipped == 1

    def test_unknown_mrt_type_skipped_not_fatal(self):
        unknown = golden.mrt_record(100, 99, 0, b"\x01\x02\x03")
        data = unknown + golden.golden_file()[0]
        result = parse_mrt_updates(data, COLLECTOR)
        assert result.stats.records_skipped == 1
        assert len(result.events) == len(GOLDEN_EXPECTED)


class TestErrors:
    def test_truncated_header_reports_offset(self):
        data, _ = golden.golden_file()
        with pytest.raises(MrtParseError) as err:
            parse_mrt_updates(data + b"\x00\x01", COLLECTOR)
        assert err.value.offset == len(data)

    def test_truncated_body_reports_offset(self):
        record = golden.update_record(1, 1, [(golden.AS_SEQUENCE, [1])], announce=["10.0.0.0/8"])
        with pytest.raises(MrtParseError) as err:
            parse_mrt_updates(record[:-3], COLLECTOR)
        assert err.value.offset == 0

    def test_malformed_as_path_drops_with_counter(self):
        # segment header claims two 2-byte ASNs but carries only one
        bad_path = bytes([golden.AS_SEQUENCE, 2]) + struct.pack(">H", 64512)
        record = golden.update_record(
            5, 65001, [], announce=["10.0.0.0/8", "10.1.0.0/16"], raw_as_path=bad_path
        )
        result = parse_mrt_updates(record, COLLECTOR)
        assert result.events == []
        assert result.stats.malformed_paths == 1
        assert result.stats.events_dropped == 2
        assert result.stats.nlri_seen == 2

    def test_missing_as_path_drops_announcements_keeps_withdrawals(self):
        record = golden.update_record(
            5, 65001, [], announce=["10.0.0.0/8"], withdraw=["10.2.0.0/16"]
        )
        result = parse_mrt_updates(record, COLLECTOR)
        assert [ev.kind for ev in result.events] == [WITHDRAWAL]
        assert result.stats.events_dropped == 1
        assert result.stats.events_emitted + result.stats.events_dropped == result.stats.nlri_seen

    def test_conservation_with_mixed_garbage(self):
        data = (
            golden.table_dump_v2_record(1)
            + golden.golden_file()[0]
            + golden.keepalive_record(2)
        )
        stats = parse_mrt_updates(data, COLLECTOR).stats
        assert stats.events_emitted + stats.events_dropped == stats.nlri_seen


class TestCompression:
    def test_gzip_input(self):
        data, _ = golden.golden_file()
        assert parse_mrt_updates(gzip.compress(data), COLLECTOR).events == GOLDEN_EXPECTED

    def test_bzip2_input(self):
        data, _ = golden.golden_file()
        assert parse_mrt_updates(bz2.compress(data), COLLECTOR).events == GOLDEN_EXPECTED

    # Plain MRT from 2005-04-11 12:05-12:09 UTC starts with the bytes "BZh";
    # 0x425A6839 even reads "BZh9", a valid bzip2 block size.
    @pytest.mark.parametrize("timestamp", [0x425A6801, 0x425A6839])
    def test_plain_mrt_with_bzip2_like_timestamp(self, timestamp):
        data = golden.update_record(
            timestamp, 3356, [(golden.AS_SEQUENCE, [3356, 4761])], announce=["10.0.0.0/8"]
        )
        assert decompress(data) == data
        (event,) = parse_mrt_updates(data, COLLECTOR).events
        assert (event.timestamp, event.prefix, event.origin_asn) == (timestamp, "10.0.0.0/8", 4761)

    @pytest.mark.parametrize("payload", [b"", b"x" * 1000])
    def test_bzip2_detected_by_block_or_end_magic(self, payload):
        assert decompress(bz2.compress(payload, compresslevel=1)) == payload


_ADDRESS_STYLES = {
    AFI_IPV4: [
        st.binary(min_size=4, max_size=4),
        st.lists(st.sampled_from([0, 0, 1, 255]), min_size=4, max_size=4).map(bytes),
    ],
    AFI_IPV6: [
        st.binary(min_size=16, max_size=16),
        st.lists(st.sampled_from([0, 0, 0, 1, 255]), min_size=16, max_size=16).map(bytes),
        st.binary(min_size=4, max_size=4).map(lambda b: bytes(10) + b"\xff\xff" + b),
        st.binary(min_size=4, max_size=4).map(lambda b: bytes(12) + b),
        st.binary(min_size=6, max_size=6).map(lambda b: bytes(10) + b),
        st.binary(min_size=2, max_size=2).map(lambda b: bytes(8) + b + bytes(6)),
    ],
}


@st.composite
def nlri_entries(draw):
    afi = draw(st.sampled_from([AFI_IPV4, AFI_IPV6]))
    width = 4 if afi == AFI_IPV4 else 16
    plen = draw(st.integers(min_value=0, max_value=8 * width))
    address = draw(st.one_of(_ADDRESS_STYLES[afi]))
    return address[: (plen + 7) // 8], plen, afi, width


@settings(max_examples=2000)
@given(nlri_entries())
def test_prefix_str_matches_ipaddress(entry):
    packed, plen, afi, width = entry
    expected = str(ipaddress.ip_network((packed.ljust(width, b"\0"), plen), strict=False))
    assert _prefix_str(packed, plen, afi) == expected


def test_prefix_str_covers_every_length():
    for afi, width in ((AFI_IPV4, 4), (AFI_IPV6, 16)):
        for plen in range(8 * width + 1):
            packed = b"\xff" * ((plen + 7) // 8)
            net = ipaddress.ip_network((packed.ljust(width, b"\0"), plen), strict=False)
            assert _prefix_str(packed, plen, afi) == str(net)


def _check_parse(data):
    try:
        result = parse_mrt_updates(data, COLLECTOR)
    except MrtParseError:
        return
    stats = result.stats
    assert stats.events_emitted + stats.events_dropped == stats.nlri_seen
    assert len(result.events) == stats.events_emitted


_GOLDEN = golden.golden_file()[0] + golden.prefix_forms_file()


class TestFuzz:
    """Damaged archives raise only MrtParseError and never break conservation."""

    @given(st.lists(st.tuples(st.integers(0, len(_GOLDEN) - 1), st.integers(0, 255)), max_size=8))
    def test_byte_mutations(self, edits):
        data = bytearray(_GOLDEN)
        for pos, value in edits:
            data[pos] = value
        _check_parse(bytes(data))

    @given(st.integers(0, len(_GOLDEN)), st.integers(0, len(_GOLDEN)))
    def test_truncations_and_cuts(self, start, end):
        _check_parse(_GOLDEN[:end])
        _check_parse(_GOLDEN[start:])
        _check_parse(_GOLDEN[:start] + _GOLDEN[end:])

    @given(st.binary(max_size=64), st.sampled_from([b"", b"\x1f\x8b", b"BZh"]))
    def test_random_bytes_and_compression_magic(self, tail, magic):
        _check_parse(magic + tail)

    @given(st.integers(0, 200), st.integers(0, 255))
    def test_damaged_compressed_input(self, pos, value):
        for packed in (gzip.compress(_GOLDEN), bz2.compress(_GOLDEN)):
            data = bytearray(packed)
            data[pos % len(data)] = value
            _check_parse(bytes(data))
            _check_parse(packed[: pos % len(packed)])


class TestRecordLoop:
    def test_plain_fields_per_update(self):
        data, _ = golden.golden_file()
        stats = MrtStats()
        updates = list(read_updates(data, stats))
        assert updates[0] == (
            1396463160, 3356, [], ["10.0.0.0/8", "172.16.0.0/12", "192.168.128.0/17"], 4761, False,
        )
        assert updates[2] == (1396463162, 3356, ["198.51.100.0/24"], [], None, False)
        assert updates[3][4:] == (64513, True)
        assert len(updates) == 5
        assert stats == parse_mrt_updates(data, COLLECTOR).stats

    def test_dropped_announcements_leave_withdrawals(self):
        record = golden.update_record(5, 65001, [], announce=["10.0.0.0/8"], withdraw=["10.2.0.0/16"])
        stats = MrtStats()
        assert list(read_updates(record, stats)) == [(5, 65001, ["10.2.0.0/16"], [], None, False)]
        assert (stats.malformed_paths, stats.events_dropped) == (1, 1)

    def test_malformed_update_yields_nothing(self):
        # The AS_PATH is fine but the trailing NLRI claims a /33.
        record = bytearray(golden.update_record(
            5, 65001, [(golden.AS_SEQUENCE, [65001])], announce=["10.0.0.0/8"], withdraw=["10.2.0.0/16"]
        ))
        record[-2] = 33
        stats = MrtStats()
        assert list(read_updates(bytes(record), stats)) == []
        assert (stats.malformed_updates, stats.nlri_seen) == (1, 0)


_BASE = differential.DAMAGE_BASE


class TestReferenceDifferential:
    """The record loop, through the library and through `ingest`, against the
    frozen reference decoder in tests/ref_mrt.py."""

    @pytest.mark.parametrize(
        "data",
        differential.FIXTURES,
        ids=["golden", "prefix-forms", "edge-updates", "short-et", "short-et-state"],
    )
    def test_fixtures(self, data):
        assert differential.mrt_mismatches(data) == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, len(_BASE) - 1), st.integers(0, 255)), max_size=8),
        st.integers(0, 3),
        st.integers(0, len(_BASE)),
        st.integers(0, len(_BASE)),
    )
    def test_damaged_inputs(self, edits, cut, start, end):
        data = differential.damage(_BASE, edits, cut, start, end)
        assert differential.mrt_mismatches(data) == []
