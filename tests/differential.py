"""Differential checks of the MRT decoder, the canonical line reader, parse_utc and the
detectors, with or without pytest.

    PYTHONPATH=src python tests/differential.py [CASES]

The MRT check feeds the golden fixtures of mrt_golden.py and a few edge cases,
and CASES seeded damaged copies of them, to the package's two routes to writer lines
(`parse_mrt_updates` with `to_line`, and `ingest`) and to the frozen
reference decoder in ref_mrt.py.  The lines, the counters and the
MrtParseError text and offset must be equal.  The reader check feeds CASES
seeded lists of canonical lines (writer form, the same events spelt other
ways, blank lines, and damaged lines) to `parse_event_lines`, and their
text, read in runs of a seeded length, to `read_groups` and to
`copy_event_text` with and without filters: runs of writer-form lines,
and runs whose other lines alone go to the line reader.  The frozen
reference reader in ref_events.py reads the same lines: the fields, the
writer-form lines, the columns, the copied text and its counts, and the
error text must be equal.  The time check compares
`parse_utc` with `reference_utc`, an RFC 3339 reader written without
regular expressions or datetime, on a few edge texts and CASES seeded
texts, valid and not.  The detector check runs `detect_events` and
`detect_volume` on CASES seeded series and settings: their trace rows and
flags must equal a fold of the public single steps `intensity_update` and
`ema_update`, bit for bit, and their flags those of ref_detector.py.
The script prints the mismatches of each and exits 1 if there are any.
tests/test_mrt.py, tests/test_events.py, tests/test_evaluation.py and tests/test_detector.py run
the same comparisons under hypothesis; the script needs neither pytest nor
numpy, so it runs on any interpreter the package supports, and so checks
the float results of each.
"""

from __future__ import annotations

import calendar
import contextlib
import io
import json
import random
import re
import struct
import sys
import tempfile
from itertools import accumulate
from pathlib import Path

import mrt_golden as golden
import ref_detector
import ref_events
import ref_mrt
from bgpburst import events
from bgpburst.cli import main
from bgpburst.detector import (
    DetectorConfig,
    TraceRow,
    detect_events,
    detect_volume,
    ema_update,
    intensity_update,
)
from bgpburst.events import (
    EventSeries,
    VolumeSeries,
    copy_event_text,
    parse_event_lines,
    read_groups,
)
from bgpburst.fields import parse_utc
from bgpburst.mrt import MrtParseError, parse_mrt_updates

COLLECTOR = "route-views.test"
GOLDEN = golden.golden_file()[0] + golden.prefix_forms_file()


def _update(attrs, announce=(), withdraw=(), as4=True):
    msg = golden.encode_bgp_update(withdrawn=withdraw, attrs=attrs, nlri=announce)
    body = golden.encode_bgp4mp(64496, 65000, msg, as4=as4)
    return golden.mrt_record(1396463300, golden.BGP4MP, golden.MESSAGE_AS4 if as4 else golden.MESSAGE, body)


def _as_path(*segments, asn_size=4):
    return golden.encode_attr(2, golden.encode_as_path(segments, asn_size))


def _mp(atype, afi, safi, tail):
    return golden.encode_attr(atype, struct.pack(">HB", afi, safi) + tail, flags=0x80)


# Updates the golden files do not hold: two AS_PATHs (the last one counts),
# an extended-length AS_PATH, IPv4 in MP_REACH / MP_UNREACH, families and
# SAFIs the decoder skips, and an OPEN message where an UPDATE would be.
EDGE_UPDATES = b"".join([
    _update([_as_path((golden.AS_SEQUENCE, [1, 2])), _as_path((golden.AS_SET, [3, 4]))], ["10.0.0.0/8"]),
    _update([_as_path((golden.AS_SEQUENCE, list(range(1, 80))))], ["10.9.0.0/16"]),
    _update([
        _as_path((golden.AS_SEQUENCE, [5])),
        golden.encode_mp_reach(1, ["10.1.0.0/16"], "192.0.2.1"),
        golden.encode_mp_unreach(1, ["10.2.0.0/16"]),
        _mp(14, 2, 2, bytes([16]) + bytes(16) + b"\0" + bytes([32, 32, 1, 13, 184])),
        _mp(14, 3, 1, bytes([4]) + bytes(4) + b"\0" + bytes([8, 10])),
        _mp(15, 2, 2, bytes([32, 32, 1, 13, 184])),
    ]),
    golden.mrt_record(
        1396463301, golden.BGP4MP, golden.MESSAGE,
        golden.encode_bgp4mp(64496, 65000, b"\xff" * 16 + struct.pack(">HB", 29, 1) + bytes(10)),
    ),
])
# Inputs that end in an MrtParseError: BGP4MP_ET records too short for
# their microseconds, an update or not.
SHORT_ET = [
    golden.mrt_record(1, golden.BGP4MP_ET, golden.MESSAGE_AS4, b"\0\1\2"),
    golden.mrt_record(1, golden.BGP4MP_ET, golden.STATE_CHANGE, b""),
]
FIXTURES = [golden.golden_file()[0], golden.prefix_forms_file(), EDGE_UPDATES, *SHORT_ET]
# What the damaged inputs are made from.
DAMAGE_BASE = GOLDEN + EDGE_UPDATES


def damage(data: bytes, edits, cut: int, start: int, end: int) -> bytes:
    """`data` with (position, byte) edits, then cut: 0 none, 1 keep the head
    before `end`, 2 keep the tail from `start`, 3 drop [start, end)."""
    buf = bytearray(data)
    for pos, value in edits:
        buf[pos % len(buf)] = value
    data = bytes(buf)
    start, end = sorted((start % (len(data) + 1), end % (len(data) + 1)))
    return [data, data[:end], data[start:], data[:start] + data[end:]][cut]


def reference_outcome(data: bytes):
    try:
        lines, stats = ref_mrt.ref_parse(data, COLLECTOR)
    except ref_mrt.MrtParseError as exc:
        return "error", str(exc), exc.offset
    return "ok", lines, stats


def library_outcome(data: bytes):
    try:
        result = parse_mrt_updates(data, COLLECTOR)
    except MrtParseError as exc:
        return "error", str(exc), exc.offset
    return "ok", [ev.to_line() for ev in result.events], result.stats.as_dict()


_OFFSET = re.compile(r"\(at byte offset ([0-9]+)\)\Z")


def ingest_outcome(data: bytes):
    """`ingest` of one MRT file: its lines and counters, or its error."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "updates.mrt", Path(tmp) / "out"
        path.write_bytes(data)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["ingest", str(path), "--collector", COLLECTOR, "--out", str(out)])
        if code != 0:
            message = stderr.getvalue().removeprefix(f"error: {path}: ").removesuffix("\n")
            offset = _OFFSET.search(message)
            return "error", message, offset and int(offset.group(1))
        lines = (out / "events.jsonl").read_text(encoding="utf-8").splitlines()
        (entry,) = json.loads((out / "ingest_summary.json").read_text())["inputs"]
        return "ok", lines, {k: v for k, v in entry.items() if k not in ("path", "format")}


def mrt_mismatches(data: bytes) -> list[str]:
    """The routes whose outcome on `data` differs from the reference decoder's."""
    expected = reference_outcome(data)
    found = []
    if library_outcome(data) != expected:
        found.append("parse_mrt_updates")
    # ingest reads input as canonical lines, not as MRT, when after an
    # optional UTF-8 byte order mark its first character that str.strip()
    # keeps is "{", or it has none.
    head = data.removeprefix(b"\xef\xbb\xbf").decode("utf-8", "replace").lstrip()[:1]
    if head not in ("{", "") and ingest_outcome(data) != expected:
        found.append("ingest")
    return found


CANON_COLLECTORS = ["rrc00", "route-views.linx", "a b", "", 'q"uote', "back\\slash", "tab\t", "é☃"]
CANON_PREFIXES = [
    "10.0.0.0/8", "192.0.2.1/24", "0.0.0.0/0", "255.255.255.255/32", "10.0.0.0/255.0.0.0",
    "1.2.3.4", "2001:db8::/32", "2001:DB8::/32", "::ffff:1.2.3.0/120", "::/0",
]
BAD_PREFIXES = ["010.0.0.0/8", "10.0.0.0/33", "2001:db8::/129", "x"]


def canonical_event(rng: random.Random, prefixes=CANON_PREFIXES) -> ref_events.RefEvent:
    withdrawal = rng.random() < 0.3
    origin = rng.choice([None, 0, 1, 2, 2**32 - 1]) if withdrawal else rng.choice([0, 1, 2, 2**32 - 1])
    return ref_events.RefEvent(
        rng.choice([0, 1, rng.randrange(40), rng.randrange(1 << 31)]),
        rng.choice(CANON_COLLECTORS),
        rng.choice(prefixes),
        ref_events.WITHDRAWAL if withdrawal else ref_events.ANNOUNCEMENT,
        origin,
        rng.choice([None, None, 0, 64496]),
        rng.random() < 0.2,
    )


def canonical_line(rng: random.Random) -> str:
    """A seeded good line: mostly an event in writer form, else the same
    event spelt another way, or a blank or whitespace-only line."""
    line = canonical_event(rng).to_line()
    rec = json.loads(line)
    form = rng.random()
    if form < 0.7:
        return line
    if form < 0.9:
        return rng.choice([
            json.dumps(rec, ensure_ascii=False, separators=(",", ":")),
            json.dumps(rec),
            json.dumps(dict(reversed(rec.items())), separators=(",", ":")),
            f"  {line}\r",
            line.replace(",", ",\r", 1),
            line[:-1] + ',"ambiguous_origin":false}',
        ])
    return rng.choice(["", "  ", "\r", "\x0c", "\x85", "\u2028"])


def damaged_line(rng: random.Random) -> str:
    """A seeded line that is mostly bad: an event with a bad prefix, a good
    line with digits put before its ts or a lone surrogate in its collector,
    or a good line with one character replaced, inserted or deleted."""
    roll = rng.random()
    if roll < 0.2:
        return canonical_event(rng, BAD_PREFIXES).to_line()
    line = canonical_line(rng)
    if roll < 0.3:
        digits = "9" * rng.choice([17, 18, 400, 5000])
        return rng.choice([
            line.replace('"ts":', f'"ts":{digits}', 1), line.replace('"collector":"', '"collector":"\\ud800', 1),
        ])
    pos = rng.randrange(len(line) + 1)
    char = rng.choice('0123456789-:.,{}[]"\\ AWtnx')
    return rng.choice([
        line[:pos] + char + line[pos + 1:], line[:pos] + char + line[pos:], line[:pos] + line[pos + 1:],
    ])


def canonical_lines(rng: random.Random) -> list[str]:
    """Seeded good lines, half of the lists with one damaged line among them."""
    lines = [canonical_line(rng) for _ in range(rng.randrange(40))]
    if rng.random() < 0.5:
        lines.insert(rng.randrange(len(lines) + 1), damaged_line(rng))
    return lines


def _read(read, source):
    try:
        return "ok", read(source)
    except ValueError as exc:
        return "error", type(exc).__name__, str(exc)


# The (collector, asn) filters copy_event_text is run with.
COPY_FILTERS = [(None, None), ("rrc00", None), (None, 0), ("a b", 2**32 - 1)]


def copied(text: str, collector: str | None, asn: int | None):
    out = io.StringIO()
    counts = copy_event_text(text, out, collector, asn)
    return out.getvalue(), counts


def copied_by_lines(text: str, collector: str | None, asn: int | None):
    """What copy_event_text writes and counts, from the reference reader."""
    read = ref_events.ref_parse_lines(text.split("\n"))
    kept = [
        ev for ev in read
        if (collector is None or ev.collector == collector) and (asn is None or ev.origin_asn == asn)
    ]
    announcements = sum(ev.kind == ref_events.ANNOUNCEMENT for ev in kept)
    return "".join(ev.to_line() + "\n" for ev in kept), (len(read), len(kept), announcements)


def reader_mismatches(rng: random.Random) -> list[str]:
    """The readers whose outcome on seeded canonical lines differs from the reference reader's."""
    lines = canonical_lines(rng)
    fields = _read(lambda ls: [(ev.to_line(), *ev) for ev in ref_events.ref_parse_lines(ls)], lines)
    found = []
    if _read(lambda ls: [(ev.to_line(), *ev.as_dict().values()) for ev in parse_event_lines(ls)], lines) != fields:
        found.append("parse_event_lines")
    text = rng.choice(["\n", "\r\n"]).join(lines)
    chunk, events._CHUNK_CHARS = events._CHUNK_CHARS, rng.choice([1, 60, 400, 1 << 16])
    try:
        for prefixes in (True, False):
            expected = _read(lambda ls: ref_events.ref_groups(ls, prefixes), lines)
            if _read(lambda t: read_groups(t, prefixes), text) != expected:
                found.append(f"read_groups text prefixes={prefixes}")
        for filters in COPY_FILTERS:
            if _read(lambda t: copied(t, *filters), text) != _read(lambda t: copied_by_lines(t, *filters), text):
                found.append(f"copy_event_text filters={filters}")
    finally:
        events._CHUNK_CHARS = chunk
    return found


def _digits(text: str, width: int) -> int | None:
    if len(text) == width and text.isascii() and text.isdigit():
        return int(text)
    return None


def reference_utc(text: str) -> int | None:
    """Unix seconds of an RFC 3339 time as parse_utc documents it, or None
    when `text` is not one: read field by field, checked with calendar."""
    date, sep, clock = text[:10], text[10:11], text[11:]
    if len(date) != 10 or date[4] != "-" or date[7] != "-":
        return None
    year, month, day = _digits(date[:4], 4), _digits(date[5:7], 2), _digits(date[8:], 2)
    if year is None or month is None or day is None:
        return None
    hour = minute = second = offset = 0
    if sep:
        if sep not in ("T", "t", " ") or not clock:
            return None
        if clock[-1] in "Zz":
            clock = clock[:-1]
        elif len(clock) > 6 and clock[-6] in "+-" and clock[-3] == ":":
            off_hours, off_minutes = _digits(clock[-5:-3], 2), _digits(clock[-2:], 2)
            if off_hours is None or off_minutes is None or off_hours > 23 or off_minutes > 59:
                return None
            offset = (off_hours * 60 + off_minutes) * 60 * (-1 if clock[-6] == "-" else 1)
            clock = clock[:-6]
        whole, dot, fraction = clock.partition(".")
        fields = [_digits(part, 2) for part in whole.split(":")]
        if len(fields) not in (2, 3) or None in fields:
            return None
        if dot and (len(fields) != 3 or not (fraction.isascii() and fraction.isdigit())):
            return None
        hour, minute = fields[:2]
        second = fields[2] if len(fields) == 3 else 0
    if not (year >= 1 and 1 <= month <= 12) or not 1 <= day <= calendar.monthrange(year, month)[1]:
        return None
    if hour > 23 or minute > 59 or second > 59:
        return None
    return calendar.timegm((year, month, day, hour, minute, second)) - offset


# Offsets at and past the ends of their ranges.
UTC_EDGES = [
    f"2014-04-01T00:00:00{sign}{offset}"
    for sign in "+-"
    for offset in ("23:59", "24:00", "99:00", "00:60", "24:60")
]


def utc_mismatch(text: str) -> bool:
    try:
        value = parse_utc(text)
    except ValueError:
        value = None
    return value != reference_utc(text)


def utc_text(rng: random.Random) -> str:
    """A seeded time text: an RFC 3339 form, another ISO 8601 form, or either
    with one character replaced, inserted or deleted."""
    year = rng.choice([1, 1969, 1970, 2000, 2014, 2038, 9999, rng.randrange(10000)])
    # Fields mostly in range, sometimes just past it.
    month = rng.choice([rng.randrange(1, 13), rng.randrange(14)])
    day = rng.randrange(0 if rng.random() < 0.1 else 1, 32)
    hour, minute, second = (rng.randrange(n if rng.random() < 0.9 else n + 2) for n in (24, 60, 60))
    date = f"{year:04d}-{month:02d}-{day:02d}"
    clock = rng.choice([
        f"{hour:02d}:{minute:02d}",
        f"{hour:02d}:{minute:02d}:{second:02d}",
        f"{hour:02d}:{minute:02d}:{second:02d}.{rng.randrange(10 ** rng.randrange(1, 10))}",
    ])
    zone = rng.choice(["", "Z", "z", f"{rng.choice('+-')}{rng.randrange(26):02d}:{rng.randrange(62):02d}"])
    text = rng.choice([
        date,
        date + rng.choice("Tt ") + clock + zone,
        date + rng.choice("Tt ") + clock + zone,
        f"{year:04d}-W{rng.randrange(54):02d}",
        f"{year:04d}-W{rng.randrange(54):02d}-{rng.randrange(8)}",
        f"{year:04d}-{rng.randrange(367):03d}",
        f"{year:04d}{month:02d}{day:02d}T{hour:02d}{minute:02d}{second:02d}Z",
        f"{date}T{hour:02d}",
        f"{date}T{clock}:{second:02d}{zone}",
    ])
    if rng.random() < 0.3 and text:
        pos = rng.randrange(len(text) + 1)
        char = rng.choice("0123456789-:+.TtZzW _²٣")
        text = rng.choice([
            text[:pos] + char + text[pos + 1:],
            text[:pos] + char + text[pos:],
            text[:pos] + text[pos + 1:],
        ])
    return text


def step_intensities(timestamps, r: float) -> list[float]:
    """An event series' intensities as a fold of intensity_update; the
    first event only seeds the series at 0.0."""
    q = 0.0
    out = [q]
    for prev, ts in zip(timestamps, timestamps[1:]):
        q = intensity_update(q, ts - prev, r)
        out.append(q)
    return out


def step_trace(timestamps, values, config: DetectorConfig) -> list[TraceRow]:
    """The band criterion's trace rows as a fold of ema_update."""
    mean = var = 0.0
    rows = []
    for t in range(1, len(values)):
        y = values[t]
        mean, var, sigma = ema_update(mean, var, y, config.a)
        flag = t > config.warmup and y >= mean + config.delta * max(sigma, config.variance_floor)
        rows.append(TraceRow(timestamps[t], y, mean, sigma, flag))
    return rows


def step_mismatch(report, timestamps, values, config: DetectorConfig) -> bool:
    """Whether a traced report differs from the step fold, rows or flags."""
    rows = step_trace(timestamps, values, config)
    flagged = tuple(sorted({row.ts for row in rows if row.flag}))
    return list(report.trace) != rows or report.anomalous_timestamps != flagged


def flag_indices(report) -> list[int]:
    """The indices of a traced report's flagged values, as ref_detector.py gives them."""
    return [t for t, row in enumerate(report.trace, 1) if row.flag]


def detector_gaps(rng: random.Random) -> list[int]:
    """Seeded inter-arrival gaps in [0, 10**6] s, with runs of zero gaps."""
    gaps = []
    for _ in range(rng.randrange(12)):
        kind = rng.random()
        if kind < 0.3:
            gaps += [0] * rng.randrange(1, 40)
        elif kind < 0.8:
            mean_gap = rng.choice([1, 60, 300, 3600])
            gaps += [min(int(rng.expovariate(1 / mean_gap)), 10**6) for _ in range(rng.randrange(1, 60))]
        else:
            gaps.append(rng.randrange(10**6 + 1))
    return gaps


def detector_config(rng: random.Random) -> DetectorConfig:
    """Seeded settings: the defaults, the edges of each range and values between."""
    return DetectorConfig(
        r=rng.choice([1 / 300, 1e-300, 10.0 ** rng.uniform(-7, 2)]),
        omega=rng.choice([1, 2, 200, rng.randrange(1, 1000)]),
        delta=rng.choice([2.0, 1e-3, rng.uniform(0.05, 5.0)]),
        warmup=rng.choice([0, 0, rng.randrange(60)]),
        variance_floor=rng.choice([0.0, 1e-9, rng.uniform(0.0, 3.0)]),
    )


def detector_mismatches(rng: random.Random) -> list[str]:
    """The detectors whose traces differ from the step fold, or whose flags
    differ from ref_detector.py, on one seeded series and setting."""
    config = detector_config(rng)
    ts = list(accumulate(detector_gaps(rng), initial=rng.randrange(1 << 31)))
    top = rng.choice([2, 40, 10**4])
    counts = [rng.randrange(1, top) for _ in range(rng.randrange(len(ts) + 1))]
    stamps = [60 * i for i in range(len(counts))]
    found = []
    events = detect_events(EventSeries(1, "c", tuple(ts)), config, collect_trace=True)
    if step_mismatch(events, ts, step_intensities(ts, config.r), config):
        found.append("detect_events trace")
    volume = detect_volume(VolumeSeries(1, "c", tuple(stamps), tuple(counts)), config, collect_trace=True)
    if step_mismatch(volume, stamps, list(map(float, counts)), config):
        found.append("detect_volume trace")
    # The reference has no warmup and no variance floor.
    bare = DetectorConfig(r=config.r, omega=config.omega, delta=config.delta, variance_floor=0.0)
    band = {"omega": config.omega, "delta": config.delta}
    events = detect_events(EventSeries(1, "c", tuple(ts)), bare, collect_trace=True)
    if flag_indices(events) != ref_detector.ref_detect(ts, config.r, **band):
        found.append("detect_events flags")
    volume = detect_volume(VolumeSeries(1, "c", tuple(stamps), tuple(counts)), bare, collect_trace=True)
    if flag_indices(volume) != ref_detector.ref_detect_values(counts, **band):
        found.append("detect_volume flags")
    return found


def run(cases: int, seed: int = 0) -> int:
    rng = random.Random(seed)
    mrt_bad = [data for data in FIXTURES if mrt_mismatches(data)]
    for _ in range(cases):
        edits = [(rng.randrange(len(DAMAGE_BASE)), rng.randrange(256)) for _ in range(rng.randrange(9))]
        data = damage(DAMAGE_BASE, edits, rng.randrange(4), rng.randrange(1 << 16), rng.randrange(1 << 16))
        if mrt_mismatches(data):
            mrt_bad.append(data)
    reader_bad = []
    for case in range(cases):
        reader_bad += [(case, name) for name in reader_mismatches(random.Random(f"{seed}:lines:{case}"))]
    utc_texts = UTC_EDGES + [utc_text(rng) for _ in range(cases)]
    utc_bad = [text for text in utc_texts if utc_mismatch(text)]
    detector_bad = []
    for case in range(cases):
        detector_bad += [(case, name) for name in detector_mismatches(random.Random(f"{seed}:{case}"))]
    print(f"mrt: {len(FIXTURES) + cases} inputs, {len(mrt_bad)} mismatches")
    print(f"canonical reader: {cases} line lists, {len(reader_bad)} mismatches")
    print(f"parse_utc: {len(utc_texts)} texts, {len(utc_bad)} mismatches")
    print(f"detectors: {cases} series, {len(detector_bad)} mismatches")
    for data in mrt_bad[:3]:
        print(f"  mrt input {data.hex()}")
    for case, name in reader_bad[:10]:
        print(f"  line list {case}: {name}")
    for text in utc_bad[:10]:
        print(f"  time text {text!r}")
    for case, name in detector_bad[:10]:
        print(f"  detector case {case}: {name}")
    return 1 if mrt_bad or reader_bad or utc_bad or detector_bad else 0


if __name__ == "__main__":
    sys.exit(run(int(sys.argv[1]) if len(sys.argv) > 1 else 1000))
