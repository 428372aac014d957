"""Seeded inputs for the benchmark workloads, with their expected outcomes.

Each builder writes one workload's input files into a directory and returns
a `Workload` that records, straight from the generator, what a correct
pipeline must produce: line and NLRI counts, every series' announcement
timestamps and per-second unique-prefix counts, and the injected incident.
Nothing here reads the package's outputs, so the checks built on it stay
independent of the code under test.  The package's `synth` module and the
standalone MRT encoder in `tests/mrt_golden.py` only build inputs.

Why these two workloads:

* `mrt-archive` decodes MRT (gzip and bzip2, IPv4 and MP_REACH IPv6, AS4,
  AS_SET origins, withdrawals, malformed paths) and writes canonical lines,
  so the MRT decoder and the canonical writer carry ingest.  Its 251 short
  series make grouping (one scan of every event per series) and the
  per-series output files carry detect and analyze, while the detector
  kernel does little.
* `incident-week` has five long series in gzip canonical form, so the
  canonical reader carries ingest and grouping is trivial.  The detector
  kernel, its trace output and the Monte Carlo window slicing get their
  largest share of the work here.

In every workload the incident's perpetrator has a regular background, so
its false-positive bins, and with them `f1_burstiness`, do not depend on the
seed; the other origins are random.
"""

from __future__ import annotations

import bz2
import gzip
import json
import random
import struct
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "tests", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import mrt_golden as golden  # noqa: E402
from bgpburst.synth import (  # noqa: E402
    GeneratorSpec,
    IncidentSpec,
    generate_stream,
    inject_incident_events,
    update_stream,
)

T0 = 1_396_310_400  # 2014-04-01T00:00:00Z, the first bin edge of every study
DAY = 86_400
BIN = 10_800  # evaluate's default bin length
NULL_WINDOWS = 100
MIN_EVENTS = 5  # analyze's default --min-events


@dataclass
class Workload:
    """Input files of one workload and what a correct pipeline makes of them."""

    name: str
    collector: str
    inputs: list[Path]
    ingest_args: list[str]
    incidents: Path
    null_windows: Path
    null_events: Path
    target_asn: int
    t0: int
    t1: int
    incident: tuple[int, int]
    lines: int  # events ingest must write
    input_events: int  # NLRI seen for MRT input, lines for canonical input
    series: dict[int, list[int]]  # origin -> sorted usable announcement timestamps
    volume: dict[int, list[tuple[int, int]]]  # origin -> (second, unique prefixes)
    null_usable: int  # null windows holding at least MIN_EVENTS target announcements
    nlri_seen: int | None = None  # MRT only
    dropped: int | None = None  # MRT only: NLRI behind the planted malformed paths
    sizes: dict = field(default_factory=dict)


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat().replace("+00:00", "Z")


def _expectations(usable) -> tuple[dict, dict]:
    """Per-origin sorted timestamps and per-second unique-prefix counts."""
    stamps: dict[int, list[int]] = {}
    seconds: dict[int, dict[int, set[str]]] = {}
    for ts, origin, prefix in usable:
        stamps.setdefault(origin, []).append(ts)
        seconds.setdefault(origin, {}).setdefault(ts, set()).add(prefix)
    series = {origin: sorted(ts) for origin, ts in stamps.items()}
    volume = {
        origin: [(ts, len(prefixes)) for ts, prefixes in sorted(per_second.items())]
        for origin, per_second in seconds.items()
    }
    return series, volume


def _write_canonical(path: Path, collector: str, events, compress: bool) -> None:
    """Announcement lines in the canonical format, in (ts, origin, prefix) order."""
    text = "".join(
        f'{{"ts":{ts},"collector":"{collector}","prefix":"{prefix}",'
        f'"origin_asn":{origin},"type":"A"}}\n'
        for ts, origin, prefix in events
    )
    data = text.encode("ascii")
    path.write_bytes(gzip.compress(data, compresslevel=6, mtime=0) if compress else data)


def _null_usable(timestamps: list[int]) -> int:
    ts = sorted(timestamps)
    return sum(
        bisect_left(ts, start + BIN) - bisect_left(ts, start) >= MIN_EVENTS
        for start in range(T0 - NULL_WINDOWS * BIN, T0, BIN)
    )


def _study_files(out: Path, name: str, target: int, incident, null_events) -> dict:
    """Incident config, null windows and null events shared by every workload."""
    incidents = out / "incidents.json"
    incidents.write_text(json.dumps([{
        "name": f"{name}-incident",
        "asn": target,
        "start_utc": _iso(incident[0]),
        "end_utc": _iso(incident[1]),
        "kind": "large-scale",
    }], indent=2) + "\n")
    windows = out / "null_windows.json"
    windows.write_text(json.dumps(
        [[start, start + BIN] for start in range(T0 - NULL_WINDOWS * BIN, T0, BIN)]
    ) + "\n")
    return {"incidents": incidents, "null_windows": windows, "null_events": null_events}


def _regular(asn: int, collector: str, start: int, end: int, gap: int):
    n = (end - start) // gap
    spec = GeneratorSpec("regular", float(gap), n, start, asn, collector, seed=0)
    return [ev for ev in generate_stream(spec) if ev.timestamp < end]


# ------------------------------------------------------------ incident-week

WEEK_BACKGROUND_ORIGINS = 4
WEEK_MEAN_GAP = 120.0
WEEK_BURST_PREFIXES_PER_SECOND = 2


def incident_week(seed: int, out: Path) -> Workload:
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    collector = "rrc-week"
    t0, t1 = T0, T0 + 7 * DAY
    target = 64_500
    events = []
    for j in range(WEEK_BACKGROUND_ORIGINS):
        asn = 3_000_000 + j
        for ev in update_stream(asn, collector, t0, t1 - t0, WEEK_MEAN_GAP, rng.randrange(2**31)):
            events.append((ev.timestamp, asn, ev.prefix))
    incident = (t0 + 28 * BIN, t0 + 29 * BIN)
    background = _regular(target, collector, t0 + rng.randrange(300), t1, 300)
    burst = IncidentSpec(incident[0], incident[1], burst_gap=1,
                         prefixes_per_second=WEEK_BURST_PREFIXES_PER_SECOND)
    for ev in inject_incident_events(background, burst):
        events.append((ev.timestamp, target, ev.prefix))
    events.sort()
    main = out / "events.jsonl.gz"
    _write_canonical(main, collector, events, compress=True)
    null = update_stream(target, collector, T0 - NULL_WINDOWS * BIN, NULL_WINDOWS * BIN,
                         WEEK_MEAN_GAP, rng.randrange(2**31))
    null_path = out / "null_events.jsonl"
    _write_canonical(null_path, collector, [(ev.timestamp, target, ev.prefix) for ev in null], False)
    series, volume = _expectations(events)
    return Workload(
        name="incident-week",
        collector=collector,
        inputs=[main],
        ingest_args=[],
        target_asn=target,
        t0=t0,
        t1=t1,
        incident=incident,
        lines=len(events),
        input_events=len(events),
        series=series,
        volume=volume,
        null_usable=_null_usable([ev.timestamp for ev in null]),
        sizes={"origins": WEEK_BACKGROUND_ORIGINS + 1, "events": len(events), "days": 7,
               "null_events": len(null)},
        **_study_files(out, "incident-week", target, incident, null_path),
    )


# -------------------------------------------------------------- mrt-archive

MRT_ORIGINS = 250
MRT_UPDATES_PER_ORIGIN = 66
MRT_DAYS = 2
MRT_FILES = 4
PEERS = (3356, 2914, 6453, 1299)


def _v4(i: int, j: int) -> str:
    return f"{30 + (j & 7)}.{i >> 8}.{i & 255}.0/24"


def _v6(i: int, j: int) -> str:
    return f"2001:db8:{i:x}:{j:x}::/64"


def mrt_archive(seed: int, out: Path) -> Workload:
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    collector = "rrc-mrt"
    t0, t1 = T0, T0 + MRT_DAYS * DAY
    target = 396_000
    records: list[tuple[int, int, bytes]] = []  # (ts, order, record)
    usable = []
    nlri_seen = dropped = 0

    def add(ts: int, record: bytes) -> None:
        records.append((ts, len(records), record))

    for i in range(MRT_ORIGINS):
        asn = 64_512 + i if i % 2 else 200_000 + i
        t = float(t0 + rng.randrange(3600))
        mean_gap = (t1 - t0) / MRT_UPDATES_PER_ORIGIN
        while True:
            t += rng.expovariate(1.0 / mean_gap)
            ts = int(t)
            if ts >= t1:
                break
            peer = rng.choice(PEERS)
            as4 = asn > 0xFFFF or rng.random() < 0.5
            pool = rng.sample(range(8), rng.randint(1, 3))
            v6 = rng.random() < 0.25
            prefixes = [_v6(i, j) if v6 else _v4(i, j) for j in pool]
            withdraw = []
            if not v6 and rng.random() < 0.1:
                withdraw = [_v4(i, j) for j in rng.sample([j for j in range(8) if j not in pool], 2)]
            kind = rng.random()
            kwargs = {
                "microseconds": rng.randrange(10**6) if rng.random() < 0.05 else None,
                "as4": as4,
                "withdraw": withdraw,
                "announce": [] if v6 else prefixes,
                "mp_reach": (2, prefixes, "2001:db8::1") if v6 else None,
            }
            if kind < 0.01:
                # Unknown AS_PATH segment type: the parser drops the announced NLRI.
                fmt = ">I" if as4 else ">H"
                kwargs["raw_as_path"] = bytes([9, 1]) + struct.pack(fmt, asn)
                dropped += len(prefixes)
                path = []
            elif kind < 0.04:
                path = [(golden.AS_SEQUENCE, [peer]), (golden.AS_SET, [asn, asn + 1])]
            else:
                path = [(golden.AS_SEQUENCE, [peer, 174, asn])]
                usable.extend((ts, asn, prefix) for prefix in prefixes)
            nlri_seen += len(prefixes) + len(withdraw)
            add(ts, golden.update_record(ts, peer, path, **kwargs))
        if i % 10 == 0:
            ts = t0 + rng.randrange(t1 - t0)
            add(ts, golden.keepalive_record(ts))
            add(ts, golden.state_change_record(ts))

    incident = (t0 + 8 * BIN, t0 + 9 * BIN)
    offset = rng.randrange(600)
    burst = [(ts, [f"100.{64 + (k >> 8 & 63)}.{k & 255}.0/24" for k in (2 * n, 2 * n + 1)])
             for n, ts in enumerate(range(incident[0], incident[1], 2))]
    regular = [(ts, [f"198.18.{(ts // 600) & 255}.0/24"]) for ts in range(t0 + offset, t1, 600)]
    for ts, prefixes in regular + burst:
        path = [(golden.AS_SEQUENCE, [3356, target])]
        add(ts, golden.update_record(ts, 3356, path, announce=prefixes, as4=True))
        usable.extend((ts, target, prefix) for prefix in prefixes)
        nlri_seen += len(prefixes)

    records.sort()
    inputs = []
    span = (t1 - t0) // MRT_FILES
    for n in range(MRT_FILES):
        lo, hi = t0 + n * span, t0 + (n + 1) * span
        raw = b"".join(rec for ts, _, rec in records if lo <= ts < hi)
        if n % 2:
            path = out / f"updates.{n}.bz2"
            path.write_bytes(bz2.compress(raw, 6))
        else:
            path = out / f"updates.{n}.gz"
            path.write_bytes(gzip.compress(raw, compresslevel=6, mtime=0))
        inputs.append(path)

    null = _regular(target, collector, T0 - NULL_WINDOWS * BIN + offset, T0, 1800)
    null_path = out / "null_events.jsonl"
    _write_canonical(null_path, collector, [(ev.timestamp, target, ev.prefix) for ev in null], False)
    series, volume = _expectations(usable)
    return Workload(
        name="mrt-archive",
        collector=collector,
        inputs=inputs,
        ingest_args=["--collector", collector],
        target_asn=target,
        t0=t0,
        t1=t1,
        incident=incident,
        lines=nlri_seen - dropped,
        input_events=nlri_seen,
        series=series,
        volume=volume,
        null_usable=_null_usable([ev.timestamp for ev in null]),
        nlri_seen=nlri_seen,
        dropped=dropped,
        sizes={"origins": MRT_ORIGINS + 1, "records": len(records), "nlri": nlri_seen,
               "files": MRT_FILES, "days": MRT_DAYS, "null_events": len(null)},
        **_study_files(out, "mrt-archive", target, incident, null_path),
    )


BUILDERS = {
    "mrt-archive": mrt_archive,
    "incident-week": incident_week,
}
