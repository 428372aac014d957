"""The golden corpus, and the digests of every command's outputs on it, pinned.

    PYTHONPATH=src python tests/golden_corpus.py

Run as a script, it rebuilds the corpus in a temporary directory, reruns
every pinned command (ingest of MRT and of canonical lines, detect with and
without --trace, analyze with the events as their own nulls and with
separate null events) through `bgpburst.cli.main`, and compares each
digest with the one pinned here.  It prints the mismatches and exits 1 if
there are any.  tests/test_cli.py::TestGoldenDigests makes the same
comparisons under pytest; the script needs neither pytest nor numpy, so it
runs on every interpreter the package supports, where both canonical
readers' regexes must give the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import mrt_golden as golden
from bgpburst.cli import main
from bgpburst.events import ANNOUNCEMENT, WITHDRAWAL, AnnouncementEvent, write_event_lines
from bgpburst.synth import IncidentSpec, inject_incident_events, update_stream

START = 1_400_000_000

# sha256 of digest_of(data_digests(out)) for detect and analyze, and of
# events.jsonl for ingest.
DETECT = "eae3fc763cea92ed09717e28eabb0b73fd672fd7ca99bff6fe99b15c8846ce8f"
DETECT_REPORTS = "32b96bbf6a6fe6bbdc10272ccd77406ebf8e3b56c7bbfc9d4461498d802c2040"
ANALYZE = "ec5413c7e4e7301031e6bd0413bfaf7898ff30ed758510c778bbe390cb23b13f"
ANALYZE_SEPARATE_NULLS = "d3a45e7e693c9509d29ecb85bbbdecdd75f8af3b7374ff391f1896ba1b7d8f08"
INGEST_MRT = "6e3568d47a444c35677cb24cba78503ec2049440b7ee80019e9a725bbcaa4ad9"
INGEST_CANONICAL = "c7bbf1becc217e19051c6f625cba25c03dca45fc3e65d955cca09da9a4ff46db"


def write_golden_corpus(path, seed, days):
    """Seeded multi-AS, two-collector stream with noise the builders must skip.

    Batched backgrounds for five origins at one collector and two at a
    second, an injected burst for AS64500, and withdrawals and
    ambiguous-origin announcements scattered in; the whole list is shuffled
    so that grouping cannot rely on input order.
    """
    rng = random.Random(seed)
    streams = [
        update_stream(asn, "rrc00", START, days * 86400, 600.0, seed + i)
        for i, asn in enumerate(range(64500, 64505))
    ] + [
        update_stream(asn, "linx", START, days * 86400, 900.0, seed + 10 + i)
        for i, asn in enumerate((64500, 64501))
    ]
    incident = IncidentSpec(START + 86400, START + 86400 + 3600, burst_gap=2, prefixes_per_second=3)
    streams[0] = inject_incident_events(streams[0], incident)
    events = [ev for stream in streams for ev in stream]
    for ev in rng.sample(events, len(events) // 20):
        events.append(AnnouncementEvent(ev.timestamp, ev.collector, ev.prefix, WITHDRAWAL))
        events.append(
            AnnouncementEvent(
                ev.timestamp, ev.collector, ev.prefix, ANNOUNCEMENT,
                origin_asn=ev.origin_asn, ambiguous_origin=True,
            )
        )
    rng.shuffle(events)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        write_event_lines(events, fh)
    return path


# Canonical lines a reader must take verbatim: other key orders and spacing,
# escapes, IPv6, netmask and bare-address prefixes, host bits, explicit
# false, unknown keys and a withdrawal that carries an origin.
CANONICAL_FORMS = r"""{"ts":1,"collector":"rrc00","prefix":"10.0.0.0/8","origin_asn":1,"type":"A"}
  {"type": "A", "origin_asn": 2, "prefix": "192.0.2.1/24", "collector": "rrc00", "ts": 2, "peer_asn": 3}
{"ts":3,"collector":"r\"c\\\u00e9\t","prefix":"2001:db8::/32","origin_asn":4294967295,"type":"A","ambiguous_origin":true}
{"ts":4,"collector":"\u2603","prefix":"::ffff:1.2.3.0/120","type":"W","peer_asn":0}
{"ts":5,"collector":"c","prefix":"10.0.0.0/255.0.0.0","origin_asn":5,"type":"A","ambiguous_origin":false}
{"ts":6,"collector":"c","prefix":"10.0.0.0/08","origin_asn":6,"type":"W"}

{"ts":7,"collector":"c","prefix":"10.1.2.3","origin_asn":7,"type":"A","extra":[1,2]}
{"ts":8,"collector":"c","prefix":"2001:DB8:0:0::/64","origin_asn":8,"type":"A"}
"""


def data_digests(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.name != "manifest.json"
    }


def digest_of(digests):
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def write_inputs(tmp: Path) -> dict[str, Path]:
    """The pinned commands' inputs under `tmp`: the corpus, null events and
    windows, the canonical forms and the MRT fixtures."""
    nulls = tmp / "nulls.json"
    nulls.write_text(json.dumps([
        {"start": START + k * 12_000, "end": START + k * 12_000 + 10_000}
        for k in range(25)
    ]))
    forms = tmp / "forms.jsonl"
    forms.write_text(CANONICAL_FORMS, encoding="utf-8")
    mrt = tmp / "updates.mrt"
    mrt.write_bytes(golden.golden_file()[0] + golden.prefix_forms_file())
    return {
        "events": write_golden_corpus(tmp / "events.jsonl", seed=7, days=4),
        "null_events": write_golden_corpus(tmp / "null.jsonl", seed=8, days=6),
        "nulls": nulls,
        "forms": forms,
        "mrt": mrt,
    }


def ingest_digest(out: Path, *argv, run=main) -> str:
    assert run(["ingest", *map(str, argv), "--out", str(out)]) == 0
    return hashlib.sha256((out / "events.jsonl").read_bytes()).hexdigest()


def detect_digests(out: Path, events: Path, *extra: str, run=main) -> dict[str, str]:
    assert run(["detect", str(events), *extra, "--out", str(out)]) == 0
    return data_digests(out)


def analyze_digests(out: Path, events: Path, nulls: Path, *extra: str, run=main) -> dict[str, str]:
    code = run([
        "analyze", str(events), "--collector", "rrc00",
        "--window", str(START + 80_000), str(START + 100_000),
        "--target-asn", "64500", "--target-asn", "64502",
        "--null-windows", str(nulls), *extra, "--out", str(out),
    ])
    assert code == 0
    return data_digests(out)


def pinned_outcomes(tmp: Path) -> dict[str, tuple[str, str]]:
    """Every pinned digest, as (found, pinned)."""
    inputs = write_inputs(tmp)
    events, nulls = inputs["events"], inputs["nulls"]
    found = {
        "INGEST_MRT": ingest_digest(tmp / "ingest-mrt", inputs["mrt"], "--collector", "route-views.test"),
        "INGEST_CANONICAL": ingest_digest(tmp / "ingest-canonical", inputs["forms"], events),
        "DETECT": digest_of(detect_digests(tmp / "detect-trace", events, "--trace")),
        "DETECT_REPORTS": digest_of(detect_digests(tmp / "detect", events)),
        "ANALYZE": digest_of(analyze_digests(tmp / "analyze", events, nulls)),
        "ANALYZE_SEPARATE_NULLS": digest_of(analyze_digests(
            tmp / "analyze-nulls", events, nulls, "--null-events", str(inputs["null_events"])
        )),
    }
    pinned = globals()
    return {name: (digest, pinned[name]) for name, digest in found.items()}


if __name__ == "__main__":
    os.environ.pop("BGPBURST_CONFIG", None)  # the pinned runs read no config file
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        outcomes = pinned_outcomes(Path(tmp))
    bad = [name for name, (found, pinned) in outcomes.items() if found != pinned]
    print(f"golden digests: {len(outcomes)} pinned, {len(bad)} mismatches")
    for name in bad:
        print(f"  {name}: {outcomes[name][0]} (pinned {outcomes[name][1]})")
    sys.exit(1 if bad else 0)
