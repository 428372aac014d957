"""Output checks for the CLI chain, independent of the package under test.

Expected values come from the workload generator and from the reference
detector in `tests/ref_detector.py`; bins are counted here.  Every function
returns a list of problems, empty when the command's outputs are correct.
`detect_reports` is the one place that knows how `detect` lays out its
reports and how `evaluate` takes them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from ref_detector import ref_detect, ref_detect_values
from workloads import BIN, MIN_EVENTS, NULL_WINDOWS, Workload


def detect_reports(detect_dir: Path) -> list[tuple[Path, dict]]:
    """The per-series reports of one `detect` run, as evaluate's inputs.

    Found through the manifest's `outputs` list, not by a file glob.
    """
    manifest = json.loads((detect_dir / "manifest.json").read_text())
    reports = []
    for entry in manifest["outputs"]:
        path = detect_dir / Path(entry["path"]).name
        if path.name.startswith("report_"):
            reports.append((path, json.loads(path.read_text())))
    return reports


def burstiness_f1(evaluate_dir: Path) -> float | None:
    """Bin-level F1 of the burstiness detector from `results.csv`."""
    for row in _results(evaluate_dir):
        if row["detector"] == "burstiness":
            return float(row["f1"]) if row["f1"] else None
    return None


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every data output the command lists, hashed here."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {
        Path(entry["path"]).name: hashlib.sha256(
            (out_dir / Path(entry["path"]).name).read_bytes()
        ).hexdigest()
        for entry in manifest["outputs"]
    }


def _results(evaluate_dir: Path) -> list[dict]:
    with (evaluate_dir / "results.csv").open(newline="") as fh:
        return list(csv.DictReader(fh))


class Expected:
    """Reference flags for one workload, computed once and reused."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.flags: dict[tuple[str, int], list[int]] = {}
        for origin, ts in workload.series.items():
            self.flags["burstiness", origin] = sorted({ts[t] for t in ref_detect(ts)})
            points = workload.volume[origin]
            self.flags["volume", origin] = sorted(
                {points[t][0] for t in ref_detect_values([c for _, c in points])}
            )

    def ingest(self, out: Path) -> list[str]:
        w = self.workload
        problems = []
        with (out / "events.jsonl").open("rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != w.lines:
            problems.append(f"ingest wrote {lines} lines, expected {w.lines}")
        if w.nlri_seen is not None:
            inputs = json.loads((out / "ingest_summary.json").read_text())["inputs"]
            for item in inputs:
                if item["events_emitted"] + item["events_dropped"] != item["nlri_seen"]:
                    problems.append(f"{item['path']}: emitted + dropped != nlri_seen")
            seen = sum(item["nlri_seen"] for item in inputs)
            dropped = sum(item["events_dropped"] for item in inputs)
            if seen != w.nlri_seen:
                problems.append(f"ingest saw {seen} NLRI, expected {w.nlri_seen}")
            if dropped != w.dropped:
                problems.append(f"ingest dropped {dropped} NLRI, expected {w.dropped}")
        return problems

    def detect(self, out: Path) -> list[str]:
        w = self.workload
        found = {
            (doc["detector"], doc["origin_asn"]): doc["anomalous_timestamps"]
            for _, doc in detect_reports(out)
            if doc["collector"] == w.collector
        }
        if set(found) != set(self.flags):
            return [f"detect wrote {len(found)} reports, expected {len(self.flags)}"]
        return [
            f"{detector} flags for AS{origin} differ from the reference detector"
            for (detector, origin), flags in self.flags.items()
            if found[detector, origin] != flags
        ]

    def evaluate(self, out: Path) -> list[str]:
        w = self.workload
        n_bins = math.ceil((w.t1 - w.t0) / BIN)
        start, end = w.incident
        truth = set(range((start - w.t0) // BIN, math.ceil((end - w.t0) / BIN)))
        problems = []
        rows = {row["detector"]: row for row in _results(out)}
        for detector in ("burstiness", "volume"):
            detected = {(ts - w.t0) // BIN for ts in self.flags[detector, w.target_asn]}
            tp, fp, fn = len(truth & detected), len(detected - truth), len(truth - detected)
            expect = {"tp": tp, "fp": fp, "fn": fn, "tn": n_bins - tp - fp - fn}
            row = rows.get(detector)
            if row is None:
                problems.append(f"results.csv has no {detector} row")
            elif any(int(row[key]) != value for key, value in expect.items()):
                problems.append(f"{detector} bin counts {row} differ from {expect}")
        return problems

    def analyze(self, out: Path) -> list[str]:
        w = self.workload
        counts = {}
        for origin, ts in w.series.items():
            count = sum(1 for t in ts if w.t0 <= t < w.t1)
            if count >= MIN_EVENTS:
                counts[origin] = count
        with (out / f"joint_{w.collector}.csv").open(newline="") as fh:
            table = {int(row["asn"]): int(row["count"]) for row in csv.DictReader(fh)}
        problems = []
        if table != counts:
            problems.append("joint table rows differ from the generator's counts")
        sig = json.loads((out / f"significance_AS{w.target_asn}.json").read_text())
        usable = len(sig["null_samples"])
        if usable != w.null_usable or usable + sig["skipped_windows"] != NULL_WINDOWS:
            problems.append(
                f"{usable} usable null windows, expected {w.null_usable} of {NULL_WINDOWS}"
            )
        return problems
