"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 7 replays real RouteViews archives and only runs when
BGPBURST_REPLAY_DIR points at the downloaded update dumps.
"""

import io
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

import mrt_golden as golden
from ref_detector import ref_detect
from bgpburst.burstiness import (
    burstiness_raw,
    finite_size_correction,
    monte_carlo_null_test,
    series_burstiness,
)
from bgpburst.detector import DetectorConfig, detect_events, detect_volume, intensity_update
from bgpburst.evaluation import IncidentWindow, evaluate_incident, load_incidents
from bgpburst.events import (
    EventSeries,
    build_series,
    build_volume_series,
    parse_event_lines,
    write_event_lines,
)
from bgpburst.mrt import parse_mrt_updates
from bgpburst.synth import GeneratorSpec, generate_stream, incident_scenario


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_burstiness_limits():
    started = time.perf_counter()

    spec = GeneratorSpec("regular", 300.0, 500, 0, 1, "c", 0)
    regular = build_series(generate_stream(spec), 1, "c")
    result = series_burstiness(regular)
    assert abs(result.b_raw - (-1.0)) < 1e-12
    assert abs(result.b_corrected - (-1.0)) < 1e-12

    rng = np.random.default_rng(13)
    b_exp = burstiness_raw(rng.exponential(300.0, 10**5))
    assert abs(b_exp) <= 0.02

    for b in (-0.5, 0.0, 0.5):
        assert abs(finite_size_correction(b, 10**6) - b) < 1e-3

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report("1 burstiness limits", f"exp raw={b_exp:+.4f}, {elapsed:.2f}s")


def test_criterion_2_intensity_closed_form():
    started = time.perf_counter()

    q = 0.0
    for _ in range(50):
        q = intensity_update(q, 300, 1 / 300)
    assert abs(q - 2.0) < 1e-6

    assert intensity_update(q, 10**9, 1 / 300) == 1.0  # huge gap resets toward one

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("2 intensity closed form", f"|q-2|={abs(q - 2.0):.2e}, {elapsed:.2f}s")


def _random_series(rng):
    """Heterogeneous random series: mixed rates, ties, and occasional bursts."""
    bucket = rng.random()
    if bucket < 0.95:
        n = rng.randint(2, 1000)
    elif bucket < 0.995:
        n = rng.randint(1000, 5000)
    else:
        n = rng.randint(5000, 10**4)
    mean = rng.choice([1.0, 10.0, 120.0, 300.0, 1800.0])
    ts = [rng.randint(0, 10**6)]
    burst_left = 0
    for _ in range(n - 1):
        if burst_left == 0 and rng.random() < 0.01:
            burst_left = rng.randint(5, 50)
        gap = 0 if burst_left else int(round(rng.expovariate(1.0 / mean)))
        burst_left = max(0, burst_left - 1)
        ts.append(ts[-1] + gap)
    return ts


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(0xB6B)
    total_events = 0
    for _ in range(1000):
        ts = _random_series(rng)
        total_events += len(ts)
        report = detect_events(EventSeries(1, "c", tuple(ts)), collect_trace=True)
        streaming = [i + 1 for i, row in enumerate(report.trace) if row.flag]
        assert streaming == ref_detect(ts)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report("3 oracle equivalence", f"1000 series, {total_events} events, {elapsed:.1f}s")


def test_criterion_4_monte_carlo_calibration():
    started = time.perf_counter()
    rng = np.random.default_rng(2025)
    trials = 500
    fired = 0
    alpha = 0.05
    for _ in range(trials):
        gaps = rng.exponential(300.0, size=(101, 59))
        stamps = np.rint(np.cumsum(gaps, axis=1)).astype(int)
        windows = [EventSeries(1, "c", (0, *map(int, row))) for row in stamps]
        result = monte_carlo_null_test(
            windows[:100], series_burstiness(windows[100]), k=100, alpha_sig=alpha
        )
        fired += result.significant
    rate = fired / trials
    assert rate <= 0.08
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report("4 monte carlo calibration", f"fire rate={rate:.3f} over {trials} trials, {elapsed:.1f}s")


def test_criterion_5_end_to_end_synthetic_incident():
    started = time.perf_counter()
    scenario = incident_scenario(seed=1, mean_gap=600.0, prefixes_per_second=100)
    series = build_series(scenario.events, scenario.asn, scenario.collector)
    volume = build_volume_series(scenario.events, scenario.asn, scenario.collector)
    config = DetectorConfig()  # r=1/300, omega=200, delta=2
    reports = {
        "burstiness": detect_events(series, config),
        "volume": detect_volume(volume, config),
    }
    window = IncidentWindow(
        "synthetic", scenario.asn, scenario.incident_start, scenario.incident_end,
        "large-scale",
    )
    rows = {
        row.detector: row.evaluation
        for row in evaluate_incident(reports, window, scenario.bounds, m=10800)
    }
    assert rows["burstiness"].recall == 1.0
    assert rows["volume"].precision is not None
    assert rows["burstiness"].precision >= rows["volume"].precision
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        "5 end-to-end synthetic incident",
        f"precision burstiness={rows['burstiness'].precision:.3f} "
        f">= volume={rows['volume'].precision:.3f}, recall=1.0, {elapsed:.1f}s",
    )


def test_criterion_6_metric_formulas():
    from bgpburst.evaluation import score

    tp, fp, fn, tn, precision, recall, f1 = score({2}, {2, 5}, 56)
    assert (tp, fp, fn, tn) == (1, 1, 0, 54)
    assert precision == 0.5
    assert recall == 1.0
    assert f1 == 2 / 3
    _report("6 metric formulas", "precision=0.5 recall=1.0 f1=2/3 exact")


REPLAY_DIR = os.environ.get("BGPBURST_REPLAY_DIR")


@pytest.mark.skipif(
    not REPLAY_DIR,
    reason="network replay data not available; set BGPBURST_REPLAY_DIR to the "
    "route-views.linx update archives for 2014-03-30..2014-04-05",
)
def test_criterion_7_indosat_replay():
    from importlib import resources

    paths = sorted(Path(REPLAY_DIR).glob("updates.*"))
    assert paths, f"no updates.* files under {REPLAY_DIR}"
    events = []
    for path in paths:
        events.extend(
            parse_mrt_updates(path.read_bytes(), collector="route-views.linx").events
        )
    series = build_series(events, 4761, "route-views.linx")
    volume = build_volume_series(events, 4761, "route-views.linx")
    config = DetectorConfig()
    reports = {
        "burstiness": detect_events(series, config),
        "volume": detect_volume(volume, config),
    }
    incidents = load_incidents(
        str(resources.files("bgpburst").joinpath("data/incidents.json"))
    )
    indosat = next(w for w in incidents if w.perpetrator_asn == 4761)
    stamps = [ev.timestamp for ev in events]
    bounds = (min(stamps), max(stamps) + 1)
    rows = {
        row.detector: row.evaluation
        for row in evaluate_incident(reports, indosat, bounds, m=10800)
    }
    assert rows["burstiness"].precision == pytest.approx(0.25)
    assert rows["burstiness"].recall == 1.0
    assert rows["burstiness"].f1 == pytest.approx(0.40)
    _report("7 indosat replay", "route-views.linx row 25%/100%/40%")


def test_criterion_8_parser_conservation_and_round_trip():
    data, nlri_entries = golden.golden_file()
    result = parse_mrt_updates(data, collector="route-views.test")
    stats = result.stats
    assert stats.nlri_seen == nlri_entries
    assert stats.events_emitted + stats.events_dropped == stats.nlri_seen

    # add a record whose path is malformed: its announcements are dropped
    # but still accounted for
    bad_path = bytes([golden.AS_SEQUENCE, 2]) + (64512).to_bytes(2, "big")
    mixed = data + golden.update_record(
        9, 65001, [], announce=["10.0.0.0/8", "10.1.0.0/16"], raw_as_path=bad_path
    )
    stats = parse_mrt_updates(mixed, collector="route-views.test").stats
    assert stats.nlri_seen == nlri_entries + 2
    assert stats.events_dropped == 2
    assert stats.events_emitted + stats.events_dropped == stats.nlri_seen

    buf = io.StringIO()
    write_event_lines(result.events, buf)
    assert list(parse_event_lines(io.StringIO(buf.getvalue()))) == result.events
    _report("8 parser conservation", f"{stats.nlri_seen} NLRI entries accounted for")
