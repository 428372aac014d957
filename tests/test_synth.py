import io
from collections import Counter

import pytest

from bgpburst.burstiness import series_burstiness
from bgpburst.events import build_series, build_volume_series, write_event_lines
from bgpburst.synth import (
    GeneratorSpec,
    IncidentSpec,
    generate_stream,
    incident_scenario,
    incident_timestamps,
    inject_incident_events,
    update_stream,
)


def spec(process="poisson", n=10**4, gap=300.0, seed=0, alpha=1.5):
    return GeneratorSpec(process, gap, n, 1_000_000, 64500, "c", seed, pareto_alpha=alpha)


def stream_series(spec):
    return build_series(generate_stream(spec), spec.asn, spec.collector)


class TestGenerateStream:
    def test_deterministic_byte_identical(self):
        one, two = io.StringIO(), io.StringIO()
        write_event_lines(generate_stream(spec(seed=42)), one)
        write_event_lines(generate_stream(spec(seed=42)), two)
        assert one.getvalue() == two.getvalue()

    def test_different_seed_different_stream(self):
        a = stream_series(spec(seed=1)).timestamps
        b = stream_series(spec(seed=2)).timestamps
        assert a != b

    def test_first_event_at_start_ts_whole_seconds(self):
        series = stream_series(spec(n=100))
        assert series.timestamps[0] == 1_000_000
        assert all(isinstance(t, int) for t in series.timestamps)

    def test_regular_process_is_perfectly_regular(self):
        series = stream_series(spec(process="regular", n=100))
        b = series_burstiness(series).b_corrected
        assert b == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_poisson_process_centers_on_zero(self, seed):
        series = stream_series(spec(seed=seed))
        b = series_burstiness(series).b_corrected
        assert abs(b) <= 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pareto_process_is_bursty(self, seed):
        series = stream_series(spec(process="pareto", seed=seed))
        b = series_burstiness(series).b_corrected
        assert b > 0.25

    @pytest.mark.parametrize("process", ["regular", "poisson", "pareto"])
    def test_empirical_mean_gap_within_two_percent(self, process):
        series = stream_series(spec(process=process, seed=3))
        span = series.timestamps[-1] - series.timestamps[0]
        mean_gap = span / (len(series) - 1)
        assert mean_gap == pytest.approx(300.0, rel=0.02)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("weird", 300, 10, 0, 1, "c", 0)
        with pytest.raises(ValueError):
            GeneratorSpec("poisson", 0, 10, 0, 1, "c", 0)
        with pytest.raises(ValueError):
            GeneratorSpec("poisson", 300, 0, 0, 1, "c", 0)
        with pytest.raises(ValueError):
            GeneratorSpec("pareto", 300, 10, 0, 1, "c", 0, pareto_alpha=1.0)

    @pytest.mark.parametrize("mean_gap, start_ts, asn, alpha, message", [
        (float("nan"), 0, 1, 1.5, "mean_gap must be positive and finite"),
        (float("inf"), 0, 1, 1.5, "mean_gap must be positive and finite"),
        (300.0, -5, 1, 1.5, "start_ts and asn must be nonnegative"),
        (300.0, 0, -7, 1.5, "start_ts and asn must be nonnegative"),
        (300.0, 0, 1, float("nan"), "pareto_alpha must exceed 1"),
        (300.0, 0, 1, float("inf"), "pareto_alpha must exceed 1"),
    ])
    def test_values_that_fail_in_generation_are_rejected_up_front(
        self, mean_gap, start_ts, asn, alpha, message
    ):
        with pytest.raises(ValueError, match=message):
            GeneratorSpec("pareto", mean_gap, 10, start_ts, asn, "c", 0, pareto_alpha=alpha)


class TestInjectIncident:
    def background(self):
        return generate_stream(spec(n=2000, gap=600.0, seed=4))

    def test_injected_series_contains_background(self):
        background = self.background()
        start = background[0].timestamp + 86400
        incident = IncidentSpec(start, start + 3600, burst_gap=1, prefixes_per_second=2)
        merged = build_series(inject_incident_events(background, incident), 64500, "c")
        assert len(merged) == len(background) + 2 * 3600
        remaining = Counter(merged.timestamps) - Counter(incident_timestamps(incident))
        assert remaining == Counter(ev.timestamp for ev in background)

    def test_burst_spacing_and_multiplicity(self):
        background = self.background()
        start = background[0].timestamp + 86400
        incident = IncidentSpec(start, start + 60, burst_gap=10, prefixes_per_second=3)
        stamps = incident_timestamps(incident)
        assert sorted(set(stamps)) == [start + 10 * k for k in range(6)]
        assert all(stamps.count(t) == 3 for t in set(stamps))

    def test_zero_length_incident_rejected(self):
        with pytest.raises(ValueError):
            IncidentSpec(100, 100)

    def test_window_outside_background_rejected(self):
        background = self.background()
        end = background[-1].timestamp
        with pytest.raises(ValueError, match="outside"):
            inject_incident_events(background, IncidentSpec(end + 10, end + 20))

    def test_event_level_injection_has_distinct_prefixes_per_second(self):
        events = generate_stream(spec(n=2000, gap=600.0, seed=4))
        start = events[0].timestamp + 86400
        incident = IncidentSpec(start, start + 30, burst_gap=1, prefixes_per_second=50)
        merged = inject_incident_events(events, incident)
        volume = build_volume_series(merged, 64500, "c")
        counts = dict(zip(volume.timestamps, volume.counts))
        assert all(counts[start + k] >= 50 for k in range(30))

    def test_empty_background_rejected(self):
        with pytest.raises(ValueError):
            inject_incident_events([], IncidentSpec(0, 10))


class TestUpdateStream:
    def test_deterministic(self):
        a = update_stream(1, "c", 0, 86400, 600.0, seed=5)
        b = update_stream(1, "c", 0, 86400, 600.0, seed=5)
        assert a == b

    def test_batch_sizes_bounded_and_prefixes_distinct(self):
        events = update_stream(1, "c", 0, 86400, 600.0, seed=6, batch_cap=16)
        per_second = {}
        for ev in events:
            per_second.setdefault(ev.timestamp, []).append(ev.prefix)
        for stamp, prefixes in per_second.items():
            assert 1 <= len(prefixes) <= 16
            assert len(set(prefixes)) == len(prefixes)

    def test_volume_counts_are_noisy(self):
        events = update_stream(1, "c", 0, 7 * 86400, 600.0, seed=7)
        volume = build_volume_series(events, 1, "c")
        counts = volume.counts
        assert min(counts) == 1
        assert max(counts) >= 8  # realistic feeds are not flat


class TestIncidentScenario:
    def test_alignment_and_shape(self):
        scenario = incident_scenario(seed=1)
        t0, t1 = scenario.bounds
        assert (scenario.incident_start - t0) % 10800 == 0
        assert scenario.incident_end - scenario.incident_start == 10800
        stamps = [ev.timestamp for ev in scenario.events]
        assert stamps == sorted(stamps)
        assert stamps[0] >= t0 and stamps[-1] < t1

    def test_burst_dominates_volume_inside_window(self):
        scenario = incident_scenario(seed=1, prefixes_per_second=100)
        volume = build_volume_series(scenario.events, scenario.asn, scenario.collector)
        inside = [
            c for ts, c in zip(volume.timestamps, volume.counts)
            if scenario.incident_start <= ts < scenario.incident_end
        ]
        assert min(inside) >= 100
