import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import differential
from ref_detector import ref_detect, ref_detect_values
from bgpburst.detector import (
    CONFIG_KEYS,
    DetectorConfig,
    OutOfOrderError,
    detect_events,
    detect_volume,
    ema_update,
    intensity_update,
    parse_config,
    write_trace_csv,
)
from bgpburst.events import EventSeries, VolumeSeries


@pytest.mark.parametrize("field", ["r", "delta", "variance_floor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DetectorConfig(**{field: value})


class TestIntensityUpdate:
    def test_first_event_from_zero_state(self):
        for gap in (0, 1, 300, 10**9):
            assert intensity_update(0.0, gap, 1 / 300) == 1.0

    def test_single_halflife_step(self):
        assert intensity_update(1.0, 300, 1 / 300) == 1.5

    def test_zero_gap_adds_one(self):
        assert intensity_update(3.25, 0, 1 / 300) == 4.25

    def test_converges_to_two_on_constant_gaps(self):
        q = 0.0
        for _ in range(50):
            q = intensity_update(q, 300, 1 / 300)
        assert abs(q - 2.0) < 1e-6

    def test_huge_gap_resets_towards_one(self):
        assert intensity_update(1e12, 10**9, 1 / 300) == 1.0

    def test_negative_gap_rejected(self):
        with pytest.raises(OutOfOrderError):
            intensity_update(1.0, -1, 1 / 300)

    @given(
        st.lists(st.integers(min_value=0, max_value=3600), min_size=2, max_size=300),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_shift_invariance(self, gaps, shift):
        ts = [0]
        for gap in gaps:
            ts.append(ts[-1] + gap)
        config = DetectorConfig()
        a = EventSeries(1, "c", tuple(ts))
        b = EventSeries(1, "c", tuple(t + shift for t in ts))
        ra = detect_events(a, config, collect_trace=True)
        rb = detect_events(b, config, collect_trace=True)
        assert [row.value for row in ra.trace] == [row.value for row in rb.trace]
        assert [row.flag for row in ra.trace] == [row.flag for row in rb.trace]

    @given(st.lists(st.integers(min_value=60, max_value=3600), min_size=1, max_size=500))
    def test_upper_bound_under_minimum_gap(self, gaps):
        config = DetectorConfig()
        g = min(gaps)
        bound = 1.0 / (1.0 - 2.0 ** (-config.r * g))
        q = 0.0
        for gap in gaps:
            q = intensity_update(q, gap, config.r)
            assert q <= bound + 1e-9


class TestEmaUpdate:
    def test_constant_input_is_fixed_point(self):
        mu, var, sigma = ema_update(4.5, 0.0, 4.5, 0.3)
        assert (mu, var, sigma) == (4.5, 0.0, 0.0)

    def test_single_step_from_cold_state(self):
        assert ema_update(0.0, 0.0, 1.0, 0.5) == (0.5, 0.25, 0.5)

    def test_variance_uses_pre_update_mean(self):
        mu, var, _ = ema_update(1.0, 0.0, 3.0, 0.5)
        # residual against the old mean (2.0), not the new one (also 2.0 here
        # by accident of a=0.5, so pick asymmetric a)
        mu2, var2, _ = ema_update(1.0, 0.0, 3.0, 0.25)
        assert var2 == pytest.approx(0.75 * 0.25 * 4.0)
        assert mu2 == pytest.approx(1.5)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200
        )
    )
    def test_mean_stays_in_input_envelope(self, ys):
        a = 2.0 / (1.0 + 200)
        mu, var = ys[0], 0.0
        lo, hi = min(ys), max(ys)
        for y in ys[1:]:
            mu, var, _ = ema_update(mu, var, y, a)
            assert lo - 1e-6 <= mu <= hi + 1e-6


def poisson_ts(seed, n, gap=300.0, start=0):
    rng = random.Random(seed)
    t = float(start)
    out = []
    for _ in range(n):
        out.append(int(round(t)))
        t += rng.expovariate(1.0 / gap)
    return out


def flags_of(report):
    return [i + 1 for i, row in enumerate(report.trace) if row.flag]


class TestDetectEvents:
    def test_two_event_series_matches_reference(self):
        series = EventSeries(1, "c", (0, 120))
        report = detect_events(series, collect_trace=True)
        assert flags_of(report) == ref_detect([0, 120])
        assert len(report.anomalous_timestamps) <= 1

    def test_short_series_empty_report(self):
        assert detect_events(EventSeries(1, "c", (5,))).anomalous_timestamps == ()
        assert detect_events(EventSeries(1, "c", ())).anomalous_timestamps == ()

    def test_regular_300s_flags_stop_after_warmup_transient(self):
        # Oracle-derived: the cold-start transient flags indexes 1..23 on a
        # 500-event regular series and nothing afterwards.
        ts = tuple(300 * i for i in range(500))
        report = detect_events(EventSeries(1, "c", ts), collect_trace=True)
        flagged = flags_of(report)
        assert flagged == ref_detect(list(ts))
        assert max(flagged) == 23
        assert set(flagged) == set(range(1, 24))

    def test_poisson_then_burst_flags_concentrate_in_burst(self):
        background = poisson_ts(seed=7, n=1000)
        burst_start = background[-1] + 300
        ts = background + [burst_start + i for i in range(200)]
        report = detect_events(EventSeries(1, "c", tuple(ts)), collect_trace=True)
        in_burst = [t for t in report.anomalous_timestamps if t >= burst_start]
        outside = [t for t in report.anomalous_timestamps if t < burst_start]
        assert len(in_burst) >= 1
        density_in = len([i for i in flags_of(report) if ts[i] >= burst_start]) / 200
        density_out = len([i for i in flags_of(report) if ts[i] < burst_start]) / 1000
        # Oracle-derived ratio is ~6.3 for this seed (early cold-start flags
        # keep the outside density nonzero); require a safe margin below it.
        assert density_in >= 4 * density_out
        assert outside  # the cold-start transient is expected and documented

    def test_matches_reference_on_random_series(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(2, 400)
            ts = [0]
            for _ in range(n - 1):
                ts.append(ts[-1] + int(rng.expovariate(1 / rng.choice([5, 60, 300, 900]))))
            report = detect_events(EventSeries(1, "c", tuple(ts)), collect_trace=True)
            assert flags_of(report) == ref_detect(ts)

    def test_warmup_suppresses_early_flags(self):
        ts = tuple(300 * i for i in range(500))
        config = DetectorConfig(warmup=23)
        report = detect_events(EventSeries(1, "c", ts), config, collect_trace=True)
        assert flags_of(report) == []

    def test_anomalous_timestamps_subset_of_series(self):
        ts = tuple(poisson_ts(seed=3, n=500, gap=60))
        report = detect_events(EventSeries(1, "c", ts))
        assert set(report.anomalous_timestamps) <= set(ts)
        assert ts[0] not in report.anomalous_timestamps or ts.count(ts[0]) > 1


class TestDetectVolume:
    def test_constant_counts_flag_only_during_cold_start(self):
        vol = VolumeSeries(1, "c", tuple(range(0, 300 * 400, 300)), (1,) * 400)
        report = detect_volume(vol, collect_trace=True)
        flagged = flags_of(report)
        assert flagged == ref_detect_values([1] * 400)
        assert max(flagged) == 22  # oracle-derived cold-start transient

    def test_variance_floor_keeps_constant_series_quiet(self):
        # without the floor, float convergence would eventually make the
        # band collapse onto the data and flag every point
        vol = VolumeSeries(1, "c", tuple(range(0, 300 * 2000, 300)), (5,) * 2000)
        report = detect_volume(vol, DetectorConfig(variance_floor=1e-9))
        assert all(ts <= 300 * 30 for ts in report.anomalous_timestamps)

    def test_spike_flagged(self):
        counts = [1] * 400
        counts[200] = 10**4
        volume = VolumeSeries(1, "c", tuple(range(0, 60 * 400, 60)), tuple(counts))
        report = detect_volume(volume, collect_trace=True)
        assert 60 * 200 in report.anomalous_timestamps
        late = [i for i in flags_of(report) if i >= 100]
        assert late == [200]

    def test_empty_and_single_point_series(self):
        assert detect_volume(VolumeSeries(1, "c", (), ())).anomalous_timestamps == ()
        assert detect_volume(VolumeSeries(1, "c", (5,), (7,))).anomalous_timestamps == ()

    def test_matches_reference_on_random_counts(self):
        rng = random.Random(5)
        counts = [rng.randint(1, 40) for _ in range(800)]
        vol = VolumeSeries(1, "c", tuple(range(0, 30 * len(counts), 30)), tuple(counts))
        report = detect_volume(vol, collect_trace=True)
        assert flags_of(report) == ref_detect_values(counts)

    def test_flag_set_invariant_under_scaling(self):
        rng = random.Random(6)
        counts = [rng.randint(1, 40) for _ in range(500)]
        stamps = tuple(range(0, 30 * len(counts), 30))
        base = VolumeSeries(1, "c", stamps, tuple(counts))
        scaled = VolumeSeries(1, "c", stamps, tuple(7 * c for c in counts))
        assert (
            detect_volume(base).anomalous_timestamps
            == detect_volume(scaled).anomalous_timestamps
        )


band_settings = st.fixed_dictionaries({
    "r": st.floats(min_value=1e-5, max_value=2.0),
    "omega": st.integers(min_value=1, max_value=500),
    "delta": st.floats(min_value=0.05, max_value=5.0),
})


@settings(max_examples=200, deadline=None)
@given(band_settings, st.lists(st.integers(min_value=0, max_value=2000), max_size=300))
def test_event_detector_matches_reference_for_any_band(band, gaps):
    ts = [0]
    for gap in gaps:
        ts.append(ts[-1] + gap)
    config = DetectorConfig(**band, variance_floor=0.0)
    report = detect_events(EventSeries(1, "c", tuple(ts)), config, collect_trace=True)
    assert flags_of(report) == ref_detect(ts, **band)


@settings(max_examples=200, deadline=None)
@given(band_settings, st.lists(st.integers(min_value=1, max_value=10**4), max_size=300))
def test_volume_detector_matches_reference_for_any_band(band, counts):
    config = DetectorConfig(**band, variance_floor=0.0)
    volume = VolumeSeries(1, "c", tuple(range(0, 60 * len(counts), 60)), tuple(counts))
    report = detect_volume(volume, config, collect_trace=True)
    band.pop("r")
    assert flags_of(report) == ref_detect_values(counts, **band)


# Gaps from 0 to 10**6 s, with runs of zero gaps.
gap_lists = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=10**6).map(lambda gap: [gap]),
        st.integers(min_value=0, max_value=3600).map(lambda gap: [gap]),
        st.integers(min_value=1, max_value=40).map(lambda n: [0] * n),
    ),
    max_size=60,
).map(lambda runs: [gap for run in runs for gap in run])
# DetectorConfig's valid range, with most draws where the settings are used.
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
configs = st.builds(
    DetectorConfig,
    r=st.floats(min_value=1e-6, max_value=1.0) | positive,
    omega=st.integers(min_value=1, max_value=1000) | st.integers(min_value=1),
    delta=st.floats(min_value=0.05, max_value=5.0) | positive,
    warmup=st.integers(min_value=0, max_value=100),
    variance_floor=st.floats(min_value=0.0, max_value=3.0) | positive,
)


class TestInlinedKernel:
    """The detectors inline intensity_update and ema_update: a fold of the
    public single steps gives the same trace rows and flags, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(configs, gap_lists, st.integers(min_value=0, max_value=2**40))
    def test_detect_events_equals_step_fold(self, config, gaps, start):
        ts = [start]
        for gap in gaps:
            ts.append(ts[-1] + gap)
        report = detect_events(EventSeries(1, "c", tuple(ts)), config, collect_trace=True)
        rows = differential.step_trace(ts, differential.step_intensities(ts, config.r), config)
        assert list(report.trace) == rows
        assert report.anomalous_timestamps == tuple(sorted({row.ts for row in rows if row.flag}))

    @settings(max_examples=300, deadline=None)
    @given(configs, st.lists(st.integers(min_value=1, max_value=10**9), max_size=300))
    def test_detect_volume_equals_step_fold(self, config, counts):
        stamps = [60 * i for i in range(len(counts))]
        volume = VolumeSeries(1, "c", tuple(stamps), tuple(counts))
        report = detect_volume(volume, config, collect_trace=True)
        rows = differential.step_trace(stamps, [float(c) for c in counts], config)
        assert list(report.trace) == rows
        assert report.anomalous_timestamps == tuple(sorted({row.ts for row in rows if row.flag}))

    def test_decreasing_timestamps_raise_with_the_first_negative_gap(self):
        class Unchecked:  # an EventSeries would refuse these timestamps
            origin_asn, collector, timestamps = 1, "c", (5, 7, 7, 3, 9, 1)

        with pytest.raises(OutOfOrderError, match=r"^negative inter-arrival gap -4$"):
            detect_events(Unchecked())


class TestConfig:
    def test_defaults(self):
        config = DetectorConfig()
        assert config.r == pytest.approx(1 / 300)
        assert config.omega == 200
        assert config.delta == 2.0
        assert config.a == 2.0 / 201.0

    def test_a_identity_exact(self):
        for omega in (1, 10, 200, 999):
            assert DetectorConfig(omega=omega).a == 2.0 / (1.0 + omega)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(r=0)
        with pytest.raises(ValueError):
            DetectorConfig(omega=0)
        with pytest.raises(ValueError):
            DetectorConfig(delta=0)
        with pytest.raises(ValueError):
            DetectorConfig(warmup=-1)

    def test_load_json_config(self):
        raw = parse_config('{"r": 0.01, "omega": 100, "delta": 3, "min_events": 8}')
        config = DetectorConfig.from_mapping(raw)
        assert (config.r, config.omega, config.delta) == (0.01, 100, 3.0)
        assert raw["min_events"] == 8

    def test_load_flat_config_with_fraction(self):
        config = DetectorConfig.from_mapping(parse_config("# comment\nr = 1/300\nomega = 200\ndelta = 2\n"))
        assert config.r == pytest.approx(1 / 300)

    def test_keys_are_the_fields(self):
        assert CONFIG_KEYS == ("r", "omega", "delta", "warmup", "variance_floor", "min_events")
        assert DetectorConfig().min_events == 5

    @pytest.mark.parametrize(
        "mapping",
        [
            {"omega": None},
            {"r": [1]},
            {"min_events": "x"},
            {"omega": True},
            {"delta": False},
            {"omega": 200.9},
            {"warmup": 0.5},
            {"min_events": 5.5},
            {"omega": math.inf},
            {"r": 10**400},
            {"min_events": 1},
            {"min_events": 0},
            {"bogus": 1},
        ],
    )
    def test_from_mapping_rejects_bad_settings(self, mapping):
        with pytest.raises(ValueError):
            DetectorConfig.from_mapping(mapping)

    def test_from_mapping_takes_integral_floats(self):
        config = DetectorConfig.from_mapping({"omega": 100.0, "warmup": 3.0, "min_events": 8.0, "delta": 3})
        assert (config.omega, config.warmup, config.min_events) == (100, 3, 8)
        assert all(type(getattr(config, key)) is int for key in ("omega", "warmup", "min_events"))
        assert type(config.delta) is float

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_config('{"bogus": 1}')


def test_trace_csv_format():
    series = EventSeries(4761, "linx", (0, 10, 20, 500))
    report = detect_events(series, collect_trace=True)
    buf = io.StringIO()
    write_trace_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "ts,q,psi,sigma,flag"
    assert len(lines) == 4  # n - 1 processed events
    first = lines[1].split(",")
    assert first[0] == "10"
    assert float(first[1]) == pytest.approx(1.0)
    assert first[4] in ("0", "1")


def test_trace_requires_collection():
    report = detect_events(EventSeries(1, "c", (0, 10)))
    with pytest.raises(ValueError):
        write_trace_csv(report, io.StringIO())
