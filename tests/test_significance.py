import io
import json

import numpy as np
import pytest

from bgpburst.burstiness import (
    InsufficientNullDataError,
    joint_distribution,
    monte_carlo_null_test,
    series_burstiness,
    write_significance_json,
)
from bgpburst.events import EventSeries, build_series
from bgpburst.synth import GeneratorSpec, generate_stream


def poisson_window(asn, seed, n=60, gap=300.0):
    spec = GeneratorSpec("poisson", gap, n, 0, asn, "c", seed)
    return build_series(generate_stream(spec), asn, "c")


def bursty_window(asn=1):
    # 58 same-second announcements then one huge pause: raw coefficient
    # (sqrt(58) - 1) / (sqrt(58) + 1), far above anything memoryless
    return EventSeries(asn, "c", tuple([0] * 59 + [10**6]))


NULLS = [poisson_window(1, seed) for seed in range(100)]


class TestRankPValue:
    def test_observation_above_all_nulls(self):
        observed = series_burstiness(bursty_window())
        result = monte_carlo_null_test(NULLS, observed)
        assert len(result.null_samples) == 100
        assert result.observed_b > max(result.null_samples)
        assert result.empirical_p == pytest.approx(1 / 101)
        assert result.significant

    def test_observation_at_null_median_not_significant(self):
        ranked = sorted(NULLS, key=lambda s: series_burstiness(s).b_corrected)
        observed = series_burstiness(ranked[50])
        result = monte_carlo_null_test(NULLS, observed)
        assert 0.3 <= result.empirical_p <= 0.7
        assert not result.significant

    def test_p_value_strictly_positive_and_at_most_one(self):
        for seed in range(120, 140):
            observed = series_burstiness(poisson_window(1, seed))
            result = monte_carlo_null_test(NULLS, observed)
            assert 0.0 < result.empirical_p <= 1.0


class TestNullWindowHandling:
    def test_short_windows_skipped_and_counted(self):
        thin = [EventSeries(1, "c", (1, 2, 3)) for _ in range(10)]
        result = monte_carlo_null_test(thin + NULLS[:40], series_burstiness(NULLS[41]))
        assert result.skipped_windows == 10
        assert len(result.null_samples) == 40

    def test_insufficient_null_windows(self):
        with pytest.raises(InsufficientNullDataError):
            monte_carlo_null_test(NULLS[:19], series_burstiness(NULLS[50]))

    def test_at_most_k_windows_used(self):
        result = monte_carlo_null_test(NULLS, series_burstiness(NULLS[0]), k=30)
        assert len(result.null_samples) == 30

    @pytest.mark.parametrize("k, alpha_sig", [
        (0, 0.05), (-3, 0.05), (19, 0.05),
        (100, float("nan")), (100, float("inf")), (100, 1.5), (100, 1.0), (100, 0.0), (100, -0.05),
    ])
    def test_bad_settings_rejected(self, k, alpha_sig):
        observed = series_burstiness(bursty_window())
        with pytest.raises(ValueError, match=r"^(null sample count k|significance level alpha_sig)"):
            monte_carlo_null_test(NULLS, observed, k=k, alpha_sig=alpha_sig)

    def test_observed_without_corrected_value_rejected(self):
        observed = series_burstiness(EventSeries(1, "c", (1, 5, 9)))
        assert observed.b_corrected is None
        with pytest.raises(Exception):
            monte_carlo_null_test(NULLS, observed)

    @pytest.mark.parametrize("min_events", [2, 5, 12])
    def test_joint_table_skips_the_same_windows(self, min_events):
        # One AS per window: the joint table's rows are the null test's samples.
        unusable = [
            EventSeries(1, "c", ()),
            EventSeries(2, "c", (7,)),
            EventSeries(3, "c", tuple(range(0, 600 * (min_events - 1), 600))),
            EventSeries(4, "c", (1000,) * (min_events + 3)),  # every announcement in one second
        ]
        usable = [poisson_window(asn, seed=asn) for asn in range(10, 35)]
        windows = unusable + usable
        table = joint_distribution(windows, (0, 10**7), min_events=min_events)
        result = monte_carlo_null_test(
            windows, series_burstiness(bursty_window(), min_events), min_events=min_events
        )
        assert [asn for asn, _ in table.skipped] == [1, 2, 3, 4]
        assert result.skipped_windows == 4
        assert result.null_samples == tuple(row.b_corrected for row in table.rows)
        assert [row.asn for row in table.rows] == list(range(10, 35))


def test_calibration_smoke():
    # Poisson observation against Poisson nulls should rarely fire.
    rng = np.random.default_rng(7)
    fired = 0
    trials = 60
    for _ in range(trials):
        gaps = rng.exponential(300.0, size=(41, 59))
        stamps = np.rint(np.cumsum(gaps, axis=1)).astype(int)
        windows = [
            EventSeries(1, "c", (0, *map(int, row))) for row in stamps
        ]
        result = monte_carlo_null_test(windows[:40], series_burstiness(windows[40]))
        fired += result.significant
    assert fired / trials <= 0.15


def test_json_export_round_trips():
    result = monte_carlo_null_test(NULLS, series_burstiness(bursty_window()))
    buf = io.StringIO()
    write_significance_json(result, buf)
    doc = json.loads(buf.getvalue())
    assert doc["significant"] is True
    assert doc["observed_b"] == result.observed_b
    assert len(doc["null_samples"]) == 100
    assert doc["alpha_sig"] == 0.05
