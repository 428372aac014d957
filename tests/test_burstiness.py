import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bgpburst.burstiness import (
    UndefinedStatisticError,
    _mean_std,
    _percentile,
    burstiness_raw,
    finite_size_correction,
    inter_arrivals,
    series_burstiness,
)
from bgpburst.events import EventSeries


def gaps_series(intervals):
    """A series from 0 whose inter-arrival times are the given whole seconds."""
    return EventSeries(1, "c", tuple(accumulate(intervals, initial=0)))


class TestInterArrivals:
    def test_regular_intervals(self):
        assert inter_arrivals(EventSeries(1, "c", (0, 300, 600))) == (300.0, 300.0)

    def test_single_event_degenerate(self):
        assert inter_arrivals(EventSeries(1, "c", (5,))) == ()

    def test_same_second_events_keep_zero_gaps(self):
        assert inter_arrivals(EventSeries(1, "c", (0, 0, 10))) == (0.0, 10.0)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=50))
    def test_interval_count_invariant(self, timestamps):
        series = EventSeries(1, "c", tuple(sorted(timestamps)))
        assert len(inter_arrivals(series)) == len(series.timestamps) - 1

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            inter_arrivals(EventSeries(1, "c", (0, 10, 5)))


class TestRawBurstiness:
    def test_regular_is_minus_one(self):
        assert burstiness_raw([10, 10, 10, 10]) == -1.0

    def test_small_fixture(self):
        # mu = 2, population sigma = sqrt(2)
        expected = (math.sqrt(2) - 2) / (math.sqrt(2) + 2)
        assert burstiness_raw([1, 1, 4]) == pytest.approx(expected, abs=1e-15)

    def test_exponential_centers_on_zero(self):
        rng = np.random.default_rng(20240901)
        intervals = rng.exponential(300.0, 10**5)
        assert abs(burstiness_raw(intervals)) <= 0.02

    def test_all_zero_intervals_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            burstiness_raw([0, 0, 0])

    def test_empty_sample_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            burstiness_raw(())

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=50).filter(
            lambda xs: sum(xs) > 1e-6
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_free(self, intervals, scale):
        base = burstiness_raw(intervals)
        scaled = burstiness_raw([scale * x for x in intervals])
        assert scaled == pytest.approx(base, abs=1e-7)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=50).filter(
            lambda xs: sum(xs) > 1e-6
        ),
        st.randoms(),
    )
    def test_permutation_invariant(self, intervals, rand):
        shuffled = list(intervals)
        rand.shuffle(shuffled)
        assert burstiness_raw(shuffled) == pytest.approx(burstiness_raw(intervals), abs=1e-12)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50).filter(
            lambda xs: sum(xs) > 1e-6
        )
    )
    def test_bounded(self, intervals):
        assert -1.0 <= burstiness_raw(intervals) <= 1.0


class TestFiniteSizeCorrection:
    def test_minus_one_fixed_point(self):
        for n in (5, 12, 1000, 10**6):
            assert finite_size_correction(-1.0, n) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_at_n_12(self):
        assert finite_size_correction(0.0, 12) == pytest.approx(0.0586989334077167, abs=1e-15)

    def test_large_n_limit(self):
        assert finite_size_correction(0.5, 10**6) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("b", [-0.5, 0.0, 0.5])
    def test_convergence_is_monotone(self, b):
        diffs = [abs(finite_size_correction(b, 10**k) - b) for k in range(1, 7)]
        assert all(d1 >= d2 for d1, d2 in zip(diffs, diffs[1:]))

    @given(
        st.integers(min_value=5, max_value=10**7),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_stays_in_scale_on_feasible_inputs(self, n, frac):
        # the largest raw value reachable from n events is set by one huge gap
        # among n - 2 empty ones
        top = math.sqrt(n - 2)
        b_max = (top - 1.0) / (top + 1.0)
        b = -1.0 + frac * (b_max + 1.0)
        assert -1.0 - 1e-9 <= finite_size_correction(b, n) <= 1.0 + 1e-9

    def test_min_events_threshold(self):
        assert series_burstiness(gaps_series([1, 2, 3])).b_corrected is None  # 4 events < 5

    def test_corrected_regular_exact(self):
        b = series_burstiness(gaps_series([300] * 9)).b_corrected
        assert b == pytest.approx(-1.0, abs=1e-12)


class TestResultSummary:
    def test_fields(self):
        res = series_burstiness(gaps_series([1, 1, 4, 2]))
        assert res.n_events == 5
        assert res.mu == pytest.approx(2.0)
        assert res.b_corrected is not None

    def test_below_threshold_has_no_corrected_value(self):
        res = series_burstiness(gaps_series([1, 2]))
        assert res.b_corrected is None
        assert -1.0 <= res.b_raw <= 1.0

    def test_series_burstiness_end_to_end(self):
        series = EventSeries(1, "c", tuple(range(0, 3000, 300)))
        res = series_burstiness(series)
        assert res.b_raw == -1.0
        assert res.b_corrected == pytest.approx(-1.0, abs=1e-12)


@settings(max_examples=50)
@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=5, max_size=200),
)
def test_corrected_defined_whenever_gaps_vary(timestamps):
    ts = tuple(sorted(timestamps))
    series = EventSeries(1, "c", ts)
    if len(set(inter_arrivals(series))) <= 1:
        return  # constant or empty gap vector is covered elsewhere
    b = series_burstiness(series).b_corrected
    assert -1.0 <= b <= 1.0


# Sizes at and around the pairwise-sum boundaries: the left-to-right cut-off
# (8), one block (128), the first split (136) and a buffer's worth (8192).
REPLICA_SIZES = [1, 7, 8, 9, 127, 128, 129, 136, 256, 257, 8193, 100_000]


@st.composite
def replica_values(draw, n):
    """n ints or n floats, either with many ties or mostly distinct."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["int", "int ties", "float", "float ties"]))
    if kind == "int":
        return rng.integers(0, 10**9, n).tolist()
    if kind == "int ties":
        return rng.integers(0, 5, n).tolist()
    if kind == "float":
        return (rng.pareto(1.2, n) * draw(st.sampled_from([1e-6, 1.0, 300.0, 1e12]))).tolist()
    return rng.choice([0.0, 0.1, 1.0, 3.5, 1e9], n).tolist()


PERCENTILES = st.sampled_from([0, 50, 95, 100]) | st.floats(0, 100)


class TestNumpyReplica:
    """The pure-Python reductions give exactly NumPy's float64 results."""

    def check(self, values, q):
        floats = [float(x) for x in values]
        arr = np.asarray(floats)
        assert _mean_std(floats) == (float(arr.mean()), float(arr.std()))
        assert _percentile(values, q) == float(np.percentile(values, q))

    @pytest.mark.parametrize("n", REPLICA_SIZES)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), q=PERCENTILES)
    def test_sizes(self, n, data, q):
        self.check(data.draw(replica_values(n)), q)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.integers(0, 20), min_size=1, max_size=300)
        | st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=300),
        q=PERCENTILES,
    )
    @example(values=[0.1, 0.7], q=50)  # midway, a + d/2 and b - d/2 round apart
    def test_drawn_lists(self, values, q):
        self.check(values, q)

    @pytest.mark.parametrize("q", [-1, 100.5])
    def test_percentile_out_of_range(self, q):
        with pytest.raises(ValueError):
            _percentile([1.0, 2.0], q)
