"""Inter-arrival burstiness statistics and their significance testing.

The burstiness coefficient maps an inter-arrival distribution onto [-1, 1]:
-1 for perfectly regular gaps, 0 for memoryless (exponential) gaps, and
towards +1 as the gaps become heavy-tailed.  Short series bias the raw
coefficient, so a finite-sample correction parameterized by the event count
is applied before any cross-AS comparison.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from itertools import islice
from operator import add, sub
from typing import IO, Iterable, Sequence

from .detector import DEFAULT_MIN_EVENTS
from .events import EventSeries, FrozenRecord

MIN_NULL_SAMPLES = 20  # usable null windows a significance test needs, so the least k


class UndefinedStatisticError(ValueError):
    """mu and sigma are both zero (or there are no intervals at all)."""


class InsufficientDataError(ValueError):
    """Fewer events than the minimum required for a corrected coefficient."""


class DegenerateTableError(ValueError):
    """A joint activity table needs at least two qualifying ASes."""


class InsufficientNullDataError(ValueError):
    """Too few usable null windows to run the significance test."""


class BurstinessResult(FrozenRecord):
    __slots__ = ("mu", "sigma", "b_raw", "b_corrected", "n_events")  # b_corrected may be None


def inter_arrivals(series: EventSeries) -> tuple[float, ...]:
    """Consecutive timestamp differences; zero gaps are kept."""
    ts = series.timestamps
    return tuple(map(float, map(sub, islice(ts, 1, None), ts)))


# NumPy's float64 mean, population deviation and linear percentile, bit for
# bit, without a third-party package; the outputs read the same on every
# interpreter.  Floats are added left to right with operator.add, never with
# sum(): from Python 3.12 sum() compensates float rounding.


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    """NumPy's pairwise_sum of values[start:start + n]: blocks of at most 128
    values, each summed by eight stride-8 accumulators plus a left-to-right tail."""
    if n < 8:
        return reduce(add, values[start : start + n], 0.0)
    if n <= 128:
        stop = start + n - n % 8
        r = [reduce(add, values[start + j : stop : 8]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[stop : start + n], head)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _mean_std(values: list[float]) -> tuple[float, float]:
    """np.mean and np.std (population) of a non-empty float list."""
    n = len(values)
    mu = _pairwise_sum(values, 0, n) / n
    return mu, math.sqrt(_pairwise_sum([(x - mu) * (x - mu) for x in values], 0, n) / n)


def _percentile(values: Sequence[float], q: float) -> float:
    """np.percentile(values, q) with its default linear method."""
    if not 0 <= q <= 100:
        raise ValueError("Percentiles must be in the range [0, 100]")
    ordered = sorted(values)
    last = len(ordered) - 1
    v = last * (q / 100)
    lo = math.floor(v)
    a, b = ordered[lo], ordered[min(lo + 1, last)]
    g = v - lo
    diff = b - a
    return b - diff * (1 - g) if g >= 0.5 else a + diff * g


def _interval_stats(intervals: Sequence[float]) -> tuple[float, float, float]:
    """(mu, population sigma, (sigma - mu) / (sigma + mu)) of the intervals."""
    if len(intervals) == 0:
        raise UndefinedStatisticError("no intervals")
    mu, sigma = _mean_std(list(map(float, intervals)))
    if sigma + mu == 0.0:
        raise UndefinedStatisticError("all intervals are zero")
    return mu, sigma, (sigma - mu) / (sigma + mu)


def burstiness_raw(intervals: Sequence[float]) -> float:
    """(sigma - mu) / (sigma + mu) of the intervals, population sigma."""
    return _interval_stats(intervals)[2]


def finite_size_correction(b_raw: float, n_events: int) -> float:
    """Rescale a raw coefficient measured from n_events onto the asymptotic scale.

    The map fixes -1 (regular series stay regular), sends the small-sample
    expectation of a memoryless process to 0, and converges to the identity
    as n_events grows.
    """
    sp = math.sqrt(n_events + 1)
    sm = math.sqrt(n_events - 1)
    num = sp - sm + (sp + sm) * b_raw
    den = sp + sm - 2 + (sp - sm - 2) * b_raw
    return num / den


def series_burstiness(
    series: EventSeries, min_events: int = DEFAULT_MIN_EVENTS
) -> BurstinessResult:
    """Summary of a series's inter-arrival times; b_corrected is None below
    min_events.  Raises UndefinedStatisticError without two events in
    different seconds."""
    n = len(series)
    mu, sigma, b_raw = _interval_stats(inter_arrivals(series))
    b_corr = finite_size_correction(b_raw, n) if n >= min_events else None
    return BurstinessResult(mu, sigma, b_raw, b_corr, n)


def _window_burstiness(series: EventSeries, min_events: int) -> float | None:
    """The corrected coefficient of a window, or None when it has none: under
    min_events announcements, or every one in the same second.  The one skip
    rule of both the joint table and the Monte Carlo test."""
    try:
        return series_burstiness(series, min_events).b_corrected
    except UndefinedStatisticError:
        return None


class ActivityRow(FrozenRecord):
    __slots__ = ("asn", "b_corrected", "count", "quadrant")


class JointActivityTable(FrozenRecord):
    """Per-AS burstiness vs announcement volume over one window, with the
    two 95th-percentile thresholds that cut the plane into quadrants."""

    __slots__ = ("window", "rows", "b_p95", "count_p95", "skipped")
    _defaults = {"skipped": ()}  # (asn, count) of each AS without a coefficient


def _quadrant(b: float, count: int, b_p95: float, count_p95: float) -> int:
    high_b = b > b_p95
    high_count = count > count_p95
    if high_b and high_count:
        return 1
    if high_count:
        return 2
    if high_b:
        return 4
    return 3


def joint_distribution(
    corpus: Iterable[EventSeries],
    window: tuple[int, int],
    min_events: int = DEFAULT_MIN_EVENTS,
) -> JointActivityTable:
    """Quadrant table of corrected burstiness vs announcement count per AS.

    All series must come from a single collector.  ASes with fewer than
    min_events announcements inside the window, or with all of them in one
    second (no burstiness is defined), are excluded from both the rows and
    the 95th-percentile thresholds, and reported in `skipped`.
    """
    start, end = window
    if start >= end:
        raise ValueError("window start must precede end")
    collector = None
    seen: set[int] = set()
    qualifying: list[tuple[int, float, int]] = []
    skipped: list[tuple[int, int]] = []
    for series in corpus:
        if collector is None:
            collector = series.collector
        elif series.collector != collector:
            raise ValueError(
                f"mixed collectors in corpus: {collector!r} vs {series.collector!r}"
            )
        if series.origin_asn in seen:
            raise ValueError(f"duplicate series for AS{series.origin_asn}")
        seen.add(series.origin_asn)
        windowed = series.restrict(start, end)
        count = len(windowed)
        b = _window_burstiness(windowed, min_events)
        if b is None:
            skipped.append((series.origin_asn, count))
        else:
            qualifying.append((series.origin_asn, b, count))
    if len(qualifying) < 2:
        raise DegenerateTableError(
            f"only {len(qualifying)} ASes with >= {min_events} announcements in window"
        )
    b_p95 = _percentile([b for _, b, _ in qualifying], 95)
    count_p95 = _percentile([c for _, _, c in qualifying], 95)
    rows = tuple(
        ActivityRow(asn, b, count, _quadrant(b, count, b_p95, count_p95))
        for asn, b, count in sorted(qualifying)
    )
    return JointActivityTable(
        window=(start, end),
        rows=rows,
        b_p95=b_p95,
        count_p95=count_p95,
        skipped=tuple(sorted(skipped)),
    )


def write_joint_csv(table: JointActivityTable, out: IO[str]) -> None:
    out.write("asn,b_corrected,count,quadrant\n")
    for row in table.rows:
        out.write(f"{row.asn},{row.b_corrected:.6f},{row.count},{row.quadrant}\n")


def joint_sidecar(table: JointActivityTable) -> dict:
    return {
        "window": list(table.window),
        "b_p95": table.b_p95,
        "count_p95": table.count_p95,
        "n_rows": len(table.rows),
        "skipped": [{"asn": asn, "count": count} for asn, count in table.skipped],
    }


class SignificanceResult(FrozenRecord):
    """Rank-based two-sided test of an observed burstiness against null windows."""

    __slots__ = (
        "observed_b", "null_samples", "empirical_p", "significant", "alpha_sig", "skipped_windows",
    )
    _defaults = {"skipped_windows": 0}

    def as_dict(self) -> dict:
        return {**super().as_dict(), "null_samples": list(self.null_samples)}


def check_null_test_settings(k: int, alpha_sig: float) -> None:
    """Raise ValueError unless k >= MIN_NULL_SAMPLES and alpha_sig is a finite value in (0, 1)."""
    if k < MIN_NULL_SAMPLES:
        raise ValueError(f"null sample count k must be >= {MIN_NULL_SAMPLES}, got {k}")
    if not 0.0 < alpha_sig < 1.0:  # NaN fails both comparisons
        raise ValueError(f"significance level alpha_sig must lie in (0, 1), got {alpha_sig}")


def monte_carlo_null_test(
    null_windows: Iterable[EventSeries],
    observed: BurstinessResult,
    k: int = 100,
    alpha_sig: float = 0.05,
    min_events: int = DEFAULT_MIN_EVENTS,
) -> SignificanceResult:
    """Compare observed corrected burstiness with up to k no-incident windows.

    The p-value is the rank-based tail probability (1 + worse) / (1 + k) on
    whichever side the observation falls; significance at level alpha_sig
    means the observation sits outside the central 1 - alpha_sig band of the
    null distribution, i.e. the tail p-value is at most alpha_sig / 2.
    Settings outside check_null_test_settings raise ValueError.
    """
    check_null_test_settings(k, alpha_sig)
    if observed.b_corrected is None:
        raise InsufficientDataError("observed window lacks a corrected coefficient")
    nulls: list[float] = []
    skipped = 0
    for series in null_windows:
        if len(nulls) == k:
            break
        b = _window_burstiness(series, min_events)
        if b is None:
            skipped += 1
        else:
            nulls.append(b)
    if len(nulls) < MIN_NULL_SAMPLES:
        raise InsufficientNullDataError(
            f"{len(nulls)} usable null windows < required {MIN_NULL_SAMPLES}"
        )
    obs = observed.b_corrected
    n = len(nulls)
    p_upper = (1 + sum(1 for x in nulls if x >= obs)) / (1 + n)
    p_lower = (1 + sum(1 for x in nulls if x <= obs)) / (1 + n)
    empirical_p = min(p_upper, p_lower)
    return SignificanceResult(
        observed_b=obs,
        null_samples=tuple(nulls),
        empirical_p=empirical_p,
        significant=empirical_p <= alpha_sig / 2.0,
        alpha_sig=alpha_sig,
        skipped_windows=skipped,
    )


def write_significance_json(result: SignificanceResult, out: IO[str]) -> None:
    json.dump(result.as_dict(), out, indent=2, sort_keys=True)
    out.write("\n")
