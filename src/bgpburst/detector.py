"""Streaming anomaly detection over announcement intensity and volume.

Each arriving announcement bumps an exponentially decayed intensity: the
count of recent announcements where "recent" is set by a decay factor r
(half-life 300 s by default, since almost all benign inter-arrival gaps are
shorter than that).  An exponential moving average tracks the intensity and
its spread; observations more than delta standard deviations above the
moving mean are flagged.  The identical band criterion is also applied to
the per-second unique-prefix counts as the volume baseline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, NamedTuple

from .events import EventSeries, VolumeSeries

DEFAULT_DECAY = 1.0 / 300.0
DEFAULT_WINDOW = 200
DEFAULT_DELTA = 2.0
DEFAULT_VARIANCE_FLOOR = 1e-9

CONFIG_KEYS = ("r", "omega", "delta", "warmup", "variance_floor", "min_events")


class OutOfOrderError(ValueError):
    """An update arrived with a timestamp earlier than the current state."""


@dataclass(frozen=True)
class DetectorConfig:
    r: float = DEFAULT_DECAY
    omega: int = DEFAULT_WINDOW
    delta: float = DEFAULT_DELTA
    min_series_len: int = 2
    warmup: int = 0
    variance_floor: float = DEFAULT_VARIANCE_FLOOR

    def __post_init__(self):
        for name in ("r", "delta", "variance_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.r <= 0:
            raise ValueError("decay factor r must be positive")
        if self.omega < 1:
            raise ValueError("window length omega must be >= 1")
        if self.delta <= 0:
            raise ValueError("band width delta must be positive")
        if self.warmup < 0 or self.variance_floor < 0:
            raise ValueError("warmup and variance_floor must be nonnegative")

    @property
    def a(self) -> float:
        """EMA weighting decrease implied by the window length."""
        return 2.0 / (1.0 + self.omega)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "DetectorConfig":
        kwargs = {}
        for key in ("r", "delta", "variance_floor"):
            if key in mapping:
                kwargs[key] = float(mapping[key])
        for key in ("omega", "warmup"):
            if key in mapping:
                kwargs[key] = int(mapping[key])
        return cls(**kwargs)


def _parse_scalar(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def load_config_file(path: str | Path) -> dict:
    """Read detector settings from JSON or flat key=value lines.

    Recognized keys: r, omega, delta, warmup, variance_floor, min_events.
    Fractions like r=1/300 are accepted in the flat format.
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config JSON must be an object")
    else:
        raw = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            raw[key.strip()] = _parse_scalar(value)
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return raw


def intensity_update(q: float, delta_t: float, r: float) -> float:
    """Decay the running intensity over a gap of delta_t seconds, then add one."""
    if delta_t < 0:
        raise OutOfOrderError(f"negative inter-arrival gap {delta_t}")
    return 1.0 + 2.0 ** (-r * delta_t) * q


def ema_update(mu: float, var: float, y: float, a: float) -> tuple[float, float, float]:
    """One moving-average step; the variance uses the pre-update mean.

    Returns (mu', var', sigma').
    """
    var_new = (1.0 - a) * (var + a * (y - mu) ** 2)
    mu_new = a * y + (1.0 - a) * mu
    return mu_new, var_new, math.sqrt(var_new)


@dataclass
class IntensityState:
    """Mutable per-series state: intensity plus its moving mean and variance."""

    q: float = 0.0
    last_ts: int = 0
    ema_mean: float = 0.0
    ema_var: float = 0.0
    events_seen: int = 0

    def observe(self, new_ts: int, config: DetectorConfig) -> tuple[float, float, float]:
        """Fold in one announcement at new_ts; returns (q, mean, std)."""
        if self.events_seen > 0 and new_ts < self.last_ts:
            raise OutOfOrderError(
                f"timestamp {new_ts} precedes state timestamp {self.last_ts}"
            )
        gap = new_ts - self.last_ts if self.events_seen > 0 else 0.0
        self.q = intensity_update(self.q, gap, config.r)
        self.ema_mean, self.ema_var, sigma = ema_update(
            self.ema_mean, self.ema_var, self.q, config.a
        )
        self.last_ts = new_ts
        self.events_seen += 1
        return self.q, self.ema_mean, sigma


class EmaPredictor:
    """Default predictor: moving mean and standard deviation of the inputs.

    Anything with an update(y) -> (mean, std) method can stand in for it.
    """

    def __init__(self, a: float):
        self.a = a
        self.mean = 0.0
        self.var = 0.0

    def update(self, y: float) -> tuple[float, float]:
        self.mean, self.var, sigma = ema_update(self.mean, self.var, y, self.a)
        return self.mean, sigma


class TraceRow(NamedTuple):
    ts: int
    value: float
    mean: float
    std: float
    flag: bool


@dataclass(frozen=True)
class AnomalyReport:
    origin_asn: int
    collector: str
    anomalous_timestamps: tuple[int, ...]
    trace: tuple[TraceRow, ...] | None = None


def detect_events(
    series: EventSeries,
    config: DetectorConfig | None = None,
    collect_trace: bool = False,
    predictor=None,
) -> AnomalyReport:
    """Flag announcements whose intensity exceeds the upper moving band.

    The loop starts at the second event (the first only seeds the gap), and
    the band is compared against the mean and deviation that already include
    the current observation.  Series shorter than min_series_len produce an
    empty report.
    """
    if config is None:
        config = DetectorConfig()
    ts = series.timestamps
    n = len(ts)
    trace: list[TraceRow] | None = [] if collect_trace else None
    flagged: set[int] = set()
    if n >= max(2, config.min_series_len):
        r = config.r
        a = config.a
        delta = config.delta
        floor = config.variance_floor
        warmup = config.warmup
        q = 0.0
        if predictor is None:
            predictor = EmaPredictor(a)
        for t in range(1, n):
            gap = ts[t] - ts[t - 1]
            q = 1.0 + 2.0 ** (-r * gap) * q
            mean, sigma = predictor.update(q)
            flag = t > warmup and q >= mean + delta * max(sigma, floor)
            if flag:
                flagged.add(ts[t])
            if trace is not None:
                trace.append(TraceRow(ts[t], q, mean, sigma, flag))
    return AnomalyReport(
        origin_asn=series.origin_asn,
        collector=series.collector,
        anomalous_timestamps=tuple(sorted(flagged)),
        trace=tuple(trace) if trace is not None else None,
    )


def detect_volume(
    volume: VolumeSeries,
    config: DetectorConfig | None = None,
    collect_trace: bool = False,
    predictor=None,
) -> AnomalyReport:
    """Apply the same band criterion directly to per-second prefix counts."""
    if config is None:
        config = DetectorConfig()
    points = volume.points
    n = len(points)
    trace: list[TraceRow] | None = [] if collect_trace else None
    flagged: set[int] = set()
    if n >= max(2, config.min_series_len):
        a = config.a
        delta = config.delta
        floor = config.variance_floor
        warmup = config.warmup
        if predictor is None:
            predictor = EmaPredictor(a)
        for t in range(1, n):
            ts, y = points[t]
            mean, sigma = predictor.update(float(y))
            flag = t > warmup and y >= mean + delta * max(sigma, floor)
            if flag:
                flagged.add(ts)
            if trace is not None:
                trace.append(TraceRow(ts, float(y), mean, sigma, flag))
    return AnomalyReport(
        origin_asn=volume.origin_asn,
        collector=volume.collector,
        anomalous_timestamps=tuple(sorted(flagged)),
        trace=tuple(trace) if trace is not None else None,
    )


def write_trace_csv(report: AnomalyReport, out: IO[str]) -> None:
    """Per-event trace as ts,q,psi,sigma,flag (enough to replot the series)."""
    if report.trace is None:
        raise ValueError("report was produced without collect_trace")
    out.write("ts,q,psi,sigma,flag\n")
    for row in report.trace:
        out.write(
            f"{row.ts},{row.value:.10g},{row.mean:.10g},{row.std:.10g},{int(row.flag)}\n"
        )
