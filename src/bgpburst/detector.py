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

import math
from itertools import compress, islice, repeat
from operator import lt, mul, sub
from typing import IO, NamedTuple, Sequence

from .events import EventSeries, FrozenRecord, VolumeSeries
from .fields import REAL, WHOLE, ConfigurationError, optional, read_json, read_record, read_text

DEFAULT_DECAY = 1.0 / 300.0
DEFAULT_WINDOW = 200
DEFAULT_DELTA = 2.0
DEFAULT_VARIANCE_FLOOR = 1e-9
DEFAULT_MIN_EVENTS = 5


class OutOfOrderError(ValueError):
    """An update arrived with a timestamp earlier than the current state."""


class DetectorConfig(FrozenRecord):
    """Every detector and burstiness setting; the fields are the config keys."""

    __slots__ = ("r", "omega", "delta", "warmup", "variance_floor", "min_events")

    def __init__(
        self,
        r: float = DEFAULT_DECAY,
        omega: int = DEFAULT_WINDOW,
        delta: float = DEFAULT_DELTA,
        warmup: int = 0,
        variance_floor: float = DEFAULT_VARIANCE_FLOOR,
        min_events: int = DEFAULT_MIN_EVENTS,
    ):
        for name, value in (("r", r), ("delta", delta), ("variance_floor", variance_floor)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if r <= 0:
            raise ValueError("decay factor r must be positive")
        if omega < 1:
            raise ValueError("window length omega must be >= 1")
        if delta <= 0:
            raise ValueError("band width delta must be positive")
        if warmup < 0 or variance_floor < 0:
            raise ValueError("warmup and variance_floor must be nonnegative")
        if min_events < 2:
            raise ValueError("min_events must be >= 2")
        self._set_fields(r, omega, delta, warmup, variance_floor, min_events)

    @property
    def a(self) -> float:
        """EMA weighting decrease implied by the window length."""
        return 2.0 / (1.0 + self.omega)

    @classmethod
    def from_mapping(cls, mapping: dict, where: str = "detector settings") -> "DetectorConfig":
        """Build from untrusted settings read by CONFIG_FIELDS (200.0 passes as
        omega, 200.9 fails); errors are ConfigurationErrors led by `where`."""
        return read_record(mapping, CONFIG_FIELDS, where, cls)


CONFIG_KEYS = DetectorConfig.__slots__
CONFIG_FIELDS = {
    "r": optional(REAL), "omega": optional(WHOLE), "delta": optional(REAL),
    "warmup": optional(WHOLE), "variance_floor": optional(REAL), "min_events": optional(WHOLE),
}


def _parse_scalar(text: str) -> int | float | str:
    """A flat value by read_text, where r = 1/300 is a fraction of two numbers;
    other text stays text, which CONFIG_FIELDS then refuses by name."""
    num, slash, den = map(read_text, text.partition("/"))
    if slash and not isinstance(num, str) and not isinstance(den, str) and den:
        return float(num) / float(den)
    return text.strip() if slash else num


def parse_config(text: str, where: str = "config") -> dict:
    """Detector settings from the text of a config file: JSON or flat key=value
    lines, numbered by "\n" alone as the lines of an events file are.

    The keys are CONFIG_KEYS; the settings are checked with
    DetectorConfig.from_mapping before they are returned, and errors are
    ConfigurationErrors led by `where`.
    """
    if text.lstrip().startswith(("{", "[")):
        raw = read_json(text, where)
    else:
        raw = {}
        for lineno, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"{where}: line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            raw[key.strip()] = _parse_scalar(value)
    DetectorConfig.from_mapping(raw, where)
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


class TraceRow(NamedTuple):
    ts: int
    value: float
    mean: float
    std: float
    flag: bool


class AnomalyReport(FrozenRecord):
    __slots__ = ("origin_asn", "collector", "anomalous_timestamps", "trace")
    _defaults = {"trace": None}  # or a TraceRow per observed value


def _band_report(
    series: EventSeries | VolumeSeries,
    values: Sequence[float],
    config: DetectorConfig,
    collect_trace: bool,
) -> AnomalyReport:
    """Flag the values at or above the upper moving band: the shared core.

    values[i] is observed at series.timestamps[i]; values[0] only seeds the
    series and is never observed.  The band is compared against the mean and
    deviation that already include the current value; flags are suppressed
    while the index is at most config.warmup.
    """
    # ema_update and max(sigma, floor) inlined, with the same operations in
    # the same order, so the flags and trace rows are bit-identical to them.
    a = config.a
    b = 1.0 - a
    delta = config.delta
    floor = config.variance_floor
    warmup = config.warmup
    sqrt = math.sqrt
    mean = var = 0.0
    flagged: set[int] = set()
    trace: list[TraceRow] | None = [] if collect_trace else None
    t = 0
    for ts, y in islice(zip(series.timestamps, values), 1, None):
        t += 1
        var = b * (var + a * (y - mean) ** 2)
        mean = a * y + b * mean
        sigma = sqrt(var)
        flag = t > warmup and y >= mean + delta * (floor if floor > sigma else sigma)
        if flag:
            flagged.add(ts)
        if trace is not None:
            trace.append(TraceRow(ts, y, mean, sigma, flag))
    return AnomalyReport(
        origin_asn=series.origin_asn,
        collector=series.collector,
        anomalous_timestamps=tuple(sorted(flagged)),
        trace=tuple(trace) if trace is not None else None,
    )


def detect_events(
    series: EventSeries,
    config: DetectorConfig | None = None,
    collect_trace: bool = False,
) -> AnomalyReport:
    """Flag announcements whose intensity exceeds the upper moving band.

    The first event only seeds the gap, so a series needs two events to be
    observed at all; shorter series produce an empty report.
    """
    if config is None:
        config = DetectorConfig()
    ts = series.timestamps
    gaps = list(map(sub, ts[1:], ts))
    negative = next(compress(gaps, map(lt, gaps, repeat(0))), None)
    if negative is not None:
        raise OutOfOrderError(f"negative inter-arrival gap {negative}")
    # intensity_update inlined: the decay factors 2.0 ** (-r * delta_t) come
    # from C-level maps, so only q = 1.0 + f * q runs once per event.
    q = 0.0
    intensities = [q]
    append = intensities.append
    for f in map(pow, repeat(2.0), map(mul, repeat(-config.r), gaps)):
        q = 1.0 + f * q
        append(q)
    return _band_report(series, intensities, config, collect_trace)


def detect_volume(
    volume: VolumeSeries,
    config: DetectorConfig | None = None,
    collect_trace: bool = False,
) -> AnomalyReport:
    """Apply the same band criterion directly to per-second prefix counts."""
    if config is None:
        config = DetectorConfig()
    return _band_report(volume, list(map(float, volume.counts)), config, collect_trace)


def write_trace_csv(report: AnomalyReport, out: IO[str]) -> None:
    """Per-event trace as ts,q,psi,sigma,flag (enough to replot the series)."""
    if report.trace is None:
        raise ValueError("report was produced without collect_trace")
    out.write("ts,q,psi,sigma,flag\n")
    for row in report.trace:
        out.write(
            f"{row.ts},{row.value:.10g},{row.mean:.10g},{row.std:.10g},{int(row.flag)}\n"
        )
