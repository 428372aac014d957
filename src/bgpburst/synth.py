"""Seeded synthetic announcement streams and incident injection.

Streams come in three inter-arrival flavors (regular, poisson, pareto) plus
an update-batched background that mimics what collectors actually record:
update messages arrive as a Poisson process and each one announces a small
random batch of prefixes, so the per-second unique-prefix counts are noisy
the way real feeds are.  Incident injection overlays a sustained barrage of
distinct prefixes at a fixed short gap.
"""

from __future__ import annotations

import random
import reprlib

from .events import ANNOUNCEMENT, AnnouncementEvent, FrozenRecord
from .fields import INT_DIGITS, INT_LIMIT, utf8_text

PROCESS_REGULAR = "regular"
PROCESS_POISSON = "poisson"
PROCESS_PARETO = "pareto"

_PROCESSES = (PROCESS_REGULAR, PROCESS_POISSON, PROCESS_PARETO)


class GeneratorSpec(FrozenRecord):
    __slots__ = (
        "process", "mean_gap", "n_events", "start_ts", "asn", "collector", "seed", "pareto_alpha",
    )

    def __init__(
        self,
        process: str,
        mean_gap: float,
        n_events: int,
        start_ts: int,
        asn: int,
        collector: str,
        seed: int,
        pareto_alpha: float = 1.5,
    ):
        if process not in _PROCESSES:
            raise ValueError(f"unknown process {reprlib.repr(process)}")
        # Written so that NaN fails each range check.
        if not 0 < mean_gap < float("inf"):
            raise ValueError(f"mean_gap must be positive and finite, got {mean_gap}")
        if n_events < 1:
            raise ValueError("n_events must be >= 1")
        if start_ts < 0 or asn < 0:
            raise ValueError(f"start_ts and asn must be nonnegative, got {start_ts} and {asn}")
        if process == PROCESS_PARETO and not 1 < pareto_alpha < float("inf"):
            raise ValueError("pareto_alpha must exceed 1 for a finite mean, and be finite")
        if not utf8_text(collector):
            raise ValueError("collector must be a string without lone surrogates")
        self._set_fields(process, mean_gap, n_events, start_ts, asn, collector, seed, pareto_alpha)


class IncidentSpec(FrozenRecord):
    __slots__ = ("start", "end", "burst_gap", "prefixes_per_second")

    def __init__(self, start: int, end: int, burst_gap: int = 1, prefixes_per_second: int = 1):
        if start >= end:
            raise ValueError("incident window must have positive length")
        if burst_gap <= 0:
            raise ValueError("burst_gap must be positive")
        if prefixes_per_second < 1:
            raise ValueError("prefixes_per_second must be >= 1")
        self._set_fields(start, end, burst_gap, prefixes_per_second)


def stream_prefix(index: int) -> str:
    """Stable synthetic background prefix: a stream's AS number, or an update pool index."""
    return f"10.{(index >> 8) & 0xFF}.{index & 0xFF}.0/24"


def _incident_prefix(index: int) -> str:
    # 100.64.0.0/10 space, disjoint from the background pools.
    return f"100.{64 + (index >> 8)}.{index & 0xFF}.0/24"


def _gap_sampler(spec: GeneratorSpec, rng: random.Random):
    if spec.process == PROCESS_REGULAR:
        return lambda: spec.mean_gap
    if spec.process == PROCESS_POISSON:
        rate = 1.0 / spec.mean_gap
        return lambda: rng.expovariate(rate)
    alpha = spec.pareto_alpha
    minimum = spec.mean_gap * (alpha - 1.0) / alpha  # scale so the mean matches
    return lambda: minimum * (1.0 - rng.random()) ** (-1.0 / alpha)


def generate_timestamps(spec: GeneratorSpec) -> tuple[int, ...]:
    """n_events whole-second timestamps; the first lands on start_ts.

    Raises ValueError when one would have more than INT_DIGITS digits.
    """
    rng = random.Random(spec.seed)
    sample = _gap_sampler(spec, rng)
    t = float(spec.start_ts)
    out = [spec.start_ts]
    for _ in range(spec.n_events - 1):
        t += sample()
        if not t < INT_LIMIT:  # and so finite: a float sum of huge gaps reaches infinity
            raise ValueError(f"timestamps pass {INT_DIGITS} digits; lower mean_gap or n_events")
        out.append(int(round(t)))
    return tuple(out)


def generate_stream(spec: GeneratorSpec) -> list[AnnouncementEvent]:
    """Canonical announcement events for one synthetic stream."""
    prefix = stream_prefix(spec.asn)
    return [
        AnnouncementEvent(
            timestamp=ts,
            collector=spec.collector,
            prefix=prefix,
            kind=ANNOUNCEMENT,
            origin_asn=spec.asn,
        )
        for ts in generate_timestamps(spec)
    ]


def incident_timestamps(incident: IncidentSpec) -> list[int]:
    """One timestamp per injected announcement, burst_gap apart, repeated
    prefixes_per_second times per active second."""
    out = []
    for tick in range(incident.start, incident.end, incident.burst_gap):
        out.extend([tick] * incident.prefixes_per_second)
    return out


def inject_incident_events(
    background: list[AnnouncementEvent], incident: IncidentSpec
) -> list[AnnouncementEvent]:
    """Event-level injection: distinct synthetic prefixes per active second."""
    if not background:
        raise ValueError("cannot inject into an empty background")
    first = min(ev.timestamp for ev in background)
    last = max(ev.timestamp for ev in background)
    if incident.start < first or incident.end > last + 1:
        raise ValueError(
            f"incident [{incident.start}, {incident.end}) outside "
            f"background span [{first}, {last}]"
        )
    origin = background[0].origin_asn
    collector = background[0].collector
    per_second = incident.prefixes_per_second
    injected = [
        AnnouncementEvent(tick, collector, _incident_prefix(i % per_second), ANNOUNCEMENT, origin)
        for i, tick in enumerate(incident_timestamps(incident))
    ]
    return sorted(background + injected, key=lambda ev: ev.timestamp)


def update_stream(
    asn: int,
    collector: str,
    start_ts: int,
    duration: int,
    mean_gap: float,
    seed: int,
    batch_continue: float = 0.45,
    batch_cap: int = 16,
    pool_size: int = 256,
) -> list[AnnouncementEvent]:
    """Poisson update arrivals where each update announces a prefix batch.

    Batch sizes are geometric (continue probability batch_continue, capped at
    batch_cap) over a pool of pool_size prefixes, which gives the per-second
    unique-prefix counts the spread seen on real collector feeds.
    """
    rng = random.Random(seed)
    rate = 1.0 / mean_gap
    end = start_ts + duration
    events = []
    t = float(start_ts)
    while True:
        ts = int(round(t))
        if ts >= end:
            break
        k = 1
        while k < batch_cap and rng.random() < batch_continue:
            k += 1
        for index in rng.sample(range(pool_size), k):
            events.append(AnnouncementEvent(ts, collector, stream_prefix(index), ANNOUNCEMENT, asn))
        t += rng.expovariate(rate)
    return events


class IncidentScenario(FrozenRecord):
    """A ready-to-score synthetic study: background + one injected incident."""

    __slots__ = ("events", "asn", "collector", "bounds", "incident_start", "incident_end")


def incident_scenario(
    seed: int = 1,
    asn: int = 64500,
    collector: str = "synth-collector",
    start_ts: int = 1_400_000_000,
    days: int = 7,
    mean_gap: float = 600.0,
    incident_bin: int = 28,
    bin_seconds: int = 10800,
    burst_gap: int = 1,
    prefixes_per_second: int = 100,
) -> IncidentScenario:
    """Seven days of batched background plus a bin-aligned sustained burst."""
    duration = days * 86400
    incident_start = start_ts + incident_bin * bin_seconds
    incident = IncidentSpec(
        start=incident_start,
        end=incident_start + bin_seconds,
        burst_gap=burst_gap,
        prefixes_per_second=prefixes_per_second,
    )
    background = update_stream(asn, collector, start_ts, duration, mean_gap, seed)
    events = inject_incident_events(background, incident)
    return IncidentScenario(
        events=events,
        asn=asn,
        collector=collector,
        bounds=(start_ts, start_ts + duration),
        incident_start=incident.start,
        incident_end=incident.end,
    )
