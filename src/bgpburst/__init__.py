"""Burstiness-based anomaly detection for BGP announcement streams."""

__version__ = "0.1.0"

from .burstiness import (
    BurstinessResult,
    JointActivityTable,
    SignificanceResult,
    burstiness_raw,
    finite_size_correction,
    inter_arrivals,
    joint_distribution,
    monte_carlo_null_test,
    series_burstiness,
)
from .detector import (
    AnomalyReport,
    DetectorConfig,
    detect_events,
    detect_volume,
    ema_update,
    intensity_update,
)
from .evaluation import (
    BinnedEvaluation,
    EvaluationRow,
    IncidentWindow,
    bin_timestamps,
    evaluate_incident,
    evaluate_window,
    incident_bins,
    load_incidents,
    score,
)
from .events import (
    AnnouncementEvent,
    EventSeries,
    VolumeSeries,
    build_series,
    build_volume_series,
    parse_event_lines,
    read_groups,
    series_from_columns,
    series_keys,
    volume_from_columns,
    write_event_lines,
)
from .mrt import MrtParseResult, MrtStats, parse_mrt_updates, read_updates

# Only `simulate` needs the generators: the synth module is imported on the
# first use of one of these names (PEP 562), not with the package.
_SYNTH_NAMES = (
    "GeneratorSpec",
    "IncidentSpec",
    "generate_stream",
    "incident_scenario",
    "inject_incident_events",
    "update_stream",
)


def __getattr__(name: str):
    if name == "synth" or name in _SYNTH_NAMES:
        import importlib

        synth = importlib.import_module(".synth", __name__)  # binds bgpburst.synth too
        return synth if name == "synth" else getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")] + ["synth", *_SYNTH_NAMES])
