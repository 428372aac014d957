"""Burstiness-based anomaly detection for BGP announcement streams."""

__version__ = "0.1.0"

from .burstiness import (
    BurstinessResult,
    InterArrivalSample,
    JointActivityTable,
    SignificanceResult,
    burstiness_corrected,
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
from .synth import (
    GeneratorSpec,
    IncidentSpec,
    generate_series,
    generate_stream,
    incident_scenario,
    inject_incident,
    inject_incident_events,
    update_stream,
)

__all__ = [name for name in dir() if not name.startswith("_")]
