"""Burstiness-based anomaly detection for BGP announcement streams."""

__version__ = "0.1.0"

# Each layer and the public names it defines.  A layer, or one of its names,
# is imported on its first use (PEP 562), so importing the package loads no
# layer and importing one layer loads only the layers it calls.
_EXPORTS = {
    "burstiness": (
        "BurstinessResult", "JointActivityTable", "SignificanceResult", "burstiness_raw",
        "finite_size_correction", "inter_arrivals", "joint_distribution",
        "monte_carlo_null_test", "series_burstiness",
    ),
    "detector": (
        "AnomalyReport", "DetectorConfig", "detect_events", "detect_volume", "ema_update",
        "intensity_update",
    ),
    "evaluation": (
        "BinnedEvaluation", "EvaluationRow", "IncidentWindow", "bin_timestamps",
        "evaluate_incident", "evaluate_window", "incident_bins", "load_incidents", "score",
    ),
    "events": (
        "AnnouncementEvent", "EventSeries", "VolumeSeries", "build_series",
        "build_volume_series", "parse_event_lines", "read_groups", "series_from_columns",
        "series_keys", "volume_from_columns", "write_event_lines",
    ),
    "fields": (),
    "mrt": ("MrtParseResult", "MrtStats", "parse_mrt_updates", "read_updates"),
    "synth": (
        "GeneratorSpec", "IncidentSpec", "generate_stream", "incident_scenario",
        "inject_incident_events", "update_stream",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_LAYER_OF])


def __getattr__(name: str):
    layer = _LAYER_OF.get(name, name)
    if layer not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{layer}", __name__)  # binds the layer here too
    return module if layer == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
