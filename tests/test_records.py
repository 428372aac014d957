"""Value semantics of the package's record classes.

Each record is a plain class with __slots__: equal when of the same class
with equal fields, repr as Name(field=value, ...), frozen records hashable
and read-only, MrtStats and MrtParseResult mutable.  A record without rules
of its own is built by Record's shared __init__, which takes the fields by
position, then by name, and the rest from the class's _defaults; a record
with rules checks its arguments in its own __init__.  Either writes every
field with one Record._set_fields call, one value per field in field order;
a subclass's fields are its parent's followed by its own __slots__.  Each
fixture below gives its fields pairwise distinct values, so a value written
to the wrong field shows.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import bgpburst
from bgpburst.burstiness import (
    ActivityRow,
    BurstinessResult,
    JointActivityTable,
    SignificanceResult,
)
from bgpburst.detector import AnomalyReport, DetectorConfig, TraceRow
from bgpburst.evaluation import BinnedEvaluation, EvaluationRow, IncidentWindow
from bgpburst.events import AnnouncementEvent, EventSeries, Record, VolumeSeries
from bgpburst.mrt import MrtParseResult, MrtStats
from bgpburst.synth import GeneratorSpec, IncidentScenario, IncidentSpec

EVENT = AnnouncementEvent(5, "rrc00", "10.0.0.0/8", "announcement", 64500, 3, True)
EVALUATION = BinnedEvaluation(
    0, 120, 10, 12, frozenset({1, 2, 3}), frozenset(range(2, 8)), 2, 4, 1, 5, 1 / 3, 2 / 3, 4 / 9
)

# Each record class with one set of field values, given in field order.
FROZEN = [
    (AnnouncementEvent, {
        "timestamp": 5, "collector": "rrc00", "prefix": "10.0.0.0/8", "kind": "announcement",
        "origin_asn": 64500, "peer_asn": 3, "ambiguous_origin": True,
    }),
    (EventSeries, {"origin_asn": 64500, "collector": "rrc00", "timestamps": (1, 2, 2)}),
    (VolumeSeries, {"origin_asn": 64500, "collector": "rrc00", "timestamps": (1, 3), "counts": (2, 1)}),
    (BurstinessResult, {
        "mu": 1.0, "sigma": 0.5, "b_raw": -1 / 3, "b_corrected": None, "n_events": 3,
    }),
    (ActivityRow, {"asn": 64500, "b_corrected": 0.25, "count": 9, "quadrant": 3}),
    (JointActivityTable, {
        "window": (0, 10), "rows": (ActivityRow(64500, 0.25, 9, 3),), "b_p95": 0.25,
        "count_p95": 9.0, "skipped": ((64501, 2),),
    }),
    (SignificanceResult, {
        "observed_b": 0.5, "null_samples": (0.1, -0.2), "empirical_p": 1 / 3,
        "significant": False, "alpha_sig": 0.05, "skipped_windows": 1,
    }),
    (DetectorConfig, {
        "r": 0.01, "omega": 100, "delta": 3.0, "warmup": 2, "variance_floor": 1e-6,
        "min_events": 6,
    }),
    (AnomalyReport, {
        "origin_asn": 64500, "collector": "rrc00", "anomalous_timestamps": (7,),
        "trace": (TraceRow(7, 2.0, 1.0, 0.5, True),),
    }),
    (IncidentWindow, {
        "name": "leak", "perpetrator_asn": 64500, "start": 0, "end": 10, "kind": "interception",
    }),
    (BinnedEvaluation, {
        "t0": 0, "t1": 120, "m": 10, "n_bins": 12, "truth_bins": frozenset({1, 2, 3}),
        "detected_bins": frozenset(range(2, 8)), "tp": 2, "fp": 4, "fn": 1, "tn": 5,
        "precision": 1 / 3, "recall": 2 / 3, "f1": 4 / 9,
    }),
    (EvaluationRow, {
        "incident": "leak", "collector": "rrc00", "detector": "burstiness",
        "evaluation": EVALUATION,
    }),
    (GeneratorSpec, {
        "process": "pareto", "mean_gap": 60.0, "n_events": 10, "start_ts": 0, "asn": 64500,
        "collector": "rrc00", "seed": 1, "pareto_alpha": 2.5,
    }),
    (IncidentSpec, {"start": 0, "end": 10, "burst_gap": 2, "prefixes_per_second": 3}),
    (IncidentScenario, {
        "events": [EVENT], "asn": 64500, "collector": "rrc00", "bounds": (0, 10),
        "incident_start": 2, "incident_end": 4,
    }),
]
MUTABLE = [
    (MrtStats, {
        "records_total": 1, "records_skipped": 2, "updates_parsed": 3, "malformed_updates": 4,
        "malformed_paths": 5, "nlri_seen": 6, "events_emitted": 7, "events_dropped": 8,
        "announcements": 9, "withdrawals": 10,
    }),
    (MrtParseResult, {"events": [EVENT], "stats": MrtStats(nlri_seen=1)}),
]
RECORDS = FROZEN + MUTABLE
ids = [cls.__name__ for cls, _ in RECORDS]
frozen_ids = [cls.__name__ for cls, _ in FROZEN]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=ids)
class TestValueSemantics:
    def test_fixture_values_are_pairwise_distinct(self, cls, fields):
        assert all(a != b for a, b in combinations(fields.values(), 2))

    def test_fields_in_order_positional_and_keyword(self, cls, fields):
        assert cls.__slots__ == tuple(fields)
        by_position = cls(*fields.values())
        by_keyword = cls(**fields)
        assert [getattr(by_position, name) for name in fields] == list(fields.values())
        assert by_position == by_keyword
        assert not hasattr(by_keyword, "__dict__")
        if cls is not SignificanceResult:  # its as_dict lists the null samples
            assert by_position.as_dict() == fields

    def test_equality_by_fields_and_exact_class(self, cls, fields):
        record = cls(**fields)
        assert record == cls(**fields)
        assert not record != cls(**fields)
        assert record != tuple(fields.values())
        for name in fields:
            other = copy.copy(record)
            object.__setattr__(other, name, "other")
            assert record != other and other != record

        class Sub(cls):
            __slots__ = ()

        assert record != Sub(**fields)
        assert Sub(**fields) != record

    def test_repr_text(self, cls, fields):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"

    def test_copy_and_pickle_round_trip(self, cls, fields):
        record = cls(**fields)
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls, fields", FROZEN, ids=frozen_ids)
class TestFrozen:
    def test_equal_instances_hash_equal(self, cls, fields):
        if cls is IncidentScenario:  # a list field: unhashable, as its value is
            with pytest.raises(TypeError, match="unhashable type: 'list'"):
                hash(cls(**fields))
            return
        assert hash(cls(**fields)) == hash(cls(**fields))
        assert len({cls(**fields), cls(**fields)}) == 1

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields):
        record = cls(**fields)
        for name, value in fields.items():
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, value)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(**fields)


@pytest.mark.parametrize("cls, fields", MUTABLE, ids=[cls.__name__ for cls, _ in MUTABLE])
def test_mutable_records_assign_and_are_unhashable(cls, fields):
    record = cls(**fields)
    name = list(fields)[0]
    setattr(record, name, fields[name] * 2)
    assert getattr(record, name) == fields[name] * 2
    assert record != cls(**fields)
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


# The records built by Record's shared __init__.
SHARED_INIT = [
    BurstinessResult, ActivityRow, JointActivityTable, SignificanceResult, AnomalyReport,
    BinnedEvaluation, EvaluationRow, IncidentScenario, MrtStats,
]
SHARED = [(cls, fields) for cls, fields in RECORDS if cls in SHARED_INIT]


def test_shared_init_is_records_own_for_exactly_these():
    assert [cls for cls, _ in RECORDS if cls.__init__ is Record.__init__] == SHARED_INIT


@pytest.mark.parametrize("cls, fields", SHARED, ids=[cls.__name__ for cls, _ in SHARED])
class TestSharedInit:
    def test_too_many_values(self, cls, fields):
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes {len(fields)} fields but"):
            cls(*fields.values(), 0)

    def test_unknown_field(self, cls, fields):
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) got an unknown field 'extra'$"):
            cls(**fields, extra=0)

    def test_field_by_position_and_by_name(self, cls, fields):
        first = next(iter(fields))
        with pytest.raises(TypeError, match=f"got field '{first}' by position and by name$"):
            cls(fields[first], **fields)
        with pytest.raises(TypeError, match=f"got field '{first}' by position and by name$"):
            cls(*fields.values(), **{first: fields[first]})

    def test_missing_field_takes_its_default_or_fails(self, cls, fields):
        for name in fields:
            given = {key: value for key, value in fields.items() if key != name}
            if name in cls._defaults:
                assert getattr(cls(**given), name) == cls._defaults[name]
                continue
            with pytest.raises(TypeError, match=f"^{cls.__name__}\\(\\) missing field '{name}'$"):
                cls(**given)

    def test_position_then_name(self, cls, fields):
        values = list(fields.values())
        for split in range(len(fields) + 1):
            named = dict(list(fields.items())[split:])
            assert cls(*values[:split], **named) == cls(**fields)


class Pair(Record):
    __slots__ = ("first", "second")

    def __init__(self, *values):
        self._set_fields(*values)


@pytest.mark.parametrize("values", [(1,), (1, 2, 3)])
def test_set_fields_refuses_a_value_count_other_than_the_field_count(values):
    with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer)"):
        Pair(*values)


def test_subclass_fields_are_its_parents_then_its_own():
    class Same(Pair):
        __slots__ = ()

    class More(Pair):
        __slots__ = ("third",)

    assert Same(1, 2).as_dict() == {"first": 1, "second": 2}
    assert Same(1, 2) != Same(1, 3)
    assert repr(Same(1, 2)).endswith("Same(first=1, second=2)")
    assert copy.copy(Same(1, 2)) == Same(1, 2)
    assert More(1, 2, 3).as_dict() == {"first": 1, "second": 2, "third": 3}
    with pytest.raises(ValueError):
        More(1, 2)


def test_defaults():
    assert MrtStats().as_dict() == dict.fromkeys(MrtStats.__slots__, 0)
    result = MrtParseResult()
    assert result.events == [] and result.stats == MrtStats()
    assert MrtParseResult().events is not result.events
    assert repr(AnnouncementEvent(1, "c", "10.0.0.0/8", "withdrawal")) == (
        "AnnouncementEvent(timestamp=1, collector='c', prefix='10.0.0.0/8', "
        "kind='withdrawal', origin_asn=None, peer_asn=None, ambiguous_origin=False)"
    )
    assert JointActivityTable((0, 10), (), 0.25, 9.0).skipped == ()
    assert SignificanceResult(0.5, (0.1,), 0.5, False, 0.05).skipped_windows == 0
    assert AnomalyReport(64500, "rrc00", (7,)).trace is None
    assert DetectorConfig().as_dict() == {
        "r": 1 / 300, "omega": 200, "delta": 2.0, "warmup": 0, "variance_floor": 1e-9,
        "min_events": 5,
    }


# The package's exports: its layers and the public names each defines.
EXPORTS = [
    "AnnouncementEvent", "AnomalyReport", "BinnedEvaluation", "BurstinessResult",
    "DetectorConfig", "EvaluationRow", "EventSeries", "GeneratorSpec", "IncidentSpec",
    "IncidentWindow", "JointActivityTable", "MrtParseResult", "MrtStats", "SignificanceResult",
    "VolumeSeries", "bin_timestamps", "build_series", "build_volume_series", "burstiness",
    "burstiness_raw", "detect_events", "detect_volume", "detector", "ema_update",
    "evaluate_incident", "evaluate_window", "evaluation", "events", "fields",
    "finite_size_correction", "generate_stream", "incident_bins", "incident_scenario",
    "inject_incident_events", "intensity_update", "inter_arrivals", "joint_distribution",
    "load_incidents", "monte_carlo_null_test", "mrt", "parse_event_lines", "parse_mrt_updates",
    "read_groups", "read_updates", "score", "series_burstiness", "series_from_columns",
    "series_keys", "synth", "update_stream", "volume_from_columns", "write_event_lines",
]


def test_package_exports_each_name_from_its_layer():
    assert bgpburst.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(bgpburst))
    for name in EXPORTS:
        value = getattr(bgpburst, name)
        if isinstance(value, type(bgpburst)):
            assert value is sys.modules[f"bgpburst.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)
    star = {}
    exec("from bgpburst import *", star)
    assert all(star[name] is getattr(bgpburst, name) for name in EXPORTS)
    with pytest.raises(AttributeError, match="^module 'bgpburst' has no attribute 'nothing'$"):
        bgpburst.nothing


# What each import leaves loaded of the package, in a fresh interpreter: a
# layer loads the layers it calls and no other.
LOADS = {
    "bgpburst": [],
    "bgpburst.fields": ["fields"],
    "bgpburst.events": ["events", "fields"],
    "bgpburst.mrt": ["events", "fields", "mrt"],
    "bgpburst.detector": ["detector", "events", "fields"],
    "bgpburst.burstiness": ["burstiness", "detector", "events", "fields"],
    "bgpburst.evaluation": ["evaluation", "events", "fields"],
    "bgpburst.synth": ["events", "fields", "synth"],
    "bgpburst.cli": ["burstiness", "cli", "detector", "evaluation", "events", "fields", "mrt"],
}

LOAD_PROBE = """
import json, sys
__import__(sys.argv[1])
print(json.dumps(sorted(name for name in sys.modules if name.partition(".")[0] == "bgpburst")))
"""


@pytest.mark.parametrize("module", LOADS)
def test_import_loads_only_the_layers_it_calls(module):
    src = Path(bgpburst.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, module],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["bgpburst", *(f"bgpburst.{m}" for m in LOADS[module])]
