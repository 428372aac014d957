"""Binned scoring of detector reports against ground-truth incident windows.

The study period is cut into fixed-length bins (3 hours by default, the
shortest sustained burst among the studied incidents).  A bin is ground
truth when it overlaps the incident window at all, and detected when at
least one flagged timestamp falls inside it.  Precision, recall, and F1 are
computed from the resulting bin sets; metrics whose denominator is empty
are reported as None rather than coerced to zero.
"""

from __future__ import annotations

import reprlib
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterable, Mapping

from .events import FrozenRecord
from .fields import ANY, TEXT, TIME, WHOLE, ConfigurationError, optional, read_json, read_record

if TYPE_CHECKING:
    from .detector import AnomalyReport

DEFAULT_BIN_SECONDS = 10800  # 3 hours

KIND_LARGE_SCALE = "large-scale"
KIND_INTERCEPTION = "interception"


class BinBoundsError(ValueError):
    """Timestamps fall outside the study bounds being binned."""


class IncidentWindow(FrozenRecord):
    __slots__ = ("name", "perpetrator_asn", "start", "end", "kind")

    def __init__(self, name: str, perpetrator_asn: int, start: int, end: int, kind: str):
        if start >= end:
            raise ValueError(f"incident {reprlib.repr(name)}: start must precede end")
        if kind not in (KIND_LARGE_SCALE, KIND_INTERCEPTION):
            raise ValueError(f"incident {reprlib.repr(name)}: unknown kind {reprlib.repr(kind)}")
        self._set_fields(name, perpetrator_asn, start, end, kind)


# The `note` field describes a window (the bundled incidents.json has some).
INCIDENT_FIELDS = {
    "name": TEXT, "asn": WHOLE, "start_utc": TIME, "end_utc": TIME, "kind": TEXT, "note": optional(ANY),
}


def _incident(name, asn, start_utc, end_utc, kind, note=None) -> IncidentWindow:
    return IncidentWindow(name, asn, start_utc, end_utc, kind)


def load_incidents(
    path: str | Path, read: Callable[[Path], bytes] = Path.read_bytes
) -> list[IncidentWindow]:
    """Incident config: JSON array of {name, asn, start_utc, end_utc, kind}.

    `read` returns the file's bytes; a caller that records what it reads
    passes its own.
    """
    where = f"incident config {path}"
    raw = read_json(read(Path(path)), where)
    if not isinstance(raw, list):
        raise ConfigurationError(f"{where} must be a JSON array")
    windows = [
        read_record(item, INCIDENT_FIELDS, f"{where}: entry {n}", _incident)
        for n, item in enumerate(raw, start=1)
    ]
    _check_disjoint(windows)
    return windows


def _check_disjoint(windows: list[IncidentWindow]) -> None:
    ordered = sorted(windows, key=lambda w: w.start)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.start < prev.end:
            raise ConfigurationError(
                f"incident windows overlap: {reprlib.repr(prev.name)} and {reprlib.repr(cur.name)}"
            )


def bin_count(t0: int, t1: int, m: int) -> int:
    if t0 >= t1:
        raise ValueError("t0 must precede t1")
    if m <= 0:
        raise ValueError("bin length m must be positive")
    return -((t0 - t1) // m)  # exact ceiling: float division rounds spans above 2**53


def bin_timestamps(timestamps: Iterable[int], t0: int, t1: int, m: int) -> set[int]:
    """Map timestamps to bin indices floor((ts - t0) / m); duplicates collapse.

    Raises BinBoundsError listing offenders outside [t0, t1).
    """
    bin_count(t0, t1, m)  # validates bounds and bin length
    out: set[int] = set()
    offenders = []
    for ts in timestamps:
        if ts < t0 or ts >= t1:
            offenders.append(ts)
            continue
        out.add((ts - t0) // m)
    if offenders:
        shown = ", ".join(str(t) for t in offenders[:10])
        more = "" if len(offenders) <= 10 else f" (+{len(offenders) - 10} more)"
        raise BinBoundsError(
            f"{len(offenders)} timestamps outside [{t0}, {t1}): {shown}{more}"
        )
    return out


def incident_bins(window: IncidentWindow, t0: int, t1: int, m: int) -> set[int]:
    """All bins overlapping [window.start, window.end) by any amount."""
    n = bin_count(t0, t1, m)  # reversed bounds are reported as such
    if window.start < t0 or window.end > t1:
        raise ConfigurationError(
            f"incident {reprlib.repr(window.name)} [{window.start}, {window.end}) "
            f"outside study bounds [{t0}, {t1})"
        )
    first = (window.start - t0) // m
    last = -((t0 - window.end) // m) - 1
    return set(range(max(first, 0), min(last, n - 1) + 1))


class BinnedEvaluation(FrozenRecord):
    __slots__ = (
        "t0", "t1", "m", "n_bins", "truth_bins", "detected_bins",
        "tp", "fp", "fn", "tn", "precision", "recall", "f1",
    )


def score(
    truth_bins: set[int] | frozenset[int],
    detected_bins: set[int] | frozenset[int],
    n_bins: int,
) -> tuple[int, int, int, int, float | None, float | None, float | None]:
    """Counts and metrics for one (ground truth, detection) bin pair.

    Returns (tp, fp, fn, tn, precision, recall, f1).  Undefined metrics are
    None, never 0.
    """
    bad = [b for b in set(truth_bins) | set(detected_bins) if b < 0 or b >= n_bins]
    if bad:
        raise ValueError(f"bin indices outside [0, {n_bins}): {sorted(bad)[:10]}")
    tp = len(set(truth_bins) & set(detected_bins))
    fp = len(set(detected_bins) - set(truth_bins))
    fn = len(set(truth_bins) - set(detected_bins))
    tn = n_bins - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None or recall is None:
        f1 = None
    elif precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return tp, fp, fn, tn, precision, recall, f1


def evaluate_window(
    truth_bins: set[int],
    detected_timestamps: Iterable[int],
    t0: int,
    t1: int,
    m: int,
) -> BinnedEvaluation:
    n = bin_count(t0, t1, m)
    detected = bin_timestamps(detected_timestamps, t0, t1, m)
    tp, fp, fn, tn, precision, recall, f1 = score(truth_bins, detected, n)
    return BinnedEvaluation(
        t0=t0,
        t1=t1,
        m=m,
        n_bins=n,
        truth_bins=frozenset(truth_bins),
        detected_bins=frozenset(detected),
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        precision=precision,
        recall=recall,
        f1=f1,
    )


class EvaluationRow(FrozenRecord):
    __slots__ = ("incident", "collector", "detector", "evaluation")


def evaluate_incident(
    reports: Mapping[str, AnomalyReport],
    window: IncidentWindow,
    bounds: tuple[int, int],
    m: int = DEFAULT_BIN_SECONDS,
) -> list[EvaluationRow]:
    """Score each detector's report against one incident window.

    All reports must target the same collector; ground truth bins come from
    the window by interval overlap.
    """
    t0, t1 = bounds
    truth = incident_bins(window, t0, t1, m)
    rows = []
    for detector_name in sorted(reports):
        report = reports[detector_name]
        rows.append(
            EvaluationRow(
                incident=window.name,
                collector=report.collector,
                detector=detector_name,
                evaluation=evaluate_window(
                    truth, report.anomalous_timestamps, t0, t1, m
                ),
            )
        )
    return rows


def _fmt_metric(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _csv_text(text: str) -> str:
    """A free-text CSV field, quoted (RFC 4180) only when it holds a comma, quote or line break."""
    return text if set(',"\r\n').isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def write_results_csv(rows: Iterable[EvaluationRow], out: IO[str]) -> None:
    out.write("incident,collector,detector,precision,recall,f1,tp,fp,fn,tn\n")
    for row in rows:
        ev = row.evaluation
        out.write(
            f"{_csv_text(row.incident)},{_csv_text(row.collector)},{_csv_text(row.detector)},"
            f"{_fmt_metric(ev.precision)},{_fmt_metric(ev.recall)},{_fmt_metric(ev.f1)},"
            f"{ev.tp},{ev.fp},{ev.fn},{ev.tn}\n"
        )
