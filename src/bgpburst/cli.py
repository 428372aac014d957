"""Command-line front end: ingest, analyze, detect, evaluate, simulate.

Every command snapshots its configuration, input digests, and output digests
into a manifest.json in the output directory, so identical inputs and
settings can be shown to yield identical outputs.  The digests cover the
bytes read and written, and a command publishes its outputs only when it
succeeds.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import re
import reprlib
import stat
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING, Iterator

from . import __version__
from .burstiness import (
    DegenerateTableError,
    InsufficientDataError,
    InsufficientNullDataError,
    UndefinedStatisticError,
    check_null_test_settings,
    joint_distribution,
    joint_sidecar,
    monte_carlo_null_test,
    series_burstiness,
    write_joint_csv,
    write_significance_json,
)
from .detector import (
    CONFIG_FIELDS,
    CONFIG_KEYS,
    AnomalyReport,
    DetectorConfig,
    detect_events,
    detect_volume,
    parse_config,
    write_trace_csv,
)
from .evaluation import (
    DEFAULT_BIN_SECONDS,
    IncidentWindow,
    evaluate_incident,
    load_incidents,
    write_results_csv,
)
from .events import (
    ANNOUNCEMENT,
    WITHDRAWAL,
    EventFormatError,
    copy_event_text,
    line_parts,
    read_groups,
    series_from_columns,
    volume_from_columns,
    write_event_lines,
)
from .fields import (
    ANY, INSTANT, INTEGER, INTEGER_LIST, INTEGER_PAIR, NONNEGATIVE, REAL, TEXT, TIME, WHOLE,
    ConfigurationError, optional, read_json, read_record, read_setting,
)
from .mrt import MrtParseError, MrtStats, decompress, read_updates

# Not called here: benchmarks/traced_cli.py wraps these names in this module
# until stage records replace it (ROADMAP item 1).
from .events import build_series, build_volume_series, parse_event_lines, series_keys  # noqa: F401
from .mrt import parse_mrt_updates  # noqa: F401

if TYPE_CHECKING:  # synth is imported by simulate alone
    from .synth import GeneratorSpec, IncidentSpec

CONFIG_ENV_VAR = "BGPBURST_CONFIG"


class CliError(Exception):
    """User-facing failure; message goes to stderr, exit code 2."""


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _probe(target: str) -> None:
    """Refuse a `target` that a staged file could not replace, before
    anything is published: a name too long for the file system, or a
    directory."""
    try:
        if stat.S_ISDIR(os.lstat(target).st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise CliError(f"cannot write {reprlib.repr(target)}: {exc.strerror or exc}") from exc


class _Digesting(io.BufferedIOBase):
    """A binary file over a file descriptor that hashes every byte written."""

    def __init__(self, fd: int):
        self.fd = fd
        self.sha256 = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha256.update(data)
        view = memoryview(data)
        while view:  # one os.write unless it writes less than asked
            view = view[os.write(self.fd, view):]
        return len(data)


class Manifest:
    """Every file a command reads, and every file it writes under --out.

    Inputs are hashed from the bytes read, outputs from the bytes written.
    An output, manifest.json the last of them, goes to a temporary file
    under --out and takes its name only in write(), once the command has
    succeeded; discard() removes the rest, and the directories made for
    --out when nothing was published.
    """

    def __init__(self, command: str, argv: list[str], out: str):
        self.started = time.time()
        self.out = Path(out)
        self.created: list[Path] = []  # directories made for --out, deepest first
        try:
            for directory in (self.out, *self.out.parents):
                if directory.exists():
                    break
                self.created.append(directory)
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self._remove_created()
            raise CliError(
                f"cannot create output directory {reprlib.repr(str(self.out))}: {exc.strerror or exc}"
            ) from exc
        # What an output's name is joined to, as text: Path("." or "") / name is name.
        self.prefix = "" if self.out == Path() else os.path.join(self.out, "")
        self.pending: dict[str, tuple[str, str]] = {}  # output name -> (temporary file, path)
        self.doc = {
            "tool": "bgpburst",
            "version": __version__,
            "command": command,
            "argv": argv,
            "config": {},
            "seed": None,  # simulate sets its --seed
            "inputs": [],
            "outputs": [],
        }

    def read(self, path: Path) -> bytes:
        """An input's bytes, read once and recorded with their digest."""
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise CliError(f"cannot read {reprlib.repr(str(path))}: {exc.strerror or exc}") from exc
        self.doc["inputs"].append({"path": str(path), "sha256": hashlib.sha256(data).hexdigest()})
        return data

    @contextlib.contextmanager
    def _staged(self, name: str) -> Iterator[_Digesting]:
        """The temporary file of output `name`, whose digest is recorded when the body ends."""
        target = self.prefix + name  # every name is one path component
        if name in self.pending:
            raise CliError(f"two outputs would be written to {target}")
        _probe(target)
        # Named by the output's index: a name may fit with no room for more.
        partial = f"{self.prefix}.{len(self.pending)}.{os.getpid()}.tmp"
        try:
            fd = os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            self.pending[name] = partial, target  # only once it is ours to remove
            staged = _Digesting(fd)
            try:
                yield staged
            finally:
                os.close(fd)
        except OSError as exc:
            raise CliError(f"cannot write {reprlib.repr(target)}: {exc.strerror or exc}") from exc
        self.doc["outputs"].append({"path": target, "sha256": staged.sha256.hexdigest()})

    @contextlib.contextmanager
    def output(self, name: str) -> Iterator[IO[str]]:
        """A UTF-8 text handle, with \\n line endings, for `name` under --out."""
        with self._staged(name) as staged:
            with io.TextIOWrapper(staged, encoding="utf-8", newline="\n") as fh:
                yield fh

    def write_text(self, name: str, text: str) -> None:
        """The whole of output `name`, encoded once and written in one call."""
        data = text.encode("utf-8")
        with self._staged(name) as staged:
            staged.write(data)

    def write(self) -> None:
        """Stage manifest.json as the last output, then publish every output
        in the order written."""
        self.doc["duration_s"] = round(time.time() - self.started, 3)
        self.write_text("manifest.json", _json_text(self.doc))
        try:
            for partial, target in self.pending.values():
                os.replace(partial, target)
            self.pending.clear()
            self.created.clear()  # they hold the outputs now
        except OSError as exc:
            raise CliError(
                f"cannot publish outputs in {reprlib.repr(str(self.out))}: {exc.strerror or exc}"
            ) from exc

    def discard(self) -> None:
        """Remove the temporary files of outputs not published, then the
        directories made for --out if nothing was published in them."""
        for partial, _ in self.pending.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(partial)
        self._remove_created()

    def _remove_created(self) -> None:
        """rmdir each directory made for --out, deepest first, if it is empty."""
        for directory in self.created:
            with contextlib.suppress(OSError):  # not empty, or never made
                directory.rmdir()


def _decode_utf8(path: Path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: {exc}") from exc


def _load_groups(
    manifest: Manifest, path: Path, prefixes: bool = True
) -> dict[tuple[int, str], tuple[list, ...]]:
    """The usable announcements of a canonical events file, as read_groups columns."""
    try:
        raw = decompress(manifest.read(path))
    except MrtParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    text = _decode_utf8(path, raw)
    del raw  # freed before the columns are built
    try:
        return read_groups(text, prefixes)
    except EventFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _safe_name(text: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in text)


def _resolve_detector_config(args, manifest: Manifest) -> tuple[DetectorConfig, dict]:
    """Defaults, then config file (a recorded input), then command-line overrides."""
    settings: dict = {}
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        path = Path(config_path)
        text = _decode_utf8(path, manifest.read(path))
        settings.update(parse_config(text, f"config file {config_path}"))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    config = DetectorConfig.from_mapping(settings, "bad detector settings")
    return config, config.as_dict()


# ---------------------------------------------------------------- ingest


# Canonical input: after an optional UTF-8 byte order mark and the UTF-8 of
# any whitespace that str.strip() removes, its first byte opens a JSON
# object, or there is none.  Matched in place, where lstrip() would copy the
# whole payload.  A byte order mark, like any line that is not JSON, is then
# refused by the line reader with its own error.  An MRT dump opens with its
# first record's 4-byte timestamp and a record type below 256, so it matches
# only if that timestamp opens with these bytes or "{": before 1988, or
# after 2034 (the BOM's 0xEFBBBF.. is in 2097).
_CANONICAL_HEAD = re.compile(
    rb"(?:\xef\xbb\xbf)?(?:[\t-\r\x1c- ]|\xc2[\x85\xa0]|\xe1\x9a\x80|\xe2\x80[\x80-\x8a\xa8\xa9\xaf]"
    rb"|\xe2\x81\x9f|\xe3\x80\x80)*(?:\{|\Z)"
)


def _prefix_lines(head: str, prefixes: list[str], tail: str) -> str:
    """One writer-form line per prefix: the MRT decoder's prefix texts need no escaping."""
    return f'{head}"' + f'"{tail}\n{head}"'.join(prefixes) + f'"{tail}\n'


def _ingest_mrt(payload: bytes, collector: str, asn: int | None, fh) -> tuple[dict, int, int]:
    """Write the kept events of one MRT input, all at `collector`; its
    summary entry, lines and announcements."""
    stats = MrtStats()
    collector_json = json.dumps(collector)
    written = announcements = 0
    for ts, peer_asn, withdrawn, announced, origin, ambiguous in read_updates(payload, stats):
        if withdrawn and asn is None:
            head, tail = line_parts(ts, collector_json, peer_asn, WITHDRAWAL, None, False)
            fh.write(_prefix_lines(head, withdrawn, tail))
            written += len(withdrawn)
        if announced and (asn is None or origin == asn):
            head, tail = line_parts(ts, collector_json, peer_asn, ANNOUNCEMENT, origin, ambiguous)
            fh.write(_prefix_lines(head, announced, tail))
            written += len(announced)
            announcements += len(announced)
    return {"format": "mrt", **stats.as_dict()}, written, announcements


def _ingest_input(manifest: Manifest, path: Path, args, fh) -> tuple[dict, int, int]:
    """Decode one input and write the events ingest keeps as they are decoded.

    Returns the input's summary entry, final once its events are written,
    with the count of lines written and of announcements among them.
    """
    raw = manifest.read(path)
    try:
        payload = decompress(raw)
        del raw
        if _CANONICAL_HEAD.match(payload):
            text = _decode_utf8(path, payload)
            del payload  # the text alone is kept while it is written
            emitted, written, announcements = copy_event_text(text, fh, args.collector, args.asn)
            entry = {
                "format": "canonical", "events_emitted": emitted, "events_dropped": 0, "records_skipped": 0,
            }
            return entry, written, announcements
        # MRT does not name its collector: --collector does, and so it
        # filters nothing here.
        collector = "unknown" if args.collector is None else args.collector
        return _ingest_mrt(payload, collector, args.asn, fh)
    except (MrtParseError, EventFormatError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def cmd_ingest(args, manifest: Manifest) -> int:
    manifest.doc["config"] = {"asn": args.asn, "collector": args.collector}
    per_input = []
    written = announcements = 0
    with manifest.output("events.jsonl") as fh:
        for path in map(Path, args.inputs):
            stats, lines, announced = _ingest_input(manifest, path, args, fh)
            per_input.append({"path": str(path), **stats})
            written += lines
            announcements += announced

    withdrawals = written - announcements
    summary = {
        "events_written": written,
        "announcements": announcements,
        "withdrawals_excluded_from_statistics": withdrawals,
        "events_dropped": sum(item["events_dropped"] for item in per_input),
        "records_skipped": sum(item["records_skipped"] for item in per_input),
        "inputs": per_input,
    }
    manifest.write_text("ingest_summary.json", _json_text(summary))
    manifest.write()
    print(
        f"ingest: wrote {written} events ({announcements} announcements, "
        f"{withdrawals} withdrawals) to {manifest.out / 'events.jsonl'}"
    )
    return 0


# ---------------------------------------------------------------- detect


def _indented_ints(values) -> str:
    """A list of integers as _json_text renders it as the value of a key."""
    return "[\n    " + ",\n    ".join(map(str, values)) + "\n  ]" if values else "[]"


def _value_text(doc) -> str:
    """`doc` as _json_text renders it as the value of a key."""
    return json.dumps(doc, indent=2, sort_keys=True).replace("\n", "\n  ")


def _report_text(detector: str, report: AnomalyReport, span: tuple[int, int], config_text: str) -> str:
    """_json_text of a report's document, built for its one shape.

    `config_text` is _value_text of the config snapshot, the same for every report."""
    return (
        f'{{\n  "anomalous_timestamps": {_indented_ints(report.anomalous_timestamps)},\n'
        f'  "collector": {json.dumps(report.collector)},\n  "config": {config_text},\n'
        f'  "detector": {json.dumps(detector)},\n  "origin_asn": {report.origin_asn},\n'
        f'  "span": {_indented_ints(span)}\n}}\n'
    )


def _write_report(
    manifest: Manifest, detector: str, report: AnomalyReport, stem: str, span, config_text: str
) -> None:
    """Write report_<detector>_<stem>.json, preceded by trace_<detector>_<stem>.csv
    if the report has a trace."""
    if report.trace is not None:
        with manifest.output(f"trace_{detector}_{stem}.csv") as fh:
            write_trace_csv(report, fh)
    manifest.write_text(f"report_{detector}_{stem}.json", _report_text(detector, report, span, config_text))


def _report_stems(keys: list[tuple[int, str]]) -> dict[tuple[int, str], str]:
    """Each series' report file stem; refuse series whose reports would overwrite each other."""
    stems: dict[tuple[int, str], str] = {}
    seen: dict[tuple[int, str], str] = {}
    for asn, collector in keys:
        name = _safe_name(collector)
        other = seen.setdefault((asn, name), collector)
        if other != collector:
            raise CliError(
                f"collectors {reprlib.repr(other)} and {reprlib.repr(collector)} share the report "
                f"name {reprlib.repr(name)} for AS{asn}; pick one with --collector"
            )
        stems[asn, collector] = f"AS{asn}_{name}"
    return stems


def cmd_detect(args, manifest: Manifest) -> int:
    config, snapshot = _resolve_detector_config(args, manifest)
    manifest.doc["config"] = snapshot
    groups = _load_groups(manifest, Path(args.events))

    keys = list(groups)
    if args.collector is not None:
        keys = [k for k in keys if k[1] == args.collector]
    if args.asn is not None:
        keys = [k for k in keys if k[0] == args.asn]
    if not keys:
        print("detect: warning: no matching series; nothing to do", file=sys.stderr)
        manifest.write()
        return 0
    stems = _report_stems(keys)

    config_text = _value_text(snapshot)  # encoded once for every report
    for (asn, collector), stem in stems.items():
        timestamps, prefixes = groups[asn, collector]
        series = series_from_columns(asn, collector, timestamps)
        span = series.span
        if args.detector in ("both", "burstiness"):
            report = detect_events(series, config, collect_trace=args.trace)
            _write_report(manifest, "burstiness", report, stem, span, config_text)
        if args.detector in ("both", "volume"):
            volume = volume_from_columns(asn, collector, timestamps, prefixes)
            report = detect_volume(volume, config, collect_trace=args.trace)
            _write_report(manifest, "volume", report, stem, span, config_text)
    manifest.write()
    print(f"detect: processed {len(keys)} series into {manifest.out}")
    return 0


# ---------------------------------------------------------------- analyze


WINDOW_FIELDS = {"start": WHOLE, "end": WHOLE}  # also a [start, end] pair
UTC_WINDOW_FIELDS = {"start_utc": TIME, "end_utc": TIME}


def _load_null_windows(manifest: Manifest, path: Path) -> list[tuple[int, int]]:
    raw = read_json(manifest.read(path), str(path))
    if not isinstance(raw, list):
        raise CliError(f"{path}: null window file must be a JSON array")
    windows = []
    for n, item in enumerate(raw, start=1):
        where = f"{path}: null window {n}"
        if isinstance(item, list) and len(item) == 2:
            item = dict(zip(WINDOW_FIELDS, item))
        utc = isinstance(item, dict) and "start_utc" in item
        start, end = read_record(item, UTC_WINDOW_FIELDS if utc else WINDOW_FIELDS, where).values()
        if start >= end:
            raise CliError(f"{where}: [{start}, {end}) is empty")
        windows.append((start, end))
    return windows


def _check_null_overlap(
    windows: list[tuple[int, int]], incidents: list[IncidentWindow]
) -> None:
    for start, end in windows:
        for inc in incidents:
            if start < inc.end and inc.start < end:
                raise CliError(
                    f"null window [{start}, {end}) overlaps incident {reprlib.repr(inc.name)}"
                )


def cmd_analyze(args, manifest: Manifest) -> int:
    window = tuple(args.window)
    if window[0] >= window[1]:
        raise CliError("analysis window start must precede end")
    for i, asn in enumerate(args.target_asn):
        if asn in args.target_asn[:i]:
            raise CliError(f"--target-asn names AS{asn} more than once")
    if not args.target_asn:
        for option in ("--null-windows", "--null-events", "--incidents"):
            if getattr(args, option[2:].replace("-", "_")) is not None:
                raise CliError(f"{option} is used only with --target-asn")
    elif not args.null_windows:
        raise CliError("significance testing needs --null-windows")
    try:
        check_null_test_settings(args.k, args.alpha_sig)
    except ValueError as exc:
        raise CliError(f"bad Monte Carlo settings: {exc}") from exc
    min_events = _resolve_detector_config(args, manifest)[0].min_events
    manifest.doc["config"] = {
        "window": list(window), "min_events": min_events, "k": args.k, "alpha_sig": args.alpha_sig,
    }
    events_path = Path(args.events)
    groups = _load_groups(manifest, events_path, prefixes=False)
    collectors = sorted({collector for _, collector in groups})
    if args.collector is not None:
        if args.collector not in collectors:
            raise CliError(f"collector {reprlib.repr(args.collector)} not present in events")
        collectors = [args.collector]
    elif len(collectors) > 1:
        raise CliError(
            f"events span {len(collectors)} collectors; pick one with --collector"
        )
    if not collectors:
        raise CliError("no usable announcements in events file")
    collector = collectors[0]
    series = {  # by AS, at the collector
        asn: series_from_columns(asn, coll, timestamps)
        for (asn, coll), (timestamps,) in groups.items()
        if coll == collector
    }

    # Every input is read and checked before the first output is written.
    if args.target_asn:
        null_windows = _load_null_windows(manifest, Path(args.null_windows))
        if args.incidents:
            _check_null_overlap(null_windows, load_incidents(Path(args.incidents), manifest.read))
        null_events_path = Path(args.null_events) if args.null_events else events_path
        null_series = series
        if null_events_path != events_path:
            null_groups = _load_groups(manifest, null_events_path, prefixes=False)
            null_series = {
                asn: series_from_columns(asn, collector, null_groups[asn, collector][0])
                for asn in args.target_asn
                if (asn, collector) in null_groups
            }
        for asn in args.target_asn:
            for path, found in ((events_path, series), (null_events_path, null_series)):
                if asn not in found:
                    raise CliError(f"{path}: no announcements by AS{asn} at {reprlib.repr(collector)}")

    try:
        table = joint_distribution(list(series.values()), window, min_events=min_events)
    except DegenerateTableError as exc:
        raise CliError(f"joint distribution for {reprlib.repr(collector)}: {exc}") from exc
    with manifest.output(f"joint_{_safe_name(collector)}.csv") as fh:
        write_joint_csv(table, fh)
    manifest.write_text(f"joint_{_safe_name(collector)}.json", _json_text(joint_sidecar(table)))

    if args.target_asn:
        for asn in args.target_asn:
            nulls = [null_series[asn].restrict(start, end) for start, end in null_windows]
            try:
                observed = series_burstiness(series[asn].restrict(*window), min_events)
                result = monte_carlo_null_test(
                    nulls,
                    observed,
                    k=args.k,
                    alpha_sig=args.alpha_sig,
                    min_events=min_events,
                )
            except (InsufficientDataError, InsufficientNullDataError, UndefinedStatisticError) as exc:
                raise CliError(f"significance test for AS{asn}: {exc}") from exc
            with manifest.output(f"significance_AS{asn}.json") as fh:
                write_significance_json(result, fh)
    manifest.write()
    print(f"analyze: {len(table.rows)} ASes tabulated for {collector} into {manifest.out}")
    return 0


# ---------------------------------------------------------------- evaluate


REPORT_FIELDS = {  # with the settings detect ran with as `config`
    "detector": TEXT, "origin_asn": INTEGER, "collector": TEXT, "span": INTEGER_PAIR,
    "anomalous_timestamps": INTEGER_LIST, "config": optional(ANY),
}


def _load_reports(manifest: Manifest, paths: list[str]) -> dict[tuple[int, str], dict[str, SimpleNamespace]]:
    """Each report's fields and its path, by (origin AS, collector) and then by
    detector: the map evaluate_incident scores, whose reports it reads as it
    reads an AnomalyReport.  A second report of one detector and series is an error."""
    series: dict[tuple[int, str], dict[str, SimpleNamespace]] = {}
    for path in paths:
        make = functools.partial(SimpleNamespace, path=path)
        report = read_record(read_json(manifest.read(Path(path)), path), REPORT_FIELDS, path, make)
        reports = series.setdefault((report.origin_asn, report.collector), {})
        earlier = reports.setdefault(report.detector, report)
        if earlier is not report:
            raise CliError(
                f"{earlier.path} and {path} are both {reprlib.repr(report.detector)} reports "
                f"for AS{report.origin_asn} at {reprlib.repr(report.collector)}"
            )
    return series


def cmd_evaluate(args, manifest: Manifest) -> int:
    if args.m < 1:
        raise CliError(f"--m must be a bin length of at least 1 second, got {args.m}")
    if (args.t0 is None) != (args.t1 is None):
        raise CliError("--t0 and --t1 go together: pass both or neither")
    if args.t0 is not None and args.t0 >= args.t1:
        raise CliError(f"--t0 {args.t0}, --t1 {args.t1}: t0 must precede t1")
    manifest.doc["config"] = {"m": args.m}
    series = sorted(_load_reports(manifest, args.reports).items())
    incidents = load_incidents(Path(args.incidents), manifest.read)
    if args.t0 is not None:
        bounds = (args.t0, args.t1)
    else:
        spans = [report.span for _, reports in series for report in reports.values()]
        bounds = (min(s[0] for s in spans), max(s[1] for s in spans) + 1)

    rows = []
    for incident in incidents:
        for (asn, collector), reports in series:
            if asn == incident.perpetrator_asn:
                try:
                    rows.extend(evaluate_incident(reports, incident, bounds, args.m))
                except ValueError as exc:
                    raise CliError(f"AS{asn} at {reprlib.repr(collector)}: {exc}") from exc
    if not rows:
        raise CliError("no report matches any configured incident perpetrator")
    with manifest.output("results.csv") as fh:
        write_results_csv(rows, fh)
    manifest.write()
    print(f"evaluate: {len(rows)} rows written to {manifest.out / 'results.csv'}")
    return 0


# ---------------------------------------------------------------- simulate


# The generator and the incident are read by the tables below; a null incident is none.
SPEC_FIELDS = {"generator": ANY, "incident": optional(ANY)}
GENERATOR_FIELDS = {
    "process": TEXT, "mean_gap": REAL, "n_events": WHOLE, "start_ts": WHOLE, "asn": WHOLE,
    "collector": TEXT, "seed": optional(WHOLE), "pareto_alpha": optional(REAL),
}
INCIDENT_SPEC_FIELDS = {
    "start": WHOLE, "end": WHOLE, "burst_gap": optional(WHOLE), "prefixes_per_second": optional(WHOLE),
}


def _spec_from_doc(doc, seed: int, where: str) -> tuple[GeneratorSpec, IncidentSpec | None]:
    """The generator and incident of a simulate spec; `seed` is the default seed."""
    from .synth import GeneratorSpec, IncidentSpec

    spec = read_record(doc, SPEC_FIELDS, where)
    make = functools.partial(GeneratorSpec, seed=seed)
    generator = read_record(spec["generator"], GENERATOR_FIELDS, f"{where}: generator", make)
    incident = spec.get("incident")
    if incident is not None:
        incident = read_record(incident, INCIDENT_SPEC_FIELDS, f"{where}: incident", IncidentSpec)
    return generator, incident


def cmd_simulate(args, manifest: Manifest) -> int:
    from .synth import generate_stream, inject_incident_events

    manifest.doc["seed"] = args.seed
    done = []  # printed once every output is published
    for spec_path in map(Path, args.specs):
        where = str(spec_path)
        spec, incident = _spec_from_doc(read_json(manifest.read(spec_path), where), args.seed or 0, where)
        try:
            events = generate_stream(spec)
            if incident is not None:
                events = inject_incident_events(events, incident)
        except ValueError as exc:
            raise CliError(f"{spec_path}: {exc}") from exc
        name = f"{spec_path.stem}.jsonl"
        with manifest.output(name) as fh:
            written = write_event_lines(events, fh)
        done.append(f"simulate: {written} events from {spec_path.name} to {manifest.out / name}")
    manifest.write()
    print(*done, sep="\n")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgpburst",
        description="Burstiness-based anomaly detection for BGP announcement streams",
    )
    parser.add_argument("--version", action="version", version=f"bgpburst {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="bgpburst-out", help="output directory")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", default=None, help=f"detector config file (or ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="normalize MRT or canonical inputs")
    p.add_argument("inputs", nargs="+", help="MRT dumps or canonical .jsonl files (gz/bz2 ok)")
    p.add_argument("--asn", help="keep only this origin AS")
    p.add_argument("--collector", help="collector name for MRT input; filter otherwise")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("detect", parents=[configured], help="run burstiness and volume detectors")
    p.add_argument("events", help="canonical events file")
    p.add_argument("--asn")
    p.add_argument("--collector")
    p.add_argument("--detector", choices=("both", "burstiness", "volume"), default="both")
    p.add_argument("--r", help="intensity decay factor (default 1/300)")
    p.add_argument("--omega", help="moving-average window length (default 200)")
    p.add_argument("--delta", help="band width in standard deviations (default 2)")
    p.add_argument("--warmup", help="suppress flags for the first N events")
    p.add_argument("--variance-floor")
    p.add_argument("--trace", action="store_true",
                   help="also write a per-event trace_*.csv beside each report")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("analyze", parents=[configured], help="joint distribution and significance test")
    p.add_argument("events", help="canonical events file")
    p.add_argument("--collector")
    p.add_argument("--window", nargs=2, required=True, metavar=("START", "END"),
                   help="analysis window (unix seconds or RFC 3339, UTC)")
    p.add_argument("--target-asn", action="append", default=[], help="AS to significance-test (repeatable)")
    p.add_argument("--null-windows", default=None,
                   help="JSON list of no-incident windows")
    p.add_argument("--null-events", default=None,
                   help="canonical events file for null windows (default: main events)")
    p.add_argument("--incidents", default=None, help="incident config for overlap validation")
    p.add_argument("--min-events", help="announcements required for a burstiness value (default 5)")
    p.add_argument("--k", default=100, help="null sample count")
    p.add_argument("--alpha-sig", default=0.05)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evaluate", parents=[common], help="score detector reports against incidents")
    p.add_argument("reports", nargs="+", help="report JSON files from the detect command")
    p.add_argument("--incidents", required=True, help="incident config JSON")
    p.add_argument("--m", default=DEFAULT_BIN_SECONDS, help="bin length in seconds")
    p.add_argument("--t0", help="study start (unix or RFC 3339)")
    p.add_argument("--t1", help="study end, exclusive")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", parents=[common], help="generate synthetic canonical streams")
    p.add_argument("specs", nargs="+", help="generator spec JSON files")
    p.add_argument("--seed", help="seed of the specs that name none (default 0)")
    p.set_defaults(func=cmd_simulate)
    return parser


# Each option that gives a setting as text, with the field kind that setting
# has in a file: --omega 200.0 reads as omega = 200.0 does in a config file,
# and --asn as origin_asn does in events.  Paths and --detector are not read.
OPTION_KINDS = {
    **{"--" + key.replace("_", "-"): kind for key, kind in CONFIG_FIELDS.items()},
    "--asn": NONNEGATIVE, "--target-asn": NONNEGATIVE, "--collector": TEXT, "--seed": WHOLE,
    "--k": WHOLE, "--alpha-sig": REAL, "--m": WHOLE, "--window": INSTANT, "--t0": INSTANT, "--t1": INSTANT,
}


def _read_options(args) -> None:
    """Replace the text of each option in OPTION_KINDS that `args` holds with its value."""
    for option, kind in OPTION_KINDS.items():
        dest = option[2:].replace("-", "_")
        value = getattr(args, dest, None)
        if isinstance(value, list):  # --window, --target-asn
            setattr(args, dest, [read_setting(text, kind, option) for text in value])
        elif isinstance(value, str):  # not a default
            setattr(args, dest, read_setting(value, kind, option))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    manifest = None
    try:
        _read_options(args)  # before --out is made
        manifest = Manifest(args.command, sys.argv[1:] if argv is None else list(argv), args.out)
        return args.func(args, manifest)
    except (CliError, MrtParseError, EventFormatError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if manifest is not None:
            manifest.discard()


if __name__ == "__main__":
    sys.exit(main())
