"""Run one bgpburst CLI command with a span around every call into a layer.

    PYTHONPATH=src python benchmarks/traced_cli.py SPANS.json COMMAND [ARGS...]

The CLI runs unchanged: the functions it imports from the package modules
(`mrt`, `events`, `detector`, `burstiness`, `evaluation`) are wrapped in its
own namespace, and so is `EventSeries.restrict` when the CLI itself calls
it.  Spans (name, start, end, parent, counts) stay in memory and are
written to SPANS.json when the command returns.  The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, count=None, materialize: bool = False):
        """`fn` inside a span; `count(args, result)` fills the span's counters.

        With `materialize`, a generator result is drained into a list inside
        the span, so the span covers the work and not only its creation.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                self.close(span)
            if count is not None:
                span["counts"] = count(args, result)
            return result

        return wrapper


# Span name -> (function name in bgpburst.cli, counters taken from the call).
WRAPPED = {
    "mrt.parse": ("parse_mrt_updates", lambda a, r: {
        "records": r.stats.records_total,
        "nlri_seen": r.stats.nlri_seen,
        "events_dropped": r.stats.events_dropped,
    }),
    "mrt.decompress": ("decompress", None),
    "events.parse_lines": ("parse_event_lines", lambda a, r: {"lines": len(r)}),
    "events.write_lines": ("write_event_lines", lambda a, r: {"lines": r}),
    "events.series_keys": ("series_keys", lambda a, r: {"series": len(r)}),
    "events.build_series": ("build_series", lambda a, r: {
        "scanned": len(a[0]), "placed": len(r),
    }),
    "events.build_volume": ("build_volume_series", lambda a, r: {
        "scanned": len(a[0]), "placed": sum(c for _, c in r.points),
    }),
    "detector.events": ("detect_events", lambda a, r: {
        "events": len(a[0]), "flags": len(r.anomalous_timestamps),
    }),
    "detector.volume": ("detect_volume", lambda a, r: {"points": len(a[0])}),
    "detector.write_trace": ("write_trace_csv", lambda a, r: {"rows": len(a[0].trace)}),
    "burstiness.joint": ("joint_distribution", lambda a, r: {
        "rows": len(r.rows), "skipped": len(r.skipped),
    }),
    "burstiness.write_joint": ("write_joint_csv", None),
    "burstiness.sidecar": ("joint_sidecar", None),
    "burstiness.series": ("series_burstiness", None),
    "burstiness.mc": ("monte_carlo_null_test", lambda a, r: {
        "usable": len(r.null_samples), "skipped": r.skipped_windows,
    }),
    "burstiness.write_significance": ("write_significance_json", None),
    "evaluation.load_incidents": ("load_incidents", None),
    "evaluation.evaluate": ("evaluate_incident", lambda a, r: {
        "bins": sum(row.evaluation.n_bins for row in r),
    }),
    "evaluation.write_results": ("write_results_csv", None),
}


def install(tracer: Tracer, cli, events) -> None:
    for span_name, (attr, count) in WRAPPED.items():
        materialize = attr == "parse_event_lines"
        setattr(cli, attr, tracer.wrap(span_name, getattr(cli, attr), count, materialize))

    restrict = events.EventSeries.restrict
    traced_restrict = tracer.wrap("burstiness.null_windows", restrict)

    def cli_restrict(self, start, end):
        # Only the CLI's own slicing; joint_distribution's calls stay inside its span.
        if len(tracer.stack) == 1:
            return traced_restrict(self, start, end)
        return restrict(self, start, end)

    events.EventSeries.restrict = cli_restrict


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    from bgpburst import cli, events

    tracer = Tracer()
    install(tracer, cli, events)
    root = tracer.open(f"cli.{cli_args[0]}")
    try:
        return cli.main(cli_args)
    finally:
        tracer.close(root)
        spans_path.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
