"""Offline benchmark of the bgpburst pipeline, run through its CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is `mrt-archive` or `incident-week` (see
`workloads.py` for why each exists), or `all` to run each in turn.  The run
builds the workload's inputs from the seed (several times, to time set-up),
runs one untimed warm-up chain and checks its outputs against the
generator and the reference detector, then runs the CLI chain again and
again for S seconds.  Each command is a separate `python -m bgpburst.cli`
process started when the previous one returns (closed loop, one client,
single-threaded, pinned with the harness to one CPU, with a fixed
`PYTHONHASHSEED`); its wall time, CPU time and peak RSS come from
`os.wait4`.  The outputs of every timed chain must hash the same as the
checked warm-up chain's.

With `--trace 1` the timed chains alternate between the plain CLI and the
CLI under `traced_cli.py`, which records a span at each call into a package
module.  That run reports per-layer numbers instead of end-to-end ones.

Every line but the last is a report for people; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  The exit code
is 0 when every command succeeded and passed its check, 1 when one did
not, and 2 when the repository is incomplete.  All outputs go under
`.bench_out/` in the repository and are removed at the end, except the span
dump of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = ROOT / ".bench_out"

CHAINS = {
    "mrt-archive": ("ingest", "detect", "evaluate", "analyze"),
    "incident-week": ("ingest", "detect", "evaluate", "analyze"),
}
SETUP_MIN_BUILDS = 3
SETUP_MIN_SECONDS = 2.0  # cheap builds repeat more, so setup_s stays steady
SETUP_MAX_BUILDS = 15
COMMAND_TIMEOUT_S = 60  # a run must end within 180 s even if a command hangs
LAYERS = ("mrt", "events", "detector", "burstiness", "evaluation")

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "events_per_s": "1/s",
    "ingest_s": "s",
    "detect_s": "s",
    "analyze_s": "s",
    "evaluate_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "f1_burstiness": "ratio",
}
PER_LAYER_UNITS = {
    "mrt.parse_s": "s",
    "mrt.nlri_per_s": "1/s",
    "mrt.records": "count",
    "mrt.nlri_seen": "count",
    "mrt.events_dropped": "count",
    "events.parse_lines_s": "s",
    "events.lines_per_s": "1/s",
    "events.write_lines_s": "s",
    "events.series_keys_s": "s",
    "events.build_series_s": "s",
    "events.build_volume_s": "s",
    "events.series_count": "count",
    "events.grouping_useful_ratio": "ratio",
    "detector.events_s": "s",
    "detector.events_notrace_s": "s",
    "detector.volume_s": "s",
    "detector.write_trace_s": "s",
    "detector.events_per_s": "1/s",
    "detector.flags": "count",
    "detector.flag_ratio": "ratio",
    "burstiness.joint_s": "s",
    "burstiness.null_windows_s": "s",
    "burstiness.mc_s": "s",
    "burstiness.null_usable_ratio": "ratio",
    "burstiness.rows": "count",
    "burstiness.skipped": "count",
    "evaluation.evaluate_s": "s",
    "evaluation.bins": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.output_files": "count",
    "cli.output_mb": "MB",
    "cli.hashed_mb": "MB",
    "cli.residual_s": "s",
    "cli.trace_overhead_s": "s",
}


@dataclass
class Command:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    spans: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


@dataclass
class Chain:
    traced: bool
    commands: list[Command]
    complete: bool  # every command of the workload ran and passed
    files: int = 0
    output_bytes: int = 0
    hashed_bytes: int = 0
    notrace: tuple[float, int] = (0.0, 0)  # detect_events without trace: seconds, events

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    def command(self, name: str) -> Command:
        return next(c for c in self.commands if c.name == name)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BGPBURST_CONFIG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # one set/dict layout in every command, not one per process
    return env


def run_command(name: str, argv: list[str], out: Path, traced: bool) -> Command:
    """Run one CLI command to completion; measure it through os.wait4."""
    spans_path = out / f"{name}.spans.json"
    if traced:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "bgpburst.cli", *argv]
    with (out / f"{name}.log").open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = Command(name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode)
    if traced and spans_path.is_file():
        result.spans = json.loads(spans_path.read_text())
    if result.exit_code != 0:
        tail = (out / f"{name}.log").read_text(errors="replace").strip().splitlines()[-1:]
        result.problems.append(f"{name} exited {result.exit_code}: {' '.join(tail)}")
    return result


def _argv(w, name: str, out: Path) -> list[str]:
    from checks import detect_reports

    events = str(out / "ingest" / "events.jsonl")
    dest = ["--out", str(out / name)]
    if name == "ingest":
        return ["ingest", *map(str, w.inputs), *w.ingest_args, *dest]
    if name == "detect":
        return ["detect", events, *dest]
    if name == "evaluate":
        reports = [str(path) for path, _ in detect_reports(out / "detect")]
        return ["evaluate", *reports, "--incidents", str(w.incidents),
                "--t0", str(w.t0), "--t1", str(w.t1), *dest]
    return ["analyze", events, "--window", str(w.t0), str(w.t1),
            "--target-asn", str(w.target_asn), "--null-windows", str(w.null_windows),
            "--null-events", str(w.null_events), *dest]


def _dir_stats(out: Path) -> tuple[int, int, int]:
    """Files and bytes the commands wrote, and bytes their manifests hash."""
    files = size = hashed = 0
    for name in ("ingest", "detect", "evaluate", "analyze"):
        for path in (out / name).iterdir():
            files += 1
            size += path.stat().st_size
        manifest = json.loads((out / name / "manifest.json").read_text())
        hashed += sum(Path(e["path"]).stat().st_size
                      for e in manifest["inputs"] + manifest["outputs"])
    return files, size, hashed


def run_chain(w, out: Path, traced: bool, check) -> Chain:
    """The workload's CLI chain; `check(name, dir)` returns problems, untimed."""
    out.mkdir(parents=True)
    commands = []
    for name in CHAINS[w.name]:
        command = run_command(name, _argv(w, name, out), out, traced)
        commands.append(command)
        if command.exit_code == 0:
            try:
                command.problems.extend(check(name, out / name))
            except (OSError, KeyError, ValueError, StopIteration) as exc:
                command.problems.append(f"{name} outputs unreadable: {exc!r}")
        if not command.ok:
            break
    chain = Chain(traced, commands, len(commands) == len(CHAINS[w.name])
                  and all(c.ok for c in commands))
    if chain.complete:
        chain.files, chain.output_bytes, chain.hashed_bytes = _dir_stats(out)
    return chain


def _tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for item in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(item.relative_to(path).as_posix().encode() + b"\0" + item.read_bytes())
    return digest.hexdigest()


def setup(name: str, seed: int, tmp: Path):
    """Build the inputs several times; returns (workload, seconds per build, problems)."""
    from workloads import BUILDERS

    seconds, digests, workload = [], set(), None
    for i in range(SETUP_MAX_BUILDS):
        if i >= SETUP_MIN_BUILDS and sum(seconds) >= SETUP_MIN_SECONDS:
            break
        target = tmp / f"inputs{i}"
        start = time.perf_counter()
        built = BUILDERS[name](seed, target)
        seconds.append(time.perf_counter() - start)
        digests.add(_tree_digest(target))
        if workload is None:
            workload = built
        else:
            shutil.rmtree(target)
    problems = [] if len(digests) == 1 else [f"seed {seed} built different inputs"]
    return workload, seconds, problems


# ------------------------------------------------------------------ reports


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {cut:.4g}, max {max(values):.4g}"
    return f"max {max(values):.4g}"


def end_to_end(w, chains: list[Chain], setup_s: list[float], f1: float | None, lines: list[str]):
    timed = [c for c in chains if c.complete]
    samples = {
        "pipeline_s": [c.wall_s for c in timed],
        **{f"{name}_s": [c.command(name).wall_s for c in timed] for name in CHAINS[w.name]},
        "cpu_s": [sum(cmd.cpu_s for cmd in c.commands) for c in timed],
        "peak_rss_mb": [max(cmd.rss_mb for cmd in c.commands) for c in timed],
        "setup_s": setup_s,
    }
    metrics = {name: statistics.median(values) for name, values in samples.items() if values}
    if "pipeline_s" in metrics:
        metrics["events_per_s"] = w.input_events / metrics["pipeline_s"]
    if f1 is not None:
        metrics["f1_burstiness"] = f1
    for name, unit in END_TO_END_UNITS.items():
        if name in samples and samples[name]:
            values = samples[name]
            lines.append(f"  {name:<16} {metrics[name]:>12.4f} {unit:<6} "
                         f"median of n={len(values)}, {_tail(values)}; samples "
                         + " ".join(f"{v:.4g}" for v in values))
        elif name in metrics:
            lines.append(f"  {name:<16} {metrics[name]:>12.4f} {unit}")
    return metrics


def _self_times(command: Command) -> tuple[dict[str, float], dict[str, float], float]:
    """Self time per layer and per span name, and the residual, for one command."""
    child: dict[int, float] = {}
    for span in command.spans:
        if span["parent"] is not None:
            child[span["parent"]] = child.get(span["parent"], 0.0) + span["end"] - span["start"]
    layers: dict[str, float] = {}
    names: dict[str, float] = {}
    for span in command.spans:
        if span["parent"] is None:
            continue
        own = span["end"] - span["start"] - child.get(span["id"], 0.0)
        layer = span["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
        names[span["name"]] = names.get(span["name"], 0.0) + own
    return layers, names, command.wall_s - sum(layers.values())


def _layer_sample(chain: Chain) -> dict[str, float]:
    """Per-layer metrics of one traced chain."""
    notrace_s, notrace_events = chain.notrace
    t: dict[str, float] = {}
    c: dict[str, dict[str, int]] = {}
    series_count = 0
    for command in chain.commands:
        for span in command.spans:
            if span["parent"] is None:
                continue
            name = span["name"]
            t[name] = t.get(name, 0.0) + span["end"] - span["start"]
            totals = c.setdefault(name, {})
            for key, value in span["counts"].items():
                totals[key] = totals.get(key, 0) + value
            if name == "events.series_keys":
                series_count = max(series_count, span["counts"]["series"])

    def n(span: str, key: str) -> int:
        return c.get(span, {}).get(key, 0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    m = {
        "mrt.parse_s": t.get("mrt.parse", 0.0) + t.get("mrt.decompress", 0.0),
        "mrt.records": n("mrt.parse", "records"),
        "mrt.nlri_seen": n("mrt.parse", "nlri_seen"),
        "mrt.events_dropped": n("mrt.parse", "events_dropped"),
        "events.parse_lines_s": t.get("events.parse_lines", 0.0),
        "events.write_lines_s": t.get("events.write_lines", 0.0),
        "events.series_keys_s": t.get("events.series_keys", 0.0),
        "events.build_series_s": t.get("events.build_series", 0.0),
        "events.build_volume_s": t.get("events.build_volume", 0.0),
        "events.series_count": series_count,
        "detector.events_s": t.get("detector.events", 0.0),
        "detector.events_notrace_s": notrace_s,
        "detector.volume_s": t.get("detector.volume", 0.0),
        "detector.write_trace_s": t.get("detector.write_trace", 0.0),
        "detector.events_per_s": rate(notrace_events, notrace_s),
        "detector.flags": n("detector.events", "flags"),
        "burstiness.joint_s": t.get("burstiness.joint", 0.0),
        "burstiness.null_windows_s": t.get("burstiness.null_windows", 0.0),
        "burstiness.mc_s": t.get("burstiness.mc", 0.0),
        "burstiness.rows": n("burstiness.joint", "rows"),
        "burstiness.skipped": n("burstiness.joint", "skipped"),
        "evaluation.evaluate_s": t.get("evaluation.evaluate", 0.0),
        "evaluation.bins": n("evaluation.evaluate", "bins"),
        "cli.output_files": chain.files,
        "cli.output_mb": chain.output_bytes / 1e6,
        "cli.hashed_mb": chain.hashed_bytes / 1e6,
    }
    m["mrt.nlri_per_s"] = rate(m["mrt.nlri_seen"], t.get("mrt.parse", 0.0))
    m["events.lines_per_s"] = rate(n("events.parse_lines", "lines"), m["events.parse_lines_s"])
    scanned = n("events.build_series", "scanned") + n("events.build_volume", "scanned")
    placed = n("events.build_series", "placed") + n("events.build_volume", "placed")
    m["events.grouping_useful_ratio"] = rate(placed, scanned)
    m["detector.flag_ratio"] = rate(m["detector.flags"], n("detector.events", "events"))
    usable, skipped = n("burstiness.mc", "usable"), n("burstiness.mc", "skipped")
    m["burstiness.null_usable_ratio"] = rate(usable, usable + skipped)
    residual = 0.0
    layer_totals = dict.fromkeys(LAYERS, 0.0)
    for command in chain.commands:
        layers, _, rest = _self_times(command)
        residual += rest
        for layer, seconds in layers.items():
            layer_totals[layer] += seconds
    m.update({f"{layer}.self_s": seconds for layer, seconds in layer_totals.items()})
    m["cli.residual_s"] = residual
    return m


def per_layer(w, chains: list[Chain], lines: list[str]):
    traced = [c for c in chains if c.traced and c.complete]
    plain = [c for c in chains if not c.traced and c.complete]
    if not traced or not plain:
        return {}
    samples = [_layer_sample(c) for c in traced]
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["cli.trace_overhead_s"] = (statistics.median(c.wall_s for c in traced)
                                       - statistics.median(c.wall_s for c in plain))
    for name, unit in PER_LAYER_UNITS.items():
        lines.append(f"  {name:<30} {metrics[name]:>14.6g} {unit}")

    # One whole traced chain (the median one), so its parts add up exactly.
    median_chain = sorted(traced, key=lambda c: c.wall_s)[(len(traced) - 1) // 2]
    lines.append(f"  self time per layer, median traced chain of n={len(traced)} "
                 f"({median_chain.wall_s:.3f} s); cli is the residual: start-up, "
                 "orchestration, file writing, hashing")
    chain_layers: dict[str, float] = {}
    for command in median_chain.commands:
        layers, names, residual = _self_times(command)
        layers["cli"] = residual
        for layer, seconds in layers.items():
            chain_layers[layer] = chain_layers.get(layer, 0.0) + seconds
        parts = " + ".join(f"{k} {v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        top_name = max(names, key=names.get) if names else "-"
        lines.append(f"    {command.name:<9} wall {command.wall_s:.3f} = {parts}; "
                     f"largest call {top_name}")
    ranking = ", ".join(f"{k} {v:.3f}" for k, v in sorted(chain_layers.items(), key=lambda kv: -kv[1]))
    lines.append(f"  layers of the {w.name} chain, largest first: {ranking}")
    return metrics


def _notrace_detector(w) -> tuple[float, int]:
    """detect_events without a trace over every series, timed in process."""
    from bgpburst.detector import DetectorConfig, detect_events
    from bgpburst.events import EventSeries

    series = [EventSeries(origin, w.collector, tuple(ts)) for origin, ts in w.series.items()]
    config = DetectorConfig()
    start = time.perf_counter()
    for s in series:
        detect_events(s, config, collect_trace=False)
    return time.perf_counter() - start, sum(len(s) for s in series)


# -------------------------------------------------------------------- runs


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from checks import Expected, burstiness_f1, output_digests

    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    lines = [f"workload {name}, seed {seed}, {seconds} s, trace {int(trace)}"]
    try:
        w, setup_s, problems = setup(name, seed, tmp)
        lines.append(f"  inputs: {json.dumps(w.sizes, sort_keys=True)}")
        expected = Expected(w)
        reference: dict[str, dict[str, str]] = {}

        def check_full(command: str, out: Path) -> list[str]:
            found = getattr(expected, command)(out)
            reference[command] = output_digests(out)
            return found

        def check_same(command: str, out: Path) -> list[str]:
            if output_digests(out) != reference.get(command):
                return [f"{command} outputs differ from the checked warm-up chain"]
            return []

        warmup = run_chain(w, tmp / "warmup", False, check_full)
        f1 = burstiness_f1(tmp / "warmup" / "evaluate") if warmup.complete else None
        shutil.rmtree(tmp / "warmup")
        chains = [warmup]
        # A chain starts only while at least half of one is left before the
        # deadline, so the timed chains last `seconds` on average rather than
        # overrunning by up to a whole chain.
        deadline = time.perf_counter() + seconds - warmup.wall_s / 2
        while warmup.complete and (time.perf_counter() < deadline or len(chains) < 2 + trace):
            out = tmp / f"chain{len(chains)}"
            traced = trace and len(chains) % 2 == 0
            chain = run_chain(w, out, traced, check_same)
            shutil.rmtree(out)
            if traced:
                chain.notrace = _notrace_detector(w)
            chains.append(chain)
        timed = chains[1:]

        commands = [c for chain in chains for c in chain.commands]
        attempted = sum(len(CHAINS[name]) for _ in chains)
        failed = attempted - sum(1 for c in commands if c.ok)
        problems += [p for c in commands for p in c.problems]
        if trace:
            metrics = per_layer(w, timed, lines)
            units = PER_LAYER_UNITS
            spans = [
                {"trace_id": f"{name}/{seed}/{i}/{c.name}", **span}
                for i, chain in enumerate(chains) for c in chain.commands for span in c.spans
            ]
            dump = WORK_DIR / f"spans-{name}-seed{seed}.json"
            dump.write_text(json.dumps(spans))
            lines.append(f"  {len(spans)} spans written to {dump.relative_to(ROOT)}")
        else:
            metrics = end_to_end(w, timed, setup_s, f1, lines)
            units = END_TO_END_UNITS
        lines.append(f"  failed_ops_share {failed / attempted:.4f} ({failed} of {attempted} commands)")
        for problem in problems[:10]:
            lines.append(f"  FAILED: {problem}")
        correct = not problems and failed == 0 and set(metrics) == set(units)
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
            "lines": lines,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*CHAINS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/bgpburst/cli.py", "tests/mrt_golden.py", "tests/ref_detector.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a bgpburst checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(ROOT / "tests"), str(ROOT / "src")]
    # The harness and every command it starts share one CPU: the chain is
    # single-threaded, and moving between CPUs of a shared host adds noise.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = list(CHAINS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for result in results.values():
        print("\n".join(result.pop("lines")))
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
