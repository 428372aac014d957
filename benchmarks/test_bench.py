"""Self-tests of the benchmark: deterministic inputs, a check that catches
wrong outputs, and clean runs on a seed other than the default.

    PYTHONPATH=src python -m pytest benchmarks/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from checks import Expected, detect_reports  # noqa: E402
from run import ROOT, _self_times, _tree_digest, run_chain  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_seed_fixes_the_inputs(name, tmp_path):
    build = workloads.BUILDERS[name]
    build(5, tmp_path / "a")
    build(5, tmp_path / "b")
    build(6, tmp_path / "c")
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    assert _tree_digest(tmp_path / "a") != _tree_digest(tmp_path / "c")


@pytest.fixture(scope="module")
def checked_chain(tmp_path_factory):
    """One traced mrt-archive chain whose outputs passed the full check."""
    tmp = tmp_path_factory.mktemp("chain")
    workload = workloads.mrt_archive(3, tmp / "inputs")
    expected = Expected(workload)
    chain = run_chain(workload, tmp / "out", True, lambda name, out: getattr(expected, name)(out))
    assert chain.complete, [p for c in chain.commands for p in c.problems]
    return workload, expected, chain, tmp / "out"


def test_check_rejects_a_missing_flag(checked_chain):
    workload, expected, _, out = checked_chain
    path, doc = next(
        (path, doc) for path, doc in detect_reports(out / "detect")
        if doc["detector"] == "burstiness" and doc["origin_asn"] == workload.target_asn
    )
    original = path.read_text()
    try:
        doc["anomalous_timestamps"].pop()
        path.write_text(json.dumps(doc))
        assert expected.detect(out / "detect")
    finally:
        path.write_text(original)
    assert not expected.detect(out / "detect")


def test_check_rejects_an_mrt_count_off_by_one(checked_chain):
    _, expected, _, out = checked_chain
    path = out / "ingest" / "ingest_summary.json"
    original = path.read_text()
    try:
        summary = json.loads(original)
        summary["inputs"][0]["nlri_seen"] += 1
        path.write_text(json.dumps(summary))
        assert expected.ingest(out / "ingest")
    finally:
        path.write_text(original)
    assert not expected.ingest(out / "ingest")


def test_traced_layers_fit_inside_each_command(checked_chain):
    _, _, chain, _ = checked_chain
    for command in chain.commands:
        layers, _, residual = _self_times(command)
        assert layers, command.name
        assert residual > 0
        assert sum(layers.values()) + residual == pytest.approx(command.wall_s)


def test_every_workload_runs_clean_on_another_seed():
    result = _bench("--workload", "all", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert result.stdout.count("failed_ops_share 0.0000") == len(workloads.BUILDERS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = _bench("--workload", "mrt-archive", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout == ""
