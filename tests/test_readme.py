"""The README's examples, run as written in fresh interpreters."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import bgpburst

README = Path(__file__).resolve().parents[1] / "README.md"
ENV = {**os.environ, "PYTHONPATH": str(Path(bgpburst.__file__).resolve().parents[1])}


def first_block(section, language):
    """The first `language` code block in the README section `## section`."""
    text = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"^```{language}\n(.*?)^```$", text, re.M | re.S).group(1)


def test_library_example_prints_a_bursty_coefficient(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", first_block("Library use", "python")],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[0]) > 0.25  # a Pareto stream's coefficient, as its comment says


def test_quick_start_runs_as_written(tmp_path):
    # `bgpburst` on PATH stands for the package under test.
    shim = tmp_path / "bin" / "bgpburst"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m bgpburst.cli "$@"\n')
    shim.chmod(0o755)
    run = tmp_path / "run"
    run.mkdir()
    proc = subprocess.run(
        ["sh", "-e", "-c", first_block("CLI walkthrough", "sh")],
        cwd=run, env={**ENV, "PATH": f"{shim.parent}{os.pathsep}{os.environ['PATH']}"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (run / "sim" / "scenario.jsonl").read_bytes() == (run / "ingested" / "events.jsonl").read_bytes()
    assert list((run / "detected").glob("trace_*.csv"))
    assert "\nsynthetic-burst," in (run / "scored" / "results.csv").read_text()
    manifests = sorted(run.glob("*/manifest.json"))
    assert len(manifests) == 4
    for manifest in manifests:
        doc = json.loads(manifest.read_text())
        for entry in doc["inputs"] + doc["outputs"]:
            assert hashlib.sha256((run / entry["path"]).read_bytes()).hexdigest() == entry["sha256"], entry
    assert not list(run.glob("*/.*.tmp"))
