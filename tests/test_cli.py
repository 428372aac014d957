import bz2
import contextlib
import copy
import csv
import functools
import gzip
import hashlib
import argparse
import io
import json
import math
import operator
import os
import shutil
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import golden_corpus as gc
import mrt_golden as golden
from bgpburst import events, mrt
from bgpburst.cli import OPTION_KINDS, Manifest, _json_text, _report_text, _value_text, build_parser, main
from bgpburst.detector import CONFIG_KEYS, AnomalyReport, DetectorConfig
from bgpburst.events import (
    ANNOUNCEMENT,
    WITHDRAWAL,
    AnnouncementEvent,
    parse_event_lines,
    write_event_lines,
)
from canonical_lines import good_lines
from golden_corpus import START, data_digests


def iso(ts):
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat().replace("+00:00", "Z")


def write_sim_spec(path, asn=64500, n=2000, gap=600.0, seed=3, incident=None):
    doc = {
        "generator": {
            "process": "poisson",
            "mean_gap": gap,
            "n_events": n,
            "start_ts": START,
            "asn": asn,
            "collector": "synth-collector",
            "seed": seed,
        }
    }
    if incident is not None:
        doc["incident"] = incident
    path.write_text(json.dumps(doc))
    return path


def manifest_of(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


def output_digests(out_dir):
    return {
        entry["path"].rsplit("/", 1)[-1]: entry["sha256"]
        for entry in manifest_of(out_dir)["outputs"]
    }


def assert_input_error(code, capsys):
    """Exit 2 with a one-line `error:` message and no traceback; returns the message."""
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# How a time option's text that is neither unix seconds nor RFC 3339 is refused.
TIME_REFUSED = "must be an integer of at most 18 digits or an RFC 3339 time string, got"

NON_UTF8_EVENTS = b'{"ts":1,"collector":"c\xff","prefix":"10.0.0.0/8","origin_asn":1,"type":"A"}\n'


@pytest.fixture()
def sim_events(tmp_path):
    """Simulated stream with one injected burst, already in canonical form."""
    spec = write_sim_spec(
        tmp_path / "scenario.json",
        incident={
            "start": START + 86400,
            "end": START + 86400 + 3600,
            "burst_gap": 1,
            "prefixes_per_second": 5,
        },
    )
    out = tmp_path / "sim"
    assert main(["simulate", str(spec), "--out", str(out)]) == 0
    return out / "scenario.jsonl"


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        spec = write_sim_spec(tmp_path / "spec.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(spec), "--out", str(out1)]) == 0
        assert main(["simulate", str(spec), "--out", str(out2)]) == 0
        assert output_digests(out1) == output_digests(out2)

    def test_spec_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"generator": {"process": "poisson"}}')
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_zero_length_incident_rejected(self, tmp_path):
        spec = write_sim_spec(
            tmp_path / "spec.json", incident={"start": START + 10, "end": START + 10}
        )
        assert main(["simulate", str(spec), "--out", str(tmp_path / "o")]) == 2

    def simulate_bad_spec(self, tmp_path, data):
        bad = tmp_path / "spec.json"
        bad.write_bytes(data)
        return main(["simulate", str(bad), "--out", str(tmp_path / "o")])

    def test_array_spec_is_input_error(self, tmp_path, capsys):
        assert_input_error(self.simulate_bad_spec(tmp_path, b"[]"), capsys)

    def test_malformed_spec_json_is_input_error(self, tmp_path, capsys):
        assert_input_error(self.simulate_bad_spec(tmp_path, b'{"generator": '), capsys)

    def test_non_utf8_spec_is_input_error(self, tmp_path, capsys):
        assert_input_error(self.simulate_bad_spec(tmp_path, b'{"generator": "\xff"}'), capsys)

    def test_deeply_nested_spec_is_input_error(self, tmp_path, capsys):
        assert_input_error(self.simulate_bad_spec(tmp_path, b"[" * 100_000), capsys)

    def test_non_object_generator_is_input_error(self, tmp_path, capsys):
        data = json.dumps({"generator": [1, 2], "incident": None}).encode()
        assert_input_error(self.simulate_bad_spec(tmp_path, data), capsys)

    def test_specs_sharing_a_stem_are_input_error(self, tmp_path, capsys):
        # Both would write spec.jsonl; the second must not replace the first.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        specs = [write_sim_spec(tmp_path / d / "spec.json", seed=i) for i, d in enumerate("ab")]
        out = tmp_path / "o"
        assert_input_error(main(["simulate", *map(str, specs), "--out", str(out)]), capsys)
        assert not out.exists()

    WHOLE = "must be a whole number of at most 18 digits, got"

    @pytest.mark.parametrize("part, field, value, message", [
        ("generator", "mean_gap", "NaN", "mean_gap must be positive and finite"),
        ("generator", "mean_gap", "1e400", "mean_gap must be positive and finite"),
        ("generator", "start_ts", "-5", "start_ts and asn must be nonnegative"),
        ("generator", "asn", "-7", "start_ts and asn must be nonnegative"),
        ("incident", "burst_gap", "1e400", f"spec.json: incident: field 'burst_gap' {WHOLE} inf\n"),
        ("generator", "mean_gap", "1e308", "timestamps pass 18 digits"),
        ("generator", "mean_gap", '"600"', "spec.json: generator: field 'mean_gap' must be a real number, got '600'\n"),
        ("generator", "n_events", "5.9", f"field 'n_events' {WHOLE} 5.9\n"),
        ("generator", "start_ts", '"100"', f"field 'start_ts' {WHOLE} '100'\n"),
        ("generator", "asn", "true", f"field 'asn' {WHOLE} True\n"),
        ("generator", "seed", "1" + "0" * 18, f"field 'seed' {WHOLE} 1000000000000000000\n"),
        ("generator", "collector", '"c\\ud800"',
         "field 'collector' must be a string without lone surrogates, got 'c\\ud800'\n"),
        ("incident", "end", "9" * 19, f"field 'end' {WHOLE} 9999999999999999999\n"),
        ("incident", "prefixes_per_second", "2.5", f"field 'prefixes_per_second' {WHOLE} 2.5\n"),
    ])
    def test_values_that_fail_in_generation_are_input_errors(
        self, tmp_path, capsys, part, field, value, message
    ):
        spec = write_sim_spec(tmp_path / "spec.json", incident={"start": START, "end": START + 60})
        doc = json.loads(spec.read_text())
        doc[part][field] = "VALUE"
        spec.write_text(json.dumps(doc).replace('"VALUE"', value))
        out = tmp_path / "o"
        assert message in assert_input_error(main(["simulate", str(spec), "--out", str(out)]), capsys)
        assert not out.exists()

    def test_non_string_collector_is_input_error(self, tmp_path, capsys):
        spec = write_sim_spec(tmp_path / "spec.json")
        doc = json.loads(spec.read_text())
        doc["generator"]["collector"] = 7
        spec.write_text(json.dumps(doc))
        code = main(["simulate", str(spec), "--out", str(tmp_path / "o")])
        assert_input_error(code, capsys)

    @pytest.mark.parametrize("part, field, value", [
        (None, "incdent", {"start": START, "end": START + 60}),
        ("generator", "pareto_aplha", 3),
    ])
    def test_misspelled_field_is_input_error(self, tmp_path, capsys, part, field, value):
        spec = write_sim_spec(tmp_path / "spec.json")
        doc = json.loads(spec.read_text())
        (doc if part is None else doc[part])[field] = value
        spec.write_text(json.dumps(doc))
        out = tmp_path / "o"
        err = assert_input_error(main(["simulate", str(spec), "--out", str(out)]), capsys)
        where = str(spec) if part is None else f"{spec}: {part}"
        assert err == f"error: {where}: unknown field '{field}'\n"
        assert not out.exists()

    def test_null_incident_is_none(self, tmp_path):
        plain = write_sim_spec(tmp_path / "plain.json")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**json.loads(plain.read_text()), "incident": None}))
        for path in (plain, spec):
            assert main(["simulate", str(path), "--out", str(tmp_path / path.stem)]) == 0
        assert (tmp_path / "spec" / "spec.jsonl").read_bytes() == (tmp_path / "plain" / "plain.jsonl").read_bytes()

    @pytest.mark.parametrize("seeded", [False, True])
    def test_seed_of_over_18_digits_is_input_error(self, tmp_path, capsys, seeded):
        spec = write_sim_spec(tmp_path / "spec.json")
        if not seeded:
            doc = json.loads(spec.read_text())
            del doc["generator"]["seed"]
            spec.write_text(json.dumps(doc))
        code = main(["simulate", str(spec), "--seed", "1" * 19, "--out", str(tmp_path / "o")])
        assert assert_input_error(code, capsys) == (
            f"error: --seed must be a whole number of at most 18 digits, got '{'1' * 19}'\n"
        )


class TestIngest:
    def test_canonical_passthrough_and_filter(self, sim_events, tmp_path):
        out = tmp_path / "ingest"
        assert main(["ingest", str(sim_events), "--asn", "64500", "--out", str(out)]) == 0
        summary = json.loads((out / "ingest_summary.json").read_text())
        source_lines = sim_events.read_text().strip().splitlines()
        assert summary["events_written"] == len(source_lines)
        assert (out / "events.jsonl").read_text() == sim_events.read_text()

    def test_filter_excludes_other_origins(self, sim_events, tmp_path):
        out = tmp_path / "ingest"
        assert main(["ingest", str(sim_events), "--asn", "99999", "--out", str(out)]) == 0
        assert (out / "events.jsonl").read_text() == ""

    def test_messy_events_file_reads_as_the_clean_file(self, tmp_path):
        # The golden corpus with a blank and a whitespace-only line in each of
        # its first two ~64 KiB runs of lines, a key-reordered line and a
        # "\r\n" line in the second, a blank line that opens the second run,
        # and no "\n" after the last line.
        inputs = gc.write_inputs(tmp_path)
        clean = inputs["events"]
        lines = clean.read_text().split("\n")[:-1]
        at = 800
        reordered = lines[at] = json.dumps(dict(reversed(json.loads(lines[at]).items())))
        lines[at + 1] += "\r"
        lines[at + 2:at + 2] = ["", " \t\x0c"]
        lines[100:100] = ["", " \t\x0c"]
        text = "".join(line + "\n" for line in lines)
        second = text.find("\n", events._CHUNK_CHARS - 1) + 1
        assert second < text.index(reordered) < 2 * events._CHUNK_CHARS
        messy = tmp_path / "messy.jsonl"
        messy.write_bytes((text[:second] + "\n" + text[second:-1]).encode())
        for extra in ([], ["--asn", "64500"]):
            assert gc.ingest_digest(tmp_path / "m", messy, *extra) == gc.ingest_digest(tmp_path / "c", clean, *extra)

        def outputs(path):
            out = tmp_path / path.stem
            return gc.detect_digests(out / "detect", path), gc.analyze_digests(out / "analyze", path, inputs["nulls"])

        assert outputs(messy) == outputs(clean)

    def test_identical_inputs_identical_digests(self, sim_events, tmp_path):
        out1, out2 = tmp_path / "i1", tmp_path / "i2"
        for out in (out1, out2):
            assert main(["ingest", str(sim_events), "--out", str(out)]) == 0
        assert output_digests(out1) == output_digests(out2)

    def test_mrt_input_conservation(self, tmp_path):
        data, nlri_entries = golden.golden_file()
        mrt_path = tmp_path / "updates.mrt"
        mrt_path.write_bytes(data)
        out = tmp_path / "ingest"
        code = main(
            ["ingest", str(mrt_path), "--collector", "route-views.test", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "ingest_summary.json").read_text())
        (per_input,) = summary["inputs"]
        assert per_input["format"] == "mrt"
        assert per_input["events_emitted"] + per_input["events_dropped"] == nlri_entries
        assert summary["events_written"] == per_input["events_emitted"]

    @pytest.mark.parametrize("collector", [None, "route-views.test", ""])
    @pytest.mark.parametrize("asn", [None, 4761, 64513, 1])
    def test_mrt_events_and_filters(self, tmp_path, collector, asn):
        data = golden.golden_file()[0] + golden.prefix_forms_file()
        mrt_path = tmp_path / "updates.mrt"
        mrt_path.write_bytes(data)
        named = [] if collector is None else ["--collector", collector]
        filtered = [] if asn is None else ["--asn", str(asn)]
        out = tmp_path / "ingest"
        assert main(["ingest", str(mrt_path), *named, *filtered, "--out", str(out)]) == 0
        events = mrt.parse_mrt_updates(data, "unknown" if collector is None else collector).events
        expected = [ev.to_line() + "\n" for ev in events if asn is None or ev.origin_asn == asn]
        assert (out / "events.jsonl").read_text() == "".join(expected)
        summary = json.loads((out / "ingest_summary.json").read_text())
        assert summary["events_written"] == len(expected)

    def test_unreadable_input_fails(self, tmp_path):
        assert main(["ingest", str(tmp_path / "nope.mrt"), "--out", str(tmp_path / "o")]) == 2

    def test_non_utf8_canonical_input_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(NON_UTF8_EVENTS)
        assert_input_error(main(["ingest", str(bad), "--out", str(tmp_path / "o")]), capsys)

    def test_byte_order_mark_is_refused_as_canonical_text(self, tmp_path, capsys):
        bom = tmp_path / "bom.jsonl"
        bom.write_bytes(b"\xef\xbb\xbf" + NON_UTF8_EVENTS.replace(b"\xff", b""))
        errors = [
            assert_input_error(main([command, str(bom), "--out", str(tmp_path / command)]), capsys)
            for command in ("detect", "ingest")
        ]
        assert errors[0].startswith(f"error: {bom}: line 1: invalid JSON: Unexpected UTF-8 BOM")
        assert errors[1] == errors[0]

    def test_file_led_by_any_whitespace_is_canonical(self, tmp_path):
        line = AnnouncementEvent(START, "rrc00", "10.0.0.0/8", ANNOUNCEMENT, origin_asn=1).to_line()
        spaces = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
        source = tmp_path / "spaced.jsonl"
        source.write_bytes(f"{spaces}\n{line}\n".encode())
        assert main(["ingest", str(source), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "events.jsonl").read_text() == line + "\n"

    @pytest.mark.parametrize(
        "name, data",
        [
            ("bad.gz", b"\x1f\x8bgarbage"),
            ("bad.mrt", golden.golden_file()[0][:-3]),
            ("bad.jsonl", b'{"ts":"1","collector":"a","prefix":"10.0.0.0/8","type":"A"}\n'),
        ],
        ids=["gzip", "mrt", "canonical"],
    )
    def test_decode_error_names_the_input(self, sim_events, tmp_path, capsys, name, data):
        bad = tmp_path / name
        bad.write_bytes(data)
        code = main(["ingest", str(sim_events), str(bad), "--out", str(tmp_path / "o")])
        assert_input_error(code, capsys)
        code = main(["ingest", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ts", "1" + "0" * 5000, "line 2: an integer has more than 18 digits"),
            ("ts", "1" + "0" * 400, "line 2: ts must be a nonnegative integer of at most 18 digits"),
            ("ts", "1" + "0" * 18, "line 2: ts must be a nonnegative integer of at most 18 digits"),
            ("origin_asn", "1" + "0" * 18, "line 2: origin_asn must be a nonnegative integer of at most 18 digits"),
            ("collector", '"c\\ud800"', "line 2: collector must be a string without lone surrogates"),
        ],
        ids=["ts-5001-digits", "ts-401-digits", "ts-19-digits", "origin-19-digits", "lone-surrogate"],
    )
    def test_values_out_of_the_input_rules_are_input_errors(self, tmp_path, capsys, field, value, message):
        good = {"ts": 1, "collector": "c", "prefix": "10.0.0.0/8", "origin_asn": 1, "type": "A"}
        bad = json.dumps({**good, field: "VALUE"}, separators=(",", ":")).replace('"VALUE"', value)
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(good, separators=(",", ":")) + "\n" + bad + "\n")
        for argv in (["ingest"], ["detect"], ["analyze", "--window", "0", "10"]):
            code = main([*argv, str(events), "--out", str(tmp_path / argv[0])])
            assert assert_input_error(code, capsys) == f"error: {events}: {message}\n"

    def test_collector_that_is_not_utf8_is_input_error(self, sim_events, tmp_path, capsys):
        # How argv holds the byte string r\xff: Python decodes it with surrogateescape.
        out = tmp_path / "o"
        code = main(["ingest", str(sim_events), "--collector", "r\udcff", "--out", str(out)])
        assert "--collector must be a string without lone surrogates" in assert_input_error(code, capsys)
        assert not out.exists()

    def test_mistyped_canonical_fields_are_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ts":true,"collector":"a","prefix":5,"origin_asn":true,"type":"A"}\n')
        out = tmp_path / "o"
        assert_input_error(main(["ingest", str(bad), "--out", str(out)]), capsys)
        assert not (out / "events.jsonl").exists()

    @pytest.mark.parametrize(
        "bad",
        [golden.golden_file()[0][:-3], b'{"ts":1,"collector":"c","prefix":"10.0.0.0/8","type":"A"}\n'],
        ids=["mrt", "canonical"],
    )
    def test_corrupt_second_input_leaves_no_events(self, sim_events, tmp_path, capsys, bad):
        # The first input's events are written before the second fails.
        second = tmp_path / "second"
        second.write_bytes(bad)
        out = tmp_path / "o"
        assert_input_error(main(["ingest", str(sim_events), str(second), "--out", str(out)]), capsys)
        assert not out.exists()

    def test_failed_ingest_keeps_earlier_events(self, sim_events, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["ingest", str(sim_events), "--out", str(out)]) == 0
        before = (out / "events.jsonl").read_bytes()
        bad = tmp_path / "bad.mrt"
        bad.write_bytes(golden.golden_file()[0][:-3])
        assert main(["ingest", str(sim_events), str(bad), "--out", str(out)]) == 2
        assert (out / "events.jsonl").read_bytes() == before
        names = sorted(p.name for p in out.iterdir())
        assert names == ["events.jsonl", "ingest_summary.json", "manifest.json"]

    def test_mrt_input_decompressed_once(self, tmp_path, monkeypatch):
        decompress = mrt.decompress
        calls = []

        def counting(raw):
            data = decompress(raw)
            if data is not raw:  # only calls that inflate count
                calls.append(len(raw))
            return data

        monkeypatch.setattr(mrt, "decompress", counting)
        monkeypatch.setattr("bgpburst.cli.decompress", counting)
        path = tmp_path / "updates.mrt.gz"
        path.write_bytes(gzip.compress(golden.golden_file()[0]))
        assert main(["ingest", str(path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "inner, outer", [("gz", "gz"), ("bz2", "gz"), ("gz", "bz2"), ("bz2", "bz2")]
    )
    def test_doubly_compressed_input(self, sim_events, tmp_path, capsys, inner, outer):
        # The format is sniffed after one layer is undone.  A compressed inner
        # stream is taken for MRT, and the MRT parser undoes its one layer:
        # MRT inside two layers parses like plain MRT, canonical lines inside
        # two layers are read as MRT and fail on the first record.
        compress = {"gz": lambda data: gzip.compress(data, mtime=0), "bz2": bz2.compress}
        raw = golden.golden_file()[0]
        plain = tmp_path / "plain.mrt"
        plain.write_bytes(raw)
        assert main(["ingest", str(plain), "--out", str(tmp_path / "plain")]) == 0
        mrt_path = tmp_path / f"updates.{inner}.{outer}"
        mrt_path.write_bytes(compress[outer](compress[inner](raw)))
        assert main(["ingest", str(mrt_path), "--out", str(tmp_path / "mrt")]) == 0
        assert (tmp_path / "mrt" / "events.jsonl").read_bytes() == (
            tmp_path / "plain" / "events.jsonl"
        ).read_bytes()

        capsys.readouterr()
        lines_path = tmp_path / f"events.{inner}.{outer}"
        lines_path.write_bytes(compress[outer](compress[inner](sim_events.read_bytes())))
        out = tmp_path / "canonical"
        code = main(["ingest", str(lines_path), "--out", str(out)])
        assert_input_error(code, capsys)
        assert not (out / "events.jsonl").exists()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(good_lines, max_size=10),
        st.sampled_from([None, 0, 1]),
        st.sampled_from([None, "rrc00", "a b"]),
    )
    def test_canonical_output_is_each_line_reserialised(self, lines, asn, collector):
        expected = [
            ev for ev in parse_event_lines(lines)
            if (asn is None or ev.origin_asn == asn)
            and (collector is None or ev.collector == collector)
        ]
        filters = [] if asn is None else ["--asn", str(asn)]
        filters += [] if collector is None else ["--collector", collector]
        with tempfile.TemporaryDirectory() as tmp:
            source, out = Path(tmp) / "in.jsonl", Path(tmp) / "out"
            source.write_text("\n".join(lines), encoding="utf-8")
            assert main(["ingest", str(source), *filters, "--out", str(out)]) == 0
            written = (out / "events.jsonl").read_text(encoding="utf-8")
            summary = json.loads((out / "ingest_summary.json").read_text())
        assert written == "".join(ev.to_line() + "\n" for ev in expected)
        assert summary["events_written"] == len(expected)
        assert summary["announcements"] == sum(ev.kind == ANNOUNCEMENT for ev in expected)
        assert summary["withdrawals_excluded_from_statistics"] == sum(
            ev.kind == WITHDRAWAL for ev in expected
        )


class TestDetect:
    def test_produces_reports_and_traces(self, sim_events, tmp_path):
        out = tmp_path / "detect"
        assert main(["detect", str(sim_events), "--trace", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "report_burstiness_AS64500_synth-collector.json" in names
        assert "report_volume_AS64500_synth-collector.json" in names
        assert "trace_burstiness_AS64500_synth-collector.csv" in names
        report = json.loads(
            (out / "report_burstiness_AS64500_synth-collector.json").read_text()
        )
        burst = range(START + 86400, START + 86400 + 3600)
        assert any(ts in burst for ts in report["anomalous_timestamps"])

    def test_default_writes_only_reports(self, sim_events, tmp_path):
        out = tmp_path / "detect"
        assert main(["detect", str(sim_events), "--out", str(out)]) == 0
        reports = {
            "report_burstiness_AS64500_synth-collector.json",
            "report_volume_AS64500_synth-collector.json",
        }
        assert {p.name for p in out.iterdir()} == reports | {"manifest.json"}
        assert set(output_digests(out)) == reports

    def test_trace_flag_stays_out_of_config(self, sim_events, tmp_path):
        out = tmp_path / "detect"
        assert main(["detect", str(sim_events), "--trace", "--out", str(out)]) == 0
        assert sorted(manifest_of(out)["config"]) == sorted(CONFIG_KEYS)
        report = json.loads(
            (out / "report_volume_AS64500_synth-collector.json").read_text()
        )
        assert sorted(report["config"]) == sorted(CONFIG_KEYS)

    def test_volume_only(self, sim_events, tmp_path):
        out = tmp_path / "detect"
        assert main(["detect", str(sim_events), "--detector", "volume", "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert not any(n.startswith("report_burstiness") for n in names)
        assert "report_volume_AS64500_synth-collector.json" in names

    def test_delta_override_lands_in_manifest(self, sim_events, tmp_path):
        out = tmp_path / "detect"
        assert main(["detect", str(sim_events), "--delta", "3", "--out", str(out)]) == 0
        assert manifest_of(out)["config"]["delta"] == 3.0
        report = json.loads(
            (out / "report_burstiness_AS64500_synth-collector.json").read_text()
        )
        assert report["config"]["delta"] == 3.0

    def test_config_file_defaults_and_flag_precedence(self, sim_events, tmp_path):
        config = tmp_path / "detector.conf"
        config.write_text("r = 1/600\ndelta = 4\n")
        out = tmp_path / "detect"
        code = main(
            ["detect", str(sim_events), "--config", str(config), "--delta", "2.5",
             "--out", str(out)]
        )
        assert code == 0
        snapshot = manifest_of(out)["config"]
        assert snapshot["r"] == pytest.approx(1 / 600)
        assert snapshot["delta"] == 2.5  # flag beats file

    def test_no_matching_series_warns_but_succeeds(self, sim_events, tmp_path):
        out = tmp_path / "detect"
        assert main(["detect", str(sim_events), "--asn", "1", "--out", str(out)]) == 0
        assert manifest_of(out)["outputs"] == []

    def test_non_utf8_events_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "events.jsonl"
        bad.write_bytes(NON_UTF8_EVENTS)
        assert_input_error(main(["detect", str(bad), "--out", str(tmp_path / "o")]), capsys)

    def test_other_line_forms_give_the_same_reports(self, sim_events, tmp_path):
        # Every other line with spaces and reversed keys: no longer writer form.
        lines = sim_events.read_text().splitlines()
        rewritten = tmp_path / "rewritten.jsonl"
        rewritten.write_text("".join(
            (json.dumps(dict(reversed(json.loads(line).items()))) if i % 2 else line) + "\n"
            for i, line in enumerate(lines)
        ))
        outs = [tmp_path / "plain", tmp_path / "rewritten"]
        for events, out in zip((sim_events, rewritten), outs):
            assert main(["detect", str(events), "--out", str(out)]) == 0
        assert data_digests(outs[0]) == data_digests(outs[1])

    def test_collectors_sharing_a_report_name_are_input_error(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            AnnouncementEvent(ts, collector, "10.0.0.0/8", ANNOUNCEMENT, origin_asn=1).to_line()
            + "\n"
            for collector in ("a b", "a_b") for ts in range(10)
        ))
        out = tmp_path / "o"
        assert main(["detect", str(events), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "'a b'" in err and "'a_b'" in err and "--collector" in err
        assert not out.exists()
        assert main(["detect", str(events), "--collector", "a b", "--out", str(out)]) == 0
        assert len(manifest_of(out)["outputs"]) == 2

    @pytest.mark.parametrize("field, extra", [("collector", []), ("prefix", []), ("collector", ["--trace"])],
                             ids=["collector", "prefix", "collector-trace"])
    def test_huge_text_field_is_one_short_error(self, tmp_path, capsys, field, extra):
        # No file system takes a report named after a 100,000-character
        # collector, and no network is written in 100,000 characters.  The
        # reports of collector "c" are not published either.  A report is
        # written whole; with --trace, its trace_*.csv is streamed first.
        event = {"ts": 1, "collector": "c", "prefix": "10.0.0.0/8", "origin_asn": 1, "type": "A"}
        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps(event) + "\n" + json.dumps({**event, field: "x" * 100_000}) + "\n")
        out = tmp_path / "o"
        out.mkdir()
        (out / "kept").write_text("kept\n")
        err = assert_input_error(main(["detect", str(events), *extra, "--out", str(out)]), capsys)
        assert len(err.encode()) < 300, err[:300]
        assert [p.name for p in out.iterdir()] == ["kept"]

    def test_null_collector_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "events.jsonl"
        bad.write_text(
            '{"ts":1,"collector":null,"prefix":"10.0.0.0/8","origin_asn":1,"type":"A"}\n'
            '{"ts":2,"collector":"a","prefix":"10.0.0.0/8","origin_asn":1,"type":"A"}\n'
        )
        code = main(["detect", str(bad), "--out", str(tmp_path / "o")])
        assert_input_error(code, capsys)

    @pytest.mark.parametrize(
        "name, text",
        [
            ("c.json", '{"omega": null}'),
            ("c.json", '{"r": [1]}'),
            ("c.json", '{"min_events": "x"}'),
            ("c.json", '{"omega": true}'),
            ("c.json", '{"min_events": 1}'),
            ("c.conf", "omega = 200.9\n"),
            ("c.conf", "r = 1/0\n"),
        ],
    )
    def test_bad_config_file_is_input_error(self, sim_events, tmp_path, capsys, name, text):
        config = tmp_path / name
        config.write_text(text)
        out = tmp_path / "o"
        code = main(["detect", str(sim_events), "--config", str(config), "--out", str(out)])
        assert_input_error(code, capsys)
        assert not out.exists()

    def test_integral_float_config_accepted(self, sim_events, tmp_path):
        config = tmp_path / "detector.conf"
        config.write_text("omega = 200.0\nmin_events = 7\n")
        out = tmp_path / "detect"
        assert main(["detect", str(sim_events), "--config", str(config), "--out", str(out)]) == 0
        snapshot = manifest_of(out)["config"]
        assert (snapshot["omega"], snapshot["min_events"]) == (200, 7)
        assert sorted(snapshot) == ["delta", "min_events", "omega", "r", "variance_floor", "warmup"]

    def test_nan_decay_rejected(self, sim_events, tmp_path, capsys):
        code = main(["detect", str(sim_events), "--r", "nan", "--out", str(tmp_path / "o")])
        assert_input_error(code, capsys)

    @pytest.mark.parametrize("name, text, message", [
        ("c.json", '{"bogus": 1}', "unknown field 'bogus'"),
        ("c.json", "[1]", "must be an object, got [1]"),
        ("c.json", ' [{"r": 1}]', "must be an object, got [{'r': 1}]"),
        ("c.json", '{"r": ', "not a JSON document: Expecting value: line 1 column 7 (char 6)"),
        ("c.json", '{"omega": 200.9}', "field 'omega' must be a whole number of at most 18 digits, got 200.9"),
        ("c.conf", "r = 1/0\n", "field 'r' must be a real number, got '1/0'"),
        ("c.conf", "omega\n", "line 1: expected key=value"),
        ("c.conf", "r = 1/300\x0c\nomega 200\n", "line 2: expected key=value"),  # "\n" alone ends a line
        ("c.conf", "min_events = 1\n", "min_events must be >= 2"),
    ])
    def test_config_file_errors_name_the_file(self, sim_events, tmp_path, capsys, name, text, message):
        config = tmp_path / name
        config.write_text(text)
        code = main(["detect", str(sim_events), "--config", str(config), "--out", str(tmp_path / "o")])
        assert assert_input_error(code, capsys) == f"error: config file {config}: {message}\n"


class TestReportFiles:
    """Each report is written in one call as json.dumps with indent renders it, and hashed as written."""

    @pytest.mark.parametrize("config_file", [None, "r=1/600\nomega=50.0\ndelta=3\n"])
    def test_reports_are_indented_json(self, sim_events, tmp_path, config_file):
        odd = [
            AnnouncementEvent(START + i, collector, f"10.{i}.0.0/16", ANNOUNCEMENT, 4294967295)
            for i, collector in enumerate(["", "é☃", 'q"u\\o\tte\x7f'])
        ]
        source = tmp_path / "events.jsonl"
        with source.open("w", encoding="utf-8") as fh:
            write_event_lines(odd, fh)
            fh.write(sim_events.read_text())
        extra = []
        if config_file is not None:
            (tmp_path / "detector.conf").write_text(config_file)
            extra = ["--config", str(tmp_path / "detector.conf")]
        out = tmp_path / "out"
        assert main(["detect", str(source), *extra, "--out", str(out)]) == 0
        reports = {p.name: p.read_bytes() for p in out.glob("report_*.json")}
        docs = [json.loads(data) for data in reports.values()]
        assert {doc["collector"] for doc in docs} == {"", "é☃", 'q"u\\o\tte\x7f', "synth-collector"}
        assert any(doc["anomalous_timestamps"] for doc in docs)
        assert any(not doc["anomalous_timestamps"] for doc in docs)
        for data, doc in zip(reports.values(), docs):
            assert data == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
        digests = output_digests(out)
        assert {name: hashlib.sha256(data).hexdigest() for name, data in reports.items()} == {
            name: digests[name] for name in reports
        }

    @settings(max_examples=200, deadline=None)
    @given(
        detector=st.sampled_from(["burstiness", "volume"]),
        asn=st.integers(0, 2**32 - 1),
        collector=st.text(st.sampled_from('"\\\x00\n\x1f\x7f\u2028é☃\U0001f600 a') | st.characters(), max_size=8),
        flags=st.lists(st.integers(0, 10**18 - 1), max_size=6, unique=True).map(sorted),
        span=st.lists(st.integers(0, 10**18 - 1), min_size=2, max_size=2).map(sorted).map(tuple),
        config=st.fixed_dictionaries({}, optional={
            "r": st.sampled_from([1 / 300, 1 / 7, 0.5, 1e-9]),
            "omega": st.sampled_from([1, 200, 10**17]),
            "delta": st.sampled_from([2.0, 0.25, 3]),
            "warmup": st.integers(0, 10**6),
            "variance_floor": st.sampled_from([0, 0.0, 1e-300, 2.5]),
            "min_events": st.integers(2, 10),
        }),
    )
    @example(detector="volume", asn=0, collector="", flags=[], span=(0, 0), config={})
    @example(detector="burstiness", asn=1, collector='"\\', flags=[7], span=(7, 7),
             config={"r": 1 / 300, "variance_floor": 0, "omega": 10**17})
    def test_report_text_is_json_text_of_its_document(self, detector, asn, collector, flags, span, config):
        snapshot = DetectorConfig.from_mapping(config).as_dict()
        report = AnomalyReport(origin_asn=asn, collector=collector, anomalous_timestamps=tuple(flags))
        doc = {
            "detector": detector, "origin_asn": asn, "collector": collector, "span": list(span),
            "anomalous_timestamps": flags, "config": snapshot,
        }
        assert _report_text(detector, report, span, _value_text(snapshot)) == _json_text(doc)


class TestEvaluate:
    def run_pipeline(self, sim_events, tmp_path, incidents, *extra, edit=None):
        """detect, then evaluate; `edit` updates the burstiness report first."""
        detect_out = tmp_path / "detect"
        assert main(["detect", str(sim_events), "--out", str(detect_out)]) == 0
        if edit is not None:
            path = detect_out / "report_burstiness_AS64500_synth-collector.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        incidents_path = tmp_path / "incidents.json"
        incidents_path.write_text(json.dumps(incidents))
        eval_out = tmp_path / "eval"
        reports = sorted(str(p) for p in detect_out.glob("report_*.json"))
        code = main(
            ["evaluate", *reports, "--incidents", str(incidents_path), *extra,
             "--out", str(eval_out)]
        )
        return code, eval_out

    def test_end_to_end_rows(self, sim_events, tmp_path):
        incidents = [
            {
                "name": "synthetic-burst",
                "asn": 64500,
                "start_utc": iso(START + 86400),
                "end_utc": iso(START + 86400 + 3600),
                "kind": "large-scale",
            }
        ]
        code, eval_out = self.run_pipeline(sim_events, tmp_path, incidents)
        assert code == 0
        lines = (eval_out / "results.csv").read_text().splitlines()
        assert lines[0].startswith("incident,collector,detector")
        assert len(lines) == 3  # burstiness + volume rows
        burst_row = next(l for l in lines if ",burstiness," in l)
        assert burst_row.split(",")[4] == "1.000000"  # recall

    def test_free_text_fields_are_quoted(self, sim_events, tmp_path):
        incidents = [{
            "name": 'burst, "x"', "asn": 64500, "start_utc": iso(START + 86400),
            "end_utc": iso(START + 86400 + 3600), "kind": "large-scale",
        }]
        code, eval_out = self.run_pipeline(
            sim_events, tmp_path, incidents, edit={"collector": "rrc,00"}
        )
        assert code == 0
        with (eval_out / "results.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [10, 10, 10]
        assert [row[:3] for row in rows[1:]] == [
            ['burst, "x"', "rrc,00", "burstiness"], ['burst, "x"', "synth-collector", "volume"],
        ]
        lines = (eval_out / "results.csv").read_text().splitlines()
        assert lines[1].startswith('"burst, ""x""","rrc,00",burstiness,')

    def test_incident_outside_bounds_is_config_error(self, sim_events, tmp_path):
        incidents = [
            {
                "name": "way-before-data",
                "asn": 64500,
                "start_utc": iso(START - 10_000_000),
                "end_utc": iso(START - 9_000_000),
                "kind": "large-scale",
            }
        ]
        code, _ = self.run_pipeline(sim_events, tmp_path, incidents)
        assert code == 2

    def test_no_matching_perpetrator_fails(self, sim_events, tmp_path):
        incidents = [
            {
                "name": "other-as",
                "asn": 4761,
                "start_utc": iso(START + 86400),
                "end_utc": iso(START + 90000),
                "kind": "large-scale",
            }
        ]
        code, _ = self.run_pipeline(sim_events, tmp_path, incidents)
        assert code == 2

    @pytest.mark.parametrize(
        "edit",
        [{"start_utc": START + 86400}, {"asn": 64500.5}, {"asn": 10**18}, {"name": "x\ud800"}, {"name": 5}],
    )
    def test_mistyped_incident_field_is_input_error(self, sim_events, tmp_path, capsys, edit):
        incidents = [{
            "name": "synthetic-burst", "asn": 64500, "start_utc": iso(START + 86400),
            "end_utc": iso(START + 90000), "kind": "large-scale", **edit,
        }]
        code, _ = self.run_pipeline(sim_events, tmp_path, incidents)
        assert_input_error(code, capsys)

    def test_malformed_incidents_json_is_input_error(self, sim_events, tmp_path, capsys):
        detect_out = tmp_path / "detect"
        assert main(["detect", str(sim_events), "--out", str(detect_out)]) == 0
        capsys.readouterr()
        bad = tmp_path / "incidents.json"
        reports = sorted(str(p) for p in detect_out.glob("report_*.json"))
        for text in ('[{"name": "x",', "[" * 100_000):
            bad.write_text(text)
            code = main(["evaluate", *reports, "--incidents", str(bad), "--out", str(tmp_path / "e")])
            assert_input_error(code, capsys)

    def test_malformed_report_is_input_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text("{not json")
        incidents = tmp_path / "incidents.json"
        incidents.write_text("[]")
        code = main(
            ["evaluate", str(report), "--incidents", str(incidents), "--out", str(tmp_path / "e")]
        )
        assert_input_error(code, capsys)

    INCIDENT = {
        "name": "synthetic-burst",
        "asn": 64500,
        "start_utc": iso(START + 86400),
        "end_utc": iso(START + 86400 + 3600),
        "kind": "large-scale",
    }

    @pytest.mark.parametrize(
        "key, value",
        [
            ("detector", 5),
            ("collector", None),
            ("origin_asn", True),
            ("origin_asn", 64500.0),
            ("origin_asn", "64500"),
            ("span", [START]),
            ("span", [START, "x"]),
            ("span", [False, START]),
            ("span", "x"),
            ("anomalous_timestamps", ["x", 5]),
            ("anomalous_timestamps", [START + 86400.5]),
            ("anomalous_timestamps", [True]),
            ("anomalous_timestamps", {"ts": 5}),
            ("collector", "c\ud800"),
            ("detector", "\udcff"),
            ("span", [START, 10**18]),
            ("anomalous_timestamps", [-(10**18)]),
        ],
    )
    def test_mistyped_report_field_is_input_error(self, sim_events, tmp_path, capsys, key, value):
        code, _ = self.run_pipeline(sim_events, tmp_path, [self.INCIDENT], edit={key: value})
        assert_input_error(code, capsys)

    def test_unknown_report_field_is_input_error(self, sim_events, tmp_path, capsys):
        code, out = self.run_pipeline(sim_events, tmp_path, [self.INCIDENT], edit={"flags": []})
        report = tmp_path / "detect" / "report_burstiness_AS64500_synth-collector.json"
        assert assert_input_error(code, capsys) == f"error: {report}: unknown field 'flags'\n"
        assert not out.exists()

    def test_unknown_incident_field_is_input_error(self, sim_events, tmp_path, capsys):
        (tmp_path / "note").mkdir()
        code, _ = self.run_pipeline(sim_events, tmp_path / "note", [{**self.INCIDENT, "note": "kept"}])
        assert code == 0
        code, out = self.run_pipeline(sim_events, tmp_path, [{**self.INCIDENT, "nite": "x"}])
        incidents = tmp_path / "incidents.json"
        assert assert_input_error(code, capsys) == (
            f"error: incident config {incidents}: entry 1: unknown field 'nite'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("order", [1, -1])
    def test_second_report_of_a_series_is_input_error(self, sim_events, tmp_path, capsys, order):
        name = "report_burstiness_AS64500_synth-collector.json"
        runs = [tmp_path / "default", tmp_path / "delta50"]
        for out, extra in zip(runs, ([], ["--delta", "50"])):
            assert main(["detect", str(sim_events), *extra, "--out", str(out)]) == 0
        incidents = tmp_path / "incidents.json"
        incidents.write_text(json.dumps([self.INCIDENT]))
        first, second = [str(out / name) for out in runs][::order]
        out = tmp_path / "eval"
        code = main(["evaluate", first, second, "--incidents", str(incidents), "--out", str(out)])
        assert assert_input_error(code, capsys) == (
            f"error: {first} and {second} are both 'burstiness' reports for AS64500 at 'synth-collector'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("edit", [{"kind": "k" * 100_000}, {"asn": "5" * 100_000}, {"n" * 100_000: 1}])
    def test_long_incident_value_gives_a_short_error(self, sim_events, tmp_path, capsys, edit):
        code, _ = self.run_pipeline(sim_events, tmp_path, [{**self.INCIDENT, **edit}])
        assert len(assert_input_error(code, capsys)) < 300

    def test_long_time_flag_gives_a_short_error(self, sim_events, tmp_path, capsys):
        code, out = self.run_pipeline(
            sim_events, tmp_path, [self.INCIDENT], "--t0", "x" * 100_000, "--t1", str(START)
        )
        assert len(assert_input_error(code, capsys)) < 300
        assert not out.exists()

    def test_flags_outside_t0_t1_are_input_error(self, sim_events, tmp_path, capsys):
        code, _ = self.run_pipeline(
            sim_events, tmp_path, [self.INCIDENT],
            "--t0", str(START + 80_000), "--t1", str(START + 100_000),
        )
        assert_input_error(code, capsys)

    def test_reversed_t0_t1_is_input_error(self, sim_events, tmp_path, capsys):
        code, _ = self.run_pipeline(
            sim_events, tmp_path, [self.INCIDENT],
            "--t0", str(START + 100_000), "--t1", str(START + 80_000),
        )
        assert code == 2
        assert capsys.readouterr().err.endswith(": t0 must precede t1\n")

    def test_reversed_t0_t1_is_refused_before_reports_are_matched(self, sim_events, tmp_path, capsys):
        # No report matches the incident's AS, and the bounds are still the error.
        code, out = self.run_pipeline(
            sim_events, tmp_path, [{**self.INCIDENT, "asn": 64999}],
            "--t0", str(START + 100_000), "--t1", str(START + 80_000),
        )
        assert assert_input_error(code, capsys).endswith(": t0 must precede t1\n")
        assert not out.exists()

    def test_span_above_2_53_is_binned_exactly(self, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            AnnouncementEvent(ts, "c", "10.0.0.0/8", ANNOUNCEMENT, origin_asn=1).to_line() + "\n"
            for ts in (1, 999999999999999999)
        ))
        assert main(["detect", str(events), "--out", str(tmp_path / "detect")]) == 0
        incidents = tmp_path / "incidents.json"
        incidents.write_text(json.dumps([{**self.INCIDENT, "asn": 1}]))
        reports = sorted(map(str, (tmp_path / "detect").glob("report_*.json")))
        out = tmp_path / "eval"
        assert main(["evaluate", *reports, "--incidents", str(incidents), "--out", str(out)]) == 0
        assert len((out / "results.csv").read_text().splitlines()) == 3

    BAD_BIN_LENGTH = "error: --m must be a bin length of at least 1 second, got 0\n"

    @pytest.mark.parametrize("flag", ["--t0", "--t1"])
    @pytest.mark.parametrize("digits", [19, 401, 5001])
    def test_time_of_over_18_digits_is_input_error(self, sim_events, tmp_path, capsys, flag, digits):
        bounds = {"--t0": "0", "--t1": str(START + 30 * 86400), flag: "1" * digits}
        code, out = self.run_pipeline(
            sim_events, tmp_path, [self.INCIDENT], *(x for kv in bounds.items() for x in kv)
        )
        assert assert_input_error(code, capsys).startswith(f"error: {flag} {TIME_REFUSED} '111")
        assert not out.exists()

    def test_nonpositive_bin_length_is_input_error(self, sim_events, tmp_path, capsys):
        code, out = self.run_pipeline(sim_events, tmp_path, [self.INCIDENT], "--m", "0")
        assert code == 2
        assert capsys.readouterr().err == self.BAD_BIN_LENGTH
        assert not out.exists()

    def test_bin_length_is_checked_before_reports_are_matched(self, sim_events, tmp_path, capsys):
        incidents = [{**self.INCIDENT, "asn": 4761}]  # no report is for AS4761
        code, _ = self.run_pipeline(sim_events, tmp_path, incidents, "--m", "0")
        assert code == 2
        assert capsys.readouterr().err == self.BAD_BIN_LENGTH

    @pytest.mark.parametrize("flag", ["--t0", "--t1"])
    def test_one_bound_alone_is_input_error(self, sim_events, tmp_path, capsys, flag):
        code, out = self.run_pipeline(sim_events, tmp_path, [self.INCIDENT], flag, "999999")
        assert_input_error(code, capsys)
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("digits", ["\u0663", "\u00b2", "\uff11"])
    @pytest.mark.parametrize("flag", ["--t0", "--t1"])
    def test_non_ascii_digits_are_not_unix_seconds(
        self, sim_events, tmp_path, capsys, flag, digits
    ):
        bounds = {"--t0": str(START), "--t1": str(START + 30 * 86400)}
        code, _ = self.run_pipeline(
            sim_events, tmp_path / "ascii", [self.INCIDENT],
            *(x for kv in bounds.items() for x in kv),
        )
        assert code == 0
        bounds[flag] = digits
        code, _ = self.run_pipeline(
            sim_events, tmp_path, [self.INCIDENT], *(x for kv in bounds.items() for x in kv)
        )
        assert_input_error(code, capsys)


class TestAnalyze:
    @pytest.fixture()
    def corpus_events(self, tmp_path):
        specs = [
            write_sim_spec(tmp_path / f"s{asn}.json", asn=asn, n=3000, seed=asn)
            for asn in (64500, 64501, 64502)
        ]
        sim_out = tmp_path / "sims"
        assert main(["simulate", *[str(s) for s in specs], "--out", str(sim_out)]) == 0
        ingest_out = tmp_path / "merged"
        jsonls = sorted(str(p) for p in sim_out.glob("*.jsonl"))
        assert main(["ingest", *jsonls, "--out", str(ingest_out)]) == 0
        return ingest_out / "events.jsonl"

    def test_joint_table_and_significance(self, corpus_events, tmp_path):
        nulls = [
            {"start": START + 200_000 + k * 40_000, "end": START + 200_000 + k * 40_000 + 30_000}
            for k in range(25)
        ]
        null_path = tmp_path / "nulls.json"
        null_path.write_text(json.dumps(nulls))
        out = tmp_path / "analyze"
        code = main(
            [
                "analyze", str(corpus_events),
                "--window", str(START), str(START + 86400),
                "--target-asn", "64500",
                "--null-windows", str(null_path),
                "--out", str(out),
            ]
        )
        assert code == 0
        table = (out / "joint_synth-collector.csv").read_text().splitlines()
        assert table[0] == "asn,b_corrected,count,quadrant"
        assert len(table) == 4
        sidecar = json.loads((out / "joint_synth-collector.json").read_text())
        assert sidecar["window"] == [START, START + 86400]
        sig = json.loads((out / "significance_AS64500.json").read_text())
        assert len(sig["null_samples"]) == 25
        assert 0.0 < sig["empirical_p"] <= 1.0

    @pytest.mark.parametrize("case", ["events", "null-events", "null-collector"])
    def test_target_asn_without_announcements_is_refused_before_writing(
        self, corpus_events, tmp_path, capsys, case
    ):
        null_path = tmp_path / "nulls.json"
        null_path.write_text(json.dumps([[START + k * 3600, START + (k + 1) * 3600] for k in range(25)]))
        asn, path, extra = 99 if case == "events" else 64500, corpus_events, []
        if case != "events":  # null events of AS64501 alone, or of AS64500 at another collector
            held, collector = (64501, "synth-collector") if case == "null-events" else (64500, "other")
            path = tmp_path / "null.jsonl"
            path.write_text("".join(
                AnnouncementEvent(START + ts, collector, "10.0.0.0/8", ANNOUNCEMENT, origin_asn=held).to_line()
                + "\n" for ts in range(100)
            ))
            extra = ["--null-events", str(path)]
        out = tmp_path / "o"
        code = main([
            "analyze", str(corpus_events), "--window", str(START), str(START + 86400), "--target-asn", str(asn),
            "--null-windows", str(null_path), *extra, "--out", str(out),
        ])
        assert assert_input_error(code, capsys) == f"error: {path}: no announcements by AS{asn} at 'synth-collector'\n"
        assert not out.exists()

    def test_missing_null_windows_fails(self, corpus_events, tmp_path):
        out = tmp_path / "analyze"
        code = main(
            [
                "analyze", str(corpus_events),
                "--window", str(START), str(START + 86400),
                "--target-asn", "64500",
                "--out", str(out),
            ]
        )
        assert code == 2

    def test_insufficient_null_windows_fails(self, corpus_events, tmp_path):
        null_path = tmp_path / "nulls.json"
        null_path.write_text(json.dumps([{"start": START, "end": START + 30000}]))
        out = tmp_path / "analyze"
        code = main(
            [
                "analyze", str(corpus_events),
                "--window", str(START), str(START + 86400),
                "--target-asn", "64500",
                "--null-windows", str(null_path),
                "--out", str(out),
            ]
        )
        assert code == 2

    def test_null_window_overlapping_incident_rejected(self, corpus_events, tmp_path):
        null_path = tmp_path / "nulls.json"
        null_path.write_text(json.dumps([{"start": START, "end": START + 30000}]))
        incidents = tmp_path / "incidents.json"
        incidents.write_text(
            json.dumps(
                [
                    {
                        "name": "overlapping",
                        "asn": 64500,
                        "start_utc": iso(START + 1000),
                        "end_utc": iso(START + 2000),
                        "kind": "large-scale",
                    }
                ]
            )
        )
        out = tmp_path / "analyze"
        code = main(
            [
                "analyze", str(corpus_events),
                "--window", str(START), str(START + 86400),
                "--target-asn", "64500",
                "--null-windows", str(null_path),
                "--incidents", str(incidents),
                "--out", str(out),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "window", [("\u00b2", "200"), ("0", "\u0663\u0663"), ("\uff11", "2")]
    )
    def test_non_ascii_digit_window_is_input_error(self, corpus_events, tmp_path, capsys, window):
        out = tmp_path / "analyze"
        code = main(["analyze", str(corpus_events), "--window", *window, "--out", str(out)])
        assert_input_error(code, capsys)

    @pytest.mark.parametrize("window", [("0", "1" * 5001), ("-" + "1" * 401, "0")])
    def test_window_of_over_18_digits_is_input_error(self, corpus_events, tmp_path, capsys, window):
        out = tmp_path / "analyze"
        code = main(["analyze", str(corpus_events), "--window", *window, "--out", str(out)])
        bad = next(text for text in window if len(text) > 18)
        err = assert_input_error(code, capsys)
        assert err.startswith(f"error: --window {TIME_REFUSED} '{bad[:4]}"), err

    def test_rfc3339_window_accepted(self, corpus_events, tmp_path):
        out = tmp_path / "analyze"
        code = main(
            [
                "analyze", str(corpus_events),
                "--window", iso(START), iso(START + 86400),
                "--out", str(out),
            ]
        )
        assert code == 0

    def significance_run(self, corpus_events, tmp_path, nulls, *extra):
        null_path = tmp_path / "nulls.json"
        null_path.write_text(json.dumps(nulls))
        return main(
            [
                "analyze", str(corpus_events),
                "--window", str(START), str(START + 86400),
                "--target-asn", "64500",
                "--null-windows", str(null_path),
                *extra,
                "--out", str(tmp_path / "analyze"),
            ]
        )

    def test_same_second_burst_is_skipped_not_a_crash(self, tmp_path):
        events = [AnnouncementEvent(1000, "c", "10.0.0.0/8", ANNOUNCEMENT, 1) for _ in range(6)]
        for asn, gap in ((2, 300), (3, 500)):
            events += [
                AnnouncementEvent(gap * i, "c", "10.1.0.0/16", ANNOUNCEMENT, asn) for i in range(50)
            ]
        path = tmp_path / "ev.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            write_event_lines(sorted(events, key=lambda ev: ev.timestamp), fh)
        out = tmp_path / "analyze"
        assert main(["analyze", str(path), "--window", "0", "100000", "--out", str(out)]) == 0
        rows = (out / "joint_c.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["2", "3"]
        sidecar = json.loads((out / "joint_c.json").read_text())
        assert sidecar["skipped"] == [{"asn": 1, "count": 6}]

    @pytest.mark.parametrize("length", [100_000, None], ids=["table", "sidecar"])
    def test_unwritable_joint_table_is_one_short_error(self, tmp_path, capsys, length):
        # joint_<collector>.csv, streamed, cannot be named after a
        # 100,000-character collector.  After a collector NAME_MAX - 10 long it
        # can, and joint_<collector>.json, written whole, is one byte too long.
        collector = "x" * (length or os.pathconf(tmp_path, "PC_NAME_MAX") - 10)
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"ts": ts, "collector": collector, "prefix": "10.0.0.0/8",
                        "origin_asn": asn, "type": "A"}) + "\n"
            for ts in (0, 1, 3, 7, 15, 31, 63, 127) for asn in (1, 2)
        ))
        out = tmp_path / "o"
        out.mkdir()
        (out / "kept").write_text("kept\n")
        code = main(["analyze", str(events), "--window", "0", "1000", "--out", str(out)])
        err = assert_input_error(code, capsys)
        assert err.startswith("error: cannot write ") and len(err.encode()) < 300, err[:300]
        assert (".csv'" if length else ".json'") in err, err
        assert [p.name for p in out.iterdir()] == ["kept"]

    def analyze_config(self, corpus_events, tmp_path, *extra):
        out = tmp_path / "analyze"
        code = main(
            ["analyze", str(corpus_events), "--window", str(START), str(START + 86400),
             *extra, "--out", str(out)]
        )
        return code, out

    @pytest.mark.parametrize("flag, value", [
        ("--k", "-3"), ("--k", "0"), ("--k", "5"), ("--k", "19"),
        ("--alpha-sig", "nan"), ("--alpha-sig", "inf"), ("--alpha-sig", "1.5"),
        ("--alpha-sig", "1"), ("--alpha-sig", "0"), ("--alpha-sig", "-0.05"),
    ])
    def test_bad_monte_carlo_settings_are_input_error(
        self, corpus_events, tmp_path, capsys, flag, value
    ):
        nulls = [
            {"start": START + 200_000 + k * 40_000, "end": START + 200_000 + k * 40_000 + 30_000}
            for k in range(25)
        ]
        code = self.significance_run(corpus_events, tmp_path, nulls, flag, value)
        assert_input_error(code, capsys)
        assert not (tmp_path / "analyze").exists()

    def test_repeated_target_asn_fails_before_reading(self, tmp_path, capsys):
        out = tmp_path / "analyze"
        code = main([
            "analyze", str(tmp_path / "absent.jsonl"), "--window", "0", "100",
            "--target-asn", "64501", "--target-asn", "64500", "--target-asn", "64500",
            "--null-windows", str(tmp_path / "absent.json"), "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --target-asn names AS64500 more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--null-windows", "--null-events", "--incidents"])
    def test_null_window_options_without_target_asn_fail_before_reading(
        self, tmp_path, capsys, option
    ):
        out = tmp_path / "analyze"
        code = main([
            "analyze", str(tmp_path / "absent.jsonl"), "--window", "0", "100",
            option, str(tmp_path / "absent"), "--out", str(out),
        ])
        assert assert_input_error(code, capsys) == f"error: {option} is used only with --target-asn\n"
        assert not out.exists()

    def test_k_below_the_usable_minimum_fails_before_reading(self, tmp_path, capsys):
        out = tmp_path / "analyze"
        code = main([
            "analyze", str(tmp_path / "absent.jsonl"), "--window", "0", "100",
            "--target-asn", "64500", "--k", "5",
            "--null-windows", str(tmp_path / "absent.json"), "--out", str(out),
        ])
        assert assert_input_error(code, capsys) == (
            "error: bad Monte Carlo settings: null sample count k must be >= 20, got 5\n"
        )
        assert not out.exists()

    def test_long_collector_gives_a_short_error(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text(
            AnnouncementEvent(1, "c", "10.0.0.0/8", ANNOUNCEMENT, origin_asn=1).to_line() + "\n"
        )
        code, _ = self.analyze_config(events, tmp_path, "--collector", "c" * 100_000)
        assert len(assert_input_error(code, capsys)) < 300

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_min_events_below_two_is_input_error(self, corpus_events, tmp_path, capsys, value):
        code, _ = self.analyze_config(corpus_events, tmp_path, "--min-events", value)
        assert_input_error(code, capsys)

    def test_min_events_from_config_file_then_flag(self, corpus_events, tmp_path):
        config = tmp_path / "detector.conf"
        config.write_text("min_events = 50\n")
        code, out = self.analyze_config(corpus_events, tmp_path, "--config", str(config))
        assert code == 0
        assert manifest_of(out)["config"]["min_events"] == 50
        code, out = self.analyze_config(
            corpus_events, tmp_path, "--config", str(config), "--min-events", "7"
        )
        assert code == 0
        assert manifest_of(out)["config"]["min_events"] == 7

    def test_null_window_without_end_utc_is_input_error(self, corpus_events, tmp_path, capsys):
        code = self.significance_run(corpus_events, tmp_path, [{"start_utc": iso(START)}])
        assert_input_error(code, capsys)

    @pytest.mark.parametrize(
        "window",
        [{"start_utc": START, "end_utc": iso(START + 30000)}, {"start_utc": iso(START), "end_utc": None}],
    )
    def test_non_string_null_window_time_is_input_error(
        self, corpus_events, tmp_path, capsys, window
    ):
        code = self.significance_run(corpus_events, tmp_path, [window])
        assert_input_error(code, capsys)

    NULL_STARTS = [START + 200_000 + k * 40_000 for k in range(25)]

    @pytest.mark.parametrize(
        "window",
        [
            {"start": True, "end": START + 30000},
            {"start": START, "end": START + 30000.9},
            [START + 0.5, START + 30000],
            ["1400000000", START + 30000],
        ],
    )
    def test_non_integral_null_window_bound_is_input_error(
        self, corpus_events, tmp_path, capsys, window
    ):
        nulls = [[s, s + 30_000] for s in self.NULL_STARTS] + [window]
        code = self.significance_run(corpus_events, tmp_path, nulls)
        assert_input_error(code, capsys)
        assert not list((tmp_path / "analyze").glob("joint_*"))

    def test_integral_float_null_window_bounds_accepted(self, corpus_events, tmp_path):
        outputs = []
        for convert in (int, float):
            nulls = [
                {"start": convert(s), "end": convert(s + 30_000)} if k % 2 else
                [convert(s), convert(s + 30_000)]
                for k, s in enumerate(self.NULL_STARTS)
            ]
            assert self.significance_run(corpus_events, tmp_path, nulls) == 0
            outputs.append((tmp_path / "analyze" / "significance_AS64500.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_malformed_incidents_json_is_input_error(self, corpus_events, tmp_path, capsys):
        bad = tmp_path / "incidents.json"
        bad.write_text("[{")
        nulls = [{"start": START, "end": START + 30000}]
        code = self.significance_run(corpus_events, tmp_path, nulls, "--incidents", str(bad))
        assert_input_error(code, capsys)

    def test_null_window_mixing_forms_is_input_error(self, corpus_events, tmp_path, capsys):
        window = {"start_utc": iso(START), "end_utc": iso(START + 30000), "start": START}
        code = self.significance_run(corpus_events, tmp_path, [[START, START + 30000], window])
        assert assert_input_error(code, capsys) == (
            f"error: {tmp_path / 'nulls.json'}: null window 2: unknown field 'start'\n"
        )

    LONG = "9" * 100_000

    @pytest.mark.parametrize("window", [
        {"start": LONG, "end": START}, {"start_utc": LONG, "end_utc": iso(START)}, [START, LONG], {LONG: 1},
    ])
    def test_long_null_window_value_gives_a_short_error(self, corpus_events, tmp_path, capsys, window):
        code = self.significance_run(corpus_events, tmp_path, [window])
        assert len(assert_input_error(code, capsys)) < 300


# Runs the commands in one fresh interpreter and prints, after the import
# and after each command, whether numpy has been loaded.
NUMPY_PROBE = """
import json, sys
from pathlib import Path
import bgpburst.cli as cli
tmp, spec, incidents = (Path(a) for a in sys.argv[1:])
events = str(tmp / "ingest" / "events.jsonl")
steps = [("import", 0, "numpy" in sys.modules)]

def run(name, *argv):
    code = cli.main([name, *map(str, argv), "--out", str(tmp / name)])
    steps.append((name, code, "numpy" in sys.modules))

run("simulate", spec)
run("ingest", tmp / "simulate" / "spec.jsonl")
run("detect", events)
run("detect", events, "--trace")
run("evaluate", *(tmp / "detect").glob("report_*.json"), "--incidents", incidents)
run("analyze", events, "--window", 0, 2_000_000_000)
print(json.dumps(steps))
"""


class TestStartup:
    def test_no_command_loads_numpy(self, tmp_path):
        spec = write_sim_spec(tmp_path / "spec.json")
        incidents = tmp_path / "incidents.json"
        incidents.write_text(json.dumps([{
            "name": "x", "asn": 64500, "start_utc": iso(START + 86400),
            "end_utc": iso(START + 90000), "kind": "large-scale",
        }]))
        src = Path(mrt.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, str(tmp_path), str(spec), str(incidents)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout.splitlines()[-1])
        # analyze exits 2 on a one-AS corpus, after computing its burstiness
        assert steps == [
            ["import", 0, False], ["simulate", 0, False], ["ingest", 0, False],
            ["detect", 0, False], ["detect", 0, False], ["evaluate", 0, False],
            ["analyze", 2, False],
        ]


    def test_only_simulate_loads_class_factories_socket_or_synth(self, tmp_path):
        mrt_path = tmp_path / "updates.mrt"
        mrt_path.write_bytes(golden.golden_file()[0] + golden.prefix_forms_file())
        events = gc.write_golden_corpus(tmp_path / "events.jsonl", seed=7, days=4)
        nulls = tmp_path / "nulls.json"
        nulls.write_text(json.dumps([
            {"start": START + k * 12_000, "end": START + k * 12_000 + 10_000} for k in range(25)
        ]))
        incidents = tmp_path / "incidents.json"
        incidents.write_text(json.dumps([{
            "name": "x", "asn": 64500, "start_utc": iso(START + 86400),
            "end_utc": iso(START + 90000), "kind": "large-scale",
        }]))
        spec = write_sim_spec(tmp_path / "spec.json")
        src = Path(mrt.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, str(tmp_path), str(mrt_path), str(events),
             str(nulls), str(incidents), str(spec)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout.splitlines()[-1])
        assert steps == [
            ["import", 0, []], ["ingest-mrt", 0, []], ["ingest", 0, []], ["detect", 0, []],
            ["evaluate", 0, []], ["analyze", 0, []], ["simulate", 0, ["bgpburst.synth"]],
        ]


# Runs the commands in one fresh interpreter and prints, after the import and
# after each command, which of the modules a command should not need are loaded.
STARTUP_PROBE = f"""
import json, sys
from pathlib import Path
import bgpburst.cli as cli
WATCHED = ("dataclasses", "inspect", "socket", "bgpburst.synth")
tmp, mrt, events, nulls, incidents, spec = (Path(a) for a in sys.argv[1:])
steps = []

def run(out, *argv):
    code = cli.main([*map(str, argv), "--out", str(tmp / out)]) if argv else 0
    steps.append((out, code, [name for name in WATCHED if name in sys.modules]))

run("import")
run("ingest-mrt", "ingest", mrt, "--collector", "rrc00")
run("ingest", "ingest", events)
ingested = tmp / "ingest" / "events.jsonl"
run("detect", "detect", ingested, "--trace")
run("evaluate", "evaluate", *sorted((tmp / "detect").glob("report_*.json")), "--incidents", incidents)
run("analyze", "analyze", ingested, "--collector", "rrc00", "--window", {START + 80_000},
    {START + 100_000}, "--target-asn", 64500, "--null-windows", nulls)
run("simulate", "simulate", spec)
print(json.dumps(steps))
"""

# main(argv) in an interpreter in which `import numpy` raises ImportError.
NO_NUMPY_MAIN = """
import sys
sys.modules["numpy"] = None
from bgpburst.cli import main
sys.exit(main(sys.argv[1:]))
"""


def main_without_numpy(argv):
    src = Path(mrt.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_MAIN, *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.returncode


class TestGoldenDigests:
    """Data outputs of every command on a fixed corpus, pinned byte for byte.

    tests/golden_corpus.py holds the corpus, the commands and the digests,
    and runs the same comparisons as a script, without pytest or numpy.
    """

    @pytest.fixture()
    def inputs(self, tmp_path):
        return gc.write_inputs(tmp_path)

    def test_ingest_mrt_events_pinned(self, inputs, tmp_path):
        digest = gc.ingest_digest(tmp_path / "ingest", inputs["mrt"], "--collector", "route-views.test")
        assert digest == gc.INGEST_MRT

    def test_ingest_canonical_events_pinned(self, inputs, tmp_path):
        digest = gc.ingest_digest(tmp_path / "ingest", inputs["forms"], inputs["events"])
        assert digest == gc.INGEST_CANONICAL

    def test_detect_outputs_pinned(self, inputs, tmp_path):
        digests = gc.detect_digests(tmp_path / "detect", inputs["events"], "--trace")
        assert len(digests) == 4 * 7
        assert gc.digest_of(digests) == gc.DETECT

    def test_detect_default_outputs_pinned(self, inputs, tmp_path):
        # The report files of the traced run above, byte for byte, and nothing else.
        digests = gc.detect_digests(tmp_path / "detect", inputs["events"])
        assert len(digests) == 2 * 7
        assert all(name.startswith("report_") for name in digests)
        assert gc.digest_of(digests) == gc.DETECT_REPORTS

    def analyze_pinned(self, inputs, tmp_path, run):
        events, nulls = inputs["events"], inputs["nulls"]
        digests = gc.analyze_digests(tmp_path / "same", events, nulls, run=run)
        assert sorted(digests) == [
            "joint_rrc00.csv", "joint_rrc00.json",
            "significance_AS64500.json", "significance_AS64502.json",
        ]
        assert gc.digest_of(digests) == gc.ANALYZE
        separate = gc.analyze_digests(
            tmp_path / "separate", events, nulls, "--null-events", str(inputs["null_events"]),
            run=run,
        )
        assert gc.digest_of(separate) == gc.ANALYZE_SEPARATE_NULLS

    def test_analyze_outputs_pinned(self, inputs, tmp_path):
        self.analyze_pinned(inputs, tmp_path, main)

    def test_analyze_outputs_pinned_without_numpy(self, inputs, tmp_path):
        self.analyze_pinned(inputs, tmp_path, main_without_numpy)


# One command line per subcommand, naming input files that do not exist.
EACH_COMMAND = pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "spec.json"],
        ["ingest", "events.jsonl"],
        ["detect", "events.jsonl"],
        ["analyze", "events.jsonl", "--window", "0", "1"],
        ["evaluate", "report.json", "--incidents", "incidents.json"],
    ],
    ids=lambda argv: argv[0],
)


class TestManifest:
    """Each input read once and each output hashed as written; outputs
    published only when the command succeeds."""

    @EACH_COMMAND
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_naming_a_file_is_input_error(self, tmp_path, monkeypatch, capsys, argv, below):
        monkeypatch.chdir(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "x" if below else afile
        assert_input_error(main([*argv, "--out", str(out)]), capsys)
        assert afile.read_text() == "kept\n"

    @EACH_COMMAND
    def test_unreadable_input_is_one_error_text(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", "o"]) == 2
        assert capsys.readouterr().err == f"error: cannot read '{argv[1]}': No such file or directory\n"
        assert not (tmp_path / "o").exists()

    @EACH_COMMAND
    def test_failed_run_removes_the_out_directories_it_made(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "old").mkdir()
        assert_input_error(main([*argv, "--out", "new/deeper"]), capsys)
        assert_input_error(main([*argv, "--out", "old/new/deeper"]), capsys)
        err = assert_input_error(main([*argv, "--out", "old/new/" + "x" * 300]), capsys)
        assert err.startswith("error: cannot create output directory 'old/new/xxx"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old"]
        assert list((tmp_path / "old").iterdir()) == []

    @EACH_COMMAND
    def test_long_paths_give_short_errors(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        long = "x" * 100_000
        err = assert_input_error(main([*argv, "--out", long]), capsys)
        assert err.startswith("error: cannot create output directory 'xxx") and len(err) < 300, err[:300]
        argv = [argv[0], long, *argv[2:]]
        err = assert_input_error(main([*argv, "--out", "o"]), capsys)
        assert err.startswith("error: cannot read 'xxx") and len(err) < 300, err[:300]

    @pytest.mark.parametrize("argv", [
        ["ingest", "events.jsonl", "--config", "missing.conf"],
        ["evaluate", "report.json", "--incidents", "incidents.json", "--config", "missing.conf"],
        ["simulate", "spec.json", "--config", "missing.conf"],
        ["ingest", "events.jsonl", "--seed", "5"],
        ["detect", "events.jsonl", "--seed", "5"],
        ["analyze", "events.jsonl", "--window", "0", "1", "--seed", "5"],
        ["evaluate", "report.json", "--incidents", "incidents.json", "--seed", "5"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_option_of_another_command_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", "o"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["detect", "simulate"])
    def test_output_whose_name_fits_is_written(self, tmp_path, command):
        # Names of 246-247 bytes: no room for more under the common 255-byte limit.
        if command == "detect":
            events = tmp_path / "events.jsonl"
            events.write_text("".join(
                AnnouncementEvent(ts, "c" * 220, "10.0.0.0/8", ANNOUNCEMENT, origin_asn=1).to_line() + "\n"
                for ts in (1, 2)
            ))
            argv, name = ["detect", str(events), "--detector", "burstiness"], f"report_burstiness_AS1_{'c' * 220}.json"
        else:
            argv, name = ["simulate", str(write_sim_spec(tmp_path / f"{'s' * 240}.json", n=10))], f"{'s' * 240}.jsonl"
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([name, "manifest.json"])

    @settings(max_examples=25, deadline=None)
    @given(st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from("\r\n"), max_size=20))
    @example("é☃\r\n" * 10_000)  # more than one chunk of the text stream
    def test_both_routes_write_the_same_bytes_and_digest(self, text):
        """One name and text, streamed through output() or written whole."""
        published = []
        with tempfile.TemporaryDirectory() as tmp:
            for route in ("output", "write_text"):
                manifest = Manifest("detect", [], os.path.join(tmp, route))
                if route == "output":
                    with manifest.output("report.json") as fh:
                        fh.write(text)
                else:
                    manifest.write_text("report.json", text)
                manifest.write()
                [entry] = manifest_of(Path(tmp, route))["outputs"]
                published.append((Path(entry["path"]).read_bytes(), entry["sha256"]))
        data = text.encode("utf-8")
        assert published == [(data, hashlib.sha256(data).hexdigest())] * 2

    def test_argv_is_the_one_main_was_given(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["host-program", "--host-flag"])
        argv = ["simulate", str(write_sim_spec(tmp_path / "s.json")), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert manifest_of(tmp_path / "o")["argv"] == argv

    def test_argv_defaults_to_the_command_line(self, tmp_path, monkeypatch):
        argv = ["simulate", str(write_sim_spec(tmp_path / "s.json")), "--out", str(tmp_path / "o")]
        monkeypatch.setattr(sys, "argv", ["bgpburst", *argv])
        assert main() == 0
        assert manifest_of(tmp_path / "o")["argv"] == argv

    @pytest.fixture()
    def golden(self, tmp_path):
        """The golden corpus with its null windows, an incident and a spec."""
        incidents = tmp_path / "incidents.json"
        incidents.write_text(json.dumps([{
            "name": "late-burst", "asn": 64500, "start_utc": iso(START + 300_000),
            "end_utc": iso(START + 303_600), "kind": "large-scale",
        }]))
        spec = write_sim_spec(tmp_path / "spec.json")
        return {**gc.write_inputs(tmp_path), "incidents": incidents, "spec": spec}

    def analyze_argv(self, golden, *targets):
        argv = [
            "analyze", str(golden["events"]), "--collector", "rrc00",
            "--window", str(START + 80_000), str(START + 100_000),
        ]
        if targets:  # the null windows are refused without a target
            argv += ["--null-windows", str(golden["nulls"])]
        return argv + [arg for asn in targets for arg in ("--target-asn", str(asn))]

    def test_analyze_lists_its_incidents_file(self, golden, tmp_path):
        out = tmp_path / "analyze"
        argv = self.analyze_argv(golden, 64500)
        assert main([*argv, "--incidents", str(golden["incidents"]), "--out", str(out)]) == 0
        inputs = [entry["path"] for entry in manifest_of(out)["inputs"]]
        assert inputs == [str(golden["events"]), str(golden["nulls"]), str(golden["incidents"])]

    @pytest.mark.parametrize("route", ["flag", "environment"])
    @pytest.mark.parametrize("command", ["detect", "analyze"])
    def test_config_file_is_a_recorded_input(self, golden, tmp_path, monkeypatch, command, route):
        config = tmp_path / "detector.conf"
        config.write_text("r = 1/600\nmin_events = 6\n")
        argv = ["detect", str(golden["events"])] if command == "detect" else self.analyze_argv(golden)
        if route == "flag":
            argv += ["--config", str(config)]
        else:
            monkeypatch.setenv("BGPBURST_CONFIG", str(config))
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        digest = hashlib.sha256(config.read_bytes()).hexdigest()
        assert {"path": str(config), "sha256": digest} in manifest_of(out)["inputs"]
        assert manifest_of(out)["config"]["min_events"] == 6

    def test_digests_are_of_the_files_and_each_input_is_read_once(
        self, golden, tmp_path, monkeypatch
    ):
        opened = []
        path_open = Path.open

        def counting_open(self, mode="r", *args, **kwargs):
            opened.append((self.resolve(), mode))
            return path_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        runs = {
            "simulate": ["simulate", str(golden["spec"])],
            "ingest": ["ingest", str(golden["forms"]), str(golden["events"])],
            "detect": ["detect", str(golden["events"]), "--trace"],
            "analyze": [
                *self.analyze_argv(golden, 64500, 64502),
                "--null-events", str(golden["null_events"]), "--incidents", str(golden["incidents"]),
            ],
            "evaluate": None,  # on the reports of detect
        }
        for name, argv in runs.items():
            out = tmp_path / name
            if argv is None:
                reports = sorted(str(p) for p in (tmp_path / "detect").glob("report_*.json"))
                argv = ["evaluate", *reports, "--incidents", str(golden["incidents"])]
            opened.clear()
            assert main([*argv, "--out", str(out)]) == 0
            reads = [path for path, mode in opened if "r" in mode]
            manifest = manifest_of(out)
            for entry in manifest["inputs"] + manifest["outputs"]:
                path = Path(entry["path"])
                assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"], path
            for entry in manifest["inputs"]:
                assert reads.count(Path(entry["path"]).resolve()) == 1, (name, entry["path"])
            assert not [path for path in reads if path.parent == out.resolve()], name
            assert len(manifest["inputs"]) == len(set(reads)), name
            assert sorted(p.name for p in out.iterdir()) == sorted(
                ["manifest.json", *(Path(e["path"]).name for e in manifest["outputs"])]
            )

    def failing_runs(self, case, golden, tmp_path):
        """A run into `out` that succeeds, then the argv of a run into it that
        fails and whose outputs would differ from the first run's.  All but
        evaluate fail after some of those outputs are written."""
        out = tmp_path / "out"
        if case == "simulate":
            assert main(["simulate", str(golden["spec"]), "--out", str(out)]) == 0
            write_sim_spec(golden["spec"], seed=4)
            bad = tmp_path / "bad.json"
            bad.write_text("[]")
            return out, ["simulate", str(golden["spec"]), str(bad)]
        if case.startswith("detect"):
            argv = ["detect", str(golden["events"]), "--trace"]
            assert main([*argv, "--out", str(out)]) == 0
            outputs = manifest_of(out)["outputs"]
            if case == "detect":
                # The temporary file of the last output cannot be created.
                (out / f".{len(outputs) - 1}.{os.getpid()}.tmp").mkdir()
            else:
                # A directory holds the name of the last report, or of manifest.json.
                blocked = Path(outputs[-1]["path"]) if case == "detect-report-directory" else out / "manifest.json"
                blocked.unlink()
                blocked.mkdir()
                (blocked / "kept").write_text("kept\n")
            return out, [*argv, "--delta", "3"]
        if case == "analyze":
            assert main([*self.analyze_argv(golden, 64500), "--out", str(out)]) == 0
            # AS64501 keeps one null announcement: its test fails after AS64500's.
            lines = golden["events"].read_text().splitlines(keepends=True)
            first = next(line for line in lines if json.loads(line).get("origin_asn") == 64501)
            null_events = tmp_path / "null_events.jsonl"
            null_events.write_text("".join(
                line for line in lines if line == first or json.loads(line).get("origin_asn") != 64501
            ))
            return out, [
                *self.analyze_argv(golden, 64500, 64501), "--null-events", str(null_events), "--alpha-sig", "0.01",
            ]
        detected = tmp_path / "detected"
        assert main(["detect", str(golden["events"]), "--out", str(detected)]) == 0
        reports = sorted(str(p) for p in detected.glob("report_*.json"))
        incidents = ["--incidents", str(golden["incidents"])]
        assert main(["evaluate", *reports, *incidents, "--out", str(out)]) == 0
        bad = tmp_path / "bad_report.json"
        bad.write_text('{"detector": 5}')
        return out, ["evaluate", *reports, str(bad), *incidents, "--m", "3600"]

    @pytest.mark.parametrize("case", [
        "simulate", "detect", "detect-report-directory", "detect-manifest-directory", "analyze", "evaluate",
    ])
    def test_failed_command_keeps_earlier_outputs(self, golden, tmp_path, capsys, case):
        out, argv = self.failing_runs(case, golden, tmp_path)
        before = {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        err = assert_input_error(main([*argv, "--out", str(out)]), capsys)
        assert {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()} == before
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp") and p.is_file()]
        if case.endswith("directory"):  # refused before the first output is published
            assert err.startswith("error: cannot write ") and err.endswith(": Is a directory\n"), err


# Small JSON values, with the edges of the field kinds among them.  Numbers
# stay small so that no mutation asks simulate for a huge stream.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-100, 100) | st.floats(-100, 100) | st.text(max_size=8)
    | st.sampled_from([10**18, -(10**19), 1e300, math.inf, math.nan, 5.5, "\ud800", "2014-05-13", "1/300"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def containers(doc, path=()):
    """The path to each nonempty object and array in `doc`, `doc` first."""
    if isinstance(doc, (dict, list)) and doc:
        yield path
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from containers(value, (*path, key))


@st.composite
def mutations(draw, valid):
    """`valid` with one field or element removed, retyped or renamed."""
    doc = copy.deepcopy(valid)
    parent = functools.reduce(operator.getitem, draw(st.sampled_from(list(containers(doc)))), doc)
    key = draw(st.sampled_from(list(parent) if isinstance(parent, dict) else range(len(parent))))
    how = draw(st.sampled_from(["remove", "retype", "rename"][: 3 if isinstance(parent, dict) else 2]))
    if how == "remove":
        del parent[key]
    elif how == "retype":
        parent[key] = draw(JSON_VALUES.filter(lambda value: type(value) is not type(parent[key])))
    else:
        parent[draw(st.text(max_size=12).filter(lambda name: name not in parent))] = parent.pop(key)
    return doc


class TestDocumentFuzz:
    """main() on each JSON document kind the CLI reads: a random JSON value
    or a valid document with one field removed, retyped or renamed."""

    CASES = ["config", "spec", "report", "incidents", "null-windows", "null-windows+incidents"]

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory):
        """Per case: the argv with DOC for the document's path, and a valid document."""
        tmp = tmp_path_factory.mktemp("documents")
        specs = [write_sim_spec(tmp / f"as{asn}.json", asn=asn, n=400, seed=asn) for asn in (64500, 64501)]
        assert main(["simulate", *map(str, specs), "--out", str(tmp / "sim")]) == 0
        streams = [str(tmp / "sim" / f"as{asn}.jsonl") for asn in (64500, 64501)]
        assert main(["ingest", *streams, "--out", str(tmp / "ingest")]) == 0
        events = str(tmp / "ingest" / "events.jsonl")
        assert main(["detect", events, "--asn", "64500", "--out", str(tmp / "detect")]) == 0
        burstiness, volume = (
            str(tmp / "detect" / f"report_{name}_AS64500_synth-collector.json") for name in ("burstiness", "volume")
        )
        incidents = [{
            "name": "burst", "asn": 64500, "start_utc": iso(START + 10_000), "end_utc": iso(START + 13_600),
            "kind": "large-scale", "note": "inside the analysis window",
        }]
        (tmp / "incidents.json").write_text(json.dumps(incidents))
        starts = [START + 30_000 + k * 8_000 for k in range(24)]
        nulls = [[s, s + 7_000] for s in starts[:8]] + [{"start": s, "end": s + 7_000} for s in starts[8:16]]
        nulls += [{"start_utc": iso(s), "end_utc": iso(s + 7_000)} for s in starts[16:]]
        analyze = ["analyze", events, "--window", str(START), str(START + 30_000), "--target-asn", "64500",
                   "--k", "20", "--null-windows", "DOC"]
        spec = json.loads(specs[0].read_text())
        spec["generator"]["n_events"] = 30
        spec["incident"] = {"start": START + 600, "end": START + 660, "burst_gap": 1, "prefixes_per_second": 2}
        return {
            "config": (["detect", events, "--asn", "64500", "--config", "DOC"], {
                "r": 0.01, "omega": 50, "delta": 3, "warmup": 2, "variance_floor": 1e-9, "min_events": 5,
            }),
            "spec": (["simulate", "DOC"], spec),
            "report": (["evaluate", "DOC", volume, "--incidents", str(tmp / "incidents.json")],
                       json.loads(Path(burstiness).read_text())),
            "incidents": (["evaluate", burstiness, volume, "--incidents", "DOC"], incidents),
            "null-windows": (analyze, nulls),
            "null-windows+incidents": ([*analyze, "--incidents", str(tmp / "incidents.json")], nulls),
        }

    def run(self, argv, doc):
        """main() on `doc` in place of DOC; its code, stderr and --out's files,
        or None when --out was not left behind."""
        work = Path(tempfile.mkdtemp(prefix="doc-"))
        try:
            path = work / "doc.json"
            path.write_text(json.dumps(doc))
            out = work / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([str(path) if arg == "DOC" else arg for arg in argv] + ["--out", str(out)])
            return code, err.getvalue(), sorted(p.name for p in out.iterdir()) if out.exists() else None
        finally:
            shutil.rmtree(work)

    @pytest.mark.parametrize("case", CASES)
    def test_valid_document_passes(self, documents, case):
        code, err, outputs = self.run(*documents[case])
        assert code == 0, err
        assert "manifest.json" in outputs

    @pytest.mark.parametrize("case", CASES)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_document_is_read_or_refused_in_one_line(self, documents, case, data):
        argv, valid = documents[case]
        doc = data.draw(JSON_VALUES | mutations(valid), label="document")
        code, err, outputs = self.run(argv, doc)
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert outputs is None


# Bytes that line readers treat specially, put into valid files by the input fuzz.
SPECIAL_BYTES = [b"\r", b"\n", b"\n\n", b"\r\n", b"\r\n\r\n", b"\x00", b"\xff", b'"', b"\\", b" "]


@st.composite
def byte_mutations(draw, base):
    """`base` with one to three edits: bytes inserted at a line end, or
    inserted, written over or deleted at any byte."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            line_ends = [at for at, byte in enumerate(data) if byte == ord("\n")]
            at = draw(st.sampled_from(line_ends or [len(data)]))
            data[at:at] = draw(st.sampled_from(SPECIAL_BYTES))
            continue
        at = draw(st.integers(0, len(data)))
        piece = draw(st.sampled_from(SPECIAL_BYTES) | st.binary(min_size=1, max_size=3))
        how = draw(st.sampled_from(["insert", "overwrite", "delete"]))
        if how == "insert":
            data[at:at] = piece
        elif how == "overwrite":
            data[at:at + len(piece)] = piece
        else:
            del data[at:at + draw(st.integers(1, 8))]
    return bytes(data)


class TestInputFuzz:
    """main() on an events or MRT input: random bytes, or a valid file with
    a few bytes changed.  The canonical file spans several runs of lines."""

    COMMANDS = {
        "ingest": ["ingest"],
        "ingest --asn": ["ingest", "--asn", "64500"],
        "ingest --collector": ["ingest", "--collector", "rrc00"],
        "detect": ["detect"],
        "analyze": ["analyze", "--window", str(START), str(START + 3600), "--collector", "rrc00"],
    }
    CHUNK_CHARS = 512

    @pytest.fixture(scope="class")
    def inputs(self):
        """A writer-form events file of several runs, and the golden MRT file."""
        lines = [
            AnnouncementEvent(
                START + 60 * i, ["rrc00", "linx"][i % 3 == 0], f"10.{i % 7}.0.0/16",
                WITHDRAWAL if i % 5 == 4 else ANNOUNCEMENT,
                origin_asn=None if i % 5 == 4 else 64500 + i % 2,
                peer_asn=[None, 3356][i % 2], ambiguous_origin=i % 11 == 10,
            ).to_line()
            for i in range(40)
        ]
        text = "".join(line + "\n" for line in lines)
        with mock.patch.object(events, "_CHUNK_CHARS", self.CHUNK_CHARS):
            assert len(list(events._text_runs(text, {}))) > 2
        return {"events": text.encode(), "mrt": golden.golden_file()[0]}

    def run(self, command, data):
        """main() on `data` into an --out that already holds a file; its code,
        stderr, and --out's files before and after."""
        work = Path(tempfile.mkdtemp(prefix="input-"))
        try:
            path = work / "input"
            path.write_bytes(data)
            out = work / "out"
            out.mkdir()
            (out / "kept.txt").write_text("kept\n")
            before = {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}
            err = io.StringIO()
            argv = [command[0], str(path), *command[1:], "--out", str(out)]
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    mock.patch.object(events, "_CHUNK_CHARS", self.CHUNK_CHARS):
                code = main(argv)
            after = {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}
            return code, err.getvalue(), before, after
        finally:
            shutil.rmtree(work)

    @pytest.mark.parametrize("command, base", [
        *((command, "events") for command in COMMANDS),
        *((command, "mrt") for command in COMMANDS if command.startswith("ingest")),
    ])
    def test_valid_input_passes(self, inputs, command, base):
        code, err, _, after = self.run(self.COMMANDS[command], inputs[base])
        assert code == 0, err
        assert "manifest.json" in after

    @pytest.mark.parametrize("command", COMMANDS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_input_is_read_or_refused_in_one_line(self, inputs, command, data):
        # detect and analyze read canonical events only.
        bases = ["random", "events", "mrt"] if command.startswith("ingest") else ["random", "events"]
        base = data.draw(st.sampled_from(bases), label="base")
        if base == "random":
            payload = data.draw(st.binary(max_size=300), label="input")
        else:
            payload = data.draw(byte_mutations(inputs[base]), label="input")
        code, err, before, after = self.run(self.COMMANDS[command], payload)
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert after == before


# Command-line text near the forms the options take, and of any form.
ARG_TEXTS = st.one_of(
    st.sampled_from([
        "", " ", "0", "-1", "+5", " 64500 ", "1_000", "٣", "0x10", "1e3", "nan", "9" * 19, "9" * 5000,
        "1_0", "\u0661\u0660\u0660", "\u0660.\u0665", "9" * 22, "200.0", " 1396310400 ", "1e2", ".5", "inf",
        "-", "--out", "c\ud800", "\x00", "é☃", f" {iso(START)} ", "2014-02-30T00:00:00Z",
        "1969-12-31T23:59:59Z", "9999-12-31T23:59:59-23:59", "0000-01-01", "2014-05-13 00:00:00.5+01:30",
        "2014-05-13t00:00z",
    ]),
    st.integers(min_value=-(2**64), max_value=2**64).map(str),
    st.text(max_size=24),
)


def valid_or_any(*valid):
    """One of `valid`, or any command-line text."""
    return st.sampled_from(valid) | ARG_TEXTS


# Flat config files: key=value lines, comments and lines of any form.
CONFIG_TEXTS = st.lists(
    st.one_of(
        st.builds(
            "{} = {}".format,
            st.sampled_from([*CONFIG_KEYS, "R", "omega x", ""]),
            ARG_TEXTS | st.sampled_from([
                "1/300", "1/0", "0/0", "1e400", "-0", "200.0", "200.9", "1e-400", "\u0662\u0660\u0660", "1/3_00",
            ]),
        ),
        st.sampled_from(["# note", "", "omega", "=", "==1"]),
        st.text(max_size=24),
    ),
    max_size=6,
).map("\n".join)


class TestArgvFuzz:
    """main() on the text of its options: --asn, --collector, --omega, --r,
    --window, --target-asn, --t0/--t1, the bin length and a flat --config file."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        """An events file of two collectors, its reports, incidents and null windows."""
        tmp = tmp_path_factory.mktemp("argv")
        lines = [
            AnnouncementEvent(
                START + 60 * i, ["rrc00", "linx"][i % 3 == 0], f"10.{i % 7}.0.0/16", ANNOUNCEMENT,
                origin_asn=64500 + i % 2,
            ).to_line()
            for i in range(200)
        ]
        events = tmp / "events.jsonl"
        events.write_text("".join(line + "\n" for line in lines))
        assert main(["detect", str(events), "--collector", "rrc00", "--out", str(tmp / "detect")]) == 0
        incidents = tmp / "incidents.json"
        incidents.write_text(json.dumps([{
            "name": "burst", "asn": 64500, "start_utc": iso(START + 600), "end_utc": iso(START + 1200),
            "kind": "large-scale",
        }]))
        nulls = tmp / "nulls.json"
        nulls.write_text(json.dumps([[START + k * 60, START + k * 60 + 3000] for k in range(20, 160)]))
        return {
            "events": str(events), "reports": sorted(map(str, (tmp / "detect").glob("report_*.json"))),
            "incidents": str(incidents), "nulls": str(nulls),
        }

    @staticmethod
    def argv(draw, paths):
        """One command's argv, each text option drawn or left out, and the
        text of its flat --config file or None."""
        asns = valid_or_any("64500", "64501")
        collectors = valid_or_any("rrc00", "linx")
        times = valid_or_any(str(START), iso(START + 6_000), str(START + 12_000), iso(START + 12_000))

        def option(flag, texts):
            return [flag, draw(texts)] if draw(st.booleans()) else []

        command = draw(st.sampled_from(["ingest", "detect", "analyze", "evaluate"]))
        if command == "ingest":
            return ["ingest", paths["events"], *option("--asn", asns), *option("--collector", collectors)], None
        if command == "evaluate":
            return [
                "evaluate", *paths["reports"], "--incidents", paths["incidents"],
                *option("--t0", times), *option("--t1", times), *option("--m", valid_or_any("600", "3600")),
            ], None
        if command == "detect":
            argv = [
                "detect", paths["events"], *option("--asn", asns), *option("--collector", collectors),
                *option("--omega", valid_or_any("200", "200.0")), *option("--r", valid_or_any("0.005", "1e-3")),
            ]
        else:
            # The events span two collectors, so analyze needs --collector.
            argv = ["analyze", paths["events"], "--window", draw(times), draw(times), "--collector", draw(collectors)]
            for _ in range(draw(st.integers(0, 2))):
                argv += ["--target-asn", draw(asns), "--null-windows", paths["nulls"], "--k", "20"]
        return argv, draw(st.none() | CONFIG_TEXTS)

    def run(self, argv, config):
        """main() on `argv`, with `config` as its --config file; its code (2
        for a usage error), stderr and whether --out was left behind."""
        work = Path(tempfile.mkdtemp(prefix="argv-"))
        try:
            if config is not None:
                (work / "detector.conf").write_text(config, encoding="utf-8", errors="surrogatepass")
                argv = [*argv, "--config", str(work / "detector.conf")]
            out = work / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main([*argv, "--out", str(out)])
                except SystemExit as exc:
                    code = exc.code
            return code, err.getvalue(), out.exists()
        finally:
            shutil.rmtree(work)

    def test_valid_options_pass(self, paths):
        window = ["--window", str(START), iso(START + 12_000)]
        for argv, config in [
            (["ingest", paths["events"], "--asn", "64500", "--collector", "linx"], None),
            (["detect", paths["events"], "--asn", "64501", "--collector", "rrc00"], "r = 1/300\nomega = 20\n"),
            (["analyze", paths["events"], *window, "--collector", "rrc00", "--target-asn", "64500",
              "--null-windows", paths["nulls"], "--k", "20"], "# min_events\nmin_events = 5"),
            (["evaluate", *paths["reports"], "--incidents", paths["incidents"],
              "--t0", iso(START), "--t1", str(START + 12_000), "--m", "600"], None),
        ]:
            code, err, left = self.run(argv, config)
            assert (code, left) == (0, True), err

    @pytest.mark.parametrize("argv, config, message", [
        (["ingest", "--asn", "\u0663"], None, "--asn must be a nonnegative integer of at most 18 digits, got '\u0663'"),
        (["ingest", "--asn", "1_000"], None, "--asn must be a nonnegative integer of at most 18 digits, got '1_000'"),
        (["detect", "--asn", "9" * 22], None, f"--asn must be a nonnegative integer of at most 18 digits, got '{'9' * 22}'"),
        (["detect", "--asn", "-1"], None, "--asn must be a nonnegative integer of at most 18 digits, got '-1'"),
        (["analyze", "--k", "\u0661\u0660\u0660"], None,
         "--k must be a whole number of at most 18 digits, got '\u0661\u0660\u0660'"),
        (["detect", "--r", "\u0660.\u0665"], None, "--r must be a real number, got '\u0660.\u0665'"),
        (["detect", "--omega", "1_0"], None, "--omega must be a whole number of at most 18 digits, got '1_0'"),
        (["detect"], "omega = \u0662\u0660\u0660\n",
         "field 'omega' must be a whole number of at most 18 digits, got '\u0662\u0660\u0660'"),
        (["detect"], f"r = {'9' * 5000}\n", "r must be finite"),
    ], ids=["ingest-asn-arabic", "ingest-asn-underscore", "detect-asn-22-digits", "detect-asn-negative",
            "analyze-k-arabic", "detect-r-arabic", "detect-omega-underscore", "config-omega-arabic",
            "config-r-5000-digits"])
    def test_option_text_out_of_the_input_rules_is_refused(self, paths, argv, config, message):
        command, *options = argv
        if command == "analyze":
            options = ["--window", str(START), str(START + 12_000), "--collector", "rrc00", *options]
        code, err, left = self.run([command, paths["events"], *options], config)
        assert (code, left) == (2, False), err
        assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1, err

    def test_option_text_reads_as_the_same_setting_in_a_file(self, paths, tmp_path):
        """--omega 200.0 is omega = 200, and a time option's text is stripped."""
        config = tmp_path / "detector.conf"
        config.write_text("omega = 200\n")
        detect = ["detect", paths["events"]]
        evaluate = ["evaluate", *paths["reports"], "--incidents", paths["incidents"], "--t1", str(START + 12_000)]
        for same in (
            [[*detect, "--config", str(config)], [*detect, "--omega", "200.0"], [*detect, "--omega", " 200 "]],
            [[*evaluate, "--t0", str(START)], [*evaluate, "--t0", f" {START} "], [*evaluate, "--t0", f"\t{START}\n"]],
        ):
            digests = []
            for i, argv in enumerate(same):
                out = tmp_path / f"{argv[0]}{i}"
                assert main([*argv, "--out", str(out)]) == 0
                digests.append(output_digests(out))
            assert digests[1:] == digests[:1] * 2

    def test_collector_is_taken_as_given(self, tmp_path):
        """--collector is text: neither read as a number nor stripped."""
        events = tmp_path / "events.jsonl"
        lines = [
            AnnouncementEvent(START + i, collector, "10.0.0.0/8", ANNOUNCEMENT, origin_asn=1).to_line() + "\n"
            for i, collector in enumerate(["64500", " rrc00", "rrc00"])
        ]
        events.write_text("".join(lines))
        for collector, kept in [("64500", lines[:1]), (" rrc00", lines[1:2])]:
            out = tmp_path / f"o{len(collector)}"
            assert main(["ingest", str(events), "--collector", collector, "--out", str(out)]) == 0
            assert (out / "events.jsonl").read_text() == "".join(kept)

    def test_every_option_with_a_value_is_read_by_its_kind(self):
        """Paths and --detector aside, no option bypasses OPTION_KINDS."""
        (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            option for command in commands.values() for action in command._actions if action.nargs != 0
            for option in action.option_strings
        }
        paths = {"--out", "--config", "--null-windows", "--null-events", "--incidents"}
        assert options - paths - {"--detector"} == set(OPTION_KINDS)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_options_are_read_or_refused_in_one_line(self, paths, data):
        argv, config = self.argv(data.draw, paths)
        code, err, left = self.run(argv, config)
        assert code in (0, 2), err
        if code == 2:
            # main's own errors lead their one line; argparse's follows its usage.
            errors = [line for line in err.splitlines() if "error: " in line]
            assert len(errors) == 1 and err.endswith("\n"), err
            assert err.startswith("error: ") or errors[0].startswith("bgpburst"), err
            assert not left
