import csv
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import differential

from bgpburst.detector import AnomalyReport
from bgpburst.evaluation import (
    BinBoundsError,
    ConfigurationError,
    EvaluationRow,
    IncidentWindow,
    bin_count,
    bin_timestamps,
    evaluate_incident,
    evaluate_window,
    incident_bins,
    load_incidents,
    score,
    write_results_csv,
)
from bgpburst.fields import parse_utc

DAY = 86400
M = 10800


class TestBinning:
    def test_two_timestamps_one_bin(self):
        assert bin_timestamps({3600, 7200}, 0, 7 * DAY, M) == {0}

    def test_exact_boundary_goes_to_next_bin(self):
        assert bin_timestamps({10800}, 0, 7 * DAY, M) == {1}

    def test_out_of_bounds_rejected_with_offenders(self):
        with pytest.raises(BinBoundsError, match="2 timestamps.*-5"):
            bin_timestamps([-5, 100, 7 * DAY], 0, 7 * DAY, M)

    def test_bin_count_with_ragged_tail(self):
        assert bin_count(0, 7 * DAY, M) == 56
        assert bin_count(0, 7 * DAY + 1, M) == 57

    def test_bin_arithmetic_is_exact_above_2_53(self):
        t0, t1 = 1, 10**23
        n = bin_count(t0, t1, M)
        assert n == (t1 - t0 + M - 1) // M
        assert bin_timestamps([t0, t1 - 1], t0, t1, M) == {0, n - 1}
        window = IncidentWindow("x", 1, t0 + (n - 2) * M, t1, "large-scale")
        assert incident_bins(window, t0, t1, M) == {n - 2, n - 1}

    def test_partition_covers_study_exactly_once(self):
        t0, t1, m = 100, 100 + 5 * 60 + 17, 60
        n = bin_count(t0, t1, m)
        widths = [min(t0 + (k + 1) * m, t1) - (t0 + k * m) for k in range(n)]
        assert sum(widths) == t1 - t0
        assert all(w > 0 for w in widths)


class TestIncidentBins:
    def window(self, start, end):
        return IncidentWindow("x", 1, start, end, "large-scale")

    def test_overlap_matches_bruteforce_oracle(self):
        t0 = parse_utc("2014-03-30T00:00:00Z")
        t1 = t0 + 7 * DAY
        start = parse_utc("2014-04-02T18:26:00Z")
        end = parse_utc("2014-04-02T21:15:00Z")
        got = incident_bins(self.window(start, end), t0, t1, M)
        expected = {
            k
            for k in range(bin_count(t0, t1, M))
            if max(t0 + k * M, start) < min(t0 + (k + 1) * M, end)
        }
        assert got == expected
        assert len(got) == 2  # 18:26-21:15 straddles one 3 h boundary

    def test_partial_bins_included_on_both_sides(self):
        got = incident_bins(self.window(M - 1, M + 1), 0, 7 * DAY, M)
        assert got == {0, 1}

    def test_aligned_window_is_single_bin(self):
        assert incident_bins(self.window(M, 2 * M), 0, 7 * DAY, M) == {1}

    def test_window_outside_bounds_is_config_error(self):
        with pytest.raises(ConfigurationError):
            incident_bins(self.window(7 * DAY, 7 * DAY + 60), 0, 7 * DAY, M)
        with pytest.raises(ConfigurationError):
            incident_bins(self.window(0, 60), 100, 7 * DAY, M)

    def test_reversed_bounds_named_before_window(self):
        with pytest.raises(ValueError, match="t0 must precede t1"):
            incident_bins(self.window(M, 2 * M), 7 * DAY, 0, M)


class TestScore:
    def test_reference_fixture(self):
        tp, fp, fn, tn, precision, recall, f1 = score({2}, {2, 5}, 56)
        assert (tp, fp, fn, tn) == (1, 1, 0, 54)
        assert precision == 0.5
        assert recall == 1.0
        assert f1 == pytest.approx(2 / 3, abs=0)

    def test_perfect_detection(self):
        *_, precision, recall, f1 = score({1, 5, 9}, {1, 5, 9}, 56)
        assert (precision, recall, f1) == (1.0, 1.0, 1.0)

    def test_quarter_precision_full_recall(self):
        # shape of the strongest published collector row: one true bin
        # plus three spurious ones gives 25% / 100% / 40%
        *_, precision, recall, f1 = score({2}, {2, 10, 20, 30}, 56)
        assert precision == 0.25
        assert recall == 1.0
        assert f1 == pytest.approx(0.4)

    def test_counts_partition_all_bins(self):
        tp, fp, fn, tn, *_ = score({1, 2}, {2, 3, 4}, 10)
        assert tp + fp + fn + tn == 10

    def test_no_detection_precision_is_null_not_zero(self):
        *_, precision, recall, f1 = score({3}, set(), 56)
        assert precision is None
        assert recall == 0.0
        assert f1 is None

    def test_empty_truth_recall_is_null(self):
        *_, precision, recall, f1 = score(set(), {3}, 56)
        assert precision == 0.0
        assert recall is None
        assert f1 is None

    def test_f1_zero_iff_tp_zero(self):
        *_, precision, recall, f1 = score({1}, {2}, 56)
        assert (precision, recall) == (0.0, 0.0)
        assert f1 == 0.0

    def test_out_of_range_bins_rejected(self):
        with pytest.raises(ValueError):
            score({60}, set(), 56)

    @given(
        st.sets(st.integers(min_value=0, max_value=30), max_size=10),
        st.sets(st.integers(min_value=0, max_value=30), max_size=10),
        st.permutations(list(range(31))),
    )
    def test_metrics_invariant_under_bin_relabeling(self, truth, detected, perm):
        base = score(truth, detected, 31)
        mapped = score({perm[b] for b in truth}, {perm[b] for b in detected}, 31)
        assert base == mapped

    @given(
        st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=10),
        st.sets(st.integers(min_value=0, max_value=30), max_size=10),
        st.integers(min_value=0, max_value=30),
    )
    def test_false_positive_monotonicity(self, truth, detected, extra):
        if extra in truth or extra in detected:
            return
        *_, p0, r0, _ = score(truth, detected, 31)
        *_, p1, r1, _ = score(truth, detected | {extra}, 31)
        assert r1 == r0
        if p0 is not None:
            assert p1 <= p0

    @given(
        st.sets(st.integers(min_value=0, max_value=55), min_size=1, max_size=20),
        st.sets(st.integers(min_value=0, max_value=55), min_size=1, max_size=20),
    )
    def test_f1_is_harmonic_mean(self, truth, detected):
        *_, precision, recall, f1 = score(truth, detected, 56)
        if precision + recall > 0:
            assert f1 == pytest.approx(
                2 * precision * recall / (precision + recall), abs=1e-12
            )
        else:
            assert f1 == 0.0


class TestEvaluateIncident:
    def window(self):
        return IncidentWindow("inc", 64500, 2 * M, 3 * M, "large-scale")

    def report(self, stamps):
        return AnomalyReport(64500, "coll", tuple(stamps))

    def test_flags_only_inside_window_give_full_precision(self):
        rows = evaluate_incident(
            {"burstiness": self.report([2 * M + 5, 2 * M + 600])},
            self.window(),
            (0, 7 * DAY),
        )
        (row,) = rows
        assert row.evaluation.precision == 1.0
        assert row.evaluation.recall == 1.0
        assert row.detector == "burstiness"
        assert row.collector == "coll"

    def test_silent_detector_recall_zero_precision_null(self):
        (row,) = evaluate_incident(
            {"volume": self.report([])}, self.window(), (0, 7 * DAY)
        )
        assert row.evaluation.recall == 0.0
        assert row.evaluation.precision is None

    def test_rows_sorted_by_detector_name(self):
        rows = evaluate_incident(
            {"volume": self.report([5]), "burstiness": self.report([5])},
            self.window(),
            (0, 7 * DAY),
        )
        assert [row.detector for row in rows] == ["burstiness", "volume"]

    def test_window_outside_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_incident(
                {"burstiness": self.report([5])}, self.window(), (0, 2 * M)
            )


class TestIncidentConfig:
    def test_shipped_incident_file_loads(self):
        path = resources.files("bgpburst").joinpath("data/incidents.json")
        incidents = load_incidents(str(path))
        assert len(incidents) == 7
        by_name = {w.name: w for w in incidents}
        indosat = by_name["indosat-2014"]
        assert indosat.perpetrator_asn == 4761
        assert indosat.end - indosat.start == pytest.approx(2.9 * 3600, abs=300)
        kinds = {w.kind for w in incidents}
        assert kinds == {"large-scale", "interception"}

    def test_windows_do_not_overlap(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '[{"name":"a","asn":1,"start_utc":"2020-01-01T00:00:00Z",'
            '"end_utc":"2020-01-01T02:00:00Z","kind":"large-scale"},'
            '{"name":"b","asn":2,"start_utc":"2020-01-01T01:00:00Z",'
            '"end_utc":"2020-01-01T03:00:00Z","kind":"large-scale"}]'
        )
        with pytest.raises(ConfigurationError, match="overlap"):
            load_incidents(bad)

    def test_invalid_entry_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"name":"a","asn":1,"start_utc":"2020-01-01T00:00:00Z"}]')
        with pytest.raises(ConfigurationError, match="missing field 'end_utc'$"):
            load_incidents(bad)
        bad.write_text(
            '[{"name":"a","asn":1,"start_utc":"2020-01-01T00:00:00Z",'
            '"end_utc":"2020-01-01T02:00:00Z"}]'
        )
        with pytest.raises(ConfigurationError, match="missing field 'kind'$"):
            load_incidents(bad)
        bad.write_text('[["a", 1]]')
        with pytest.raises(ConfigurationError, match=r": entry 1: must be an object, got \['a', 1\]$"):
            load_incidents(bad)

    def test_parse_utc(self):
        assert parse_utc("1970-01-01T00:00:00Z") == 0
        assert parse_utc("2014-04-02T18:26:00Z") == 1396463160
        assert parse_utc("2014-04-02T18:26:00+00:00") == 1396463160

    def incident_file(self, tmp_path, **fields):
        entry = {
            "name": "a", "asn": 1, "start_utc": "2020-01-01T00:00:00Z",
            "end_utc": "2020-01-01T02:00:00Z", "kind": "large-scale", **fields,
        }
        path = tmp_path / "incidents.json"
        path.write_text(json.dumps([entry]))
        return path

    def test_fractional_asn_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="field 'asn' must be a whole number of at most 18 digits, got 5.9$"):
            load_incidents(self.incident_file(tmp_path, asn=5.9))

    def test_boolean_asn_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="field 'asn' must be a whole number of at most 18 digits, got True$"):
            load_incidents(self.incident_file(tmp_path, asn=True))

    def test_string_asn_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="field 'asn' must be a whole number of at most 18 digits, got '5'$"):
            load_incidents(self.incident_file(tmp_path, asn="5"))

    def test_integral_float_asn_accepted(self, tmp_path):
        (window,) = load_incidents(self.incident_file(tmp_path, asn=5.0))
        assert window.perpetrator_asn == 5 and type(window.perpetrator_asn) is int

    @pytest.mark.parametrize("key", ["start_utc", "end_utc"])
    def test_numeric_time_rejected(self, tmp_path, key):
        with pytest.raises(ConfigurationError, match=f"field '{key}' must be an RFC 3339 time string, got 1577836800$"):
            load_incidents(self.incident_file(tmp_path, **{key: 1577836800}))


class TestParseUtc:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2014-05-14", 1400025600),
            ("2014-05-14T00:00", 1400025600),
            ("2014-05-14 00:00:00", 1400025600),
            ("2014-05-14t00:00:00z", 1400025600),
            ("2014-05-14T00:00:00.999999999Z", 1400025600),
            ("2014-05-14T02:30:00+02:30", 1400025600),
            ("2014-05-13T22:00:00-02:00", 1400025600),
            ("1969-12-31T23:59:59Z", -1),
        ],
    )
    def test_rfc3339_forms(self, text, expected):
        assert parse_utc(text) == expected

    # ISO 8601 forms outside RFC 3339 that datetime.fromisoformat takes on
    # some Python versions, and fields out of range.
    @pytest.mark.parametrize(
        "text",
        [
            "2014-W20", "2014-W20-3", "2014-134", "20140514", "20140514T000000Z",
            "2014-05-14T00", "2014-05-14T0000", "2014-05-14Z", "2014-05-14T00:00:00+0200",
            "2014-05-14T00:00:00+02", "2014-05-14T00:00:0002:00", "2014-05-14T00:00:00+02:00:30",
            "2014-05-14T00:00.5",
            "2014-05-14x00:00:00", "2014-05-14T24:00:00Z", "2014-05-14T00:00:60Z",
            "2014-02-30", "2014-05-14T00:00+24:00", "2014-05-14T00:00+01:60",
            "0000-01-01", "２０１４-05-14", " 2014-05-14", "2014-05-14\n", "",
        ],
    )
    def test_other_forms_rejected(self, text):
        with pytest.raises(ValueError):
            parse_utc(text)

    @pytest.mark.parametrize(
        "text, field",
        [
            ("2014-04-01T00:00:00+24:00", "hours"),
            ("2014-04-01T00:00:00+99:00", "hours"),
            ("2014-04-01T00:00:00-24:00", "hours"),
            ("2014-04-01T00:00:00+24:60", "hours"),
            ("2014-04-01T00:00:00+01:60", "minutes"),
        ],
    )
    def test_offset_out_of_range_has_its_own_message(self, text, field):
        with pytest.raises(ValueError) as info:
            parse_utc(text)
        assert str(info.value) == f"offset {field} out of range in {text!r}"

    def test_largest_offsets_accepted(self):
        assert parse_utc("2014-04-01T23:59:00+23:59") == parse_utc("2014-04-01T00:00:00Z")
        assert parse_utc("2014-04-01T00:00:00-23:59") == parse_utc("2014-04-01T23:59:00Z")

    @pytest.mark.parametrize("value", [1400000000, 1.4e9, None, True, ["2014-05-14"]])
    def test_non_string_rejected(self, value):
        with pytest.raises(TypeError, match="RFC 3339 string"):
            parse_utc(value)

    @settings(max_examples=500)
    @given(st.randoms(use_true_random=False))
    def test_matches_reference_on_time_texts(self, rng):
        text = differential.utc_text(rng)
        assert not differential.utc_mismatch(text), text

    @given(st.text(alphabet="0123456789-:+.TtZzW _\n²", max_size=32))
    def test_matches_reference_on_any_text(self, text):
        assert not differential.utc_mismatch(text), text


def test_results_csv_with_null_metrics():
    row = EvaluationRow(
        incident="inc",
        collector="coll",
        detector="volume",
        evaluation=evaluate_window({1}, [], 0, 7 * DAY, M),
    )
    buf = io.StringIO()
    write_results_csv([row], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "incident,collector,detector,precision,recall,f1,tp,fp,fn,tn"
    fields = lines[1].split(",")
    assert fields[3] == ""  # undefined precision stays empty, not zero
    assert fields[4] == "0.000000"
    assert fields[6:] == ["0", "0", "1", "55"]


@given(st.lists(st.text(st.characters(blacklist_characters="\x00")), min_size=3, max_size=3))
def test_results_csv_free_text_reads_back(texts):
    # NUL is left out: Python 3.10's csv.reader refuses it in any field.
    incident, collector, detector = texts
    row = EvaluationRow(incident, collector, detector, evaluate_window({1}, [], 0, 7 * DAY, M))
    buf = io.StringIO()
    write_results_csv([row], buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue(), newline="")))
    assert [len(r) for r in rows] == [10, 10]
    assert rows[1][:3] == texts
    if not any(c in text for text in texts for c in ',"\r\n'):  # written as it is
        assert buf.getvalue().split("\n")[1].startswith(f"{incident},{collector},{detector},")
