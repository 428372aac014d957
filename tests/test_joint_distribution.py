import io

import pytest

from bgpburst.burstiness import (
    DegenerateTableError,
    joint_distribution,
    joint_sidecar,
    write_joint_csv,
)
from bgpburst.events import EventSeries, build_series
from bgpburst.synth import GeneratorSpec, generate_stream

WINDOW = (0, 86400)


def poisson_series(asn, seed, n=50, gap=600.0):
    spec = GeneratorSpec("poisson", gap, n, 0, asn, "c", seed)
    return build_series(generate_stream(spec), asn, "c")


def pareto_series(asn, seed, n=400, gap=120.0):
    spec = GeneratorSpec("pareto", gap, n, 0, asn, "c", seed, pareto_alpha=1.3)
    return build_series(generate_stream(spec), asn, "c")


class TestQuadrants:
    def test_injected_bursty_high_volume_as_is_unique_quadrant_1(self):
        corpus = [poisson_series(asn, seed=asn) for asn in range(100)]
        corpus.append(pareto_series(64500, seed=7))
        table = joint_distribution(corpus, WINDOW)
        q1 = [row for row in table.rows if row.quadrant == 1]
        assert [row.asn for row in q1] == [64500]

    def test_second_quadrant_high_volume_low_burstiness(self):
        # 18 mid-size random ASes, one heavy regular announcer, one bursty small one
        corpus = [poisson_series(asn, seed=asn) for asn in range(18)]
        corpus.append(EventSeries(900, "c", tuple(range(0, 500 * 60, 60))))  # regular, many
        corpus.append(pareto_series(901, seed=3, n=60))
        table = joint_distribution(corpus, WINDOW)
        by_asn = {row.asn: row for row in table.rows}
        assert by_asn[900].quadrant == 2  # volume without burstiness
        assert by_asn[901].quadrant == 4  # burstiness without volume

    def test_quadrant_partition_exhaustive_and_exclusive(self):
        corpus = [poisson_series(asn, seed=asn + 50, n=30 + asn) for asn in range(40)]
        table = joint_distribution(corpus, WINDOW)
        assert len(table.rows) == 40
        for row in table.rows:
            expected = {
                (True, True): 1,
                (False, True): 2,
                (False, False): 3,
                (True, False): 4,
            }[(row.b_corrected > table.b_p95, row.count > table.count_p95)]
            assert row.quadrant == expected

    def test_rows_sorted_by_asn(self):
        corpus = [poisson_series(asn, seed=asn) for asn in (5, 3, 9, 1)]
        table = joint_distribution(corpus, WINDOW)
        assert [row.asn for row in table.rows] == [1, 3, 5, 9]


class TestQualification:
    def test_small_as_skipped_and_reported(self):
        corpus = [poisson_series(asn, seed=asn) for asn in range(3)]
        corpus.append(EventSeries(777, "c", (10, 20, 30)))  # 3 announcements < 5
        table = joint_distribution(corpus, WINDOW)
        assert all(row.asn != 777 for row in table.rows)
        assert (777, 3) in table.skipped

    def test_same_second_as_skipped_and_reported(self):
        corpus = [poisson_series(asn, seed=asn) for asn in range(3)]
        corpus.append(EventSeries(777, "c", (1000,) * 6))  # a one-second burst
        table = joint_distribution(corpus, WINDOW)
        assert [row.asn for row in table.rows] == [0, 1, 2]
        assert table.skipped == ((777, 6),)

    def test_window_restriction_counts_only_inside(self):
        series = EventSeries(1, "c", (0, 1, 2, 3, 4, 100_000_000))
        corpus = [series, poisson_series(2, seed=2)]
        table = joint_distribution(corpus, WINDOW)
        row = next(r for r in table.rows if r.asn == 1)
        assert row.count == 5

    def test_degenerate_table_error(self):
        corpus = [poisson_series(1, seed=1), EventSeries(2, "c", (1, 2))]
        with pytest.raises(DegenerateTableError):
            joint_distribution(corpus, WINDOW)

    def test_mixed_collectors_rejected(self):
        a = poisson_series(1, seed=1)
        b = EventSeries(2, "other", a.timestamps)
        with pytest.raises(ValueError, match="mixed collectors"):
            joint_distribution([a, b], WINDOW)

    def test_duplicate_asn_rejected(self):
        a = poisson_series(1, seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            joint_distribution([a, a], WINDOW)


class TestExport:
    def test_csv_and_sidecar(self):
        corpus = [poisson_series(asn, seed=asn) for asn in range(5)]
        corpus.append(EventSeries(777, "c", (10, 20)))
        table = joint_distribution(corpus, WINDOW)
        buf = io.StringIO()
        write_joint_csv(table, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "asn,b_corrected,count,quadrant"
        assert len(lines) == 1 + len(table.rows)
        sidecar = joint_sidecar(table)
        assert sidecar["window"] == [0, 86400]
        assert sidecar["skipped"] == [{"asn": 777, "count": 2}]
        assert sidecar["n_rows"] == len(table.rows)
