"""Tests for the Table 1–3 builders (smoke scale)."""

from repro.experiments.datasets import build_dataset
from repro.experiments.tables import table1_rows, table2_rows, table3_rows


def quick_sets():
    return [
        build_dataset("flixster_syn", n=300, h=2, singleton_rr_samples=500),
        build_dataset("dblp_syn", n=400, h=4, seed=5),
    ]


class TestTable1:
    def test_rows_have_table1_columns(self):
        rows = table1_rows(quick_sets())
        assert len(rows) == 2
        for row in rows:
            assert {"dataset", "#nodes", "#edges", "type"} <= set(row)

    def test_type_matches_dataset(self):
        rows = table1_rows(quick_sets())
        by_name = {r["dataset"]: r for r in rows}
        assert by_name["flixster_syn"]["type"] == "directed"
        assert by_name["dblp_syn"]["type"] == "undirected"


class TestTable2:
    def test_summary_statistics(self):
        rows = table2_rows(quick_sets())
        for row in rows:
            assert row["budget min"] <= row["budget mean"] <= row["budget max"]
            assert row["cpe min"] <= row["cpe mean"] <= row["cpe max"]


class TestTable3:
    def test_memory_rows(self, quick_config):
        ds = build_dataset("dblp_syn", n=400, h=4, seed=5)
        rows = table3_rows([ds], config=quick_config, h_values=(1, 2))
        assert len(rows) == 2  # one per algorithm
        for row in rows:
            assert row["h=1 (MB)"] > 0
            assert row["h=2 (MB)"] >= row["h=1 (MB)"]  # memory grows with h

