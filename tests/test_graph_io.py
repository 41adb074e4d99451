"""Round-trip and ingestion tests for graph persistence."""

import os

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi
from repro.graph.io import (
    ingest_cached,
    ingest_edge_list,
    load_edge_list,
    load_npz,
    read_edge_array,
    save_edge_list,
    save_npz,
)


class TestEdgeListIO:
    def test_round_trip(self, tmp_path, diamond_graph):
        path = str(tmp_path / "g.txt")
        save_edge_list(diamond_graph, path)
        loaded = load_edge_list(path)
        assert loaded == diamond_graph

    def test_header_preserves_isolated_nodes(self, tmp_path):
        g = DiGraph.from_edge_list([(0, 1)], n=7)
        path = str(tmp_path / "g.txt")
        save_edge_list(g, path)
        assert load_edge_list(path).n == 7

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = str(tmp_path / "g.txt")
        path_file = tmp_path / "g.txt"
        path_file.write_text("# a comment\n\n0 1\n1 2\n")
        g = load_edge_list(path)
        assert g.n == 3 and g.m == 2

    def test_percent_comments_skipped(self, tmp_path):
        (tmp_path / "g.txt").write_text("% matrix-market style comment\n0 1\n")
        g = load_edge_list(str(tmp_path / "g.txt"))
        assert g.n == 2 and g.m == 1

    def test_malformed_line_rejected(self, tmp_path):
        (tmp_path / "bad.txt").write_text("0\n")
        with pytest.raises(GraphError):
            load_edge_list(str(tmp_path / "bad.txt"))

    def test_non_integer_token_rejected(self, tmp_path):
        (tmp_path / "bad.txt").write_text("0 1\n1 x\n")
        with pytest.raises(GraphError):
            load_edge_list(str(tmp_path / "bad.txt"))

    def test_explicit_n_wins(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1\n")
        assert load_edge_list(str(tmp_path / "g.txt"), n=9).n == 9

    def test_declared_n_too_small_raises(self, tmp_path):
        # The satellite bugfix: an n smaller than the data must fail
        # loudly instead of producing out-of-range arcs downstream.
        (tmp_path / "g.txt").write_text("0 1\n1 5\n")
        with pytest.raises(GraphError, match="node id 5"):
            load_edge_list(str(tmp_path / "g.txt"), n=3)

    def test_stale_header_raises(self, tmp_path):
        # A header left over from before edits added node 7.
        (tmp_path / "g.txt").write_text("# DiGraph n=3 m=1\n0 1\n1 7\n")
        with pytest.raises(GraphError, match="stale header"):
            load_edge_list(str(tmp_path / "g.txt"))

    def test_extra_columns_ignored(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1 0.5\n1 2 0.25\n")
        g = load_edge_list(str(tmp_path / "g.txt"))
        assert g.m == 2 and g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_mixed_width_lines_not_repaired(self, tmp_path):
        # A 3-token line plus a 1-token line average out to 2 tokens per
        # line; the parser must not re-pair the flat token stream into
        # fabricated arcs — the short line is malformed.
        (tmp_path / "g.txt").write_text("1 2 3\n4\n")
        with pytest.raises(GraphError, match="malformed"):
            load_edge_list(str(tmp_path / "g.txt"))

    def test_mixed_width_valid_lines_parse(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1 7\n1 2\n")
        g = load_edge_list(str(tmp_path / "g.txt"))
        assert g.m == 2 and g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_no_trailing_newline(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1\n1 2")
        assert load_edge_list(str(tmp_path / "g.txt")).m == 2


class TestConstructorOptionRoundTrip:
    def test_dedupe_false_multigraph_round_trips(self, tmp_path):
        # The satellite bugfix: a dedupe=False graph with duplicate arcs
        # must reload with the same m, not silently deduplicated.
        g = DiGraph(4, [0, 0, 1], [1, 1, 2], dedupe=False)
        path = str(tmp_path / "g.txt")
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.m == 3
        assert loaded == g
        assert loaded.deduped is False

    def test_deduped_graph_round_trips(self, tmp_path):
        g = DiGraph(4, [0, 0, 1], [1, 1, 2], dedupe=True)
        path = str(tmp_path / "g.txt")
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.m == g.m == 2
        assert loaded.deduped is True

    def test_self_loop_graph_round_trips(self, tmp_path):
        g = DiGraph(3, [0, 1], [0, 2], allow_self_loops=True)
        path = str(tmp_path / "g.txt")
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded == g
        assert loaded.allows_self_loops is True

    def test_explicit_kwargs_override_header(self, tmp_path):
        g = DiGraph(4, [0, 0, 1], [1, 1, 2], dedupe=False)
        path = str(tmp_path / "g.txt")
        save_edge_list(g, path)
        assert load_edge_list(path, dedupe=True).m == 2

    def test_npz_round_trips_options(self, tmp_path):
        g = DiGraph(3, [0, 1], [0, 2], dedupe=False, allow_self_loops=True)
        path = str(tmp_path / "g.npz")
        save_npz(g, path)
        loaded = load_npz(path)
        assert loaded == g and loaded.allows_self_loops is True


class TestChunkedReader:
    def test_chunk_boundary_invariance(self, tmp_path):
        path = str(tmp_path / "g.txt")
        (tmp_path / "g.txt").write_text(
            "# header comment n=200\n10 20\n% other comment\n\n30 40\n50 60\n70 80"
        )
        baseline = read_edge_array(path)
        for chunk_bytes in (1, 2, 3, 5, 8, 13, 64):
            tails, heads, header = read_edge_array(path, chunk_bytes=chunk_bytes)
            assert np.array_equal(tails, baseline[0]), chunk_bytes
            assert np.array_equal(heads, baseline[1]), chunk_bytes
            assert header == baseline[2] == {"n": 200}

    def test_invalid_chunk_bytes(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1\n")
        with pytest.raises(GraphError):
            read_edge_array(str(tmp_path / "g.txt"), chunk_bytes=0)

    def test_large_file_matches_line_order(self, tmp_path):
        rng = np.random.default_rng(9)
        pairs = rng.integers(0, 500, size=(2_000, 2))
        path = tmp_path / "big.txt"
        path.write_text("\n".join(f"{t}\t{h}" for t, h in pairs) + "\n")
        tails, heads, _ = read_edge_array(str(path), chunk_bytes=256)
        assert np.array_equal(tails, pairs[:, 0])
        assert np.array_equal(heads, pairs[:, 1])

    def test_header_first_occurrence_wins(self, tmp_path):
        (tmp_path / "g.txt").write_text("# n=5\n0 1\n# n=99\n")
        _, _, header = read_edge_array(str(tmp_path / "g.txt"))
        assert header["n"] == 5

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 1 << 20])
    def test_malformed_line_named_by_number_not_content(self, tmp_path, chunk_bytes):
        """The error names the line, never its bytes: a file that is not
        an edge list must not leak its content through the message."""
        path = tmp_path / "notes.txt"
        path.write_text("0 1\n# comment\n\n1 2\nsecret-token here\n2 3\n")
        with pytest.raises(GraphError, match="line 5") as info:
            read_edge_array(str(path), chunk_bytes=chunk_bytes)
        assert "secret" not in str(info.value)

    def test_id_overflowing_int64_is_a_graph_error(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n99999999999999999999999 2\n")
        with pytest.raises(GraphError, match="line 2"):
            read_edge_array(str(path))

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_device_refused_before_reading(self):
        """A device may never end (``/dev/zero`` never holds a newline),
        so anything but a regular file is refused unread."""
        with pytest.raises(GraphError, match="not a regular file"):
            read_edge_array("/dev/null")


class TestIngestEdgeList:
    def test_snap_style_ids_remap_to_pre_remapped_equivalent(self, tmp_path):
        # Acceptance criterion: a SNAP-style list with non-contiguous ids
        # ingests into the same allocation as its dense equivalent.
        dense = erdos_renyi(60, 0.08, seed=4)
        tails, heads = dense.edge_array()
        sparse_ids = np.sort(
            np.random.default_rng(1).choice(10**7, size=dense.n, replace=False)
        )
        path = tmp_path / "sparse.txt"
        path.write_text(
            "# SNAP crawl\n"
            + "\n".join(
                f"{sparse_ids[t]}\t{sparse_ids[h]}" for t, h in zip(tails, heads)
            )
        )
        result = ingest_edge_list(str(path))
        assert result.graph == dense
        assert np.array_equal(result.original_ids, sparse_ids)
        assert result.raw_edges == dense.m
        assert result.self_loops_dropped == 0
        assert result.duplicates_dropped == 0

    def test_self_loops_and_duplicates_accounted(self, tmp_path):
        (tmp_path / "g.txt").write_text("5 5\n5 9\n9 5\n5 9\n")
        result = ingest_edge_list(str(tmp_path / "g.txt"))
        assert result.graph.n == 2 and result.graph.m == 2
        assert result.raw_edges == 4
        assert result.self_loops_dropped == 1
        assert result.duplicates_dropped == 1
        assert (
            result.graph.m
            + result.self_loops_dropped
            + result.duplicates_dropped
            == result.raw_edges
        )

    def test_keep_duplicates_and_loops(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 0\n0 1\n0 1\n")
        result = ingest_edge_list(
            str(tmp_path / "g.txt"),
            remap_ids=False,
            drop_self_loops=False,
            dedupe=False,
        )
        assert result.graph.m == 3
        assert result.self_loops_dropped == 0 and result.duplicates_dropped == 0

    def test_negative_ids_rejected(self, tmp_path):
        (tmp_path / "g.txt").write_text("-1 2\n")
        with pytest.raises(GraphError, match="negative"):
            ingest_edge_list(str(tmp_path / "g.txt"))

    def test_no_remap_validates_against_declared_n(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1\n1 7\n")
        with pytest.raises(GraphError):
            ingest_edge_list(str(tmp_path / "g.txt"), remap_ids=False, n=4)

    def test_remap_with_too_small_declared_n_rejected(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
        with pytest.raises(GraphError):
            ingest_edge_list(str(tmp_path / "g.txt"), n=2)

    def test_empty_file(self, tmp_path):
        (tmp_path / "g.txt").write_text("# nothing here\n")
        result = ingest_edge_list(str(tmp_path / "g.txt"))
        assert result.graph.n == 0 and result.graph.m == 0

    def test_stats_row_shape(self, tmp_path):
        (tmp_path / "g.txt").write_text("0 1\n")
        row = ingest_edge_list(str(tmp_path / "g.txt")).stats_row()
        assert row["nodes"] == 2 and row["arcs"] == 1 and row["remapped"]


class TestIngestCache:
    def test_cache_hit_is_equivalent(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("100 200\n200 300\n100 100\n100 200\n")
        cache = str(tmp_path / "g.npz")
        first = ingest_cached(str(path), cache)
        assert (tmp_path / "g.npz").exists()
        second = ingest_cached(str(path), cache)
        assert second.graph == first.graph
        assert np.array_equal(second.original_ids, first.original_ids)
        assert second.raw_edges == first.raw_edges
        assert second.self_loops_dropped == first.self_loops_dropped
        assert second.duplicates_dropped == first.duplicates_dropped

    def test_cache_invalidated_by_source_edit(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        cache = str(tmp_path / "g.npz")
        assert ingest_cached(str(path), cache).graph.m == 1
        path.write_text("0 1\n1 2\n9 4\n")
        # force a different mtime even on coarse filesystems
        import os

        os.utime(path, ns=(1, 1))
        assert ingest_cached(str(path), cache).graph.m == 3

    def test_cache_invalidated_by_option_change(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n")
        cache = str(tmp_path / "g.npz")
        assert ingest_cached(str(path), cache).graph.m == 1
        kept = ingest_cached(
            str(path), cache, drop_self_loops=False, remap_ids=False
        )
        assert kept.graph.m == 2

    def test_default_cache_path(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        ingest_cached(str(path))
        assert (tmp_path / "g.txt.ingest.npz").exists()

    def test_corrupt_cache_falls_back(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        cache = tmp_path / "g.npz"
        cache.write_bytes(b"not an npz archive")
        assert ingest_cached(str(path), str(cache)).graph.m == 1


class TestNpzIO:
    def test_round_trip(self, tmp_path):
        g = erdos_renyi(60, 0.1, seed=4)
        path = str(tmp_path / "g.npz")
        save_npz(g, path)
        assert load_npz(path) == g

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(GraphError):
            load_npz(str(tmp_path / "nope.npz"))

    def test_legacy_archive_without_flags(self, tmp_path):
        g = erdos_renyi(20, 0.1, seed=2)
        tails, heads = g.edge_array()
        path = str(tmp_path / "legacy.npz")
        np.savez_compressed(path, n=np.int64(g.n), tails=tails, heads=heads)
        assert load_npz(path) == g
