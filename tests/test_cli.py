"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _dataset_kwargs, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_validates_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--dataset", "epinions_syn", "--algorithm", "MAGIC"]
            )

    @pytest.mark.parametrize("command", ["tightness", "datasets", "table"])
    def test_engine_flags_rejected_where_nothing_solves(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "4"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            *(["tightness", *flag] for flag in (
                ["--eps", "0.01"], ["--theta-cap", "5"], ["--n", "3"],
                ["--h", "9"], ["--seed", "1"], ["--grid", "paper"],
            )),
            *(["table", "--which", "2", *flag] for flag in (
                ["--eps", "0.01"], ["--theta-cap", "5"], ["--h", "9"],
                ["--seed", "1"], ["--grid", "paper"],
            )),
            *(["datasets", *flag] for flag in (
                ["--h", "9"], ["--eps", "0.01"], ["--seed", "1"], ["--grid", "paper"],
            )),
            ["serve", "--n", "3"],
            ["serve", "--h", "9"],
            ["serve", "--grid", "paper"],
            ["run", "--dataset", "epinions_syn", "--grid", "paper"],
        ],
        ids=" ".join,
    )
    def test_flags_rejected_where_ignored(self, argv):
        """Each sizing, accuracy and grid flag exists only on the
        commands that read it; elsewhere it is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("flixster_syn", "epinions_syn", "dblp_syn", "livejournal_syn"):
            assert name in out

    def test_tightness(self, capsys):
        assert main(["tightness"]) == 0
        out = capsys.readouterr().out
        assert "optimal revenue" in out
        assert "6.00" in out  # OPT of the Figure-1 instance
        assert "3.00" in out  # adversarial CA-GREEDY
        assert "0.50" in out  # Theorem 2 bound

    def test_run_small(self, capsys):
        code = main(
            [
                "run",
                "--dataset", "epinions_syn",
                "--algorithm", "TI-CSRM",
                "--incentives", "linear",
                "--alpha", "1.0",
                "--n", "300",
                "--h", "3",
                "--eps", "0.8",
                "--theta-cap", "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TI-CSRM" in out
        assert "revenue" in out

    def test_sweep_small(self, capsys):
        code = main(
            [
                "sweep",
                "--dataset", "epinions_syn",
                "--models", "constant",
                "--algorithms", "TI-CSRM", "TI-CARM",
                "--n", "300",
                "--h", "3",
                "--eps", "0.8",
                "--theta-cap", "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TI-CSRM" in out and "TI-CARM" in out
        assert "constant" in out

    def test_table2(self, capsys):
        code = main(["table", "--which", "2", "--n", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget mean" in out

    def test_table1(self, capsys):
        code = main(["table", "--which", "1", "--n", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "#nodes" in out
        assert "livejournal_syn" in out


class TestSizing:
    def test_livejournal_n_rounds_to_nearest_power_of_two(self):
        # 1000 is nearer to 1024 (2^10) than 512 (2^9); the old
        # bit_length()-1 mapping silently built 512 nodes.
        args = build_parser().parse_args(
            ["run", "--dataset", "livejournal_syn", "--n", "1000"]
        )
        assert _dataset_kwargs(args)["scale"] == 10

    def test_livejournal_exact_power_kept(self):
        args = build_parser().parse_args(
            ["run", "--dataset", "livejournal_syn", "--n", "512"]
        )
        assert _dataset_kwargs(args)["scale"] == 9

    def test_livejournal_scale_floor(self):
        args = build_parser().parse_args(
            ["run", "--dataset", "livejournal_syn", "--n", "10"]
        )
        assert _dataset_kwargs(args)["scale"] == 6

    def test_run_header_echoes_effective_n(self, capsys):
        code = main(
            [
                "run",
                "--dataset", "livejournal_syn",
                "--n", "200",
                "--h", "2",
                "--eps", "1.0",
                "--theta-cap", "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n=256" in out  # 200 -> 2^8
        assert "requested --n 200" in out


class TestGridCommand:
    SPEC = {
        "name": "cli_smoke",
        "datasets": [
            {"name": "epinions_syn", "n": 120, "h": 2, "singleton_rr_samples": 400}
        ],
        "algorithms": ["TI-CARM"],
        "alphas": [0.5],
        "config": {"eps": 1.0, "theta_cap": 100},
    }

    def test_grid_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["grid"])

    def test_grid_runs_and_resumes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        manifest = str(tmp_path / "m.jsonl")
        code = main(["grid", "--spec", str(spec_path), "--manifest", manifest])
        assert code == 0
        out = capsys.readouterr().out
        assert "cells=1" in out and "revenue" in out
        before = open(manifest).read()
        assert main(["grid", "--spec", str(spec_path), "--manifest", manifest]) == 0
        assert open(manifest).read() == before  # resumed, nothing re-ran


_RUN = ["run", "--dataset", "epinions_syn", "--n", "100"]


class TestMalformedInput:
    """A ``repro.errors`` failure prints one line and exits 2, the usage
    error code, instead of a traceback."""

    @pytest.mark.parametrize(
        "argv,error_type",
        [
            (_RUN + ["--h", "2", "--theta-cap", "-5"], "SpecError"),
            (_RUN + ["--h", "2", "--eps", "0"], "SpecError"),
            (_RUN + ["--h", "2", "--alpha", "-1"], "InstanceError"),
            (_RUN + ["--h", "0"], "InstanceError"),
            (["run", "--dataset", "epinions_syn", "--n", "0", "--h", "2"], "GraphError"),
            (["grid", "--spec", "{missing}.json"], "SpecError"),
            (["ingest", "{missing}.txt"], "GraphError"),
        ],
        ids=["theta-cap", "eps", "alpha", "h", "n", "grid-spec", "ingest-path"],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, argv, error_type):
        argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"error: {error_type}: ")
        assert err.count("\n") == 1


def test_grid_spec_without_datasets_exits_2(tmp_path, capsys):
    """A spec missing a required key fails with one typed error line."""
    path = tmp_path / "spec.json"
    path.write_text('{"name": "x"}')
    assert main(["grid", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SpecError: ") and err.count("\n") == 1


class TestIngestCommand:
    def test_ingest_reports_stats(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n100 200\n200 300\n100 100\n100 200\n")
        code = main(["ingest", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "self-loops dropped" in out and "#nodes" in out

    def test_ingest_with_cache(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        cache = tmp_path / "g.npz"
        assert main(["ingest", str(path), "--cache", str(cache)]) == 0
        assert cache.exists()
