"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import json

import pytest

import repro.io.index
from repro.cli import build_parser, main
from repro.io import ResultStore


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "fast-gossiping"
        assert args.nodes == 1024

    def test_scenario_names(self):
        args = build_parser().parse_args(["scenarios", "run", "figure1"])
        assert args.names == ["figure1"]
        # `scenarios run` is the one way to run an experiment.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure1"])


class TestRunCommand:
    def test_run_memory_protocol(self, capsys):
        code = main(["run", "--protocol", "memory", "-n", "256", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "memory" in out
        assert "packets/node" in out

    def test_run_json_output(self, capsys):
        code = main(["run", "--protocol", "push-pull", "-n", "128", "--seed", "1", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["protocol"] == "push-pull"
        assert data["completed"] is True

    def test_run_on_complete_graph(self, capsys):
        code = main(["run", "--graph", "complete", "-n", "128", "--seed", "2"])
        assert code == 0
        assert "complete(n=128)" in capsys.readouterr().out


class TestScenariosCommand:
    def test_list(self, capsys):
        code = main(["scenarios", "list"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("figure1", "table1", "density", "graph-models"):
            assert name in out

    def test_figure2_with_out_and_plot(self, tmp_path, capsys):
        code = main(
            ["scenarios", "run", "figure2", "--seed", "7", "--plot", "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "loss" in out
        assert "legend:" in out  # the ASCII plot was rendered
        assert (tmp_path / "figure2_rows.csv").exists()
        assert (tmp_path / "figure2_rows.json").exists()

    def test_run_smoke_with_store(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            ["scenarios", "run", "figure2", "--smoke", "--out", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "loss" in out
        assert (out_dir / "store" / "figure2.jsonl").exists()
        assert (out_dir / "figure2_rows.json").exists()
        assert (out_dir / "figure2_rows.csv").exists()

    def test_rerun_without_resume_fails(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        assert main(["scenarios", "run", "figure2", "--smoke", "--out", out_dir]) == 0
        capsys.readouterr()
        code = main(["scenarios", "run", "figure2", "--smoke", "--out", out_dir])
        captured = capsys.readouterr()
        assert code == 1
        assert "resume" in captured.err

    def test_resume_reproduces_store(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["scenarios", "run", "figure2", "--smoke", "--out", str(out_dir)]) == 0
        store_file = out_dir / "store" / "figure2.jsonl"
        full = store_file.read_bytes()
        # Simulate a kill: drop the last record plus append half a line.
        lines = full.splitlines(keepends=True)
        store_file.write_bytes(b"".join(lines[:-1]) + lines[-1][:10])
        code = main(
            ["scenarios", "run", "figure2", "--smoke", "--out", str(out_dir), "--resume"]
        )
        assert code == 0
        assert store_file.read_bytes() == full

    def test_resume_requires_out(self, capsys):
        code = main(["scenarios", "run", "figure2", "--smoke", "--resume"])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_unknown_scenario(self, capsys):
        code = main(["scenarios", "run", "not-a-scenario"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["scenarios", "run", "figure2"])
        assert args.max_retries == 2
        assert args.timeout is None
        assert args.chaos is None
        assert args.chaos_seed == 0
        assert args.chaos_attempts == 1

    def test_invalid_chaos_spec(self, capsys):
        code = main(["scenarios", "run", "figure2", "--smoke", "--chaos", "meteor=1"])
        assert code == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_chaos_run_completes_clean(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            [
                "scenarios", "run", "figure2", "--smoke",
                "--out", str(out_dir),
                "--chaos", "kill=1,error=1",
                "--chaos-seed", "7",
                "--max-retries", "3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "supervision:" in captured.err
        assert "0 quarantined" in captured.err
        assert (out_dir / "store" / "figure2.jsonl").exists()
        assert (out_dir / "figure2_rows.json").exists()

    def test_quarantine_exits_nonzero(self, capsys):
        # A fault outliving the retry budget simulates a poison configuration:
        # the run finishes (degraded) and exits 3 rather than aborting.
        code = main(
            [
                "scenarios", "run", "figure2", "--smoke",
                "--chaos", "error=1",
                "--chaos-attempts", "99",
                "--max-retries", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "quarantined" in captured.err

    def test_keyboard_interrupt_prints_resume_command(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_scenario", interrupt)
        code = main(
            ["scenarios", "run", "figure2", "--smoke", "--out", str(tmp_path / "out")]
        )
        captured = capsys.readouterr()
        assert code == 130
        assert "safely on disk" in captured.err
        assert "resume with" in captured.err
        assert "--resume" in captured.err
        assert "figure2" in captured.err
        # Default supervision flags are left out of the resume command.
        assert "--max-retries" not in captured.err
        assert "--timeout" not in captured.err

        code = main(
            [
                "scenarios", "run", "figure2", "--smoke", "--out", str(tmp_path / "out"),
                "--max-retries", "5", "--timeout", "30", "--jobs", "2",
            ]
        )
        resume = capsys.readouterr().err.split("resume with:")[1].strip()
        assert code == 130
        assert "--max-retries 5" in resume
        assert "--timeout 30.0" in resume
        assert "--jobs 2" in resume

    def test_run_table1_scenario(self, capsys):
        code = main(["scenarios", "run", "table1", "--smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "algorithm1_fast_gossiping" in out

    def test_run_multiple_scenarios(self, capsys):
        code = main(["scenarios", "run", "table1", "election", "--smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "algorithm1_fast_gossiping" in out
        assert "budgeted" in out


class TestOtherCommands:
    def test_table1_command(self, capsys):
        code = main(["table1", "1024"])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase1_distribution_steps" in out
        assert "fanout" in out

    def test_graph_info(self, capsys):
        code = main(["graph-info", "-n", "256", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_degree" in out
        assert "connected" in out


class TestBadGraphInput:
    """Unusable sizes and degrees give one error line and exit code 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--nodes", "0"], "n must be positive, got 0"),
            (["run", "--nodes", "1"], "gossiping requires at least two nodes"),
            (["run", "-n", "64", "--expected-degree", "-3"], "p must be in [0, 1]"),
            (["run", "-n", "64", "--expected-degree", "0"], "connected G(64, 0)"),
            (["graph-info", "--nodes", "0"], "n must be positive, got 0"),
            (["graph-info", "-n", "64", "--expected-degree", "-3"], "p must be in"),
            (["graph-info", "-n", "64", "--expected-degree", "0"], "connected G(64"),
        ],
    )
    def test_reported_as_error(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.out == ""


@pytest.fixture(scope="module")
def smoke_store(tmp_path_factory):
    """One figure2 smoke run whose store backs the `repro results` tests."""
    out_dir = tmp_path_factory.mktemp("results-cli")
    assert main(["scenarios", "run", "figure2", "--smoke", "--out", str(out_dir)]) == 0
    return out_dir / "store"


class TestResultsCommand:
    def test_stats_overview(self, smoke_store, capsys):
        code = main(["results", "stats", str(smoke_store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure2" in out
        assert "records" in out

    def test_stats_metrics(self, smoke_store, capsys):
        code = main(["results", "stats", str(smoke_store), "figure2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "metric" in out
        assert "p50" in out and "p99" in out

    def test_stats_group_by_json(self, smoke_store, capsys):
        code = main(
            [
                "results", "stats", str(smoke_store), "figure2",
                "--group-by", "n", "--metrics", "rounds", "--json",
            ]
        )
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rows and all("n" in row and "repetitions" in row for row in rows)

    def test_query_json_rows_carry_identity(self, smoke_store, capsys):
        code = main(["results", "query", str(smoke_store), "figure2", "--json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rows and {"config", "repetition", "seed"} <= set(rows[0])

    def test_query_where_and_limit(self, smoke_store, capsys):
        code = main(
            [
                "results", "query", str(smoke_store), "figure2",
                "--where", "repetition=0", "--limit", "1", "--json",
            ]
        )
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(rows) == 1
        assert rows[0]["repetition"] == 0

    def test_query_bad_where(self, smoke_store, capsys):
        code = main(["results", "query", str(smoke_store), "figure2", "--where", "oops"])
        assert code == 2
        assert "FIELD=VALUE" in capsys.readouterr().err

    def test_rebuild(self, smoke_store, capsys):
        code = main(["results", "rebuild", str(smoke_store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "rebuilt figure2" in out

    def test_missing_store_dir(self, tmp_path, capsys):
        code = main(["results", "stats", str(tmp_path / "nope")])
        assert code == 2
        assert "not a store directory" in capsys.readouterr().err

    def test_stats_unknown_group_by_field(self, smoke_store, capsys):
        code = main(["results", "stats", str(smoke_store), "figure2", "--group-by", "nosuch"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "'nosuch'" in err

    def test_query_invalid_scenario_name(self, smoke_store, capsys):
        code = main(["results", "query", str(smoke_store), "../x"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "invalid scenario name" in err

    def test_stats_non_numeric_metric(self, tmp_path, capsys):
        with ResultStore(tmp_path) as store:
            for n in (64, 128):
                store.append(
                    "figure1", key=[n], params={}, repetition=0, seed=n,
                    record={"n": n, "graph": "complete", "rounds": 3},
                )
        code = main(
            ["results", "stats", str(tmp_path), "figure1", "--group-by", "n", "--metrics", "graph"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "'graph' is not numeric" in err

    def test_disabled_index_is_an_error(self, smoke_store, capsys, monkeypatch):
        """Without sqlite3 there is no index to query."""
        monkeypatch.setattr(repro.io.index, "index_available", lambda: False)
        code = main(["results", "stats", str(smoke_store)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sqlite3" in err


class TestCacheFromOption:
    def test_cache_from_requires_out(self, capsys):
        code = main(
            ["scenarios", "run", "figure2", "--smoke", "--cache-from", "/tmp/x"]
        )
        assert code == 2
        assert "--cache-from requires --out" in capsys.readouterr().err

    def test_cache_from_must_be_directory(self, tmp_path, capsys):
        code = main(
            [
                "scenarios", "run", "figure2", "--smoke",
                "--out", str(tmp_path / "out"),
                "--cache-from", str(tmp_path / "missing"),
            ]
        )
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_cache_from_serves_all_pairs(self, smoke_store, tmp_path, capsys):
        code = main(
            [
                "scenarios", "run", "figure2", "--smoke",
                "--out", str(tmp_path / "fresh"),
                "--cache-from", str(smoke_store),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "from --cache-from" in captured.err
        assert "0 executed" in captured.err

    def test_warm_rerun_reports_full_cache(self, smoke_store, capsys):
        code = main(
            [
                "scenarios", "run", "figure2", "--smoke",
                "--out", str(smoke_store.parent), "--resume",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "cache:" in captured.err
        assert "0 executed" in captured.err
