"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.obs import validate_chrome_trace


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "w16", "gzip"])
        assert args.config == "w16" and args.benchmark == "gzip"
        assert args.instructions is None and not args.cold

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus", "gzip"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "table1"])
        assert args.name == "table1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.benchmarks is None and args.workers is None
        assert not args.no_cache and not args.clear_cache
        assert "w16" in args.configs

    def test_sweep_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--benchmarks", "bogus"])

    def test_pipeview_flag_forms(self):
        args = build_parser().parse_args(["run", "w16", "gzip"])
        assert args.pipeview is None
        args = build_parser().parse_args(["run", "w16", "gzip",
                                          "--pipeview"])
        assert args.pipeview == 32
        args = build_parser().parse_args(["run", "w16", "gzip",
                                          "--pipeview=8"])
        assert args.pipeview == 8

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "pr-2x8w", "gzip"])
        assert args.output == "repro-trace.json"
        assert args.limit == 200_000 and args.sample is None

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "w16", "gzip"])
        assert args.sample is None and not args.json


class TestCommands:
    def test_run_prints_metrics(self, capsys):
        assert main(["run", "w16", "gzip", "-n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "w16" in out

    def test_run_with_counters(self, capsys):
        assert main(["run", "pf-2x8w", "gzip", "-n", "1500",
                     "--counters"]) == 0
        out = capsys.readouterr().out
        assert "fetch.insts" in out

    def test_compare(self, capsys):
        assert main(["compare", "gzip", "--configs", "w16", "tc",
                     "-n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "w16" in out and "tc" in out

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "256-entry" in capsys.readouterr().out

    def test_bench_info(self, capsys):
        assert main(["bench-info", "--benchmarks", "mcf",
                     "-n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "avg frag" in out

    def test_cold_run(self, capsys):
        assert main(["run", "w16", "gzip", "-n", "1500", "--cold"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_sweep_runs_matrix_and_reports(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--configs", "w16", "tc",
                "--benchmarks", "gzip", "mcf", "-n", "1500",
                "--workers", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep summary" in out
        assert "executed      4" in out
        # Warm cache: the repeat sweep must execute nothing.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed      0" in out
        assert "disk hits     4" in out

    def test_sweep_clear_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--configs", "w16", "--benchmarks", "gzip",
                     "-n", "1500"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--clear-cache"]) == 0
        assert "cleared 1 cached result(s)" in capsys.readouterr().out

    def test_sweep_no_cache_leaves_disk_empty(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--configs", "w16", "--benchmarks", "gzip",
                     "-n", "1500", "--no-cache"]) == 0
        assert not list(tmp_path.glob("*.json"))


class TestObservabilityCommands:
    def test_run_json(self, capsys):
        assert main(["run", "w16", "gzip", "-n", "1500", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"] == "w16"
        assert payload["cycles"] > 0 and payload["ipc"] > 0
        assert "fetch.insts" in payload["counters"]

    def test_run_pipeview_renders_diagram(self, capsys):
        assert main(["run", "w16", "gzip", "-n", "1500",
                     "--pipeview=6"]) == 0
        out = capsys.readouterr().out
        assert "R=rename" in out and "C=commit" in out
        # Six instruction rows between the |...| cycle rails.
        assert sum(1 for line in out.splitlines()
                   if line.rstrip().endswith("|")) == 6

    def test_run_json_with_pipeview_summary(self, capsys):
        assert main(["run", "w16", "gzip", "-n", "1500", "--json",
                     "--pipeview"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"]["instructions"] > 0
        assert payload["pipeline"]["avg_lifetime_cycles"] > 0

    def test_run_sample_prints_gauge_summary(self, capsys):
        assert main(["run", "pr-2x8w", "gzip", "-n", "1500",
                     "--sample", "50"]) == 0
        out = capsys.readouterr().out
        assert "gauge" in out and "window.used" in out

    @pytest.mark.parametrize("flags", [
        ["--sampled", "4", "--pipeview", "5"],
        ["--sampled", "4", "--sample", "50"],
        ["--checkpoint", "2000", "--pipeview", "5"],
        ["--checkpoint", "2000", "--sample", "50"],
    ], ids=["sampled-pipeview", "sampled-sample", "checkpoint-pipeview",
            "checkpoint-sample"])
    def test_run_rejects_flag_the_mode_ignores(self, capsys, monkeypatch,
                                               tmp_path, flags):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        assert main(["run", "pr-2x8w", "gzip", "-n", "6000"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "mode" in captured.err

    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(["trace", "pr-2x8w", "gzip", "-n", "1500",
                     "-o", str(path), "--sample", "50"]) == 0
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) > 0
        assert "perfetto" in capsys.readouterr().out

    def test_profile_reports_phases(self, capsys):
        assert main(["profile", "w16", "gzip", "-n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "fetch" in out and "us/call" in out

    def test_profile_json(self, capsys):
        assert main(["profile", "w16", "gzip", "-n", "1500",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["profile"]) >= {"execute", "commit",
                                           "rename", "fetch"}

    def test_sweep_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--configs", "w16", "--benchmarks", "gzip",
                     "-n", "1500", "--workers", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 1
        assert payload["failures"] == []
        assert payload["summary"]["sweep.jobs"] == 1


class TestDurableSweepCli:
    def test_parser_checkpoint_and_resume_flags(self):
        args = build_parser().parse_args(["sweep", "--checkpoint", "500"])
        assert args.checkpoint == 500 and args.resume is None
        args = build_parser().parse_args(["sweep", "--resume"])
        assert args.resume == "latest"
        args = build_parser().parse_args(["sweep", "--resume", "cafe12"])
        assert args.resume == "cafe12"
        args = build_parser().parse_args(["run", "w16", "gzip",
                                          "--checkpoint", "500"])
        assert args.checkpoint == 500

    def test_sweep_writes_manifest_and_resumes(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "--configs", "w16", "--benchmarks", "gzip",
                "-n", "1500", "--checkpoint", "600", "--workers", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resume with: repro sweep --resume" in out
        sweep_id = out.split("sweep ")[1].split()[0]
        assert (tmp_path / "sweeps" / f"{sweep_id}.json").exists()

        # Explicit resume of the (completed) sweep serves from cache.
        assert main(["sweep", "--resume", sweep_id]) == 0
        out = capsys.readouterr().out
        assert f"resuming sweep {sweep_id}" in out
        assert "executed      0" in out
        assert "disk hits     1" in out

    def test_bare_resume_with_nothing_incomplete_fails(self, capsys,
                                                       tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--configs", "w16", "--benchmarks", "gzip",
                     "-n", "1500", "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--resume"]) == 1
        assert "no incomplete sweep" in capsys.readouterr().err

    def test_resume_unknown_id_fails(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["sweep", "--resume", "feedfacecafe"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_checkpoint_resumable_output_matches(self, capsys,
                                                     tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ck"))
        argv = ["run", "w16", "gzip", "-n", "1500", "--json",
                "--checkpoint", "600"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first
