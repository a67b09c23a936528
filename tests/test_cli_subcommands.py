"""Tests for the subcommand CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.pipeline.cli import build_subcommand_parser, main as pipeline_main
from repro.srp.solver import COUNTERS


class TestSubcommands:
    def test_compress(self, capsys):
        code = pipeline_main(
            ["compress", "--topo", "ring", "--size", "5", "--executor", "serial"]
        )
        assert code == 0
        assert "compression pipeline" in capsys.readouterr().out

    def test_verify(self, capsys):
        code = pipeline_main(
            ["verify", "--topo", "ring", "--size", "5", "--executor", "serial"]
        )
        assert code == 0
        assert "batch verification" in capsys.readouterr().out

    def test_failures(self, capsys):
        code = pipeline_main(
            ["failures", "--topo", "ring", "--size", "5", "--executor", "serial",
             "--k", "1", "--sample", "3", "--no-oracle", "--no-soundness"]
        )
        assert code == 0
        assert "failure sweep" in capsys.readouterr().out

    def test_delta(self, capsys):
        code = pipeline_main(
            ["delta", "--topo", "ring", "--size", "5", "--executor", "serial",
             "--no-oracle", "--no-rebuild-oracle"]
        )
        assert code == 0
        assert "change-impact sweep" in capsys.readouterr().out

    def test_output_report_is_enveloped(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = pipeline_main(
            ["verify", "--topo", "ring", "--size", "5", "--executor", "serial",
             "--output", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "verification"
        assert data["ok"] is True
        from repro.reporting import load_report

        assert load_report(out.read_text()).kind == "verification"

    def test_family_required(self, capsys):
        code = pipeline_main(["verify", "--executor", "serial"])
        assert code == 2
        assert "topology family is required" in capsys.readouterr().err

    def test_unknown_subcommand_arguments(self, capsys):
        # Subcommand parsers reject flags from other modes outright.
        code = pipeline_main(["compress", "--topo", "ring", "--k", "2"])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert pipeline_main(["verify", "--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [["--scheduler", "static"], ["--cost-store", "store"]])
    def test_one_process_scheduler_has_no_scheduling_flags(self, capsys, flag):
        code = pipeline_main(["compress", "--topo", "ring", "--executor", "serial", *flag])
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_verify_exceeding_memory_budget_exits_one(self, capsys):
        code = pipeline_main(
            ["verify", "--family", "ring", "--executor", "serial", "--memory-budget", "1"]
        )
        assert code == 1
        assert "EXCEEDS budget 1.0 MiB" in capsys.readouterr().out

    def test_verify_within_memory_budget_exits_zero(self, capsys):
        code = pipeline_main(
            ["verify", "--family", "ring", "--executor", "serial",
             "--memory-budget", "1000000"]
        )
        assert code == 0
        assert "within budget" in capsys.readouterr().out


class TestStoreAndServeSubcommands:
    def test_store_save_list_info(self, tmp_path, capsys):
        root = tmp_path / "artifacts"
        code = pipeline_main(
            ["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saved ring(5)" in out and "5 classes" in out

        code = pipeline_main(["store", "list", "--store", str(root)])
        assert code == 0
        assert "ring-5" in capsys.readouterr().out

        code = pipeline_main(
            ["store", "info", "--topo", "ring", "--size", "5", "--store", str(root)]
        )
        assert code == 0
        assert "entry verifies" in capsys.readouterr().out

    def test_store_info_refuses_corrupt_entry(self, tmp_path, capsys):
        root = tmp_path / "artifacts"
        code = pipeline_main(
            ["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)]
        )
        assert code == 0
        capsys.readouterr()
        entry = next(child for child in root.iterdir() if child.is_dir())
        payload = entry / "payload.pkl"
        payload.write_bytes(payload.read_bytes()[:-10])
        code = pipeline_main(["store", "info", "--fingerprint", entry.name, "--store", str(root)])
        assert code == 1
        assert "REFUSED" in capsys.readouterr().err

    def test_entry_with_legacy_costs_sidecar_still_serves(self, tmp_path, capsys):
        """A ``costs.json`` left by releases that recorded per-class
        scheduling costs is ignored: the entry still verifies and still
        seeds a warm delta run."""
        root = tmp_path / "artifacts"
        code = pipeline_main(
            ["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)]
        )
        assert code == 0
        entry = next(child for child in root.iterdir() if child.is_dir())
        legacy = Path(__file__).parent / "fixtures" / "legacy_costs_ring5.json"
        assert json.loads(legacy.read_text())["fingerprint"] == entry.name
        (entry / "costs.json").write_text(legacy.read_text())
        capsys.readouterr()

        code = pipeline_main(["store", "info", "--fingerprint", entry.name, "--store", str(root)])
        assert code == 0
        out = capsys.readouterr().out
        assert "entry verifies" in out and "costs" not in out

        COUNTERS.reset()
        code = pipeline_main(
            ["delta", "--topo", "ring", "--size", "5", "--executor", "serial",
             "--baseline", str(entry), "--no-oracle", "--no-revalidate",
             "--no-rebuild-oracle"]
        )
        assert code == 0
        assert COUNTERS.snapshot()["scratch_solves"] == 0

    def test_store_list_empty(self, tmp_path, capsys):
        code = pipeline_main(["store", "list", "--store", str(tmp_path / "none")])
        assert code == 0
        assert "no artifacts" in capsys.readouterr().out

    def test_delta_baseline_zero_resolves(self, tmp_path, capsys):
        root = tmp_path / "artifacts"
        code = pipeline_main(
            ["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)]
        )
        assert code == 0
        COUNTERS.reset()
        code = pipeline_main(
            ["delta", "--topo", "ring", "--size", "5", "--executor", "serial",
             "--baseline", str(root), "--no-oracle", "--no-revalidate",
             "--no-rebuild-oracle"]
        )
        assert code == 0
        assert COUNTERS.snapshot()["scratch_solves"] == 0
        out = capsys.readouterr().out
        assert "warm baseline" in out and "seeded from the store" in out

    def test_delta_baseline_entry_dir(self, tmp_path, capsys):
        root = tmp_path / "artifacts"
        pipeline_main(["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)])
        capsys.readouterr()
        entry = next(child for child in root.iterdir() if child.is_dir())
        code = pipeline_main(
            ["delta", "--topo", "ring", "--size", "5", "--executor", "serial",
             "--baseline", str(entry), "--no-oracle", "--no-revalidate",
             "--no-rebuild-oracle"]
        )
        assert code == 0
        assert "warm baseline" in capsys.readouterr().out

    def test_delta_baseline_mismatch_refused(self, tmp_path, capsys):
        root = tmp_path / "artifacts"
        pipeline_main(["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)])
        capsys.readouterr()
        code = pipeline_main(
            ["delta", "--topo", "mesh", "--size", "4", "--executor", "serial",
             "--baseline", str(root), "--no-oracle"]
        )
        assert code == 1
        assert "cannot use baseline artifact" in capsys.readouterr().err

    def test_serve_usage_errors(self, capsys):
        code = pipeline_main(["serve", "--topo", "ring", "--family", "ring"])
        assert code == 2
        assert "not both" in capsys.readouterr().err
        code = pipeline_main(["serve", "--family", "all"])
        assert code == 2
        assert "exactly one topology family" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert pipeline_main([]) == 2
        assert pipeline_main(["--topo", "ring", "--size", "5"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert pipeline_main(["bogus", "--topo", "ring"]) == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_mode_specific_flags_name_the_flag(self, capsys):
        code = pipeline_main(["verify", "--topo", "ring", "--baseline", "x"])
        assert code == 2
        assert "--baseline" in capsys.readouterr().err

        code = pipeline_main(["compress", "--family", "all", "--topo", "ring"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_main_never_raises_system_exit(self):
        # argparse would normally sys.exit(2); main converts to int.
        assert pipeline_main(["--bogus-flag"]) == 2
        assert pipeline_main(["--help"]) == 0

    def test_subcommand_names(self):
        parser = build_subcommand_parser()
        (commands,) = [
            action for action in parser._actions if action.dest == "command"
        ]
        assert set(commands.choices) == {
            "compress", "verify", "failures", "delta", "store", "serve",
            "trace", "profile", "bench",
        }
