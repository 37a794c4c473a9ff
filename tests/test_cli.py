"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "comd"])
        args_dict = vars(args)
        assert args_dict["design"] == "PCSTALL"
        assert args_dict["objective"] == "ed2p"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "not-a-workload"])

    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        import os
        import re

        from repro import __version__

        pyproject = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
        with open(pyproject, "r", encoding="utf-8") as handle:
            match = re.search(r'^version\s*=\s*"([^"]+)"', handle.read(), re.M)
        assert match is not None
        assert match.group(1) == __version__


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "comd" in out and "dgemm" in out

    def test_designs(self, capsys):
        assert main(["designs"]) == 0
        out = capsys.readouterr().out
        assert "PCSTALL" in out and "HISTORY" in out

    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        assert "328" in capsys.readouterr().out

    def test_run_small(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "out.json"
        rc = main([
            "run", "comd", "--design", "STATIC@1.7", "--cus", "2", "--waves", "4",
            "--scale", "0.1", "--max-epochs", "50", "--json", str(path),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        assert "ED2P" in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert data["workload"] == "comd"
        assert not (tmp_path / ".repro_cache").exists()

    def test_compare_small(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "compare", "xsbench", "--designs", "STATIC@1.7,STALL", "--cus", "2",
            "--waves", "4", "--scale", "0.1", "--max-epochs", "50",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "STALL" in out
        assert not (tmp_path / ".repro_cache").exists()

    def test_profile_with_csv(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        rc = main([
            "profile", "comd", "--cus", "2", "--waves", "4", "--scale", "0.1",
            "--max-epochs", "5", "--csv", str(path),
        ])
        assert rc == 0
        assert path.exists()
        assert "same-PC" in capsys.readouterr().out

    def test_cap_objective_parse(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "run", "xsbench", "--design", "PCSTALL", "--cus", "2", "--waves", "4",
            "--scale", "0.1", "--max-epochs", "40", "--objective", "cap5",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        assert not (tmp_path / ".repro_cache").exists()


class TestFaultTolerantSweeps:
    FIGURE = [
        "figure", "fig14", "--workloads", "comd", "--designs", "STALL",
        "--cus", "2", "--waves", "4", "--scale", "0.1", "--max-epochs", "40",
    ]

    def test_figure_resume_round_trip(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(self.FIGURE + cache) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "checkpoints" / "figure-fig14.manifest.jsonl").exists()

        assert main(self.FIGURE + cache + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed from checkpoint" in second
        # The resumed run renders the same figure rows.
        assert first.splitlines()[:5] == second.splitlines()[:5]

    def test_resume_requires_cache(self):
        with pytest.raises(SystemExit):
            main(self.FIGURE + ["--no-cache", "--resume"])

    def test_bad_retries_rejected(self):
        with pytest.raises(SystemExit):
            main(self.FIGURE + ["--no-cache", "--retries", "0"])

    def test_run_retries_under_fault_plan(self, capsys, monkeypatch):
        from repro.runtime.faults import FAULT_PLAN_ENV, FaultPlan, FaultSpec

        plan = FaultPlan((FaultSpec("comd/*", "raise", attempts=1),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        rc = main([
            "run", "comd", "--design", "STATIC@1.7", "--cus", "2", "--waves", "4",
            "--scale", "0.1", "--max-epochs", "40", "--no-cache",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault tolerance: 1 retry" in out
