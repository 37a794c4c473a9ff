"""Command-line interface."""

import argparse
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.core.objectives import EDnPObjective, PerformanceCapObjective


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


#: The flags of the sweep commands, each with a value where it takes one.
SWEEP_FLAGS = [
    ["--workers", "2"], ["--no-cache"], ["--cache-dir", "d"], ["--retries", "2"],
]

#: Flags no command takes any more: re-running a sweep resumes it, and a
#: sweep serves only the workers it forks.
GONE_FLAGS = [["--resume"], ["--checkpoint", "c.jsonl"], ["--listen", "127.0.0.1:0"]]

#: Values ``build_parser()`` lets a user set, over every subcommand.
SETTABLE_VALUES = 127


def settable_values(parser: argparse.ArgumentParser) -> int:
    """Options and positionals of ``parser`` and of its subcommands,
    ``--help`` and ``--version`` left out (an alias counts once)."""
    count = 0
    subparsers = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
            continue
        if isinstance(action, argparse._SubParsersAction):
            subparsers.extend(action.choices.values())
            continue
        count += 1
    unique = {id(sub): sub for sub in subparsers}
    return count + sum(settable_values(sub) for sub in unique.values())


class TestEveryFlagActs:
    """A command accepts only the flags some code path of it reads."""

    @pytest.mark.parametrize(
        "argv",
        [[cmd, *head, *flag]
         for cmd, head in (("trace", ["dgemm"]), ("report", []), ("profile", ["comd"]))
         for flag in SWEEP_FLAGS + GONE_FLAGS]
        + [[cmd, *head, *flag]
           for cmd, head in (("run", ["comd"]), ("compare", ["comd"]), ("figure", ["fig15"]))
           for flag in GONE_FLAGS]
        + [["profile", "comd", "--objective", "ed2p"],
           # Selectors of the one job a command does.
           ["profile", "comd", "--hotpath"], ["report", "--accuracy"], ["check", "--quick"]],
        ids=lambda argv: " ".join(argv),
    )
    def test_flags_no_code_path_reads_are_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_report_needs_no_selector(self, capsys):
        assert main([
            "report", "--cus", "2", "--waves", "4", "--scale", "0.1", "--max-epochs", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "dgemm/PCSTALL" in out and "confusion" in out

    @pytest.mark.parametrize("command", [
        ["run", "comd"], ["compare", "comd"], ["figure", "fig15"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_an_argparse_error(self, command, workers, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--workers", workers, "--no-cache"])
        assert excinfo.value.code == 2
        assert f"--workers: must be at least 1, got {workers}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["replay", "trace.jsonl", "--retries"],
        ["serve", "--max-sessions"],
    ], ids=lambda argv: argv[-1])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_counts_below_one_are_argparse_errors(self, argv, count, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, count])
        assert excinfo.value.code == 2
        assert f"{argv[-1]}: must be at least 1, got {count}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["cap", "capx", "edxp", "cap150"])
    def test_malformed_objective_is_an_argparse_error(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "comd", "--objective", name, "--no-cache"])
        assert excinfo.value.code == 2
        assert f"invalid objective {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("name,expected", [
        ("edp", EDnPObjective(1)),
        ("ed2p", EDnPObjective(2)),
        ("cap5", PerformanceCapObjective(0.05)),
    ])
    def test_objective_names_parse_as_before(self, name, expected):
        from repro.cli import _objective
        from repro.runtime.cache import describe_objective

        args = build_parser().parse_args(["run", "comd", "--objective", name])
        assert describe_objective(_objective(args)) == describe_objective(expected)

    def test_worker_is_no_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["worker", "--connect", "127.0.0.1:1"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'worker'" in capsys.readouterr().err

    def test_settable_values_are_pinned(self):
        """Adding or removing an option changes this pin on purpose."""
        assert settable_values(build_parser()) == SETTABLE_VALUES


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

        # The same command again resumes from the cache: nothing computed.
        assert main(self.FIGURE + cache) == 0
        second = capsys.readouterr().out
        assert re.search(r"^cache misses +2$", first, re.M)
        assert re.search(r"^cache misses +0$", second, re.M)
        # The re-run renders the same figure rows, and writes no manifest.
        assert first.split("\n\n")[0] == second.split("\n\n")[0]
        assert not (tmp_path / "checkpoints").exists()

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
