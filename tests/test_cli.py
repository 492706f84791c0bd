"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.engine.engine import DarwinEngine

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "directions"
        assert args.traversal == "hybrid"
        assert args.budget == 60

    def test_run_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "reviews"])

    def test_compare_flags(self):
        args = build_parser().parse_args(
            ["compare", "--dataset", "musicians", "--seed-size", "50", "--biased"]
        )
        assert args.seed_size == 50
        assert args.biased is True


class TestCommands:
    def test_datasets_command_prints_table(self, capsys):
        exit_code = main(["datasets", "--scale", "0.02"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("directions", "musicians", "cause-effect", "professions", "tweets"):
            assert name in output

    def test_run_command_small(self, capsys):
        exit_code = main([
            "run", "--dataset", "directions", "--num-sentences", "500",
            "--budget", "8", "--epochs", "15", "--seed", "3",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "accepted" in output
        assert "coverage (recall over positives)" in output
        assert "progress by #questions" in output

    def test_run_command_with_explicit_seed_rule(self, capsys):
        exit_code = main([
            "run", "--dataset", "musicians", "--num-sentences", "500",
            "--budget", "5", "--epochs", "10", "--seed-rule", "composer",
        ])
        assert exit_code == 0
        assert "composer" in capsys.readouterr().out

    def test_compare_command_small(self, capsys):
        exit_code = main([
            "compare", "--dataset", "directions", "--scale", "0.04",
            "--seed-size", "25", "--budget", "10",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Snuba" in output
        assert "Darwin(HS)" in output


class TestCrossProcessResume:
    def test_run_checkpoint_then_resume_in_a_new_process(self, tmp_path, capsys):
        # The default run maps a temporary arena that is unlinked when the
        # first process exits, so the checkpoint must carry its columns.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")])
        )
        common = ["--dataset", "directions", "--num-sentences", "300",
                  "--epochs", "5", "--seed", "3"]
        checkpoint = str(tmp_path / "run.npz")

        def repro(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", "repro", *args], env=env,
                capture_output=True, text=True, timeout=300,
            )

        first = repro("run", *common, "--budget", "3", "--checkpoint", checkpoint)
        assert first.returncode == 0, first.stderr
        resumed = repro("resume", "--checkpoint", checkpoint, "--budget", "6")
        assert resumed.returncode == 0, resumed.stderr
        assert "3 questions already answered" in resumed.stdout

        straight = str(tmp_path / "straight.npz")
        assert main(["run", *common, "--budget", "6",
                     "--checkpoint", straight]) == 0
        capsys.readouterr()
        history = DarwinEngine.load(checkpoint).darwin.history
        assert len(history) == 6
        assert history == DarwinEngine.load(straight).darwin.history
