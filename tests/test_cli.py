"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.arch == "riscv"
        assert args.group == 1
        assert args.command == "simulate"

    def test_table_arch_choice_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "--arch", "sparc"])

    def test_eq4_has_own_options(self):
        args = build_parser().parse_args(["eq4", "--scale", "0.5", "--count", "2"])
        assert args.scale == 0.5 and args.count == 2


class TestCommands:
    def test_simulate_prints_table(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--arch",
                "riscv",
                "--group",
                "1",
                "--scale",
                "0.1",
                "--count",
                "2",
                "--trace",
                "8000",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "t_ref [ms]" in output
        assert "group 1 on riscv" in output

    def test_simulate_rejects_a_negative_trace_budget(self, capsys):
        exit_code = main(["simulate", "--scale", "0.1", "--count", "1", "--trace", "-5"])
        assert exit_code == 2
        assert "invalid runtime configuration" in capsys.readouterr().err

    def test_eq4_prints_ranges(self, capsys):
        exit_code = main(["eq4", "--scale", "0.12", "--count", "1", "--trace", "8000"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "K min" in output and "riscv" in output

    def test_fig5_small_run(self, capsys, tmp_path):
        exit_code = main(
            [
                "fig5",
                "--arch",
                "riscv",
                "--group",
                "2",
                "--implementations",
                "10",
                "--scale",
                "0.1",
                "--repeats",
                "1",
                "--trace",
                "8000",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "included" in output and "excluded" in output
