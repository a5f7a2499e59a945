"""Command line interface: exit codes, overrides, table output, and the
README's command block, which names exactly the parser's subcommands and flags."""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from quantlink import cli
from quantlink.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

VALID_CONFIG = """
experiment = rate_vs_snr
snr_grid_db = 0
bits_grid = 1
n_rf_rx = 2
n_realizations = 1
methods = ci_exact
master_seed = 5
"""


def write_config(tmp_path, text=VALID_CONFIG):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


class TestValidate:
    def test_valid_config_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["validate", "--config", str(path)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, "n_realizations = 0\n")
        assert main(["validate", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "config error" in capsys.readouterr().err


class TestRun:
    def test_writes_csv_and_applies_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--seed", "99"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith(",99")  # master_seed override lands in the record

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "runtime error" in capsys.readouterr().err

    def test_threads_flag_reaches_the_sweep_and_defaults_to_one(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        seen = []
        sweep = cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config, threads: seen.append(threads) or sweep(config, threads=threads))
        out_default = tmp_path / "default.csv"
        out_two = tmp_path / "two.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out_default)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_two), "--threads", "2"]) == 0
        assert seen == [1, 2]
        assert out_default.read_bytes() == out_two.read_bytes()


class TestTables:
    def test_quantizer_table(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 9  # header + 8 resolutions
        first = lines[1].split()
        assert first[0] == "1"
        assert abs(float(first[1]) - (1.0 - 2.0 / np.pi)) < 1e-10
        # 2^b levels per row
        assert len(lines[8].split()) == 3 + 256

    def test_an_option_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--bits"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bits" in capsys.readouterr().err


def _readme_commands():
    """{subcommand: its --flags} of the fenced block under README's "## Command line"."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    commands = {}
    for line in section.split("```", 2)[1].strip().splitlines():
        program, command, *_ = line.split()
        assert program == "quantlink", line
        commands[command] = set(re.findall(r"--[a-z][a-z-]*", line))
    return commands


def _parser_commands():
    (sub,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {flag for a in parser._actions for flag in a.option_strings} - {"-h", "--help"}
        for command, parser in sub.choices.items()
    }


def test_readme_command_block_names_every_subcommand():
    assert sorted(_readme_commands()) == sorted(_parser_commands())


@pytest.mark.parametrize("command", sorted(_parser_commands()))
def test_readme_command_block_names_the_flags_of(command):
    assert _readme_commands().get(command) == _parser_commands()[command]
