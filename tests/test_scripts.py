"""Smoke runs of the experiment scripts that call the fitters, in process
and into a temporary directory."""

import csv
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parents[1] / "scripts"


def script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rows_of(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_table_rows(tmp_path, capsys):
    code = script("run_table_rows").main(
        ["--rows", "basic", "--runs", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert "FAILED" not in capsys.readouterr().err
    rows = rows_of(tmp_path / "basic.csv")
    assert [row["run"] for row in rows] == ["0", "summary"]


@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_run_table_rows_refuses_runs_below_one(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        script("run_table_rows").main(["--runs", value, "--out-dir", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "must be an integer of at least 1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_compare_conservative(tmp_path):
    out = tmp_path / "cmp.csv"
    code = script("compare_conservative").main(
        ["--datasets", "1", "--completions", "1", "--n", "100", "--out", str(out)]
    )
    assert code == 0
    [row] = rows_of(out)
    assert float(row["ce_aim"]) >= 0.0 and float(row["score"]) >= 0.0


@pytest.mark.parametrize("flag", ["--datasets", "--completions", "--n", "--z"])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_compare_conservative_refuses_counts_below_one(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        script("compare_conservative").main([flag, value, "--out", str(tmp_path / "c.csv")])
    assert exc.value.code == 2
    assert "must be an integer of at least 1" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()
