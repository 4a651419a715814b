"""Tests for the sweep scripts' command lines."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(monkeypatch, name, *argv):
    monkeypatch.setattr("sys.argv", [f"{name}.py", *argv])
    return load_script(name).main()


@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_run_fig2_bad_threads_is_a_usage_error(monkeypatch, capsys, threads):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, "run_fig2", "--threads", threads)
    assert exc.value.code == 2
    assert "argument --threads: must be a positive integer" in capsys.readouterr().err


def test_run_fig2_small_grid_runs(monkeypatch, capsys, tmp_path):
    out = tmp_path / "fig2.csv"
    rc = run_script(
        monkeypatch, "run_fig2", "--n", "4", "--m-max", "1", "--eps", "0.01",
        "--samples", "2", "--threads", "2", "--out", str(out),
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,M,eps,mean_error,stderr,samples"
    assert len(lines) == 2 and lines[1].startswith("4,1,0.01,")
    assert json.loads(Path(f"{out}.meta.json").read_text())["config"]["threads"] == 2


def test_run_fig3_has_no_threads_flag(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, "run_fig3", "--threads", "2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv, fragment", [
    ("run_fig3", ["--samples", "0"], "argument --samples: must be a positive integer"),
    ("run_fig3", ["--n", "1"], "argument --n: must be an integer >= 2"),
    ("run_fig3", ["--eps", "1.0"], "argument --eps: noise amplitude must lie in [0, 1)"),
    ("run_fig2", ["--n", "5"], "argument --n: must be an even integer >= 4"),
    ("run_fig2", ["--seed", "-1"], "argument --seed: must be an integer >= 0"),
    ("run_fig2", ["--m-min", "4", "--m-max", "3"], "argument --m-max: must be >= --m-min"),
    ("verify_all", ["--n-max", "1"], "argument --n-max: must be an integer >= 2"),
])
def test_script_flags_out_of_range_are_usage_errors(monkeypatch, capsys, name, argv, fragment):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, name, *argv)
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_run_fig3_small_grid_runs(monkeypatch, capsys, tmp_path):
    out = tmp_path / "fig3.csv"
    rc = run_script(
        monkeypatch, "run_fig3", "--n", "4", "--eps", "0.01", "--samples", "3", "--out", str(out)
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,eps,mean_error,stderr,samples"
    assert len(lines) == 2 and lines[1].startswith("4,0.01,")
