"""The experiment scripts under scripts/ run end to end."""

import csv
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from wkorient import cli, models
from wkorient.cli import ExperimentConfig, run_trial, table1_rows
from wkorient.hypergraph import OrientationParams
from wkorient.ode import core_emergence

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_threshold_table_writes_the_reference_rows(tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert _load("make_threshold_table").main(["--out", str(out)]) == 0
    with open(out, newline="") as fh:
        written = list(csv.DictReader(fh))
    expected = table1_rows()
    assert [(int(r["h"]), int(r["w"]), int(r["k"])) for r in written] == [
        (r["h"], r["w"], r["k"]) for r in expected
    ]
    assert [(float(r["mu_tilde"]), float(r["mu_hat"])) for r in written] == [
        (r["mu_tilde"], r["mu_hat"]) for r in expected
    ]


def test_make_threshold_table_leaves_an_open_mu_hat_empty(tmp_path, capsys):
    # (2,1,1) emerges continuously: its core mean degree at mu_c is a limit
    out = tmp_path / "table.csv"
    assert _load("make_threshold_table").main(["--triple", "2,1,1", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["mu_tilde"], row["mu_hat"]) == ("1.0", "")


def test_make_threshold_table_times_each_solve_in_milliseconds(capsys):
    # a solve takes well under a millisecond: seconds would print 0.00
    assert _load("make_threshold_table").main(["--triple", "3,2,4"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["h", "w", "k", "mu_tilde", "mu_hat", "hk/w", "ms"]
    assert float(row.split()[-1]) > 0.0


def test_make_threshold_table_rejects_a_nonpositive_tolerance(capsys):
    with pytest.raises(SystemExit):
        _load("make_threshold_table").main(["--tol", "0"])
    assert "--tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_make_threshold_table_rejects_a_nonfinite_tolerance(tol, capsys):
    # a width bisection never gets under would return the seed bracket
    with pytest.raises(SystemExit):
        _load("make_threshold_table").main(["--tol", tol])
    assert f"--tol must be positive and finite, got {tol}" in capsys.readouterr().err


def _grid(tmp_path, *argv) -> list[float]:
    out = tmp_path / "emergence.csv"
    base = ["--k", "10", "--n", "300", "--trials", "1", "--points", "3"]
    assert _load("core_emergence").main([*base, *argv, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        return [float(r["mu_bar"]) for r in csv.DictReader(fh)]


def test_core_emergence_centres_its_grid_on_mu_c(tmp_path, capsys):
    _, mu_c = core_emergence(OrientationParams(3, 2, 10))
    assert _grid(tmp_path) == [round(f * mu_c, 4) for f in (0.8, 1.0, 1.2)]
    assert _grid(tmp_path, "--mu-lo", "14", "--mu-hi", "16") == [14.0, 15.0, 16.0]


def test_transition_sweep_matches_stream_matched_trials(tmp_path, capsys):
    # each grid fraction is the share of instances orientable there, read
    # off hitting loads: the run_trial verdicts on streams 0..trials-1
    sweep = _load("transition_sweep")
    out = tmp_path / "sweep.csv"
    argv = ["--n", "30", "--n", "90", "--trials", "6", "--window", "1.5", "--points", "7",
            "--seed", "4", "--out", str(out)]
    assert sweep.main(argv) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    grid = sweep.mean_degree_grid(OrientationParams(3, 2, 4), 1.5, 7)
    assert [(int(r["n"]), float(r["mu_bar"])) for r in rows] == [
        (n, round(mu, 5)) for n in (30, 90) for mu in grid
    ]
    fractions = []
    for row, mu in zip(rows, grid * 2):
        cfg = ExperimentConfig(3, 2, 4, int(row["n"]), mu, 6, 4, check_orientability=True)
        verdicts = [run_trial(cfg, t, t).orientable for t in range(6)]
        assert float(row["fraction"]) == sum(verdicts) / 6, row
        fractions.append(float(row["fraction"]))
    assert any(0 < f < 1 for f in fractions)  # the grid crosses the window


def test_line_scan_lists_the_lines_a_run_never_reaches():
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_scan.py"), "tests/test_models.py", "-q",
         "-p", "no:cacheprovider"],
        cwd=SCRIPTS.parent, capture_output=True, text=True, check=True,
    )
    listed = set(run.stdout.splitlines())
    cli_lines = inspect.getsource(cli).splitlines()
    exit_line = cli_lines.index("    sys.exit(main())") + 1
    assert f"src/wkorient/cli.py:{exit_line}" in listed  # test_models never runs the CLI
    body, first = inspect.getsourcelines(models.sample_uniform_multi)
    ran = {f"src/wkorient/models.py:{first + i}" for i in range(1, len(body))}
    assert not ran & listed
