"""The experiment scripts under scripts/ run end to end."""

import csv
import importlib.util
from pathlib import Path

import pytest

from wkorient.cli import table1_rows
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
