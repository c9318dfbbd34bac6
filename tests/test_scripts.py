"""The experiment scripts under scripts/ run end to end."""

import csv
import importlib.util
from pathlib import Path

import pytest

from wkorient.cli import table1_rows

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
