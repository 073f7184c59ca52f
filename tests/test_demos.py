"""Every script under demos/ runs to its end in process, with its printed
report captured, so that a change to the package surface it imports shows
up here."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["boundary_criteria", "convergence_order", "monotone_coupling", "rate_predictions", "time_change"]
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
