"""The narrative scripts in demos/ run to completion in-process."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_certified_arithmetic",
        "02_presentations_and_ball_maps",
        "03_twisted_set_and_bit_extraction",
        "04_isometry_classifier",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
