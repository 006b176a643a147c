"""Smoke runs of the examples that drive the trace-analysis API.

Each example's ``main()`` runs end to end at a small scale; the checks
only pin that its report has a row of data.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SMALL = ["--seed", "3", "--scale", "0.005"]


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, arguments, expected",
    [
        ("last_mile_study", [*SMALL, "--days", "2"], "EU         SC home (RTR-ISP)"),
        ("edge_feasibility", [*SMALL, "--days", "2"], "Europe "),
        ("peering_case_studies", SMALL, "Bahrain -> India"),
    ],
)
def test_example_runs(name, arguments, expected, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *arguments])
    load(name).main()
    assert expected in capsys.readouterr().out
