"""CLI reports pinned byte for byte.

The files under tests/golden/ hold the reports of these invocations, in both
formats, and pin floats such as the adversary's minimum TV to the last
digit, so a refactor of the engines has to keep their arithmetic as well as
their verdicts. To regenerate one, run the invocation with
`--format FMT --out tests/golden/NAME.FMT`.
"""
from pathlib import Path

import pytest

from qlocal import experiments
from qlocal.cli import main

GOLDEN = Path(__file__).parent / "golden"

INVOCATIONS = {
    "relation-validity": ["--experiment", "relation-validity", "--d", "2,4",
                          "--shots", "50", "--seed", "7"],
    "subgraph-fidelity": ["--experiment", "subgraph-fidelity", "--d", "2"],
    "gamma-exact": ["--experiment", "gamma-exact", "--d", "2,4"],
    "tv-adversary": ["--experiment", "tv-adversary", "--d", "4", "--T", "1"],
    "k-copies": ["--experiment", "k-copies", "--d", "4", "--k", "1,2"],
    "lemma2": ["--experiment", "lemma2"],
    "affine-bound": ["--experiment", "affine-bound"],
    "derandomize-demo": ["--experiment", "derandomize-demo"],
}


def test_every_experiment_has_a_golden():
    assert set(INVOCATIONS) == set(experiments.EXPERIMENTS)


@pytest.mark.parametrize("fmt", ["table", "records"])
@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_report_matches_golden(name, fmt, tmp_path):
    out = tmp_path / f"{name}.{fmt}"
    assert main(INVOCATIONS[name] + ["--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()
