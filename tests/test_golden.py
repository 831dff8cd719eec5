"""Golden outputs: the CLI's numbers stay put from one version to the next.

The byte-determinism criterion compares two runs of the same code; these files
pin the numbers across code changes.  Headers, columns, keys and labels must
match exactly and every number to 1e-12 absolute or 1e-10 relative.  Rewrite
the files only for a deliberate change of the numbers, from the repository
root:

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from phaselab import cli

GOLDEN = Path(__file__).parent / "golden"

# The byte-determinism scenarios of the acceptance suite, a longer
# verify-gauge campaign, and a dim-3 custom-sampled run whose config names its
# Hamiltonian file relative to GOLDEN (runs start there, so the header path is
# the same everywhere).
CASES = {
    "simulate.csv": ["simulate", "--mu-b", "1", "--omega", "4", "--theta",
                     str(2 * np.pi / 3), "--steps", "2000", "--seed", "5"],
    "simulate.json": ["simulate", "--mu-b", "1", "--omega", "1", "--theta", "1.0",
                      "--steps", "1500", "--format", "json"],
    "sweep.csv": ["sweep", "--axis", "theta", "--values", "0.4,0.9,1.4", "--steps", "500"],
    "sweep.json": ["sweep", "--axis", "theta", "--values", "0.4,0.9,1.4", "--steps", "500",
                   "--format", "json"],
    "verify.csv": ["verify-gauge", "--steps", "1500", "--trials", "3", "--seed", "21"],
    # more trials pin the campaign's RNG draw order and all eleven maxima
    "verify_campaign.csv": ["verify-gauge", "--steps", "3000", "--trials", "7", "--seed", "4",
                            "--gauge-scale", "0.3", "--big-theta", "1.1"],
    "custom.csv": ["simulate", "--config", "custom.cfg"],
    "custom.json": ["simulate", "--config", "custom.cfg", "--format", "json"],
}


def _parse(name: str, text: str):
    if name.endswith(".json"):
        return json.loads(text)
    return [line.split(",") for line in text.splitlines()]


def _number(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def assert_close(got, want, where="output"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for k, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{k}]")
    elif _number(want) is not None and _number(got) is not None:
        assert math.isclose(_number(got), _number(want), rel_tol=1e-10, abs_tol=1e-12), (
            f"{where}: {got} != golden {want}"
        )
    else:
        assert got == want, f"{where}: {got!r} != golden {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / name
    assert cli.main([*CASES[name], "--out", str(out)]) == 0
    want = (GOLDEN / name).read_text()
    assert_close(_parse(name, out.read_text()), _parse(name, want), name)


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        assert cli.main([*argv, "--out", name]) == 0, name
