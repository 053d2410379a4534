"""Every demo script and every oracle script runs to completion in a fresh
interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ORACLES = sorted((ROOT / "tools").glob("oracle_*.py"))


def _run(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, cwd=ROOT
    )


def test_all_seven_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    res = _run(demo)
    assert res.returncode == 0, res.stderr


def test_all_four_oracles_are_found():
    assert len(ORACLES) == 4


# the oracles import nothing from the package; they produced the constants
# frozen in test_catalog, test_gf, test_roots and test_theorems
@pytest.mark.parametrize("oracle", ORACLES, ids=[o.stem for o in ORACLES])
def test_oracle_runs(oracle):
    res = _run(oracle)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
