"""Every demo runs to completion, prints the same bytes twice, and prints the recorded bytes."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change here is a change in what a demo prints
DEMO_SHA256 = {
    "exact_edge_budgets.py":
        "aa9b0c5c0a5e3d633a44951e7ac40da04b1c1cc339168af54337dfdfa3eda2ca",
    "progression_discrepancy.py":
        "c126aba7ae2381c730da22e1e5974b61873f990fef52f52af98345610aa7d966",
    "range_survey.py":
        "cbae93b77d4d4af1d5ee317946819fc69a85603bc078160729d8b92ea3e8ec96",
}


def _run(demo: pathlib.Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120, check=False
    )


def test_every_demo_is_collected():
    assert len(DEMOS) >= 3
    assert sorted(DEMO_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_and_is_deterministic(demo):
    first, second = _run(demo), _run(demo)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout, demo.name
    assert first.stdout == second.stdout, demo.name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_prints_the_recorded_bytes(demo):
    run = _run(demo)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_SHA256[demo.name], run.stdout.decode()
